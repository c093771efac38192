"""Streaming exhaustive enumeration of all 2**n configurations.

A replica is one realization of the model: 2**n independent energies
drawn from an :class:`~remlab.environment.Environment` through a keyed
counter-based stream, so any index range can be regenerated on demand
and never needs to be held in memory at once.

``run_replica`` makes one deterministic pass over the configuration
space in fixed chunks.  Each chunk's energies are generated once and
update every measured quantity: the ground state energy, interval hit
counts for the empirical energy-per-site measure, the positions of the
shifted extremes above each threshold, the ``top_m`` lowest energies,
and, per beta, the partition function and the spin-block marginals.
The per-beta sums are kept relative to the running minimum, so nothing
overflows at any beta; when a chunk lowers the minimum, the sums of the
earlier chunks are rescaled to it first.  Chunk boundaries and
accumulation order are fixed by the ``ReplicaSpec`` fields alone, which
makes results bit-identical no matter how replicas are scheduled across
processes.

Configuration index convention: bit ``j`` of the index is spin ``j``,
with bit value 1 for spin +1.  A marginal block of size ``k`` is the low
``k`` bits, so the marginal vector entry for pattern ``p`` sums Gibbs
weights over all indices ``i`` with ``i & (2**k - 1) == p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from remlab.environment import Environment
from remlab.rng import ENERGY_STREAM, seed_derivation, uniform_block
from remlab.theory import shift_constant

CHUNK = 1 << 20
MAX_N = 30


@dataclass(frozen=True)
class ReplicaSpec:
    """Complete description of one replica and everything to measure on it.

    ``betas`` may include 0 (infinite temperature), where the partition
    function is exactly 2**n; with no betas the per-beta sums are skipped.
    ``top_m`` bounds the pool of lowest energies behind the Gibbs spectra;
    with ``top_m=0`` (or no betas) the pool is skipped and ``spectrum`` is
    empty.
    ``intervals`` are open intervals on the energy-per-site scale.
    ``b_levels`` are thresholds for the shifted extreme-value positions.
    The pair (master_seed, replica_id) keys the energy stream; distinct
    pairs give statistically independent replicas.
    """

    env: Environment
    betas: tuple[float, ...]
    k_marginal: int = 0
    intervals: tuple[tuple[float, float], ...] = ()
    b_levels: tuple[float, ...] = ()
    top_m: int = 1024
    master_seed: int = 0
    replica_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.env, Environment):
            raise ValueError(f"env must be an Environment, got {type(self.env).__name__}")
        if self.env.n > MAX_N:
            raise ValueError(f"n = {self.env.n} exceeds the streaming budget (n <= {MAX_N})")
        betas = tuple(float(b) for b in self.betas)
        for b in betas:
            if not math.isfinite(b) or b < 0.0:
                raise ValueError(f"betas must be finite and >= 0, got {b!r}")
        object.__setattr__(self, "betas", betas)
        k = self.k_marginal
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= self.env.n:
            raise ValueError(f"k_marginal must be an integer in [0, n], got {k!r}")
        intervals = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in intervals:
            if math.isnan(a) or math.isnan(b) or a >= b:
                raise ValueError(f"intervals must satisfy low < high, got ({a}, {b})")
        object.__setattr__(self, "intervals", intervals)
        levels = tuple(float(b) for b in self.b_levels)
        for b in levels:
            if not math.isfinite(b):
                raise ValueError(f"b_levels must be finite, got {b!r}")
        object.__setattr__(self, "b_levels", levels)
        if not isinstance(self.top_m, int) or isinstance(self.top_m, bool) or self.top_m < 0:
            raise ValueError(f"top_m must be an integer >= 0, got {self.top_m!r}")
        # range checks on the seed fields happen here
        seed_derivation(self.master_seed, self.replica_id, ENERGY_STREAM)

    @property
    def n(self) -> int:
        return self.env.n

    @property
    def size(self) -> int:
        return 1 << self.env.n


@dataclass(frozen=True)
class GibbsSpectrum:
    """Largest Gibbs weights in nonincreasing order plus the remaining mass."""

    weights: np.ndarray
    tail_mass: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be nonincreasing")
        if w[-1] <= 0.0 or w[0] > 1.0:
            raise ValueError("weights must lie in (0, 1]")
        if not -1e-9 <= self.tail_mass < 1.0:
            raise ValueError(f"tail_mass must lie in [0, 1), got {self.tail_mass}")
        if abs(float(w.sum()) + self.tail_mass - 1.0) > 1e-9:
            raise ValueError("weights and tail_mass must sum to 1")


@dataclass(frozen=True)
class ReplicaResult:
    """Everything measured on one replica; per-beta maps are keyed by beta.

    ``exceedance`` maps each b level to the shifted positions
    ``-(H + shift_constant(n)) >= b`` in configuration-index order.
    """

    n: int
    replica_id: int
    min_energy: float
    log_z: dict[float, float]
    spectrum: dict[float, GibbsSpectrum]
    marginal: dict[float, np.ndarray]
    interval_hits: dict[tuple[float, float], int] = field(default_factory=dict)
    exceedance: dict[float, np.ndarray] = field(default_factory=dict)


def energy_block(spec: ReplicaSpec, lo: int, hi: int) -> np.ndarray:
    """Energies of configurations ``lo .. hi-1``, regenerated from the key.

    Pure function of (master_seed, replica_id, index range): any two
    calls covering an index agree bit for bit.
    """
    if not 0 <= lo <= hi <= spec.size:
        raise ValueError(f"index range [{lo}, {hi}) out of [0, {spec.size})")
    key = seed_derivation(spec.master_seed, spec.replica_id, ENERGY_STREAM)
    return spec.env.quantile(uniform_block(key, lo, hi))


def run_replica(spec: ReplicaSpec) -> ReplicaResult:
    """Measure one replica exhaustively; see the module docstring."""
    n = spec.n
    size = spec.size
    shift = shift_constant(n)
    betas = spec.betas
    mask = (1 << spec.k_marginal) - 1
    patterns = 1 << spec.k_marginal
    keep = min(spec.top_m, size) if betas else 0

    min_energy = math.inf  # running minimum; the per-beta sums are relative to it
    hits = [0] * len(spec.intervals)
    positions = [[] for _ in spec.b_levels]
    best = np.empty(0, dtype=float)
    z_total = {beta: 0.0 for beta in betas}
    y = {beta: np.zeros(patterns, dtype=float) for beta in betas}
    # one Gibbs-factor buffer for every chunk and beta: writing into it
    # in place avoids faulting in fresh pages for each temporary
    z_buffer = np.empty(min(CHUNK, size) if betas else 0, dtype=float)
    for lo in range(0, size, CHUNK):
        hi = min(lo + CHUNK, size)
        e = energy_block(spec, lo, hi)
        for j, (a, b) in enumerate(spec.intervals):
            hits[j] += int(np.count_nonzero((e > a * n) & (e < b * n)))
        if spec.b_levels:
            shifted_extremes = -(e + shift)
            for j, b in enumerate(spec.b_levels):
                positions[j].append(shifted_extremes[shifted_extremes >= b])
        chunk_min = float(e.min())
        if chunk_min < min_energy:
            # rescale the earlier chunks' sums to the new minimum; the first
            # chunk has none (and its factor exp(-0 * inf) is nan at beta = 0)
            if min_energy < math.inf:
                for beta in betas:
                    factor = math.exp(-beta * (min_energy - chunk_min))
                    z_total[beta] *= factor
                    y[beta] *= factor
            min_energy = chunk_min
        if keep:
            pool = np.concatenate([best, e])
            if pool.size > keep:
                pool = np.partition(pool, keep - 1)[:keep]
            best = pool
        if not betas:
            continue
        shifted = e - min_energy
        z = z_buffer[: hi - lo]
        if mask:
            pat = np.arange(lo, hi, dtype=np.int64) & mask
        for beta in betas:
            np.multiply(shifted, -beta, out=z)
            np.exp(z, out=z)
            z_sum = float(z.sum())
            z_total[beta] += z_sum
            # with no marginal spins the one pattern holds the whole sum
            y[beta] += np.bincount(pat, weights=z, minlength=patterns) if mask else z_sum
    best = np.sort(best)

    log_z = {}
    spectrum = {}
    marginal = {}
    for beta in betas:
        total = z_total[beta]
        log_z[beta] = math.log(total) - beta * min_energy
        marginal[beta] = y[beta] / total
        if keep:
            w = np.exp(-beta * (best - min_energy)) / total
            w = w[w > 0.0]
            spectrum[beta] = GibbsSpectrum(w, max(0.0, 1.0 - float(w.sum())))
    return ReplicaResult(
        n=n,
        replica_id=spec.replica_id,
        min_energy=min_energy,
        log_z=log_z,
        spectrum=spectrum,
        marginal=marginal,
        interval_hits={iv: hits[j] for j, iv in enumerate(spec.intervals)},
        exceedance={b: np.concatenate(positions[j]) for j, b in enumerate(spec.b_levels)},
    )


def free_energy(result: ReplicaResult, beta: float) -> float:
    """``log_z(beta) / n``; raises ``KeyError`` for a beta not in the spec."""
    return result.log_z[float(beta)] / result.n


def rate_estimate(result: ReplicaResult, interval: tuple[float, float]) -> float:
    """``-(1/n) log(hits / 2**n)``, or ``math.inf`` when the interval is empty.

    The infinite value is the honest report for zero hits: the empirical
    measure already vanished at this size, matching the divergent branch
    of the rate function.
    """
    a, b = interval
    hits = result.interval_hits[(float(a), float(b))]
    if hits == 0:
        return math.inf
    return -(math.log(hits) - result.n * math.log(2.0)) / result.n
