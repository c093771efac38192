"""Streaming exhaustive enumeration of all 2**n configurations.

A replica is one realization of the model: 2**n independent energies
drawn from an :class:`~remlab.environment.Environment` through a keyed
counter-based stream, so any index range can be regenerated on demand
and never needs to be held in memory at once.

``run_replica`` reduces the configuration space in fixed chunks, in
three steps.  ``summarize`` reduces each chunk to a
:class:`ChunkSummary`: Gibbs quantities from energies, cut counts from
uniforms.  Each of these two parts stands one generator at the chunk's
start and draws the uniforms from it, block of ``_ENERGY_BLOCK`` after
block, so each pass works on data that stays in the caches.

- The Gibbs quantities, for a spec with betas: the chunk's minimum, the
  ``top_m`` lowest energies, and, per beta, the Gibbs-factor sum and the
  spin-block marginals relative to the chunk's minimum, so nothing
  overflows at any beta.  ``energy_block`` runs the quantile in place
  on each block of uniforms, and every reduction but the minimum and
  the ``top_m`` pool then runs one block at a time.  The per-beta sums
  are added up in numpy's own pairwise-summation tree, so each is
  bit-identical to one ``np.sum`` over the chunk's factors.  Each factor
  is one ``exp``, except on a grid of betas ``beta_1, 2 * beta_1, ...,
  m * beta_1`` (``m >= 2``), where the factors at ``j * beta_1`` are
  those at ``beta_1`` multiplied in ``j`` times; a chunk's sums then
  stay within a relative ``m * 2**-52`` of one ``exp`` per beta, as
  measured (``_gibbs`` has the rule).
- The cut counts, for a spec with intervals or b levels: the interval
  hit counts for the empirical energy-per-site measure and the
  positions of the shifted extremes above each threshold.  They depend
  only on where energies fall against fixed cuts, so they are counted
  on the uniforms themselves.  The quantile is increasing up to its
  stated error, so ``Environment.uniform_window`` gives, per cut, an
  interval of uniforms outside of which the side of the cut follows
  from the uniform alone (the proof is in its docstring).  The quantile
  runs only on the draws inside a window and on the draws that may
  exceed a b level: 1e-4 of the draws or fewer at the built-in sizes.
  The counts are those of the energies, bit for bit.

A spec with both draws each chunk's uniforms twice, once per part; no
experiment reads both.  A spec without betas has no minimum (it is
NaN), and one with neither draws nothing.

``merge`` combines two summaries, rescaling the per-beta sums to the
smaller minimum; ``fold`` merges a replica's summaries strictly left to
right, in chunk order.  ``finish`` turns the folded summary into a
:class:`ReplicaResult`.  A process pool may summarize the chunks of one
replica in different processes; chunk boundaries and the merge order are
fixed by the ``ReplicaSpec`` alone, so results are bit-identical no
matter how replicas or their chunks are scheduled across processes.

Configuration index convention: bit ``j`` of the index is spin ``j``,
with bit value 1 for spin +1.  A marginal block of size ``k`` is the low
``k`` bits, so the marginal vector entry for pattern ``p`` sums Gibbs
weights over all indices ``i`` with ``i & (2**k - 1) == p``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from remlab.environment import Environment
from remlab.pointprocess import WeightSequence
from remlab.rng import ENERGY_STREAM, seed_derivation, stream_generator, uniform_block
from remlab.theory import LOG2, shift_constant

CHUNK_BITS = 20
CHUNK = 1 << CHUNK_BITS
MAX_N = 30
TOP_M = 1024  # default size of the pool of lowest energies
# The largest beta.  Every energy lies within 46 of 0 for n <= MAX_N and
# every alpha (the quantile of the smallest uniform, 2**-54, is furthest out
# near alpha = 2), so beta * (E - E_min) < 100 * MAX_BETA, log Z and the
# free energy stay finite.
MAX_BETA = 1e300
# Configurations per pass of every layer below the chunk: the uniform
# and quantile layers draw energies in blocks of this size, and
# ``summarize`` reduces them in blocks of at most this size.  Their
# temporaries (256 KB each) stay in the caches, so neither generation nor
# reduction waits on memory, nor do processes that stream chunks side by
# side contend for it.
_ENERGY_BLOCK = 1 << 15
# Where _POOL_MARGIN * top_m is under a chunk's size, its top_m pool is
# partitioned from the energies at or below the quantile of that share of
# the chunk, about 4 * top_m of them, instead of from a copy of the whole
# chunk.  Fewer than top_m of them (then the whole chunk is partitioned)
# come with a probability below 1e-300 at top_m 1024.
_POOL_MARGIN = 4


@dataclass(frozen=True)
class ReplicaSpec:
    """Complete description of one replica and everything to measure on it.

    ``betas``, ``intervals`` and ``b_levels`` hold distinct values; betas
    may include 0 (infinite temperature), where the partition function is
    exactly 2**n; with no betas the per-beta sums are skipped.
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
    top_m: int = TOP_M
    master_seed: int = 0
    replica_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.env, Environment):
            raise ValueError(f"env must be an Environment, got {type(self.env).__name__}")
        if self.env.n > MAX_N:
            raise ValueError(f"n = {self.env.n} exceeds the streaming budget (n <= {MAX_N})")
        betas = tuple(float(b) for b in self.betas)
        for b in betas:
            if not 0.0 <= b <= MAX_BETA:
                raise ValueError(f"betas must lie in [0, {MAX_BETA:g}], got {b!r}")
        object.__setattr__(self, "betas", betas)
        k = self.k_marginal
        # at most CHUNK_BITS, so a chunk's marginal vector is never longer than the chunk
        top = min(self.env.n, CHUNK_BITS)
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= top:
            raise ValueError(f"k_marginal must be an integer in [0, min(n, {CHUNK_BITS})], got {k!r}")
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
        for name, values in (("betas", betas), ("intervals", intervals), ("b_levels", levels)):
            if len(set(values)) != len(values):  # each value keys its own results
                raise ValueError(f"{name} must be distinct, got {values!r}")
        # at most one chunk's energies, kept per chunk until the fold
        m = self.top_m
        if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m <= 1 << CHUNK_BITS:
            raise ValueError(f"top_m must be an integer in [0, 2^{CHUNK_BITS}], got {m!r}")
        # range checks on the seed fields happen here
        seed_derivation(self.master_seed, self.replica_id, ENERGY_STREAM)

    @property
    def n(self) -> int:
        return self.env.n

    @property
    def size(self) -> int:
        return 1 << self.env.n


@dataclass(frozen=True)
class ReplicaResult:
    """Everything measured on one replica; per-beta maps are keyed by beta.

    ``spectrum`` maps each beta to the largest Gibbs weights in
    descending order, a ``WeightSequence``; one minus their sum is the
    mass of the rest.
    ``exceedance`` maps each b level to the shifted positions
    ``-(H + shift_constant(n)) >= b`` in configuration-index order.
    ``min_energy`` is the ground state, or NaN for a spec without betas,
    whose energies are not computed.
    """

    n: int
    replica_id: int
    min_energy: float
    log_z: dict[float, float]
    spectrum: dict[float, WeightSequence]
    marginal: dict[float, np.ndarray]
    interval_hits: dict[tuple[float, float], int] = field(default_factory=dict)
    exceedance: dict[float, np.ndarray] = field(default_factory=dict)


def energy_block(spec: ReplicaSpec, lo: int, hi: int) -> np.ndarray:
    """Energies of configurations ``lo .. hi-1``, regenerated from the key.

    Pure function of (master_seed, replica_id, index range): any two
    calls covering an index agree bit for bit.  One generator stood at
    ``lo`` draws the uniforms block by block into the output, and the
    quantile runs in place on each block.
    """
    if not 0 <= lo <= hi <= spec.size:
        raise ValueError(f"index range [{lo}, {hi}) out of [0, {spec.size})")
    out = np.empty(hi - lo)
    gen = stream_generator(spec.master_seed, spec.replica_id, ENERGY_STREAM, lo)
    for a in range(0, hi - lo, _ENERGY_BLOCK):
        block = out[a : a + _ENERGY_BLOCK]
        spec.env.quantile(uniform_block(gen, block), out=block)
    return out


@dataclass(frozen=True)
class ChunkSummary:
    """What a replica keeps of a chunk, or of consecutive chunks merged.

    The Gibbs quantities come first, the cut counts last.  ``z`` and
    ``y`` map each beta to the Gibbs-factor sum and the marginal vector
    of the chunks, relative to their own ``min_energy``:
    ``sum exp(-beta (E - min_energy))``, in total and per pattern of the
    low ``k_marginal`` bits.  ``best`` holds the lowest energies,
    unordered: ``min(top_m, 2^n)`` of them for a spec with betas, since
    a chunk holds ``min(2^20, 2^n)`` energies and ``top_m <= 2^20``.
    ``positions`` holds one array per b level.
    """

    min_energy: float
    best: np.ndarray
    z: dict[float, float]
    y: dict[float, np.ndarray]
    hits: tuple[int, ...]
    positions: tuple[np.ndarray, ...]


def chunks(spec: ReplicaSpec) -> range:
    """The first index of each of the replica's chunks, in order."""
    return range(0, spec.size, CHUNK)


def _pairwise(reduce_block, lo: int, hi: int):
    """Sum ``reduce_block(a, b)`` over blocks of ``[lo, hi)`` in numpy's pairwise tree.

    numpy sums a contiguous run by halving it (each half a multiple of 8
    long) down to pieces of at most 128, and adds the pieces' sums back up
    the tree.  Halving the same way down to ``_ENERGY_BLOCK`` and summing
    each block with ``np.sum`` adds the same numbers in the same order, so
    the total is bit-identical to one ``np.sum`` over the run.  The blocks
    are visited in index order.
    """
    if hi - lo <= _ENERGY_BLOCK:
        return reduce_block(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise(reduce_block, lo, lo + half) + _pairwise(reduce_block, lo + half, hi)


def summarize(spec: ReplicaSpec, lo: int) -> ChunkSummary:
    """The :class:`ChunkSummary` of the chunk that starts at ``lo``, one of ``chunks(spec)``.

    Its Gibbs quantities come from its energies (``_gibbs``), its
    interval hits and exceedance positions from its uniforms
    (``_cuts``); see the module docstring.
    """
    if lo not in chunks(spec):
        raise ValueError(f"{lo} is not the start of a chunk of [0, {spec.size})")
    hi = min(lo + CHUNK, spec.size)
    return ChunkSummary(*_gibbs(spec, lo, hi), *_cuts(spec, lo, hi))


def _lowest(env: Environment, e: np.ndarray, keep: int) -> np.ndarray:
    """A copy of the ``keep`` lowest values of ``e`` (all of them if fewer), unordered.

    Where ``_POOL_MARGIN * keep`` is under ``e.size``, only the energies
    at or below ``env.quantile(_POOL_MARGIN * keep / e.size)`` are
    partitioned, unless fewer than ``keep`` of them are there.  The
    values are the same either way; their order may differ.
    """
    if not 0 < keep < e.size:
        return e[:keep].copy()
    if _POOL_MARGIN * keep < e.size:
        pool = e[e <= env.quantile(_POOL_MARGIN * keep / e.size)]
        if pool.size >= keep:
            e = pool
    # a copy: a view would keep the whole chunk alive with the summary
    return np.partition(e, keep - 1)[:keep].copy()


def _gibbs(spec: ReplicaSpec, lo: int, hi: int) -> tuple:
    """``(min_energy, best, z, y)`` of the chunk ``[lo, hi)``, from its energies.

    The minimum and the lowest energies are taken over the whole chunk;
    the per-beta sums and marginals run block by block, in index order,
    on buffers of one block.  ``np.add.at`` adds each block's factors
    into the marginals one at a time, in index order, as ``np.bincount``
    adds them, at each index's low ``k`` bits, sliced for a block from
    one ring per chunk, ``ring[j] = j & (2**k - 1)``, one block plus
    ``2**k`` long (8.6 MB at ``k = 20``, about one marginal vector).  A
    spec without betas draws nothing here, and its minimum is NaN.

    The grid rule: where the betas, sorted, are exactly ``beta_1, 2 *
    beta_1, ..., m * beta_1`` in floating point, with ``m >= 2`` and
    ``beta_1 > 0``, only the factors at ``beta_1`` come from ``np.exp``,
    ``g_1 = exp((E - min) * -beta_1)``, and those at ``j * beta_1`` are
    ``g_j = g_{j-1} * g_1``.  A factor's rounding then differs from its
    own ``exp`` by up to some tens of ulp, of either sign, so a chunk's
    sums, and its marginals at ``k <= 3``, stay within a relative ``m *
    2**-52`` of one ``exp`` per beta in every grid the tests measure
    (``m`` up to 32, at ``alpha`` 1 and 2).  Any other betas, such as
    one beta, a beta of 0 or ``(0.1, 0.2, 0.3)`` (``3 * 0.1 != 0.3``),
    get one ``exp`` per beta.  Either way, each per-beta total is
    bit-identical to one ``np.sum`` over the chunk's factors.
    """
    betas = spec.betas
    if not betas:
        return math.nan, np.empty(0), {}, {}
    k = spec.k_marginal
    e = energy_block(spec, lo, hi)
    chunk_min = float(e.min())
    best = _lowest(spec.env, e, spec.top_m)
    width = min(_ENERGY_BLOCK, e.size)
    work = np.empty(width)
    shifted = np.empty(width)
    y = {beta: np.zeros(1 << k) for beta in betas} if k else {}
    mask = (1 << k) - 1
    ring = np.arange(width + (1 << k)) & mask if k else None
    order = sorted(range(len(betas)), key=betas.__getitem__)
    step = betas[order[0]]
    grid = len(betas) > 1 and step > 0 and all(betas[i] == j * step for j, i in enumerate(order, 1))

    def reduce_block(a: int, b: int) -> np.ndarray:
        sums = np.empty(len(betas))
        rel = np.subtract(e[a:b], chunk_min, out=shifted[: b - a])
        # the marginal pattern of each index of the block, the low k bits
        pattern = ring[(lo + a) & mask :][: b - a] if k else None
        for j, i in enumerate(order):
            beta = betas[i]
            if not grid:
                g = np.exp(np.multiply(rel, -beta, out=work[: b - a]), out=work[: b - a])
            elif not j:
                # the factors at beta_1, in the place of rel, which is not read again
                g1 = g = np.exp(np.multiply(rel, -beta, out=rel), out=rel)
            else:
                # the factors at (j + 1) * beta_1: those at j * beta_1 times those at beta_1
                g = np.multiply(g, g1, out=work[: b - a])
            sums[i] = g.sum()
            if k:
                np.add.at(y[beta], pattern, g)
        return sums

    z = dict(zip(betas, _pairwise(reduce_block, 0, e.size).tolist()))
    if not k:
        # with no marginal spins the one pattern holds the whole sum
        y = {beta: np.array([z[beta]]) for beta in betas}
    return chunk_min, best, z, y


def _exceedance_cut(level: float, shift: float) -> float:
    """An energy above which ``-(E + shift) >= level`` fails for every computed ``E``.

    The exact cut is ``-(shift + level)``.  The margin, a relative 1e-15,
    exceeds the rounding of that sum, of ``E + shift`` and an ulp of
    ``level`` together.
    """
    cut = -(shift + level)
    return cut + 1e-15 * (abs(cut) + abs(level))


def _cuts(spec: ReplicaSpec, lo: int, hi: int) -> tuple:
    """``(hits, positions)`` of the chunk ``[lo, hi)``, from its uniforms alone.

    The quantile is increasing up to its stated error, so the place of an
    energy against a cut follows from its uniform, except for draws in
    the cut's ``Environment.uniform_window``.  Only those and the draws
    that may exceed a b level get an energy, the one ``energy_block``
    gives them.  A spec without cuts draws nothing here.
    """
    env = spec.env
    n = spec.n
    levels = spec.b_levels
    if not (spec.intervals or levels):
        return (), ()
    shift = shift_constant(n)
    # the ends of each interval, low then high: hits = #(E < high) - #(E <= low)
    ends = [(env.uniform_window(x), x) for a, b in spec.intervals for x in (a * n, b * n)]
    # every draw that may exceed a b level lies at or below ``reach``
    reach = max((env.uniform_window(_exceedance_cut(b, shift))[1] for b in levels), default=0.0)
    buf = np.empty(min(_ENERGY_BLOCK, hi - lo))
    gen = stream_generator(spec.master_seed, spec.replica_id, ENERGY_STREAM, lo)
    below = [0] * len(ends)
    found = [[] for _ in levels]
    for a in range(lo, hi, _ENERGY_BLOCK):
        u = uniform_block(gen, buf[: min(_ENERGY_BLOCK, hi - a)])
        for i, ((u_lo, u_hi), x) in enumerate(ends):
            count = np.count_nonzero(u < u_lo)
            if np.count_nonzero(u <= u_hi) > count:
                e = env.quantile(u[(u >= u_lo) & (u <= u_hi)])
                count += np.count_nonzero(e < x if i % 2 else e <= x)
            below[i] += int(count)
        near = u[u <= reach] if levels else u[:0]
        if near.size:
            extremes = -(env.quantile(near) + shift)
            for level, into in zip(levels, found):
                into.append(extremes[extremes >= level])
    hits = tuple(h - l for l, h in zip(below[::2], below[1::2]))
    return hits, tuple(np.concatenate(into) if into else np.empty(0) for into in found)


def merge(left: ChunkSummary, right: ChunkSummary) -> ChunkSummary:
    """The summary of ``left``'s chunks followed by ``right``'s.

    The per-beta sums of both are rescaled to the smaller minimum; the
    side that holds it is multiplied by exactly 1, which is skipped.
    Both summaries are consumed: the marginal vectors are rescaled and
    summed in place, in ``left``'s arrays, so a fold allocates none.
    The merge keeps as many of the lowest energies as ``left`` holds.
    """
    low = min(left.min_energy, right.min_energy)
    z, y = {}, {}
    for beta in left.z:
        lf = math.exp(-beta * (left.min_energy - low))
        rf = math.exp(-beta * (right.min_energy - low))
        z[beta] = left.z[beta] * lf + right.z[beta] * rf
        y[beta] = left.y[beta]
        if lf != 1.0:
            y[beta] *= lf
        if rf != 1.0:
            right.y[beta] *= rf
        y[beta] += right.y[beta]
    best = np.concatenate([left.best, right.best])
    if best.size > left.best.size:
        best = np.partition(best, left.best.size - 1)[: left.best.size]
    return replace(
        left,
        min_energy=low,
        best=best,
        z=z,
        y=y,
        hits=tuple(a + b for a, b in zip(left.hits, right.hits)),
        positions=tuple(np.concatenate(pair) for pair in zip(left.positions, right.positions)),
    )


def fold(summaries) -> ChunkSummary:
    """Merge summaries strictly left to right, the one order every schedule uses."""
    return functools.reduce(merge, summaries)


def finish(spec: ReplicaSpec, summary: ChunkSummary) -> ReplicaResult:
    """The replica's result from the summary of all its chunks; its Gibbs spectra descend."""
    min_energy = summary.min_energy
    best = np.sort(summary.best)
    log_z = {}
    spectrum = {}
    marginal = {}
    for beta in spec.betas:
        total = summary.z[beta]
        log_z[beta] = math.log(total) - beta * min_energy
        marginal[beta] = summary.y[beta] / total
        if summary.best.size:
            # exp(-beta (E - min)) / total in one array; the energies ascend,
            # so the weights descend and any that underflowed to 0 come last
            w = np.subtract(best, min_energy)
            w *= -beta
            np.exp(w, out=w)
            w /= total
            spectrum[beta] = WeightSequence(w[: np.count_nonzero(w)])
    return ReplicaResult(
        n=spec.n,
        replica_id=spec.replica_id,
        min_energy=min_energy,
        log_z=log_z,
        spectrum=spectrum,
        marginal=marginal,
        interval_hits=dict(zip(spec.intervals, summary.hits)),
        exceedance=dict(zip(spec.b_levels, summary.positions)),
    )


def run_replica(spec: ReplicaSpec) -> ReplicaResult:
    """Measure one replica exhaustively; see the module docstring."""
    return finish(spec, fold(summarize(spec, lo) for lo in chunks(spec)))


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
    return -(math.log(hits) - result.n * LOG2) / result.n
