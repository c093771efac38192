"""Streaming exhaustive enumeration of all 2**n configurations.

A replica is one realization of the model: 2**n independent energies
drawn from an :class:`~remlab.environment.Environment` through a keyed
counter-based stream, so any index range can be regenerated on demand
and never needs to be held in memory at once.

``run_replica`` makes one deterministic pass over the configuration
space in fixed chunks, in three steps.  ``summarize`` reduces each chunk
to a :class:`ChunkSummary`: the chunk's minimum, interval hit counts for
the empirical energy-per-site measure, the positions of the shifted
extremes above each threshold, the ``top_m`` lowest energies, and, per
beta, the Gibbs-factor sum and the spin-block marginals relative to the
chunk's minimum, so nothing overflows at any beta.  Each chunk's
uniforms come from one generator, block of ``_ENERGY_BLOCK`` after
block, so each pass works on data that stays in the caches.  Which of
two paths reduces them depends on the spec alone:

- The energy path, for a spec with betas: ``energy_block`` runs the
  quantile in place on each block of uniforms, and every reduction but
  the minimum and the ``top_m`` pool then runs one block at a time.  The
  per-beta sums are added up in numpy's own pairwise-summation tree, so
  each is bit-identical to one ``np.sum`` over the chunk.
- The order-only path, for a spec without betas, where every result
  depends only on where energies fall against fixed cuts, reduces the
  uniforms themselves.  The quantile is increasing up to its stated
  error, so ``Environment.uniform_window`` gives, per cut, an interval
  of uniforms outside of which the side of the cut follows from the
  uniform alone (the proof is in its docstring).  The quantile runs
  only on the draws inside a window, on the draws that may exceed a b
  level, and on the draws next to a block's smallest uniform, which
  hold the minimum: 1e-4 of the draws or fewer at the built-in sizes.  The hits,
  exceedance positions and minimum are those of the energy path, bit
  for bit.

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
from dataclasses import dataclass, field

import numpy as np

from remlab.environment import Environment
from remlab.pointprocess import WeightSequence
from remlab.rng import ENERGY_STREAM, UniformStream, seed_derivation, uniform_block
from remlab.theory import LOG2, shift_constant

CHUNK_BITS = 20
CHUNK = 1 << CHUNK_BITS
MAX_N = 30
TOP_M = 1024  # default size of the pool of lowest energies
# Configurations per pass of every layer below the chunk: the uniform
# and quantile layers draw energies in blocks of this size, and
# ``summarize`` reduces them in blocks of at most this size.  Their
# temporaries (256 KB each) stay in the caches, so neither generation nor
# reduction waits on memory, nor do processes that stream chunks side by
# side contend for it.
_ENERGY_BLOCK = 1 << 15


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
            if not math.isfinite(b) or b < 0.0:
                raise ValueError(f"betas must be finite and >= 0, got {b!r}")
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

    @property
    def key(self) -> int:
        """The key of the replica's energy stream."""
        return seed_derivation(self.master_seed, self.replica_id, ENERGY_STREAM)


@dataclass(frozen=True)
class ReplicaResult:
    """Everything measured on one replica; per-beta maps are keyed by beta.

    ``spectrum`` maps each beta to the largest Gibbs weights, a
    ``WeightSequence`` whose ``deficit`` is the mass of the rest.
    ``exceedance`` maps each b level to the shifted positions
    ``-(H + shift_constant(n)) >= b`` in configuration-index order.
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
    calls covering an index agree bit for bit.  One generator draws the
    uniforms of the range block by block, straight into the output, and
    the quantile runs in place on each block.
    """
    if not 0 <= lo <= hi <= spec.size:
        raise ValueError(f"index range [{lo}, {hi}) out of [0, {spec.size})")
    out = np.empty(hi - lo)
    stream = UniformStream(spec.key, lo)
    for start in range(lo, hi, _ENERGY_BLOCK):
        stop = min(start + _ENERGY_BLOCK, hi)
        block = out[start - lo : stop - lo]
        spec.env.quantile(uniform_block(stream, start, stop, out=block), out=block)
    return out


@dataclass(frozen=True)
class ChunkSummary:
    """What a replica keeps of a run of consecutive chunks.

    ``z`` and ``y`` map each beta to the Gibbs-factor sum and the
    marginal vector of the run, relative to its own ``min_energy``:
    ``sum exp(-beta (E - min_energy))``, in total and per pattern of the
    low ``k_marginal`` bits.  ``positions`` holds one array per chunk and
    b level, ``best`` the lowest ``keep`` energies, unordered.
    """

    min_energy: float
    hits: tuple[int, ...]
    positions: tuple[tuple[np.ndarray, ...], ...]
    keep: int
    best: np.ndarray
    z: dict[float, float]
    y: dict[float, np.ndarray]


def chunks(spec: ReplicaSpec) -> list[tuple[int, int]]:
    """The replica's chunks, as index ranges ``(lo, hi)`` in order."""
    return [(lo, min(lo + CHUNK, spec.size)) for lo in range(0, spec.size, CHUNK)]


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


def _add_by_pattern(y: np.ndarray, work: np.ndarray, lead: int, count: int, first: int) -> None:
    """Add the factors ``work[lead : lead + count]`` of indices ``first, first + 1, ...`` into ``y``.

    Index ``i`` adds into pattern ``i % y.size``, each pattern's factors
    one at a time in index order, as ``np.bincount`` adds them.  Whole rows
    of ``y.size`` factors are added by one reduction along the first axis
    of a ``(rows + 1, y.size)`` view whose row 0 is a copy of ``y``, made
    in the ``y.size`` slots just before the rows: the ``lead`` slots kept
    free in front of the factors, then any factors already added.
    """
    size = y.size
    g = work[lead : lead + count]
    done = min(-first % size, count)
    y[first % size : first % size + done] += g[:done]
    rows = (count - done) // size
    if rows:
        top = lead + done - size
        work[top : top + size] = y
        np.sum(work[top : top + (rows + 1) * size].reshape(rows + 1, size), axis=0, out=y)
        done += rows * size
    y[: count - done] += g[done:]


def summarize(spec: ReplicaSpec, lo: int, hi: int):
    """One :class:`ChunkSummary` per chunk of ``[lo, hi)``, in index order.

    ``lo`` and ``hi`` must be chunk boundaries (``hi`` may be the size),
    so that the chunks are the replica's own, whoever asks for them.
    A spec with betas takes the energy path, one without the order-only
    path; see the module docstring.
    """
    if not 0 <= lo <= hi <= spec.size or lo % CHUNK or (hi % CHUNK and hi != spec.size):
        raise ValueError(f"[{lo}, {hi}) is not a run of whole chunks of [0, {spec.size})")
    yield from (_energy_summaries if spec.betas else _order_summaries)(spec, lo, hi)


def _energy_summaries(spec: ReplicaSpec, lo: int, hi: int):
    """Chunk summaries from the chunks' energies.

    Each chunk's minimum and lowest energies are taken over the whole
    chunk; every other reduction runs block by block, in index order, on
    buffers of one block.
    """
    n = spec.n
    shift = shift_constant(n)
    betas = spec.betas
    patterns = 1 << spec.k_marginal
    keep = min(spec.top_m, spec.size)
    bounds = [(a * n, b * n) for a, b in spec.intervals]
    width = min(_ENERGY_BLOCK, CHUNK, hi - lo)
    # the Gibbs factors of one block, after room for a row of the marginals
    lead = patterns if patterns <= width else 0
    work = np.empty(lead + width)
    shifted = np.empty(width)
    for start in range(lo, hi, CHUNK):
        stop = min(start + CHUNK, hi)
        e = energy_block(spec, start, stop)
        chunk_min = float(e.min())
        # a copy: a view would keep the whole chunk alive with the summary
        best = (np.partition(e, keep - 1) if e.size > keep > 0 else e)[:keep].copy()
        hits = [0] * len(bounds)
        found = [[] for _ in spec.b_levels]
        y = {beta: np.zeros(patterns) for beta in betas} if patterns > 1 else {}

        def reduce_block(a: int, b: int) -> np.ndarray:
            block = e[a:b]
            for i, (low, high) in enumerate(bounds):
                hits[i] += int(np.count_nonzero((block > low) & (block < high)))
            if found:
                extremes = -(block + shift)
                for level, into in zip(spec.b_levels, found):
                    into.append(extremes[extremes >= level])
            sums = np.empty(len(betas))
            rel = np.subtract(block, chunk_min, out=shifted[: b - a])
            g = work[lead : lead + b - a]
            for i, beta in enumerate(betas):
                np.multiply(rel, -beta, out=g)
                np.exp(g, out=g)
                sums[i] = g.sum()
                if y:
                    _add_by_pattern(y[beta], work, lead, b - a, start + a)
            return sums

        z = dict(zip(betas, _pairwise(reduce_block, 0, stop - start).tolist()))
        if patterns == 1:
            # with no marginal spins the one pattern holds the whole sum
            y = {beta: np.array([z[beta]]) for beta in betas}
        yield ChunkSummary(
            min_energy=chunk_min,
            hits=tuple(hits),
            positions=tuple((np.concatenate(into),) for into in found),
            keep=keep,
            best=best,
            z=z,
            y=y,
        )


def _exceedance_cut(level: float, shift: float) -> float:
    """An energy above which ``-(E + shift) >= level`` fails for every computed ``E``.

    The exact cut is ``-(shift + level)``.  The margin, a relative 1e-15,
    exceeds the rounding of that sum, of ``E + shift`` and an ulp of
    ``level`` together.
    """
    cut = -(shift + level)
    return cut + 1e-15 * (abs(cut) + abs(level))


def _order_summaries(spec: ReplicaSpec, lo: int, hi: int):
    """Chunk summaries of a spec without betas, from the uniforms alone.

    The quantile is increasing up to its stated error, so the place of an
    energy against a cut follows from its uniform, except for draws in
    the cut's ``Environment.uniform_window``.  Only those, the draws that
    may exceed a b level and the draws next to a block's smallest
    uniform get an energy; the results are those of the energy path, bit
    for bit.
    """
    env = spec.env
    n = spec.n
    shift = shift_constant(n)
    levels = spec.b_levels
    # the ends of each interval, low then high: hits = #(E < high) - #(E <= low)
    ends = [(env.uniform_window(x), x) for a, b in spec.intervals for x in (a * n, b * n)]
    # every draw that may exceed a b level lies at or below ``reach``
    reach = max((env.uniform_window(_exceedance_cut(b, shift))[1] for b in levels), default=0.0)
    buf = np.empty(min(_ENERGY_BLOCK, CHUNK, hi - lo))
    for start in range(lo, hi, CHUNK):
        stop = min(start + CHUNK, hi)
        stream = UniformStream(spec.key, start)
        # every draw above ``top`` has an energy above ``low``
        low = top = math.inf
        below = [0] * len(ends)
        found = [[] for _ in levels]
        for a in range(start, stop, _ENERGY_BLOCK):
            b = min(a + _ENERGY_BLOCK, stop)
            u = uniform_block(stream, a, b, out=buf[: b - a])
            smallest = u.min()
            if smallest <= top:
                # the block's lowest energy is that of a draw next to its smallest
                near = u[u <= env.uniform_window(env.quantile(smallest))[1]]
                low = min(low, float(env.quantile(near).min()))
                top = env.uniform_window(low)[1]
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
        yield ChunkSummary(
            min_energy=low,
            hits=tuple(h - l for l, h in zip(below[::2], below[1::2])),
            positions=tuple((np.concatenate(into) if into else np.empty(0),) for into in found),
            keep=0,
            best=np.empty(0),
            z={},
            y={},
        )


def merge(left: ChunkSummary, right: ChunkSummary) -> ChunkSummary:
    """The summary of ``left``'s chunks followed by ``right``'s.

    The per-beta sums of both are rescaled to the smaller minimum; the
    side that holds it is multiplied by exactly 1, which is skipped.
    Both summaries are consumed: the marginal vectors are rescaled and
    summed in place, in ``left``'s arrays, so a fold allocates none.
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
    if best.size > left.keep:
        best = np.partition(best, left.keep - 1)[: left.keep]
    return ChunkSummary(
        min_energy=low,
        hits=tuple(a + b for a, b in zip(left.hits, right.hits)),
        positions=tuple(a + b for a, b in zip(left.positions, right.positions)),
        keep=left.keep,
        best=best,
        z=z,
        y=y,
    )


def fold(summaries) -> ChunkSummary:
    """Merge summaries strictly left to right, the one order every schedule uses."""
    return functools.reduce(merge, summaries)


def finish(spec: ReplicaSpec, summary: ChunkSummary) -> ReplicaResult:
    """The replica's result from the summary of all its chunks."""
    min_energy = summary.min_energy
    best = np.sort(summary.best)
    log_z = {}
    spectrum = {}
    marginal = {}
    for beta in spec.betas:
        total = summary.z[beta]
        log_z[beta] = math.log(total) - beta * min_energy
        marginal[beta] = summary.y[beta] / total
        if summary.keep:
            w = np.exp(-beta * (best - min_energy)) / total
            spectrum[beta] = WeightSequence(w[w > 0.0])
    return ReplicaResult(
        n=spec.n,
        replica_id=spec.replica_id,
        min_energy=min_energy,
        log_z=log_z,
        spectrum=spectrum,
        marginal=marginal,
        interval_hits=dict(zip(spec.intervals, summary.hits)),
        exceedance={b: np.concatenate(p) for b, p in zip(spec.b_levels, summary.positions)},
    )


def run_replica(spec: ReplicaSpec) -> ReplicaResult:
    """Measure one replica exhaustively; see the module docstring."""
    return finish(spec, fold(summarize(spec, 0, spec.size)))


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
