"""Streaming engine: energy streams and exhaustive replica runs."""

import dataclasses
import hashlib
import math
from functools import partial

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from naive_oracle import cdf, naive_replica
from remlab import engine
from remlab.engine import (
    CHUNK,
    ReplicaSpec,
    chunks,
    energy_block,
    finish,
    fold,
    free_energy,
    rate_estimate,
    run_replica,
    summarize,
)
from remlab.environment import Environment
from remlab.rng import ENERGY_STREAM, stream_generator, uniform_block
from remlab.theory import LOG2, shift_constant

E_CONST = math.e


def make_spec(**kw):
    defaults = dict(
        env=Environment(1.0, 12),
        betas=(0.5,),
        master_seed=42,
        replica_id=0,
    )
    defaults.update(kw)
    return ReplicaSpec(**defaults)


def pinned(monkeypatch, values):
    """Make ``run_replica`` read ``values`` in place of the keyed energy stream.

    Only the Gibbs quantities read energies; a spec with intervals or b
    levels, whose counts would come from uniforms that never see the
    pinned values, fails.
    """
    arr = np.asarray(values, dtype=float)

    def unpinned(*args, **kwargs):
        raise AssertionError("a run with pinned energies drew uniforms")

    monkeypatch.setattr(engine, "energy_block", lambda spec, lo, hi: arr[lo:hi])
    monkeypatch.setattr(engine, "uniform_block", unpinned)


def edit_uniforms(monkeypatch, edit):
    """Pass every block of uniforms the engine draws through ``edit(u, start)``.

    ``start`` is the stream position of ``u[0]``: the engine's generators
    are replaced by ones that know the position they stand at.
    """
    draw = engine.uniform_block

    class Positioned:
        def __init__(self, master_seed, replica_id, stream_label=0, position=0):
            self.gen = stream_generator(master_seed, replica_id, stream_label, position)
            self.position = position

    def block(stream, out):
        draw(stream.gen, out)
        edit(out, stream.position)
        stream.position += out.size
        return out

    monkeypatch.setattr(engine, "stream_generator", Positioned)
    monkeypatch.setattr(engine, "uniform_block", block)


def pinned_uniforms(monkeypatch, values):
    """Make every draw of the energy stream read ``values`` at its positions."""
    arr = np.asarray(values, dtype=float)

    def pin(u, start):
        u[...] = arr[start : start + u.size]

    edit_uniforms(monkeypatch, pin)


def laplace_uniforms(energies):
    """The uniforms whose ``alpha = 1`` energies are ``energies``: ``e^E / 2`` below 0."""
    half = np.exp(-np.abs(np.asarray(energies, dtype=float))) / 2.0
    return np.where(np.asarray(energies) < 0.0, half, 1.0 - half)


def test_pinned_energies_reach_the_engine(monkeypatch):
    spec = make_spec(env=Environment(1.0, 2), betas=(1.0,))
    pinned(monkeypatch, [-1.0, 0.0, 0.0, 0.0])
    assert run_replica(spec).min_energy == -1.0
    with pytest.raises(AssertionError, match="drew uniforms"):
        run_replica(dataclasses.replace(spec, intervals=((-0.6, 0.1),)))


def test_energy_at_matches_block():
    # a one-configuration window regenerates the same energy as the block
    spec = make_spec()
    block = energy_block(spec, 0, 4096)
    for idx in (0, 1, 5, 1023, 1024, 4095):
        assert energy_block(spec, idx, idx + 1)[0] == block[idx]


def test_energy_block_window_consistency():
    spec = make_spec()
    whole = energy_block(spec, 0, 4096)
    assert np.array_equal(energy_block(spec, 777, 3001), whole[777:3001])
    # generated in blocks, bit-identical to one pass of the uniform and quantile layers
    for alpha in (1.0, 1.5, 2.0):
        wide = make_spec(env=Environment(alpha, 17))
        gen = stream_generator(wide.master_seed, wide.replica_id, ENERGY_STREAM, 1001)
        once = wide.env.quantile(uniform_block(gen, np.empty(wide.size - 1001)))
        assert np.array_equal(energy_block(wide, 1001, wide.size), once)
    with pytest.raises(ValueError):
        energy_block(spec, 0, spec.size + 1)
    with pytest.raises(ValueError):
        energy_block(spec, -1, 0)


# sha256 of the little-endian float64 energies of replicas 0-3 at n=12 and
# master seed 7, recorded before the alpha=2 quantile stopped forming a
# copysign temporary; every change to the quantile must keep these bytes.
@pytest.mark.parametrize(
    "alpha, expected",
    [
        (1.0, "d3696df0c732777ce456cb381afa125b4261d1443b7e86d4636dbde51ba08689"),
        (1.5, "b641f407ee1a7890d7f18423228329d270e38bc3e23bc0d90cd4a0e7e2442406"),
        (2.0, "44910635aae6ea3e3617b2aa03e5fd857297c50ed72c52f67bd68e49d6de054a"),
    ],
)
def test_energy_bytes_pinned(alpha, expected):
    digest = hashlib.sha256()
    for replica_id in range(4):
        spec = make_spec(env=Environment(alpha, 12), master_seed=7, replica_id=replica_id)
        digest.update(energy_block(spec, 0, spec.size).astype("<f8").tobytes())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("alpha,n", [(1.0, 17), (2.0, 17)])
def test_energy_stream_matches_environment_law(alpha, n):
    spec = make_spec(env=Environment(alpha, n))
    draws = energy_block(spec, 0, 100000)
    assert stats.kstest(draws, partial(cdf, spec.env)).pvalue > 0.001


def test_energy_streams_independent_across_replicas():
    a = energy_block(make_spec(env=Environment(1.0, 17), replica_id=0), 0, 100000)
    b = energy_block(make_spec(env=Environment(1.0, 17), replica_id=1), 0, 100000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_replica_spec_validation():
    env = Environment(1.0, 8)
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(-0.5,))
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(float("nan"),))
    # a repeated beta would add its Gibbs weights into one marginal twice
    with pytest.raises(ValueError, match="distinct"):
        ReplicaSpec(env=Environment(1.0, 10), betas=(0.5, 0.5), k_marginal=2)
    with pytest.raises(ValueError, match="distinct"):
        ReplicaSpec(env=env, betas=(0.0, -0.0))
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(1.0,), k_marginal=9)
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(1.0,), k_marginal=-1)
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(1.0,), intervals=((0.3, 0.3),))
    # a repeated interval or b level would write its results twice
    with pytest.raises(ValueError, match="distinct"):
        ReplicaSpec(env=env, betas=(), intervals=((0.1, 0.2), (0.1, 0.2)))
    with pytest.raises(ValueError, match="distinct"):
        ReplicaSpec(env=env, betas=(), b_levels=(0.0, -0.0))
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(1.0,), top_m=-1)
    # at most one chunk's energies, which each chunk keeps until the fold
    ReplicaSpec(env=env, betas=(1.0,), top_m=CHUNK)
    with pytest.raises(ValueError, match="top_m"):
        ReplicaSpec(env=env, betas=(1.0,), top_m=CHUNK + 1)
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(1.0,), b_levels=(float("inf"),))
    with pytest.raises(ValueError):
        ReplicaSpec(env=Environment(1.0, 31), betas=(1.0,))
    # a chunk's marginal vector is never longer than the chunk: k <= 20
    with pytest.raises(ValueError, match="k_marginal"):
        ReplicaSpec(env=Environment(1.0, 21), betas=(1.0,), k_marginal=21)
    with pytest.raises(ValueError):
        ReplicaSpec(env=env, betas=(1.0,), master_seed=-1)
    # beta = 0 is legal: the infinite-temperature closed forms are exact
    assert ReplicaSpec(env=env, betas=(0.0,)).betas == (0.0,)
    # no betas: the per-beta maps come back empty and the minimum NaN,
    # everything else as with a beta
    kw = dict(env=env, intervals=((-0.3, 0.3),), b_levels=(-1.0, 0.5), master_seed=3)
    bare = run_replica(ReplicaSpec(betas=(), **kw))
    full = run_replica(ReplicaSpec(betas=(1.0,), **kw))
    assert bare.log_z == bare.spectrum == bare.marginal == {}
    assert math.isnan(bare.min_energy)
    assert bare.interval_hits == full.interval_hits
    assert bare.exceedance.keys() == full.exceedance.keys()
    for b in kw["b_levels"]:
        assert np.array_equal(bare.exceedance[b], full.exceedance[b])
    # top_m = 0: no spectrum, everything else bit-identical to a full pool
    kw = dict(env=env, betas=(0.5, 2.0), k_marginal=2, intervals=((-0.3, 0.3),), master_seed=3)
    bare = run_replica(ReplicaSpec(top_m=0, **kw))
    full = run_replica(ReplicaSpec(top_m=1024, **kw))
    assert bare.spectrum == {} and full.spectrum.keys() == {0.5, 2.0}
    assert bare.log_z == full.log_z
    assert bare.min_energy == full.min_energy
    assert bare.interval_hits == full.interval_hits
    for beta in kw["betas"]:
        assert np.array_equal(bare.marginal[beta], full.marginal[beta])


def test_run_replica_beta_zero_closed_forms():
    spec = make_spec(env=Environment(1.0, 10), betas=(0.0,), k_marginal=3)
    res = run_replica(spec)
    assert abs(res.log_z[0.0] - 10.0 * LOG2) < 1e-12
    assert np.array_equal(res.marginal[0.0], np.full(8, 0.125))
    assert np.all(res.spectrum[0.0].entries == 2.0 ** -10)
    assert res.spectrum[0.0].deficit == 0.0
    assert free_energy(res, 0.0) == res.log_z[0.0] / 10.0


def test_run_replica_pinned_energies(monkeypatch):
    spec = make_spec(env=Environment(1.0, 2), betas=(1.0,), k_marginal=1, top_m=4)
    pinned(monkeypatch, [-1.0, 0.0, 0.0, 0.0])
    res = run_replica(spec)
    assert abs(res.log_z[1.0] - 1.743668380628679) < 1e-12
    head = res.spectrum[1.0].entries[0]
    assert abs(head - 0.4753668864186717) < 1e-12
    assert res.min_energy == -1.0
    # low bit 0 holds indices {0, 2}: weights (e + 1)/(e + 3); bit 1 holds 2/(e + 3)
    assert abs(res.marginal[1.0][0] - (E_CONST + 1.0) / (E_CONST + 3.0)) < 1e-12
    assert abs(res.marginal[1.0][1] - 2.0 / (E_CONST + 3.0)) < 1e-12


def test_rate_estimate_pinned(monkeypatch):
    spec = make_spec(
        env=Environment(1.0, 2),
        betas=(1.0,),
        intervals=((-0.3, -0.1), (-0.6, 0.1)),
    )
    pinned_uniforms(monkeypatch, laplace_uniforms([-1.0, 0.0, 0.0, 0.0]))
    res = run_replica(spec)
    assert rate_estimate(res, (-0.3, -0.1)) == math.inf
    assert rate_estimate(res, (-0.6, 0.1)) == 0.0
    with pytest.raises(KeyError):
        rate_estimate(res, (0.0, 1.0))
    with pytest.raises(KeyError):
        free_energy(res, 2.0)


def test_gibbs_quantities_shift_invariant(monkeypatch):
    base = energy_block(make_spec(env=Environment(1.0, 10)), 0, 1024)
    spec = make_spec(env=Environment(1.0, 10), betas=(0.7, 2.0), k_marginal=2, top_m=64)
    pinned(monkeypatch, base)
    lo_res = run_replica(spec)
    pinned(monkeypatch, base + 55.0)
    hi_res = run_replica(spec)
    for beta in spec.betas:
        assert abs(hi_res.log_z[beta] - (lo_res.log_z[beta] - beta * 55.0)) < 1e-9
        assert np.max(np.abs(hi_res.marginal[beta] - lo_res.marginal[beta])) < 1e-10
        assert np.max(np.abs(hi_res.spectrum[beta].entries - lo_res.spectrum[beta].entries)) < 1e-10


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_top_m_pool_matches_full_sort(monkeypatch, alpha):
    # the pool is selected below a quantile cut where 4 * top_m is under the
    # chunk's size, and from the whole chunk when the cut leaves too few
    spec = make_spec(env=Environment(alpha, 14), betas=(1.0,), top_m=1000)
    e = energy_block(spec, 0, spec.size)
    lowest = np.sort(e)[: spec.top_m]
    default = run_replica(spec)
    for margin, filtered in ((engine._POOL_MARGIN, True), (0.5, False)):
        monkeypatch.setattr(engine, "_POOL_MARGIN", margin)
        cut = spec.env.quantile(margin * spec.top_m / spec.size)
        assert (np.count_nonzero(e <= cut) >= spec.top_m) == filtered
        summary = summarize(spec, 0)
        assert np.array_equal(np.sort(summary.best), lowest)
        res = run_replica(spec)
        assert res.spectrum[1.0].entries.tobytes() == default.spectrum[1.0].entries.tobytes()
        assert res.spectrum[1.0].deficit == default.spectrum[1.0].deficit


def test_marginal_coarsening_consistency():
    fine = run_replica(make_spec(env=Environment(1.0, 10), betas=(0.8,), k_marginal=3))
    coarse = run_replica(make_spec(env=Environment(1.0, 10), betas=(0.8,), k_marginal=2))
    merged = fine.marginal[0.8].reshape(2, 4).sum(axis=0)
    assert np.max(np.abs(merged - coarse.marginal[0.8])) < 1e-12


def test_spectrum_and_result_invariants():
    spec = make_spec(
        env=Environment(2.0, 12),
        betas=(0.5, 2.0, 5.0),
        k_marginal=2,
        top_m=128,
        intervals=((-0.5, 0.5),),
        b_levels=(-1.0, 0.0, 1.0),
    )
    res = run_replica(spec)
    for beta in spec.betas:
        s = res.spectrum[beta]
        # a WeightSequence keeps any order; the engine's spectra descend
        assert np.all(np.diff(s.entries) <= 0)
        assert s.entries[0] <= 1.0 and s.entries[-1] > 0.0
        assert abs(float(s.entries.sum()) + s.deficit - 1.0) < 1e-9
        assert abs(float(res.marginal[beta].sum()) - 1.0) < 1e-9
        assert np.all(res.marginal[beta] >= 0.0)
        assert res.log_z[beta] >= -beta * res.min_energy
    assert res.interval_hits[(-0.5, 0.5)] <= spec.size
    counts = [res.exceedance[b].size for b in (-1.0, 0.0, 1.0)]
    assert counts[0] >= counts[1] >= counts[2]


def test_exceedance_positions_pinned(monkeypatch):
    shift = shift_constant(2)
    e = np.array([-1.0 - shift, 0.5 - shift, -0.2 - shift, 3.0 - shift])
    spec = make_spec(env=Environment(1.0, 2), betas=(), b_levels=(0.0,))
    pinned_uniforms(monkeypatch, laplace_uniforms(e))
    res = run_replica(spec)
    pos = res.exceedance[0.0]
    assert np.allclose(pos, [1.0, 0.2], atol=1e-12)


def test_exceedance_positions_match_run_counts():
    spec = make_spec(env=Environment(1.0, 14), betas=(1.0,), b_levels=(-2.0, 0.0))
    res = run_replica(spec)
    extremes = -(energy_block(spec, 0, spec.size) + shift_constant(14))
    for b in spec.b_levels:
        pos = res.exceedance[b]
        assert pos.size == np.count_nonzero(extremes >= b)
        assert np.all(pos >= b)


@pytest.mark.parametrize(
    "alpha,beta_set", [(1.0, (0.0, 0.7, 2.5)), (2.0, (0.5, 1.3)), (1.5, (1.0,)), (1.5, ())]
)
def test_engine_agrees_with_naive_oracle(alpha, beta_set):
    spec = make_spec(
        env=Environment(alpha, 10),
        betas=beta_set,
        k_marginal=2,
        top_m=32,
        intervals=((-0.5, 0.2), (0.1, 0.9)),
        b_levels=(-1.0, 0.5),
        master_seed=9001,
        replica_id=3,
    )
    res = run_replica(spec)
    ref = naive_replica(spec)
    assert res.min_energy == ref["min_energy"] if spec.betas else math.isnan(res.min_energy)
    for beta in spec.betas:
        assert abs(res.log_z[beta] - ref["log_z"][beta]) < 1e-10
        assert np.max(np.abs(res.marginal[beta] - ref["marginal"][beta])) < 1e-12
        w_ref, tail_ref = ref["spectrum"][beta]
        assert res.spectrum[beta].entries.size == w_ref.size
        assert np.allclose(res.spectrum[beta].entries, w_ref, rtol=1e-10, atol=0)
        assert abs(res.spectrum[beta].deficit - tail_ref) < 1e-10
    assert res.interval_hits == ref["interval_hits"]
    assert res.exceedance.keys() == ref["exceedance"].keys()
    for b in spec.b_levels:
        assert np.array_equal(res.exceedance[b], ref["exceedance"][b])


def test_multi_chunk_replica_consistent():
    # n = 21 spans two chunks; agreement with the one-shot reference
    # exercises the chunk-boundary bookkeeping
    assert 1 << 21 == 2 * CHUNK
    spec = make_spec(env=Environment(1.0, 21), betas=(0.9,), intervals=((0.05, 0.4),))
    res = run_replica(spec)
    e = energy_block(spec, 0, spec.size)
    assert res.min_energy == float(e.min())
    assert abs(res.log_z[0.9] - float(logsumexp(-0.9 * e))) < 1e-10
    assert res.interval_hits[(0.05, 0.4)] == int(np.sum((e > 0.05 * 21) & (e < 0.4 * 21)))


def test_ground_state_in_last_chunk(monkeypatch):
    # Eight chunks of four with a falling minimum, so every chunk rescales
    # the sums before it.  The ground state sits in the last chunk, about
    # 200 below the earlier minimum: at beta = 6 that rescale factor
    # underflows to 0.
    monkeypatch.setattr(engine, "CHUNK", 4)
    energies = np.linspace(5.0, -3.0, 32)
    energies[29] = -203.0
    spec = make_spec(
        env=Environment(1.0, 5),
        betas=(0.0, 0.4, 6.0),
        k_marginal=2,
        top_m=4,
    )
    assert math.exp(-6.0 * (energies[27] - energies[29])) == 0.0
    pinned(monkeypatch, energies)
    res = run_replica(spec)
    ref = naive_replica(spec, energies)
    assert res.min_energy == -203.0
    for beta in spec.betas:
        assert abs(res.log_z[beta] - ref["log_z"][beta]) < 1e-10
        assert np.max(np.abs(res.marginal[beta] - ref["marginal"][beta])) < 1e-12
        w_ref, tail_ref = ref["spectrum"][beta]
        assert res.spectrum[beta].entries.size == w_ref.size
        assert np.allclose(res.spectrum[beta].entries, w_ref, rtol=1e-10, atol=0)
        assert abs(res.spectrum[beta].deficit - tail_ref) < 1e-10


def test_exceedance_positions_fold_across_chunks(monkeypatch):
    # Eight chunks of four; the positions above -4 come from the last five
    # chunks, those above -1 from the last two, and every chunk's are
    # appended in index order.
    monkeypatch.setattr(engine, "CHUNK", 4)
    energies = np.linspace(5.0, -3.0, 32)
    spec = make_spec(env=Environment(1.0, 5), betas=(), b_levels=(-4.0, -1.0))
    pinned_uniforms(monkeypatch, laplace_uniforms(energies))
    e = energy_block(spec, 0, spec.size)
    assert np.allclose(e, energies, rtol=1e-12, atol=0)
    res = run_replica(spec)
    ref = naive_replica(spec, e)
    for level, chunks_hit in ((-4.0, 5), (-1.0, 2)):
        extremes = -(e + shift_constant(5))
        assert len({i // 4 for i in np.flatnonzero(extremes >= level)}) == chunks_hit
        assert np.array_equal(res.exceedance[level], ref["exceedance"][level])


def assert_results_identical(a, b):
    assert a.n == b.n and a.replica_id == b.replica_id
    assert a.min_energy == b.min_energy
    assert a.log_z == b.log_z
    assert a.interval_hits == b.interval_hits
    assert a.marginal.keys() == b.marginal.keys() and a.spectrum.keys() == b.spectrum.keys()
    for beta in a.marginal:
        assert np.array_equal(a.marginal[beta], b.marginal[beta])
    for beta in a.spectrum:
        assert np.array_equal(a.spectrum[beta].entries, b.spectrum[beta].entries)
        assert a.spectrum[beta].deficit == b.spectrum[beta].deficit
    assert a.exceedance.keys() == b.exceedance.keys()
    for level in a.exceedance:
        assert np.array_equal(a.exceedance[level], b.exceedance[level])


@pytest.mark.parametrize("chunk", [7, 64])
def test_run_replica_is_split_invariant(monkeypatch, chunk):
    # Chunk summaries made in any order, each alone, and folded left to
    # right are the ones run_replica folds: the result is bit-identical
    # however a replica's chunks are shared out.
    monkeypatch.setattr(engine, "CHUNK", chunk)
    spec = make_spec(
        env=Environment(1.0, 8),
        betas=(0.7, 2.5),
        k_marginal=2,
        top_m=16,
        intervals=((-0.5, 0.2), (0.1, 0.9)),
        b_levels=(-1.0, 0.5),
        master_seed=77,
    )
    whole = run_replica(spec)
    starts = list(chunks(spec))
    assert len(starts) >= 4
    orders = [starts, starts[::-1], starts[1::2] + starts[::2], starts[2:] + starts[:2]]
    for order in orders:
        made = {lo: summarize(spec, lo) for lo in order}
        assert_results_identical(finish(spec, fold(made[lo] for lo in starts)), whole)


@pytest.mark.parametrize("chunk", [7, 64, CHUNK])
def test_summarize_takes_only_chunk_starts(monkeypatch, chunk):
    monkeypatch.setattr(engine, "CHUNK", chunk)
    spec = make_spec(env=Environment(1.0, 8))
    assert summarize(spec, 0).min_energy == energy_block(spec, 0, min(chunk, spec.size)).min()
    for lo in (-chunk, -1, 1, chunk - 1, chunk + 1, spec.size, spec.size + chunk):
        with pytest.raises(ValueError, match="not the start of a chunk"):
            summarize(spec, lo)


@pytest.mark.parametrize("top_m", [0, 1, 100, 256])
def test_summaries_hold_min_top_m_energies(monkeypatch, top_m):
    # Every chunk holds top_m energies or all of them, and so does every
    # fold of chunks: a merge keeps as many as its left side holds.
    monkeypatch.setattr(engine, "CHUNK", 256)
    for n in (6, 8, 11):  # a chunk's quarter, one chunk, eight chunks
        spec = make_spec(env=Environment(1.0, n), top_m=top_m)
        summaries = [summarize(spec, lo) for lo in chunks(spec)]
        assert [s.best.size for s in summaries] == [min(top_m, spec.size)] * len(summaries)
        folded = fold(summaries)
        assert folded.best.size == min(top_m, spec.size)
        lowest = np.sort(energy_block(spec, 0, spec.size))[:top_m]
        assert np.array_equal(np.sort(folded.best), lowest)
        # a spec without betas keeps no energies
        bare = dataclasses.replace(spec, betas=())
        assert fold(summarize(bare, lo) for lo in chunks(bare)).best.size == 0


def test_each_part_opens_one_generator_per_chunk(monkeypatch):
    # Each engine part stands one generator at each chunk's start and reads
    # the chunk's blocks from it in order; energy_block opens one per call.
    monkeypatch.setattr(engine, "CHUNK", 1 << 10)
    monkeypatch.setattr(engine, "_ENERGY_BLOCK", 1 << 7)
    opened = []

    def counted(*args):
        opened.append(args)
        return stream_generator(*args)

    monkeypatch.setattr(engine, "stream_generator", counted)
    cuts = dict(intervals=((0.1, 0.4),), b_levels=(0.0,))
    for betas, kw, parts in (((1.0,), {}, 1), ((), cuts, 1), ((1.0,), cuts, 2)):
        spec = make_spec(env=Environment(1.5, 12), betas=betas, **kw)
        opened.clear()
        run_replica(spec)
        key = (spec.master_seed, spec.replica_id, ENERGY_STREAM)
        assert sorted(opened) == sorted((*key, lo) for lo in chunks(spec) for _ in range(parts))
    opened.clear()
    energy_block(spec, 5, 3000)
    assert opened == [(*key, 5)]


@pytest.mark.parametrize("bits", range(15, 21))
def test_block_sums_follow_numpy_pairwise_tree(bits):
    # numpy sums 2^bits floats as a binary tree over whole 2^15 blocks: the
    # tree of the blocks' own sums is the one sum, bit for bit.  A numpy
    # whose summation order changes fails here before any artifact drifts.
    x = np.random.default_rng(bits).exponential(size=1 << bits)
    sums = [np.sum(x[lo : lo + (1 << 15)]) for lo in range(0, x.size, 1 << 15)]
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    assert sums[0] == np.sum(x)
    # the engine's split agrees, also on runs of no power-of-two length
    for size in (x.size, x.size - 1, 3 * x.size // 4 + 37):
        part = x[:size]
        assert engine._pairwise(lambda lo, hi: np.sum(part[lo:hi]), 0, size) == np.sum(part)


@pytest.mark.parametrize(
    "n,chunk,k",
    [(21, CHUNK, 0), (21, CHUNK, 1), (21, CHUNK, 2), (21, CHUNK, 3), (21, CHUNK, 15),
     (21, CHUNK, 16), (21, CHUNK, 20),
     (8, 7, 2), (8, 7, 3), (8, 64, 2), (18, 3 * 2**15 + 36, 3), (18, 3 * 2**15 + 36, 17)],
)
def test_summarize_matches_whole_chunk_reductions(monkeypatch, n, chunk, k):
    # Block-wise reductions give what one pass over the whole chunk gives,
    # bit for bit: the per-beta sums as one np.sum, the marginals as
    # bincount, also for chunks that are no multiple of the block or of
    # the pattern count.
    monkeypatch.setattr(engine, "CHUNK", chunk)
    spec = make_spec(
        env=Environment(1.0, n),
        betas=(0.6, 2.2),
        k_marginal=k,
        top_m=32,
        intervals=((-0.5, 0.2), (0.1, 0.9)),
        b_levels=(-1.0, 0.5),
        master_seed=5,
    )
    shift = shift_constant(n)
    for lo in chunks(spec):
        summary = summarize(spec, lo)
        hi = min(lo + chunk, spec.size)
        e = energy_block(spec, lo, hi)
        chunk_min = e.min()
        assert summary.min_energy == chunk_min
        assert summary.hits == tuple(
            int(np.count_nonzero((e > a * n) & (e < b * n))) for a, b in spec.intervals
        )
        extremes = -(e + shift)
        for level, pos in zip(spec.b_levels, summary.positions):
            assert np.array_equal(pos, extremes[extremes >= level])
        assert np.array_equal(np.sort(summary.best), np.sort(e)[:32])
        for beta in spec.betas:
            g = np.exp((e - chunk_min) * -beta)
            assert summary.z[beta] == g.sum()
            want = (
                np.bincount(np.arange(lo, hi) & ((1 << k) - 1), weights=g, minlength=1 << k)
                if k
                else np.full(1, g.sum())
            )
            assert np.array_equal(summary.y[beta], want)


def test_run_replica_deterministic():
    spec = make_spec(env=Environment(2.0, 12), betas=(1.1,), k_marginal=2)
    a = run_replica(spec)
    b = run_replica(spec)
    assert a.log_z == b.log_z
    assert np.array_equal(a.marginal[1.1], b.marginal[1.1])
    assert np.array_equal(a.spectrum[1.1].entries, b.spectrum[1.1].entries)


def test_free_energy_concentrates_at_high_temperature():
    # 100 independent replicas at n = 20: the per-site free energy is
    # within 0.05 of log 2 for at least 95 of them
    good = 0
    for replica_id in range(100):
        spec = make_spec(env=Environment(1.0, 20), replica_id=replica_id)
        res = run_replica(spec)
        if abs(free_energy(res, 0.5) - LOG2) <= 0.05:
            good += 1
    assert good >= 95


# The cut counts, taken from the uniforms, are checked against the energies
# at both closed forms, the general table and the largest shape, on intervals
# that straddle 0, have an infinite end, lie beyond the edge
# (alpha log 2)**(1/alpha) or cover the line, and on b levels with few and
# with many exceedances.
ORDER_ALPHAS = [1.0, 1.5, 2.0, 7.3, 100.0]
ORDER_INTERVALS = (
    (-0.3, 0.2), (-0.05, 0.0), (-math.inf, -0.5), (0.4, math.inf), (1.5, 2.0), (-math.inf, math.inf)
)
ORDER_LEVELS = (-2.0, 0.0, 1.5)


def assert_cut_counts_match_energies(spec):
    # the hits and positions of energy_block's energies, bit for bit
    res = run_replica(spec)
    assert res.log_z == {} and math.isnan(res.min_energy)
    n = spec.n
    e = energy_block(spec, 0, spec.size)
    assert res.interval_hits == {
        (a, b): int(np.count_nonzero((e > a * n) & (e < b * n))) for a, b in spec.intervals
    }
    extremes = -(e + shift_constant(n))
    assert res.exceedance.keys() == set(spec.b_levels)
    for level in spec.b_levels:
        assert np.array_equal(res.exceedance[level], extremes[extremes >= level])
    return res


@pytest.mark.parametrize("alpha", ORDER_ALPHAS)
@pytest.mark.parametrize("n", [13, 21])
def test_order_only_path_matches_energy_path(alpha, n):
    # n = 21 spans two chunks
    spec = make_spec(
        env=Environment(alpha, n), betas=(), intervals=ORDER_INTERVALS, b_levels=ORDER_LEVELS,
        master_seed=31, replica_id=n,
    )
    res = assert_cut_counts_match_energies(spec)
    assert res.interval_hits[(-math.inf, math.inf)] == spec.size


@pytest.mark.parametrize("alpha", ORDER_ALPHAS)
def test_order_only_path_at_window_edges(monkeypatch, alpha):
    # Draws at each cut's tail mass, at its window's edges and a few ulps
    # either side of them, so that draws fall in every window, just inside
    # and just outside it.  The counts and energy_block read them through uniform_block.
    n = 13
    spec = make_spec(
        env=Environment(alpha, n), betas=(), intervals=ORDER_INTERVALS, b_levels=ORDER_LEVELS,
        master_seed=4,
    )
    env = spec.env
    shift = shift_constant(n)
    cuts = [x * n for interval in spec.intervals for x in interval]
    cuts += [-(shift + level) for level in spec.b_levels]
    values, inside = [0.0, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53], []
    for x in cuts:
        lo, hi = env.uniform_window(x)
        m = env.tail_probability(abs(x))
        centre = m if x <= 0 else 1.0 - m
        for edge in (lo, hi, centre):
            down = up = edge
            for _ in range(3):
                values += [down, up]
                down, up = np.nextafter(down, 0.0), np.nextafter(up, 1.0)
        inside += [v for v in values[-18:] if lo <= v <= hi and v < 1.0]
        assert lo <= centre <= hi
    values = np.array([v for v in values if 0.0 <= v < 1.0])
    assert values.size < 4096

    def inject(u, start):
        k = max(0, min(start + u.size, values.size) - start)
        u[:k] = values[start : start + k]

    edit_uniforms(monkeypatch, inject)
    evaluated = []
    quantile = Environment.quantile

    def recorded(self, u, out=None):
        evaluated.append(np.array(u, dtype=float, ndmin=1))
        return quantile(self, u, out=out)

    monkeypatch.setattr(Environment, "quantile", recorded)
    run_replica(spec)
    # every draw in a window was placed by its energy
    assert np.isin(inside, np.concatenate(evaluated)).all()
    assert_cut_counts_match_energies(spec)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_order_only_path_needs_no_monotone_quantile(monkeypatch, alpha):
    # A quantile that is not monotone, but within its stated error: the
    # magnitude of every draw with an odd last mantissa bit is raised by a
    # relative 2**-46, which moves its tail mass by well under 1.5e-12
    # here.  The lowest energy then sits one ulp above the smallest draw,
    # and the cut counts must still place every draw on the side of each
    # cut that its energy lies on.
    quantile = Environment.quantile

    def wobbly(self, u, out=None):
        u = np.array(u, dtype=float)
        e = quantile(self, u)
        e = np.where(u.view(np.uint64) & 1, e * (1.0 + 2.0 ** -46), e)
        if out is None:
            return e if e.ndim else float(e)
        out[...] = e
        return out

    monkeypatch.setattr(Environment, "quantile", wobbly)
    smallest = 2.0 ** -45
    values = np.array([0.3, smallest, np.nextafter(smallest, 1.0), 0.7])

    def inject(u, start):
        k = max(0, min(start + u.size, values.size) - start)
        u[:k] = values[start : start + k]

    edit_uniforms(monkeypatch, inject)
    env = Environment(alpha, 13)
    low = env.quantile(values[2])
    assert low < env.quantile(values[1]) < env.quantile(values[0])
    spec = make_spec(env=env, betas=(), intervals=ORDER_INTERVALS, b_levels=ORDER_LEVELS)
    assert_cut_counts_match_energies(spec)
