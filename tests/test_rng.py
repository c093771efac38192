"""Keyed-stream RNG plumbing: key packing, random access, reproducibility."""

import numpy as np
import pytest
from numpy.random import Generator, Philox

from remlab.rng import (
    ENERGY_STREAM,
    POISSON_STREAM,
    STICK_STREAM,
    seed_derivation,
    stream_generator,
    uniform_block,
)


def test_seed_derivation_packs_disjoint_fields():
    # master occupies the top 64 bits, replica the next 48, label the low 16
    assert seed_derivation(0, 0, 0) == 0
    assert seed_derivation(0, 0, 1) == 1
    assert seed_derivation(0, 1, 0) == 1 << 16
    assert seed_derivation(1, 0, 0) == 1 << 64
    assert seed_derivation(2**64 - 1, 2**48 - 1, 2**16 - 1) == 2**128 - 1


def test_seed_derivation_injective_over_grid():
    keys = set()
    for master in (0, 1, 42, 2**63):
        for replica in (0, 1, 7, 2**20):
            for label in (ENERGY_STREAM, POISSON_STREAM, STICK_STREAM):
                keys.add(seed_derivation(master, replica, label))
    assert len(keys) == 4 * 4 * 3


@pytest.mark.parametrize(
    "args",
    [
        (-1, 0, 0),
        (2**64, 0, 0),
        (0, -1, 0),
        (0, 2**48, 0),
        (0, 0, -1),
        (0, 0, 2**16),
        (0.5, 0, 0),
        (True, 0, 0),
    ],
)
def test_seed_derivation_rejects_out_of_range(args):
    with pytest.raises(ValueError):
        seed_derivation(*args)


def test_stream_generator_matches_philox_key():
    key = seed_derivation(42, 3, ENERGY_STREAM)
    a = stream_generator(42, 3, ENERGY_STREAM).random(100)
    b = Generator(Philox(key=key)).random(100)
    assert np.array_equal(a, b)


def fresh_block(seed, replica, label, start, stop):
    """Positions [start, stop) through ``uniform_block``, from a generator standing at ``start``."""
    return uniform_block(stream_generator(seed, replica, label, start), np.empty(stop - start))


def test_uniform_block_matches_sequential_draw():
    key = seed_derivation(42, 0, ENERGY_STREAM)
    reference = Generator(Philox(key=key)).random(5000)
    assert np.array_equal(fresh_block(42, 0, ENERGY_STREAM, 0, 5000), reference)


@pytest.mark.parametrize("cut", [1, 3, 4, 7, 1024, 4093])
def test_uniform_block_concatenation_invariance(cut):
    # random access must agree with one contiguous pass regardless of
    # where the block boundary falls relative to the 4-double counter step
    address = (7, 11, ENERGY_STREAM)
    whole = fresh_block(*address, 0, 5000)
    split = np.concatenate([fresh_block(*address, 0, cut), fresh_block(*address, cut, 5000)])
    assert np.array_equal(whole, split)


def test_uniform_block_interior_window():
    whole = fresh_block(9, 2, ENERGY_STREAM, 0, 3000)
    assert np.array_equal(fresh_block(9, 2, ENERGY_STREAM, 1237, 2741), whole[1237:2741])


def philox_window(key, start, stop):
    """Positions [start, stop) from a fresh generator, drawn from their counter block on."""
    skip = start % 4
    return Generator(Philox(key=key, counter=start // 4)).random(stop - start + skip)[skip:]


@pytest.mark.parametrize("lo", [0, 1, 3, 1001, (1 << 20) - 5001])
def test_uniform_stream_draws_what_random_access_draws(lo):
    # One generator, drawn block after block into one reused buffer, gives
    # the doubles of a fresh generator per position range, also from an
    # unaligned start and across 2**20, the engine's chunk edge.
    key = seed_derivation(3, 5, ENERGY_STREAM)
    hi = lo + 9000
    gen = stream_generator(3, 5, ENERGY_STREAM, lo)
    buf = np.empty(1000)
    got = []
    for start in range(lo, hi, 997):
        u = uniform_block(gen, buf[: min(start + 997, hi) - start])
        assert np.shares_memory(u, buf)
        got.append(u.copy())
    got = np.concatenate(got)
    assert np.array_equal(got, philox_window(key, lo, hi))
    assert np.array_equal(got, fresh_block(3, 5, ENERGY_STREAM, lo, hi))
    assert np.array_equal(got[7:], philox_window(key, lo + 7, hi))
    # the generator then stands at ``hi``
    assert np.array_equal(uniform_block(gen, buf[:3]), philox_window(key, hi, hi + 3))


def test_uniform_stream_moves_to_the_asked_start():
    # A generator stood at a position behind or ahead of another, at any
    # offset within a counter block, draws that position's doubles.
    key = seed_derivation(3, 5, ENERGY_STREAM)
    whole = philox_window(key, 0, 4000)
    for start, stop in [(1001, 1500), (7, 300), (300, 302), (2999, 4000), (1002, 1003)]:
        assert np.array_equal(fresh_block(3, 5, ENERGY_STREAM, start, stop), whole[start:stop])


def test_uniform_block_empty_and_invalid():
    gen = stream_generator(0, 0, 0, 10)
    assert uniform_block(gen, np.empty(0)).size == 0
    assert np.array_equal(uniform_block(gen, np.empty(2)), fresh_block(0, 0, 0, 10, 12))
    with pytest.raises(ValueError):
        stream_generator(0, 0, 0, -1)


def test_uniform_block_range_and_determinism():
    u = fresh_block(1234, 5, ENERGY_STREAM, 0, 100000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, fresh_block(1234, 5, ENERGY_STREAM, 0, 100000))
    # crude moment checks: mean 1/2 and var 1/12 for U(0,1)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_streams_decorrelated_across_replicas_and_labels():
    n = 100000
    base = fresh_block(42, 0, ENERGY_STREAM, 0, n)
    other_replica = fresh_block(42, 1, ENERGY_STREAM, 0, n)
    other_label = fresh_block(42, 0, POISSON_STREAM, 0, n)
    assert abs(np.corrcoef(base, other_replica)[0, 1]) < 0.01
    assert abs(np.corrcoef(base, other_label)[0, 1]) < 0.01
    assert not np.array_equal(base, other_replica)
    assert not np.array_equal(base, other_label)
