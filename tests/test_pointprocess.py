"""Poisson-Dirichlet samplers: point process and stick breaking."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma

from remlab import pointprocess
from remlab.pointprocess import (
    MAX_WINDOW_POINTS,
    MIN_TRUNCATION_B,
    WeightSequence,
    check_point_budget,
    sample_pd_poisson,
    sample_pd_stick,
    sample_poisson_points,
)
from remlab.rng import POISSON_STREAM, STICK_STREAM, stream_generator


# the samplers return their weights in draw order, so each statistic sorts
def w1(seq):
    return float(seq.entries.max())


def top2(seq):
    return float(np.sort(seq.entries)[-2:].sum())


def sumsq(seq):
    return float((seq.entries ** 2).sum())


def test_weight_sequence_validation():
    WeightSequence(np.array([0.5, 0.3, 0.1]))
    with pytest.raises(ValueError):
        WeightSequence(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        WeightSequence(np.array([0.8, 0.7]))
    with pytest.raises(ValueError):
        WeightSequence(np.array([]))
    # each case the checks must reject, with its message
    nan, inf = float("nan"), float("inf")
    for entries, message in [
        ([0.5, nan, 0.1], "finite and nonnegative"),
        ([nan], "finite and nonnegative"),
        ([inf, 0.1], "finite and nonnegative"),
        ([0.5, 0.1, -inf], "finite and nonnegative"),
        ([-0.1], "finite and nonnegative"),
        ([0.3, -0.1, 0.2], "finite and nonnegative"),
        ([1.0 + 2e-9], "sum to at most 1"),
        ([0.5 + 1e-9, 0.5 + 1e-9], "sum to at most 1"),
        ([[0.5]], "nonempty 1-d"),
    ]:
        with pytest.raises(ValueError, match=message):
            WeightSequence(np.array(entries))
    # a single entry, exact ties, zeros and any order are accepted
    for entries in ([1.0], [0.25, 0.25, 0.0, 0.0], [0.5 + 5e-10, 0.5 + 4e-10], [0.0, 0.1, 0.3]):
        WeightSequence(np.array(entries))


def test_weight_sequence_checks_match_the_four_conditions():
    # the checks accept exactly the 1-d nonempty sequences that are finite,
    # nonnegative and of sum at most 1 + 1e-9, in any order
    rng = np.random.default_rng(3)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-300, 5e-324, 1.0, 0.5])
    for _ in range(3000):
        size = int(rng.integers(1, 6))
        w = np.sort(rng.random(size) / size)[::-1].copy()
        for _ in range(int(rng.integers(0, 3))):
            w[rng.integers(size)] = rng.choice(specials)
        if rng.random() < 0.3:
            rng.shuffle(w)
        valid = (
            bool(np.all(np.isfinite(w))) and bool(np.all(w >= 0.0))
            and float(w.sum()) <= 1.0 + 1e-9
        )
        try:
            WeightSequence(w)
        except ValueError:
            assert not valid, w
        else:
            assert valid, w


def test_pd_params_validation():
    # each PD parameter is checked by the sampler that takes it
    rng = stream_generator(1, 0, POISSON_STREAM)
    with pytest.raises(ValueError, match="m must"):
        sample_pd_stick(0.0, 200, rng)
    with pytest.raises(ValueError, match="m must"):
        sample_pd_stick(1.0, 200, rng)
    with pytest.raises(ValueError, match="epsilon_mass"):
        sample_pd_poisson(2.0, 0.0, 0.0, rng)
    with pytest.raises(ValueError, match="truncation_b"):
        sample_pd_poisson(2.0, float("inf"), 1e-6, rng)
    # a first window expecting more than MAX_WINDOW_POINTS points is refused
    # before any is drawn (about -18.02; -40 would ask for 1.6e18 points)
    assert math.exp(-MIN_TRUNCATION_B) == pytest.approx(MAX_WINDOW_POINTS)
    for b in (-40.0, -18.03, MIN_TRUNCATION_B - 1e-9):
        with pytest.raises(ValueError, match="truncation_b must be finite and >= -18.0218"):
            sample_pd_poisson(2.0, b, 1e-6, rng)


def test_point_budget_rule_accepts_only_settings_whose_draws_fit(monkeypatch):
    # At a budget of 4096 points the window's slabs reach it within a few
    # units, so the draws show where the rule must reject: every setting it
    # accepts runs 300 keyed draws without exhausting the budget, and the
    # settings it rejects fail in some.
    monkeypatch.setattr(pointprocess, "MAX_WINDOW_POINTS", 4096)
    monkeypatch.setattr(pointprocess, "MIN_TRUNCATION_B", -math.log(4096))
    accepted, rejected_failures = 0, 0
    for beta in (1.5, 2.0, 3.0):
        for eps in (0.1, 0.032, 0.01, 0.0032, 0.001, 3.2e-4):
            failures = 0
            for i in range(300):
                try:
                    sample_pd_poisson(beta, 0.0, eps, stream_generator(7, i, POISSON_STREAM))
                except RuntimeError:
                    failures += 1
            try:
                check_point_budget(beta, 0.0, eps)
            except ValueError:
                rejected_failures += failures
            else:
                accepted += 1
                assert failures == 0, (beta, eps)
    assert 0 < accepted < 18 and rejected_failures > 0


def test_poisson_points_mean_counts():
    rng = stream_generator(314, 0, POISSON_STREAM)
    # high window: mean count exp(-5)
    counts = [sample_poisson_points(5.0, rng).size for _ in range(100000)]
    assert abs(np.mean(counts) - math.exp(-5.0)) < 0.001
    # low window: mean count exp(3)
    counts = [sample_poisson_points(-3.0, rng).size for _ in range(100000)]
    assert abs(np.mean(counts) - math.exp(3.0)) < 0.05


def test_poisson_points_descending_and_above_b():
    rng = stream_generator(7, 0, POISSON_STREAM)
    for _ in range(50):
        pts = sample_poisson_points(-3.0, rng)
        assert np.all(pts >= -3.0)
        assert np.all(np.diff(pts) <= 0.0)


def test_transform_maps_to_power_law_intensity():
    # c -> K*exp(beta*c) with K = beta**beta carries the exp(-x) intensity to
    # x**(-1/beta - 1) dx; above the window edge the transformed points then
    # follow F(t) = 1 - (t/T)**(-1/beta) with T the transformed edge
    beta = 2.0
    big_k = beta ** beta
    rng = stream_generator(11, 0, POISSON_STREAM)
    pooled = []
    for _ in range(40000):
        c = sample_poisson_points(-1.0, rng)
        u = big_k * np.exp(beta * c)
        assert np.all(np.diff(u) <= 0.0)
        pooled.append(u)
    pooled = np.concatenate(pooled)
    assert pooled.size > 80000
    t_edge = big_k * math.exp(beta * -1.0)

    def target_cdf(t):
        return 1.0 - (t / t_edge) ** (-1.0 / beta)

    assert stats.kstest(pooled, target_cdf).pvalue > 0.001


def test_pd_poisson_output_contract():
    rng = stream_generator(21, 0, POISSON_STREAM)
    ws = sample_pd_poisson(2.0, 0.0, 1e-6, rng)
    assert np.all(ws.entries > 0.0)
    total = float(ws.entries.sum())
    assert total <= 1.0
    # the unseen tail is folded into the normalizer; at beta=2 the stopping
    # rule leaves a deficit on the order of epsilon_mass, not 1e-9
    assert 0.0 < 1.0 - total < 5e-6


def test_pd_poisson_rejects_bad_input():
    rng = stream_generator(1, 0, POISSON_STREAM)
    with pytest.raises(ValueError):
        sample_pd_poisson(1.0, 0.0, 1e-6, rng)
    with pytest.raises(ValueError):
        sample_pd_poisson(0.5, 0.0, 1e-6, rng)


@pytest.mark.parametrize(
    "m,eps",
    [(0.4, 1e-4), (0.5, 1e-4), (0.8, 5e-2)],
)
def test_pd_constructions_agree(m, eps):
    # the two samplers target the same law; epsilon_mass per m keeps the
    # point count affordable while the normalizer compensation keeps the
    # reported weights accurate far below KS resolution at 1000 draws
    beta = 1.0 / m
    draws = 1000
    rng_p = stream_generator(77, 0, POISSON_STREAM)
    rng_s = stream_generator(77, 0, STICK_STREAM)
    poisson = [sample_pd_poisson(beta, 0.0, eps, rng_p) for _ in range(draws)]
    stick = [sample_pd_stick(m, 200, rng_s) for _ in range(draws)]
    for fn in (w1, top2, sumsq):
        a = np.array([fn(ws) for ws in poisson])
        b = np.array([fn(ws) for ws in stick])
        assert stats.ks_2samp(a, b).pvalue > 0.001


def test_pd_largest_weight_monotone_in_beta():
    # m -> 1 spreads the mass over microscopic points, so the largest
    # weight shrinks; compare against beta = 2 medians
    rng = stream_generator(99, 0, POISSON_STREAM)
    near_one = [
        w1(sample_pd_poisson(1.01, 0.0, 0.2, rng))
        for _ in range(200)
    ]
    far = [
        w1(sample_pd_poisson(2.0, 0.0, 1e-3, rng))
        for _ in range(200)
    ]
    assert np.median(near_one) < 0.2
    assert np.median(far) > 0.3
    assert np.median(near_one) < np.median(far)


def test_stick_output_contract():
    rng = stream_generator(5, 0, STICK_STREAM)
    ws = sample_pd_stick(0.5, 200, rng)
    assert ws.entries.size == 200
    assert np.all(ws.entries >= 0.0)
    assert float(ws.entries.sum()) <= 1.0
    with pytest.raises(ValueError):
        sample_pd_stick(1.0, 200, rng)
    with pytest.raises(ValueError):
        sample_pd_stick(0.5, 0, rng)


def test_stick_deficit_matches_digamma_telescope():
    # E log(prod(1 - V_i)) telescopes: sum of psi(i*m) - psi(i*m + (1-m))
    # collapses to psi(m) - psi(m*(length+1)) when the arguments chain,
    # which holds at m = 0.5: psi(0.5) - psi(100.5) for length 200
    rng = stream_generator(13, 0, STICK_STREAM)
    target = float(digamma(0.5) - digamma(100.5))
    assert abs(target - -6.568684378603269) < 1e-12
    sums = [float(sample_pd_stick(0.5, 200, rng).entries.sum()) for _ in range(500)]
    logs = [math.log(max(0.0, 1.0 - total)) for total in sums]
    assert abs(np.mean(logs) - target) < 0.4


def _entries_digest(sampler, args: tuple, stream: int, count: int = 24) -> str:
    """sha256 of the little-endian float64 entries of draws 0..count-1 at master seed 7.

    Each draw's entries are hashed sorted descending, so the digests pin every
    weight's bits whatever order the sampler returns them in.
    """
    digest = hashlib.sha256()
    for draw_id in range(count):
        entries = sampler(*args, stream_generator(7, draw_id, stream)).entries
        digest.update(np.sort(entries)[::-1].astype("<f8").tobytes())
    return digest.hexdigest()


# Recorded from the sampler that evaluated every weight's exp a second time
# over the concatenated points; computing each weight once must keep the bytes.
# (200, 1e-4, -8) starts with a window thousands of points deep, whose lowest
# weights underflow to 0 and are dropped.  (2, 1e-6, 0) is the manifest
# default, whose windows reach slabs of millions of points; its first four
# draws are pinned.
@pytest.mark.parametrize(
    "beta, eps, b, expected",
    [
        (2.0, 1e-4, 0.0, "feb3c3c289ff62621125b4c39ff7d00797619a292bcd701a5a7494d79e707c15"),
        (3.0, 1e-5, -1.0, "d9bc7dafdcf11d4af79bd6ee7baeeac80aa11cd5f45c12446f2366f24e86250f"),
        (1.25, 5e-2, 0.0, "101cb04e969f00bb72acf264098380ade79d9f74ec6da2965018c3b1ea7e0494"),
        (2.5, 1e-3, 3.0, "8482e0791e7dc7ede8d4a74fa1ea1d3f66d8d0665964b33017495347f91accba"),
        (200.0, 1e-4, -8.0, "dc0f107837e4603e06cf1fac0459ae93c4e5176096145d32dd86bca234daae77"),
        (2.0, 1e-6, 0.0, "1d3d6bde1d6828c2b5448028b2854767ac6675db71f02120e419f64d291755fc"),
    ],
)
def test_pd_poisson_bytes_pinned(beta, eps, b, expected):
    count = 4 if eps == 1e-6 else 24
    assert _entries_digest(sample_pd_poisson, (beta, b, eps), POISSON_STREAM, count) == expected


@pytest.mark.parametrize(
    "m, length, expected",
    [
        (0.5, 200, "cbe6ab535e0dabe952faa0cb76228352f212484aa04e061fbb17e28fe25e4ff6"),
        (0.8, 30, "80c196703e1b5113b8859ce40fc4494d5d49ea45b39f032ddb3b2859f7ec24eb"),
        (0.4, 1, "094829f0cb345c75212df40604dc7a4d52526ee74d9856360388b5afcf1a0d5c"),
    ],
)
def test_pd_stick_bytes_pinned(m, length, expected):
    assert _entries_digest(sample_pd_stick, (m, length), STICK_STREAM) == expected
