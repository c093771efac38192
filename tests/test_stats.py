import math

import numpy as np
import pytest
from scipy import special, stats as scipy_stats

from remlab.stats import (
    DEFAULT_LEVEL,
    TestReport,
    chi_square_gof,
    ks_one_sample,
    ks_two_sample,
)
from remlab.theory import poisson_count_pmf


def test_ks_two_sample_small_example():
    report = ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5])
    assert report.statistic == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert report.sample_sizes == (3, 2)


def test_ks_two_sample_identical_samples():
    xs = [0.3, 1.2, 4.0, 4.1]
    report = ks_two_sample(xs, list(xs))
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert report.p_value > DEFAULT_LEVEL


def test_ks_two_sample_disjoint_samples():
    report = ks_two_sample([0.0, 1.0, 2.0], [10.0, 11.0])
    assert report.statistic == 1.0


def test_ks_two_sample_symmetry():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=40)
    ys = rng.normal(0.3, size=55)
    a = ks_two_sample(xs, ys)
    b = ks_two_sample(ys, xs)
    assert a.statistic == b.statistic
    assert a.p_value == b.p_value
    assert a.sample_sizes == (40, 55)
    assert b.sample_sizes == (55, 40)


def test_ks_two_sample_matches_scipy():
    # scipy's asymp mode evaluates the finite-size kstwo distribution at
    # the effective sample size; we use the limiting Kolmogorov law, so
    # statistics must agree exactly and p-values only approximately.
    rng = np.random.default_rng(11)
    for _ in range(20):
        xs = rng.normal(size=rng.integers(20, 200))
        ys = rng.normal(rng.uniform(-0.5, 0.5), size=rng.integers(20, 200))
        ours = ks_two_sample(xs, ys)
        ref = scipy_stats.ks_2samp(xs, ys, method="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        en = xs.size * ys.size / (xs.size + ys.size)
        limit_p = scipy_stats.kstwobign.sf(math.sqrt(en) * ours.statistic)
        assert ours.p_value == pytest.approx(limit_p, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=0.05)


def test_ks_one_sample_single_point_at_median():
    report = ks_one_sample([0.0], scipy_stats.norm.cdf)
    assert report.statistic == pytest.approx(0.5, abs=1e-15)
    assert report.sample_sizes == (1, 0)


def test_ks_one_sample_constant_at_upper_endpoint():
    # All mass sits where the reference cdf is already 1.
    report = ks_one_sample([1.0, 1.0, 1.0], scipy_stats.uniform.cdf)
    assert report.statistic == pytest.approx(1.0, abs=1e-15)


def test_ks_one_sample_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        xs = rng.normal(size=200)
        ours = ks_one_sample(xs, scipy_stats.norm.cdf)
        ref = scipy_stats.kstest(xs, scipy_stats.norm.cdf, mode="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-6)


def test_ks_statistics_lie_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(50):
        xs = rng.exponential(size=rng.integers(1, 30))
        ys = rng.exponential(size=rng.integers(1, 30))
        assert 0.0 <= ks_two_sample(xs, ys).statistic <= 1.0
        assert 0.0 <= ks_one_sample(xs, scipy_stats.expon.cdf).statistic <= 1.0


def test_ks_rejects_empty_samples():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError):
        ks_one_sample([], scipy_stats.norm.cdf)


def test_chi_square_two_bin_example():
    report = chi_square_gof([60, 40], [0.5, 0.5])
    assert report.statistic == pytest.approx(4.0, abs=1e-12)
    assert report.p_value == pytest.approx(scipy_stats.chi2.sf(4.0, 1), abs=1e-12)
    assert report.sample_sizes == (100, 2)


def test_chi_square_proportional_counts_give_zero():
    report = chi_square_gof([30, 60, 10], [0.3, 0.6, 0.1])
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert report.p_value > DEFAULT_LEVEL


def test_chi_square_matches_scipy_without_pooling():
    rng = np.random.default_rng(19)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    for _ in range(10):
        obs = rng.multinomial(400, probs)
        ours = chi_square_gof(obs, probs)
        ref = scipy_stats.chisquare(obs, probs * obs.sum())
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


@pytest.mark.parametrize("bins", range(2, 13))
def test_chi_square_p_value_is_scipy_stats_to_the_bit(bins):
    # Dyadic probabilities over 2**40 counts keep every expected count exact.
    # Moving d counts from the last bin to the first gives a statistic of
    # about d**2 (1/e0 + 1/e_last): targets 0, one count's ulp (1e-300 lies
    # below any statistic counts of this size can give), 0.5, bins, 1e3, 1e5.
    units = np.array([1.0] * (bins - 1) + [16.0 - (bins - 1)])
    expected = units * 2.0 ** 36
    for target in (0.0, None, 0.5, float(bins), 1e3, 1e5):
        if target is None:
            d = np.spacing(expected[0])
        else:
            d = math.sqrt(target / (1.0 / expected[0] + 1.0 / expected[-1]))
        obs = expected.copy()
        obs[0] += d
        obs[-1] -= d
        report = chi_square_gof(obs, units / 16.0)
        assert report.sample_sizes == (2 ** 40, bins)
        if target is not None:
            assert report.statistic == pytest.approx(target, rel=1e-6)
        assert report.p_value == scipy_stats.chi2.sf(report.statistic, bins - 1)
    # the law itself, at the grid's exact statistics
    for statistic in (0.0, 1e-300, 0.5, float(bins), 1e3, 1e5, math.inf):
        assert special.chdtrc(bins - 1, statistic) == scipy_stats.chi2.sf(statistic, bins - 1)


def test_chi_square_pools_right_tail():
    # Last expected count is 4; pooling merges the last two bins into one
    # of expected 8 and the test proceeds with one fewer degree of freedom.
    # Dyadic probabilities keep the expected counts float-exact.
    probs = [0.5, 0.25, 0.125, 0.125]
    obs = [16, 8, 4, 4]
    report = chi_square_gof(obs, probs)
    assert report.sample_sizes == (32, 3)
    assert report.statistic == 0.0


def test_chi_square_rejects_thin_interior_bin():
    with pytest.raises(ValueError):
        chi_square_gof([1, 60, 39], [0.01, 0.6, 0.39])


def test_chi_square_rejects_a_single_pooled_bin():
    # every expected count is 2, so the whole table pools into one bin and
    # no degree of freedom is left
    with pytest.raises(ValueError, match="1 bins after pooling"):
        chi_square_gof([3, 1], [0.5, 0.5])


def test_chi_square_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        chi_square_gof([10, 10], [0.5, 0.4])
    with pytest.raises(ValueError):
        chi_square_gof([10], [1.0])
    with pytest.raises(ValueError):
        chi_square_gof([10, -1], [0.5, 0.5])


def test_chi_square_poisson_counts_against_pmf():
    rng = np.random.default_rng(101)
    counts = rng.poisson(1.0, size=2000)
    kmax = 5
    observed = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
    probs = [poisson_count_pmf(0.0, k) for k in range(kmax + 1)]
    probs.append(1.0 - sum(probs))
    report = chi_square_gof(observed, probs)
    assert report.p_value > DEFAULT_LEVEL


@pytest.mark.parametrize(
    "run_null",
    [
        lambda rng: ks_two_sample(rng.normal(size=100), rng.normal(size=120)),
        lambda rng: ks_one_sample(rng.uniform(size=200), lambda x: x),
        lambda rng: chi_square_gof(
            rng.multinomial(500, [0.3, 0.3, 0.2, 0.2]), [0.3, 0.3, 0.2, 0.2]
        ),
    ],
    ids=["ks_two", "ks_one", "chi_square"],
)
def test_null_rejection_rate_is_calibrated(run_null):
    rng = np.random.default_rng(23)
    rejections = sum(run_null(rng).p_value <= DEFAULT_LEVEL for _ in range(1000))
    assert rejections / 1000 < 0.005


def test_report_validation():
    with pytest.raises(ValueError):
        TestReport(0.1, 1.5, (10, 10))
    with pytest.raises(ValueError):
        TestReport(0.1, -0.1, (10, 10))
