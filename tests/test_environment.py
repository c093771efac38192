"""Exponential-type site distribution: density, cdf, quantile, sampling."""

import itertools
import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy import integrate, special, stats

from naive_oracle import cdf, density, normalizing_constant
from remlab.environment import Environment
from remlab.rng import ENERGY_STREAM, stream_generator
from tail_oracle_values import INTERVALS, QUANTILES, TAILS

ALPHAS = [1.0, 1.5, 2.0, 3.0]
SIZES = [1, 8, 24]


def sample_energy(env, rng, size=None):
    """Draw energies by a route independent of ``Environment.quantile``.

    alpha=1 uses the double-exponential inverse cdf, alpha=2 draws
    Gaussian(0, n), and general shapes draw the magnitude as
    ``(scale * G)**(1/alpha)`` with ``G ~ Gamma(1/alpha, 1)`` and attach
    an independent fair sign.
    """
    if env.alpha == 1.0:
        u = np.maximum(rng.random(size), 2.0 ** -54)
        out = np.copysign(-np.log(2.0 * np.minimum(u, 1.0 - u)), u - 0.5)
    elif env.alpha == 2.0:
        out = rng.standard_normal(size) * math.sqrt(env.n)
    else:
        mag = (env.scale * rng.gamma(1.0 / env.alpha, size=size)) ** (1.0 / env.alpha)
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        out = sign * mag
    return out if size is not None else float(out)


def quad_density(env, lo, hi):
    # split at 0 so quad never straddles the |x| kink, and keep tolerances
    # well below the 1e-9 assertions
    total = 0.0
    for a, b in ((lo, 0.0), (0.0, hi)):
        if a < b:
            val, _ = integrate.quad(partial(density, env), a, b, epsabs=1e-13, limit=200)
            total += val
    return total


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", SIZES)
def test_density_normalizes_to_one(alpha, n):
    env = Environment(alpha, n)
    # truncate where the tail is < 1e-13; quantile of 1e-14 bounds that point
    span = float(env.quantile(1.0 - 1e-14)) + 1.0
    assert abs(quad_density(env, -span, span) - 1.0) < 1e-9


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", SIZES)
def test_density_symmetric_and_peaked_at_zero(alpha, n):
    env = Environment(alpha, n)
    x = np.linspace(0.1, 5.0 * n ** ((alpha - 1.0) / alpha), 40)
    assert np.allclose(density(env, x), density(env, -x), rtol=0, atol=0)
    assert np.all(density(env, x) <= density(env, 0.0))


def test_normalizing_constant_values():
    # alpha=1 collapses to the double exponential, constant 1/2 at every n;
    # alpha=2 is the centered Gaussian with variance n
    assert normalizing_constant(Environment(1.0, 1)) == 0.5
    assert normalizing_constant(Environment(1.0, 24)) == 0.5
    assert abs(normalizing_constant(Environment(2.0, 1)) - 0.3989422804014327) < 1e-15
    assert abs(normalizing_constant(Environment(2.0, 4)) - 0.19947114020071635) < 1e-15


def test_cdf_known_values():
    assert abs(cdf(Environment(1.0, 1), -1.0) - 0.18393972058572117) < 1e-15
    assert abs(cdf(Environment(1.0, 16), -1.0) - 0.18393972058572117) < 1e-15
    assert abs(cdf(Environment(2.0, 4), 2.0) - 0.8413447460685429) < 1e-15
    assert abs(cdf(Environment(1.5, 8), 1.3) - 0.7402070862940422) < 1e-15


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", [1, 8])
def test_cdf_symmetry_and_monotonicity(alpha, n):
    env = Environment(alpha, n)
    x = np.linspace(-8.0, 8.0, 801)
    c = cdf(env, x)
    assert np.all(np.diff(c) >= 0)
    assert np.max(np.abs(c + cdf(env, -x) - 1.0)) < 1e-12
    assert cdf(env, 0.0) == 0.5


def test_cdf_matches_quadrature():
    env = Environment(1.5, 8)
    span = float(env.quantile(1.0 - 1e-14)) + 1.0
    for x in (-2.0, -0.5, 0.7, 1.3, 4.0):
        target = 0.0
        for a, b in ((-span, min(x, 0.0)), (0.0, x)):
            if a < b:
                part, _ = integrate.quad(partial(density, env), a, b, epsabs=1e-13, limit=200)
                target += part
        assert abs(cdf(env, x) - target) < 1e-9


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", [1, 8, 24])
def test_quantile_inverts_cdf(alpha, n):
    env = Environment(alpha, n)
    u = np.linspace(0.001, 0.999, 97)
    assert np.max(np.abs(cdf(env, env.quantile(u)) - u)) < 1e-10
    x = np.linspace(-3.0 * math.sqrt(n), 3.0 * math.sqrt(n), 61)
    assert np.max(np.abs(env.quantile(cdf(env, x)) - x)) < 1e-8


def test_quantile_rejects_unit_and_handles_zero():
    env = Environment(2.0, 4)
    with pytest.raises(ValueError):
        env.quantile(1.0)
    # u=0 is clamped below the smallest representable uniform draw
    assert math.isfinite(float(env.quantile(0.0)))


def gamma_quantile(env, u):
    """|E| from scipy's inverse of the upper incomplete gamma, by the definition.

    Where that inverse ``G`` is below 1e-280 (near u = 1/2 at large alpha)
    it is subnormal or close to it and has lost digits; there the series
    ``G**(1/alpha) = P * Gamma(1 + 1/alpha) * (1 + O(G))`` in the lower
    tail mass ``P = 1 - 2 min(u, 1-u)`` is exact to double precision.
    """
    a = 1.0 / env.alpha
    q = 2.0 * np.minimum(u, 1.0 - u)
    g = special.gammainccinv(a, q)
    mag = np.where(g < 1e-280, (1.0 - q) * math.gamma(1.0 + a), g ** a)
    return env.scale ** a * mag


GENERAL_ALPHAS = [1.01, 1.5, 3.0, 10.0]
# shapes where Gamma(1/alpha) variates fall below 1e-20 on whole tail pieces
LARGE_ALPHAS = [60.0, 100.0]


@pytest.mark.parametrize("alpha", GENERAL_ALPHAS + [30.0, 60.0])
@pytest.mark.parametrize("n", [1, 30])
def test_quantile_deep_tail_is_exact(alpha, n):
    # |2u - 1| cancels for small u; the tail mass 2 min(u, 1-u) does not
    env = Environment(alpha, n)
    base = 1.2345678 * 2.0 ** -np.arange(2, 54)
    u = np.concatenate([base, 1.0 - base])
    x = env.quantile(u)
    assert np.all(np.sign(x) == np.sign(u - 0.5))
    ratio = env.tail_probability(np.abs(x)) / np.minimum(u, 1.0 - u)
    assert np.max(np.abs(ratio - 1.0)) <= 1e-12


@pytest.mark.parametrize("alpha", GENERAL_ALPHAS + LARGE_ALPHAS)
def test_quantile_matches_inverse_gamma(alpha):
    env = Environment(alpha, 8)
    base = 1.2345678 * 2.0 ** -np.arange(2, 54)
    u = np.concatenate([np.random.default_rng(7).random(1 << 16), base, 1.0 - base])
    before = u.copy()
    x = env.quantile(u)
    assert np.array_equal(u, before)  # the evaluation overwrites its own copy only
    assert np.max(np.abs(np.abs(x) / gamma_quantile(env, u) - 1.0)) <= 1e-13
    assert np.array_equal(np.sign(x), np.sign(u - 0.5))


@pytest.mark.parametrize("alpha", [1.5, 3.0, 30.0] + LARGE_ALPHAS)
def test_quantile_table_edges(alpha):
    env = Environment(alpha, 8)
    a = 1.0 / alpha
    # u = 1/2 is the centre of the law: |2u - 1| = 0 and frexp(0) has mantissa 0
    assert env.quantile(0.5) == 0.0
    assert isinstance(env.quantile(0.5), float)
    assert isinstance(env.quantile(0.3), float)
    assert env.quantile(np.full((2, 3), 0.3)).shape == (2, 3)
    grid = np.random.default_rng(3).random((3, 5))
    flat = env.quantile(grid.ravel()).reshape(3, 5)
    assert np.array_equal(env.quantile(np.asfortranarray(grid)), flat)
    # u = 0 is nudged to 2**-54, tail mass 2**-53 at the bottom of the table
    assert env.quantile(0.0) == env.quantile(2.0 ** -54) < 0.0
    assert abs(env.tail_probability(-env.quantile(0.0)) / 2.0 ** -54 - 1.0) <= 1e-12
    # the smallest |2u - 1| of 53-bit uniforms (2**-52), and of any double (2**-53),
    # are at the bottom of the centre table; there G < 1e-20 (it underflows from
    # alpha = 30 on), and G**(1/alpha) = p * Gamma(1 + 1/alpha) * (1 + O(G))
    for u, p in ((0.5 + 2.0 ** -53, 2.0 ** -52), (0.5 - 2.0 ** -53, 2.0 ** -52),
                 (0.5 - 2.0 ** -54, 2.0 ** -53)):
        want = env.scale ** a * math.gamma(1.0 + a) * p
        assert abs(abs(env.quantile(u)) / want - 1.0) <= 1e-13
    # tail mass exactly 1/2, where the tail table meets the centre table, and
    # tail masses near it, where G < 1e-20 from alpha about 60 on
    for u in (0.25, 0.75, 0.25 - 2.0 ** -55, 0.75 + 2.0 ** -53, 0.2, 0.8, 0.18, 0.82):
        assert abs(abs(env.quantile(u)) / gamma_quantile(env, u) - 1.0) <= 1e-13
    with pytest.raises(ValueError):
        env.quantile(np.array([0.3, np.nan]))


# the shapes the engine's cut counts are checked at: both closed
# forms, the general table, and the largest shape accepted
EXACT_ALPHAS = [1.0, 1.5, 2.0, 7.3, 100.0]


@pytest.mark.parametrize("alpha", EXACT_ALPHAS)
def test_quantile_is_elementwise_and_in_place(alpha):
    # The energy of a draw does not depend on the draws passed with it, so
    # the engine may evaluate any subset of a block, or a block in place.
    env = Environment(alpha, 18)
    u = np.random.default_rng(11).random(1 << 15)
    u[:5] = (0.0, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.5 - 2.0 ** -53)
    whole = env.quantile(u)
    pick = np.random.default_rng(12).random(u.size) < 0.01
    for subset in (pick, np.flatnonzero(~pick)[::7], slice(5, 9000), slice(1, 2)):
        assert np.array_equal(env.quantile(u[subset]), whole[subset])
    assert [env.quantile(v) for v in u[:64]] == whole[:64].tolist()
    block = u[3:20003].copy()
    env.quantile(block, out=block)
    assert np.array_equal(block, whole[3:20003])


@pytest.mark.parametrize("alpha", EXACT_ALPHAS + [60.0])
def test_uniform_window_brackets_the_crossing(alpha):
    # Every draw below the window has its energy below the cut, every draw
    # above it has its energy above: checked one ulp at a time at both
    # edges and at the cut's own tail mass, and on random draws.  At large
    # alpha, cuts near zero energy are where x**alpha / scale is subnormal.
    env = Environment(alpha, 18)
    rng = np.random.default_rng(int(alpha * 10))
    cuts = [-math.inf, -1e6, -40.0, -7.0, -0.3, -0.0, 0.0, 1e-9, 0.3, 7.0, 40.0, 1e6, math.inf]
    if alpha >= 60.0:
        cuts += [sign * 10.0 ** (k / 2) for k in range(-12, -3) for sign in (-1.0, 1.0)]
    for x in cuts:
        lo, hi = env.uniform_window(x)
        m = env.tail_probability(abs(x))
        assert 0.0 <= lo <= hi and hi - lo <= 1e-9 + 2.0 ** -51
        near = []
        for centre in (lo, hi, m if x <= 0 else 1.0 - m, 0.0, 2.0 ** -53, 1.0 - 2.0 ** -53):
            v = w = centre
            for _ in range(4):
                near += [v, w]
                v, w = np.nextafter(v, 0.0), np.nextafter(w, 1.0)
        u = np.concatenate([np.array(near), rng.random(4096)])
        u = u[(u >= 0.0) & (u < 1.0)]
        e = env.quantile(u)
        assert np.all(e[u < lo] < x) and np.all(e[u > hi] > x)


def test_tail_probability_values_and_errors():
    env = Environment(1.0, 5)
    assert abs(env.tail_probability(2.0) - 0.5 * math.exp(-2.0)) < 1e-16
    assert env.tail_probability(0.0) == 0.5
    with pytest.raises(ValueError):
        env.tail_probability(-0.1)
    g = Environment(2.0, 9)
    assert abs(g.tail_probability(3.0) - stats.norm.sf(1.0)) < 1e-15


def test_tail_probability_matches_the_exact_table():
    # Exact tails at large alpha from |x| = 1e-12 n to 0.1 n (tools/tail_oracle.py),
    # where x**alpha / scale falls to subnormal or 0 near zero energy
    for (alpha, n), group in itertools.groupby(TAILS, key=lambda row: row[:2]):
        x, want = np.array([row[2:] for row in group]).T
        env = Environment(alpha, n)
        got = env.tail_probability(x)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12, (alpha, n)
        assert [env.tail_probability(v) for v in x] == got.tolist()


def test_quantile_matches_the_exact_table():
    # Exact energies at alpha 1.01 to 100 and n 1, 18 and 30 (tools/tail_oracle.py):
    # deep tails u = 1.2345678 2**-k for k 2..53, their mirrors, and u = (1 +-
    # 10**-j) / 2 for j 2..12, next to zero energy.  The scale alpha n**(alpha-1)
    # moves the energies, not the table's draws.  The quantile is within its
    # stated relative 1e-13, the tail within its 1e-12, and each energy's
    # window holds the draw whose exact energy it is.
    for (alpha, n), group in itertools.groupby(QUANTILES, key=lambda row: row[:2]):
        u, magnitude, tail = np.array(list(group))[:, 2:].T
        env = Environment(alpha, n)
        want = np.copysign(magnitude, u - 0.5)
        got = env.quantile(u)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13, (alpha, n)
        assert np.max(np.abs(env.tail_probability(magnitude) / tail - 1.0)) <= 1e-12, (alpha, n)
        for x, m in zip(want.tolist(), tail.tolist()):
            lo, hi = env.uniform_window(x)
            crossing = Fraction(m) if x <= 0 else 1 - Fraction(m)
            assert Fraction(lo) <= crossing <= Fraction(hi), (alpha, n, x)


def test_interval_probability_matches_the_exact_table():
    # Exact probabilities at alpha 1.5, 2 and 60, n 18 and 30 (tools/tail_oracle.py),
    # of intervals in the tail, across 0, and at the rate edge (alpha log 2)**(1/alpha).
    # The probability combines two tails, each within a relative 1e-12, so it is
    # within 1e-12 of their sum; the rounding of the result and of the table's
    # value add 2**-53 of it each, and across 0, where it is 1 - T(b) - T(-a)
    # below 1, three roundings of at most 2**-53 each.
    for alpha, n, low, high, p, tails in INTERVALS:
        rounding = 3.0 * 2.0 ** -53 if low < 0.0 < high else 2.0 * 2.0 ** -53 * p
        bound = (1e-12 * tails + rounding) / p
        got = Environment(alpha, n).interval_probability(low, high)
        assert abs(got / p - 1.0) <= bound, (alpha, n, low, high)


@pytest.mark.parametrize("alpha", [60.0, 100.0])
def test_tail_past_the_float_range_is_silent(alpha):
    # x**alpha overflows to inf here; the tail is exactly 0, without a warning
    env = Environment(alpha, 18)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env.tail_probability(1e6) == 0.0
        assert cdf(env, 1e6) == 1.0
        assert cdf(env, -1e6) == 0.0
        mass = env.interval_probability(0.5, 1e5)
        assert mass == env.tail_probability(9.0) and 0.0 < mass < 0.5


def test_interval_probability_known_value():
    # (1/2)(e^{-2} - e^{-3}) for the per-site interval (0.2, 0.3) at n=10
    env = Environment(1.0, 10)
    assert abs(env.interval_probability(0.2, 0.3) - 0.042774107434374375) < 1e-16


def test_interval_probability_cases_and_additivity():
    env = Environment(1.5, 8)
    for a, b in ((0.1, 0.4), (-0.4, -0.1), (-0.2, 0.3)):
        p = env.interval_probability(a, b)
        direct = float(cdf(env, b * env.n) - cdf(env, a * env.n))
        assert abs(p - direct) < 1e-12
    total = env.interval_probability(-0.2, 0.3)
    parts = env.interval_probability(-0.2, 0.05) + env.interval_probability(0.05, 0.3)
    assert abs(total - parts) < 1e-14
    with pytest.raises(ValueError):
        env.interval_probability(0.3, 0.3)
    with pytest.raises(ValueError):
        env.interval_probability(float("nan"), 1.0)


@pytest.mark.parametrize("n", (5, 10, 20))
def test_interval_probability_exponential_sandwich(n):
    # for alpha=1 and an interval at per-site distance m from the origin the
    # mass q satisfies exp(-n*m) >= q > (d/2) exp(-(n*m + d)) for 0 < d < M - m
    env = Environment(1.0, n)
    for a, b in ((0.0, 0.5), (0.2, 0.3), (0.5, 2.0), (-0.3, -0.1), (-0.25, 0.5)):
        m = 0.0 if a < 0.0 < b else min(abs(a), abs(b))
        big = max(abs(a), abs(b))
        q = env.interval_probability(a, b)
        assert q <= math.exp(-n * m) * (1.0 + 1e-12)
        d = 0.5 * (big - m)
        assert q > 0.5 * d * math.exp(-(n * m + d))


@pytest.mark.parametrize(
    "alpha,n",
    [(1.0, 1), (1.0, 24), (2.0, 9), (1.5, 8), (3.0, 5)],
)
def test_sampler_matches_cdf(alpha, n):
    env = Environment(alpha, n)
    rng = stream_generator(2024, 0, ENERGY_STREAM)
    draws = sample_energy(env, rng, size=100000)
    assert stats.kstest(draws, partial(cdf, env)).pvalue > 0.001
    assert abs(float(np.mean(draws))) < 5.0 * float(np.std(draws)) / math.sqrt(draws.size)


def test_sampler_scalar_and_shape():
    env = Environment(3.0, 4)
    rng = stream_generator(5, 0, ENERGY_STREAM)
    x = sample_energy(env, rng)
    assert isinstance(x, float)
    assert sample_energy(env, rng, size=17).shape == (17,)


@pytest.mark.parametrize(
    "bad", [(0.5, 4), (1.0, 0), (1.0, -3), (float("nan"), 2), (float("inf"), 2), (500.0, 8)]
)
def test_environment_rejects_invalid_parameters(bad):
    with pytest.raises(ValueError):
        Environment(*bad)


def test_environment_requires_integer_n():
    with pytest.raises(ValueError):
        Environment(1.0, 2.5)
