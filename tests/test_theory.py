"""Closed-form limit laws: values, continuity, convexity, moment bounds."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from naive_oracle import density
from remlab.cli import main
from remlab.environment import Environment
from remlab.theory import (
    LOG2,
    critical_beta,
    free_energy_limit,
    poisson_count_pmf,
    poisson_count_probs,
    rate_function,
    shift_constant,
)

ALPHAS = [1.0, 1.5, 2.0, 3.0]
# the grids of the truncated-moment bounds
BOUND_N = (5, 10, 20)
LAPLACE_BETAS = (0.1, 0.25, 0.5, 0.75, 0.9)
LAPLACE_DELTAS = (0.75, 1.0, 1.5)
GAUSS_BETAS = (0.2, 0.5, 0.8, 1.0)
GAUSS_DELTAS = (1.6651092223153954, 1.8, 2.2)  # starting at 2 sqrt(log 2)


# The closed forms behind the moment bounds below; only these tests use them.
def truncated_exp_moment(alpha: float, beta: float, delta: float, n: int, order: int = 1) -> float:
    """``E[exp(order*beta*H) * 1{H <= delta*n}]`` for a single energy ``H``.

    Exact closed forms, available for the two shapes with elementary
    tails.  With ``g = order*beta``:

    * alpha=1: ``1/(2*(1+g)) + (1 - exp((g-1)*delta*n)) / (2*(1-g))``,
      and the removable point ``g = 1`` integrates to
      ``1/4 + delta*n/2``.
    * alpha=2: ``exp(g**2 * n / 2) * Phi((delta - g) * sqrt(n))`` with
      ``Phi`` the standard normal cdf.

    The function is a plain evaluator; admissible parameter ranges for
    the moment *bounds* are asserted in the test suite, not here.
    """
    alpha = float(alpha)
    if alpha not in (1.0, 2.0):
        raise ValueError(f"closed forms exist for alpha in {{1, 2}} only, got {alpha!r}")
    beta = float(beta)
    delta = float(delta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be a finite real > 0, got {beta!r}")
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"delta must be a finite real > 0, got {delta!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    g = order * beta
    dn = delta * n
    if alpha == 1.0:
        left = 0.5 / (1.0 + g)
        if g == 1.0:
            return 0.25 + 0.5 * dn
        # expm1 keeps the right side well conditioned near g = 1
        return left + math.expm1((g - 1.0) * dn) / (2.0 * (g - 1.0))
    return math.exp(0.5 * g * g * n) * float(special.ndtr((delta - g) * math.sqrt(n)))


def test_critical_beta_values():
    assert critical_beta(1.0) == 1.0
    assert abs(critical_beta(2.0) - 1.1774100225154747) < 1e-15
    assert abs(critical_beta(3.0) - 1.6291627709226049) < 1e-15
    assert abs(critical_beta(1.5) - 1.0130687214573475) < 1e-15


def test_free_energy_limit_values():
    assert free_energy_limit(1.0, 0.5) == LOG2
    assert abs(free_energy_limit(1.0, 2.0) - 1.3862943611198906) < 1e-15
    assert abs(free_energy_limit(2.0, 0.5) - 0.8181471805599453) < 1e-15
    assert abs(free_energy_limit(2.0, 2.0) - 2.3548200450309493) < 1e-15


@pytest.mark.parametrize("alpha", ALPHAS)
def test_free_energy_limit_continuous_at_critical_point(alpha):
    bc = critical_beta(alpha)
    low = LOG2 if alpha == 1.0 else LOG2 + (alpha - 1.0) / alpha * bc ** (alpha / (alpha - 1.0))
    high = bc * (alpha * LOG2) ** (1.0 / alpha)
    assert abs(low - high) < 1e-12
    assert abs(free_energy_limit(alpha, bc) - high) < 1e-12
    assert abs(free_energy_limit(alpha, bc - 1e-9) - free_energy_limit(alpha, bc + 1e-9)) <= 1e-7


@pytest.mark.parametrize("alpha", ALPHAS)
def test_free_energy_limit_convex_nondecreasing(alpha):
    beta = np.linspace(0.05, 4.0, 400)
    fe = np.array([free_energy_limit(alpha, b) for b in beta])
    diffs = np.diff(fe)
    assert np.all(diffs >= -1e-12)
    assert np.all(np.diff(diffs) >= -1e-10)


@pytest.mark.parametrize(
    "args",
    [(0.5, 1.0), (1.0, 0.0), (1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))],
)
def test_free_energy_limit_rejects_bad_input(args):
    with pytest.raises(ValueError):
        free_energy_limit(*args)


def _theory_report(capsys, alpha, beta):
    assert main(["theory", repr(alpha), repr(beta)]) == 0
    return dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())


def test_classify_phase(capsys):
    # the phase `remlab theory` reports, checked against the closed forms
    hot = _theory_report(capsys, 1.0, 0.5)
    assert hot["regime"] == "high_temperature"
    assert float(hot["critical_beta"]) == 1.0
    assert float(hot["free_energy_limit"]) == LOG2
    critical = _theory_report(capsys, 2.0, critical_beta(2.0))
    assert critical["regime"] == "critical"
    assert float(critical["free_energy_limit"]) == free_energy_limit(2.0, critical_beta(2.0))
    cold = _theory_report(capsys, 2.0, 2.0)
    assert cold["regime"] == "low_temperature"
    assert float(cold["free_energy_limit"]) == free_energy_limit(2.0, 2.0)


def test_rate_function_values():
    assert rate_function(1.0, 0.0) == 0.0
    assert rate_function(2.0, 0.0) == 0.0
    assert rate_function(1.0, 0.5) == 0.5
    assert rate_function(1.0, 1.0) == math.inf
    assert rate_function(2.0, 1.0) == 0.5
    # the domain edge itself is inside: I(edge) = log 2
    for alpha in ALPHAS:
        edge = (alpha * LOG2) ** (1.0 / alpha)
        assert abs(rate_function(alpha, edge) - LOG2) < 1e-12
        assert rate_function(alpha, math.nextafter(edge, 2.0) * (1.0 + 1e-12)) == math.inf


@pytest.mark.parametrize("alpha", ALPHAS)
def test_rate_function_even_and_convex(alpha):
    edge = (alpha * LOG2) ** (1.0 / alpha)
    x = np.linspace(-edge, edge, 201)
    vals = np.array([rate_function(alpha, t) for t in x])
    assert np.allclose(vals, vals[::-1], rtol=0, atol=1e-15)
    assert np.all(np.diff(np.diff(vals)) >= -1e-12)
    assert np.all(vals[x != 0.0] > 0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
# 1.0 and the last seven make up the grid 0.25 k, k = 1..8
@pytest.mark.parametrize("beta", [0.3, 0.9, 1.0, 1.2, 2.5, 0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.0])
def test_varadhan_balance_reproduces_free_energy(alpha, beta):
    # sup_x {log 2 - beta*x - I(x)} over the rate function's domain equals
    # the limiting free energy; the sup sits at -beta^{1/(alpha-1)} capped
    # at the domain edge (at alpha=1: at 0 below the critical point, at
    # -log 2 above)
    edge = (alpha * LOG2) ** (1.0 / alpha)
    if alpha == 1.0:
        star = 0.0 if beta <= 1.0 else -LOG2
    else:
        star = -min(beta ** (1.0 / (alpha - 1.0)), edge)
    balance = LOG2 - beta * star - rate_function(alpha, star)
    assert abs(balance - free_energy_limit(alpha, beta)) < 1e-12
    x = np.linspace(-edge, edge, 2001)
    grid_max = max(LOG2 - beta * t - rate_function(alpha, t) for t in x)
    assert grid_max <= balance + 1e-12
    assert grid_max > balance - 1e-3


def test_shift_constant_values_and_identity():
    assert shift_constant(1) == 0.0
    assert abs(shift_constant(11) - 10.0 * LOG2) < 1e-15
    # 2^n * P(-H >= b + a_n) == exp(-b) identically at alpha=1
    env = Environment(1.0, 11)
    for b in (-1.0, 0.0, 0.7, 3.0):
        lhs = 2.0 ** 11 * env.tail_probability(b + shift_constant(11))
        assert abs(lhs - math.exp(-b)) < 1e-12
    # and to a relative 1e-12 at small and large n
    for n in (2, 11, 24):
        env = Environment(1.0, n)
        for b in (0.0, 1.0, 2.5):
            lhs = (1 << n) * env.tail_probability(shift_constant(n) + b)
            assert abs(lhs - math.exp(-b)) <= 1e-12 * math.exp(-b)
    with pytest.raises(ValueError):
        shift_constant(0)


def test_poisson_count_pmf_values():
    assert abs(poisson_count_pmf(0.0, 0) - 0.36787944117144233) < 1e-16
    assert abs(poisson_count_pmf(LOG2, 0) - math.exp(-0.5)) < 1e-15
    assert abs(poisson_count_pmf(LOG2, 1) - 0.5 * math.exp(-0.5)) < 1e-15


@pytest.mark.parametrize("b", [-2.0, 0.0, 2.0])
def test_poisson_count_pmf_sums_to_one(b):
    total = sum(poisson_count_pmf(b, k) for k in range(201))
    assert abs(total - 1.0) < 1e-10
    mean = math.exp(-b)
    oracle = stats.poisson.pmf(np.arange(50), mean)
    mine = np.array([poisson_count_pmf(b, k) for k in range(50)])
    assert np.max(np.abs(mine - oracle)) < 1e-13


def test_poisson_count_probs_bins():
    probs = poisson_count_probs(0.0, 5)
    assert probs[:6] == [poisson_count_pmf(0.0, k) for k in range(6)]
    assert abs(sum(probs) - 1.0) < 1e-15
    # at b=-2, kmax=39 one minus the rest rounds to -2.2e-16; the tail bin holds 0
    assert poisson_count_probs(-2.0, 39)[-1] == 0.0


def test_poisson_count_pmf_rejects_bad_input():
    with pytest.raises(ValueError):
        poisson_count_pmf(float("inf"), 0)
    with pytest.raises(ValueError):
        poisson_count_pmf(0.0, -1)
    with pytest.raises(ValueError):
        poisson_count_pmf(0.0, 1.5)


def test_truncated_exp_moment_values():
    # frozen closed-form evaluations, g = order*beta
    assert abs(truncated_exp_moment(1.0, 0.5, 0.8, 10, order=1) - 1.315017694444599) < 1e-14
    assert abs(truncated_exp_moment(1.0, 1.0, 0.6, 10, order=1) - 3.25) < 1e-14
    assert abs(truncated_exp_moment(1.0, 1.0, 0.4, 10, order=2) - 26.965741683238786) < 1e-13
    assert abs(truncated_exp_moment(2.0, 0.5, 1.0, 10, order=1) - 3.2916616452215206) < 1e-13
    # both routes to g=1 hit the removable-point formula identically
    route_a = truncated_exp_moment(1.0, 0.5, 0.6, 10, order=2)
    route_b = truncated_exp_moment(1.0, 1.0, 0.6, 10, order=1)
    assert route_a == route_b


@pytest.mark.parametrize(
    "alpha,beta,delta,n,order",
    [
        (1.0, 0.5, 0.8, 10, 1),
        (1.0, 0.9, 1.0, 5, 1),
        (1.0, 0.7, 0.5, 8, 2),
        (2.0, 0.5, 1.0, 10, 1),
        (2.0, 0.8, 1.8, 6, 2),
    ],
)
def test_truncated_exp_moment_matches_quadrature(alpha, beta, delta, n, order):
    env = Environment(alpha, n)
    g = order * beta

    def integrand(x):
        return math.exp(g * x) * float(density(env, x))

    lo = -60.0 * max(1.0, math.sqrt(n))
    val = 0.0
    for a, b in ((lo, 0.0), (0.0, delta * n)):
        if a < b:
            part, _ = integrate.quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)
            val += part
    mine = truncated_exp_moment(alpha, beta, delta, n, order=order)
    assert abs(mine - val) < 1e-9 * max(1.0, abs(val))


def test_truncated_exp_moment_monotone_and_limits():
    # nondecreasing in delta; converges to the untruncated moment
    vals = [truncated_exp_moment(1.0, 0.5, d, 10, order=1) for d in (0.5, 1.0, 2.0, 4.0, 40.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - 4.0 / 3.0) < 1e-12
    g = 0.6
    gauss = [truncated_exp_moment(2.0, g, d, 6, order=1) for d in (1.0, 2.0, 4.0, 8.0)]
    assert all(b >= a for a, b in zip(gauss, gauss[1:]))
    assert abs(gauss[-1] - math.exp(0.5 * g * g * 6)) < 1e-9


def test_truncated_exp_moment_rejects_bad_input():
    for args in [(1.5, 0.5, 1.0, 4), (3.0, 0.5, 1.0, 4)]:
        with pytest.raises(ValueError):
            truncated_exp_moment(*args)
    with pytest.raises(ValueError):
        truncated_exp_moment(1.0, -0.5, 1.0, 4)
    with pytest.raises(ValueError):
        truncated_exp_moment(1.0, 0.5, 0.0, 4)
    with pytest.raises(ValueError):
        truncated_exp_moment(1.0, 0.5, 1.0, 4, order=3)


@pytest.mark.parametrize("beta", LAPLACE_BETAS)
@pytest.mark.parametrize("delta", LAPLACE_DELTAS)
@pytest.mark.parametrize("n", BOUND_N)
def test_double_exponential_moment_bounds(beta, delta, n):
    # lower bound 1/(1+beta) on the first truncated moment; valid whenever
    # delta*n > log((1+beta)/(2*beta))/(1-beta), which this grid satisfies
    assert delta * n > math.log((1.0 + beta) / (2.0 * beta)) / (1.0 - beta)
    first = truncated_exp_moment(1.0, beta, delta, n, order=1)
    assert first > 1.0 / (1.0 + beta)
    # second truncated moment, three regimes in g = 2*beta
    second = truncated_exp_moment(1.0, beta, delta, n, order=2)
    if beta < 0.5:
        assert second <= 1.0 / (1.0 - 4.0 * beta * beta)
    elif beta == 0.5:
        # direct integration gives 1/4 + delta*n/2, within the looser cap
        assert second == 0.25 + 0.5 * (delta * n)
        assert second <= 0.5 * (1.0 + delta * n)
    else:
        cap = math.exp((2.0 * beta - 1.0) * delta * n) / (2.0 * (2.0 * beta - 1.0))
        assert second <= cap


@pytest.mark.parametrize("beta", GAUSS_BETAS)
@pytest.mark.parametrize("delta", GAUSS_DELTAS)
@pytest.mark.parametrize("n", BOUND_N)
def test_gaussian_moment_bounds(beta, delta, n):
    # delta grid starts at 2*sqrt(log 2) and stays above every beta, so the
    # lower bound (1/2)exp(beta^2 n / 2) applies throughout
    assert delta > beta
    first = truncated_exp_moment(2.0, beta, delta, n, order=1)
    assert first > 0.5 * math.exp(0.5 * beta * beta * n)
    second = truncated_exp_moment(2.0, beta, delta, n, order=2)
    if beta <= 0.5 * delta:
        assert second <= math.exp(2.0 * beta * beta * n)
    else:
        cap = math.exp((2.0 * delta * beta - 0.5 * delta * delta) * n) / (
            (2.0 * beta - delta) * math.sqrt(2.0 * math.pi * n)
        )
        assert second <= cap

