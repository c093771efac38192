"""Closed-form limit laws for the exponential-type random energy model.

Collects the exact expressions the simulator is tested against: the
limiting free energy and its critical inverse temperature, the large
deviation rate of the energy per site, and the limiting law of shifted
extreme energies.
"""

from __future__ import annotations

import math

LOG2 = math.log(2.0)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 1.0:
        raise ValueError(f"alpha must be a finite real >= 1, got {alpha!r}")
    return alpha


def critical_beta(alpha: float) -> float:
    """Inverse temperature ``(alpha*log 2)**((alpha-1)/alpha)`` separating the phases.

    Equals 1 for the double exponential and ``sqrt(2 log 2)`` for the
    Gaussian environment.
    """
    alpha = _check_alpha(alpha)
    return (alpha * LOG2) ** ((alpha - 1.0) / alpha)


def free_energy_limit(alpha: float, beta: float) -> float:
    """Almost-sure limit of ``log(partition function) / n``.

    For ``alpha = 1``: ``log 2`` up to ``beta = 1`` and ``beta*log 2``
    beyond.  For ``alpha > 1``: ``log 2 + (alpha-1)/alpha *
    beta**(alpha/(alpha-1))`` below the critical point and
    ``beta * (alpha*log 2)**(1/alpha)`` above.  The two branches meet
    continuously at ``critical_beta(alpha)``.
    """
    alpha = _check_alpha(alpha)
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be a finite real > 0, got {beta!r}")
    if alpha == 1.0:
        # limiting case of the general display: the exponent alpha/(alpha-1)
        # diverges, leaving a flat high-temperature branch
        return LOG2 if beta <= 1.0 else beta * LOG2
    if beta <= critical_beta(alpha):
        return LOG2 + (alpha - 1.0) / alpha * beta ** (alpha / (alpha - 1.0))
    return beta * (alpha * LOG2) ** (1.0 / alpha)


def rate_function(alpha: float, x: float) -> float:
    """Large deviation rate ``|x|**alpha / alpha`` of the energy per site.

    Finite exactly on ``[-(alpha*log 2)**(1/alpha), (alpha*log 2)**(1/alpha)]``,
    the interval where ``2**n`` independent energies still produce hits;
    outside it the rate is ``math.inf``.
    """
    alpha = _check_alpha(alpha)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    edge = (alpha * LOG2) ** (1.0 / alpha)
    if abs(x) > edge:
        return math.inf
    return abs(x) ** alpha / alpha


def shift_constant(n: int) -> float:
    """Centering ``(n-1) * log 2`` for the extreme energies at size ``n``.

    With this shift, ``2**n * P(-energy >= b + shift) == exp(-b)`` holds
    identically in ``b`` for the double exponential, which is what makes
    the exceedance counts exactly Poisson in the limit.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return (n - 1) * LOG2


def poisson_count_pmf(b: float, k: int) -> float:
    """Limiting law of the number of shifted energies exceeding level ``b``.

    ``P(count = k) = exp(-exp(-b)) * exp(-k*b) / k!``, the Poisson law
    with mean ``exp(-b)``.  Evaluated in log space so large ``k`` stays
    finite.
    """
    b = float(b)
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    return math.exp(-math.exp(-b) - k * b - math.lgamma(k + 1))


def poisson_count_probs(b: float, kmax: int) -> list:
    """``P(count = k)`` for ``k = 0..kmax``, then ``P(count > kmax)``, held >= 0."""
    probs = [poisson_count_pmf(b, k) for k in range(kmax + 1)]
    probs.append(max(0.0, 1.0 - sum(probs)))
    return probs
