"""Closed-form limit laws for the exponential-type random energy model.

Collects the exact expressions the simulator is tested against: the
limiting free energy and its critical inverse temperature, the large
deviation rate of the energy per site, the limiting law of shifted
extreme energies, and truncated exponential moments of a single energy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from scipy import special

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


class Regime(enum.Enum):
    """Phase of the model at a given inverse temperature."""

    HIGH_TEMPERATURE = "high_temperature"
    CRITICAL = "critical"
    LOW_TEMPERATURE = "low_temperature"


@dataclass(frozen=True)
class PhaseDiagnosis:
    """Where ``beta`` sits relative to the phase transition."""

    alpha: float
    beta: float
    beta_critical: float
    regime: Regime
    free_energy: float


def classify_phase(alpha: float, beta: float) -> PhaseDiagnosis:
    """Free energy limit, critical point, and regime for ``(alpha, beta)``."""
    bc = critical_beta(alpha)
    fe = free_energy_limit(alpha, beta)
    beta = float(beta)
    if beta < bc:
        regime = Regime.HIGH_TEMPERATURE
    elif beta == bc:
        regime = Regime.CRITICAL
    else:
        regime = Regime.LOW_TEMPERATURE
    return PhaseDiagnosis(float(alpha), beta, bc, regime, fe)
