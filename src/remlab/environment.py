"""Exponential-type energy environments.

An environment is the law of a single configuration energy: a symmetric
density on the real line proportional to ``exp(-|x|**alpha / (alpha *
n**(alpha-1)))`` with shape ``alpha >= 1`` and system size ``n``.
``alpha = 1`` is the double exponential with density ``exp(-|x|)/2``
(independent of ``n``); ``alpha = 2`` is the centered Gaussian with
variance ``n``.  The ``n``-dependent scaling keeps the free energy per
site of a system with ``2**n`` independent energies at a nontrivial
limit for every shape.

All distribution functions here are exact closed forms.  For general
``alpha`` the absolute value of an energy is a powered Gamma variate,
so the cdf reduces to the regularized incomplete gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class Environment:
    """Energy law with shape ``alpha >= 1`` at system size ``n >= 1``.

    Parameters
    ----------
    alpha : float
        Tail exponent of the density. Must be >= 1.
    n : int
        System size; the density scale is ``alpha * n**(alpha-1)``.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha < 1.0:
            raise ValueError(f"alpha must be a finite real >= 1, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n", int(self.n))

    @property
    def scale(self) -> float:
        """Denominator ``alpha * n**(alpha-1)`` of the density exponent."""
        return self.alpha * float(self.n) ** (self.alpha - 1.0)

    def normalizing_constant(self) -> float:
        """Value of the density at zero.

        Equals ``(alpha/n)**((alpha-1)/alpha) / (2*Gamma(1/alpha))``;
        1/2 for the double exponential, ``1/sqrt(2*pi*n)`` for the
        Gaussian.
        """
        a = self.alpha
        return (a / self.n) ** ((a - 1.0) / a) / (2.0 * math.gamma(1.0 / a))

    def density(self, x):
        """Probability density at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        out = self.normalizing_constant() * np.exp(-np.abs(x) ** self.alpha / self.scale)
        return out if out.ndim else float(out)

    def tail_probability(self, x):
        """P(energy > x) for ``x >= 0``, computed without cancellation.

        Exact closed form: ``exp(-x)/2`` at alpha=1, the Gaussian upper
        tail at alpha=2, and half the complementary regularized
        incomplete gamma in general.  Small values stay fully accurate,
        which the interval bounds in the tests rely on.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("tail_probability is defined for x >= 0")
        if self.alpha == 1.0:
            out = 0.5 * np.exp(-x)
        elif self.alpha == 2.0:
            out = special.ndtr(-x / math.sqrt(self.n))
        else:
            out = 0.5 * special.gammaincc(1.0 / self.alpha, x ** self.alpha / self.scale)
        return out if out.ndim else float(out)

    def cdf(self, x):
        """P(energy <= x), exact for every shape.

        ``cdf(x) + cdf(-x) == 1`` by symmetry of the density.
        """
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        if self.alpha == 1.0:
            half = 0.5 * np.exp(-ax)
        elif self.alpha == 2.0:
            half = special.ndtr(-ax / math.sqrt(self.n))
        else:
            half = 0.5 * special.gammaincc(1.0 / self.alpha, ax ** self.alpha / self.scale)
        out = np.where(x <= 0, half, 1.0 - half)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Inverse cdf on (0, 1); the exact transform used for keyed streams.

        Vectorized.  Draws of exactly 0 are nudged to 2**-54 (below the
        smallest positive value ``random()`` can produce) so the output
        is always finite.
        """
        u = np.maximum(np.asarray(u, dtype=float), 2.0 ** -54)
        if np.any(u >= 1.0):
            raise ValueError("quantile is defined on (0, 1)")
        if self.alpha == 1.0:
            mag = -np.log(2.0 * np.minimum(u, 1.0 - u))
        elif self.alpha == 2.0:
            mag = np.abs(special.ndtri(u)) * math.sqrt(self.n)
        else:
            p = np.abs(2.0 * u - 1.0)
            mag = (self.scale * special.gammaincinv(1.0 / self.alpha, p)) ** (1.0 / self.alpha)
        out = np.copysign(mag, u - 0.5)
        return out if out.ndim else float(out)

    def interval_probability(self, low: float, high: float) -> float:
        """P(energy / n in (low, high)) for an open interval.

        The interval is given on the per-site scale and integrates the
        density over ``(n*low, n*high)``.  Endpoints may be infinite.
        Computed from exact tails, so probabilities deep in the tail
        (for example ``exp(-n*low)`` sized) keep full relative accuracy.
        """
        low = float(low)
        high = float(high)
        if math.isnan(low) or math.isnan(high):
            raise ValueError("interval endpoints must not be NaN")
        if low >= high:
            raise ValueError(f"interval must satisfy low < high, got ({low}, {high})")
        a = low * self.n
        b = high * self.n
        if a >= 0.0:
            return float(self.tail_probability(a) - self.tail_probability(b))
        if b <= 0.0:
            return float(self.tail_probability(-b) - self.tail_probability(-a))
        # interval straddles zero: combine the two exact tails
        return float(1.0 - self.tail_probability(b) - self.tail_probability(-a))
