"""Exponential-type energy environments.

An environment is the law of a single configuration energy: a symmetric
density on the real line proportional to ``exp(-|x|**alpha / (alpha *
n**(alpha-1)))`` with shape ``alpha`` in [1, 100] and system size ``n``.
``alpha = 1`` is the double exponential with density ``exp(-|x|)/2``
(independent of ``n``); ``alpha = 2`` is the centered Gaussian with
variance ``n``.  The ``n``-dependent scaling keeps the free energy per
site of a system with ``2**n`` independent energies at a nontrivial
limit for every shape.

The density, cdf and tail probabilities are exact closed forms.  For
general ``alpha`` the absolute value of an energy is a powered Gamma
variate, so the cdf reduces to the regularized incomplete gamma
function.  The quantile is a closed form at ``alpha`` 1 and 2; for other
shapes it evaluates a per-``alpha`` table of polynomials, accurate to a
relative 1e-13 in the energy (tested at alpha 1.01 to 100) and 1e-12 in
the tail probability it inverts (tested at alpha 1.01 to 60; see
``Environment.quantile``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# The largest shape accepted: the quantile's tolerances are tested up to it,
# and the scale alpha * n**(alpha - 1) stays a finite float for every n <= 30
# (at alpha 500 and n 8 it overflows).
MAX_ALPHA = 100.0

# Draws of exactly 0 are nudged to this, below the smallest positive
# value ``random()`` can produce, so every energy is finite.
_U_MIN = 2.0 ** -54

# Layout of the general-alpha quantile table.  Its input is the tail mass
# q = 2 min(u, 1-u) for q <= 1/2 and the centre mass |2u - 1| = 1 - q
# otherwise, so it lies in {0} and [2**-53, 1/2], frexp exponents 0 down
# to -52.  Each of those binades is cut into _PIECES equal sub-intervals
# of the mantissa, and each sub-interval holds a polynomial of degree
# _DEGREE in the local coordinate t in [0, 1).
_PIECES = 8
_DEGREE = 10
_BINADES = 1 - math.frexp(2.0 * _U_MIN)[1]
# values per pass of the evaluation: its temporaries (64 KB each) stay in
# cache, and below the size from which malloc maps fresh pages for each
# one (128 KB by default in glibc)
_BLOCK = 1 << 13


@functools.lru_cache(maxsize=16)
def _power_gamma_table(alpha: float) -> np.ndarray:
    """Polynomial coefficients of ``G**(1/alpha) / x`` on every piece.

    ``G`` is the ``Gamma(1/alpha, 1)`` variate with upper tail ``x``
    (tail pieces) or lower tail ``x`` (centre pieces).  Row ``k`` holds
    the ``t**k`` coefficient of all ``2 * _BINADES * _PIECES`` pieces,
    tail pieces first, each binade from 1/2 downwards.  The quotient by
    ``x`` keeps every piece of order one and makes the magnitude exactly
    0 at ``x = 0``.
    """
    a = 1.0 / alpha
    # Chebyshev points on [0, 1]; interpolating there is close to minimax
    t = 0.5 - 0.5 * np.cos(np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1))
    mantissa = 0.5 + (np.arange(_PIECES) + t[:, None]) / (2 * _PIECES)
    x = np.ldexp(mantissa[:, None, :], -np.arange(_BINADES)[:, None]).reshape(_DEGREE + 1, -1)
    g = np.concatenate([special.gammainccinv(a, x), special.gammaincinv(a, x)], axis=1)
    # G**a = P * Gamma(1 + a) * (1 + O(G)), with P = P(Gamma < G) the lower
    # tail mass: 1 - x on tail pieces, x on centre pieces.  Use that where G
    # is too small to matter (or underflows, at large alpha): near x = 0 in
    # the centre, and on whole tail pieces from alpha about 60 on.
    x, lower = np.tile(x, 2), np.concatenate([1.0 - x, x], axis=1)
    values = np.where(g < 1e-20, lower / x * math.gamma(1.0 + a), g ** a / x)
    table = np.linalg.solve(np.vander(t, increasing=True), values)
    table.flags.writeable = False
    return table


def _power_gamma_quantile(u: np.ndarray, alpha: float, scale: float) -> np.ndarray:
    """``sign(u - 1/2) * scale * G**(1/alpha)`` where ``P(G > g) = 2 min(u, 1-u)``.

    For ``u`` in [2**-54, 1).  The result is written over ``u`` block by
    block, so no array of its size is allocated: each would be faulted in
    afresh on every call.
    """
    table = _power_gamma_table(alpha)
    flat = u.reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        v = flat[lo : lo + _BLOCK]
        q = 2.0 * np.minimum(v, 1.0 - v)  # exact: the minimum is v, or 1 - v with v >= 1/2
        centre = q > 0.5
        x = np.where(centre, 1.0 - q, q)  # 1 - q = |2u - 1| is exact there (Sterbenz)
        mantissa, exponent = np.frexp(x)
        z = mantissa * (2 * _PIECES) - _PIECES  # position in the binade, in pieces
        piece = z.astype(np.intp)
        t = z - piece
        piece += _PIECES * (np.where(centre, _BINADES, 0) - exponent)
        y = table[-1].take(piece)
        for row in table[-2::-1]:
            y *= t
            y += row.take(piece)
        # at x = 0 (u = 1/2) the piece is out of its binade but finite
        y *= x
        y *= scale
        np.copysign(y, v - 0.5, out=v)
    return flat.reshape(u.shape)


@dataclass(frozen=True)
class Environment:
    """Energy law with shape ``alpha`` in [1, 100] at system size ``n >= 1``.

    Parameters
    ----------
    alpha : float
        Tail exponent of the density, in [1, ``MAX_ALPHA``].
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
        if not 1.0 <= alpha <= MAX_ALPHA:
            raise ValueError(f"alpha must lie in [1, {MAX_ALPHA:g}], got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n", int(self.n))
        if alpha not in (1.0, 2.0):
            # Build the quantile table now, not on the first draw: worker
            # processes forked after this inherit it instead of each
            # rebuilding it for every pool.
            _power_gamma_table(alpha)

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
        half = self.tail_probability(np.abs(x))
        out = np.where(x <= 0, half, 1.0 - half)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Inverse cdf on (0, 1); the transform used for keyed streams.

        Vectorized.  Draws of exactly 0 are nudged to 2**-54 (below the
        smallest positive value ``random()`` can produce) so the output
        is always finite.

        Closed forms at alpha 1 and 2.  For other shapes the magnitude
        ``(scale * G)**(1/alpha)``, with ``G`` the Gamma variate of tail
        mass ``2 min(u, 1-u)``, is read from a per-alpha table of
        polynomials (built when the environment is made, then cached).
        Its input never forms ``|2u - 1|`` where that cancels, so the
        tails stay accurate: the magnitude agrees with scipy's
        ``gammainccinv`` to within a relative 1e-13 (tested at alpha
        1.01 to 100), and ``tail_probability(|E|)`` equals ``min(u,
        1-u)`` to within a relative 1e-12 for every ``u`` down to
        2**-54 (tested at alpha 1.01 to 60).  The tail probability magnifies the energy's
        relative error by about ``alpha * log(1/u)``, so beyond that
        range its bound grows with alpha: 1.5e-12 at alpha 100.
        """
        u = np.maximum(np.asarray(u, dtype=float), _U_MIN)
        if not np.all(u < 1.0):
            raise ValueError("quantile is defined on (0, 1)")
        if self.alpha == 1.0:
            out = np.copysign(-np.log(2.0 * np.minimum(u, 1.0 - u)), u - 0.5)
        elif self.alpha == 2.0:
            out = np.copysign(np.abs(special.ndtri(u)) * math.sqrt(self.n), u - 0.5)
        else:  # u is the nudged copy made above, so it may be overwritten
            out = _power_gamma_quantile(u, self.alpha, self.scale ** (1.0 / self.alpha))
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
