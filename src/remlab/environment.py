"""Exponential-type energy environments.

An environment is the law of a single configuration energy: a symmetric
density on the real line proportional to ``exp(-|x|**alpha / (alpha *
n**(alpha-1)))`` with shape ``alpha`` in [1, 100] and system size ``n``.
``alpha = 1`` is the double exponential with density ``exp(-|x|)/2``
(independent of ``n``); ``alpha = 2`` is the centered Gaussian with
variance ``n``.  The ``n``-dependent scaling keeps the free energy per
site of a system with ``2**n`` independent energies at a nontrivial
limit for every shape.

The tail probabilities are exact closed forms.  For general ``alpha``
the absolute value of an energy is a powered Gamma variate, so the tail
reduces to the regularized incomplete gamma function (near zero energy,
where its argument underflows, to the first term of its series), within
a relative 1e-12 at every ``alpha``.  The quantile is
a closed form at ``alpha`` 1 and 2; for other shapes it evaluates a
per-``alpha`` table of polynomials, accurate to a relative 1e-13 in the
energy (tested at alpha 1.01 to 100) and 1e-12 in the tail probability
it inverts (tested at alpha 1.01 to 60; see ``Environment.quantile``).
From those bounds ``Environment.uniform_window`` gives, around any
energy, the uniforms outside of which the quantile falls on a known
side of it.

Only ``alpha = 1`` needs nothing beyond numpy.  Every other shape takes
its tails, and its quantile at ``alpha = 2`` or its table otherwise,
from ``scipy.special``, which is imported when such an environment is
built, so that an ``alpha = 1`` run never pays its import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# The largest shape accepted: the quantile's tolerances are tested up to it,
# and the scale alpha * n**(alpha - 1) stays a finite float for every n <= 30
# (at alpha 500 and n 8 it overflows).
MAX_ALPHA = 100.0

# Draws of exactly 0 are nudged to this, below the smallest positive
# value ``random()`` can produce, so every energy is finite.
_U_MIN = 2.0 ** -54

# Relative half-width of ``Environment.uniform_window`` on the tail-mass
# scale.  The errors it must cover sum to under 3e-12 (see there); the
# window is wider by a factor of over 300, so that error bounds which were
# tested, not proven, still hold with room, and costs only the quantile of
# about a 1e-9 share of the draws near each cut.
_WINDOW = 1e-9

# Layout of the general-alpha quantile table.  Its input is the tail mass
# q = 2 min(u, 1-u) for q <= 1/2 and the centre mass |2u - 1| = 1 - q
# otherwise, so it lies in {0} and [2**-53, 1/2], frexp exponents 0 down
# to -52.  Each of those binades is cut into _PIECES equal sub-intervals
# of the mantissa, and each sub-interval holds a polynomial of degree
# _DEGREE in the local coordinate t in [0, 1).
_PIECES = 8
_DEGREE = 10
_BINADES = 1 - math.frexp(2.0 * _U_MIN)[1]


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
    from scipy import special

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

    For ``u`` in [2**-54, 1).  The result is written over ``u``.  The
    temporaries are the size of ``u``; ``engine.energy_block`` passes
    blocks small enough for them to stay in the caches.
    """
    table = _power_gamma_table(alpha)
    v = u.reshape(-1)
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
    return v.reshape(u.shape)


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
        if alpha != 1.0:
            # Load scipy.special, and for a general shape build the quantile
            # table, now and not on the first draw: pool workers forked after
            # this inherit both.  The pool is kept across runs, so
            # workers forked before an alpha is first seen load what it needs
            # and build its table once each, on their first task of it.
            from scipy import special  # noqa: F401

            if alpha != 2.0:
                _power_gamma_table(alpha)

    @property
    def scale(self) -> float:
        """Denominator ``alpha * n**(alpha-1)`` of the density exponent."""
        return self.alpha * float(self.n) ** (self.alpha - 1.0)

    def tail_probability(self, x):
        """P(energy > x) for ``x >= 0``, computed without cancellation.

        Exact closed form: ``exp(-x)/2`` at alpha=1, the Gaussian upper
        tail at alpha=2, and half the complementary regularized
        incomplete gamma in general, or the first term of its series in
        ``x`` where its argument ``x**alpha / scale`` is subnormal or 0
        (near 0, from alpha about 30 on).  Small values stay fully
        accurate, which the interval bounds in the tests rely on.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("tail_probability is defined for x >= 0")
        if self.alpha == 1.0:
            out = 0.5 * np.exp(-x)
        elif self.alpha == 2.0:
            from scipy import special

            out = special.ndtr(-x / math.sqrt(self.n))
        else:
            from scipy import special

            a = 1.0 / self.alpha
            with np.errstate(over="ignore"):  # a power past the float range: the tail is 0
                z = x ** self.alpha / self.scale
            # the lower tail is P(a, z) = z**a / Gamma(1 + a) (1 + O(z)) as z -> 0
            series = 0.5 - 0.5 * (x / self.scale ** a) / math.gamma(1.0 + a)
            out = np.where(z < 2.0 ** -1022, series, 0.5 * special.gammaincc(a, z))
        return out if out.ndim else float(out)

    def quantile(self, u, out=None):
        """Inverse cdf on (0, 1); the transform used for keyed streams.

        Vectorized, and elementwise: the energy of a draw does not depend
        on the other draws passed with it.  Draws of exactly 0 are nudged
        to 2**-54 (below the smallest positive value ``random()`` can
        produce) so the output is always finite.  With ``out``, a
        C-contiguous array of ``u``'s shape (it may be ``u`` itself), the
        energies are written there.

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
        u = np.asarray(u, dtype=float)
        if not np.all(u < 1.0):
            raise ValueError("quantile is defined on (0, 1)")
        v = np.maximum(u, _U_MIN, out=np.empty(u.shape) if out is None else out)
        # copysign takes only the magnitude of its first argument
        if self.alpha == 1.0:
            t = np.subtract(1.0, v, out=np.empty_like(v))
            np.minimum(v, t, out=t)
            t *= 2.0
            np.log(t, out=t)  # -log(2 min(u, 1-u)) up to sign
            np.copysign(t, v - 0.5, out=v)
        elif self.alpha == 2.0:
            from scipy import special

            # ndtri carries the sign of u - 1/2 and gives +0.0 at u = 1/2
            special.ndtri(v, out=v)
            v *= math.sqrt(self.n)
        else:
            v = _power_gamma_quantile(v, self.alpha, self.scale ** (1.0 / self.alpha))
        return v if v.ndim else float(v)

    def uniform_window(self, x: float) -> tuple[float, float]:
        """Uniforms ``(lo, hi)`` around the draws whose energy may lie on either side of ``x``.

        Every draw ``u < lo`` has ``quantile(u) < x`` and every draw
        ``u > hi`` has ``quantile(u) > x``, so a count of the energies
        below ``x`` needs the quantile only of the draws in ``[lo, hi]``.
        ``x`` may be infinite.

        Proof.  Let ``T`` be the exact tail ``P(E > y)``, strictly
        decreasing where positive, and ``p = min(u, 1-u)`` the tail mass
        of a draw (``u = 0`` counts as 2**-54, as ``quantile`` nudges it;
        ``1 - u`` is exact for ``u >= 1/2``).  ``quantile(u)`` is negative
        for ``u < 1/2`` and nonnegative otherwise, and its magnitude ``y``
        has ``T(y) = p (1 + eta)`` with ``|eta| <= 1.5e-12`` (the bound
        stated in ``quantile``; the closed forms at alpha 1 and 2 are
        within 1e-13).  ``tail_probability`` returns ``m = T(|x|) (1 +
        tau)`` with ``|tau| <= 1e-12`` wherever ``m`` is normal, at every
        alpha: its argument and the function each carry a few ulps,
        magnified by at most the log of the tail mass, or near ``x = 0``
        its series term misses by ``O(2**-1022)``.  With ``w = 1e-9``, wider
        than ``eta + tau`` and the roundings of this method together:

        - ``x <= 0``: ``lo = m (1 - w)`` and ``hi = m (1 + w)``.  A draw
          below ``lo`` has ``T(y) <= p (1 + eta) < T(|x|)``, so ``y > |x|``
          and its negative energy lies below ``x``.  A draw above ``hi``
          either has ``u >= 1/2`` (energy ``>= 0 >= x``; when ``x = 0``,
          ``hi > 1/2`` and ``T(y) < 1/2`` make it positive) or ``T(y) >=
          p (1 - eta) > T(|x|)``, so ``y < |x|`` and its energy lies above
          ``x``.  Where ``lo <= 2**-54`` it is set to 0, so a draw of 0
          is placed by its energy.
        - ``x > 0``: the mirror image on ``1 - u``: ``lo = 1 - m (1 + w)``
          and ``hi = 1 - m (1 - w)``, each rounded outward.

        Where ``m`` is below 2**-60, subnormal or 0 (``x`` beyond every
        draw), no relative accuracy is needed: every draw outside the
        window has a tail mass of at least 2**-53, far above ``T(|x|)``.
        """
        m = float(self.tail_probability(abs(x)))
        if x <= 0.0:
            lo = m * (1.0 - _WINDOW)
            return (lo if lo > _U_MIN else 0.0), m * (1.0 + _WINDOW)
        lo = math.nextafter(1.0 - m * (1.0 + _WINDOW), 0.0)
        return lo, math.nextafter(1.0 - m * (1.0 - _WINDOW), 2.0)

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
