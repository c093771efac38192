"""Exact tails and quantiles of remlab's energy law, for the tests.

Tails near zero energy: for each shape ``alpha`` in ``ALPHAS``, size
``n`` in ``SIZES`` and ``x = n * 10**(k/2)`` with ``k`` from -24 to -2
(``|x|`` from ``1e-12 n`` to ``0.1 n``, where the general-shape tail once
lost its precision), this computes ``P(E > x) = Q(1/alpha, x**alpha /
(alpha n**(alpha-1))) / 2`` of the double ``x``.

Quantiles: for each shape in ``QUANTILE_ALPHAS``, size ``n`` in
``QUANTILE_SIZES`` (the scale ``alpha n**(alpha-1)`` moves the
energies, not the draws) and each double ``u`` of ``uniforms()`` (deep
tails ``1.2345678 * 2**-k``, ``k`` from 2 to 53, their mirrors ``1 -
u``, and ``(1 ± 10**-j) / 2``, ``j`` from 2 to 12, next to zero
energy), this solves ``P(|E| > y) = 2 min(u, 1-u)`` for the exact
magnitude ``y`` of the energy of ``u``, and computes the exact tail
``P(E > y')`` of the double ``y'`` nearest it.

Intervals: for each shape in ``INTERVAL_ALPHAS`` and size in
``INTERVAL_SIZES``, and each per-site interval of ``intervals(alpha)``
(in the tail on either side, across 0, and at the rate edge
``(alpha log 2)**(1/alpha)``, the energy per site whose tail is about
``2**-n``), this computes the exact probability ``P(a < E < b)`` of the
doubles ``a = n * low`` and ``b = n * high``, with the exact sum ``T(|a|)
+ T(|b|)`` of the two tails it combines.

Everything is computed with mpmath at 40 digits and rounded to the
nearest double.  The rows become ``tests/tail_oracle_values.py``, which
``tests/test_environment.py`` reads, so the tests never import mpmath.

Usage, from the repository root (mpmath must be installed; remlab need
not be), rewriting ``tests/tail_oracle_values.py`` (about 11 minutes on
one core of a 2-vCPU Xeon):

    python tools/tail_oracle.py
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath

ALPHAS = (30.0, 40.0, 60.0, 100.0)
SIZES = (1, 18, 30)
STEPS = range(-24, -1)  # x = n * 10**(k/2)
QUANTILE_ALPHAS = (1.01, 1.2, 1.5, 2.0, 3.0, 7.3, 10.0, 60.0, 100.0)
QUANTILE_SIZES = (1, 18, 30)
INTERVAL_ALPHAS = (1.5, 2.0, 60.0)
INTERVAL_SIZES = (18, 30)
DIGITS = 40

TARGET = Path(__file__).resolve().parent.parent / "tests" / "tail_oracle_values.py"

HEADER = '''"""Exact tails and quantiles of the energy law, computed with mpmath at {digits} digits.

Generated by ``tools/tail_oracle.py``; rerun it rather than editing.

``TAILS`` rows are ``(alpha, n, x, tail)``: ``x`` the double nearest the
grid point and ``tail`` the exact ``P(E > x)``.

``QUANTILES`` rows are ``(alpha, n, u, magnitude, tail)``: ``magnitude``
the exact ``|E|`` of the draw ``u``, whose sign is that of ``u - 1/2``,
and ``tail`` the exact ``P(E > magnitude)`` of that double.

``INTERVALS`` rows are ``(alpha, n, low, high, probability, tails)``:
``probability`` the exact ``P(n * low < E < n * high)`` of the doubles
``n * low`` and ``n * high``, and ``tails`` the exact sum of the tails
beyond their magnitudes, ``T(|n * low|) + T(|n * high|)``.
"""

'''


def tail(alpha: float, n: int, x: float):
    """``P(E > x)`` for the double ``x >= 0``, an mpmath number."""
    alpha_, x_ = mpmath.mpf(alpha), mpmath.mpf(x)
    z = x_ ** alpha_ / (alpha_ * mpmath.mpf(n) ** (alpha_ - 1))
    return mpmath.gammainc(1 / alpha_, z, mpmath.inf, regularized=True) / 2


def exact_magnitude(alpha: float, n: int, u: float) -> float:
    """``|E|`` of the draw ``u``, the ``y`` with ``P(|E| > y) = 2 min(u, 1-u)``.

    ``P(|E| > y) = Q(1/alpha, z)`` with ``z = y**alpha / scale``.  The
    root is sought in ``w = log z``, in the log of ``Q`` where ``2 min(u,
    1-u) <= 1/2`` and otherwise in the log of ``P = 1 - Q``, which keeps
    the relative precision near zero energy: bisection down to a bracket
    of width about 1e-5, then mpmath's ``findroot``.
    """
    a = 1 / mpmath.mpf(alpha)
    q = 2 * min(mpmath.mpf(u), 1 - mpmath.mpf(u))
    if q <= 0.5:
        sign, target = 1, mpmath.log(q)  # log Q falls as w rises

        def mass(w):
            return mpmath.gammainc(a, mpmath.exp(w), mpmath.inf, regularized=True)
    else:
        sign, target = -1, mpmath.log(1 - q)  # log P rises with w

        def mass(w):
            return mpmath.gammainc(a, 0, mpmath.exp(w), regularized=True)

    def gap(w):
        return mpmath.log(mass(w)) - target

    # z from e**-10000 (P below 1e-12 at alpha 100) to e**5 (Q below 2**-54)
    lo, hi = mpmath.mpf(-10000), mpmath.mpf(5)
    for _ in range(30):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sign * gap(mid) > 0 else (lo, mid)
    w = mpmath.findroot(gap, (lo, hi), solver="anderson")
    scale = mpmath.mpf(alpha) * mpmath.mpf(n) ** (mpmath.mpf(alpha) - 1)
    return float((scale * mpmath.exp(w)) ** (1 / mpmath.mpf(alpha)))


def uniforms() -> list:
    """The draws of the quantile rows: deep tails, their mirrors, and next to 1/2."""
    deep = [1.2345678 * 2.0 ** -k for k in range(2, 54)]
    centre = [(1.0 + s * 10.0 ** -j) / 2 for j in range(2, 13) for s in (-1, 1)]
    return deep + [1.0 - u for u in deep] + centre


def intervals(alpha: float) -> list:
    """Per-site intervals: in the tail, across 0, and next to the rate edge."""
    edge = (alpha * math.log(2.0)) ** (1.0 / alpha)
    return [
        (0.3, 0.4),
        (-0.9, -0.6),
        (0.0, 1e-9),
        (-0.2, 0.3),
        (-1e-6, 1e-6),
        (-edge, edge),
        (edge - 0.01, edge),
        (edge, edge + 0.01),
        (edge * (1.0 - 1e-6), edge),
        (-edge - 0.01, -edge),
        (edge, 1.2 * edge),
    ]


def tail_rows() -> list:
    return [
        (alpha, n, x, float(tail(alpha, n, x)))
        for alpha in ALPHAS
        for n in SIZES
        for x in (n * 10.0 ** (k / 2) for k in STEPS)
    ]


def quantile_rows() -> list:
    rows = []
    for alpha in QUANTILE_ALPHAS:
        for n in QUANTILE_SIZES:
            for u in uniforms():
                y = exact_magnitude(alpha, n, u)
                rows.append((alpha, n, u, y, float(tail(alpha, n, y))))
    return rows


def interval_rows() -> list:
    rows = []
    for alpha in INTERVAL_ALPHAS:
        for n in INTERVAL_SIZES:
            for low, high in intervals(alpha):
                a, b = n * low, n * high
                t_a, t_b = tail(alpha, n, abs(a)), tail(alpha, n, abs(b))
                if a >= 0.0:
                    p = t_a - t_b
                elif b <= 0.0:
                    p = t_b - t_a
                else:
                    p = 1 - t_a - t_b
                rows.append((alpha, n, low, high, float(p), float(t_a + t_b)))
    return rows


def table(name: str, rows: list) -> str:
    return f"{name} = (\n" + "".join(f"    {row!r},\n" for row in rows) + ")\n"


def module_text() -> str:
    with mpmath.workdps(DIGITS):
        tails, quantiles, spans = tail_rows(), quantile_rows(), interval_rows()
    return HEADER.format(digits=DIGITS) + "\n".join(
        [table("TAILS", tails), table("QUANTILES", quantiles), table("INTERVALS", spans)]
    )


def main() -> None:
    TARGET.write_text(module_text(), encoding="utf-8")


if __name__ == "__main__":
    main()
