"""Exact tails of remlab's energy law near zero energy, for the tests.

For each shape ``alpha`` in ``ALPHAS``, size ``n`` in ``SIZES`` and
``x = n * 10**(k/2)`` with ``k`` from -24 to -2 (``|x|`` from ``1e-12 n``
to ``0.1 n``, where the general-shape tail once lost its precision), this
computes ``P(E > x) = Q(1/alpha, x**alpha / (alpha n**(alpha-1))) / 2`` of
the double ``x`` with mpmath at 40 digits and rounds it to the nearest
double.  The rows become ``tests/tail_oracle_values.py``, which
``tests/test_environment.py`` reads, so the tests never import mpmath.

Usage, from the repository root (mpmath must be installed; remlab need
not be), rewriting ``tests/tail_oracle_values.py``:

    python tools/tail_oracle.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath

ALPHAS = (30.0, 40.0, 60.0, 100.0)
SIZES = (1, 18, 30)
STEPS = range(-24, -1)  # x = n * 10**(k/2)
DIGITS = 40

TARGET = Path(__file__).resolve().parent.parent / "tests" / "tail_oracle_values.py"

HEADER = '''"""Exact tails ``P(E > x)`` of the energy law, computed with mpmath at {digits} digits.

Generated by ``tools/tail_oracle.py``; rerun it rather than editing.  Each
row is ``(alpha, n, x, tail)``, ``x`` and ``tail`` the doubles nearest the
grid point and the exact tail of that ``x``.
"""

TAILS = (
'''


def exact_tail(alpha: float, n: int, x: float) -> float:
    """``P(E > x)`` for the double ``x >= 0``, rounded to the nearest double."""
    alpha_, x_ = mpmath.mpf(alpha), mpmath.mpf(x)
    z = x_ ** alpha_ / (alpha_ * mpmath.mpf(n) ** (alpha_ - 1))
    return float(mpmath.gammainc(1 / alpha_, z, mpmath.inf, regularized=True) / 2)


def rows() -> list:
    with mpmath.workdps(DIGITS):
        return [
            (alpha, n, x, exact_tail(alpha, n, x))
            for alpha in ALPHAS
            for n in SIZES
            for x in (n * 10.0 ** (k / 2) for k in STEPS)
        ]


def module_text() -> str:
    body = "".join(f"    {row!r},\n" for row in rows())
    return HEADER.format(digits=DIGITS) + body + ")\n"


def main() -> None:
    TARGET.write_text(module_text(), encoding="utf-8")


if __name__ == "__main__":
    main()
