"""Statistical test kit: the statistic and p-value of each test of a limit law.

Kolmogorov-Smirnov statistics are computed from order statistics here;
only the limiting null laws come from ``scipy.special``: ``kolmogorov``,
and ``chdtrc``, which is what ``scipy.stats.chi2.sf`` calls.
``scipy.stats`` itself is not imported, as it would more than double the
package's import time.  Each test imports ``scipy.special`` when it runs,
so a run without a KS or chi-square test at ``alpha = 1`` never loads it.
All p-values are asymptotic, which every caller in this package can
afford: acceptance sample sizes start in the hundreds.  A test returns
no verdict: ``experiments._evaluate`` compares a level check's p-value
with its level (``DEFAULT_LEVEL`` unless the manifest sets one), and a
check with a bound on the statistic decides itself.  That default is
deliberately small so a full verification run has a low false-alarm
rate; the verification harness additionally retries a failed
statistical check once on a fresh derived seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_LEVEL = 0.001
MIN_EXPECTED = 5.0  # the smallest expected count a chi-square bin may hold


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test.

    ``sample_sizes`` is (n1, n2) for two-sample tests, (n, 0) for
    one-sample tests, and (total count, bins) for chi-square.
    """

    statistic: float
    p_value: float
    sample_sizes: tuple[int, int]

    __test__ = False  # not a pytest collection target

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must lie in [0, 1], got {self.p_value}")


def ks_two_sample(xs, ys) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    n1, n2 = xs.size, ys.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([xs, ys])
    ecdf1 = np.searchsorted(xs, grid, side="right") / n1
    ecdf2 = np.searchsorted(ys, grid, side="right") / n2
    d = float(np.max(np.abs(ecdf1 - ecdf2)))
    en = n1 * n2 / (n1 + n2)
    from scipy import special

    p = float(special.kolmogorov(math.sqrt(en) * d))
    return TestReport(d, p, (n1, n2))


def ks_one_sample(xs, cdf) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a callable cdf."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("sample must be nonempty")
    f = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - f))
    d_minus = float(np.max(f - (steps - 1.0 / n)))
    d = max(d_plus, d_minus)
    from scipy import special

    p = float(special.kolmogorov(math.sqrt(n) * d))
    return TestReport(d, p, (n, 0))


def pool_right_tail(expected) -> list:
    """``expected`` counts, pooled from the right until the last bin reaches ``MIN_EXPECTED``.

    Fewer than two bins left, or a thin bin before the tail, is an error.
    """
    pooled = [float(e) for e in expected]
    while len(pooled) > 1 and pooled[-1] < MIN_EXPECTED:
        tail = pooled.pop()
        pooled[-1] += tail
    if len(pooled) < 2 or min(pooled) < MIN_EXPECTED:
        raise ValueError(
            f"{len(pooled)} bins after pooling the right tail, the thinnest expecting "
            f"{min(pooled):.3g}; a chi-square test needs >= 2 bins expecting >= {MIN_EXPECTED:g}"
        )
    return pooled


def chi_square_gof(observed, expected_probs) -> TestReport:
    """Pearson goodness-of-fit test with right-tail pooling.

    ``observed`` are counts per category; ``expected_probs`` must sum to
    one.  Expected counts are pooled by ``pool_right_tail``, observed
    counts into the same bins.
    """
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.ndim != 1 or obs.size != probs.size or obs.size < 2:
        raise ValueError("observed and expected_probs must be 1-d of equal length >= 2")
    if np.any(obs < 0) or np.any(probs < 0):
        raise ValueError("counts and probabilities must be nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError("expected_probs must sum to 1")
    total = float(obs.sum())
    expected = np.array(pool_right_tail(probs * total))
    bins = expected.size
    obs = np.append(obs[: bins - 1], obs[bins - 1 :].sum())
    statistic = float(np.sum((obs - expected) ** 2 / expected))
    from scipy import special

    p = float(special.chdtrc(bins - 1, statistic))
    return TestReport(statistic, p, (int(round(total)), bins))
