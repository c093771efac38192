"""Poisson-Dirichlet machinery: point-process and stick-breaking samplers.

PD(m, 0) for m in (0, 1) arises here in two independent ways.  For
beta = 1/m > 1, normalizing ``exp(beta*c_i)`` over the points ``c_i``
of a Poisson process with intensity ``exp(-x) dx`` on the line gives a
PD(m, 0) weight sequence, so ``sample_pd_poisson`` takes beta and
nothing that restates m.  The stick-breaking (GEM) construction draws
residual fractions ``V_i ~ Beta(1-m, i*m)`` and size-biased weights
``V_i * prod_{j<i}(1 - V_j)``; sorted descending, they have the same
law.  A ``WeightSequence`` holds nonnegative weights of total mass at
most one in any order: the samplers return theirs in draw order (the
first window, then each deeper slab; the sticks as broken), because
what is read of a draw, its largest weight and its sum of squares,
needs no sort.  The samplers take plain values and have no defaults; a
manifest's ``pd`` block holds those.

A finite window can only enumerate the top of the point process: below
any truncation level an exponentially growing swarm of microscopic
points carries real mass (a fraction approaching one as m -> 1).  The
sampler extends the window downward until the newly observed relative
mass drops below ``epsilon_mass`` and the fluctuation of the unseen
remainder is below the same threshold, then folds the exact conditional
mean of the unseen mass into the normalizer.  Enumerated weights are
unbiased at ``epsilon_mass`` resolution even when the mass they miss
from one (the estimated unseen mass) is itself large.
``check_point_budget`` runs the same rule on the expected slab masses,
so a manifest whose window would outgrow the point budget is rejected
before any point is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_WINDOW_POINTS = 1 << 26
# The lowest truncation level: its first window expects MAX_WINDOW_POINTS points.
MIN_TRUNCATION_B = -math.log(MAX_WINDOW_POINTS)
# The top point's 1e-6 lower quantile: P(max < c) = exp(-exp(-c)) = 1e-6
_LOW_TOP = -math.log(math.log(1e6))


@dataclass(frozen=True)
class WeightSequence:
    """Finite nonnegative weights with total mass at most one, in any order.

    The PD samplers' draws (in draw order) and the engine's Gibbs spectra
    (descending) are both one.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("entries must be a nonempty 1-d array")
        # A NaN makes the minimum NaN, which fails the comparison; once every
        # entry is >= 0, an infinite one makes the sum infinite.
        if not (w.min() >= 0.0 and math.isfinite(total := float(w.sum()))):
            raise ValueError("entries must be finite and nonnegative")
        if total > 1.0 + 1e-9:
            raise ValueError("entries must sum to at most 1")


def sample_poisson_points(b: float, rng: np.random.Generator) -> np.ndarray:
    """Points of the intensity ``exp(-x)`` process on ``[b, inf)``, descending.

    The mean measure of ``[b, inf)`` is ``exp(-b)``, and given the
    count the points are i.i.d. ``b`` plus a unit exponential.
    """
    count = int(rng.poisson(math.exp(-b)))
    pts = b + rng.standard_exponential(count)
    return np.sort(pts)[::-1]


def _weights(logs: np.ndarray, beta: float, cmax: float) -> np.ndarray:
    """``exp(beta * (c - cmax))`` of the points ``c = -logs``, written over ``logs``.

    Computed as ``exp((logs + cmax) * -beta)``: ``(-x) - cmax == -(x + cmax)``
    and ``(-x) * beta == x * -beta`` hold exactly, so the floats are those
    of the points themselves.
    """
    logs += cmax
    logs *= -beta
    return np.exp(logs, out=logs)


def _slab(lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """``L = log(exp(-lo) - u * mass)`` of each point ``c = -L`` of the process on ``(lo, hi]``.

    The restriction to ``(lo, hi]`` is independent of all other slabs.
    Every step runs in place on the uniforms.
    """
    top = math.exp(-lo)
    mass = top - math.exp(-hi)
    if mass > MAX_WINDOW_POINTS:
        raise RuntimeError(
            "point budget exhausted while refining the truncation window; "
            "raise epsilon_mass"
        )
    out = rng.random(int(rng.poisson(mass)))
    out *= mass
    np.subtract(top, out, out=out)
    return np.log(out, out=out)


def _stops(beta: float, b: float, cmax: float, mass: float, added: float, eps: float) -> bool:
    """The stopping rule: the last slab added and the unseen tail's spread are within ``eps``.

    ``mass`` is the weight seen above ``b`` and ``added`` the last slab's
    share of it, both in units of the top point's weight ``exp(beta*cmax)``.
    """
    sd_tail = math.exp(0.5 * (2.0 * beta - 1.0) * b - beta * cmax) / math.sqrt(2.0 * beta - 1.0)
    return added <= eps * mass and sd_tail <= eps * mass


def check_point_budget(beta: float, truncation_b: float, epsilon_mass: float) -> None:
    """Raise ``ValueError`` where ``sample_pd_poisson``'s window may outgrow the point budget.

    Runs the stopping rule on the expected slab masses with the top point
    at ``_LOW_TOP``, its 1e-6 lower quantile, where a draw's window
    reaches deeper than for a typical top point: the first window is the
    one of ``truncation_b`` stepped down a unit at a time to hold the top
    point, and each slab ``(b-1, b]`` adds its mean mass
    ``exp((beta-1)*b) * (1 - exp(1-beta)) / (beta-1)``, divided by the
    top point's weight ``exp(beta*top)``.  The window must stop above
    ``MIN_TRUNCATION_B``, so that it draws slabs of fewer than
    ``MAX_WINDOW_POINTS`` expected points each.
    """
    g, top = beta - 1.0, _LOW_TOP
    b = truncation_b - max(0, math.ceil(truncation_b - top))
    # the top point and the mean mass of [b, top), both in units of its weight
    mass = 1.0 - math.exp(-top) * math.expm1(g * (b - top)) / g
    added = math.inf
    while b > MIN_TRUNCATION_B:
        if _stops(beta, b, top, mass, added, epsilon_mass):
            return
        added = -math.exp(g * b - beta * top) * math.expm1(-g) / g
        mass += added
        b -= 1.0
    raise ValueError(
        f"{epsilon_mass!r} at beta={beta} and truncation_b={truncation_b} extends the "
        f"window of a low top point below {MIN_TRUNCATION_B:.4f}, past slabs of "
        f"{MAX_WINDOW_POINTS} points; raise epsilon_mass"
    )


def sample_pd_poisson(
    beta: float, truncation_b: float, epsilon_mass: float, rng: np.random.Generator
) -> WeightSequence:
    """PD(1/beta, 0) weights from a truncated intensity ``exp(-x)`` process.

    Requires ``beta > 1``, otherwise the total weight diverges.  The
    window starts at ``truncation_b`` and is extended downward a unit at
    a time; ``epsilon_mass`` in (0, 1) bounds both the relative mass a
    step may still add and the relative uncertainty the unseen tail
    leaves in the weights (see the module docstring for the stopping rule
    and the unseen mass).
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 1.0:
        raise ValueError(f"the construction needs beta > 1, got {beta!r}")
    b, eps = float(truncation_b), float(epsilon_mass)
    if not (math.isfinite(b) and b >= MIN_TRUNCATION_B):
        raise ValueError(
            f"truncation_b must be finite and >= {MIN_TRUNCATION_B:.4f}, where the first "
            f"window expects {MAX_WINDOW_POINTS} points; got {truncation_b!r}"
        )
    if not (math.isfinite(eps) and 0.0 < eps < 1.0):
        raise ValueError(f"epsilon_mass must lie in (0, 1), got {epsilon_mass!r}")

    logs = -sample_poisson_points(b, rng)
    while logs.size == 0:
        # probability exp(-exp(-b)) of an empty window: extend and redraw
        # only the increment slab, preserving the restriction property
        logs = _slab(b - 1.0, b, rng)
        b -= 1.0
    cmax = -float(logs.min())
    # each slab's unnormalized weights, computed once: the stopping rule sums
    # them and the normalized sequence is built from them
    chunks = [_weights(logs, beta, cmax)]
    mass = float(chunks[0].sum())
    added = math.inf
    while not _stops(beta, b, cmax, mass, added, eps):
        chunks.append(_weights(_slab(b - 1.0, b, rng), beta, cmax))
        b -= 1.0
        added = float(chunks[-1].sum())
        mass += added
    # exact conditional mean of the mass below b, in the cmax-shifted units
    mean_tail = math.exp((beta - 1.0) * b - beta * cmax) / (beta - 1.0)
    w = np.concatenate(chunks)
    w /= mass + mean_tail
    if w.min() == 0.0:  # weights that underflowed to 0
        w = w[w > 0.0]
    return WeightSequence(w)


def sample_pd_stick(m: float, length: int, rng: np.random.Generator) -> WeightSequence:
    """PD(m, 0) via stick breaking: the first ``length`` sticks, in the order broken.

    Residual fractions are ``Beta(1-m, i*m)`` variates built from two
    Gamma draws; the sticks miss the product of the leftovers from one.
    """
    m = float(m)
    if not (math.isfinite(m) and 0.0 < m < 1.0):
        raise ValueError(f"m must lie in (0, 1), got {m!r}")
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise ValueError(f"length must be an integer >= 1, got {length!r}")
    g1 = rng.gamma(1.0 - m, size=length)
    g2 = rng.gamma(m * np.arange(1, length + 1))
    v = g1 / (g1 + g2)
    leftover = np.cumprod(1.0 - v)
    w = v * np.concatenate(([1.0], leftover[:-1]))
    return WeightSequence(w)
