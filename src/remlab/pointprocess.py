"""Poisson-Dirichlet machinery: point-process and stick-breaking samplers.

PD(m, 0) for m in (0, 1) arises here in two independent ways.  For
beta = 1/m > 1, normalizing ``exp(beta*c_i)`` over the points ``c_i``
of a Poisson process with intensity ``exp(-x) dx`` on the line gives a
PD(m, 0) weight sequence.  The stick-breaking (GEM) construction draws
residual fractions ``V_i ~ Beta(1-m, i*m)`` and size-biased weights
``V_i * prod_{j<i}(1 - V_j)``; sorted descending, they have the same
law.  Sequences live in the space of nonincreasing nonnegative
sequences with total mass at most one.

A finite window can only enumerate the top of the point process: below
any truncation level an exponentially growing swarm of microscopic
points carries real mass (a fraction approaching one as m -> 1).  The
sampler extends the window downward until the newly observed relative
mass drops below ``epsilon_mass`` and the fluctuation of the unseen
remainder is below the same threshold, then folds the exact conditional
mean of the unseen mass into the normalizer.  Enumerated weights are
unbiased at ``epsilon_mass`` resolution even when the reported deficit
(the estimated unseen mass) is itself large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_WINDOW_POINTS = 1 << 26


@dataclass(frozen=True)
class WeightSequence:
    """Nonincreasing nonnegative weights with total mass at most one.

    The PD samplers' draws and the engine's Gibbs spectra are both one.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("entries must be a nonempty 1-d array")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("entries must be finite and nonnegative")
        if np.any(np.diff(w) > 0.0):
            raise ValueError("entries must be nonincreasing")
        if float(w.sum()) > 1.0 + 1e-9:
            raise ValueError("entries must sum to at most 1")

    @property
    def deficit(self) -> float:
        """Mass missing from one: truncated tail, unseen points or weights past the pool."""
        return max(0.0, 1.0 - float(self.entries.sum()))


@dataclass(frozen=True)
class PDParams:
    """Knobs of the point-process construction of PD(m, 0).

    ``truncation_b`` is the initial lower edge of the observation
    window; ``epsilon_mass`` bounds both the relative mass a refinement
    step may still add and the relative uncertainty the unseen tail
    leaves in the reported weights.
    """

    m: float
    truncation_b: float = 0.0
    epsilon_mass: float = 1e-6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and 0.0 < self.m < 1.0):
            raise ValueError(f"m must lie in (0, 1), got {self.m!r}")
        if not math.isfinite(self.truncation_b):
            raise ValueError(f"truncation_b must be finite, got {self.truncation_b!r}")
        if not (math.isfinite(self.epsilon_mass) and 0.0 < self.epsilon_mass < 1.0):
            raise ValueError(f"epsilon_mass must lie in (0, 1), got {self.epsilon_mass!r}")


def sample_poisson_points(params: PDParams, rng: np.random.Generator) -> np.ndarray:
    """Points of the intensity ``exp(-x)`` process on ``[b, inf)``, descending.

    The mean measure of ``[b, inf)`` is ``exp(-b)``, and given the
    count the points are i.i.d. ``b`` plus a unit exponential.
    """
    b = float(params.truncation_b)
    count = int(rng.poisson(math.exp(-b)))
    pts = b + rng.standard_exponential(count)
    return np.sort(pts)[::-1]


def _slab_points(lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    # restriction of the process to (lo, hi]; independent of all other slabs
    mass = math.exp(-lo) - math.exp(-hi)
    if mass > MAX_WINDOW_POINTS:
        raise RuntimeError(
            "point budget exhausted while refining the truncation window; "
            "raise epsilon_mass"
        )
    count = int(rng.poisson(mass))
    pts = rng.random(count)
    pts *= mass
    np.subtract(math.exp(-lo), pts, out=pts)
    np.log(pts, out=pts)
    return np.negative(pts, out=pts)


def _weights(pts: np.ndarray, beta: float, cmax: float) -> np.ndarray:
    # exp(beta * (pts - cmax)), written over pts
    pts -= cmax
    pts *= beta
    return np.exp(pts, out=pts)


def sample_pd_poisson(beta: float, params: PDParams, rng: np.random.Generator) -> WeightSequence:
    """PD(1/beta, 0) weights from a truncated intensity ``exp(-x)`` process.

    Requires ``beta > 1`` (otherwise the total weight diverges) and
    ``params.m == 1/beta``.  The window starts at ``params.truncation_b``
    and is extended downward a unit at a time; see the module docstring
    for the stopping rule and the role of the deficit.
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 1.0:
        raise ValueError(f"the construction needs beta > 1, got {beta!r}")
    if abs(params.m * beta - 1.0) > 1e-9:
        raise ValueError(f"params.m must equal 1/beta, got m={params.m}, beta={beta}")
    eps = params.epsilon_mass

    b = float(params.truncation_b)
    pts = sample_poisson_points(params, rng)
    while pts.size == 0:
        # probability exp(-exp(-b)) of an empty window: extend and redraw
        # only the increment slab, preserving the restriction property
        pts = _slab_points(b - 1.0, b, rng)
        b -= 1.0
    cmax = float(pts.max())
    # each slab's unnormalized weights, computed once: the stopping rule sums
    # them and the normalized sequence is built from them
    chunks = [_weights(pts, beta, cmax)]
    mass = float(chunks[0].sum())
    added = math.inf
    while True:
        sd_tail = math.exp(0.5 * (2.0 * beta - 1.0) * b - beta * cmax) / math.sqrt(
            2.0 * beta - 1.0
        )
        if added <= eps * mass and sd_tail <= eps * mass:
            break
        inc = _slab_points(b - 1.0, b, rng)
        b -= 1.0
        chunks.append(_weights(inc, beta, cmax))
        added = float(chunks[-1].sum())
        mass += added
    # exact conditional mean of the mass below b, in the cmax-shifted units
    mean_tail = math.exp((beta - 1.0) * b - beta * cmax) / (beta - 1.0)
    w = np.concatenate(chunks)
    w /= mass + mean_tail
    w[::-1].sort()  # descending, in place
    # weights that underflowed to 0 sort last; drop them
    return WeightSequence(w[: np.count_nonzero(w)])


def sample_pd_stick(m: float, length: int, rng: np.random.Generator) -> WeightSequence:
    """PD(m, 0) via stick breaking: first ``length`` sticks, sorted.

    Residual fractions are ``Beta(1-m, i*m)`` variates built from two
    Gamma draws; the undistributed product of leftovers is the deficit.
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
    return WeightSequence(np.sort(w)[::-1])
