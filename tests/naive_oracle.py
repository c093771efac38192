"""Brute-force references, used only by tests.

``naive_replica`` materializes the entire energy field and leans on
scipy's logsumexp and softmax, so it shares no accumulation strategy
with the streaming engine: no chunking, no ground-state shift, different
reduction order.  ``normalizing_constant``, ``density`` and ``cdf`` are
the exact closed forms of an ``Environment``'s law, the oracles for its
quantile.
"""

import math

import numpy as np
from scipy.special import logsumexp, softmax

from remlab.engine import energy_block
from remlab.theory import shift_constant


def naive_replica(spec, energies=None):
    """All ReplicaResult fields computed the slow, obvious way."""
    if energies is None:
        energies = energy_block(spec, 0, spec.size)
    e = np.asarray(energies, dtype=float)
    n = spec.n
    idx = np.arange(spec.size)
    out = {
        "min_energy": float(np.min(e)),
        "log_z": {},
        "marginal": {},
        "spectrum": {},
        "interval_hits": {},
        "exceedance": {},
    }
    for beta in spec.betas:
        logw = -beta * e
        out["log_z"][beta] = float(logsumexp(logw))
        g = softmax(logw)
        k = spec.k_marginal
        marg = np.array(
            [float(g[(idx & ((1 << k) - 1)) == p].sum()) for p in range(1 << k)]
        )
        out["marginal"][beta] = marg
        w = np.sort(g)[::-1][: spec.top_m]
        w = w[w > 0]
        out["spectrum"][beta] = (w, max(0.0, 1.0 - float(w.sum())))
    for a, b in spec.intervals:
        out["interval_hits"][(a, b)] = int(np.sum((e / n > a) & (e / n < b)))
    shift = shift_constant(n)
    for b in spec.b_levels:
        positions = -(e + shift)
        out["exceedance"][b] = positions[positions >= b]
    return out


def normalizing_constant(env) -> float:
    """Value of the density at zero.

    Equals ``(alpha/n)**((alpha-1)/alpha) / (2*Gamma(1/alpha))``;
    1/2 for the double exponential, ``1/sqrt(2*pi*n)`` for the
    Gaussian.
    """
    a = env.alpha
    return (a / env.n) ** ((a - 1.0) / a) / (2.0 * math.gamma(1.0 / a))


def density(env, x):
    """Probability density at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    out = normalizing_constant(env) * np.exp(-np.abs(x) ** env.alpha / env.scale)
    return out if out.ndim else float(out)


def cdf(env, x):
    """P(energy <= x), exact for every shape.

    ``cdf(x) + cdf(-x) == 1`` by symmetry of the density.
    """
    x = np.asarray(x, dtype=float)
    half = env.tail_probability(np.abs(x))
    out = np.where(x <= 0, half, 1.0 - half)
    return out if out.ndim else float(out)
