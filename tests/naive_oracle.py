"""Brute-force reference for small replicas, used only by tests.

Materializes the entire energy field and leans on scipy's logsumexp and
softmax, so it shares no accumulation strategy with the streaming
engine: no chunking, no ground-state shift, different reduction order.
"""

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
