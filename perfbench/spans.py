"""Spans around calls into remlab's layers, recorded from outside remlab.

``traced(tracer)`` replaces each layer's public function at the place its
caller looks it up (for example ``remlab.engine.uniform_block``, which
``energy_block`` calls) with a wrapper that records a span, and puts the
originals back on exit.  Spans stay in memory; self times and per-layer
totals are computed from them afterwards.  Single-threaded use only: the
traced run is in-process at workers=1.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    items: int  # work done: uniforms or energies produced, 0 where not counted


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count_items: bool = False):
        def traced_call(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, 0)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = time.perf_counter()
            if count_items:
                span.items = len(out)
            return out

        return traced_call

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, summed self time, summed items, durations."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "items": 0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["items"] += span.items
            entry["durations"].append(span.end - span.start)
        return out


def wrapper_cost_s(calls: int = 20000) -> float:
    """Time one traced call adds to a direct call, measured on a no-op."""

    def noop():
        return ()

    wrapped = Tracer().wrap("calibration", noop, count_items=True)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


# (module or class, attribute looked up by the caller, span name, count items)
def _call_sites():
    import remlab.engine
    import remlab.environment
    import remlab.experiments

    exp = remlab.experiments
    return [
        (remlab.engine, "uniform_block", "rng.uniform_block", True),
        (remlab.environment.Environment, "quantile", "environment.quantile", False),
        (remlab.engine, "energy_block", "engine.energy_block", True),
        (exp, "run_replica", "engine.run_replica", False),
        (exp, "sample_pd_poisson", "pointprocess.sample_pd_poisson", False),
        (exp, "sample_pd_stick", "pointprocess.sample_pd_stick", False),
        (exp, "ks_two_sample", "stats.ks_two_sample", False),
        (exp, "ks_one_sample", "stats.ks_one_sample", False),
        (exp, "chi_square_gof", "stats.chi_square_gof", False),
    ]


@contextmanager
def traced(tracer: Tracer):
    sites = _call_sites()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in sites]
    try:
        for (owner, attr, name, count), (_, _, fn) in zip(sites, originals):
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
