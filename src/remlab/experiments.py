"""Experiment runners: manifest in, artifact bundle out.

Each experiment type emits results.csv, theory.csv (matching closed-form
values on the same grid), the manifest it ran (``to_json()``, its check
parameters resolved by the parser), and summary.json with a pass/fail
record per attached check.  Exceedance runs additionally emit
positions.csv.

``REGISTRY`` declares each experiment type once, in one table: the
manifest fields it reads, the keyed draws it needs besides its replicas,
how the results become tables, and its checks with their parameters.
The manifest parser validates against it, and ``run_experiment`` runs
every type the same way: one task map runs each replica and draw as a
call, here or in one pool, and returns the results in id order.

Determinism contract: every random quantity is derived from
(master_seed, replica or draw id, stream label) through the keyed
counter-based generator, and aggregation happens in id order, so the
CSVs and manifest.json are byte-identical for any worker count and
output directory.  Floats are written in shortest round-trip decimal
form; timestamps appear only in summary.json.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import itertools
import json
import math
import os
import platform
import threading
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy

from . import __version__
from .engine import (
    ReplicaResult,
    ReplicaSpec,
    chunks,
    finish,
    fold,
    free_energy,
    rate_estimate,
    run_replica,
    summarize,
)
from .environment import Environment
from .pointprocess import sample_pd_poisson, sample_pd_stick
from .rng import ENERGY_STREAM, POISSON_STREAM, STICK_STREAM, stream_generator
from .stats import DEFAULT_LEVEL, chi_square_gof, ks_one_sample, ks_two_sample
from .theory import (
    LOG2,
    critical_beta,
    free_energy_limit,
    poisson_count_pmf,
    poisson_count_probs,
    rate_function,
)

if TYPE_CHECKING:
    from .manifest import ExperimentManifest


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict


@dataclass(frozen=True)
class RunOutcome:
    manifest: ExperimentManifest
    output_dir: Path
    checks: tuple
    passed: bool


@dataclass(frozen=True)
class Check:
    """One check: ``evaluate(manifest, data, **params) -> (passed, report, measured)``.

    ``data`` is what the experiment's ``build`` returned, ``report`` the
    ``stats.TestReport`` the check ran or None, and ``measured`` the other
    numbers it measured.  A level test declares ``level`` as ``_LEVEL``, is
    not passed it and returns ``passed`` None: ``_evaluate`` decides
    ``p_value > level``, and writes every detail as the resolved parameters,
    the report's fields, ``measured`` and ``master_seed``.  ``params`` maps
    each parameter, in manifest order, to ``(kind, default)`` with a kind
    of ``remlab.manifest.KINDS``: a default of ``...`` makes it required,
    and a callable default is called with the manifest's fields as a dict.
    ``label`` formats the parameters into a suffix of the check's name;
    ``needs`` is ``(field, least)``: the check needs ``least`` or more of
    a manifest list (its length) or of a ``pd`` count (``"pd.<count>"``).
    """

    evaluate: Callable
    params: dict
    label: str = ""
    needs: tuple = ()


def _whole(result: ReplicaResult) -> ReplicaResult:
    return result


@dataclass(frozen=True)
class Experiment:
    """One experiment type: the manifest fields it reads, its tables, checks and draws.

    ``fields`` maps each field read to whether a value other than its
    default is required, or to a kind narrower than the field's own, such
    as ``"alpha": "double_exponential"`` for a law derived at ``alpha = 1``
    only.  The parser rejects a value other than the default in a field
    that only other experiments read; ``top_m`` reaches the engine only
    where it is listed.  ``draws(manifest)`` gives ``{sample: [call]}``,
    calls of ``_draw`` submitted in the dict's order; it runs inside
    ``run_experiment``, so a sampler patched here before the run (as
    perfbench's spans do) is the one its calls hold where they run in
    this process.  A pool worker holds the modules as they were when the
    pool forked, at the first pooled call, and a later patch does not
    reach it.  ``keep(result)`` is what the experiment keeps of each
    ``ReplicaResult``, computed in the process that finished the replica,
    so a pool sends back no more: ``pd_compare``'s replicas, like its
    draws, send back ``(w1, sumsq)`` of their Gibbs spectrum.
    ``build(manifest, results, draws)`` gets what was kept of the
    replicas and the draws' results under the draws' names, and returns
    ``({file name: (header, rows)}, data)``.
    """

    fields: dict
    build: Callable
    checks: dict
    draws: Callable = lambda manifest: {}
    keep: Callable = _whole


def resolve_workers(value) -> int:
    """The worker count ``value`` asks for: an integer >= 1, ``"auto"``, or 1 where unset."""
    if value is None:
        return 1
    if value == "auto":
        # the CPUs this process may run on, where the platform can say
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    # int() would take True for 1 and round 2.5 down to 2: neither is a count
    if count is None or isinstance(value, (bool, np.bool_)) or (
        not isinstance(value, str) and count != value
    ):
        raise ValueError(f"workers: expected a positive integer or 'auto', got {value!r}")
    if count < 1:
        raise ValueError(f"workers: expected a positive integer or 'auto', got {count}")
    return count


def _finished(spec: ReplicaSpec, keep: Callable):
    # run_replica is looked up when the task runs, in the process that runs
    # it: a pool worker holds the module as it was when the pool forked
    return keep(run_replica(spec))


def _draw(sampler: Callable, args: tuple, master_seed: int, draw_id: int, stream: int):
    """``(w1, sumsq)`` of ``sampler(*args, rng)``, ``rng`` keyed by the other three."""
    return _spectrum_stats(sampler(*args, stream_generator(master_seed, draw_id, stream)).entries)


def _call(task: Callable):
    return task()


# Starting a process pool (README.md, "Command line", gives its cost) costs
# more than it saves when each process would stream fewer energies than
# this.  The pool is kept across calls (see _kept_pool), so in a process
# that makes several pooled calls at one process count only the first pays it.
POOL_MIN_CONFIGS = 1 << 19

# The pool kept across calls, as (processes, executor), or None before the
# first pooled call.  At interpreter exit concurrent.futures shuts it down.
# The lock makes pooled calls from several threads run one at a time.
_pool = None
_pool_lock = threading.Lock()


def _end_with_parent(parent: int) -> None:
    """Pool worker initializer: exit once the process that forked this worker is gone.

    A kept worker waits for tasks between calls, and it holds the write end
    of its own call queue, so it would wait for ever if its parent were
    killed or left through ``os._exit`` and never shut the pool down.
    """

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _kept_pool(processes: int) -> ProcessPoolExecutor:
    """The kept pool if it has ``processes`` workers; otherwise a new one, forked in its place."""
    global _pool
    if _pool is None or _pool[0] != processes:
        # the old pool's threads are joined first, so none runs when the new one forks
        _discard_pool()
        pool = ProcessPoolExecutor(
            max_workers=processes, initializer=_end_with_parent, initargs=(os.getpid(),)
        )
        _pool = processes, pool
    return _pool[1]


def _discard_pool() -> None:
    """Shut the kept pool down, if there is one, and wait for its workers to exit."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(cancel_futures=True)


def _map_tasks(specs: list, draws: list, workers: int, keep=_whole) -> tuple[list, int]:
    """``keep`` of each replica's result, the draws' results, and the processes that ran them.

    Each task is a ``partial`` of a module-level function, called with no
    arguments, so a pool pickles it by reference: ``_finished(spec,
    keep)`` for a replica, ``_draw`` for each of ``draws``, and, where a
    replica spans more than one chunk, ``engine.summarize(spec, lo)`` for
    each chunk; this process folds each replica's chunk summaries in
    chunk order, as ``run_replica`` does, finishes it and applies
    ``keep``.  Replicas of one chunk are one task each, finished and kept
    where they run, so only what ``keep`` returns crosses the pool.
    Only the replicas' energies decide whether a pool pays; the draws go
    wherever the replicas go.  In a pool, chunk tasks go one at a time,
    while whole replicas and draws are chunked apart, each into about
    four chunks per process, so a long list of cheap draws never packs
    the heavy replicas into fewer processes; the draws queue behind the
    replicas and fill the processes that finish first.  Results return
    in submission (id) order either way, so the schedule never leaks
    into the artifacts.

    The pool is the one ``_kept_pool`` keeps for every call that needs
    as many processes.  A call that fails discards the pool, so the next
    call forks afresh.  If the pool was kept from an earlier call and
    breaks, one of its workers may have died between the calls, so the
    whole call runs once more on a fresh pool; only a break there fails
    it.  Results depend on the tasks alone, so a rerun changes none.
    """
    wholes = [partial(_finished, spec, keep) for spec in specs]
    split = any(len(chunks(spec)) > 1 for spec in specs)
    tasks = [partial(summarize, s, lo) for s in specs for lo in chunks(s)] if split else wholes
    streaming = min(workers, len(tasks))  # processes the replica tasks alone would keep busy
    if streaming <= 1 or sum(spec.size for spec in specs) < streaming * POOL_MIN_CONFIGS:
        return [task() for task in [*wholes, *draws]], 1
    processes = min(workers, len(tasks) + len(draws))
    slots = processes * 4  # whole replicas and draws go about four chunks per process
    with _pool_lock:
        reused = _pool is not None and _pool[0] == processes
        while True:
            pool = _kept_pool(processes)
            try:
                # a chunk summary may hold long marginal vectors, so chunk tasks go one at a time
                replicas = pool.map(
                    _call, tasks, chunksize=1 if split else max(1, len(tasks) // slots)
                )
                drawn = pool.map(_call, draws, chunksize=max(1, len(draws) // slots))
                if split:
                    replicas = [
                        keep(finish(spec, fold(itertools.islice(replicas, len(chunks(spec))))))
                        for spec in specs
                    ]
                return [*replicas, *drawn], processes
            except BaseException as exc:
                _discard_pool()
                if not (reused and isinstance(exc, BrokenProcessPool)):
                    raise
                reused = False


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _engine_specs(manifest: ExperimentManifest, fields: dict) -> list:
    # The parser leaves the fields an experiment does not read at their
    # defaults, which are empty except top_m's; 0 skips the Gibbs pool where
    # no spectrum is read.
    env = Environment(manifest.alpha, manifest.n)
    return [
        ReplicaSpec(
            env=env,
            betas=manifest.betas,
            k_marginal=manifest.k_marginal,
            intervals=manifest.intervals,
            b_levels=manifest.b_levels,
            top_m=manifest.top_m if "top_m" in fields else 0,
            master_seed=manifest.master_seed,
            replica_id=i,
        )
        for i in range(manifest.replicas)
    ]


def _evaluate(manifest: ExperimentManifest, data, item: dict) -> CheckResult:
    params = dict(item)
    name = params.pop("check")
    spec = REGISTRY[manifest.experiment].checks[name]
    args = {key: value for key, value in params.items() if key != "level"}
    passed, report, measured = spec.evaluate(manifest, data, **args)
    if passed is None:  # a level test
        passed = report.p_value > params["level"]
    detail = dict(params)
    if report is not None:
        detail.update(dataclasses.asdict(report))  # statistic, p_value, sample_sizes
    detail.update(measured, master_seed=manifest.master_seed)
    # strict JSON: a non-finite float as results.csv spells it, "inf", "-inf" or "nan"
    detail = {
        key: repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in detail.items()
    }
    return CheckResult(name + spec.label.format(**params), passed, detail)


# --------------------------------------------------------------------------
# free_energy


def _free_energy(manifest: ExperimentManifest, results, draws):
    fe = {beta: [free_energy(r, beta) for r in results] for beta in manifest.betas}
    rows = [
        (beta, i, r.log_z[beta], fe[beta][i])
        for beta in manifest.betas
        for i, r in enumerate(results)
    ]
    theory_rows = [(beta, free_energy_limit(manifest.alpha, beta)) for beta in manifest.betas]
    tables = {
        "results.csv": (("beta", "replica", "log_z", "free_energy"), rows),
        "theory.csv": (("beta", "limit"), theory_rows),
    }
    return tables, fe


def _mean_within(manifest: ExperimentManifest, fe: dict, beta: float, tol: float):
    mean = float(np.mean(fe[beta]))
    target = free_energy_limit(manifest.alpha, beta)
    deviation = abs(mean - target)
    return deviation <= tol, None, {"mean": mean, "target": target, "deviation": deviation}


def _curve_shape(manifest: ExperimentManifest, fe: dict, center_beta: float, window: float):
    betas = sorted(manifest.betas)
    means = [float(np.mean(fe[b])) for b in betas]
    slopes = [
        (means[i + 1] - means[i]) / (betas[i + 1] - betas[i]) for i in range(len(betas) - 1)
    ]
    convex = all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
    nondecreasing = all(m2 >= m1 - 1e-9 for m1, m2 in zip(means, means[1:]))
    deviations = [abs(m - free_energy_limit(manifest.alpha, b)) for b, m in zip(betas, means)]
    peak = int(np.argmax(deviations))
    peak_near_center = abs(betas[peak] - center_beta) <= window + 1e-12
    return convex and nondecreasing and peak_near_center, None, {
        "convex": convex,
        "nondecreasing": nondecreasing,
        "max_deviation": deviations[peak],
        "max_deviation_beta": betas[peak],
    }


# --------------------------------------------------------------------------
# rate_function


def _interval_rate_limit(alpha: float, low: float, high: float) -> float:
    closest = 0.0 if low < 0.0 < high else min(abs(low), abs(high))
    decay = rate_function(alpha, closest)
    return decay if decay < LOG2 else math.inf


def _rate_function(manifest: ExperimentManifest, results, draws):
    rows = [
        (low, high, i, r.interval_hits[(low, high)], rate_estimate(r, (low, high)))
        for (low, high) in manifest.intervals
        for i, r in enumerate(results)
    ]
    theory_rows = [
        (low, high, _interval_rate_limit(manifest.alpha, low, high))
        for (low, high) in manifest.intervals
    ]
    tables = {
        "results.csv": (
            ("interval_low", "interval_high", "replica", "hits", "rate_estimate"),
            rows,
        ),
        "theory.csv": (("interval_low", "interval_high", "rate_limit"), theory_rows),
    }
    return tables, {iv: [r.interval_hits[iv] for r in results] for iv in manifest.intervals}


def _pooled_rate_in(manifest: ExperimentManifest, hits: dict, interval, low, high):
    total = sum(hits[interval])
    n = manifest.n
    pooled = math.inf
    if total > 0:
        pooled = -(math.log(total / len(hits[interval])) - n * LOG2) / n
    return low <= pooled <= high, None, {"pooled_rate": pooled, "total_hits": int(total)}


def _zero_hits(manifest: ExperimentManifest, hits: dict, interval):
    counts = hits[interval]
    return all(h == 0 for h in counts), None, {"max_hits": int(max(counts))}


def _outside_fraction_below(manifest, hits: dict, interval, threshold, min_replicas):
    size = 1 << manifest.n
    fractions = [1.0 - h / size for h in hits[interval]]
    below = sum(f < threshold for f in fractions)
    return below >= min_replicas, None, {
        "replicas_below": int(below), "fractions": [float(f) for f in fractions],
    }


# --------------------------------------------------------------------------
# marginals


def _marginals(manifest: ExperimentManifest, results, draws):
    patterns = 1 << manifest.k_marginal
    rows = [
        (beta, i, pattern, float(r.marginal[beta][pattern]))
        for beta in manifest.betas
        for i, r in enumerate(results)
        for pattern in range(patterns)
    ]
    theory_rows = [(pattern, 1.0 / patterns) for pattern in range(patterns)]
    tables = {
        "results.csv": (("beta", "replica", "pattern", "weight"), rows),
        "theory.csv": (("pattern", "limit"), theory_rows),
    }
    return tables, results


def _max_marginal_deviation(manifest: ExperimentManifest, results, beta: float, tol: float):
    patterns = 1 << manifest.k_marginal
    # Averaging over replicas is essential near the transition, where the
    # top Gibbs weight makes any single replica's marginal macroscopically
    # lopsided even though the mean is exactly uniform.
    averaged = np.mean([r.marginal[beta] for r in results], axis=0)
    worst = float(np.max(np.abs(averaged - 1.0 / patterns)))
    return worst < tol, None, {
        "max_deviation": worst, "patterns": patterns, "replicas": len(results),
    }


# --------------------------------------------------------------------------
# exceedance


def _exceedance(manifest: ExperimentManifest, results, draws):
    positions = {b: [r.exceedance[b] for r in results] for b in manifest.b_levels}
    count_rows = [
        (b, i, int(pts.size)) for b in manifest.b_levels for i, pts in enumerate(positions[b])
    ]
    position_rows = [
        (b, i, float(p))
        for b in manifest.b_levels
        for i, pts in enumerate(positions[b])
        for p in pts
    ]
    kmax = max([_THEORY_KMAX, *(c["kmax"] for c in manifest.checks if "kmax" in c)])
    theory_rows = [
        (b, k, poisson_count_pmf(b, k)) for b in manifest.b_levels for k in range(kmax + 1)
    ]
    tables = {
        "results.csv": (("b", "replica", "count"), count_rows),
        "positions.csv": (("b", "replica", "position"), position_rows),
        "theory.csv": (("b", "k", "probability"), theory_rows),
    }
    return tables, positions


def _counts(positions: dict, b: float) -> np.ndarray:
    return np.asarray([pts.size for pts in positions[b]])


def _count_zero_prob(manifest: ExperimentManifest, positions: dict, b: float, tol: float):
    observed = float(np.mean(_counts(positions, b) == 0))
    target = poisson_count_pmf(b, 0)
    return abs(observed - target) <= tol, None, {"observed": observed, "target": target}


def _count_chi_square(manifest: ExperimentManifest, positions: dict, b: float, kmax: int):
    observed = np.bincount(np.minimum(_counts(positions, b), kmax + 1), minlength=kmax + 2)
    return None, chi_square_gof(observed, poisson_count_probs(b, kmax)), {}


# The fewest pooled exceedances, replicas * exp(-b), that positions_ks may
# expect: with 20 it sees none at all with probability exp(-20) = 2e-9, and
# the asymptotic Kolmogorov p-value rests on 20 points or more.
MIN_POOLED_EXCEEDANCES = 20.0


def _positions_ks(manifest: ExperimentManifest, positions: dict, b: float):
    pooled = np.concatenate(positions[b]) if positions[b] else np.empty(0)
    if pooled.size == 0:
        return False, None, {"reason": "no exceedances observed"}

    def shifted_exp_cdf(t):
        return np.where(t < b, 0.0, -np.expm1(-(np.asarray(t, dtype=float) - b)))

    return None, ks_one_sample(pooled, shifted_exp_cdf), {}


# --------------------------------------------------------------------------
# pd_compare


def _spectrum_stats(weights: np.ndarray) -> tuple[float, float]:
    """``(w1, sumsq)``: the largest weight and the sum of squares, in the weights' order."""
    return float(weights.max()), float(np.sum(np.square(weights)))


def _gibbs_stats(result: ReplicaResult) -> tuple[float, float]:
    """``(w1, sumsq)`` of the replica's one Gibbs spectrum."""
    (spectrum,) = result.spectrum.values()
    return _spectrum_stats(spectrum.entries)


def _pd_compare(manifest: ExperimentManifest, gibbs, draws):
    (beta,) = manifest.betas
    rows = [(beta, i, w1, sumsq) for i, (w1, sumsq) in enumerate(gibbs)]
    theory_rows = [
        (source, i, w1, sumsq)
        for source, sample in draws.items()
        for i, (w1, sumsq) in enumerate(sample)
    ]
    tables = {
        "results.csv": (("beta", "replica", "w1", "sumsq"), rows),
        "theory.csv": (("source", "draw", "w1", "sumsq"), theory_rows),
    }
    return tables, {"gibbs": gibbs, **draws}


def _pd_draws(manifest: ExperimentManifest) -> dict:
    # Poisson draws 0..draws-1, the cross draws on the ids after them, then
    # stick draws 0..stick_draws-1 on their own stream
    (beta,) = manifest.betas
    pd, seed = manifest.pd, manifest.master_seed
    args = (beta, pd.truncation_b, pd.epsilon_mass)

    def poisson(ids):
        return [partial(_draw, sample_pd_poisson, args, seed, i, POISSON_STREAM) for i in ids]

    return {
        "pd_poisson": poisson(range(pd.draws)),
        "pd_poisson_cross": poisson(range(pd.draws, pd.draws + pd.stick_draws)),
        "pd_stick": [
            partial(_draw, sample_pd_stick, (pd.m, pd.stick_length), seed, j, STICK_STREAM)
            for j in range(pd.stick_draws)
        ],
    }


def _ks(first: str, second: str, column: int) -> Callable:
    """Two-sample KS on one column (0: w1, 1: sumsq) of two pd_compare samples."""

    def evaluate(manifest: ExperimentManifest, samples: dict, max_statistic: float):
        report = ks_two_sample(
            [s[column] for s in samples[first]], [s[column] for s in samples[second]]
        )
        return report.statistic < max_statistic, report, {}

    return evaluate


_BETA = ("beta", ...)
_INTERVAL = ("interval", ...)
_B_LEVEL = ("b", ...)
_POSITIVE = ("positive", ...)
# a probability or a KS statistic: at 1 or more its check could never fail, or never pass
_FRACTION = ("fraction", ...)
_MAX_STATISTIC = {"max_statistic": _FRACTION}
_LEVEL = ("fraction", DEFAULT_LEVEL)
# exceedance's theory.csv lists P(count = k) up to the largest count_chi_square
# kmax (declared below, 5 by default), and at least up to this one
_THEORY_KMAX = 8
_INTERVAL_LABEL = "({interval[0]:g},{interval[1]:g})"
_BUNDLE_CSVS = {"results.csv", "theory.csv", "positions.csv"}  # every table a build returns

# Order matters: error messages list the experiments in this order, and
# manifest.json writes each check's parameters in the order declared here.
REGISTRY = {
    "free_energy": Experiment({"betas": True}, _free_energy, {
        "mean_within": Check(_mean_within, {"beta": _BETA, "tol": _POSITIVE}, "(beta={beta:g})"),
        # two betas leave one slope, so "convex" would hold vacuously
        "curve_shape": Check(_curve_shape, {
            "center_beta": ("number", lambda fields: critical_beta(fields["alpha"])),
            "window": ("positive", 0.25),
        }, needs=("betas", 3)),
    }),
    "rate_function": Experiment({"intervals": True}, _rate_function, {
        "pooled_rate_in": Check(
            _pooled_rate_in,
            {"interval": _INTERVAL, "low": ("number", ...), "high": ("high", ...)},
            _INTERVAL_LABEL,
        ),
        "zero_hits": Check(_zero_hits, {"interval": _INTERVAL}, _INTERVAL_LABEL),
        "outside_fraction_below": Check(
            _outside_fraction_below,
            {"interval": _INTERVAL, "threshold": _FRACTION, "min_replicas": ("replicas", ...)},
            "({threshold:g})",
        ),
    }),
    "marginals": Experiment({"betas": True, "k_marginal": True}, _marginals, {
        "max_marginal_deviation": Check(
            _max_marginal_deviation, {"beta": _BETA, "tol": _POSITIVE}, "(beta={beta:g})"
        ),
    }),
    "exceedance": Experiment({"alpha": "double_exponential", "b_levels": True}, _exceedance, {
        "count_zero_prob": Check(_count_zero_prob, {"b": _B_LEVEL, "tol": _FRACTION}, "(b={b:g})"),
        "count_chi_square": Check(
            _count_chi_square, {"b": _B_LEVEL, "kmax": ("bins", 5), "level": _LEVEL}, "(b={b:g})"
        ),
        "positions_ks": Check(
            _positions_ks, {"b": ("pooled_b", ...), "level": _LEVEL}, "(b={b:g})"
        ),
    }),
    "pd_compare": Experiment(
        {"alpha": "double_exponential", "betas": True, "top_m": False, "pd": True},
        _pd_compare,
        {
            "ks_w1": Check(_ks("gibbs", "pd_poisson", 0), _MAX_STATISTIC),
            "ks_sumsq": Check(_ks("gibbs", "pd_poisson", 1), _MAX_STATISTIC),
            "stick_ks_w1": Check(
                _ks("pd_poisson_cross", "pd_stick", 0), _MAX_STATISTIC, needs=("pd.stick_draws", 1)
            ),
        },
        _pd_draws,
        _gibbs_stats,
    ),
}


# --------------------------------------------------------------------------


def run_experiment(manifest: ExperimentManifest, workers=None, output_dir="remlab-out"):
    """Run one manifest and write its artifact bundle into ``output_dir``.

    ``workers`` is read by ``resolve_workers``; neither it nor
    ``output_dir`` changes an artifact other than ``summary.json``.
    A bundle CSV that this run does not write is removed from
    ``output_dir``; no other file there is touched.
    Returns the outcome with one CheckResult per attached check.
    """
    count = resolve_workers(workers)
    target = Path(output_dir)
    target.mkdir(parents=True, exist_ok=True)

    entry = REGISTRY[manifest.experiment]
    specs = _engine_specs(manifest, entry.fields)
    samples = entry.draws(manifest)
    draw_tasks = [d for group in samples.values() for d in group]
    results, processes = _map_tasks(specs, draw_tasks, count, entry.keep)
    drawn = iter(results[len(specs) :])
    draws = {name: list(itertools.islice(drawn, len(group))) for name, group in samples.items()}
    tables, data = entry.build(manifest, results[: len(specs)], draws)
    checks = [_evaluate(manifest, data, item) for item in manifest.checks]
    for name, (header, rows) in tables.items():
        _write_csv(target / name, header, rows)
    for name in _BUNDLE_CSVS - tables.keys():  # left by an earlier run into this directory
        (target / name).unlink(missing_ok=True)
    with open(target / "manifest.json", "w", encoding="utf-8") as handle:
        handle.write(manifest.to_json())

    passed = all(c.passed for c in checks)
    summary = {
        "experiment": manifest.experiment,
        "passed": passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "seeds": {
            "master_seed": manifest.master_seed,
            "key_scheme": "(master_seed << 64) | (replica_id << 16) | stream",
            "streams": {"energy": ENERGY_STREAM, "poisson": POISSON_STREAM, "stick": STICK_STREAM},
        },
        "workers": count,
        "processes": processes,
        "versions": {
            "remlab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    with open(target / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return RunOutcome(manifest, target, tuple(checks), passed)
