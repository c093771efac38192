"""Experiment runners: manifest in, artifact bundle out.

Each experiment type emits results.csv, theory.csv (matching closed-form
values on the same grid), a resolved copy of the manifest, and
summary.json with a pass/fail record per attached check.  Exceedance
runs additionally emit positions.csv.

``REGISTRY`` declares each experiment type once, through the
``experiment``, ``draws`` and ``check`` decorators: the manifest fields
it reads, the keyed draws it needs besides its replicas, how the
results become tables, and its checks with their parameters.  The
manifest parser validates against it, and ``run_experiment`` runs every
type the same way: one task map runs the replicas and the draws, in one
pool or in this process, and returns their results in id order.

Determinism contract: every random quantity is derived from
(master_seed, replica or draw id, stream label) through the keyed
counter-based generator, and aggregation happens in id order, so CSV
bodies are byte-identical for any worker count.  Floats are written in
shortest round-trip decimal form; timestamps appear only in
summary.json.
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy

from . import __version__
from .engine import (
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
from .pointprocess import PDParams, sample_pd_poisson, sample_pd_stick
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
    evaluate: Callable  # (manifest, data, **params) -> (passed, detail)
    params: dict  # name -> (kind, default); a default of ... marks it required
    label: str  # str.format template over the params, appended to the check name
    needs: str  # a pd count that must be >= 1, or ""


@dataclass(frozen=True)
class Experiment:
    fields: dict  # manifest field read -> required (True), optional (False) or a narrower kind
    build: Callable  # (manifest, results, draws) -> ({file: (header, rows)}, data)
    checks: dict  # check name -> Check
    draws: Callable = lambda manifest: {}  # manifest -> {sample: [Draw]}, in submission order


@dataclass(frozen=True)
class Draw:
    """One keyed draw, run in the task map next to the replicas.

    Calls ``sampler(*args, rng)``, with the generator of ``(master_seed,
    draw_id, stream)``, and returns only ``(w1, sumsq)`` of the weights,
    so a pool sends back two floats per draw.  ``sampler`` names a
    function of this module, looked up when the draw runs, so that one
    patched here (as perfbench's spans do) is the one called.
    """

    sampler: str
    args: tuple
    master_seed: int
    draw_id: int
    stream: int

    def __call__(self) -> tuple[float, float]:
        rng = stream_generator(self.master_seed, self.draw_id, self.stream)
        return _spectrum_stats(globals()[self.sampler](*self.args, rng).entries)


REGISTRY: dict[str, Experiment] = {}


def experiment(name: str, **fields):
    """Register ``build`` as experiment ``name``, reading the manifest ``fields``.

    Each field maps to whether a value other than its default is
    required; the parser rejects a value other than the default in a
    field that some other experiment lists and this one does not.  A
    field may instead map to a kind of ``remlab.manifest.KINDS`` that its
    value must have here, narrower than the field's own, such as
    ``alpha="double_exponential"`` where the limit law is derived for
    ``alpha = 1`` only.  ``top_m`` is passed to the engine only where it
    is listed.  ``build(manifest, results, draws)`` turns the replica
    results and the draw results (``{sample: [result]}``, see ``draws``)
    into ``({file name: (header, rows)}, data)``.
    """

    def register(build):
        REGISTRY[name] = Experiment(fields, build, {})
        return build

    return register


def draws(experiment_name: str):
    """Register ``declare(manifest) -> {sample: [Draw]}``: the experiment's keyed draws.

    The draws are submitted in the dict's order and their results reach
    ``build`` under the same sample names, so the layout lives here alone.
    """

    def register(declare):
        REGISTRY[experiment_name] = dataclasses.replace(REGISTRY[experiment_name], draws=declare)
        return declare

    return register


def check(experiment_name: str, name: str, label: str = "", needs: str = "", **params):
    """Register ``evaluate(manifest, data, **params) -> (passed, detail)`` as a check.

    ``data`` is what the experiment's ``build`` returned.  Each parameter
    maps to ``(kind, default)``, with the kinds of ``remlab.manifest.KINDS``.
    A default of ``...`` makes the parameter required; a callable default
    is called with the manifest's fields as a dict.  The parser stores
    each check with its parameters read and its defaults filled in.
    """

    def register(evaluate):
        REGISTRY[experiment_name].checks[name] = Check(evaluate, params, label, needs)
        return evaluate

    return register


def resolve_workers(manifest: ExperimentManifest | None, override=None) -> int:
    """Worker count precedence: explicit override, manifest (if any), REMLAB_WORKERS, 1."""
    value = override
    if value is None and manifest is not None:
        value = manifest.workers
    if value is None:
        value = os.environ.get("REMLAB_WORKERS") or None
    if value is None:
        return 1
    if value == "auto":
        return os.cpu_count() or 1
    try:
        count = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"workers: expected a positive integer or 'auto', got {value!r}")
    if count < 1:
        raise ValueError(f"workers: expected a positive integer or 'auto', got {count}")
    return count


def _run_task(task):
    # run_replica is looked up when the task runs, like a Draw's sampler
    if isinstance(task, Draw):
        return task()
    if isinstance(task, ReplicaSpec):
        return run_replica(task)
    (summary,) = summarize(*task)  # a (spec, lo, hi) chunk task
    return summary


# Starting and reaping a process pool costs about 20 ms on 2 CPUs, more
# than it saves when each process would stream fewer energies than this.
POOL_MIN_CONFIGS = 1 << 19


def _map_tasks(specs: list, draws: list, workers: int) -> tuple[list, int]:
    """The results of the replicas, then of the draws, and the processes that ran them.

    When a replica spans more than one chunk, each of its chunks is a
    task of its own, a ``(spec, lo, hi)`` that ``engine.summarize``
    reduces; this process folds each replica's chunk summaries in chunk
    order, as ``run_replica`` does, and finishes it.  Replicas of one
    chunk are one task each, finished where they run.
    Only the replicas' energies decide whether a pool pays; the draws go
    wherever the replicas go.  In a pool, chunk tasks go one at a time,
    while whole replicas and draws are chunked apart, each into about
    four chunks per process, so a long list of cheap draws never packs
    the heavy replicas into fewer processes; the draws queue behind the
    replicas and fill the processes that finish first.  Results return
    in submission (id) order either way, so the schedule never leaks
    into the artifacts.
    """
    split = any(len(chunks(spec)) > 1 for spec in specs)
    tasks = [(spec, lo, hi) for spec in specs for lo, hi in chunks(spec)] if split else specs
    streaming = min(workers, len(tasks))  # processes the replica tasks alone would keep busy
    if streaming <= 1 or sum(spec.size for spec in specs) < streaming * POOL_MIN_CONFIGS:
        return [_run_task(task) for task in [*specs, *draws]], 1
    processes = min(workers, len(tasks) + len(draws))
    with ProcessPoolExecutor(max_workers=processes) as pool:
        slots = processes * 4  # whole replicas and draws go about four chunks per process
        # a chunk summary may hold long marginal vectors, so chunk tasks go one at a time
        replicas = pool.map(_run_task, tasks, chunksize=1 if split else max(1, len(tasks) // slots))
        drawn = pool.map(_run_task, draws, chunksize=max(1, len(draws) // slots))
        if split:
            replicas = [
                finish(spec, fold(itertools.islice(replicas, len(chunks(spec))))) for spec in specs
            ]
        return [*replicas, *drawn], processes


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
    passed, detail = spec.evaluate(manifest, data, **params)
    return CheckResult(name + spec.label.format(**params), passed, detail)


_BETA = ("beta", ...)
_INTERVAL = ("interval", ...)
_B_LEVEL = ("b", ...)
_POSITIVE = ("positive", ...)
_LEVEL = ("positive", DEFAULT_LEVEL)
_INTERVAL_LABEL = "({interval[0]:g},{interval[1]:g})"


# --------------------------------------------------------------------------
# free_energy


@experiment("free_energy", betas=True)
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


@check("free_energy", "mean_within", "(beta={beta:g})", beta=_BETA, tol=_POSITIVE)
def _mean_within(manifest: ExperimentManifest, fe: dict, beta: float, tol: float):
    mean = float(np.mean(fe[beta]))
    target = free_energy_limit(manifest.alpha, beta)
    deviation = abs(mean - target)
    return deviation <= tol, {
        "beta": beta, "mean": mean, "target": target, "tol": tol, "deviation": deviation,
    }


@check(
    "free_energy",
    "curve_shape",
    center_beta=("number", lambda fields: critical_beta(fields["alpha"])),
    window=("positive", 0.25),
)
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
    return convex and nondecreasing and peak_near_center, {
        "convex": convex,
        "nondecreasing": nondecreasing,
        "max_deviation": deviations[peak],
        "max_deviation_beta": betas[peak],
        "center_beta": center_beta,
        "window": window,
    }


# --------------------------------------------------------------------------
# rate_function


def _interval_rate_limit(alpha: float, low: float, high: float) -> float:
    closest = 0.0 if low < 0.0 < high else min(abs(low), abs(high))
    decay = rate_function(alpha, closest)
    return decay if decay < LOG2 else math.inf


@experiment("rate_function", intervals=True)
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


@check(
    "rate_function",
    "pooled_rate_in",
    _INTERVAL_LABEL,
    interval=_INTERVAL,
    low=("number", ...),
    high=("number", ...),
)
def _pooled_rate_in(manifest: ExperimentManifest, hits: dict, interval, low, high):
    total = sum(hits[interval])
    n = manifest.n
    pooled = math.inf
    if total > 0:
        pooled = -(math.log(total / len(hits[interval])) - n * LOG2) / n
    return low <= pooled <= high, {
        "interval": list(interval), "pooled_rate": pooled, "low": low, "high": high,
        "total_hits": int(total),
    }


@check("rate_function", "zero_hits", _INTERVAL_LABEL, interval=_INTERVAL)
def _zero_hits(manifest: ExperimentManifest, hits: dict, interval):
    counts = hits[interval]
    return all(h == 0 for h in counts), {"interval": list(interval), "max_hits": int(max(counts))}


@check(
    "rate_function",
    "outside_fraction_below",
    "({threshold:g})",
    interval=_INTERVAL,
    threshold=_POSITIVE,
    min_replicas=("replicas", ...),
)
def _outside_fraction_below(manifest, hits: dict, interval, threshold, min_replicas):
    size = 1 << manifest.n
    fractions = [1.0 - h / size for h in hits[interval]]
    below = sum(f < threshold for f in fractions)
    return below >= min_replicas, {
        "interval": list(interval), "threshold": threshold, "replicas_below": int(below),
        "min_replicas": min_replicas, "fractions": [float(f) for f in fractions],
    }


# --------------------------------------------------------------------------
# marginals


@experiment("marginals", betas=True, k_marginal=True)
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


@check("marginals", "max_marginal_deviation", "(beta={beta:g})", beta=_BETA, tol=_POSITIVE)
def _max_marginal_deviation(manifest: ExperimentManifest, results, beta: float, tol: float):
    patterns = 1 << manifest.k_marginal
    # Averaging over replicas is essential near the transition, where the
    # top Gibbs weight makes any single replica's marginal macroscopically
    # lopsided even though the mean is exactly uniform.
    averaged = np.mean([r.marginal[beta] for r in results], axis=0)
    worst = float(np.max(np.abs(averaged - 1.0 / patterns)))
    return worst < tol, {
        "beta": beta, "max_deviation": worst, "tol": tol,
        "patterns": patterns, "replicas": len(results),
    }


# --------------------------------------------------------------------------
# exceedance


@experiment("exceedance", alpha="double_exponential", b_levels=True)
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
    kmax = max([8] + [c.get("kmax", 8) for c in manifest.checks])
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


@check("exceedance", "count_zero_prob", "(b={b:g})", b=_B_LEVEL, tol=_POSITIVE)
def _count_zero_prob(manifest: ExperimentManifest, positions: dict, b: float, tol: float):
    observed = float(np.mean(_counts(positions, b) == 0))
    target = poisson_count_pmf(b, 0)
    return abs(observed - target) <= tol, {
        "b": b, "observed": observed, "target": target, "tol": tol,
    }


@check("exceedance", "count_chi_square", "(b={b:g})", b=_B_LEVEL, kmax=("bins", 5), level=_LEVEL)
def _count_chi_square(manifest, positions: dict, b: float, kmax: int, level: float):
    observed = np.bincount(np.minimum(_counts(positions, b), kmax + 1), minlength=kmax + 2)
    report = chi_square_gof(observed, poisson_count_probs(b, kmax), level)
    return report.verdict == "pass", {
        "b": b, "statistic": report.statistic, "p_value": report.p_value,
        "level": level, "bins": report.sample_sizes[1],
    }


@check("exceedance", "positions_ks", "(b={b:g})", b=_B_LEVEL, level=_LEVEL)
def _positions_ks(manifest: ExperimentManifest, positions: dict, b: float, level: float):
    pooled = np.concatenate(positions[b]) if positions[b] else np.empty(0)
    if pooled.size == 0:
        return False, {"b": b, "reason": "no exceedances observed"}

    def shifted_exp_cdf(t):
        return np.where(t < b, 0.0, -np.expm1(-(np.asarray(t, dtype=float) - b)))

    report = ks_one_sample(pooled, shifted_exp_cdf, level)
    return report.verdict == "pass", {
        "b": b, "statistic": report.statistic, "p_value": report.p_value,
        "level": level, "pooled_points": int(pooled.size),
    }


# --------------------------------------------------------------------------
# pd_compare


def _spectrum_stats(weights: np.ndarray) -> tuple[float, float]:
    return float(weights[0]), float(np.sum(np.square(weights)))


@experiment("pd_compare", alpha="double_exponential", betas=True, top_m=False, pd=True)
def _pd_compare(manifest: ExperimentManifest, results, draws):
    (beta,) = manifest.betas
    gibbs = [_spectrum_stats(r.spectrum[beta].entries) for r in results]
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


@draws("pd_compare")
def _pd_draws(manifest: ExperimentManifest) -> dict:
    # Poisson draws 0..draws-1, the cross draws on the ids after them, then
    # stick draws 0..stick_draws-1 on their own stream
    (beta,) = manifest.betas
    pd, seed = manifest.pd, manifest.master_seed
    params = PDParams(m=pd.m, truncation_b=pd.truncation_b, epsilon_mass=pd.epsilon_mass)

    def poisson(ids):
        return [Draw("sample_pd_poisson", (beta, params), seed, i, POISSON_STREAM) for i in ids]

    return {
        "pd_poisson": poisson(range(pd.draws)),
        "pd_poisson_cross": poisson(range(pd.draws, pd.draws + pd.stick_draws)),
        "pd_stick": [
            Draw("sample_pd_stick", (pd.m, pd.stick_length), seed, j, STICK_STREAM)
            for j in range(pd.stick_draws)
        ],
    }


def _ks(first: str, second: str, column: int) -> Callable:
    """Two-sample KS on one column (0: w1, 1: sumsq) of two pd_compare samples."""

    def evaluate(manifest: ExperimentManifest, samples: dict, max_statistic: float):
        report = ks_two_sample(
            [s[column] for s in samples[first]], [s[column] for s in samples[second]]
        )
        return report.statistic < max_statistic, {
            "statistic": report.statistic, "max_statistic": max_statistic,
            "p_value": report.p_value, "sample_sizes": list(report.sample_sizes),
        }

    return evaluate


check("pd_compare", "ks_w1", max_statistic=_POSITIVE)(_ks("gibbs", "pd_poisson", 0))
check("pd_compare", "ks_sumsq", max_statistic=_POSITIVE)(_ks("gibbs", "pd_poisson", 1))
check("pd_compare", "stick_ks_w1", needs="stick_draws", max_statistic=_POSITIVE)(
    _ks("pd_poisson_cross", "pd_stick", 0)
)


# --------------------------------------------------------------------------


def run_experiment(
    manifest: ExperimentManifest,
    workers=None,
    output_dir=None,
    master_seed=None,
) -> RunOutcome:
    """Run one manifest and write its artifact bundle.

    ``workers``, ``output_dir`` and ``master_seed`` override the manifest
    fields (the CLI maps its flags here).  Returns the outcome with one
    CheckResult per attached check.
    """
    if master_seed is not None:
        manifest = dataclasses.replace(manifest, master_seed=master_seed)
    count = resolve_workers(manifest, workers)
    target = Path(output_dir if output_dir is not None else manifest.output_dir or "remlab-out")
    target.mkdir(parents=True, exist_ok=True)
    resolved = dataclasses.replace(manifest, output_dir=str(target), workers=count)

    entry = REGISTRY[resolved.experiment]
    specs = _engine_specs(resolved, entry.fields)
    samples = entry.draws(resolved)
    results, processes = _map_tasks(specs, [d for group in samples.values() for d in group], count)
    drawn = iter(results[len(specs) :])
    draws = {name: list(itertools.islice(drawn, len(group))) for name, group in samples.items()}
    tables, data = entry.build(resolved, results[: len(specs)], draws)
    checks = [_evaluate(resolved, data, item) for item in resolved.checks]
    for name, (header, rows) in tables.items():
        _write_csv(target / name, header, rows)
    with open(target / "manifest.json", "w", encoding="utf-8") as handle:
        handle.write(resolved.to_json())

    passed = all(c.passed for c in checks)
    summary = {
        "experiment": resolved.experiment,
        "passed": passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "seeds": {
            "master_seed": resolved.master_seed,
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
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return RunOutcome(resolved, target, tuple(checks), passed)
