"""Experiment runners: manifest in, artifact bundle out.

Each experiment type emits results.csv, theory.csv (matching closed-form
values on the same grid), a resolved copy of the manifest, and
summary.json with a pass/fail record per attached check.  Exceedance
runs additionally emit positions.csv.

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
import json
import math
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .engine import ReplicaSpec, free_energy, rate_estimate, run_replica
from .environment import Environment
from .manifest import ExperimentManifest
from .pointprocess import PDParams, sample_pd_poisson, sample_pd_stick
from .rng import ENERGY_STREAM, POISSON_STREAM, STICK_STREAM, stream_generator
from .stats import DEFAULT_LEVEL, chi_square_gof, ks_one_sample, ks_two_sample
from .theory import (
    LOG2,
    critical_beta,
    free_energy_limit,
    poisson_count_pmf,
    rate_function,
    shift_constant,
    truncated_exp_moment,
)


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


def resolve_workers(manifest: ExperimentManifest, override=None) -> int:
    """Worker count precedence: explicit override, manifest, REMLAB_WORKERS, 1."""
    value = override
    if value is None:
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


def _replica_task(spec: ReplicaSpec):
    return run_replica(spec)


def _map_tasks(task, items, workers: int) -> list:
    # Results return in submission (replica id) order either way, so the
    # schedule never leaks into the artifacts.
    if workers <= 1 or len(items) <= 1:
        return [task(item) for item in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items, chunksize=chunk))


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


def _engine_specs(manifest: ExperimentManifest, betas, k_marginal=0, b_levels=()) -> list:
    # b_levels only where positions are read: a replica keeps every
    # position above each level, up to 2**n of them
    env = Environment(manifest.alpha, manifest.n)
    return [
        ReplicaSpec(
            env=env,
            betas=betas,
            k_marginal=k_marginal,
            intervals=manifest.intervals,
            b_levels=b_levels,
            top_m=manifest.top_m,
            master_seed=manifest.master_seed,
            replica_id=i,
        )
        for i in range(manifest.replicas)
    ]


# --------------------------------------------------------------------------
# free_energy


def _run_free_energy(manifest: ExperimentManifest, workers: int):
    specs = _engine_specs(manifest, manifest.betas)
    results = _map_tasks(_replica_task, specs, workers)
    fe = {beta: [free_energy(r, beta) for r in results] for beta in manifest.betas}
    rows = [
        (beta, i, results[i].log_z[beta], fe[beta][i])
        for beta in manifest.betas
        for i in range(len(results))
    ]
    theory_rows = [(beta, free_energy_limit(manifest.alpha, beta)) for beta in manifest.betas]
    checks = [_eval_free_energy_check(c, manifest, fe) for c in manifest.checks]
    tables = {
        "results.csv": (("beta", "replica", "log_z", "free_energy"), rows),
        "theory.csv": (("beta", "limit"), theory_rows),
    }
    return tables, checks


def _eval_free_energy_check(check: dict, manifest: ExperimentManifest, fe: dict) -> CheckResult:
    if check["check"] == "mean_within":
        beta = float(check["beta"])
        tol = float(check["tol"])
        mean = float(np.mean(fe[beta]))
        target = free_energy_limit(manifest.alpha, beta)
        deviation = abs(mean - target)
        return CheckResult(
            f"mean_within(beta={beta:g})",
            deviation <= tol,
            {"beta": beta, "mean": mean, "target": target, "tol": tol, "deviation": deviation},
        )
    center = float(check.get("center_beta", critical_beta(manifest.alpha)))
    window = float(check.get("window", 0.25))
    betas = sorted(manifest.betas)
    means = [float(np.mean(fe[b])) for b in betas]
    slopes = [
        (means[i + 1] - means[i]) / (betas[i + 1] - betas[i]) for i in range(len(betas) - 1)
    ]
    convex = all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
    nondecreasing = all(m2 >= m1 - 1e-9 for m1, m2 in zip(means, means[1:]))
    deviations = [abs(m - free_energy_limit(manifest.alpha, b)) for b, m in zip(betas, means)]
    peak = int(np.argmax(deviations))
    peak_near_center = abs(betas[peak] - center) <= window + 1e-12
    return CheckResult(
        "curve_shape",
        convex and nondecreasing and peak_near_center,
        {
            "convex": convex,
            "nondecreasing": nondecreasing,
            "max_deviation": deviations[peak],
            "max_deviation_beta": betas[peak],
            "center_beta": center,
            "window": window,
        },
    )


# --------------------------------------------------------------------------
# rate_function


def _interval_rate_limit(alpha: float, low: float, high: float) -> float:
    closest = 0.0 if low < 0.0 < high else min(abs(low), abs(high))
    decay = rate_function(alpha, closest)
    return decay if decay < LOG2 else math.inf


def _run_rate_function(manifest: ExperimentManifest, workers: int):
    specs = _engine_specs(manifest, ())
    results = _map_tasks(_replica_task, specs, workers)
    rows = [
        (low, high, i, results[i].interval_hits[(low, high)], rate_estimate(results[i], (low, high)))
        for (low, high) in manifest.intervals
        for i in range(len(results))
    ]
    theory_rows = [
        (low, high, _interval_rate_limit(manifest.alpha, low, high))
        for (low, high) in manifest.intervals
    ]
    checks = [_eval_rate_check(c, manifest, results) for c in manifest.checks]
    tables = {
        "results.csv": (
            ("interval_low", "interval_high", "replica", "hits", "rate_estimate"),
            rows,
        ),
        "theory.csv": (("interval_low", "interval_high", "rate_limit"), theory_rows),
    }
    return tables, checks


def _eval_rate_check(check: dict, manifest: ExperimentManifest, results) -> CheckResult:
    interval = (float(check["interval"][0]), float(check["interval"][1]))
    hits = [r.interval_hits[interval] for r in results]
    label = f"({interval[0]:g},{interval[1]:g})"
    if check["check"] == "pooled_rate_in":
        total = sum(hits)
        n = manifest.n
        pooled = math.inf
        if total > 0:
            pooled = -(math.log(total / len(hits)) - n * LOG2) / n
        low, high = float(check["low"]), float(check["high"])
        return CheckResult(
            f"pooled_rate_in{label}",
            low <= pooled <= high,
            {"interval": list(interval), "pooled_rate": pooled, "low": low, "high": high,
             "total_hits": int(total)},
        )
    if check["check"] == "zero_hits":
        return CheckResult(
            f"zero_hits{label}",
            all(h == 0 for h in hits),
            {"interval": list(interval), "max_hits": int(max(hits))},
        )
    threshold = float(check["threshold"])
    needed = int(check["min_replicas"])
    size = 1 << manifest.n
    fractions = [1.0 - h / size for h in hits]
    below = sum(f < threshold for f in fractions)
    return CheckResult(
        f"outside_fraction_below({threshold:g})",
        below >= needed,
        {"interval": list(interval), "threshold": threshold, "replicas_below": int(below),
         "min_replicas": needed, "fractions": [float(f) for f in fractions]},
    )


# --------------------------------------------------------------------------
# marginals


def _run_marginals(manifest: ExperimentManifest, workers: int):
    specs = _engine_specs(manifest, manifest.betas, k_marginal=manifest.k_marginal)
    results = _map_tasks(_replica_task, specs, workers)
    patterns = 1 << manifest.k_marginal
    rows = [
        (beta, i, pattern, float(results[i].marginal[beta][pattern]))
        for beta in manifest.betas
        for i in range(len(results))
        for pattern in range(patterns)
    ]
    theory_rows = [(pattern, 1.0 / patterns) for pattern in range(patterns)]
    checks = []
    for check in manifest.checks:
        beta = float(check["beta"])
        tol = float(check["tol"])
        # Averaging over replicas is essential near the transition, where the
        # top Gibbs weight makes any single replica's marginal macroscopically
        # lopsided even though the mean is exactly uniform.
        averaged = np.mean([r.marginal[beta] for r in results], axis=0)
        worst = float(np.max(np.abs(averaged - 1.0 / patterns)))
        checks.append(
            CheckResult(
                f"max_marginal_deviation(beta={beta:g})",
                worst < tol,
                {"beta": beta, "max_deviation": worst, "tol": tol,
                 "patterns": patterns, "replicas": len(results)},
            )
        )
    tables = {
        "results.csv": (("beta", "replica", "pattern", "weight"), rows),
        "theory.csv": (("pattern", "limit"), theory_rows),
    }
    return tables, checks


# --------------------------------------------------------------------------
# exceedance


def _run_exceedance(manifest: ExperimentManifest, workers: int):
    specs = _engine_specs(manifest, (), b_levels=manifest.b_levels)
    results = _map_tasks(_replica_task, specs, workers)
    count_rows = []
    position_rows = []
    counts = {b: [] for b in manifest.b_levels}
    pooled = {b: [] for b in manifest.b_levels}
    for b in manifest.b_levels:
        for i, result in enumerate(results):
            pts = result.exceedance[b]
            counts[b].append(pts.size)
            pooled[b].append(pts)
            count_rows.append((b, i, int(pts.size)))
            position_rows.extend((b, i, float(p)) for p in pts)
    kmax_table = max(
        [int(c.get("kmax", 5)) for c in manifest.checks if c["check"] == "count_chi_square"],
        default=8,
    )
    kmax_table = max(kmax_table, 8)
    theory_rows = [
        (b, k, poisson_count_pmf(b, k)) for b in manifest.b_levels for k in range(kmax_table + 1)
    ]
    checks = [_eval_exceedance_check(c, counts, pooled) for c in manifest.checks]
    tables = {
        "results.csv": (("b", "replica", "count"), count_rows),
        "positions.csv": (("b", "replica", "position"), position_rows),
        "theory.csv": (("b", "k", "probability"), theory_rows),
    }
    return tables, checks


def _eval_exceedance_check(check: dict, counts: dict, pooled: dict) -> CheckResult:
    b = float(check["b"])
    values = np.asarray(counts[b])
    if check["check"] == "count_zero_prob":
        tol = float(check["tol"])
        observed = float(np.mean(values == 0))
        target = poisson_count_pmf(b, 0)
        return CheckResult(
            f"count_zero_prob(b={b:g})",
            abs(observed - target) <= tol,
            {"b": b, "observed": observed, "target": target, "tol": tol},
        )
    if check["check"] == "count_chi_square":
        kmax = int(check.get("kmax", 5))
        level = float(check.get("level", DEFAULT_LEVEL))
        observed = np.bincount(np.minimum(values, kmax + 1), minlength=kmax + 2)
        probs = [poisson_count_pmf(b, k) for k in range(kmax + 1)]
        probs.append(1.0 - sum(probs))
        report = chi_square_gof(observed, probs, level)
        return CheckResult(
            f"count_chi_square(b={b:g})",
            report.verdict == "pass",
            {"b": b, "statistic": report.statistic, "p_value": report.p_value,
             "level": level, "bins": report.sample_sizes[1]},
        )
    level = float(check.get("level", DEFAULT_LEVEL))
    positions = np.concatenate(pooled[b]) if pooled[b] else np.empty(0)
    if positions.size == 0:
        return CheckResult(
            f"positions_ks(b={b:g})", False, {"b": b, "reason": "no exceedances observed"}
        )

    def shifted_exp_cdf(t):
        return np.where(t < b, 0.0, -np.expm1(-(np.asarray(t, dtype=float) - b)))

    report = ks_one_sample(positions, shifted_exp_cdf, level)
    return CheckResult(
        f"positions_ks(b={b:g})",
        report.verdict == "pass",
        {"b": b, "statistic": report.statistic, "p_value": report.p_value,
         "level": level, "pooled_points": int(positions.size)},
    )


# --------------------------------------------------------------------------
# pd_compare


def _spectrum_stats(weights: np.ndarray) -> tuple[float, float]:
    return float(weights[0]), float(np.sum(np.square(weights)))


def _run_pd_compare(manifest: ExperimentManifest, workers: int):
    beta = manifest.betas[0]
    pd = manifest.pd
    specs = _engine_specs(manifest, (beta,))
    results = _map_tasks(_replica_task, specs, workers)
    gibbs = [_spectrum_stats(r.spectrum[beta].weights) for r in results]
    rows = [(beta, i, w1, sumsq) for i, (w1, sumsq) in enumerate(gibbs)]

    params = PDParams(m=pd.m, truncation_b=pd.truncation_b, epsilon_mass=pd.epsilon_mass)

    def poisson_draw(draw_id: int):
        rng = stream_generator(manifest.master_seed, draw_id, POISSON_STREAM)
        return _spectrum_stats(sample_pd_poisson(beta, params, rng).entries)

    def stick_draw(draw_id: int):
        rng = stream_generator(manifest.master_seed, draw_id, STICK_STREAM)
        return _spectrum_stats(sample_pd_stick(pd.m, pd.stick_length, rng).entries)

    reference = [poisson_draw(i) for i in range(pd.draws)]
    cross = [poisson_draw(pd.draws + j) for j in range(pd.stick_draws)]
    sticks = [stick_draw(j) for j in range(pd.stick_draws)]
    theory_rows = (
        [("pd_poisson", i, w1, sumsq) for i, (w1, sumsq) in enumerate(reference)]
        + [("pd_poisson_cross", j, w1, sumsq) for j, (w1, sumsq) in enumerate(cross)]
        + [("pd_stick", j, w1, sumsq) for j, (w1, sumsq) in enumerate(sticks)]
    )

    checks = []
    for check in manifest.checks:
        bound = float(check["max_statistic"])
        if check["check"] == "ks_w1":
            report = ks_two_sample([g[0] for g in gibbs], [r[0] for r in reference])
            name = "ks_w1"
        elif check["check"] == "ks_sumsq":
            report = ks_two_sample([g[1] for g in gibbs], [r[1] for r in reference])
            name = "ks_sumsq"
        else:
            report = ks_two_sample([c[0] for c in cross], [s[0] for s in sticks])
            name = "stick_ks_w1"
        checks.append(
            CheckResult(
                name,
                report.statistic < bound,
                {"statistic": report.statistic, "max_statistic": bound,
                 "p_value": report.p_value, "sample_sizes": list(report.sample_sizes)},
            )
        )
    tables = {
        "results.csv": (("beta", "replica", "w1", "sumsq"), rows),
        "theory.csv": (("source", "draw", "w1", "sumsq"), theory_rows),
    }
    return tables, checks


# --------------------------------------------------------------------------
# diagnostics: closed-form consistency suites, no randomness.

_SANDWICH_INTERVALS = ((0.0, 0.5), (0.2, 0.3), (0.5, 2.0), (-0.3, -0.1), (-0.25, 0.5))
_DIAG_N = (5, 10, 20)
_LAPLACE_BETAS = (0.1, 0.25, 0.5, 0.75, 0.9)
_LAPLACE_DELTAS = (0.75, 1.0, 1.5)
_GAUSS_BETAS = (0.2, 0.5, 0.8, 1.0)
_GAUSS_DELTAS = (1.6651092223153954, 1.8, 2.2)


def _diag_bound_suite() -> CheckResult:
    cases = 0
    violations = 0

    def record(ok: bool):
        nonlocal cases, violations
        cases += 1
        violations += not ok

    for n in _DIAG_N:
        env = Environment(1.0, n)
        for low, high in _SANDWICH_INTERVALS:
            q = env.interval_probability(low, high)
            near = 0.0 if low < 0.0 < high else min(abs(low), abs(high))
            far = max(abs(low), abs(high))
            gap = (far - near) / 2.0
            record(q <= math.exp(-n * near) * (1.0 + 1e-12))
            record(q > 0.5 * gap * math.exp(-(n * near + gap)))
    for beta in _LAPLACE_BETAS:
        for delta in _LAPLACE_DELTAS:
            for n in _DIAG_N:
                dn = delta * n
                record(dn > math.log((1.0 + beta) / (2.0 * beta)) / (1.0 - beta))
                first = truncated_exp_moment(1, beta, delta, n, order=1)
                record(first > 1.0 / (1.0 + beta))
                second = truncated_exp_moment(1, beta, delta, n, order=2)
                g = 2.0 * beta
                if g < 1.0:
                    record(second <= 1.0 / (1.0 - g * g))
                elif g == 1.0:
                    record(second <= 0.5 * (1.0 + dn))
                else:
                    record(second <= math.exp((g - 1.0) * dn) / (2.0 * (g - 1.0)))
    for beta in _GAUSS_BETAS:
        for delta in _GAUSS_DELTAS:
            for n in _DIAG_N:
                record(delta > beta)
                first = truncated_exp_moment(2, beta, delta, n, order=1)
                record(first > 0.5 * math.exp(0.5 * beta * beta * n))
                second = truncated_exp_moment(2, beta, delta, n, order=2)
                if beta <= delta / 2.0:
                    record(second <= math.exp(2.0 * beta * beta * n))
                else:
                    bound = math.exp((2.0 * delta * beta - 0.5 * delta * delta) * n) / (
                        (2.0 * beta - delta) * math.sqrt(2.0 * math.pi * n)
                    )
                    record(second <= bound)
    return CheckResult("bound_suite", violations == 0, {"cases": cases, "violations": violations})


def _diag_limit_continuity() -> CheckResult:
    cases = 0
    violations = 0
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0, 3.0):
        bc = critical_beta(alpha)
        gap = abs(free_energy_limit(alpha, bc - 1e-9) - free_energy_limit(alpha, bc + 1e-9))
        worst = max(worst, gap)
        cases += 1
        violations += not gap <= 1e-7
    return CheckResult(
        "limit_continuity",
        violations == 0,
        {"cases": cases, "violations": violations, "max_gap": worst},
    )


def _diag_shift_identity() -> CheckResult:
    cases = 0
    violations = 0
    worst = 0.0
    for n in (2, 11, 24):
        env = Environment(1.0, n)
        for b in (0.0, 1.0, 2.5):
            expected = math.exp(-b)
            got = (1 << n) * env.tail_probability(shift_constant(n) + b)
            err = abs(got - expected) / expected
            worst = max(worst, err)
            cases += 1
            violations += not err <= 1e-12
    return CheckResult(
        "shift_identity",
        violations == 0,
        {"cases": cases, "violations": violations, "max_relative_error": worst},
    )


def _diag_varadhan_balance() -> CheckResult:
    cases = 0
    violations = 0
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0, 3.0):
        for k in range(1, 9):
            beta = 0.25 * k
            if alpha == 1.0:
                star = 0.0 if beta <= 1.0 else -LOG2
            else:
                star = -min(beta ** (1.0 / (alpha - 1.0)), (alpha * LOG2) ** (1.0 / alpha))
            balance = LOG2 - beta * star - rate_function(alpha, star)
            err = abs(free_energy_limit(alpha, beta) - balance)
            worst = max(worst, err)
            cases += 1
            violations += not err <= 1e-12
    return CheckResult(
        "varadhan_balance",
        violations == 0,
        {"cases": cases, "violations": violations, "max_error": worst},
    )


def _diag_pmf_normalization() -> CheckResult:
    cases = 0
    violations = 0
    worst = 0.0
    for b in (-2.0, 0.0, 2.0):
        total = sum(poisson_count_pmf(b, k) for k in range(201))
        err = abs(total - 1.0)
        worst = max(worst, err)
        cases += 1
        violations += not err <= 1e-10
    return CheckResult(
        "pmf_normalization",
        violations == 0,
        {"cases": cases, "violations": violations, "max_error": worst},
    )


_DIAG_CHECKS = {
    "bound_suite": _diag_bound_suite,
    "limit_continuity": _diag_limit_continuity,
    "shift_identity": _diag_shift_identity,
    "varadhan_balance": _diag_varadhan_balance,
    "pmf_normalization": _diag_pmf_normalization,
}


def _run_diagnostics(manifest: ExperimentManifest, workers: int):
    checks = [_DIAG_CHECKS[c["check"]]() for c in manifest.checks]
    rows = [
        (c.name, c.detail.get("cases", 0), c.detail.get("violations", 0)) for c in checks
    ]
    theory_rows = [
        (alpha, 0.25 * k, free_energy_limit(alpha, 0.25 * k))
        for alpha in (1.0, 2.0)
        for k in range(1, 9)
    ]
    tables = {
        "results.csv": (("check", "cases", "violations"), rows),
        "theory.csv": (("alpha", "beta", "limit"), theory_rows),
    }
    return tables, checks


_RUNNERS = {
    "free_energy": _run_free_energy,
    "rate_function": _run_rate_function,
    "marginals": _run_marginals,
    "exceedance": _run_exceedance,
    "pd_compare": _run_pd_compare,
    "diagnostics": _run_diagnostics,
}


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

    tables, checks = _RUNNERS[resolved.experiment](resolved, count)
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
