"""remlab benchmark: one workload, timed end to end, and a traced per-layer run.

Usage, from the root of a checkout that holds ``src/remlab``:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run has two parts.

1. The reference run: in this process, at workers=1, after one discarded
   warm-up run, with a span around every call into remlab's layers (see
   ``spans.py``).  Its CSV digests are the reference for the timed runs
   of the same seed, and it is the single-process baseline.
2. Timed runs, closed loop, one at a time, in ``SESSIONS`` fresh
   interpreters (``child.py``) one after the other.  Each imports remlab
   and parses the manifest (timed as set-up), then calls
   ``run_experiment`` at workers=2 (capped at the CPU count) back to back
   for its share of ``--seconds``.  A timed run fails if it raises, if a
   check fails, or if a CSV digest differs from the reference.  Medians
   over many warm runs are steadier than one cold run per interpreter on
   a shared machine; the cold part is what ``setup_s`` measures.

The shared host's speed drifts by 20-30% over minutes, far more than
the spread within a run.  So each session also times a fixed numpy and
scipy kernel that touches no remlab code (``child.host_probe_s``) after
set-up and after every call, and the end-to-end timings are scaled to
the reference host speed: each set-up, wall and CPU time is multiplied
by ``PROBE_REF_S`` over the median probe time of its session.  A change
to remlab moves them as it moves the clock; a slower host moves the
probe too and cancels out.  The timings as the clock read them, and the
probe times, are in the report line.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over the timed runs, scaled); with ``--trace 1`` it reports the per-layer
metrics from the reference run.  The line before it is a JSON report
with machine facts, sample counts, tail percentiles and failures.  The
tracing overhead is the measured cost of one wrapper call times the
number of spans: the difference between a traced and an untraced serial
run is far smaller than their run-to-run spread at these sizes.

Nothing under ``src/`` is modified; everything written goes to a scratch
directory in the checkout that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import digests
from spans import Tracer, traced, wrapper_cost_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = 2
SESSIONS = 5  # fresh interpreters per benchmark run, so set-up is timed SESSIONS times
SESSION_SLACK_S = 40  # beyond its budget, for set-up and one overlong call
MCONF = 1 << 20  # per-layer times are per 2**20 configurations
# child.host_probe_s on a calm 2-vCPU Xeon VM (median 0.043 s, lowest 0.040 s):
# the host speed the end-to-end timings are scaled to
PROBE_REF_S = 0.040

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "configs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "rng.uniform_block.ms_per_Mconf": "ms/Mconf",
    "rng.uniforms_per_config": "per_config",
    "environment.quantile.ms_per_Mconf": "ms/Mconf",
    "engine.energies_per_config": "per_config",
    "engine.reduce.ms_per_Mconf": "ms/Mconf",
    "engine.run_replica.s_p50": "s",
    "engine.run_replica.s_max": "s",
    "experiments.parallel_speedup": "x",
    "experiments.self_s": "s",
    "experiments.artifact_bytes": "bytes",
    "pointprocess.sample_pd_poisson.ms_per_draw": "ms/draw",
    "pointprocess.sample_pd_poisson.calls": "count",
    "pointprocess.sample_pd_stick.ms_per_draw": "ms/draw",
    "stats.s": "s",
    "manifest.load_ms": "ms",
    "setup.import_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class TimedRuns:
    calls: list = field(default_factory=list)  # per-call reports of runs that completed
    setups: list = field(default_factory=list)  # set-up seconds, one per session
    probes: list = field(default_factory=list)  # median host probe seconds, one per session
    peak_rss_mb: list = field(default_factory=list)  # one per session
    attempted: int = 0
    failures: list = field(default_factory=list)  # one message per failed run

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted


def serial_run(doc: dict, out_dir: Path, tracer: Tracer):
    """Run the manifest traced, in this process, at workers=1; returns (wall_s, outcome, error)."""
    from remlab.experiments import run_experiment
    from remlab.manifest import from_dict

    call = tracer.wrap("experiments.run_experiment", run_experiment)
    try:
        manifest = from_dict(doc)
        with traced(tracer):
            t0 = time.perf_counter()
            outcome = call(manifest, workers=1, output_dir=out_dir)
            wall = time.perf_counter() - t0
    except Exception as exc:  # the benchmark reports a failing program, it does not crash
        return None, None, f"reference run raised {exc!r}"
    return wall, outcome, None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REMLAB_WORKERS", None)  # resolve_workers reads it; workers is passed explicitly
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def session(manifest_path: Path, workers: int, out_dir: Path, budget_s: float):
    """One fresh interpreter running the manifest repeatedly; returns (report, error)."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), str(manifest_path), str(workers), str(out_dir),
           repr(spawned), repr(budget_s)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    timeout = budget_s + SESSION_SLACK_S
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the pool workers too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    return json.loads(out.strip().splitlines()[-1]), None


def timed_runs(doc: dict, reference: dict | None, seconds: float, workers: int, workdir: Path) -> TimedRuns:
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(doc))
    runs = TimedRuns()
    for index in range(SESSIONS):
        report, error = session(manifest_path, workers, workdir / f"session-{index}", seconds / SESSIONS)
        if report is None:
            runs.attempted += 1
            runs.failures.append(error)
            continue
        runs.setups.append(report["setup_s"])
        runs.probes.append(report["probe_s"])
        runs.peak_rss_mb.append(report["peak_rss_mb"])
        for call in report["calls"]:
            runs.attempted += 1
            if "error" in call:
                runs.failures.append(f"raised {call['error']}")
                continue
            runs.calls.append(dict(call, probe_s=report["probe_s"]))
            if call["failed_checks"]:
                runs.failures.append(f"checks failed: {call['failed_checks']}")
            elif call["digests"] != reference:
                runs.failures.append("CSV digests differ from the workers=1 reference")
    return runs


def tail_percentile(values: list) -> dict:
    """The median, and the highest percentile with ten samples beyond it (none below 11)."""
    ordered = sorted(values)
    count = len(ordered)
    out = {"p50": statistics.median(ordered), "samples": count, "tail": None}
    if count > 10:
        out["tail"] = {"percentile": 100.0 * (count - 10) / count, "value": ordered[count - 11]}
    return out


def measured(runs: TimedRuns) -> dict:
    """Timings as the clock read them, and the host probe beside them."""
    return {
        "setup_s": runs.setups,
        "wall_s": [c["wall_s"] for c in runs.calls],
        "cpu_s": [c["cpu_s"] for c in runs.calls],
        "probe_s": runs.probes,
    }


def scaled(runs: TimedRuns) -> dict:
    """Timings scaled to the reference host speed: times PROBE_REF_S over the session's probe."""
    return {
        "setup_s": [t * PROBE_REF_S / p for t, p in zip(runs.setups, runs.probes)],
        "wall_s": [c["wall_s"] * PROBE_REF_S / c["probe_s"] for c in runs.calls],
        "cpu_s": [c["cpu_s"] * PROBE_REF_S / c["probe_s"] for c in runs.calls],
    }


def end_to_end(runs: TimedRuns, configs: int) -> dict:
    out = {name: statistics.median(values) for name, values in scaled(runs).items()}
    out["configs_per_s"] = configs / out["wall_s"]
    out["peak_rss_mb"] = statistics.median(runs.peak_rss_mb)
    out["pass_frac"] = 1.0 - runs.failed_frac
    return out


def per_layer(tracer: Tracer, traced_wall: float, timed_wall: float, configs: int,
              artifact_bytes: int, load_ms: float, import_s: float) -> dict:
    totals = tracer.totals()
    empty = {"calls": 0, "self_s": 0.0, "items": 0, "durations": [0.0]}

    def get(name):
        return totals.get(name, empty)

    mconf = configs / MCONF
    replica = get("engine.run_replica")
    poisson = get("pointprocess.sample_pd_poisson")
    stick = get("pointprocess.sample_pd_stick")
    return {
        "rng.uniform_block.ms_per_Mconf": 1e3 * get("rng.uniform_block")["self_s"] / mconf,
        "rng.uniforms_per_config": get("rng.uniform_block")["items"] / configs,
        "environment.quantile.ms_per_Mconf": 1e3 * get("environment.quantile")["self_s"] / mconf,
        "engine.energies_per_config": get("engine.energy_block")["items"] / configs,
        # run_replica's self time excludes energy_block: it is the reductions
        "engine.reduce.ms_per_Mconf": 1e3 * replica["self_s"] / mconf,
        "engine.run_replica.s_p50": statistics.median(replica["durations"]),
        "engine.run_replica.s_max": max(replica["durations"]),
        "experiments.parallel_speedup": traced_wall / timed_wall,
        "experiments.self_s": get("experiments.run_experiment")["self_s"],
        "experiments.artifact_bytes": artifact_bytes,
        "pointprocess.sample_pd_poisson.ms_per_draw": 1e3 * poisson["self_s"] / max(1, poisson["calls"]),
        "pointprocess.sample_pd_poisson.calls": poisson["calls"],
        "pointprocess.sample_pd_stick.ms_per_draw": 1e3 * stick["self_s"] / max(1, stick["calls"]),
        "stats.s": sum((t["self_s"] for name, t in totals.items() if name.startswith("stats.")), 0.0),
        "manifest.load_ms": load_ms,
        "setup.import_s": import_s,
        "trace.overhead_frac": len(tracer.spans) * wrapper_cost_s() / traced_wall,
    }


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _steal_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    line = _read("/proc/stat")
    if line is None or not line.startswith("cpu "):
        return None
    ticks = [int(v) for v in line.splitlines()[0].split()[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    packed = _read(ROOT / ".git" / "packed-refs") or ""
    return _read(ROOT / ".git" / ref) or next(
        (line.split()[0] for line in packed.splitlines() if line.endswith(" " + ref)), None)


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    if cpu_max is None:  # cgroup v1
        quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = None if quota is None else f"{'max' if quota == '-1' else quota} {period}"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _median_load_ms(text: str, repeats: int = 21) -> float:
    from remlab.manifest import from_json

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        from_json(text)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run(name: str, seed: int, seconds: float, n: int | None = None):
    """Run one workload; returns (report, end-to-end result, per-layer result)."""
    t0 = time.perf_counter()
    import remlab.experiments  # noqa: F401  (cold import, timed for setup.import_s)

    import_s = time.perf_counter() - t0
    workload = WORKLOADS[name]
    doc = workload.build(seed, n)
    configs = doc["replicas"] << doc["env"]["n"]
    workers = min(WORKERS, os.cpu_count() or 1)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        # a first, discarded run, so the traced one is warm like most timed runs
        serial_run(doc, workdir / "warm-up", Tracer())
        tracer = Tracer()
        ref_dir = workdir / "reference"
        traced_wall, outcome, error = serial_run(doc, ref_dir, tracer)
        reference = digests(ref_dir) if error is None else None
        if error is None and not outcome.passed:
            error = f"reference checks failed: {[c.name for c in outcome.checks if not c.passed]}"
        steal0 = _steal_ticks()
        runs = timed_runs(doc, reference, seconds, workers, workdir)
        steal1 = _steal_ticks()
        if not runs.calls:
            raise SystemExit(f"no timed run completed: {runs.failures[:3]}")
        e2e = end_to_end(runs, configs)
        layers = None
        if traced_wall is not None:
            artifact_bytes = sum(p.stat().st_size for p in ref_dir.iterdir())
            timed_wall = statistics.median(measured(runs)["wall_s"])
            layers = per_layer(tracer, traced_wall, timed_wall, configs, artifact_bytes,
                               _median_load_ms(json.dumps(doc)), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": name,
        "why": workload.why,
        "moves": workload.moves,
        "machine": machine_facts(seed),
        "workers": workers,
        "configs": configs,
        "reference": {"wall_s": traced_wall, "error": error,
                      "unattributed_s": None if traced_wall is None else traced_wall - sum(tracer.self_times())},
        "timed_runs": runs.attempted,
        # CPU time the hypervisor gave to others during the timed runs; wall
        # times rise with it while cpu_s barely moves
        "steal_frac": None if None in (steal0, steal1) or steal1[1] == steal0[1]
        else (steal1[0] - steal0[0]) / (steal1[1] - steal0[1]),
        "failed_frac": runs.failed_frac,
        "failures": runs.failures[:5],
        "timings": {name: tail_percentile(values) for name, values in scaled(runs).items()},
        "measured": {name: tail_percentile(values) for name, values in measured(runs).items()},
    }

    def result(metrics):
        return {
            "correct": error is None and not runs.failures,
            "attempted": runs.attempted,
            "failed": len(runs.failures),
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in (metrics or {}).items()},
        }

    return report, result(e2e), result(layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its sessions and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "remlab" / "__init__.py").is_file():
        print(f"remlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, e2e, layers = run(args.workload, args.seed, args.seconds)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(layers if args.trace else e2e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
