"""Self-test of the benchmark harness at tiny n.

Run from the repository root:  python3 -m pytest perfbench/test_harness.py
It takes about a minute: every timed run starts fresh interpreters.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_N = 10
SECONDS = 0.3  # a few calls per session at this size


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=run.ROOT) as path:
        yield Path(path)


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    named = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(named) == sorted(run.UNITS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.UNITS[metric["name"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_end_to_end(name):
    report, e2e, layers = run.run(name, seed=42, seconds=SECONDS, n=TINY_N)
    assert e2e["correct"] and layers["correct"], report["failures"]
    assert e2e["attempted"] >= run.SESSIONS and e2e["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(e2e["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(layers["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in e2e["metrics"].values():
        assert metric["value"] > 0
    values = {k: v["value"] for k, v in layers["metrics"].items()}
    # one uniform per energy, and at least one energy per configuration
    assert values["rng.uniforms_per_config"] == values["engine.energies_per_config"] >= 1.0
    assert (values["pointprocess.sample_pd_poisson.calls"] > 0) == (name == "pd-frozen")
    assert report["machine"]["seed"] == 42


def test_timings_scaled_by_session_probe():
    slow = 2.0 * run.PROBE_REF_S  # a host at half the reference speed
    runs = run.TimedRuns(calls=[{"wall_s": 1.0, "cpu_s": 2.0, "probe_s": slow}], setups=[3.0], probes=[slow],
                         peak_rss_mb=[100.0], attempted=1)
    assert run.scaled(runs) == {"setup_s": [pytest.approx(1.5)], "wall_s": [pytest.approx(0.5)],
                                "cpu_s": [pytest.approx(1.0)]}
    assert run.end_to_end(runs, configs=1000)["configs_per_s"] == pytest.approx(2000.0)


def test_self_times_and_remainder_sum_to_wall(workdir):
    tracer = Tracer()
    wall, outcome, error = run.serial_run(WORKLOADS["pd-frozen"].build(7, TINY_N), workdir, tracer)
    assert error is None and outcome.passed
    own = tracer.self_times()
    assert min(own) >= 0.0
    remainder = wall - sum(own)
    assert sum(own) + remainder == pytest.approx(wall, abs=1e-12)
    assert 0.0 <= remainder < 0.01 * wall
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == ["experiments.run_experiment"]
    assert sum(own) == pytest.approx(roots[0].end - roots[0].start, abs=1e-9)
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "rng.uniform_block"}
    assert parents == {"engine.energy_block"}


def _reference(doc, workdir):
    wall, outcome, error = run.serial_run(doc, workdir / "reference", Tracer())
    assert error is None
    return outcome, run.digests(workdir / "reference")


def test_forced_check_failure_raises_failed_frac(workdir):
    doc = WORKLOADS["rate-alpha1.5"].build(42, TINY_N)
    doc["checks"][0]["high"] = doc["checks"][0]["low"] + 1e-12
    outcome, reference = _reference(doc, workdir)
    assert not outcome.passed
    runs = run.timed_runs(doc, reference, SECONDS, run.WORKERS, workdir)
    assert runs.failed_frac == 1.0
    assert all(f.startswith("checks failed") for f in runs.failures)


def test_forced_digest_mismatch_raises_failed_frac(workdir):
    doc = WORKLOADS["rate-alpha1.5"].build(42, TINY_N)
    outcome, reference = _reference(doc, workdir)
    assert outcome.passed
    assert run.timed_runs(doc, reference, SECONDS, run.WORKERS, workdir).failed_frac == 0.0
    corrupted = dict(reference, **{"results.csv": "0" * 64})
    runs = run.timed_runs(doc, corrupted, SECONDS, run.WORKERS, workdir)
    assert runs.failed_frac == 1.0
    assert all("digests differ" in f for f in runs.failures)
