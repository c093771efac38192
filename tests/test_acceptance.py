"""End-to-end acceptance runs against the bundled verification manifests.

The session fixture executes every built-in manifest once at workers=1
(statistical checks get the standard single retry on a derived seed);
each test then asserts one headline claim and prints a pass/fail line
with the measured numbers.  Two further tests exercise the properties
that need no manifest: agreement between the streaming engine and the
brute-force oracle on randomized ``ReplicaSpec`` inputs, and
byte-identical artifacts across worker counts.
"""

import json

import numpy as np
import pytest

import remlab.experiments
from naive_oracle import naive_replica
from remlab import engine
from remlab.engine import ReplicaSpec, run_replica
from remlab.environment import Environment
from remlab.experiments import REGISTRY, _map_tasks, _spectrum_stats, run_experiment
from remlab.manifest import from_dict
from remlab.verify import BUILTIN_NAMES, builtin_manifest, run_builtin


@pytest.fixture(scope="session")
def verified(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    return {name: run_builtin(name, workers=1, output_root=root) for name in BUILTIN_NAMES}


def fetch(record, check_name):
    for check in record.outcome.checks:
        if check.name == check_name:
            return check
    raise KeyError(f"{record.name} has no check {check_name!r}; has "
                   f"{[c.name for c in record.outcome.checks]}")


def announce(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_free_energy_high_temperature(verified):
    record = verified["free_energy_curve"]
    check = fetch(record, "mean_within(beta=0.5)")
    d = check.detail
    announce(
        "free energy alpha=1 beta=0.5",
        check.passed,
        f"mean={d['mean']:.6f} target={d['target']:.6f} tol={d['tol']} "
        f"runtime={record.duration:.1f}s retried={record.retried}",
    )
    assert record.duration < 120.0
    assert check.passed


def test_free_energy_low_temperature(verified):
    record = verified["free_energy_curve"]
    check = fetch(record, "mean_within(beta=2)")
    d = check.detail
    announce(
        "free energy alpha=1 beta=2",
        check.passed,
        f"mean={d['mean']:.6f} target={d['target']:.6f} tol={d['tol']} "
        f"retried={record.retried}",
    )
    assert check.passed


def test_free_energy_gaussian_pair(verified):
    record = verified["free_energy_gaussian"]
    ok = True
    for name in ("mean_within(beta=0.5)", "mean_within(beta=2)"):
        check = fetch(record, name)
        d = check.detail
        announce(
            f"free energy alpha=2 beta={d['beta']:g}",
            check.passed,
            f"mean={d['mean']:.6f} target={d['target']:.6f} tol={d['tol']} "
            f"retried={record.retried}",
        )
        ok = ok and check.passed
    assert ok


def test_free_energy_alpha15_pair(verified):
    record = verified["free_energy_alpha15"]
    ok = True
    for name in ("mean_within(beta=0.5)", "mean_within(beta=2)"):
        check = fetch(record, name)
        d = check.detail
        announce(
            f"free energy alpha=1.5 beta={d['beta']:g}",
            check.passed,
            f"mean={d['mean']:.6f} target={d['target']:.6f} tol={d['tol']} "
            f"runtime={record.duration:.1f}s retried={record.retried}",
        )
        ok = ok and check.passed
    assert ok


def test_free_energy_curve_shape(verified):
    record = verified["free_energy_curve"]
    check = fetch(record, "curve_shape")
    d = check.detail
    announce(
        "free energy curve shape alpha=1",
        check.passed,
        f"convex={d['convex']} nondecreasing={d['nondecreasing']} "
        f"max_dev={d['max_deviation']:.4f} at beta={d['max_deviation_beta']:g} "
        f"retried={record.retried}",
    )
    assert check.passed


def test_rate_function_window(verified):
    record = verified["rate_window"]
    check = fetch(record, "pooled_rate_in(0.2,0.3)")
    d = check.detail
    announce(
        "rate estimate on (0.2,0.3)",
        check.passed,
        f"pooled_rate={d['pooled_rate']:.4f} range=[{d['low']},{d['high']}] "
        f"hits={d['total_hits']} retried={record.retried}",
    )
    assert check.passed


def test_rate_function_vanishing_window(verified):
    record = verified["rate_window"]
    check = fetch(record, "zero_hits(0.8,0.9)")
    announce(
        "no mass on (0.8,0.9)",
        check.passed,
        f"max_hits={check.detail['max_hits']} retried={record.retried}",
    )
    assert check.passed


def test_concentration_outside_mass(verified):
    record = verified["concentration"]
    ok = True
    for name, expect in (("outside_fraction_below(0.136)", 8), ("outside_fraction_below(0.1)", 7)):
        check = fetch(record, name)
        d = check.detail
        announce(
            f"concentration threshold {d['threshold']:g}",
            check.passed,
            f"replicas_below={d['replicas_below']}/8 needed={expect} "
            f"retried={record.retried}",
        )
        ok = ok and check.passed
    assert ok


def test_marginals_uniform_laplace(verified):
    record = verified["marginals_laplace"]
    check = fetch(record, "max_marginal_deviation(beta=0.5)")
    d = check.detail
    announce(
        "uniform marginals alpha=1",
        check.passed,
        f"max_dev={d['max_deviation']:.5f} tol={d['tol']} retried={record.retried}",
    )
    assert check.passed


def test_marginals_uniform_gaussian(verified):
    record = verified["marginals_gaussian"]
    check = fetch(record, "max_marginal_deviation(beta=0.8)")
    d = check.detail
    announce(
        "uniform marginals alpha=2",
        check.passed,
        f"max_dev={d['max_deviation']:.5f} tol={d['tol']} retried={record.retried}",
    )
    assert check.passed


def test_exceedance_poisson_law(verified):
    record = verified["exceedance_poisson"]
    ok = True
    zero = fetch(record, "count_zero_prob(b=0)")
    announce(
        "exceedance P(count=0)",
        zero.passed,
        f"observed={zero.detail['observed']:.4f} target={zero.detail['target']:.4f} "
        f"tol={zero.detail['tol']} retried={record.retried}",
    )
    ok = ok and zero.passed
    chi = fetch(record, "count_chi_square(b=0)")
    announce(
        "exceedance count chi-square",
        chi.passed,
        f"statistic={chi.detail['statistic']:.3f} p={chi.detail['p_value']:.4f} "
        f"level={chi.detail['level']} retried={record.retried}",
    )
    ok = ok and chi.passed
    ks = fetch(record, "positions_ks(b=0)")
    announce(
        "exceedance positions KS",
        ks.passed,
        f"statistic={ks.detail['statistic']:.4f} p={ks.detail['p_value']:.4f} "
        f"points={ks.detail['sample_sizes'][0]} retried={record.retried}",
    )
    ok = ok and ks.passed
    assert ok


def test_gibbs_weights_match_pd_poisson(verified):
    record = verified["pd_compare"]
    ok = True
    for name in ("ks_w1", "ks_sumsq"):
        check = fetch(record, name)
        d = check.detail
        announce(
            f"Gibbs spectrum vs PD sampler ({name})",
            check.passed,
            f"statistic={d['statistic']:.4f} bound={d['max_statistic']} "
            f"retried={record.retried}",
        )
        ok = ok and check.passed
    assert ok


def test_pd_poisson_matches_stick(verified):
    record = verified["pd_compare"]
    check = fetch(record, "stick_ks_w1")
    d = check.detail
    announce(
        "PD point-process vs stick-breaking",
        check.passed,
        f"statistic={d['statistic']:.4f} bound={d['max_statistic']} "
        f"retried={record.retried}",
    )
    assert check.passed


def _random_spec(rng, chunk):
    alpha = float(rng.choice([1.0, 1.0, 1.5, 2.0, 2.5, 3.0]))
    n = int(rng.integers(4, 13))
    betas = list(np.round(rng.uniform(0.05, 2.5, rng.integers(1, 4)), 6))
    if rng.random() < 0.2:
        betas.append(0.0)
    intervals = []
    for _ in range(rng.integers(0, 3)):
        low = float(np.round(rng.uniform(-1.5, 1.2), 6))
        intervals.append((low, low + float(np.round(rng.uniform(0.05, 1.0), 6))))
    b_levels = [float(v) for v in np.round(rng.uniform(-2.0, 3.0, rng.integers(0, 3)), 6)]
    return ReplicaSpec(
        env=Environment(alpha, n),
        betas=tuple(betas),
        k_marginal=int(rng.integers(0, min(3, n) + 1)),
        intervals=tuple(intervals),
        b_levels=tuple(b_levels),
        # no more than a chunk holds, as top_m <= 2^20 is with the engine's own chunk
        top_m=min(int(rng.integers(1, 65)), chunk),
        master_seed=int(rng.integers(0, 1 << 32)),
        replica_id=int(rng.integers(0, 1000)),
    )


class InlinePool:
    """Stands in for the process pool: records the tasks, runs them in this process."""

    tasks = []

    def __init__(self, max_workers, **options):
        pass

    def shutdown(self, cancel_futures=False):
        pass

    def map(self, fn, items, chunksize=1):
        items = list(items)
        InlinePool.tasks.extend(items)
        return map(fn, items)


def test_engine_matches_naive_oracle_random_specs(monkeypatch):
    # The default chunk holds every spec here in one chunk; 64 and 7 split
    # them, so the per-beta sums are folded across chunk boundaries.  Each
    # spec also runs through the task map at workers=2, where a replica of
    # several chunks is split into one task per chunk and folded here.
    monkeypatch.setattr(remlab.experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    for chunk in (1 << 20, 64, 7):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        rng = np.random.default_rng(424242)
        worst = 0.0
        split = 0
        for _ in range(50):
            spec = _random_spec(rng, chunk)
            InlinePool.tasks = []
            (from_tasks,), _ = _map_tasks([spec], [], 2)
            # a replica of one chunk is one task: it stays in this process
            assert InlinePool.tasks == [
                (spec, lo) for lo in range(0, spec.size, chunk)
            ] * (spec.size > chunk)
            split += len(InlinePool.tasks) > 1
            want = naive_replica(spec)
            for got in (run_replica(spec), from_tasks):
                worst = max(worst, abs(got.min_energy - want["min_energy"]))
                assert abs(got.min_energy - want["min_energy"]) <= 1e-10
                for beta in spec.betas:
                    worst = max(worst, abs(got.log_z[beta] - want["log_z"][beta]))
                    assert abs(got.log_z[beta] - want["log_z"][beta]) <= 1e-10
                    assert np.allclose(
                        got.marginal[beta], want["marginal"][beta], rtol=0.0, atol=1e-10
                    )
                    weights, tail = want["spectrum"][beta]
                    assert got.spectrum[beta].entries.size == weights.size
                    assert np.allclose(got.spectrum[beta].entries, weights, rtol=0.0, atol=1e-10)
                    assert abs(got.spectrum[beta].deficit - tail) <= 1e-10
                for interval in spec.intervals:
                    assert got.interval_hits[interval] == want["interval_hits"][interval]
                for level in spec.b_levels:
                    assert np.array_equal(got.exceedance[level], want["exceedance"][level])
        announce(
            "engine vs naive oracle",
            True,
            f"CHUNK={chunk}, 50 random specs ({split} split into chunk tasks), "
            f"worst |diff|={worst:.2e}",
        )


def test_pd_compare_replicas_send_back_their_stats(monkeypatch):
    # A pd_compare replica's result from the task map is (w1, sumsq) of its
    # spectrum, bit for bit, whether a pool worker finished it or, for a
    # replica of several chunks, this process did after the fold.
    keep = REGISTRY["pd_compare"].keep
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    env = Environment(1.0, 10)
    specs = [ReplicaSpec(env=env, betas=(2.0,), master_seed=7, replica_id=i) for i in range(5)]
    want = [_spectrum_stats(run_replica(spec).spectrum[2.0].entries) for spec in specs]
    for workers in (1, 2):
        kept, processes = _map_tasks(specs, [], workers, keep)
        assert processes == workers
        assert [tuple(map(float.hex, pair)) for pair in kept] == [
            tuple(map(float.hex, pair)) for pair in want
        ]
    # the pool of 2 kept from the real run above is replaced by a stand-in
    remlab.experiments._discard_pool()
    monkeypatch.setattr(remlab.experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(engine, "CHUNK", 1 << 8)
    InlinePool.tasks = []
    kept, _ = _map_tasks(specs, [], 2, keep)
    assert len(InlinePool.tasks) == 4 * len(specs)  # one task per chunk
    split = [_spectrum_stats(run_replica(spec).spectrum[2.0].entries) for spec in specs]
    assert [tuple(map(float.hex, pair)) for pair in kept] == [
        tuple(map(float.hex, pair)) for pair in split
    ]


# One replica of two chunks each, so that at workers=8 the chunks run as
# tasks of their own and positions, hits and the top-m pool are merged
# across them.
ONE_REPLICA_DOCS = {
    "exceedance": {"b_levels": [-2.0, 0.0]},
    "rate_function": {"intervals": [[-0.3, 0.1], [0.2, 0.4]]},
    "pd_compare": {
        "betas": [2.0],
        "pd": {"m": 0.5, "epsilon_mass": 0.01, "draws": 4, "stick_draws": 2, "stick_length": 10},
    },
}


def assert_same_csvs(label, base, rerun):
    base_files = sorted(p.name for p in base.glob("*.csv"))
    rerun_files = sorted(p.name for p in rerun.glob("*.csv"))
    assert base_files == rerun_files and base_files
    for filename in base_files:
        identical = (base / filename).read_bytes() == (rerun / filename).read_bytes()
        announce(f"workers 1 vs 8, {label}/{filename}", identical, "byte-identical")
        assert identical


def test_worker_count_invariance(verified, tmp_path_factory):
    root = tmp_path_factory.mktemp("workers8")
    names = (
        "free_energy_curve",
        "free_energy_alpha15",
        "rate_window",
        "marginals_laplace",
        "pd_compare",
    )
    for name in names:
        rerun = run_experiment(builtin_manifest(name), workers=8, output_dir=root / name)
        assert_same_csvs(name, verified[name].first_outcome.output_dir, rerun.output_dir)
    for name, fields in ONE_REPLICA_DOCS.items():
        manifest = from_dict(
            {"experiment": name, "env": {"alpha": 1.0, "n": 21}, "master_seed": 5, **fields}
        )
        base, rerun = (
            run_experiment(manifest, workers=w, output_dir=root / f"one-{name}-{w}").output_dir
            for w in (1, 8)
        )
        summary = json.loads((rerun / "summary.json").read_text(encoding="utf-8"))
        assert summary["processes"] > 1
        assert_same_csvs(f"one replica {name}", base, rerun)
