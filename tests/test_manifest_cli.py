import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import itertools
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import remlab
import remlab.engine
import remlab.experiments
import remlab.verify
from remlab.cli import main
from remlab.experiments import (
    _LEVEL,
    REGISTRY,
    RunOutcome,
    _draw,
    _finished,
    resolve_workers,
    run_experiment,
)
from remlab.manifest import (
    KINDS,
    ExperimentManifest,
    ManifestError,
    PDBlock,
    from_dict,
    from_json,
    load,
)
from remlab.rng import MAX_SEED, RETRY_SEED_INCREMENT, seed_derivation, stream_generator
from remlab.stats import DEFAULT_LEVEL, TestReport
from remlab.theory import critical_beta, free_energy_limit
from remlab.verify import BUILTIN_NAMES, builtin_manifest, run_builtin

# Key layout golden values, fixed at first release: master_seed=42,
# replica_id 0..7, stream 0..1.  These must never change.
GOLDEN_KEYS = [
    774763251095801167872,
    774763251095801167873,
    774763251095801233408,
    774763251095801233409,
    774763251095801298944,
    774763251095801298945,
    774763251095801364480,
    774763251095801364481,
    774763251095801430016,
    774763251095801430017,
    774763251095801495552,
    774763251095801495553,
    774763251095801561088,
    774763251095801561089,
    774763251095801626624,
    774763251095801626625,
]


def tiny_doc(**overrides):
    doc = {
        "experiment": "free_energy",
        "env": {"alpha": 1.0, "n": 8},
        "betas": [0.5],
        "replicas": 3,
        "master_seed": 11,
        "checks": [{"check": "mean_within", "beta": 0.5, "tol": 0.5}],
    }
    doc.update(overrides)
    return doc


def as_pd(doc, checks=(), **pd):
    doc.update(experiment="pd_compare", betas=[2.0], checks=list(checks),
               pd={"m": 0.5, "draws": 5, **pd})


def as_rate(doc, checks=(), intervals=((0.1, 0.2),)):
    doc.update(experiment="rate_function", betas=[], checks=list(checks),
               intervals=[list(pair) for pair in intervals])


def as_exceedance(doc, checks=(), b_levels=(0.0,), alpha=1.0):
    doc.update(experiment="exceedance", env={"alpha": alpha, "n": 8}, betas=[],
               checks=list(checks), b_levels=list(b_levels))


def as_wide_marginals(doc):
    doc.update(experiment="marginals", env={"alpha": 1.0, "n": 30}, k_marginal=30,
               betas=[0.5, 2], checks=[])


def as_thin_chi_square(doc, b, replicas):
    # count_chi_square whose expected counts, replicas * P(count = k), are too thin
    as_exceedance(doc, [{"check": "count_chi_square", "b": b}], (b,))
    doc.update(replicas=replicas)


def test_seed_derivation_golden_keys():
    keys = [seed_derivation(42, r, s) for r in range(8) for s in (0, 1)]
    assert keys == GOLDEN_KEYS


def test_round_trip_all_builtins():
    for name in BUILTIN_NAMES:
        manifest = builtin_manifest(name)
        assert from_json(manifest.to_json()) == manifest


def test_round_trip_full_manifest():
    doc = {
        "experiment": "pd_compare",
        "env": {"alpha": 1.0, "n": 12},
        "betas": [2.0],
        "replicas": 5,
        "master_seed": 99,
        "top_m": 64,
        "pd": {
            "m": 0.5,
            "epsilon_mass": 0.001,
            "draws": 7,
            "truncation_b": -1.0,
            "stick_draws": 3,
            "stick_length": 50,
        },
        "checks": [{"check": "ks_w1", "max_statistic": 0.9}],
    }
    manifest = from_dict(doc)
    assert from_json(manifest.to_json()) == manifest
    assert manifest.pd.truncation_b == -1.0


def test_builtin_names_cover_all_experiments():
    experiments = {builtin_manifest(name).experiment for name in BUILTIN_NAMES}
    assert experiments == set(REGISTRY)


def test_builtin_names_match_manifest_files_and_readme():
    # a manifest file left out of BUILTIN_NAMES would never be verified
    files = {path.stem for path in (Path(remlab.__file__).parent / "manifests").glob("*.json")}
    assert set(BUILTIN_NAMES) == files
    # README "Built-in verification manifests" rows: | `name` | claim |, in BUILTIN_NAMES order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Built-in verification manifests", 1)[1].split("\n\n", 2)[1]
    documented = [re.match(r"\| `(\w+)`", line).group(1) for line in table.splitlines()[2:]]
    assert tuple(documented) == BUILTIN_NAMES


def test_no_two_builtins_stream_the_same_replicas():
    # two built-ins of one experiment on the same key would stream the same
    # energies twice; their checks belong in one manifest
    keys = [
        (m.experiment, m.alpha, m.n, m.master_seed) for m in map(builtin_manifest, BUILTIN_NAMES)
    ]
    assert len(set(keys)) == len(keys), sorted(keys)


def test_no_experiment_reads_betas_with_cuts():
    # the engine draws the uniforms of a spec with betas and with intervals or
    # b levels twice, once for each; no manifest may ask for that
    for experiment, entry in REGISTRY.items():
        assert not ("betas" in entry.fields and {"intervals", "b_levels"} & set(entry.fields)), (
            experiment
        )


def test_readme_checks_table_matches_registry():
    # README "Checks vocabulary" rows: experiment | `check`, ... | `param`, ...: text,
    # each check once, in the registry's order, with its parameters in manifest order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Checks vocabulary", 1)[1].split("\n\n", 2)[1]
    documented = []
    for line in table.splitlines()[2:]:
        experiment, checks, params = (cell.strip() for cell in line.strip("|").split("|"))
        names = tuple(re.findall(r"`(\w+)`", params.split(":")[0]))
        documented += [(experiment, check, names) for check in re.findall(r"`(\w+)`", checks)]
    registered = [
        (experiment, name, tuple(spec.params))
        for experiment, entry in REGISTRY.items()
        for name, spec in entry.checks.items()
    ]
    assert documented == registered


def test_registry_table_is_self_consistent():
    # a typo in the REGISTRY table fails here, not when a manifest first reaches it
    manifest_fields = {f.name for f in dataclasses.fields(ExperimentManifest)}
    pd_fields = {f.name for f in dataclasses.fields(PDBlock)}
    for experiment, entry in REGISTRY.items():
        assert set(entry.fields) <= manifest_fields, experiment
        for name, spec in entry.checks.items():
            manifest, data, *params = inspect.signature(spec.evaluate).parameters.values()
            # _evaluate decides a level test, so its evaluate is not passed the level
            assert [p.name for p in params] == [k for k in spec.params if k != "level"], name
            assert spec.params.get("level", _LEVEL) is _LEVEL, name
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), name
            if spec.needs:  # (field, least): a manifest list or a "pd.<count>"
                head, _, count = spec.needs[0].partition(".")
                assert count in pd_fields if count else head in manifest_fields, name
                assert isinstance(spec.needs[1], int) and spec.needs[1] >= 1, name


def test_every_declared_kind_is_known():
    declared = {
        f.metadata["kind"].strip("[]")
        for cls in (ExperimentManifest, PDBlock)
        for f in dataclasses.fields(cls)
        if "kind" in f.metadata
    }
    for entry in REGISTRY.values():
        declared |= {kind for kind in entry.fields.values() if isinstance(kind, str)}
        declared |= {kind for spec in entry.checks.values() for kind, _ in spec.params.values()}
    assert declared <= set(KINDS)


def test_package_all_matches_its_bindings():
    public = {
        name for name, value in vars(remlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(remlab.__all__) == sorted(public | {"__version__"})


# Public methods that only the tests use, kept for the open ROADMAP item
# that will use them inside the package.
TEST_ONLY_METHODS = {
    "Environment.interval_probability",  # item 7: finite-n theory of rate_window
    "WeightSequence.deficit",  # item 14: the PD samplers' retirement
}


def test_every_export_is_used_inside_the_package():
    # an export, or a public method or property of a class of the package,
    # that no module of the package names, imports included, is public API
    # that only the tests use
    used, methods = set(), set()
    for path in Path(remlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update(
                    (node.name, item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
            if path.name == "__init__.py":
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    assert sorted(set(remlab.__all__) - used - {"__version__"}) == []
    assert len(methods) > len(TEST_ONLY_METHODS)
    unused = {f"{cls}.{name}" for cls, name in methods if name not in used}
    assert sorted(unused) == sorted(TEST_ONLY_METHODS)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_manifest("nonexistent")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(replicas=0), "replicas"),
        (lambda d: d.update(replicas=2.5), "replicas"),
        (lambda d: d.update(env={"alpha": 1.0, "n": 31}), "env.n"),
        (lambda d: d.update(env={"alpha": 0.9, "n": 8}), "env.alpha"),
        # beyond the tested range; alpha * n**(alpha - 1) overflows at 500
        (lambda d: d.update(env={"alpha": 500, "n": 8}), "env.alpha: expected alpha in [1, 100]"),
        (lambda d: d.update(env={"alpha": 1.0}), "env"),
        (lambda d: d.update(bogus=1), "unknown keys"),
        (lambda d: d.update(experiment="melt"), "experiment"),
        (lambda d: d.update(experiment=["free_energy"]), "expected one of"),
        (lambda d: d.update(checks=[{"check": ["mean_within"]}]), "checks[0].check"),
        (lambda d: d.update(betas=[]), "betas"),
        (lambda d: d.update(betas=[0.5, -1.0]), "betas[1]"),
        # a repeated beta: its curve slope divides by zero, its marginals double
        (lambda d: d.update(betas=[0.5, 0.5, 2.0], checks=[{"check": "curve_shape"}]),
         "betas[1]: repeats the beta 0.5"),
        (lambda d: d.update(experiment="marginals", k_marginal=2, betas=[0.5, 2.0, 0.5], checks=[]),
         "betas[2]: repeats the beta 0.5"),
        (lambda d: d.update(master_seed=-1), "master_seed"),
        (lambda d: d.update(master_seed=1 << 64), "master_seed"),
        (lambda d: d.update(k_marginal=9), "k_marginal"),
        # at most 20 marginal spins, the bits of a chunk: 30 would ask for
        # 2**30 floats per beta and 2**31 CSV rows
        (as_wide_marginals, "k_marginal: expected an integer in [0, min(n, 20)]"),
        (lambda d: d.update(top_m=0), "top_m"),
        # more than a chunk's energies: each chunk keeps min(top_m, 2^n) until the fold
        (lambda d: (as_pd(d), d.update(top_m=(1 << 20) + 1)),
         "top_m: expected an integer in [1, 2^20], got 1048577"),
        # where and on how many processes a run goes is no manifest field
        (lambda d: d.update(workers=2), "workers"),
        (lambda d: d.update(workers="auto"), "workers"),
        (lambda d: d.update(checks=[{"check": "ks_w1", "max_statistic": 0.1}]), "checks[0]"),
        (lambda d: d.update(checks=[{"check": "mean_within", "beta": 0.7, "tol": 0.1}]), "beta"),
        (lambda d: d.update(checks=[{"check": "mean_within", "beta": 0.5}]), "tol"),
        # a field the experiment does not read must stay empty
        (
            lambda d: d.update(experiment="rate_function", intervals=[[0.1, 0.2]], checks=[]),
            "betas: not read by rate_function",
        ),
        (
            lambda d: d.update(experiment="exceedance", b_levels=[0.0], checks=[]),
            "betas: not read by exceedance",
        ),
        # an experiment that no longer exists
        (lambda d: d.update(experiment="diagnostics", checks=[]), "experiment: expected one of"),
        (lambda d: d.update(intervals=[[0.1, 0.2]]), "intervals: not read by free_energy"),
        (lambda d: d.update(b_levels=[-3.0]), "b_levels: not read by free_energy"),
        (lambda d: d.update(k_marginal=1), "k_marginal: not read by free_energy"),
        (lambda d: d.update(pd={"m": 0.5, "draws": 5}), "pd: not read by free_energy"),
        (lambda d: d.update(top_m=64), "top_m: not read by free_energy"),
        # the pd block
        (lambda d: as_pd(d, epsilon_mass=0), "pd.epsilon_mass:"),
        # an epsilon_mass whose window, at a low top point, outgrows the point budget
        (lambda d: as_pd(d, epsilon_mass=1e-12), "pd.epsilon_mass: 1e-12 at beta=2.0"),
        (lambda d: as_pd(d, epsilon_mass=1e-7), "pd.epsilon_mass: 1e-07 at beta=2.0"),
        (lambda d: (as_pd(d, m=0.8), d.update(betas=[1.25])),
         "pd.epsilon_mass: 1e-06 at beta=1.25"),
        (lambda d: (as_pd(d, m=2 / 3), d.update(betas=[1.5])),
         "pd.epsilon_mass: 1e-06 at beta=1.5"),
        (lambda d: as_pd(d, draws=0), "pd.draws:"),
        # ids that no stream key holds: replica and draw ids lie below 2^48,
        # and the Poisson draws' ids run to draws + stick_draws - 1
        (lambda d: d.update(replicas=2**48 + 5), "replicas: expected an integer in [1, 2^48]"),
        (lambda d: as_pd(d, draws=2**48 + 5), "pd.draws: expected draws + stick_draws <= 2^48"),
        (lambda d: as_pd(d, draws=2**48 - 1, stick_draws=2),
         "pd.draws: expected draws + stick_draws <= 2^48, the ids a stream key holds, got"),
        (lambda d: as_pd(d, stick_draws=-1), "pd.stick_draws:"),
        (lambda d: as_pd(d, stick_length=0), "pd.stick_length:"),
        (lambda d: as_pd(d, bogus=1), "pd: unknown keys"),
        (lambda d: (as_pd(d), d["pd"].pop("m")), "pd.m:"),
        (lambda d: (as_pd(d), d.update(betas=[2.0, 4.0])), "betas:"),
        # values of the wrong type or out of range
        (lambda d: as_rate(d, intervals=[(0.3, 0.2)]), "intervals[0]:"),
        (lambda d: as_rate(d, intervals=[(0.1, 0.2, 0.3)]), "intervals[0]:"),
        (lambda d: as_exceedance(d, b_levels=["x"]), "b_levels[0]:"),
        # at or below -n log 2 the mean count e^-b is 2^n or more
        (lambda d: as_exceedance(d, b_levels=[0.0, -8 * float(np.log(2.0))]),
         "b_levels[1]: expected a number > -n log 2"),
        # a repeated interval or b level would write its rows twice
        (lambda d: as_rate(d, intervals=[(0.1, 0.2), (0.1, 0.2)]),
         "intervals[1]: repeats the interval (0.1, 0.2)"),
        (lambda d: as_exceedance(d, b_levels=[0.0, -1.0, 0.0]), "b_levels[2]: repeats the b_level 0.0"),
        (lambda d: d.update(betas="0.5"), "betas:"),
        (lambda d: d.update(betas=[10**400]), "betas[0]:"),
        (lambda d: d.update(env={"alpha": "1", "n": 8}), "env.alpha:"),
        (lambda d: d.update(env={"alpha": 1.0, "n": True}), "env.n:"),
        # check parameters
        (
            lambda d: as_exceedance(d, [{"check": "count_chi_square", "b": 0.0, "kmax": 0}]),
            "checks[0].kmax:",
        ),
        (
            lambda d: as_rate(d, [{"check": "outside_fraction_below", "interval": [0.1, 0.2],
                                   "threshold": 0.5, "min_replicas": 4}]),
            "checks[0].min_replicas:",
        ),
        (
            lambda d: as_exceedance(d, [{"check": "count_zero_prob", "b": 1.0, "tol": 0.1}]),
            "checks[0].b:",
        ),
        (lambda d: d.update(checks=[{"check": "mean_within", "beta": 0.5, "tol": 0}]),
         "checks[0].tol:"),
        (lambda d: as_rate(d, [{"check": "zero_hits", "interval": [0.1]}]), "checks[0].interval:"),
        # a probability or a KS statistic of 1 or more: a check that can never fail, or never pass
        (lambda d: as_exceedance(d, [{"check": "positions_ks", "b": -3.0, "level": 1.0}], (-3.0,)),
         "checks[0].level: expected a number in (0, 1)"),
        (lambda d: as_pd(d, [{"check": "ks_w1", "max_statistic": 1.0}]),
         "checks[0].max_statistic: expected a number in (0, 1)"),
        (lambda d: as_exceedance(d, [{"check": "count_zero_prob", "b": 0.0, "tol": 1.0}]),
         "checks[0].tol: expected a number in (0, 1)"),
        (
            lambda d: as_rate(d, [{"check": "outside_fraction_below", "interval": [0.1, 0.2],
                                   "threshold": 1.0, "min_replicas": 2}]),
            "checks[0].threshold: expected a number in (0, 1)",
        ),
        # a check that can never pass, or passes vacuously
        (lambda d: as_rate(d, [{"check": "pooled_rate_in", "interval": [0.1, 0.2],
                                "low": 0.3, "high": 0.3}]),
         "checks[0].high: expected a number > low, got 0.3"),
        (lambda d: d.update(betas=[0.5, 1.5], checks=[{"check": "curve_shape"}]),
         "checks[0]: curve_shape requires 3 or more betas, got 2"),
        # positions_ks on too few expected exceedances: replicas * exp(-b) < 20
        (lambda d: as_exceedance(d, [{"check": "positions_ks", "b": 0.0}]),
         "checks[0].b: expects 3 pooled exceedances over 3 replicas"),
        (lambda d: (as_exceedance(d, [{"check": "positions_ks", "b": 40.0}], (40.0,)),
                    d.update(replicas=20)),
         "checks[0].b: expects 8.5e-17 pooled exceedances over 20 replicas"),
        # a beta * |E| past the float range, and a PD window too deep or too high
        (lambda d: d.update(betas=[1e308]),
         "betas[0]: expected a number in (0, 1e+300], got 1e+308"),
        (lambda d: as_pd(d, truncation_b=-40.0),
         "pd.truncation_b: expected a number in [-18.0218, 40], got -40.0"),
        (lambda d: as_pd(d, truncation_b=-18.03),
         "pd.truncation_b: expected a number in [-18.0218, 40], got -18.03"),
        (lambda d: as_pd(d, truncation_b=1e9),
         "pd.truncation_b: expected a number in [-18.0218, 40], got 1000000000.0"),
        # expected counts too thin for a chi-square test: every bin pools into one,
        # or bins before the pooled tail stay below 5
        (lambda d: as_thin_chi_square(d, 0.0, 5), "checks[0].kmax: 1 bins after pooling"),
        (lambda d: as_thin_chi_square(d, -3.0, 200), "checks[0].kmax: 7 bins after pooling"),
        (
            lambda d: d.update(checks=[{"check": "mean_within", "beta": 0.5, "tol": 0.1, "x": 1}]),
            "checks[0]: unknown keys",
        ),
        (lambda d: as_pd(d, [{"check": "stick_ks_w1", "max_statistic": 0.5}]), "checks[0]:"),
        (lambda d: d.update(checks={}), "checks:"),
        (lambda d: d.update(checks=[3]), "checks[0]:"),
        # the limit laws of exceedance and pd_compare hold for alpha = 1 only
        (lambda d: as_exceedance(d, alpha=2.0), "env.alpha:"),
        (lambda d: (as_pd(d), d.update(env={"alpha": 2.0, "n": 8})), "env.alpha:"),
    ],
)
def test_manifest_validation_errors(mutate, fragment):
    doc = tiny_doc()
    mutate(doc)
    with pytest.raises(ManifestError) as err:
        from_dict(doc)
    assert fragment in str(err.value)


def test_rate_manifest_requires_intervals():
    doc = tiny_doc(experiment="rate_function", betas=[], checks=[])
    with pytest.raises(ManifestError) as err:
        from_dict(doc)
    assert "intervals" in str(err.value)


def test_interval_check_must_reference_declared_interval():
    doc = tiny_doc(
        experiment="rate_function",
        betas=[],
        intervals=[[0.2, 0.3]],
        checks=[{"check": "zero_hits", "interval": [0.4, 0.5]}],
    )
    with pytest.raises(ManifestError) as err:
        from_dict(doc)
    assert "interval" in str(err.value)


def test_pd_compare_requires_matching_m():
    doc = tiny_doc(
        experiment="pd_compare",
        betas=[2.0],
        checks=[],
        pd={"m": 0.4, "draws": 5},
    )
    with pytest.raises(ManifestError) as err:
        from_dict(doc)
    assert "pd.m" in str(err.value)


def test_counts_up_to_the_last_keyed_id_parse():
    # the largest counts whose ids a stream key holds; parsed, never run
    assert from_dict(tiny_doc(replicas=2**48)).replicas == 2**48
    doc = tiny_doc()
    as_pd(doc, draws=2**48 - 2, stick_draws=2)
    assert from_dict(doc).pd.draws == 2**48 - 2
    assert seed_derivation(0, 2**48 - 1, 1) >> 16 == 2**48 - 1


def test_json_syntax_error_reports_position():
    with pytest.raises(ManifestError) as err:
        from_json('{"experiment": "free_energy",\n  "env": }')
    assert "line 2" in str(err.value)


HUGE_LITERAL = json.dumps(tiny_doc()).replace("[0.5]", "[" + "1" * 5001 + "]")
# the built-in manifest of the removed diagnostics experiment
OLD_DIAGNOSTICS = json.dumps({
    "experiment": "diagnostics",
    "env": {"alpha": 1.0, "n": 10},
    "master_seed": 42,
    "checks": [{"check": name} for name in (
        "bound_suite", "limit_continuity", "shift_identity", "varadhan_balance",
        "pmf_normalization",
    )],
})


@pytest.mark.parametrize(
    "text, fragment",
    [
        # beyond the integer digit limit json.loads raises a plain ValueError;
        # an interpreter without that limit reads the number and rejects it as a beta
        (HUGE_LITERAL, ("invalid JSON", "betas[0]:")),
        ("[" * 100000 + "]" * 100000, ("invalid JSON",)),
    ],
)
def test_manifest_text_errors(text, fragment):
    with pytest.raises(ManifestError) as err:
        from_json(text)
    assert any(part in str(err.value) for part in fragment)


def test_resolve_workers_precedence(monkeypatch):
    # the flag or argument is the one source; unset means 1, whatever the environment holds
    monkeypatch.setenv("REMLAB_WORKERS", "3")
    assert resolve_workers(None) == 1
    assert resolve_workers(5) == resolve_workers("5") == 5
    # "auto" is the CPUs this process may run on, or the CPU count where the
    # platform cannot say
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert resolve_workers("auto") == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers("auto") == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers("auto") == 1
    # a float is a count only where it is integral, and a flag is never one
    assert resolve_workers(2.0) == 2
    for bad in ("junk", 0, "-2", 2.5, True, np.True_, float("inf")):
        with pytest.raises(ValueError, match="workers: expected a positive integer"):
            resolve_workers(bad)


def test_pd_epsilon_mass_accepted_where_used():
    # the point-budget rule accepts the built-ins, every benchmark workload and
    # the samplers' test cases
    for name in BUILTIN_NAMES:
        builtin_manifest(name)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for seed in (42, *range(101, 111)):
            from_dict(workload.build(seed))
    for beta, eps, b in [
        (2.0, 1e-4, 0.0), (3.0, 1e-5, -1.0), (1.25, 5e-2, 0.0), (2.5, 1e-3, 3.0),
        (200.0, 1e-4, -8.0), (2.5, 1e-4, 0.0), (1.01, 0.2, 0.0), (2.0, 1e-3, 0.0),
    ]:
        doc = tiny_doc()
        as_pd(doc, m=1.0 / beta, epsilon_mass=eps, truncation_b=b)
        doc["betas"] = [beta]
        from_dict(doc)


def test_run_experiment_artifacts(tmp_path):
    manifest = from_dict(tiny_doc(betas=[0.5, 2.0]))
    outcome = run_experiment(manifest, output_dir=tmp_path / "out")
    assert outcome.passed
    out = tmp_path / "out"
    for name in ("results.csv", "theory.csv", "manifest.json", "summary.json"):
        assert (out / name).exists()

    raw = (out / "results.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "beta,replica,log_z,free_energy"
    assert len(lines) == 1 + 2 * manifest.replicas
    # shortest round-trip float formatting: every numeric cell reparses
    # to a float whose repr is the cell itself
    for line in lines[1:]:
        for cell in line.split(",")[2:]:
            assert repr(float(cell)) == cell

    theory = (out / "theory.csv").read_text(encoding="utf-8").splitlines()
    assert theory[0] == "beta,limit"
    assert float(theory[1].split(",")[1]) == free_energy_limit(1.0, 0.5)

    assert (out / "manifest.json").read_text(encoding="utf-8") == manifest.to_json()

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["passed"] is True
    assert summary["seeds"]["master_seed"] == 11
    assert summary["seeds"]["key_scheme"] == "(master_seed << 64) | (replica_id << 16) | stream"
    assert {c["name"]: c["passed"] for c in summary["checks"]}
    assert "remlab" in summary["versions"]


def test_run_experiment_is_deterministic_across_workers(tmp_path):
    manifest = from_dict(tiny_doc(replicas=6, betas=[0.5, 1.5]))
    a = run_experiment(manifest, workers=1, output_dir=tmp_path / "w1")
    b = run_experiment(manifest, workers=4, output_dir=tmp_path / "w4")
    for name in ("results.csv", "theory.csv"):
        assert (a.output_dir / name).read_bytes() == (b.output_dir / name).read_bytes()


def test_artifacts_are_independent_of_workers_and_output_dir(tmp_path, monkeypatch):
    # only summary.json records where and on how many processes a run went;
    # with the pool threshold at 1 the workers=2 run goes to a pool of 2
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    manifest = from_dict(tiny_doc(replicas=4, betas=[0.5, 1.5]))
    a = run_experiment(manifest, workers=1, output_dir=tmp_path / "one")
    b = run_experiment(manifest, workers=2, output_dir=tmp_path / "elsewhere" / "two")
    summary = json.loads((b.output_dir / "summary.json").read_text(encoding="utf-8"))
    assert (summary["workers"], summary["processes"]) == (2, 2)
    for name in ("results.csv", "theory.csv", "manifest.json"):
        assert (a.output_dir / name).read_bytes() == (b.output_dir / name).read_bytes()


def pool_pids() -> set:
    # the kept pool's workers are this process's only multiprocessing children
    return {child.pid for child in multiprocessing.active_children()}


def pid_alive(pid: int) -> bool:
    # an orphan that has exited but is not yet reaped is a zombie: not alive
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def exited(pid: int) -> bool:
    # whether a child process has exited, without reaping it; a reaped one has
    try:
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None
    except ChildProcessError:
        return True


def wait_gone(pids, seconds: float = 10.0) -> list:
    # the pids still alive after waiting up to ``seconds`` for them to exit
    deadline = time.monotonic() + seconds
    while any(pid_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if pid_alive(pid)]


def csv_bytes(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def test_pooled_calls_reuse_one_pool(tmp_path, monkeypatch):
    # with the pool threshold at 1, each workers=2 call goes to a pool of 2,
    # forked at the first such call and kept for the next
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    manifest = from_dict(tiny_doc(replicas=4, betas=[0.5, 1.5]))
    serial = run_experiment(manifest, workers=1, output_dir=tmp_path / "serial")
    assert pool_pids() == set()
    first = run_experiment(manifest, workers=2, output_dir=tmp_path / "first")
    pids = pool_pids()
    assert len(pids) == 2
    second = run_experiment(manifest, workers=2, output_dir=tmp_path / "second")
    assert pool_pids() == pids
    for outcome in (first, second):
        summary = json.loads((outcome.output_dir / "summary.json").read_text(encoding="utf-8"))
        assert (summary["workers"], summary["processes"]) == (2, 2)
        assert csv_bytes(outcome.output_dir) == csv_bytes(serial.output_dir)

    # a call that needs 3 processes replaces the pool, and the old workers exit
    third = run_experiment(manifest, workers=3, output_dir=tmp_path / "third")
    assert len(pool_pids()) == 3 and not pool_pids() & pids
    assert not any(pid_alive(pid) for pid in pids)
    assert csv_bytes(third.output_dir) == csv_bytes(serial.output_dir)


def test_a_worker_lost_between_calls_is_replaced(tmp_path, monkeypatch):
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    manifest = from_dict(tiny_doc(replicas=4))
    first = run_experiment(manifest, workers=2, output_dir=tmp_path / "first")
    # a worker killed long before the next call (the pool has noticed and
    # reaped it), and one killed just before it (the pool may not have)
    for wait, name in ((True, "reaped"), (False, "fresh")):
        pids = pool_pids()
        os.kill(min(pids), signal.SIGKILL)
        if wait:
            assert wait_gone([min(pids)]) == []
        while not exited(min(pids)):  # a kill takes effect some time after os.kill returns
            time.sleep(0.001)
        again = run_experiment(manifest, workers=2, output_dir=tmp_path / name)
        assert len(pool_pids()) == 2 and not pool_pids() & pids
        assert csv_bytes(again.output_dir) == csv_bytes(first.output_dir)


def test_pooled_calls_from_two_threads_run_one_at_a_time(tmp_path, monkeypatch):
    # calls that need 2 and 3 processes replace each other's pool; the lock
    # keeps one from shutting the pool down under the other
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    manifest = from_dict(tiny_doc(replicas=4))
    serial = run_experiment(manifest, workers=1, output_dir=tmp_path / "serial")
    outcomes, errors = {}, []

    def call(workers):
        try:
            for i in range(3):
                out = tmp_path / f"w{workers}-{i}"
                outcomes[out] = run_experiment(manifest, workers=workers, output_dir=out)
        except BaseException as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(workers,)) for workers in (2, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(outcomes) == 6
    for out in outcomes:
        assert csv_bytes(out) == csv_bytes(serial.output_dir)


def test_a_worker_lost_during_a_call_fails_it_and_discards_the_pool(tmp_path, monkeypatch):
    # a worker that dies on its task breaks the pool: the run is a runtime
    # fault, and the next call forks a new pool, which holds the modules as
    # they are then
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    monkeypatch.setattr(remlab.experiments, "run_replica", lambda spec: os._exit(1))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(tiny_doc(replicas=4)), encoding="utf-8")
    args = ["run", str(path), "--workers", "2", "--output-dir"]
    assert main([*args, str(tmp_path / "broken")]) == 3
    assert remlab.experiments._pool is None and pool_pids() == set()
    monkeypatch.undo()
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    assert main([*args, str(tmp_path / "ok")]) == 0
    assert len(pool_pids()) == 2


POOLED_CHILD = """
import multiprocessing, sys
import remlab.cli, remlab.experiments
remlab.experiments.POOL_MIN_CONFIGS = 1
code = remlab.cli.main(["run", sys.argv[1], "--workers", "2", "--output-dir", sys.argv[2]])
assert code == 0, code
print("pids", *(child.pid for child in multiprocessing.active_children()), flush=True)
"""


def pooled_child(tmp_path, after: str) -> tuple:
    # a process that runs one pooled manifest, prints its workers' pids,
    # then does ``after``; returns the process and the pids
    path = tmp_path / "m.json"
    path.write_text(json.dumps(tiny_doc(replicas=4)), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(remlab.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", POOLED_CHILD + after, str(path), str(tmp_path / "out")],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    while line and not line.startswith("pids"):  # the CLI's own lines come first
        line = proc.stdout.readline()
    return proc, [int(pid) for pid in line.split()[1:]]


def stop_group(proc) -> None:
    # stop whatever is left of a pooled child, workers too
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()


def test_a_pooled_process_exits_with_its_workers(tmp_path):
    # the kept pool needs no shutdown call: at interpreter exit
    # concurrent.futures stops its workers, promptly
    proc, pids = pooled_child(tmp_path, "")
    try:
        assert proc.wait(timeout=10) == 0
        alive = [pid for pid in pids if pid_alive(pid)]
    finally:
        stop_group(proc)
    assert len(pids) == 2 and alive == []


@pytest.mark.parametrize("end", ["kill", "os_exit"])
def test_workers_exit_when_their_process_dies(tmp_path, end):
    # a process killed, or one that leaves through os._exit, never shuts its
    # pool down; its workers notice they were orphaned and exit
    after = "import os, time\n" + (
        "time.sleep(60)\n" if end == "kill" else "time.sleep(0.2)\nos._exit(0)\n"
    )
    proc, pids = pooled_child(tmp_path, after)
    try:
        if end == "kill":
            proc.kill()
        assert proc.wait(timeout=10) in (0, -signal.SIGKILL)
        alive = wait_gone(pids)
    finally:
        stop_group(proc)
    assert len(pids) == 2 and alive == []


def test_run_settings_are_not_manifest_keys(tmp_path, capsys):
    for key, value in (("workers", 2), ("output_dir", "out")):
        with pytest.raises(ManifestError) as err:
            from_dict(tiny_doc(**{key: value}))
        assert str(err.value) == f"manifest root: unknown keys ['{key}']"
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(tiny_doc(**{key: value})), encoding="utf-8")
        assert main(["run", str(path), "--output-dir", str(tmp_path / key)]) == 2
        assert "manifest root: unknown keys" in capsys.readouterr().err


def test_small_runs_stay_out_of_the_pool(tmp_path, monkeypatch):
    pools = []

    class Pool:  # records the pool and its tasks, and runs them in this process
        def __init__(self, max_workers, **options):
            self.max_workers = max_workers
            self.tasks = []
            self.chunks = []  # (chunksize, task count) of each map call
            self.shut = False
            pools.append(self)

        def shutdown(self, cancel_futures=False):
            self.shut = True

        def map(self, fn, items, chunksize=1):
            items = list(items)
            self.tasks.extend(items)
            self.chunks.append((chunksize, len(items)))
            return map(fn, items)

    monkeypatch.setattr(remlab.experiments, "ProcessPoolExecutor", Pool)
    # 6 replicas of 2**8 energies: far below POOL_MIN_CONFIGS per process
    run_experiment(from_dict(tiny_doc(replicas=6)), workers=4, output_dir=tmp_path / "small")
    assert pools == []
    # 2 replicas of 2**19: exactly POOL_MIN_CONFIGS for each of 2 processes,
    # and a pool of as many processes as there are tasks
    big = from_dict(tiny_doc(replicas=2, env={"alpha": 1.0, "n": 19}))
    run_experiment(big, workers=4, output_dir=tmp_path / "big")
    assert [pool.max_workers for pool in pools] == [2]

    # pd_compare: the keyed draws go wherever the replicas go; only the
    # replicas' energies count towards the pool threshold
    small_pd = tiny_doc(replicas=6)
    as_pd(small_pd, draws=3, stick_draws=2, stick_length=10, epsilon_mass=0.01)
    run_experiment(from_dict(small_pd), workers=4, output_dir=tmp_path / "small_pd")
    assert len(pools) == 1
    big_pd = tiny_doc(replicas=2, env={"alpha": 1.0, "n": 19})
    as_pd(big_pd, draws=3, stick_draws=2, stick_length=10, epsilon_mass=0.01)
    run_experiment(from_dict(big_pd), workers=4, output_dir=tmp_path / "big_pd")
    # one pool for the whole call; it needs 4 processes, so the pool of 2 is replaced
    assert len(pools) == 2 and pools[0].shut and not pools[1].shut
    tasks = pools[1].tasks
    assert pools[1].max_workers == 4
    draws = tasks[2:]
    assert [(t.func, t.args[0].replica_id) for t in tasks[:2]] == [(_finished, 0), (_finished, 1)]
    assert all(d.func is _draw for d in draws)
    assert [(d.args[0].__name__, d.args[3]) for d in draws] == [
        ("sample_pd_poisson", i) for i in range(5)
    ] + [("sample_pd_stick", j) for j in range(2)]

    # a replica of more than one chunk: each chunk is a task, sent one
    # at a time, and the pool pays by the same rule (2**19 energies per
    # process)
    monkeypatch.setattr(remlab.engine, "CHUNK", 1 << 18)
    one = from_dict(tiny_doc(replicas=1, env={"alpha": 1.0, "n": 20}))
    run_experiment(one, workers=2, output_dir=tmp_path / "one")
    assert len(pools) == 3
    assert pools[2].max_workers == 2
    assert all(t.func is remlab.engine.summarize for t in pools[2].tasks)
    assert [(t.args[0].replica_id, t.args[1]) for t in pools[2].tasks] == [
        (0, lo) for lo in range(0, 1 << 20, 1 << 18)
    ]
    assert pools[2].chunks == [(1, 4), (1, 0)]
    # more such replicas than workers split the same way, in replica order,
    # on the same pool of 2, kept from the call before
    three = from_dict(tiny_doc(replicas=3, env={"alpha": 1.0, "n": 20}))
    run_experiment(three, workers=2, output_dir=tmp_path / "three")
    assert len(pools) == 3 and not pools[2].shut
    assert [(t.args[0].replica_id, t.args[1]) for t in pools[2].tasks[4:]] == [
        (r, lo) for r in range(3) for lo in range(0, 1 << 20, 1 << 18)
    ]

    # replicas and draws are chunked apart, each about four chunks per
    # process, so many cheap draws never crowd the replicas into fewer
    # processes (one chunk over all 344 tasks would hold 43 replicas);
    # replicas of one chunk are one task each
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    many_pd = tiny_doc(replicas=40)
    as_pd(many_pd, draws=300, stick_draws=2, stick_length=10, epsilon_mass=0.01)
    seen = len(pools[2].tasks)
    run_experiment(from_dict(many_pd), workers=2, output_dir=tmp_path / "many_pd")
    assert len(pools) == 3
    assert pools[2].chunks[-2:] == [(40 // 8, 40), (304 // 8, 304)]
    assert [(t.func, t.args[0].replica_id) for t in pools[2].tasks[seen:seen + 40]] == [
        (_finished, r) for r in range(40)
    ]


def test_summary_records_processes(tmp_path):
    def summary(doc, name):
        run_experiment(from_dict(doc), workers=2, output_dir=tmp_path / name)
        return json.loads((tmp_path / name / "summary.json").read_text(encoding="utf-8"))

    # too small to pay for a pool: the calling process runs everything
    small = summary(tiny_doc(replicas=6), "small")
    assert (small["workers"], small["processes"]) == (2, 1)
    big = summary(tiny_doc(replicas=2, env={"alpha": 1.0, "n": 19}), "big")
    assert (big["workers"], big["processes"]) == (2, 2)
    # one replica of two chunks: its chunks run in 2 processes
    one = summary(tiny_doc(replicas=1, env={"alpha": 1.0, "n": 21}), "one")
    assert (one["workers"], one["processes"]) == (2, 2)


def test_run_experiment_seed_override_changes_results(tmp_path):
    # a seed is overridden in the manifest, through the parser, as --seed and the retry do
    manifest = from_dict(tiny_doc())
    a = run_experiment(manifest, output_dir=tmp_path / "a")
    b = run_experiment(from_dict({**manifest.to_dict(), "master_seed": 12}), output_dir=tmp_path / "b")
    assert (a.output_dir / "results.csv").read_bytes() != (
        b.output_dir / "results.csv"
    ).read_bytes()
    assert load(b.output_dir / "manifest.json").master_seed == 12


def test_curve_shape_defaults_to_critical_beta(tmp_path):
    # at alpha = 2 the transition is at sqrt(2 log 2), not at 1
    doc = tiny_doc(
        env={"alpha": 2.0, "n": 8},
        betas=[0.5, 1.0, 1.5, 2.0],
        checks=[{"check": "curve_shape"}],
    )
    manifest = from_dict(doc)
    assert manifest.checks[0]["center_beta"] == critical_beta(2.0)
    outcome = run_experiment(manifest, output_dir=tmp_path)
    assert outcome.checks[0].detail["center_beta"] == critical_beta(2.0)


def test_count_chi_square_where_the_tail_rounds_negative(tmp_path):
    # at b=-2, kmax=39 one minus P(count <= 39) rounds to -2.2e-16; the tail
    # bin must hold 0, which chi_square_gof accepts, not a negative probability
    doc = tiny_doc()
    as_exceedance(doc, [{"check": "count_chi_square", "b": -2.0, "kmax": 39}], (-2.0,))
    doc.update(replicas=10000)
    outcome = run_experiment(from_dict(doc), workers=1, output_dir=tmp_path)
    assert 0.0 <= outcome.checks[0].detail["p_value"] <= 1.0


def test_exceedance_artifacts_consistent(tmp_path):
    doc = {
        "experiment": "exceedance",
        "env": {"alpha": 1.0, "n": 10},
        "replicas": 40,
        "master_seed": 5,
        "b_levels": [0.0, 1.0],
        "checks": [{"check": "count_zero_prob", "b": 0.0, "tol": 0.5}],
    }
    outcome = run_experiment(from_dict(doc), output_dir=tmp_path)
    counts = {}
    for line in (tmp_path / "results.csv").read_text().splitlines()[1:]:
        b, replica, count = line.split(",")
        counts[(b, replica)] = int(count)
    positions = (tmp_path / "positions.csv").read_text().splitlines()[1:]
    assert positions
    tally = {}
    for line in positions:
        b, replica, pos = line.split(",")
        tally[(b, replica)] = tally.get((b, replica), 0) + 1
        assert float(pos) >= float(b)
    for key, observed in tally.items():
        assert counts[key] == observed
    assert sum(counts.values()) == sum(tally.values())
    assert outcome.checks[0].name == "count_zero_prob(b=0)"


def test_only_exceedance_streams_positions(tmp_path, monkeypatch):
    # every other experiment rejects b_levels, so no other replica collects
    # the positions, up to 2**n of them per level
    with pytest.raises(ManifestError, match="b_levels"):
        from_dict(tiny_doc(b_levels=[-3.0]))
    seen = []
    real = remlab.experiments.run_replica

    def recording(spec):
        seen.append((spec.betas, spec.b_levels))
        return real(spec)

    monkeypatch.setattr(remlab.experiments, "run_replica", recording)
    doc = {"experiment": "exceedance", "env": {"alpha": 1.0, "n": 8}, "replicas": 2,
           "b_levels": [0.0, 1.0]}
    run_experiment(from_dict(doc), workers=1, output_dir=tmp_path / "ex")
    assert seen == [((), (0.0, 1.0))] * 2


def test_rate_artifacts(tmp_path):
    doc = {
        "experiment": "rate_function",
        "env": {"alpha": 1.0, "n": 10},
        "replicas": 4,
        "master_seed": 9,
        "intervals": [[0.2, 0.3], [0.8, 0.9]],
        "checks": [{"check": "pooled_rate_in", "interval": [0.2, 0.3], "low": 0.0, "high": 1.0}],
    }
    outcome = run_experiment(from_dict(doc), output_dir=tmp_path)
    theory = (tmp_path / "theory.csv").read_text().splitlines()
    assert theory[0] == "interval_low,interval_high,rate_limit"
    limits = {tuple(line.split(",")[:2]): line.split(",")[2] for line in theory[1:]}
    assert limits[("0.2", "0.3")] == "0.2"
    assert limits[("0.8", "0.9")] == "inf"
    assert outcome.checks[0].detail["total_hits"] >= 0


def test_pd_compare_artifacts(tmp_path):
    doc = {
        "experiment": "pd_compare",
        "env": {"alpha": 1.0, "n": 10},
        "betas": [2.0],
        "replicas": 12,
        "master_seed": 21,
        "pd": {"m": 0.5, "epsilon_mass": 0.01, "draws": 12, "stick_draws": 8, "stick_length": 30},
        "checks": [
            {"check": "ks_w1", "max_statistic": 0.99},
            {"check": "stick_ks_w1", "max_statistic": 0.99},
        ],
    }
    outcome = run_experiment(from_dict(doc), output_dir=tmp_path)
    theory = (tmp_path / "theory.csv").read_text().splitlines()
    sources = [line.split(",")[0] for line in theory[1:]]
    assert sources.count("pd_poisson") == 12
    assert sources.count("pd_poisson_cross") == 8
    assert sources.count("pd_stick") == 8
    for line in theory[1:]:
        w1 = float(line.split(",")[2])
        sumsq = float(line.split(",")[3])
        assert 0.0 < w1 <= 1.0
        assert 0.0 < sumsq <= 1.0 + 1e-12
    results = (tmp_path / "results.csv").read_text().splitlines()
    assert results[0] == "beta,replica,w1,sumsq"
    assert len(results) == 1 + 12
    assert {c.name for c in outcome.checks} == {"ks_w1", "stick_ks_w1"}


def shape_docs():
    # one small manifest per experiment, every check of its vocabulary attached
    free = tiny_doc(betas=[0.5, 1.0, 2.0], checks=[
        {"check": "mean_within", "beta": 2.0, "tol": 0.5}, {"check": "curve_shape"},
    ])
    rate = tiny_doc(replicas=4)
    as_rate(rate, [
        {"check": "pooled_rate_in", "interval": [0.1, 0.2], "low": 0.0, "high": 1.0},
        {"check": "zero_hits", "interval": [0.8, 0.9]},
        {"check": "outside_fraction_below", "interval": [0.1, 0.2], "threshold": 0.9,
         "min_replicas": 2},
    ], intervals=((0.1, 0.2), (0.8, 0.9)))
    marginals = tiny_doc(experiment="marginals", k_marginal=2, checks=[
        {"check": "max_marginal_deviation", "beta": 0.5, "tol": 0.5},
    ])
    exceedance = tiny_doc(replicas=60)
    as_exceedance(exceedance, [
        {"check": "count_zero_prob", "b": 0.0, "tol": 0.5},
        {"check": "count_chi_square", "b": 0.0},
        {"check": "positions_ks", "b": 0.0},
    ])
    pd = tiny_doc(env={"alpha": 1.0, "n": 10}, replicas=12)
    as_pd(pd, [{"check": name, "max_statistic": 0.99}
               for name in ("ks_w1", "ks_sumsq", "stick_ks_w1")], stick_draws=8, stick_length=30)
    return {"free_energy": free, "rate_function": rate, "marginals": marginals,
            "exceedance": exceedance, "pd_compare": pd}


@pytest.mark.parametrize("experiment", list(REGISTRY))
def test_every_detail_has_one_shape(tmp_path, experiment):
    doc = shape_docs()[experiment]
    assert {c["check"] for c in doc["checks"]} == set(REGISTRY[experiment].checks)
    run_experiment(from_dict(doc), workers=1, output_dir=tmp_path)
    resolved = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    for item, check in zip(resolved["checks"], summary["checks"]):
        params = {key: value for key, value in item.items() if key != "check"}
        detail = check["detail"]
        # the resolved parameters first, the seed of the run last
        assert dict(itertools.islice(detail.items(), len(params))) == params, check["name"]
        assert list(detail)[-1] == "master_seed" and detail["master_seed"] == 11, check["name"]
        if "level" in params:
            reported = {"statistic", "p_value", "level", "sample_sizes"}
            assert reported <= set(detail), check["name"]
            assert check["passed"] == (detail["p_value"] > detail["level"]), check["name"]


def test_a_reused_output_directory_holds_one_bundle(tmp_path):
    # An exceedance run, then a free_energy run into the same directory:
    # the first run's positions.csv goes, a file of no bundle stays.
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    docs = shape_docs()
    run_experiment(from_dict(docs["exceedance"]), workers=1, output_dir=out)
    assert (out / "positions.csv").exists()
    run_experiment(from_dict(docs["free_energy"]), workers=1, output_dir=out)
    assert not (out / "positions.csv").exists()
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
    # after any run, the directory holds that run's bundle, as a fresh one would
    for name in ["exceedance", *REGISTRY, "exceedance"]:
        run_experiment(from_dict(docs[name]), workers=1, output_dir=out)
        fresh = tmp_path / f"fresh-{name}"
        run_experiment(from_dict(docs[name]), workers=1, output_dir=fresh)
        files = {path.name: path.read_bytes() for path in fresh.iterdir() if path.suffix == ".csv"}
        assert {path.name: path.read_bytes() for path in out.glob("*.csv")} == files, name
        assert (out / "notes.txt").exists()


@pytest.mark.parametrize("above", [False, True])
def test_level_checks_pass_only_above_the_level(tmp_path, monkeypatch, above):
    # a report at exactly the level fails; one a step above it passes
    p_value = math.nextafter(DEFAULT_LEVEL, 1.0) if above else DEFAULT_LEVEL
    report = TestReport(0.5, p_value, (100, 0))
    monkeypatch.setattr(remlab.experiments, "chi_square_gof", lambda *args: report)
    monkeypatch.setattr(remlab.experiments, "ks_one_sample", lambda *args: report)
    outcome = run_experiment(from_dict(shape_docs()["exceedance"]), output_dir=tmp_path)
    levels = [c for c in outcome.checks if "level" in c.detail]
    assert [c.name for c in levels] == ["count_chi_square(b=0)", "positions_ks(b=0)"]
    for check in levels:
        assert check.passed is above
        assert (check.detail["level"], check.detail["p_value"]) == (DEFAULT_LEVEL, p_value)


def test_summary_is_strict_json(tmp_path):
    # no hits on (0.8, 0.9) at n=10 make the pooled rate infinite
    doc = tiny_doc(env={"alpha": 1.0, "n": 10}, master_seed=1, replicas=4)
    as_rate(doc, [{"check": "pooled_rate_in", "interval": [0.8, 0.9], "low": 0.8, "high": 0.9}],
            intervals=((0.8, 0.9),))
    outcome = run_experiment(from_dict(doc), output_dir=tmp_path)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    (check,) = json.loads(text, parse_constant=reject)["checks"]
    assert check["detail"]["pooled_rate"] == "inf" and not check["passed"]
    assert outcome.checks[0].detail["pooled_rate"] == "inf"


# sha256 of pd_compare's results.csv and theory.csv for PD_PINNED_DOC.  results.csv
# was recorded from the runner whose replicas sent their whole spectra back
# through the pool.  theory.csv was re-recorded when the PD samplers began to
# return their weights in draw order: each draw's sumsq is now summed in that
# order and may differ from the descending sum in the last bit; w1 is unchanged.
PD_PINNED_DOC = {
    "experiment": "pd_compare",
    "env": {"alpha": 1.0, "n": 10},
    "betas": [2.0],
    "replicas": 60,
    "master_seed": 7,
    "pd": {"m": 0.5, "draws": 30, "stick_draws": 10},
}
PD_PINNED_DIGESTS = {
    "results.csv": "34ed1926ca8dfd551a7a31d6db2368ce06b056578cff0aa91dcf76a403c155e0",
    "theory.csv": "b426a3cbb138172f741b99df0808fda71eea7d51293078927aadd46060739109",
}


def test_pd_compare_bytes_pinned(tmp_path, monkeypatch):
    # at workers=2, with the pool threshold at 1, the replicas' statistics and
    # the draws cross a real pool of 2 processes
    monkeypatch.setattr(remlab.experiments, "POOL_MIN_CONFIGS", 1)
    for workers in (1, 2):
        outcome = run_experiment(from_dict(PD_PINNED_DOC), workers=workers,
                                 output_dir=tmp_path / str(workers))
        summary = json.loads((outcome.output_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["processes"] == workers
        for name, expected in PD_PINNED_DIGESTS.items():
            digest = hashlib.sha256((outcome.output_dir / name).read_bytes()).hexdigest()
            assert digest == expected, (workers, name)


def test_pd_draw_stats_are_those_of_the_sampler_weights():
    # each draw sends back the largest weight and the sum of squares of its
    # sampler's weights, which come in draw order, bit for bit
    manifest = from_dict(PD_PINNED_DOC)
    draws = REGISTRY["pd_compare"].draws(manifest)
    assert [len(d) for d in draws.values()] == [30, 10, 10]
    for draw in (d for sample in draws.values() for d in sample):
        assert draw.func is _draw and not draw.keywords
        sampler, args, master_seed, draw_id, stream = draw.args
        w = sampler(*args, stream_generator(master_seed, draw_id, stream)).entries
        w1, sumsq = draw()
        assert w1 == float(np.max(w))
        assert sumsq == float(np.sum(w * w))


def test_cli_run_exit_codes(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(tiny_doc()), encoding="utf-8")
    code = main(["run", str(path), "--output-dir", str(tmp_path / "ok")])
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out

    # an impossible tolerance makes the check fail -> exit 1
    failing = tiny_doc(checks=[{"check": "mean_within", "beta": 0.5, "tol": 1e-15}])
    path.write_text(json.dumps(failing), encoding="utf-8")
    code = main(["run", str(path), "--output-dir", str(tmp_path / "bad")])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out

    path.write_text(json.dumps(tiny_doc(replicas=0)), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    path.write_text(json.dumps(tiny_doc()), encoding="utf-8")
    assert main(["run", str(path), "--workers", "0"]) == 2
    assert main(["run", str(path), "--seed", "-1"]) == 2
    path.write_text(HUGE_LITERAL, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    path.write_text(json.dumps(tiny_doc(env={"alpha": 500, "n": 8})), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    for b, replicas in ((0.0, 5), (-3.0, 200)):
        doc = tiny_doc()
        as_thin_chi_square(doc, b, replicas)
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--output-dir", str(tmp_path / "thin")]) == 2
    # a b level whose mean count e^-b exceeds the 2^n configurations is bad
    # input, not an overflow in the count law
    for b, check in ((-1000.0, {"check": "count_zero_prob", "tol": 0.5}),
                     (-800.0, {"check": "count_chi_square"})):
        doc = tiny_doc()
        as_exceedance(doc, [{**check, "b": b}], b_levels=[b])
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--output-dir", str(tmp_path / "low")]) == 2
        assert "b_levels[0]: expected a number > -n log 2" in capsys.readouterr().err
    doc = tiny_doc()
    as_wide_marginals(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--output-dir", str(tmp_path / "wide")]) == 2
    # a first PD window of e^40 points is bad input, not an allocation to try
    doc = tiny_doc()
    as_pd(doc, truncation_b=-40.0)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--output-dir", str(tmp_path / "deep")]) == 2
    # so is an epsilon_mass that would exhaust the sampler's point budget
    doc = tiny_doc()
    as_pd(doc, epsilon_mass=1e-12)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--output-dir", str(tmp_path / "fine")]) == 2
    path.write_text(OLD_DIAGNOSTICS, encoding="utf-8")
    assert main(["run", str(path), "--output-dir", str(tmp_path / "old")]) == 2
    capsys.readouterr()
    # a manifest that cannot be read is bad input, reported on one line
    path.write_bytes(b"\xff" + json.dumps(tiny_doc()).encode())
    assert main(["run", str(path)]) == 2
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and err.count("error: cannot read manifest") == 2
    path.write_text(json.dumps(tiny_doc()), encoding="utf-8")
    capsys.readouterr()

    # a ValueError raised inside the run is a runtime fault, not bad input
    def broken(spec):
        raise ValueError("engine fault")

    monkeypatch.setattr(remlab.experiments, "run_replica", broken)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "fault")]) == 3
    assert "engine fault" in capsys.readouterr().err


def test_cli_seed_flag_overrides_manifest(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(tiny_doc()), encoding="utf-8")
    assert main(["run", str(path), "--output-dir", str(tmp_path / "s"), "--seed", "77"]) == 0
    capsys.readouterr()
    resolved = load(tmp_path / "s" / "manifest.json")
    assert resolved.master_seed == 77


def test_cli_theory_output(capsys):
    # byte-exact stdout in each regime; critical_beta(2.0) round-trips through repr
    cases = [
        (["1", "0.5"], "1.0", "0.5", "1.0", "0.6931471805599453", "high_temperature"),
        (["1", "1"], "1.0", "1.0", "1.0", "0.6931471805599453", "critical"),
        (
            ["2", repr(critical_beta(2.0))],
            "2.0", "1.1774100225154747", "1.1774100225154747", "1.3862943611198906", "critical",
        ),
        (["2", "2"], "2.0", "2.0", "1.1774100225154747", "2.3548200450309493", "low_temperature"),
    ]
    for argv, alpha, beta, bc, fe, regime in cases:
        assert main(["theory", *argv]) == 0
        assert capsys.readouterr().out == (
            f"alpha {alpha}\nbeta {beta}\ncritical_beta {bc}\n"
            f"free_energy_limit {fe}\nregime {regime}\n"
        )
    assert main(["theory", "0.5", "1.0"]) == 2
    assert capsys.readouterr().err == "error: alpha must be a finite real >= 1, got 0.5\n"


def test_cli_verify_subset(tmp_path, capsys):
    code = main(["verify", "--only", "marginals_laplace", "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] marginals_laplace" in out
    assert "verification passed" in out
    assert main(["verify", "--only", "nonsense"]) == 2
    # an --only that names no manifest is bad input, not "run everything"
    assert main(["verify", "--only", ","]) == 2
    assert main(["verify", "--only", " , "]) == 2
    assert main(["verify", "--only", ""]) == 2
    assert remlab.verify.run_all(output_root=tmp_path, names=[]) == []
    assert main(["verify", "--only", "marginals_laplace", "--workers", "0"]) == 2
    capsys.readouterr()


def test_cli_verify_runtime_fault_exit_code(tmp_path, capsys, monkeypatch):
    def broken(spec):
        raise ValueError("engine fault")

    monkeypatch.setattr(remlab.experiments, "run_replica", broken)
    assert main(["verify", "--only", "marginals_laplace", "--output-dir", str(tmp_path)]) == 3
    assert "engine fault" in capsys.readouterr().err



def test_verify_duration_includes_the_retry(tmp_path, monkeypatch):
    # each stubbed run advances the verify clock by 5 s; the first fails
    clock = [0.0]
    seeds = []

    def run_once(manifest, workers=None, output_dir=None):
        clock[0] += 5.0
        seeds.append(manifest.master_seed)
        return RunOutcome(Path(output_dir), (), passed=len(seeds) > 1)

    monkeypatch.setattr(remlab.verify, "run_experiment", run_once)
    monkeypatch.setattr(remlab.verify, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    record = run_builtin("marginals_laplace", output_root=tmp_path)
    base = builtin_manifest("marginals_laplace").master_seed
    assert seeds == [base, base + RETRY_SEED_INCREMENT]
    assert record.retried and record.passed and not record.first_outcome.passed
    assert record.duration == 10.0


def test_retried_details_carry_the_retry_seed(tmp_path, monkeypatch):
    # a check that no run passes: the retry's details hold the retry's seed
    failing = from_dict(tiny_doc(checks=[{"check": "mean_within", "beta": 0.5, "tol": 1e-12}]))
    monkeypatch.setattr(remlab.verify, "builtin_manifest", lambda name: failing)
    record = run_builtin("marginals_laplace", output_root=tmp_path)
    base, retry = failing.master_seed, failing.master_seed + RETRY_SEED_INCREMENT
    assert record.retried and not record.passed
    assert [c.detail["master_seed"] for c in record.first_outcome.checks] == [base]
    assert [c.detail["master_seed"] for c in record.outcome.checks] == [retry]
    summary = json.loads((tmp_path / "marginals_laplace-retry" / "summary.json").read_text())
    assert summary["checks"][0]["detail"]["master_seed"] == retry


def test_verify_removes_a_stale_retry_bundle(tmp_path, monkeypatch):
    # a verify that passes first time leaves no retry bundle of an earlier verify
    root = tmp_path / "root"
    args = ["verify", "--only", "marginals_laplace", "--output-dir", str(root)]
    for tol, code, retried in ((1e-12, 1, True), (0.5, 0, False)):
        manifest = from_dict(tiny_doc(checks=[{"check": "mean_within", "beta": 0.5, "tol": tol}]))
        monkeypatch.setattr(remlab.verify, "builtin_manifest", lambda name: manifest)
        assert main(args) == code
        assert (root / "marginals_laplace").is_dir()
        assert (root / "marginals_laplace-retry").exists() == retried


def test_retry_seed_is_range_checked(tmp_path, monkeypatch):
    # the retry reseeds through the parser: a seed past 2^64 - 1 is a manifest error
    doc = tiny_doc(master_seed=MAX_SEED - 1, checks=[{"check": "mean_within", "beta": 0.5, "tol": 1e-12}])
    monkeypatch.setattr(remlab.verify, "builtin_manifest", lambda name: from_dict(doc))
    with pytest.raises(ManifestError, match="master_seed"):
        run_builtin("marginals_laplace", output_root=tmp_path)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_installed(tmp_path):
    # Write the launcher an installer makes for [project.scripts], from the
    # checkout's own declaration, so the test needs no install and a stale
    # or misspelt entry point still fails it.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        module, _, attr = tomllib.load(fh)["project"]["scripts"]["remlab"].partition(":")
    script = tmp_path / "remlab"
    script.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\nsys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    package_root = str(Path(remlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        ["remlab", "theory", "2", "2"],
        capture_output=True,
        text=True,
        check=False,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "regime low_temperature" in proc.stdout


IMPORT_GRAPH_CHILD = """
import json, sys
import remlab, remlab.cli
for path in sys.argv[1:]:
    code = remlab.cli.main(["run", path, "--workers", "1", "--output-dir", path + ".out"])
    assert code == 0, (path, code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"])))
"""


def test_no_entry_point_imports_scipy_stats(tmp_path):
    # scipy.stats more than doubles the import time and adds about 45 MB to
    # every process, pool workers included.  This process imports it for the
    # tests' own references, so a fresh interpreter runs the package: the
    # import, the CLI and one tiny manifest of every experiment, with every
    # chi-square and KS check.
    docs = [tiny_doc(env={"alpha": 1.0, "n": 8})]
    doc = tiny_doc()
    as_rate(doc, [{"check": "zero_hits", "interval": [0.8, 0.9]}], ((0.8, 0.9),))
    docs.append(doc)
    docs.append(tiny_doc(experiment="marginals", k_marginal=2, checks=[
        {"check": "max_marginal_deviation", "beta": 0.5, "tol": 1.0}]))
    doc = tiny_doc()
    as_exceedance(doc, [{"check": "count_chi_square", "b": 0.0, "level": 1e-12},
                        {"check": "positions_ks", "b": 0.0, "level": 1e-12}])
    doc.update(replicas=40)
    docs.append(doc)
    doc = tiny_doc(env={"alpha": 1.0, "n": 10}, replicas=8)
    as_pd(doc, [{"check": name, "max_statistic": 0.99}
                for name in ("ks_w1", "ks_sumsq", "stick_ks_w1")],
          stick_draws=5, stick_length=20)
    docs.append(doc)
    assert {d["experiment"] for d in docs} == set(REGISTRY)
    paths = []
    for d in docs:
        paths.append(tmp_path / f"{d['experiment']}.json")
        paths[-1].write_text(json.dumps(d), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(remlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH_CHILD, *map(str, paths)],
        capture_output=True,
        text=True,
        check=False,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


SPECIAL_CHILD = """
import sys
import remlab, remlab.cli
assert remlab.cli.main(["theory", "1", "2"]) == 0
for path in sys.argv[2:]:
    code = remlab.cli.main(["run", path, "--workers", "1", "--output-dir", path + ".out"])
    assert code == 0, (path, code)
before = "scipy.special" in sys.modules
alpha = float(sys.argv[1])
remlab.Environment(alpha, 8)
print(before, "scipy.special" in sys.modules)
"""


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_alpha_one_runs_leave_scipy_special_unloaded(tmp_path, alpha):
    # scipy.special costs about 0.3 s of import.  The alpha=1 closed forms do
    # not need it, so the import, the CLI's theory command and alpha=1 runs
    # without a p-value check leave it out; an environment of any other
    # shape loads it where it is built, before any pool forks.
    docs = [tiny_doc(betas=[0.5, 1.0, 1.5], checks=[
        {"check": "curve_shape", "center_beta": 1.0, "window": 0.25},
        {"check": "mean_within", "beta": 0.5, "tol": 0.5}])]
    doc = tiny_doc()
    as_rate(doc, [{"check": "pooled_rate_in", "interval": [0.1, 0.2], "low": 0.0, "high": 1.0},
                  {"check": "zero_hits", "interval": [0.8, 0.9]},
                  {"check": "outside_fraction_below", "interval": [0.1, 0.2],
                   "threshold": 0.999, "min_replicas": 1}],
            ((0.1, 0.2), (0.8, 0.9)))
    docs.append(doc)
    docs.append(tiny_doc(experiment="marginals", k_marginal=2, checks=[
        {"check": "max_marginal_deviation", "beta": 0.5, "tol": 1.0}]))
    paths = []
    for d in docs:
        paths.append(tmp_path / f"{d['experiment']}.json")
        paths[-1].write_text(json.dumps(d), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(remlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SPECIAL_CHILD, str(alpha), *map(str, paths)],
        capture_output=True,
        text=True,
        check=False,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["False", str(alpha != 1.0)]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
