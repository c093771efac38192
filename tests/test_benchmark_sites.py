"""The benchmark's patch points: the remlab names perfbench/spans.py wraps.

The benchmark replaces each of these names with a timing wrapper in the
reference run of every benchmark run, so a renamed or removed name makes
every run fail.  The uniforms of both engine paths must pass through
``remlab.engine.uniform_block``, where the benchmark counts them, and
every PD draw must call the samplers patched in ``remlab.experiments``.
"""

import importlib.util
import sys
from pathlib import Path

from remlab.engine import ReplicaSpec, run_replica
from remlab.environment import Environment
from remlab.experiments import run_experiment
from remlab.manifest import from_dict

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    if "perfbench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclass looks its module up there
        spec.loader.exec_module(module)
    return sys.modules["perfbench_spans"]


def test_benchmark_patch_points_resolve():
    spans = load_spans()
    sites = spans._call_sites()
    assert {name for _, _, name, _ in sites} >= {
        "rng.uniform_block", "environment.quantile", "engine.energy_block", "engine.run_replica",
    }
    for owner, attr, name, _ in sites:
        assert callable(getattr(owner, attr)), name


def test_benchmark_counts_every_uniform_on_both_paths():
    spans = load_spans()
    env = Environment(1.5, 12)
    for betas in ((), (1.0,)):
        spec = ReplicaSpec(env=env, betas=betas, intervals=((0.1, 0.4),), b_levels=(0.0,))
        tracer = spans.Tracer()
        with spans.traced(tracer):
            run_replica(spec)
        drawn = tracer.totals()["rng.uniform_block"]["items"]
        assert drawn == spec.size


def test_benchmark_counts_every_pd_draw(tmp_path):
    spans = load_spans()
    draws, stick_draws = 5, 3
    manifest = from_dict({
        "experiment": "pd_compare",
        "env": {"alpha": 1.0, "n": 8},
        "betas": [2.0],
        "replicas": 4,
        "top_m": 16,
        "pd": {"m": 0.5, "epsilon_mass": 0.01, "draws": draws,
               "stick_draws": stick_draws, "stick_length": 10},
    })
    tracer = spans.Tracer()
    with spans.traced(tracer):
        run_experiment(manifest, workers=1, output_dir=tmp_path)
    totals = tracer.totals()
    # the Poisson sampler runs the draws and the cross draws, the stick sampler the stick draws
    assert totals["pointprocess.sample_pd_poisson"]["calls"] == draws + stick_draws
    assert totals["pointprocess.sample_pd_stick"]["calls"] == stick_draws
