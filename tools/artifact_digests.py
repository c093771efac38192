"""Digests of every built-in's and benchmark workload's artifacts, as one JSON object.

Runs the 9 built-in verification manifests and the 4 manifests of
``perfbench/workloads.py`` at one master seed and worker count, each
once (no retry), into a temporary directory that is removed on exit.
It prints, per run, the sha256 of each CSV and of ``manifest.json``,
and each check's verdict.  ``summary.json`` is left out: it holds
timings and the worker count.

The checkout the script sits in is the one run: its ``src/`` and
``perfbench/`` come first on the import path, so its ``remlab`` and its
``perfbench/workloads.py`` are the ones imported, and nothing is
written into either.  Two checkouts whose outputs diff empty write the
same artifacts and verdicts; a diff names the files that changed.

Usage, from anywhere (seed 42 and workers 1 by default):

    python tools/artifact_digests.py --seed 42 --workers 2 > digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # no cache files in the benchmark's directory

from remlab.experiments import run_experiment  # noqa: E402
from remlab.manifest import from_dict  # noqa: E402
from remlab.verify import BUILTIN_NAMES, builtin_manifest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def manifests(seed: int) -> dict:
    """Each run's name and manifest: the built-ins reseeded, then the workloads."""
    runs = {
        name: from_dict({**builtin_manifest(name).to_dict(), "master_seed": seed})
        for name in BUILTIN_NAMES
    }
    runs.update((name, from_dict(w.build(seed))) for name, w in WORKLOADS.items())
    return runs


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=42, help="master seed of every run")
    parser.add_argument("--workers", type=int, default=1, help="worker processes per run")
    args = parser.parse_args(argv)
    report = {"seed": args.seed, "workers": args.workers, "runs": {}}
    with tempfile.TemporaryDirectory(prefix="remlab-digests-") as scratch:
        for name, manifest in manifests(args.seed).items():
            out = Path(scratch) / name
            outcome = run_experiment(manifest, workers=args.workers, output_dir=out)
            files = sorted(out.glob("*.csv")) + [out / "manifest.json"]
            report["runs"][name] = {
                "sha256": {path.name: digest(path) for path in files},
                "verdicts": {check.name: check.passed for check in outcome.checks},
            }
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
