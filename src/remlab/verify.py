"""Built-in verification manifests and the one-retry policy.

Each bundled manifest streams one set of replicas and carries the
checks that confirm the model's claims on them at desk scale.  A
manifest with a failed check is rerun exactly once, all of its checks,
on a derived seed (master_seed + 1), so a statistical false alarm must
recur on fresh replicas to fail, while a real defect keeps failing.
Only ``count_chi_square`` and ``positions_ks`` test at a stated level
(0.001 by default), which ``experiments._evaluate`` decides; the other
checks compare with hand-set bounds whose false-alarm rate has not been
measured.  ``_evaluate`` writes every check's detail, with the seed of
the run that produced it, the retry's on a retry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .experiments import RunOutcome, run_experiment
from .manifest import ExperimentManifest, from_dict, from_json
from .rng import RETRY_SEED_INCREMENT

BUILTIN_NAMES = (
    "free_energy_gaussian",
    "free_energy_alpha15",
    "free_energy_curve",
    "rate_window",
    "concentration",
    "marginals_laplace",
    "marginals_gaussian",
    "exceedance_poisson",
    "pd_compare",
)


@dataclass(frozen=True)
class VerifyRecord:
    name: str
    outcome: RunOutcome
    first_outcome: RunOutcome
    retried: bool
    duration: float  # seconds, the retry included

    @property
    def passed(self) -> bool:
        return self.outcome.passed


def builtin_manifest(name: str) -> ExperimentManifest:
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown built-in manifest {name!r}; valid: {list(BUILTIN_NAMES)}")
    path = resources.files("remlab").joinpath("manifests").joinpath(f"{name}.json")
    return from_json(path.read_text(encoding="utf-8"))


def run_builtin(name: str, workers=None, output_root="remlab-verify") -> VerifyRecord:
    manifest = builtin_manifest(name)
    root = Path(output_root)
    start = time.perf_counter()
    first = run_experiment(manifest, workers=workers, output_dir=root / name)
    final = first
    if not first.passed:
        # reseeded through the parser, as ``remlab run --seed`` is, so the seed is range-checked
        seed = manifest.master_seed + RETRY_SEED_INCREMENT
        retry = from_dict({**manifest.to_dict(), "master_seed": seed})
        final = run_experiment(retry, workers=workers, output_dir=root / f"{name}-retry")
    return VerifyRecord(name, final, first, final is not first, time.perf_counter() - start)


def run_all(workers=None, output_root="remlab-verify", names=None) -> list:
    names = BUILTIN_NAMES if names is None else names
    return [run_builtin(name, workers, output_root) for name in names]
