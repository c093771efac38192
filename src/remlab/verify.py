"""Built-in verification manifests and the one-retry policy.

Each bundled manifest encodes one claim about the model together with
the statistical check that confirms it at desk scale.  A failed
statistical check is retried exactly once on a derived seed
(master_seed + 1): with per-check significance at the 0.001 level a
false alarm survives the retry with probability about 1e-6, while a
real defect keeps failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .experiments import RunOutcome, run_experiment
from .manifest import ExperimentManifest, from_json
from .rng import RETRY_SEED_INCREMENT

BUILTIN_NAMES = (
    "free_energy_high_temp",
    "free_energy_low_temp",
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
        final = run_experiment(
            manifest,
            workers=workers,
            output_dir=root / f"{name}-retry",
            master_seed=manifest.master_seed + RETRY_SEED_INCREMENT,
        )
    return VerifyRecord(name, final, first, final is not first, time.perf_counter() - start)


def run_all(workers=None, output_root="remlab-verify", names=None) -> list:
    names = BUILTIN_NAMES if names is None else names
    return [run_builtin(name, workers, output_root) for name in names]
