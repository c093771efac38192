"""Experiment manifests: one JSON document describes one experiment.

A manifest fixes everything a run needs (environment, temperatures,
replica count, seeds, experiment-specific blocks, attached checks) so
that a run is reproducible from the file alone.  Validation failures
carry the JSON path of the offending field.  The experiment registry
(``remlab.experiments.REGISTRY``) says which fields and checks each
experiment reads; a field it does not read must be left unset.
``from_json(to_json(m))`` returns an equal manifest; that round trip is
part of the test suite.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .engine import MAX_N
from .experiments import REGISTRY

MAX_SEED = 1 << 64

# The fields only some experiments read, with the value that leaves them unset.
_READ_FIELDS = {"betas": [], "intervals": [], "k_marginal": 0, "b_levels": [], "pd": None}


class ManifestError(ValueError):
    """Schema or parameter violation, with the JSON path in the message."""


def _fail(path: str, message: str) -> None:
    raise ManifestError(f"{path}: {message}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        _fail(path, f"expected a finite number, got {value!r}")
    return out


@dataclass(frozen=True)
class PDBlock:
    """Poisson-Dirichlet sampling block for pd_compare experiments."""

    m: float
    epsilon_mass: float = 1e-6
    draws: int = 0
    truncation_b: float = 0.0
    stick_draws: int = 0
    stick_length: int = 200


@dataclass(frozen=True)
class ExperimentManifest:
    experiment: str
    alpha: float
    n: int
    betas: tuple = ()
    replicas: int = 1
    master_seed: int = 0
    intervals: tuple = ()
    k_marginal: int = 0
    b_levels: tuple = ()
    top_m: int = 1024
    pd: PDBlock | None = None
    checks: tuple = ()
    output_dir: str | None = None
    workers: int | str | None = None

    def to_dict(self) -> dict:
        doc = {
            "experiment": self.experiment,
            "env": {"alpha": self.alpha, "n": self.n},
            "betas": list(self.betas),
            "replicas": self.replicas,
            "master_seed": self.master_seed,
            "intervals": [list(pair) for pair in self.intervals],
            "k_marginal": self.k_marginal,
            "b_levels": list(self.b_levels),
            "top_m": self.top_m,
            "checks": [dict(c) for c in self.checks],
        }
        if self.pd is not None:
            doc["pd"] = dataclasses.asdict(self.pd)
        if self.output_dir is not None:
            doc["output_dir"] = self.output_dir
        if self.workers is not None:
            doc["workers"] = self.workers
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


_TOP_LEVEL_KEYS = {f.name for f in dataclasses.fields(ExperimentManifest)} - {"alpha", "n"}
_TOP_LEVEL_KEYS.add("env")
_PD_KEYS = {f.name for f in dataclasses.fields(PDBlock)}


def _parse_env(doc: dict) -> tuple[float, int]:
    env = doc.get("env")
    if not isinstance(env, dict):
        _fail("env", "expected an object with keys alpha and n")
    unknown = set(env) - {"alpha", "n"}
    if unknown:
        _fail("env", f"unknown keys {sorted(unknown)}")
    if "alpha" not in env or "n" not in env:
        _fail("env", "both alpha and n are required")
    alpha = _as_float(env["alpha"], "env.alpha")
    if alpha < 1.0:
        _fail("env.alpha", f"expected alpha >= 1, got {alpha}")
    n = _as_int(env["n"], "env.n")
    if not 1 <= n <= MAX_N:
        _fail("env.n", f"expected 1 <= n <= {MAX_N}, got {n}")
    return alpha, n


def _parse_numbers(doc: dict, key: str) -> tuple:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        _fail(key, "expected a list of numbers")
    return tuple(_as_float(v, f"{key}[{i}]") for i, v in enumerate(raw))


def _parse_intervals(doc: dict) -> tuple:
    raw = doc.get("intervals", [])
    if not isinstance(raw, list):
        _fail("intervals", "expected a list of [low, high] pairs")
    intervals = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"intervals[{i}]", f"expected a [low, high] pair, got {pair!r}")
        low = _as_float(pair[0], f"intervals[{i}][0]")
        high = _as_float(pair[1], f"intervals[{i}][1]")
        if not low < high:
            _fail(f"intervals[{i}]", f"expected low < high, got [{low}, {high}]")
        intervals.append((low, high))
    return tuple(intervals)


def _parse_pd(doc: dict, betas: tuple) -> PDBlock | None:
    # only pd_compare reads a pd block, and it takes exactly one beta
    raw = doc.get("pd")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        _fail("pd", "expected an object")
    unknown = set(raw) - _PD_KEYS
    if unknown:
        _fail("pd", f"unknown keys {sorted(unknown)}")
    if "m" not in raw:
        _fail("pd.m", "required")
    m = _as_float(raw["m"], "pd.m")
    if not 0.0 < m < 1.0:
        _fail("pd.m", f"expected 0 < m < 1, got {m}")
    epsilon = _as_float(raw.get("epsilon_mass", 1e-6), "pd.epsilon_mass")
    if not 0.0 < epsilon < 1.0:
        _fail("pd.epsilon_mass", f"expected 0 < epsilon_mass < 1, got {epsilon}")
    draws = _as_int(raw.get("draws", 0), "pd.draws")
    if draws < 1:
        _fail("pd.draws", f"expected draws >= 1, got {draws}")
    truncation_b = _as_float(raw.get("truncation_b", 0.0), "pd.truncation_b")
    stick_draws = _as_int(raw.get("stick_draws", 0), "pd.stick_draws")
    if stick_draws < 0:
        _fail("pd.stick_draws", f"expected stick_draws >= 0, got {stick_draws}")
    stick_length = _as_int(raw.get("stick_length", 200), "pd.stick_length")
    if stick_length < 1:
        _fail("pd.stick_length", f"expected stick_length >= 1, got {stick_length}")
    if len(betas) != 1:
        _fail("betas", "a pd block takes exactly one beta")
    if abs(m * betas[0] - 1.0) > 1e-9:
        _fail("pd.m", f"expected m * beta = 1, got m={m} beta={betas[0]}")
    return PDBlock(m, epsilon, draws, truncation_b, stick_draws, stick_length)


def _check_param(value, kind: str, path: str, manifest: "ExperimentManifest") -> None:
    """Validate one check parameter by its registry kind.

    ``beta``, ``interval`` and ``b`` must be listed in the manifest's
    betas, intervals and b_levels; ``number`` is any number, ``positive``
    one above 0, ``count`` an integer >= 1 and ``replicas`` one in
    [1, replicas].
    """
    if kind == "interval":
        if not isinstance(value, list) or len(value) != 2:
            _fail(path, f"expected a [low, high] pair, got {value!r}")
        interval = (_as_float(value[0], f"{path}[0]"), _as_float(value[1], f"{path}[1]"))
        if interval not in manifest.intervals:
            _fail(path, f"{list(interval)} is not in the intervals list")
    elif kind in ("count", "replicas"):
        count = _as_int(value, path)
        if count < 1:
            _fail(path, f"expected >= 1, got {count}")
        if kind == "replicas" and count > manifest.replicas:
            _fail(path, "exceeds the replica count")
    else:
        number = _as_float(value, path)
        if kind == "positive" and number <= 0.0:
            _fail(path, f"expected a positive number, got {number}")
        if kind == "beta" and number not in manifest.betas:
            _fail(path, f"beta {number} is not in the betas list")
        if kind == "b" and number not in manifest.b_levels:
            _fail(path, f"b {number} is not in the b_levels list")


def _parse_checks(doc: dict, manifest: "ExperimentManifest") -> tuple:
    raw = doc.get("checks", [])
    if not isinstance(raw, list):
        _fail("checks", "expected a list of check objects")
    specs = REGISTRY[manifest.experiment].checks
    checks = []
    for i, item in enumerate(raw):
        path = f"checks[{i}]"
        if not isinstance(item, dict):
            _fail(path, f"expected an object, got {item!r}")
        name = item.get("check")
        if not isinstance(name, str) or name not in specs:
            _fail(
                f"{path}.check",
                f"unknown check {name!r} for {manifest.experiment}; valid: {sorted(specs)}",
            )
        spec = specs[name]
        unknown = set(item) - set(spec.params) - {"check"}
        if unknown:
            _fail(path, f"unknown keys {sorted(unknown)} for check {name!r}")
        for key, (kind, default) in spec.params.items():
            if key in item:
                _check_param(item[key], kind, f"{path}.{key}", manifest)
            elif default is ...:
                _fail(f"{path}.{key}", f"required by check {name!r}")
        if spec.needs and getattr(manifest.pd, spec.needs) < 1:
            _fail(path, f"{name} requires pd.{spec.needs} >= 1")
        checks.append(dict(item))
    return tuple(checks)


def from_dict(doc: dict) -> ExperimentManifest:
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest root: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        _fail("manifest root", f"unknown keys {sorted(unknown)}")
    experiment = doc.get("experiment")
    if not isinstance(experiment, str) or experiment not in REGISTRY:
        _fail("experiment", f"expected one of {list(REGISTRY)}, got {experiment!r}")
    alpha, n = _parse_env(doc)
    reads = REGISTRY[experiment].fields
    for key, unset in _READ_FIELDS.items():
        if reads.get(key) and doc.get(key, unset) == unset:
            _fail(key, f"required by {experiment}")
        if key not in reads and doc.get(key, unset) != unset:
            _fail(key, f"not read by {experiment}; leave it out")
    betas = _parse_numbers(doc, "betas")
    for i, b in enumerate(betas):
        if b <= 0.0:
            _fail(f"betas[{i}]", f"expected beta > 0, got {b}")
    replicas = _as_int(doc.get("replicas", 1), "replicas")
    if replicas < 1:
        _fail("replicas", f"expected a positive integer, got {replicas}")
    master_seed = _as_int(doc.get("master_seed", 0), "master_seed")
    if not 0 <= master_seed < MAX_SEED:
        _fail("master_seed", f"expected 0 <= seed < 2^64, got {master_seed}")
    k_marginal = _as_int(doc.get("k_marginal", 0), "k_marginal")
    if not 0 <= k_marginal <= n:
        _fail("k_marginal", f"expected 0 <= k_marginal <= n={n}, got {k_marginal}")
    top_m = _as_int(doc.get("top_m", 1024), "top_m")
    if top_m < 1:
        _fail("top_m", f"expected top_m >= 1, got {top_m}")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        _fail("output_dir", f"expected a string path, got {output_dir!r}")
    workers = doc.get("workers")
    if workers is not None and workers != "auto":
        workers = _as_int(workers, "workers")
        if workers < 1:
            _fail("workers", f"expected a positive integer or 'auto', got {workers}")
    manifest = ExperimentManifest(
        experiment=experiment,
        alpha=alpha,
        n=n,
        betas=betas,
        replicas=replicas,
        master_seed=master_seed,
        intervals=_parse_intervals(doc),
        k_marginal=k_marginal,
        b_levels=_parse_numbers(doc, "b_levels"),
        top_m=top_m,
        pd=_parse_pd(doc, betas),
        output_dir=output_dir,
        workers=workers,
    )
    checks = _parse_checks(doc, manifest)
    return dataclasses.replace(manifest, checks=checks)


def from_json(text: str) -> ExperimentManifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return from_dict(doc)


def load(path) -> ExperimentManifest:
    with open(path, encoding="utf-8") as handle:
        return from_json(handle.read())
