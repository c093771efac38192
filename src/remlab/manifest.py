"""Experiment manifests: one JSON document describes one experiment.

A manifest fixes everything a run needs (environment, temperatures,
replica count, seeds, experiment-specific blocks, attached checks) so
that a run is reproducible from the file alone.  Validation failures
carry the JSON path of the offending field.  ``from_json(to_json(m))``
returns an equal manifest; that round trip is part of the test suite.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .engine import MAX_N

EXPERIMENTS = (
    "free_energy",
    "rate_function",
    "marginals",
    "exceedance",
    "pd_compare",
    "diagnostics",
)

MAX_SEED = 1 << 64

# Check vocabulary per experiment type.  Each entry maps a check name to
# the parameter fields it accepts (True = required).
CHECK_SCHEMAS = {
    "free_energy": {
        "mean_within": {"beta": True, "tol": True},
        "curve_shape": {"center_beta": False, "window": False},
    },
    "rate_function": {
        "pooled_rate_in": {"interval": True, "low": True, "high": True},
        "zero_hits": {"interval": True},
        "outside_fraction_below": {
            "interval": True,
            "threshold": True,
            "min_replicas": True,
        },
    },
    "marginals": {
        "max_marginal_deviation": {"beta": True, "tol": True},
    },
    "exceedance": {
        "count_zero_prob": {"b": True, "tol": True},
        "count_chi_square": {"b": True, "kmax": False, "level": False},
        "positions_ks": {"b": True, "level": False},
    },
    "pd_compare": {
        "ks_w1": {"max_statistic": True},
        "ks_sumsq": {"max_statistic": True},
        "stick_ks_w1": {"max_statistic": True},
    },
    "diagnostics": {
        "bound_suite": {},
        "limit_continuity": {},
        "shift_identity": {},
        "varadhan_balance": {},
        "pmf_normalization": {},
    },
}


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
            doc["pd"] = {
                "m": self.pd.m,
                "epsilon_mass": self.pd.epsilon_mass,
                "draws": self.pd.draws,
                "truncation_b": self.pd.truncation_b,
                "stick_draws": self.pd.stick_draws,
                "stick_length": self.pd.stick_length,
            }
        if self.output_dir is not None:
            doc["output_dir"] = self.output_dir
        if self.workers is not None:
            doc["workers"] = self.workers
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


_TOP_LEVEL_KEYS = {
    "experiment",
    "env",
    "betas",
    "replicas",
    "master_seed",
    "intervals",
    "k_marginal",
    "b_levels",
    "top_m",
    "pd",
    "checks",
    "output_dir",
    "workers",
}

_PD_KEYS = {"m", "epsilon_mass", "draws", "truncation_b", "stick_draws", "stick_length"}


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


def _parse_betas(doc: dict, experiment: str) -> tuple:
    raw = doc.get("betas", [])
    if not isinstance(raw, list):
        _fail("betas", "expected a list of numbers")
    betas = tuple(_as_float(v, f"betas[{i}]") for i, v in enumerate(raw))
    for i, b in enumerate(betas):
        if b <= 0.0:
            _fail(f"betas[{i}]", f"expected beta > 0, got {b}")
    if experiment in ("free_energy", "marginals", "pd_compare") and not betas:
        _fail("betas", f"{experiment} requires at least one beta")
    if experiment == "pd_compare" and len(betas) != 1:
        _fail("betas", "pd_compare takes exactly one beta")
    return betas


def _parse_intervals(doc: dict, experiment: str) -> tuple:
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
    if experiment == "rate_function" and not intervals:
        _fail("intervals", "rate_function requires at least one interval")
    return tuple(intervals)


def _parse_pd(doc: dict, experiment: str, betas: tuple) -> PDBlock | None:
    raw = doc.get("pd")
    if raw is None:
        if experiment == "pd_compare":
            _fail("pd", "pd_compare requires a pd block")
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
    if draws < 0:
        _fail("pd.draws", f"expected draws >= 0, got {draws}")
    truncation_b = _as_float(raw.get("truncation_b", 0.0), "pd.truncation_b")
    stick_draws = _as_int(raw.get("stick_draws", 0), "pd.stick_draws")
    if stick_draws < 0:
        _fail("pd.stick_draws", f"expected stick_draws >= 0, got {stick_draws}")
    stick_length = _as_int(raw.get("stick_length", 200), "pd.stick_length")
    if stick_length < 1:
        _fail("pd.stick_length", f"expected stick_length >= 1, got {stick_length}")
    if experiment == "pd_compare":
        if draws < 1:
            _fail("pd.draws", "pd_compare requires draws >= 1")
        if abs(m * betas[0] - 1.0) > 1e-9:
            _fail("pd.m", f"expected m * beta = 1, got m={m} beta={betas[0]}")
    return PDBlock(m, epsilon, draws, truncation_b, stick_draws, stick_length)


def _parse_checks(doc: dict, manifest: "ExperimentManifest") -> tuple:
    raw = doc.get("checks", [])
    if not isinstance(raw, list):
        _fail("checks", "expected a list of check objects")
    schema = CHECK_SCHEMAS[manifest.experiment]
    checks = []
    for i, item in enumerate(raw):
        path = f"checks[{i}]"
        if not isinstance(item, dict):
            _fail(path, f"expected an object, got {item!r}")
        name = item.get("check")
        if name not in schema:
            _fail(
                f"{path}.check",
                f"unknown check {name!r} for {manifest.experiment}; "
                f"valid: {sorted(schema)}",
            )
        params = schema[name]
        unknown = set(item) - set(params) - {"check"}
        if unknown:
            _fail(path, f"unknown keys {sorted(unknown)} for check {name!r}")
        for key, required in params.items():
            if required and key not in item:
                _fail(f"{path}.{key}", f"required by check {name!r}")
        if "beta" in item:
            beta = _as_float(item["beta"], f"{path}.beta")
            if beta not in manifest.betas:
                _fail(f"{path}.beta", f"beta {beta} is not in the betas list")
        if "interval" in item:
            pair = item["interval"]
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{path}.interval", f"expected a [low, high] pair, got {pair!r}")
            interval = (
                _as_float(pair[0], f"{path}.interval[0]"),
                _as_float(pair[1], f"{path}.interval[1]"),
            )
            if interval not in manifest.intervals:
                _fail(f"{path}.interval", f"{list(interval)} is not in the intervals list")
        if "b" in item:
            b = _as_float(item["b"], f"{path}.b")
            if b not in manifest.b_levels:
                _fail(f"{path}.b", f"b {b} is not in the b_levels list")
        for key in ("tol", "threshold", "max_statistic", "low", "high", "level", "window", "center_beta"):
            if key in item:
                value = _as_float(item[key], f"{path}.{key}")
                if key not in ("low", "high", "center_beta") and value <= 0.0:
                    _fail(f"{path}.{key}", f"expected a positive number, got {value}")
        for key in ("min_replicas", "kmax"):
            if key in item:
                value = _as_int(item[key], f"{path}.{key}")
                if value < 1:
                    _fail(f"{path}.{key}", f"expected >= 1, got {value}")
        if name == "outside_fraction_below" and item["min_replicas"] > manifest.replicas:
            _fail(f"{path}.min_replicas", "exceeds the replica count")
        if name == "stick_ks_w1" and (manifest.pd is None or manifest.pd.stick_draws < 1):
            _fail(path, "stick_ks_w1 requires pd.stick_draws >= 1")
        checks.append(dict(item))
    return tuple(checks)


def from_dict(doc: dict) -> ExperimentManifest:
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest root: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        _fail("manifest root", f"unknown keys {sorted(unknown)}")
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        _fail("experiment", f"expected one of {list(EXPERIMENTS)}, got {experiment!r}")
    alpha, n = _parse_env(doc)
    betas = _parse_betas(doc, experiment)
    replicas = _as_int(doc.get("replicas", 1), "replicas")
    if replicas < 1:
        _fail("replicas", f"expected a positive integer, got {replicas}")
    master_seed = _as_int(doc.get("master_seed", 0), "master_seed")
    if not 0 <= master_seed < MAX_SEED:
        _fail("master_seed", f"expected 0 <= seed < 2^64, got {master_seed}")
    intervals = _parse_intervals(doc, experiment)
    k_marginal = _as_int(doc.get("k_marginal", 0), "k_marginal")
    if not 0 <= k_marginal <= n:
        _fail("k_marginal", f"expected 0 <= k_marginal <= n={n}, got {k_marginal}")
    if experiment == "marginals" and k_marginal < 1:
        _fail("k_marginal", "marginals requires k_marginal >= 1")
    raw_b = doc.get("b_levels", [])
    if not isinstance(raw_b, list):
        _fail("b_levels", "expected a list of numbers")
    b_levels = tuple(_as_float(v, f"b_levels[{i}]") for i, v in enumerate(raw_b))
    if experiment == "exceedance" and not b_levels:
        _fail("b_levels", "exceedance requires at least one b level")
    top_m = _as_int(doc.get("top_m", 1024), "top_m")
    if top_m < 1:
        _fail("top_m", f"expected top_m >= 1, got {top_m}")
    pd = _parse_pd(doc, experiment, betas)
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
        intervals=intervals,
        k_marginal=k_marginal,
        b_levels=b_levels,
        top_m=top_m,
        pd=pd,
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
