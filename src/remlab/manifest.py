"""Experiment manifests: one JSON document describes one experiment.

A manifest fixes everything a run needs (environment, temperatures,
replica count, seeds, experiment-specific blocks, attached checks) so
that a run is reproducible from the file alone.  Every value is read
once, as one of the kinds in ``KINDS``: each field of
``ExperimentManifest`` and ``PDBlock`` declares its kind next to its
default, and each check parameter declares its kind in the experiment
registry (``remlab.experiments.REGISTRY``).  Validation failures carry
the JSON path of the offending value.  The registry also says which
fields each experiment reads; a field that only other experiments read
must stay at its default.  Checks are stored with their parameters
resolved, defaults included.  ``from_json(to_json(m))`` returns an
equal manifest; that round trip is part of the test suite.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from .engine import CHUNK_BITS, MAX_N, TOP_M
from .environment import MAX_ALPHA
from .experiments import REGISTRY
from .rng import MAX_SEED
from .stats import pool_right_tail
from .theory import poisson_count_probs


class ManifestError(ValueError):
    """Schema or parameter violation, with the JSON path in the message."""


def _fail(path: str, message: str) -> None:
    raise ManifestError(f"{path}: {message}")


def _kind(kind: str, default=dataclasses.MISSING):
    """A manifest field read as ``kind`` (see ``KINDS``), unset at ``default``."""
    return dataclasses.field(default=default, metadata={"kind": kind})


@dataclass(frozen=True)
class PDBlock:
    """Poisson-Dirichlet sampling block for pd_compare experiments."""

    m: float = _kind("fraction")
    epsilon_mass: float = _kind("fraction", 1e-6)
    draws: int = _kind("count", 0)  # 0 is not a count: a pd block must set draws
    truncation_b: float = _kind("number", 0.0)
    stick_draws: int = _kind("natural", 0)
    stick_length: int = _kind("count", 200)


@dataclass(frozen=True)
class ExperimentManifest:
    experiment: str
    alpha: float = _kind("shape")
    n: int = _kind("spins")
    betas: tuple = _kind("[positive]", ())
    replicas: int = _kind("count", 1)
    master_seed: int = _kind("seed", 0)
    intervals: tuple = _kind("[pair]", ())
    k_marginal: int = _kind("size", 0)
    b_levels: tuple = _kind("[number]", ())
    top_m: int = _kind("count", TOP_M)
    pd: PDBlock | None = _kind("pd", None)
    output_dir: str | None = _kind("path", None)
    workers: int | str | None = _kind("workers", None)
    checks: tuple = _kind("checks", ())

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


# Each top-level field's value where a manifest leaves it out: its default, as JSON.
_UNSET = {
    f.name: list(f.default) if isinstance(f.default, tuple) else f.default
    for f in dataclasses.fields(ExperimentManifest)
    if f.default is not dataclasses.MISSING
}
_TOP_LEVEL_KEYS = {"experiment", "env", *_UNSET}
# The fields only some experiments read; the others must leave them unset.
_SELECTIVE = [name for name in _UNSET if any(name in e.fields for e in REGISTRY.values())]


def _known(doc: dict, keys, path: str) -> None:
    unknown = set(doc) - set(keys)
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    out = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not math.isfinite(out):
        _fail(path, f"expected a finite number, got {value!r}")
    return out


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _pair(value, path: str) -> tuple:
    # a tuple is what to_dict() writes for a check's interval
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, f"expected a [low, high] pair, got {value!r}")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


def _workers(value, path: str):
    return value if value == "auto" else _integer(value, path)


def _rule(base, test=lambda value, fields: True, expected: str = ""):
    """A kind: ``base`` checks the JSON type and converts, ``test`` the range."""

    def read(value, path: str, fields: dict):
        value = base(value, path)
        if not test(value, fields):
            _fail(path, f"expected {expected}, got {value!r}")
        return value

    return read


def _pd(value, path: str, fields: dict) -> PDBlock:
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    _known(value, (f.name for f in dataclasses.fields(PDBlock)), path)
    pd = PDBlock(**{
        f.name: _read(f.metadata["kind"], value.get(f.name, f.default), f"{path}.{f.name}", fields)
        for f in dataclasses.fields(PDBlock)
    })
    betas = fields["betas"]
    if len(betas) != 1:
        _fail("betas", "a pd block takes exactly one beta")
    if abs(pd.m * betas[0] - 1.0) > 1e-9:
        _fail(f"{path}.m", f"expected m * beta = 1, got m={pd.m} beta={betas[0]}")
    return pd


def _bins(value, path: str, fields: dict) -> int:
    """``kmax`` of a count chi-square test, whose expected counts must pool into bins."""
    kmax = _read("count", value, path, fields)
    expected = [fields["replicas"] * p for p in poisson_count_probs(fields["b"], kmax)]
    try:
        pool_right_tail(expected)
    except ValueError as exc:
        _fail(path, f"{exc} (b={fields['b']:g}, replicas={fields['replicas']}, kmax={kmax})")
    return kmax


def _checks(value, path: str, fields: dict) -> tuple:
    """Each check with its parameters read by kind and the registry defaults filled in."""
    if not isinstance(value, list):
        _fail(path, "expected a list of check objects")
    experiment = fields["experiment"]
    specs = REGISTRY[experiment].checks
    checks = []
    for i, item in enumerate(value):
        at = f"{path}[{i}]"
        if not isinstance(item, dict):
            _fail(at, f"expected an object, got {item!r}")
        name = item.get("check")
        if not isinstance(name, str) or name not in specs:
            valid = sorted(specs)
            _fail(f"{at}.check", f"unknown check {name!r} for {experiment}; valid: {valid}")
        spec = specs[name]
        _known(item, ["check", *spec.params], at)
        check = {"check": name}
        for key, (kind, default) in spec.params.items():
            param = item.get(key, default)
            param = param(fields) if callable(param) else param
            check[key] = _read(kind, param, f"{at}.{key}", {**fields, **check})
        if spec.needs and getattr(fields["pd"], spec.needs) < 1:
            _fail(at, f"{name} requires pd.{spec.needs} >= 1")
        checks.append(check)
    return tuple(checks)


# The manifest's value kinds.  A kind reads a JSON value into its Python
# form, given the fields read before it (for a check parameter, also the
# check's parameters read before it); a kind in brackets, such as
# "[pair]", is a list of that kind, read as a tuple with no value repeated.
KINDS = {
    "number": _rule(_number, expected="a finite number"),
    "positive": _rule(_number, lambda v, f: v > 0.0, "a number > 0"),
    "fraction": _rule(_number, lambda v, f: 0.0 < v < 1.0, "a number in (0, 1)"),
    "shape": _rule(_number, lambda v, f: 1.0 <= v <= MAX_ALPHA, f"alpha in [1, {MAX_ALPHA:g}]"),
    "double_exponential": _rule(
        _number, lambda v, f: v == 1.0, "alpha = 1, the only shape this limit law is derived for"
    ),
    "beta": _rule(_number, lambda v, f: v in f["betas"], "a beta in the betas list"),
    "b": _rule(_number, lambda v, f: v in f["b_levels"], "a level in the b_levels list"),
    "count": _rule(_integer, lambda v, f: v >= 1, "an integer >= 1"),
    "natural": _rule(_integer, lambda v, f: v >= 0, "an integer >= 0"),
    "spins": _rule(_integer, lambda v, f: 1 <= v <= MAX_N, f"an integer in [1, {MAX_N}]"),
    "size": _rule(
        _integer,
        lambda v, f: 0 <= v <= min(f["n"], CHUNK_BITS),
        f"an integer in [0, min(n, {CHUNK_BITS})]",
    ),
    "seed": _rule(_integer, lambda v, f: 0 <= v < MAX_SEED, "an integer in [0, 2^64)"),
    "replicas": _rule(_integer, lambda v, f: 1 <= v <= f["replicas"], "a count <= replicas"),
    "pair": _rule(_pair, lambda v, f: v[0] < v[1], "low < high"),
    "interval": _rule(_pair, lambda v, f: v in f["intervals"], "a pair in the intervals list"),
    "path": _rule(lambda v, p: v, lambda v, f: isinstance(v, str), "a string path"),
    "workers": _rule(_workers, lambda v, f: v == "auto" or v >= 1, "an integer >= 1 or 'auto'"),
    "bins": _bins,
    "pd": _pd,
    "checks": _checks,
}


def _read(kind: str, value, path: str, fields: dict):
    """``value`` read as ``kind``; MISSING or ``...`` stands for a required value left out."""
    if value is dataclasses.MISSING or value is ...:
        _fail(path, "required")
    if kind.startswith("["):
        if not isinstance(value, list):
            _fail(path, f"expected a list, got {value!r}")
        items = tuple(_read(kind[1:-1], v, f"{path}[{i}]", fields) for i, v in enumerate(value))
        for i, item in enumerate(items):
            if item in items[:i]:  # each value keys its own results, written once
                noun = path.removesuffix("s")
                _fail(f"{path}[{i}]", f"repeats the {noun} {item!r}; each {noun} may appear once")
        return items
    return KINDS[kind](value, path, fields)


def from_dict(doc: dict) -> ExperimentManifest:
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest root: expected an object, got {type(doc).__name__}")
    _known(doc, _TOP_LEVEL_KEYS, "manifest root")
    experiment = doc.get("experiment")
    if not isinstance(experiment, str) or experiment not in REGISTRY:
        _fail("experiment", f"expected one of {list(REGISTRY)}, got {experiment!r}")
    env = doc.get("env")
    if not isinstance(env, dict) or set(env) != {"alpha", "n"}:
        _fail("env", f"expected an object with the keys alpha and n, got {env!r}")
    entry = REGISTRY[experiment]
    for name in _SELECTIVE:
        value = doc.get(name, _UNSET[name])
        if entry.fields.get(name) and value == _UNSET[name]:
            _fail(name, f"required by {experiment}")
        if name not in entry.fields and value != _UNSET[name]:
            _fail(name, f"not read by {experiment}; leave it out")
    fields = {"experiment": experiment}
    for f in dataclasses.fields(ExperimentManifest)[1:]:
        path = f"env.{f.name}" if f.name in env else f.name
        value = env[f.name] if f.name in env else doc.get(f.name, _UNSET[f.name])
        kind = entry.fields.get(f.name)
        if value is not None or f.default is not None:
            value = _read(kind if isinstance(kind, str) else f.metadata["kind"], value, path, fields)
        fields[f.name] = value
    return ExperimentManifest(**fields)


def from_json(text: str) -> ExperimentManifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal beyond Python's digit limit, or nesting beyond the recursion limit
        raise ManifestError(f"invalid JSON: {exc}") from exc
    return from_dict(doc)


def load(path) -> ExperimentManifest:
    with open(path, encoding="utf-8") as handle:
        return from_json(handle.read())
