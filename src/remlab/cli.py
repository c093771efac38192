"""Command line entry points: remlab run / verify / theory.

Exit codes: 0 success with all checks passing, 1 one or more checks
failed, 2 invalid input (bad manifest, bad arguments, an output
directory that cannot be created), 3 runtime failure.  Input is
validated in full before a run starts, so any exception raised during
the run is a runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import resolve_workers, run_experiment
from .manifest import ManifestError, from_dict, load
from .theory import critical_beta, free_energy_limit
from .verify import BUILTIN_NAMES, run_all


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remlab",
        description="Random energy model simulator and verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment manifest")
    run_p.add_argument("manifest", help="path to a manifest JSON file")
    run_p.add_argument("--workers", help="worker processes (integer or 'auto')")
    run_p.add_argument("--output-dir", default="remlab-out", help="artifact directory")
    run_p.add_argument("--seed", type=int, help="override the manifest master_seed")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the built-in verification manifests")
    verify_p.add_argument("--workers", help="worker processes (integer or 'auto')")
    verify_p.add_argument("--output-dir", default="remlab-verify", help="artifact root")
    verify_p.add_argument(
        "--only", help="comma-separated subset of built-in manifest names to run"
    )
    verify_p.set_defaults(func=_cmd_verify)

    theory_p = sub.add_parser("theory", help="print closed-form values for (alpha, beta)")
    theory_p.add_argument("alpha", type=float)
    theory_p.add_argument("beta", type=float)
    theory_p.set_defaults(func=_cmd_theory)
    return parser


def _cmd_run(args) -> int:
    try:
        manifest = load(args.manifest)
        if args.seed is not None:
            manifest = from_dict({**manifest.to_dict(), "master_seed": args.seed})
    except FileNotFoundError:
        print(f"error: manifest file not found: {args.manifest}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read manifest {args.manifest}: {exc}", file=sys.stderr)
        return 2
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    try:
        workers = resolve_workers(args.workers)
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # OSError: an output directory that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = run_experiment(manifest, workers=workers, output_dir=args.output_dir)
    for check in outcome.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}")
    print(f"artifacts: {outcome.output_dir}")
    return 0 if outcome.passed else 1


def _cmd_verify(args) -> int:
    names = None
    if args.only is not None:
        names = [item.strip() for item in args.only.split(",") if item.strip()]
        if not names:
            print(
                f"error: --only names no manifest; valid: {list(BUILTIN_NAMES)}",
                file=sys.stderr,
            )
            return 2
        unknown = [name for name in names if name not in BUILTIN_NAMES]
        if unknown:
            print(
                f"error: unknown manifest names {unknown}; valid: {list(BUILTIN_NAMES)}",
                file=sys.stderr,
            )
            return 2
    root = Path(args.output_dir)
    try:
        workers = resolve_workers(args.workers)
        root.mkdir(parents=True, exist_ok=True)
        for name in names or BUILTIN_NAMES:
            (root / name).mkdir(exist_ok=True)
            # a stale retry directory is removed before the run; anything else is kept
            retry = root / f"{name}-retry"
            if retry.is_symlink() or retry.exists() and not retry.is_dir():
                raise NotADirectoryError(f"{retry} exists and is not a directory")
    except (ValueError, OSError) as exc:  # OSError: an output directory that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = run_all(workers=workers, output_root=args.output_dir, names=names)
    for record in records:
        status = "PASS" if record.passed else "FAIL"
        note = " (passed after retry)" if record.retried and record.passed else ""
        note = " (failed twice)" if record.retried and not record.passed else note
        print(
            f"[{status}] {record.name}: {len(record.outcome.checks)} checks, "
            f"{record.duration:.1f}s{note}"
        )
    passed = all(record.passed for record in records)
    print(f"verification {'passed' if passed else 'FAILED'}")
    return 0 if passed else 1


def _cmd_theory(args) -> int:
    try:
        bc = critical_beta(args.alpha)
        fe = free_energy_limit(args.alpha, args.beta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.beta < bc:
        regime = "high_temperature"
    elif args.beta == bc:
        regime = "critical"
    else:
        regime = "low_temperature"
    print(f"alpha {args.alpha!r}")
    print(f"beta {args.beta!r}")
    print(f"critical_beta {bc!r}")
    print(f"free_energy_limit {fe!r}")
    print(f"regime {regime}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - every fault raised during a run
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
