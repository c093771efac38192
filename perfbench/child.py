"""One timed session in a fresh interpreter: set-up once, then repeated runs.

Usage: python3 child.py MANIFEST_JSON WORKERS OUTPUT_DIR SPAWNED_AT BUDGET_S

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this interpreter; on Linux that clock is system-wide, so the
set-up time includes interpreter start-up, ``import remlab`` and parsing
and validating the manifest.  Then ``run_experiment`` is called back to
back, each call writing to a fresh directory, for about ``BUDGET_S``
seconds (at least once).  A fixed host probe (``host_probe_s``) is timed
after set-up and after every call.  Prints one JSON line: the set-up
time, the median probe time, the peak RSS of this process and its reaped
pool workers, and per call the wall time, the user+sys CPU of this
process and its pool workers, the failed checks and the sha256 of every
CSV written.
"""

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.glob("*.csv"))}


def host_probe_s() -> float:
    """Seconds taken by a fixed kernel of the operations remlab's layers use.

    Philox uniforms, the normal and gamma inverse cdfs, ``exp`` and
    ``bincount`` over arrays the size of half an engine chunk, and a pure
    Python loop.  Its inputs never change and it touches no remlab code,
    so its time follows only the speed the shared host gives this process
    at that moment; the timed calls are scaled by it.
    """
    import numpy as np
    from scipy import special

    gen = np.random.Generator(np.random.Philox(12345))
    t0 = time.perf_counter()
    u = gen.random(1 << 19)
    x = special.ndtri(u)
    special.gammaincinv(2.0 / 3.0, u[: 1 << 13])
    np.bincount((u * 64).astype(np.int64), weights=np.exp(x), minlength=64)
    total = 0
    for v in range(120000):
        total += v * v
    return time.perf_counter() - t0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(manifest_path: str, workers: str, output_dir: str, spawned_at: str, budget_s: str) -> None:
    import remlab  # noqa: F401  (the package import is part of set-up)
    from remlab.experiments import run_experiment
    from remlab.manifest import load

    manifest = load(manifest_path)
    setup_s = time.monotonic() - float(spawned_at)

    calls = []
    host_probe_s()  # warm-up: the first call pays for lazy set-up in numpy and scipy
    probes = [host_probe_s()]
    start = time.perf_counter()
    while not calls or time.perf_counter() - start + statistics.median(c["wall_s"] for c in calls) <= float(budget_s):
        out = Path(output_dir) / f"call-{len(calls)}"
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            outcome = run_experiment(manifest, workers=int(workers), output_dir=out)
        except Exception as exc:  # reported as a failed run; the session stops
            calls.append({"wall_s": time.perf_counter() - t0, "error": repr(exc)})
            break
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        probes.append(host_probe_s())
        calls.append({
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "failed_checks": [c.name for c in outcome.checks if not c.passed],
            "digests": digests(out),
        })
        shutil.rmtree(out)

    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({"setup_s": setup_s, "probe_s": statistics.median(probes),
                      "peak_rss_mb": rss_kb / 1024.0, "calls": calls}))


if __name__ == "__main__":
    main(*sys.argv[1:])
