"""One benchmark pass in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE SPAWNED [TRACE_OUT]

Run from the root of a checkout.  SPAWNED is the parent's ``time.monotonic()``
just before it started this process (the clock is system-wide on Linux), so
``setup_s`` covers interpreter start and the imports.  The pass prints one
JSON object on its last line of output.  WORKLOAD ``setup`` stops after the
imports and reports ``setup_s`` alone.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    import lplab.acceptance  # noqa: F401  (set-up ends when these are loaded)
    import lplab.cli  # noqa: F401
    import lplab.game  # noqa: F401
    import lplab.montecarlo  # noqa: F401

    SETUP_DONE = time.monotonic()

import contextlib
import hashlib
import json
import resource

import numpy as np

# Bound before the tracer can wrap np.linalg.svd.
SVD = np.linalg.svd


def check_counts(tree: object) -> tuple[int, int]:
    """(checks, failed) over a canonical report tree.

    A check is any record carrying ``ok`` (failed unless it is ``true``) and
    any section carrying a status (failed when the status is ``fail``).  A
    section with status ``info`` holds statistics and no checks.
    """
    checks = failed = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "ok" in node:
                checks += 1
                failed += node["ok"] is not True
            if node.get("status") in ("pass", "fail"):
                checks += 1
                failed += node["status"] == "fail"
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return checks, failed


def probe() -> float:
    """Seconds that a fixed reference computation takes right now.

    The machine is a shared VM whose speed changes by up to 2x, in spells
    of seconds to minutes, and Python code, small numpy operations and
    LAPACK slow down together.  The probe runs a little of each,
    independent of lplab, three times, and keeps each part's shortest time,
    so that a momentary stall does not count but a slow spell does.
    """
    rng = np.random.default_rng(0)
    small = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dense = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))

    def interpreted() -> None:
        acc: dict[int, float] = {}
        for i in range(20000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i / (i + 1)

    def small_numpy() -> None:
        x = np.ones(3, dtype=complex)
        for _ in range(2000):
            x = small @ x
            x = x / np.abs(x).max()

    def lapack() -> None:
        for _ in range(40):
            SVD(dense, compute_uv=False)

    total = 0.0
    for part in (interpreted, small_numpy, lapack):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_pass(workload: str, seed: int, trace: bool, trace_out: str | None) -> dict:
    """Run every unit of the workload once; time, check and hash each."""
    import workloads
    from tracer import Tracer

    units = workloads.WORKLOADS[workload](seed)
    tracer = Tracer(extra=(("acceptance.c01_scaled", workloads, "norm_agreement"),))
    wall: dict[str, float] = {}
    cpu: dict[str, float] = {}
    speed: dict[str, float] = {}
    texts: list[str] = []
    before = probe()
    with tracer if trace else contextlib.nullcontext():
        for name, fn in units:
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            texts.append(fn())
            wall[name] = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            cpu[name] = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
            after = probe()
            speed[name] = (before + after) / 2.0
            before = after
    checks = failed = 0
    for text in texts:
        c, f = check_counts(json.loads(text))
        checks, failed = checks + c, failed + f
    joined = "\n".join(texts)
    out = {
        "wall": wall,
        "cpu": cpu,
        "probe": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(joined.encode("ascii")).hexdigest(),
        "bytes": len(joined),
        "checks": checks,
        "failed": failed,
    }
    if trace:
        out["layers"] = tracer.layer_metrics()
        out["top_level_s"] = tracer.top_level_s()
        if trace_out:
            tracer.write(trace_out)
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace, spawned = argv[1], int(argv[2]), argv[3] == "1", float(argv[4])
    trace_out = argv[5] if len(argv) > 5 else None
    setup_s = SETUP_DONE - spawned
    if workload == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out = run_pass(workload, seed, trace, trace_out)
    import scipy

    out["setup_s"] = setup_s
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
