"""lplab benchmark: one command for every workload and metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 42 --trace 0

A pass runs each unit of the workload once (see ``workloads.py``) in a
fresh child process (``child.py``).  Passes repeat, at least MIN_PASSES of
them, while another one still fits in ``--seconds``.  ``wall_s`` and
``cpu_s`` are the sums over units of each unit's shortest time over the
passes, scaled to a reference speed of the machine that ``child.probe``
measures around every unit.  ``setup_s`` is the median set-up time of the
passes and of SETUP_RUNS children that only import, each scaled by the
``reference_setup`` taken just before it; ``peak_rss_mb`` is the median over
passes.  With ``--trace 0`` every pass is untraced and the end-to-end metrics
are reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything else the run learned
(passes, digests, environment) is printed above it and saved under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_PASSES = 2
# Children that only import lplab, started before the passes, so that
# setup_s is a median over more samples than there are passes.
SETUP_RUNS = 3
# Before each child a second interpreter starts and imports these modules of
# the standard library, a set-up of the same kind that uses nothing of the
# repository; set-up times are scaled by it as unit times are by the probe.
REF_IMPORTS = (
    "json, decimal, argparse, asyncio, email.parser, http.client,"
    " xml.etree.ElementTree, unittest, logging, csv, sqlite3"
)
# A run must end within 180 s, so a pass that hangs is stopped in time.
RUN_LIMIT_S = 170.0
WORKLOADS = ("verify_all", "mc_suite", "structured")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# What child.probe() and reference_setup() read on the 2-core VM the
# benchmark was defined on, in its fast spells.  Times are scaled to this
# speed (see README.md).
PROBE_REF_S = 0.015
SETUP_REF_S = 0.11


def per_layer_spec() -> dict[str, str]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def baseline_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # LPLAB_THREADS stays unset so every workload runs on one thread, as the
    # tracer assumes; a pinned SOURCE_DATE_EPOCH would change the digests.
    env.pop("LPLAB_THREADS", None)
    env.pop("SOURCE_DATE_EPOCH", None)
    return env


def run_child(
    workload: str, seed: int, traced: bool, trace_out: str, timeout: float
) -> tuple[dict | None, float]:
    """One pass; returns its record (None when the child failed) and its length."""
    start = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           str(int(traced)), repr(start)]
    if traced:
        cmd.append(trace_out)
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"pass stopped after {timeout:.0f} s", file=sys.stderr)
        return None, time.monotonic() - start
    took = time.monotonic() - start
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None, took
    return json.loads(proc.stdout.strip().splitlines()[-1]), took


def reference_setup() -> float:
    """Seconds from starting an interpreter until REF_IMPORTS are imported."""
    code = f"import sys, time; import {REF_IMPORTS}; print(time.monotonic() - float(sys.argv[1]))"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code, repr(start)],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def run_passes(
    args: argparse.Namespace,
) -> tuple[list[dict], list[dict], list[tuple[float, float]], int]:
    """(untraced passes, traced passes, (set-up, reference set-up) of every
    untraced child, children that failed)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    # With --trace 1 an untraced pass and a traced pass form one step.
    step = (False, True) if args.trace else (False,)
    min_steps = 1 if args.trace else MIN_PASSES
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    setups: list[tuple[float, float]] = []
    start = time.monotonic()
    for _ in range(0 if args.trace else SETUP_RUNS):
        ref = reference_setup()
        rec, _ = run_child("setup", args.seed, False, trace_out, RUN_LIMIT_S)
        if rec is None:
            return plain, traced, setups, 1
        setups.append((rec["setup_s"], ref))
    while True:
        for tr in step:
            ref = 0.0 if tr else reference_setup()
            timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
            rec, took = run_child(args.workload, args.seed, tr, trace_out, timeout)
            durations.append(took)
            if rec is None:
                # The next pass would fail the same way.
                return plain, traced, setups, 1
            if not tr:
                setups.append((rec["setup_s"], ref))
            (traced if tr else plain).append(rec)
        steps = len(durations) // len(step)
        next_end = time.monotonic() - start + statistics.median(durations) * len(step)
        if steps >= min_steps and next_end > args.seconds:
            return plain, traced, setups, 0


def gate(passes: list[dict], crashed: int) -> tuple[int, int, str | None]:
    """(checks attempted, checks failed, digest shared by the passes)."""
    attempted = sum(p["checks"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = [p["digest"] for p in passes]
    common = max(set(digests), key=digests.count) if digests else None
    for p in passes:
        # A pass whose report differs from the other passes' counts as failed.
        if p["digest"] != common:
            failed += p["checks"] - p["failed"]
    # A pass whose child died is one more attempted and failed check.
    return attempted + crashed, failed + crashed, common


def unit_best(passes: list[dict], key: str) -> dict[str, float]:
    """Each unit's shortest time over the passes, at the reference speed."""
    return {
        u: min(p[key][u] / p["probe"][u] for p in passes) * PROBE_REF_S
        for u in passes[0][key]
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"pass median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def end_to_end(plain: list[dict], setups: list[tuple[float, float]]) -> dict[str, float]:
    wall = unit_best(plain, "wall")
    for unit, value in wall.items():
        print(f"  unit {unit:<24} {value:10.4f} s")
    values = {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(unit_best(plain, "cpu").values()),
        "setup_s": statistics.median(s / ref * SETUP_REF_S for s, ref in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    per_pass = {
        "wall_s": [sum(p["wall"].values()) for p in plain],
        "cpu_s": [sum(p["cpu"].values()) for p in plain],
        "setup_s": [s for s, _ in setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    # The per-pass figures are as measured, before scaling.
    for name, unit in END_TO_END.items():
        print(f"{name:>12} {values[name]:12.4f} {unit:<3} raw {spread(per_pass[name])}")
    probes = [statistics.median(p["probe"].values()) for p in plain]
    print(f"{'probe':>12} {PROBE_REF_S:12.4f} s   raw {spread(probes)}")
    print(f"{'ref_setup':>12} {SETUP_REF_S:12.4f} s   raw {spread([r for _, r in setups])}")
    return values


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = [dict(p["layers"]) for p in traced]
    plain_wall = sum(unit_best(plain, "wall").values())
    traced_wall = sum(unit_best(traced, "wall").values())
    for p, m in zip(traced, layers):
        m["trace.uncovered_s"] = sum(p["wall"].values()) - p["top_level_s"]
        m["reports.bytes"] = p["bytes"]
    values = {}
    for name in per_layer_spec():
        if name == "trace.wall_s":
            values[name] = traced_wall
        elif name == "trace.overhead_s":
            values[name] = traced_wall - plain_wall
        else:
            values[name] = statistics.median(m.get(name, 0) for m in layers)
        print(f"{name:>40} {values[name]:14.4f}")
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "lplab", "__init__.py")):
        print("run from the root of an lplab checkout: src/lplab is missing", file=sys.stderr)
        return 2

    load_1m = os.getloadavg()[0]
    plain, traced, setups, crashed = run_passes(args)
    if not plain or (args.trace and not traced):
        print("no pass completed", file=sys.stderr)
        return 1
    attempted, failed, digest = gate(plain + traced, crashed)
    base = baseline_digest(args.workload, args.seed)
    env = dict(plain[0]["env"])
    env.update(
        nproc=os.cpu_count(),
        LPLAB_THREADS=None,
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
        seed=args.seed,
        load_1m_at_start=load_1m,
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest   {digest}")
    if base is None:
        print("baseline none recorded for this seed")
    else:
        print(f"baseline {base}  ({'same' if base == digest else 'DIFFERS'})")
    print(f"fail_frac {failed / attempted:.6f}  ({failed} of {attempted} checks)")

    if args.trace:
        values, units = per_layer(plain, traced), per_layer_spec()
    else:
        values, units = end_to_end(plain, setups), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    saved = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(saved, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "digest": digest, "baseline_digest": base,
                   "passes": plain + traced, "setups": setups, "crashed": crashed,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
