"""Run acceptance criteria over a range of seeds and list every failure.

The battery is checked at one seed by ``lplab verify-all``; a check that
holds at seed 7 can still fail at others.  This script runs each chosen
criterion in process, one ``run_battery(seed, numbers=[n])`` call per
(criterion, seed), prints one line per failing record as
``name value op bound (evidence)`` (or the exception the pair raised), and
exits 1 if any pair failed::

    PYTHONPATH=src python3 tools/seed_sweep.py --criteria 4 8 --seeds 1 100
"""

from __future__ import annotations

import argparse
import sys

from lplab.acceptance import CRITERIA, run_battery


def sweep(criteria: list[int], first: int, last: int) -> list[tuple[int, int, list[str]]]:
    """Return (criterion, seed, what failed) for every failing pair: one line
    per failing record, or the exception that the pair raised."""
    failures = []
    for num in criteria:
        for seed in range(first, last + 1):
            try:
                (sec,) = run_battery(seed, numbers=[num]).sections
            except Exception as exc:  # a crash is a failure of that pair
                failures.append((num, seed, [f"{type(exc).__name__}: {exc}"]))
                continue
            if sec.status != "pass":
                failures.append(
                    (
                        num,
                        seed,
                        [
                            f"{r['name']} {r['value']} {r['op']} {r['bound']} ({r['evidence']})"
                            for r in sec.records
                            if r["ok"] is False
                        ],
                    )
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--criteria",
        type=int,
        nargs="+",
        default=[num for num, _, _ in CRITERIA],
        help="criterion numbers (default: all twelve)",
    )
    ap.add_argument(
        "--seeds",
        type=int,
        nargs=2,
        default=(1, 100),
        metavar=("FIRST", "LAST"),
        help="inclusive seed range (default: 1 100)",
    )
    args = ap.parse_args(argv)
    first, last = args.seeds
    known = {num for num, _, _ in CRITERIA}
    unknown = sorted(set(args.criteria) - known)
    if unknown or first > last:
        ap.error(f"unknown criteria {unknown}" if unknown else "FIRST exceeds LAST")
    failures = sweep(args.criteria, first, last)
    for num, seed, lines in failures:
        for line in lines:
            print(f"FAIL criterion {num:02d} seed {seed}: {line}")
    runs = len(args.criteria) * (last - first + 1)
    print(
        f"criteria {args.criteria}, seeds {first}-{last}: "
        f"{len(failures)} of {runs} runs failed"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
