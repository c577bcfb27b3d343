#!/usr/bin/env python3
"""Stretch run: the full conjecture grid k <= 30, n <= 200.

The acceptance gate covers k <= 10, n <= 100; this script reproduces the
larger published grid.  Almost every cell is settled by the giant
certificate in `classify`, so a cold run takes seconds on one core, not
hours.  Each cell is cached as soon as it is computed, so an interrupted
run resumes from the cells it finished.  The total time and the slowest
freshly computed cell (from the in-memory `ReportCell.elapsed`, which the
report never serializes) go to stderr.

Usage: python scripts/full_conjecture_sweep.py [--k-max 30] [--n-max 200]
"""

import argparse
import sys
import time

from torsiongen.cli import cmd_sweep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k-max", type=int, default=30)
    ap.add_argument("--n-max", type=int, default=200)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args()

    start = time.time()
    report = cmd_sweep(
        "conjecture",
        (3, args.k_max),
        (3, args.n_max),
        jobs=args.jobs,
        cache_root=args.cache_dir,
    )
    print(report.to_json())
    summary = report.summary()
    fails = [
        dict(c.params)
        for c in report.cells
        if c.status == "fail"
    ]
    print(
        f"# {summary} in {time.time() - start:.0f}s; unexpected failures: {fails}",
        file=sys.stderr,
    )
    # cache hits and skipped cells carry elapsed 0.0
    slowest = max(report.cells, key=lambda c: c.elapsed, default=None)
    if slowest is not None and slowest.elapsed > 0:
        print(
            f"# slowest fresh cell {dict(slowest.params)} in {slowest.elapsed:.3f}s",
            file=sys.stderr,
        )
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
