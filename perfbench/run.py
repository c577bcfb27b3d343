#!/usr/bin/env python3
"""Benchmark of the torsiongen verifier: one workload, one seed, one run.

    python3 perfbench/run.py --workload conjecture-cold --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):
  conjecture-cold  single-cell conjecture sweeps into an empty cache, over
                   3 <= k <= 30, k <= n <= 200, with the cliff cells and the
                   known exceptions in every run;
  conjecture-warm  the k <= 10, n <= 100 conjecture sweep, repeated against a
                   cache filled during set-up;
  mcg-sympl        mapping-class pipeline cases over 5 <= k <= 10,
                   2 <= g <= 240, plus the Sp(4,2), Sp(4,3), Sp(6,2) queries.
  all              each of the above in turn, one result line each.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a traced
run.  The full record of a run, every op with its latency and verdict, goes
to .perfbench/results/ in the checkout.  Exit code 2 means the checkout has
no torsiongen sources, 3 that a run did not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in this many fresh interpreters besides the measuring one.
SETUP_PROBES = 2
DEADLINE_S = 170


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TORSIONGEN_CACHE", None)  # the client passes its own --cache-dir
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _client(args: list[str], result: Path, deadline: float) -> tuple[dict, float]:
    """Run client.py to completion: (its result, wall time at its start)."""
    cmd = [sys.executable, str(HERE / "client.py"), *args, "--result", str(result)]
    started = time.time()
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed("client did not finish before the deadline") from None
    if code != 0:
        raise RunFailed(f"client exited with code {code}")
    return json.loads(result.read_text()), started


def _setup_s(res: dict, started: float) -> float:
    """Interpreter start to the end of set-up (without the cache fill), in
    seconds at the reference host speed (see speed.py)."""
    return speed.scaled(res["setup_done_at"] - started, res["setup_kernel_s"])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"run-{os.getpid()}-{workload}"
    results = ROOT / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(work)]
    try:
        setup = []
        if not trace:
            for i in range(SETUP_PROBES):
                probe, started = _client(
                    [*common, "--seconds", "0", "--setup-only"], work / f"probe{i}.json", deadline
                )
                setup.append(_setup_s(probe, started))
        spans = ["--spans", str(results / f"{stem}-spans.jsonl")] if trace else []
        res, started = _client(
            [*common, "--seconds", str(seconds), "--trace", str(trace), *spans],
            work / "result.json",
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = res["metrics"]
    if not trace:
        # The cache fill runs once; the rest of set-up is the median of the
        # fresh interpreters.
        setup.append(_setup_s(res, started))
        res["setup_samples_s"] = setup
        metrics["setup_s"] = {"value": statistics.median(setup) + res["fill_s"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    (results / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "torsiongen" / "cli.py").is_file():
        print(f"error: no torsiongen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            out = run_workload(workload, args.seed, args.seconds, args.trace)
        except RunFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 3
        if args.workload == "all":
            out = {"workload": workload, **out}
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
