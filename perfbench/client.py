"""Closed-loop client: one process, one thread, one op in flight.

Imports torsiongen from the checkout's ``src``, builds the workload from the
seed, does the workload's set-up, then calls ``torsiongen.cli.main``
in-process, op after op, until the run time is used up.  A calibration
kernel runs before each op, and op latencies and caps are scaled to a
reference host speed (see speed.py).  Each op runs under the workload's cap,
enforced by SIGALRM.  The result goes to the JSON file named by
``--result``; ``run.py`` starts this script and turns that file into the
benchmark's output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import speed
import stats
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MEMORY_LIMIT = 3 << 30  # bytes of address space


class OpCapped(BaseException):
    """Raised into the running op when it reaches its cap.  A BaseException,
    so the program's own ``except Exception`` handlers let it through."""


def import_cli(root: Path):
    """torsiongen.cli from ``root/src``, never from an installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    from torsiongen import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"torsiongen was imported from {cli.__file__}, not {src}")
    return cli


def build_ops(workload: str, seed: int) -> list[workloads.Op]:
    if workload == "conjecture-cold":
        return workloads.cold_ops(seed)
    if workload == "conjecture-warm":
        return workloads.warm_ops(seed)
    from torsiongen.genus import decompose

    return workloads.mcg_ops(seed, decompose)


def _entries(cache: Path) -> list[Path]:
    return sorted(cache.rglob("*.json")) if cache.exists() else []


class Runner:
    """Runs ops under a cap and checks each one's output.

    ``warm_cache`` is the filled cache a warm op reads, with ``warm_text``
    the fill's output; without it every op gets an empty cache of its own,
    removed after the op, so no op, capped or not, leaves an entry behind.
    """

    def __init__(self, cli, cap: float, workdir: Path, warm_cache=None, warm_text=None):
        self.cli = cli
        self.cap = cap
        self.workdir = workdir
        self.warm_cache = warm_cache
        self.warm_text = warm_text
        self.tracer: tracing.Tracer | None = None
        self.kernels: list[float] = warm_up_kernels()
        self.capped_leftovers = 0
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise OpCapped()

    def _capped(self, fn, cap: float):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            return fn()
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def check(self, op: workloads.Op, code: int, text: str, cache: Path) -> str | None:
        if self.warm_cache is not None:
            if code != 0:
                return f"exit code {code}"
            return None if text == self.warm_text else "bytes differ from the fill"
        problem = workloads.check(op, code, text)
        if problem is None and op.expect.get("kind") == "cell":
            entries = _entries(cache)
            if len(entries) != 1:
                return f"{len(entries)} cache entries, expected 1"
            if json.loads(entries[0].read_text()) != json.loads(text)["cells"][0]:
                return "cache entry differs from the reported cell"
        return problem

    def run_op(self, index: int, op: workloads.Op) -> stats.OpRecord:
        """Run one op.  The cap and the latency are at the reference host
        speed, from the kernels run so far; ``run`` refines the latency."""
        self.kernels.append(speed.kernel())
        host = speed.trailing(self.kernels)
        cache = self.warm_cache or self.workdir / "op-cache"
        argv = [*op.argv, "--cache-dir", str(cache)]
        out = io.StringIO()
        status, detail, code = "ok", "", None
        first_span = len(self.tracer.spans) if self.tracer else 0
        if self.tracer:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            # cli.main is looked up per call so the tracer's wrapper is used
            code = self._capped(
                lambda: self.cli.main(argv, out=out, err=io.StringIO()),
                self.cap * host / speed.REFERENCE_S,
            )
        except OpCapped:
            status = "capped"
        except (Exception, SystemExit) as exc:
            status, detail = "raised", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if self.tracer:
            self.tracer.end_op(first_span, start + wall)
        text = out.getvalue()
        if status == "ok":
            detail = self.check(op, code, text, cache) or ""
            status = "wrong" if detail else "ok"
        if self.warm_cache is None:
            if status == "capped":
                self.capped_leftovers += len(_entries(cache))
            shutil.rmtree(cache, ignore_errors=True)
        digest = hashlib.sha256(text.encode()).hexdigest() if status == "ok" else ""
        return stats.OpRecord(
            index, op.label, status, speed.scaled(wall, host), detail, digest, wall,
            self.kernels[-1],
        )

    def run(self, ops: list[workloads.Op], seconds: float) -> list[stats.OpRecord]:
        """Issue ops in order, cycling, until their latencies add up to
        ``seconds`` at the reference host speed, so a run does the same ops
        however fast the host is at the time.  On a host much slower than
        the reference, the run stops after 1.5 times ``seconds`` of wall
        time.  Latencies of ops that finished are then rescaled by the
        kernels around each op; a capped op keeps the scale its cap was set
        by, so it reads as the cap.
        """
        records = []
        base = len(self.kernels)
        start = time.perf_counter()
        busy = 0.0
        while busy < seconds and time.perf_counter() - start < 1.5 * seconds:
            i = len(records)
            records.append(self.run_op(i, ops[i % len(ops)]))
            busy += records[-1].latency
        for i, r in enumerate(records):
            if r.status != "capped":
                r.latency = speed.scaled(r.wall, speed.centred(self.kernels, base + i))
        return records


def warm_up_kernels() -> list[float]:
    """Kernel times to start from; the first runs are slow while caches and
    numpy warm up, so they are dropped."""
    return [speed.kernel() for _ in range(speed.WINDOW + 2)][2:]


FILL_SAMPLE_EVERY = 16  # cells between kernel runs during the cache fill


def fill_warm_cache(cli, cache: Path, argv, kernels: list[float]):
    """Run the warm sweep once into an empty cache: (output, seconds at the
    reference host speed, wall seconds, problem).

    The fill is one long call, so the kernel runs inside it, before every
    FILL_SAMPLE_EVERY-th cell, through a wrapper on cli._sweep_one.  Each
    stretch between kernels is scaled by the kernel before it, and kernel
    time is left out; ``kernels`` gives the speed before the first one.  The
    cells are checked against the paper's verdicts, because every warm op is
    then compared with these bytes.
    """
    marks: list[tuple[float, float, float]] = []  # kernel start, end, time
    sweep_one = getattr(cli, "_sweep_one", None)
    cells = [0]

    def sampled(*args, **kwargs):
        if cells[0] % FILL_SAMPLE_EVERY == 0:
            begin = time.perf_counter()
            k = speed.kernel()
            marks.append((begin, time.perf_counter(), k))
        cells[0] += 1
        return sweep_one(*args, **kwargs)

    out = io.StringIO()
    if sweep_one is not None:
        cli._sweep_one = sampled
    start = time.perf_counter()
    try:
        code = cli.main([*argv, "--cache-dir", str(cache)], out=out, err=io.StringIO())
    finally:
        end = time.perf_counter()
        if sweep_one is not None:
            cli._sweep_one = sweep_one
    stretches = zip(
        [(start, speed.trailing(kernels))] + [(m[1], m[2]) for m in marks],
        [m[0] for m in marks] + [end],
    )
    wall = ref = 0.0
    for (begin, k), stop in stretches:
        wall += stop - begin
        ref += speed.scaled(stop - begin, k)
    text = out.getvalue()
    if code != 0:
        return text, ref, wall, f"fill exit code {code}"
    for cell in json.loads(text)["cells"]:
        k, n = cell["params"]["k"], cell["params"]["n"]
        want = "skip" if n < k else workloads.conjecture_status(k, n)
        if cell["status"] != want:
            return text, ref, wall, f"fill cell ({k}, {n}) is {cell['status']}, expected {want}"
    return text, ref, wall, None


def _failures(records) -> int:
    return sum(r.status in ("wrong", "raised") for r in records)


def _log(records) -> list:
    """Per op: index, label, status, scaled latency, wall time, kernel time,
    detail."""
    return [
        [r.index, r.label, r.status, round(r.latency, 6), round(r.wall, 6),
         round(r.kernel, 6), r.detail]
        for r in records
    ]


def _metrics(records) -> dict:
    return {
        name: {"value": value, "unit": stats.UNITS[name]}
        for name, value in stats.op_metrics(records).items()
    }


def run_traced(runner: Runner, ops, seconds: float, spans: Path | None):
    """An untraced reference pass for a third of the run, then a traced pass
    from the same first op for the rest: (records, failed, metrics, info).
    The reference gives the tracing overhead, and every op both passes
    completed must produce the same bytes."""
    ref = runner.run(ops, seconds / 3)
    tr = runner.tracer = tracing.Tracer()
    with tr:
        traced = runner.run(ops, seconds * 2 / 3)
    runner.tracer = None
    if spans:
        tr.write(spans)
    mismatched = [
        a.label for a, b in zip(ref, traced)
        if a.status == b.status == "ok" and a.digest != b.digest
    ]
    # Span times get their op's host-speed factor, like the op latencies.
    scale = {r.index: r.latency / r.wall for r in traced if r.wall > 0}
    metrics, unavailable = tracing.layer_metrics(tr, len(traced), scale)
    # Per op that both passes completed, untraced over traced latency; the
    # median keeps one op caught in a slow spell of the host from deciding.
    ratios = [
        a.latency / b.latency for a, b in zip(ref, traced) if a.status == b.status == "ok"
    ]
    metrics["trace.op_s"] = {
        "value": sum(r.latency for r in traced) / len(traced), "unit": "s/op"
    }
    metrics["trace.ops_per_s_ratio"] = {
        "value": statistics.median(ratios) if ratios else 0.0, "unit": "ratio"
    }
    info = {
        "unavailable": unavailable,
        "missing_hooks": tr.missing,
        "identity_mismatches": mismatched,
        "span_totals": tr.totals(scale),
    }
    failed = _failures(ref) + _failures(traced) + len(mismatched)
    return ref + traced, failed, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    # A runaway op should fail on its own, not exhaust a shared host.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, resource.RLIM_INFINITY))

    cli = import_cli(ROOT)
    ops = build_ops(args.workload, args.seed)
    # Set-up ends here, but for the cache fill; the run script times it from
    # the interpreter's start and scales it by the kernels run right after.
    result = {"setup_done_at": time.time()}
    kernels = warm_up_kernels()
    result.update(setup_kernel_s=speed.trailing(kernels), fill_s=0.0, fill_wall_s=0.0)
    warm_cache = warm_text = setup_error = None
    if args.workload == "conjecture-warm" and not args.setup_only:
        warm_cache = args.workdir / "warm-cache"
        warm_text, result["fill_s"], result["fill_wall_s"], setup_error = fill_warm_cache(
            cli, warm_cache, ops[0].argv, kernels
        )
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    runner = Runner(cli, workloads.CAPS[args.workload], args.workdir, warm_cache, warm_text)
    if args.trace:
        records, failed, metrics, info = run_traced(runner, ops, args.seconds, args.spans)
        result.update(info)
    else:
        records = runner.run(ops, args.seconds)
        failed = _failures(records)
        metrics = _metrics(records)
        result["wall_metrics"] = _metrics(
            [dataclasses.replace(r, latency=r.wall) for r in records]
        )
    if setup_error:
        failed = len(records)
    result.update(
        cap_s=runner.cap,
        attempted=len(records),
        failed=failed,
        capped=sum(r.status == "capped" for r in records),
        capped_cache_leftovers=runner.capped_leftovers,
        setup_error=setup_error,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        metrics=metrics,
        ops=_log(records),
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
