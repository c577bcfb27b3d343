"""Host-speed calibration: op times scaled to a reference host speed.

The hosts this benchmark runs on are shared, and a single core's speed
swings by up to 1.7x for seconds to minutes at a time as neighbours come and
go; the swings are independent per core.  Measured on a 2-core VM, identical
warm sweeps took 0.18 s or 0.35 s depending on the minute, which put the
run-to-run spread of every wall-clock metric at 15-30%.

So the client runs a fixed calibration kernel before every op.  The kernel
mixes the three kinds of work torsiongen does (Python dict updates, numpy
int32 indexing, int64 matrix products) and does not touch torsiongen, so a
change to the program cannot change it.  An op's latency is scaled by
REFERENCE_S over the median of three kernel times: the ones just before and
just after the op, and the one before that.  The result is the time the op
would take on a host that runs the kernel in REFERENCE_S.  On that same VM
this cut the spread of 20 s means of identical ops from 13-15% to 2-3%, and
the run-to-run spread of single ops from 13-17% to 4-8%.  Caps and the length of a run are set in
the same reference seconds, so a run does the same ops whatever the host's
speed.  Raw wall times stay in the results file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on a 2-core x86 VM at its usual speed.
REFERENCE_S = 0.004
WINDOW = 3


def kernel() -> float:
    """Run the calibration kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(6000):
        d[i % 977] = d.get(i % 977, 0) + i
    a = np.arange(60 * 100, dtype=np.int32).reshape(60, 100)
    for _ in range(10):
        a = a[:, ::-1].copy()
        a[a % 3 == 0] += 1
    m = np.arange(120 * 120, dtype=np.int64).reshape(120, 120) % 5
    m = m @ m
    return time.perf_counter() - start


def trailing(times: list[float]) -> float:
    """Host speed as known before an op: median of the last WINDOW kernel
    times."""
    return statistics.median(times[-WINDOW:])


def centred(times: list[float], i: int) -> float:
    """Median of the WINDOW kernel times centred on times[i]."""
    half = WINDOW // 2
    return statistics.median(times[max(0, i - half): i + half + 1])


def scaled(wall: float, kernel_s: float) -> float:
    """Seconds at the reference host speed."""
    return wall * REFERENCE_S / kernel_s
