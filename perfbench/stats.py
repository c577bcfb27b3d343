"""End-to-end metrics from a list of op records."""

from __future__ import annotations

import statistics
from dataclasses import dataclass


UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "op_s_max": "s",
    "ok_frac": "ratio",
    "uncapped_frac": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    index: int
    label: str
    status: str  # "ok" | "capped" | "wrong" | "raised"
    latency: float  # seconds at the reference host speed (speed.py)
    detail: str = ""
    digest: str = ""
    wall: float = 0.0  # seconds as measured
    kernel: float = 0.0  # calibration kernel time just before the op


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (0 < q < 100), interpolated between order
    statistics as ``statistics.quantiles(method="inclusive")`` does."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_metrics(records: list[OpRecord]) -> dict[str, float]:
    """Throughput over op time, latency percentiles and pass shares of one
    timed run.

    A capped op keeps the latency it was cut at, which is the cap plus the
    delay before the interrupt landed; it counts against both shares.
    """
    if not records:
        raise ValueError("no ops were attempted")
    lat = [r.latency for r in records]
    ok = sum(r.status == "ok" for r in records)
    capped = sum(r.status == "capped" for r in records)
    n = len(records)
    return {
        "ops_per_s": ok / sum(lat),
        "op_s_p50": percentile(lat, 50),
        "op_s_p90": percentile(lat, 90),
        "op_s_max": max(lat),
        "ok_frac": ok / n,
        "uncapped_frac": (n - capped) / n,
    }
