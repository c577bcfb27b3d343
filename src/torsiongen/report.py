"""Deterministic sweep reports with JSON and CSV serialization.

Canonical bytes exclude per-cell elapsed times, so reports from repeated
runs with the same inputs and seed compare byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

SCHEMA_VERSION = 2
STATUSES = ("pass", "fail", "expected-fail", "skip")


def _dump(o, newline: str = "\n") -> str:
    """`json.dumps(o, sort_keys=True, indent=2)` for `o` nested at `newline`
    ("\\n" plus the indent), written directly: the stdlib encoder runs in
    pure Python whenever it indents.  Dict keys must be str.  Floats and
    unsupported types go through `json.dumps`, so NaN, the infinities and
    the TypeError match it."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if isinstance(o, bool):  # before int: bool is an int subclass
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = [_quote(k) + ": " + _dump(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        items = [_dump(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(o)


@dataclass(frozen=True)
class ReportCell:
    params: tuple[tuple[str, object], ...]
    status: str  # one of STATUSES
    outcome: tuple[tuple[str, object], ...]
    elapsed: float = 0.0

    @classmethod
    def of(cls, params: dict, status: str, outcome: dict, elapsed: float = 0.0):
        return cls(
            tuple(sorted(params.items())),
            status,
            tuple(sorted(outcome.items())),
            elapsed,
        )

    def as_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "status": self.status,
            "outcome": dict(self.outcome),
        }


@dataclass(frozen=True)
class SweepReport:
    command: str
    params: tuple[tuple[str, object], ...]
    cells: tuple[ReportCell, ...]
    version: str
    seed: int | None = None

    @classmethod
    def of(cls, command, params: dict, cells, version, seed=None):
        return cls(command, tuple(sorted(params.items())), tuple(cells), version, seed)

    def summary(self) -> dict:
        counts = dict.fromkeys(STATUSES, 0)
        for cell in self.cells:
            counts[cell.status] += 1
        return counts

    def ok(self) -> bool:
        return self.summary()["fail"] == 0

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "version": self.version,
            "command": self.command,
            "params": dict(self.params),
            "seed": self.seed,
            "summary": self.summary(),
            "cells": [c.as_dict() for c in self.cells],
        }

    def to_json(self) -> str:
        return _dump(self.as_dict()) + "\n"

    def to_csv(self) -> str:
        keys_p = sorted({k for c in self.cells for k, _ in c.params})
        keys_o = sorted({k for c in self.cells for k, _ in c.outcome})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys_p + ["status"] + keys_o)
        for c in self.cells:
            p, o = dict(c.params), dict(c.outcome)
            writer.writerow(
                [p.get(k, "") for k in keys_p]
                + [c.status]
                + [o.get(k, "") for k in keys_o]
            )
        return buf.getvalue()
