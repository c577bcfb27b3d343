#!/usr/bin/env python3
"""Golden byte manifest: the exit code and the length and sha256 of stdout
and stderr of a fixed set of CLI commands, run in process through
`torsiongen.cli.main`.

`tests/test_golden.py` runs the set and names every command whose bytes
differ from `tests/golden/manifest.json`.  A change that alters report
bytes on purpose rewrites the manifest in the same commit and says which
commands changed.  `estimate` bytes depend on numpy's random stream, so the
manifest also records the Python and numpy versions it was written with.

Usage: PYTHONPATH=src python scripts/golden.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from torsiongen import cli

MANIFEST = Path(__file__).resolve().parent.parent / "tests" / "golden" / "manifest.json"

# `--cache-dir` placeholders: CACHE is a fresh empty directory, SHARED the
# directory of the last CACHE command (a warm run after a cold one).
CACHE = "<cache>"
SHARED = "<shared cache>"

CRITERION_9 = [
    "verify --family prop61 --k 5 --n 18",
    "verify --family prop62 --k 4 --n 12",
    "verify --family conjecture --k 3 --n 6",
    "estimate --k 3 --n 9 --trials 25 --seed 11",
    "mcg --k 5 --g 18 --variant four",
    "mcg --k 8 --g 21 --variant three",
    "genus --k 6 --g 26",
    "sympl --k 5 --g 18",
    "sympl --k 2 --g 2 --p 2",
]

CONJECTURE_SWEEP = "sweep --family conjecture --k 3 --k-max 10 --n 3 --n-max 100"
CSV_SWEEP = "sweep --family prop61 --k 3 --k-max 6 --n 6 --n-max 30 --format csv"


def commands() -> list[tuple[str, list[str]]]:
    """(manifest key, argv) for every command of the set, in run order."""
    mcg = [
        f"mcg --k {k} --g {g} --variant {variant}"
        for k in range(5, 11)
        for g in [*range(2, 40), 60, 97, 120, 180, 240]
        for variant in ("four", "three")
    ]
    sympl = [f"sympl --k {k} --g {g} --p {p}" for k, g, p in ((2, 2, 2), (2, 2, 3), (3, 3, 2))]
    out = [(line, line.split()) for line in CRITERION_9 + mcg + sympl]
    sweep = CONJECTURE_SWEEP.split()
    out += [
        (f"{CONJECTURE_SWEEP} [cold]", [*sweep, "--cache-dir", CACHE]),
        (f"{CONJECTURE_SWEEP} [warm]", [*sweep, "--cache-dir", SHARED]),
        (CSV_SWEEP, [*CSV_SWEEP.split(), "--cache-dir", CACHE]),
    ]
    cells = [
        *(f"miller --k {k} --n {n}" for k in range(3, 17) for n in range(k, 2 * k)),
        *(f"prop62 --k {k} --n {n}" for k in range(4, 17, 2) for n in range(k + 2, 2 * k + 2)),
        *(f"prop61 --k {k} --n {3 * k}" for k in range(3, 13)),
        "miller --k 4 --n 9",
    ]
    out += [(f"verify --family {c}", f"verify --family {c}".split()) for c in cells]
    return out


def _digest(text: str) -> list:
    data = text.encode()
    return [len(data), hashlib.sha256(data).hexdigest()]


def run_all() -> dict[str, dict]:
    """Run every command of the set; key -> {exit, stdout, stderr}."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = None
        for i, (key, argv) in enumerate(commands()):
            if CACHE in argv:
                cache = str(Path(tmp) / str(i))
            argv = [cache if a in (CACHE, SHARED) else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(argv, out=out, err=err)
            results[key] = {
                "exit": code,
                "stdout": _digest(out.getvalue()),
                "stderr": _digest(err.getvalue()),
            }
    return results


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def write(results: dict[str, dict]) -> None:
    def entries(items, indent):
        return ",\n".join(f"{indent}{json.dumps(k)}: {json.dumps(v)}" for k, v in items)

    head = entries(versions().items(), "  ")
    body = entries(results.items(), "    ")
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST.write_text(f'{{\n{head},\n  "commands": {{\n{body}\n  }}\n}}\n')


def differing(stored: dict[str, dict], results: dict[str, dict]) -> list[str]:
    """Keys whose entry differs, or that only one side has."""
    return [k for k in {**stored, **results} if stored.get(k) != results.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = ap.parse_args(argv)
    results = run_all()
    if args.write:
        write(results)
        print(f"wrote {len(results)} commands to {MANIFEST}")
        return 0
    stored = json.loads(MANIFEST.read_text())["commands"]
    differ = differing(stored, results)
    for key in differ:
        print(key)
    print(f"{len(differ)} of {len(results)} commands differ from {MANIFEST}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
