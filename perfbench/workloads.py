"""Workload inputs and the output oracle.

Each workload is a list of ops, one ``torsiongen`` CLI invocation each, made
from the workload seed alone.  The benchmark never imports torsiongen to
decide what an answer should be: expected verdicts come from the paper's
case rules and from the closed form of |Sp(2g, p)|.

Every op list has three parts.  First the fixed ops (cliff cells, known
exceptions, worked instances, sympl queries), in a seeded order, so each run
meets each of them once.  Then SHARED_OPS sampled ops that are the same for
every seed.  Then sampled ops from a walk whose start the seed picks; these
are what a faster program reaches, and a run that gets through the whole
list starts over.

The shared part is there because op cost is erratic and spans orders of
magnitude: neighbouring conjecture cells differ tenfold, and mcg cost grows
with the cube of the genus.  Two independent samples of the hundred-odd ops
a 20 s run gets through differ by 10-25% in throughput and in the latency
percentiles, even when drawn evenly; with the shared part, runs of
different seeds differ by the noise of the host.

Sampled ops walk the domain along Kronecker (golden-ratio) sequences, so
every prefix covers the domain evenly and a run cut off after a fixed time
has still seen all of it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("conjecture-cold", "conjecture-warm", "mcg-sympl")

# Per-op wall-clock caps.  On a 2-core x86 host about 96% of the conjecture
# cells in the stretch domain finish within 1.5 s; the rest, the cliffs, go
# on for seconds to minutes.  mcg cases take at most about 3 s, so the 4 s
# cap stops only the Sp(6,2) enumeration (about a minute).
CAPS = {"conjecture-cold": 1.5, "conjecture-warm": 4.0, "mcg-sympl": 4.0}

# Slow Schreier-Sims cells and the paper's known exceptions.
CLIFF_CELLS = ((10, 140), (10, 160), (10, 180), (10, 200), (20, 200))
KNOWN_EXCEPTIONS = ((3, 6), (3, 7), (3, 8))
COLD_K = (3, 30)
COLD_N = (3, 200)

WARM_ARGV = (
    "sweep", "--family", "conjecture",
    "--k", "3", "--k-max", "10", "--n", "3", "--n-max", "100",
)

MCG_K = (5, 10)
MCG_G = (2, 240)
WORKED_INSTANCES = ((5, 18, "four"), (8, 21, "three"))
SYMPL_QUERIES = ((2, 2, 2), (2, 2, 3), (3, 3, 2))  # (k, g, p)
MCG_STAGES = (
    "decompose",
    "build_actions",
    "lantern_hypotheses",
    "single_orbit",
    "lantern_word",
    "rotation_order",
)
# Sampled ops shared by every seed, then seeded ones (see above).
SHARED_OPS = 400
SAMPLED_OPS = 4000

_PHI = (math.sqrt(5) - 1) / 2
_SQRT2 = math.sqrt(2) - 1


@dataclass(frozen=True)
class Op:
    """One CLI invocation: arguments (without --cache-dir), a label for the
    results file, and what a correct answer looks like."""

    label: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)


def _kronecker(start: float, step: float):
    i = 0
    while True:
        yield (start + i * step) % 1.0
        i += 1


def _seeded_start(seed: int, salt: int) -> float:
    return random.Random(f"{seed}:{salt}").random()


def conjecture_status(k: int, n: int) -> str:
    """Expected sweep status of the conjecture pair at (k, n): the three
    known exceptions fail as expected, case 3 (k even, floor(n/k) even,
    n mod k = k-1) is undefined below floor(n/k) = 3, everything else
    generates and passes."""
    if (k, n) in KNOWN_EXCEPTIONS:
        return "expected-fail"
    m = n // k
    if k % 2 == 0 and m % 2 == 0 and n % k == k - 1 and m < 3:
        return "skip"
    return "pass"


def cell_op(k: int, n: int) -> Op:
    return Op(
        f"cell:{k}:{n}",
        ("sweep", "--family", "conjecture", "--k", str(k), "--n", str(n)),
        {"kind": "cell", "k": k, "n": n, "status": conjecture_status(k, n)},
    )


def _take(walk, count: int, to_ops) -> list[Op]:
    ops: list[Op] = []
    for item in walk:
        if len(ops) >= count:
            break
        ops += to_ops(*item)
    return ops


def _sampled(fixed: list[Op], seed: int, walk, to_ops) -> list[Op]:
    random.Random(seed).shuffle(fixed)
    shared = _take(walk(0.5, 0.5), SHARED_OPS, to_ops)
    seeded = _take(walk(_seeded_start(seed, 1), _seeded_start(seed, 2)), SAMPLED_OPS, to_ops)
    return fixed + shared + seeded


def _cold_cells(start_n: float, start_k: float):
    """Endless walk over 3 <= k <= 30, k <= n <= 200: n uniform on a log
    scale, then k uniform in 3..min(n, 30)."""
    lo, hi = math.log(COLD_N[0]), math.log(COLD_N[1] + 1)
    for u, v in zip(_kronecker(start_n, _PHI), _kronecker(start_k, _SQRT2)):
        n = int(math.exp(lo + u * (hi - lo)))
        k_max = min(n, COLD_K[1])
        yield COLD_K[0] + int(v * (k_max - COLD_K[0] + 1)), n


def cold_ops(seed: int) -> list[Op]:
    """Single-cell conjecture sweeps over 3 <= k <= 30, k <= n <= 200, with
    the cliff cells and the known exceptions as fixed ops.

    Degree follows a log scale rather than the cell count, which is nearly
    uniform in n: that would spend three quarters of the ops on n > 60, at
    up to a second each, and leave too few ops per run for a p90 with ten
    samples beyond it.  The median op is then a small cell, where pair
    construction and the cache dominate, and the tail holds the large
    degrees and the cliffs, where the engine does.
    """
    fixed = [cell_op(k, n) for k, n in CLIFF_CELLS + KNOWN_EXCEPTIONS]
    return _sampled(fixed, seed, _cold_cells, lambda k, n: [cell_op(k, n)])


def warm_ops(seed: int) -> list[Op]:
    """The same k <= 10, n <= 100 sweep, repeated against a filled cache.
    The seed does not change it: the inputs are the fill's own."""
    return [Op("warm-sweep", WARM_ARGV, {"kind": "warm"})]


def mcg_variants(k: int, g: int, decompose) -> list[str]:
    """Variants the acceptance sweep runs for (k, g): 'four' whenever g is
    representable, 'three' unless k = 5, the decomposition needs the
    plus-one handle, or (k = 7) no leading genus-k piece exists."""
    if decompose(k, g) is None:
        return []
    dec3 = decompose(k, g, require_leading_k=True) if k == 7 else decompose(k, g)
    if dec3 is None or dec3.plus_one or k == 5 or (k == 7 and dec3.a < 1):
        return ["four"]
    return ["four", "three"]


def _mcg_op(k: int, g: int, variant: str) -> Op:
    return Op(
        f"mcg:{k}:{g}:{variant}",
        ("mcg", "--k", str(k), "--g", str(g), "--variant", variant),
        {"kind": "mcg", "k": k},
    )


def _sympl_op(k: int, g: int, p: int) -> Op:
    return Op(
        f"sympl:{k}:{g}:{p}",
        ("sympl", "--k", str(k), "--g", str(g), "--p", str(p)),
        {"kind": "sympl", "k": k, "g": g, "p": p},
    )


def _mcg_cases(start_g: float, start_k: float):
    """Endless walk over 5 <= k <= 10, 2 <= g <= 240: g uniform on a log
    scale, k uniform."""
    lo, hi = math.log(MCG_G[0]), math.log(MCG_G[1] + 1)
    for u, v in zip(_kronecker(start_g, _PHI), _kronecker(start_k, _SQRT2)):
        yield MCG_K[0] + int(v * (MCG_K[1] - MCG_K[0] + 1)), int(math.exp(lo + u * (hi - lo)))


def mcg_ops(seed: int, decompose) -> list[Op]:
    """mcg cases with 5 <= k <= 10 and 2 <= g <= 240, each with every
    admissible variant, plus the worked instances and the sympl queries as
    fixed ops.

    Genus follows a log scale, so each doubling of the matrix size from 4x4
    to 480x480 gets an equal share of ops.  ``decompose`` is
    torsiongen.genus.decompose: representability is input selection, not a
    verdict under test.
    """
    fixed = [_mcg_op(*w) for w in WORKED_INSTANCES] + [
        _sympl_op(*q) for q in SYMPL_QUERIES
    ]
    return _sampled(
        fixed, seed, _mcg_cases,
        lambda k, g: [_mcg_op(k, g, v) for v in mcg_variants(k, g, decompose)],
    )


def sp_order(g: int, p: int) -> int:
    """|Sp(2g, p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1)."""
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


def check(op: Op, code: int, text: str) -> str | None:
    """Return None when the CLI output is what the op expects, else why not.
    Warm ops are not checked here: the client compares their bytes with the
    fill's."""
    exp = op.expect
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    cells = report.get("cells", [])
    kind = exp.get("kind")
    if kind == "cell":
        if len(cells) != 1:
            return f"{len(cells)} cells, expected 1"
        cell = cells[0]
        if cell["params"] != {"family": "conjecture", "k": exp["k"], "n": exp["n"]}:
            return f"params {cell['params']}"
        if cell["status"] != exp["status"]:
            return f"status {cell['status']}, expected {exp['status']}"
        return None
    if kind == "mcg":
        stages = [c["params"].get("stage") for c in cells]
        if stages != list(MCG_STAGES):
            return f"stages {stages}"
        bad = [c["params"]["stage"] for c in cells if c["status"] != "pass"]
        if bad:
            return f"stages not passing: {bad}"
        if cells[-1]["outcome"].get("order") != exp["k"]:
            return f"rotation order {cells[-1]['outcome'].get('order')}"
        return None
    if kind == "sympl":
        if [c["status"] for c in cells] != ["pass", "pass"]:
            return f"statuses {[c['status'] for c in cells]}"
        want = sp_order(exp["g"], exp["p"])
        got = cells[1]["outcome"].get("group_order")
        if got != want or cells[1]["outcome"].get("generates") is not True:
            return f"group order {got}, expected |Sp({2 * exp['g']},{exp['p']})| = {want}"
        return None
    return f"unknown op kind {kind!r}"
