"""What the tests need that the verifier itself does not: cycle notation,
the shipped action tables, and chain membership."""

import json
import re
from pathlib import Path

from torsiongen.curves import GeneratorAction
from torsiongen.engine import StabilizerChain, _to_array
from torsiongen.errors import MalformedCycle, PointOutOfRange, RepeatedPoint
from torsiongen.perms import Permutation

DATA = Path(__file__).resolve().parents[1] / "src" / "torsiongen" / "data"

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse whitespace-separated parenthesized cycles into a permutation.

    Unlisted points are fixed; cycles must be pairwise disjoint.
    """
    if n < 1:
        raise PointOutOfRange("degree must be >= 1")
    stripped = text.strip()
    if _CYCLE_RE.sub("", stripped).strip():
        raise MalformedCycle(f"unparsable cycle text: {text!r}")
    images = list(range(n))
    used: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        try:
            pts = [int(tok) for tok in m.group(1).split()]
        except ValueError as e:
            raise MalformedCycle(f"bad cycle entry in {m.group(0)!r}") from e
        for p in pts:
            if p < 0 or p >= n:
                raise PointOutOfRange(f"point {p} out of range for degree {n}")
            if p in used:
                raise RepeatedPoint(f"point {p} appears in two cycles")
            used.add(p)
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
    return Permutation(tuple(images))


def format_cycles(p: Permutation) -> str:
    """Canonical cycle notation: min element first, cycles sorted by min,
    fixed points omitted, and "()" for the identity."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def load_shipped(name: str) -> dict:
    """One of the packaged worked-instance action tables."""
    return json.loads((DATA / name).read_text())


def actions_of(data: dict) -> list[GeneratorAction]:
    """The generator actions of a table in `actions_to_json` form."""
    return [
        GeneratorAction.of(g["name"], g["order"], dict(map(tuple, g["map"])))
        for g in data["generators"]
    ]


def contains(chain: StabilizerChain, p: Permutation) -> bool:
    """Membership by sifting through a fully built chain."""
    assert chain.complete and p.degree == chain.degree
    return chain._sift_array(_to_array(p))[1] is None
