"""Exact permutation-group engine.

Builds a base and strong generating set (deterministic Schreier-Sims) and
answers exact order / orbit / transitivity / primitivity queries.
`classify` first tries a giant certificate (transitivity plus an
element with a long prime cycle, found by a seeded random walk) that proves
the group contains A_n without building a chain; a missed certificate only
costs the chain build, never a different verdict.  `jordan_certificate`
names a prime-cycle witness among the generators and their pairwise
commutators, with no search beyond them.  Internally permutations
are numpy int32 image tables; composition r(x) = p(q(x)) is the fancy-index
p[q].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegreeMismatch,
    EmptyGeneratorList,
    PointOutOfRange,
)
from .perms import CycleDecomposition, Permutation, commutator, is_even

Array = np.ndarray


def _to_array(p: Permutation) -> Array:
    return np.array(p.images, dtype=np.int32)


def _inv(a: Array) -> Array:
    out = np.empty_like(a)
    out[a] = np.arange(len(a), dtype=a.dtype)
    return out


def _is_id(a: Array) -> bool:
    return bool((a == np.arange(len(a), dtype=a.dtype)).all())


@dataclass
class _Level:
    point: int
    gens: list[Array] = field(default_factory=list)
    # orbit kept in insertion order; transversal entries are never rewritten
    # so earlier Schreier checks stay valid when the orbit grows.
    orbit: list[int] = field(default_factory=list)
    transversal: dict[int, Array] = field(default_factory=dict)
    inv_transversal: dict[int, Array] = field(default_factory=dict)
    done: list[set] = field(default_factory=list)  # per gen: checked points
    seen_schreier: set = field(default_factory=set)

    def _seed(self, identity: Array) -> None:
        if not self.transversal:
            self.orbit.append(self.point)
            self.transversal[self.point] = identity
            self.inv_transversal[self.point] = identity

    def _grow(self, frontier: list[int]) -> None:
        while frontier:
            nxt = []
            for x in frontier:
                u = self.transversal[x]
                for g in self.gens:
                    y = int(g[x])
                    if y not in self.transversal:
                        v = g[u]
                        self.orbit.append(y)
                        self.transversal[y] = v
                        self.inv_transversal[y] = _inv(v)
                        nxt.append(y)
            frontier = nxt

    def extend_orbit(self, identity: Array) -> None:
        self._seed(identity)
        self._grow(list(self.orbit))

    def add_gen(self, g: Array, identity: Array) -> None:
        """Append a generator and extend the orbit incrementally: apply only
        the new generator to existing points, then saturate from the new
        frontier with all generators.  Existing entries are never rewritten."""
        self.gens.append(g)
        self.done.append(set())
        self._seed(identity)
        frontier = []
        for x in list(self.orbit):
            y = int(g[x])
            if y not in self.transversal:
                v = g[self.transversal[x]]
                self.orbit.append(y)
                self.transversal[y] = v
                self.inv_transversal[y] = _inv(v)
                frontier.append(y)
        self._grow(frontier)


class StabilizerChain:
    """Base + strong generators + transversals for a permutation group.

    With stop_order set, construction halts as soon as the product of orbit
    sizes (always a lower bound for the group order) reaches that value; the
    chain is then marked incomplete and only order() remains meaningful as a
    lower bound.
    """

    def __init__(self, gens: list[Permutation], stop_order: int | None = None):
        if not gens:
            raise EmptyGeneratorList("need at least one generator")
        degrees = {g.degree for g in gens}
        if len(degrees) != 1:
            raise DegreeMismatch(f"mixed degrees {sorted(degrees)}")
        self.degree = degrees.pop()
        self._identity = np.arange(self.degree, dtype=np.int32)
        self._stop_order = stop_order
        self.complete = True
        arrays = [_to_array(g) for g in gens if not g.is_identity()]
        self.levels: list[_Level] = []
        self._build(arrays)

    # -- construction ------------------------------------------------------

    def _first_moved(self, a: Array) -> int:
        moved = np.nonzero(a != self._identity)[0]
        return int(moved[0])

    def _build(self, arrays: list[Array]) -> None:
        # Initial base: ascending first-moved points.
        rem = arrays
        while rem:
            b = min(self._first_moved(a) for a in rem)
            lvl = _Level(point=b)
            for a in rem:
                lvl.gens.append(a)
                lvl.done.append(set())
            self.levels.append(lvl)
            rem = [a for a in rem if a[b] == b]
        for lvl in self.levels:
            lvl.extend_orbit(self._identity)
        if self._reached_stop():
            return
        # Verify bottom-up that level i+1 generates the stabilizer of the
        # level-i base point; add sifted Schreier generator residues where not.
        i = len(self.levels) - 1
        while i >= 0:
            restart = self._verify_level(i)
            if not self.complete:
                return
            i = i - 1 if restart is None else restart

    def _reached_stop(self) -> bool:
        if self._stop_order is not None and self.order() >= self._stop_order:
            self.complete = False
            return True
        return False

    def _verify_level(self, i: int) -> int | None:
        """Check outstanding Schreier generators of level i.

    Whole candidate batches are consumed before returning: transversal
    entries are never rewritten, so precomputed candidates stay valid even
    after deeper levels gain generators mid-batch.  Returns the deepest
    level that received a new strong generator (to be re-verified), or
    None if nothing was added."""
        lvl = self.levels[i]
        deepest: int | None = None
        for gi, g in enumerate(lvl.gens):
            todo = [x for x in lvl.orbit if x not in lvl.done[gi]]
            if not todo:
                continue
            u_stack = np.stack([lvl.transversal[x] for x in todo])
            gu = g[u_stack]
            inv_rows = np.stack(
                [lvl.inv_transversal[int(g[x])] for x in todo]
            )
            cand = np.take_along_axis(inv_rows, gu, axis=1)
            nontrivial = ~(cand == self._identity).all(axis=1)
            for row in range(len(todo)):
                lvl.done[gi].add(todo[row])
                if not nontrivial[row]:
                    continue
                schreier = cand[row]
                sig = schreier.tobytes()
                if sig in lvl.seen_schreier:
                    continue
                lvl.seen_schreier.add(sig)
                level_hit, residue = self._sift_array(schreier, start=i + 1)
                if residue is None:
                    continue
                # new strong generator for levels i+1..level_hit
                if level_hit == len(self.levels):
                    b = self._first_moved(residue)
                    self.levels.append(_Level(point=b))
                for j in range(i + 1, level_hit + 1):
                    self.levels[j].add_gen(residue, self._identity)
                if deepest is None or level_hit > deepest:
                    deepest = level_hit
                if self._stop_order is not None and self._reached_stop():
                    return None
        return deepest

    def _sift_array(self, a: Array, start: int = 0):
        """Sift; returns (level_where_stuck, residue) or (·, None) if a is
        in the group generated by levels >= start."""
        p = a
        for j in range(start, len(self.levels)):
            lvl = self.levels[j]
            x = int(p[lvl.point])
            if x not in lvl.inv_transversal:
                return j, p
            p = lvl.inv_transversal[x][p]
        if _is_id(p):
            return len(self.levels), None
        return len(self.levels), p

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n


@dataclass(frozen=True)
class Classification:
    kind: str  # "symmetric" | "alternating" | "other"
    order: int

    def __str__(self) -> str:
        if self.kind == "other":
            return f"Other({self.order})"
        return self.kind.capitalize()


# Product-replacement walk of the giant certificate: slots, warm-up steps
# and elements tested before falling back to the stabilizer chain.
_PR_SLOTS = 5
_PR_WARMUP = 20
_PR_TRIES = 64


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def _long_prime_cycle(a: Array, n: int) -> bool:
    """Does `a` have a cycle of prime length p with n/2 < p <= n-3?"""
    images = a.tolist()
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        if 2 * length > n:
            # at most one cycle is longer than n/2
            return length <= n - 3 and _is_prime(length)
    return False


def _giant_certificate(gens: list[Permutation]) -> bool:
    """True only if <gens> contains A_n (Seress, Permutation Group
    Algorithms, Lemma 10.2.1).

    The group must be transitive, and a product-replacement walk must meet
    an element with a cycle of prime length p, n/2 < p <= n-3.  Its other
    cycles are shorter than p, so the power to the lcm of their lengths is
    a p-cycle.  A p-cycle with p > n/2 fits in no block of a nontrivial
    block system and cannot permute p blocks of size >= 2 either, so the
    transitive group is primitive, and by Jordan's theorem (Wielandt,
    Finite Permutation Groups, Thm 13.9) a primitive group with a p-cycle,
    p <= n-3, contains A_n.  The walk is seeded from the generators with a
    local generator, so results are reproducible and the global `random`
    state is untouched; False means only that no certificate was found.
    """
    n = gens[0].degree
    if len(orbit(gens, 0)) != n:
        return False
    arrays = [_to_array(g) for g in gens]
    rng = random.Random(np.stack(arrays).tobytes())
    slots = [arrays[i % len(arrays)] for i in range(max(_PR_SLOTS, len(arrays)))]
    acc = np.arange(n, dtype=np.int32)
    for step in range(_PR_WARMUP + _PR_TRIES):
        i, j = rng.sample(range(len(slots)), 2)
        slots[i] = slots[i][slots[j]] if rng.random() < 0.5 else slots[j][slots[i]]
        acc = acc[slots[i]]
        if step >= _PR_WARMUP and _long_prime_cycle(acc, n):
            return True
    return False


def classify(gens: list[Permutation]) -> Classification:
    """Symmetric iff order n!; Alternating iff order n!/2 with all
    generators even; Other otherwise (carrying the exact order).

    For n >= 8 a giant certificate (see `_giant_certificate`) is tried
    first; when it holds, the group contains A_n.  Otherwise, for n >= 5,
    the chain build stops once the order lower bound reaches n!/2: the
    order then divides n! and is >= n!/2.  Either way the group is A_n or
    S_n, and A_n is the only index-2 subgroup, so generator parity decides
    the two cases exactly.  Groups the certificate misses (n < 8, where no
    such prime exists, non-giants, and rare walk misses) get the exact
    order from the chain.
    """
    n = gens[0].degree
    full = math.factorial(n)
    all_even = all(is_even(g) for g in gens)
    giant = (
        n >= 8
        and all(g.degree == n for g in gens)
        and _giant_certificate(gens)
    )
    if not giant:
        chain = StabilizerChain(gens, stop_order=full // 2 if n >= 5 else None)
        giant = not chain.complete
    if giant:
        if all_even:
            return Classification("alternating", full // 2)
        return Classification("symmetric", full)
    order = chain.order()
    if order == full:
        return Classification("symmetric", order)
    if 2 * order == full and all_even:
        return Classification("alternating", order)
    return Classification("other", order)


def orbit(gens: list[Permutation], point: int) -> set[int]:
    if not gens:
        raise EmptyGeneratorList("need at least one generator")
    n = gens[0].degree
    if not 0 <= point < n:
        raise PointOutOfRange(f"point {point} out of range for degree {n}")
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _min_block_size(arrays: list[Array], n: int, x: int) -> int:
    """Size of the smallest block containing {0, x} (union-find refinement)."""
    parent = list(range(n))
    size = [1] * n

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> tuple[int, int] | None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        return ra, rb

    queue = [(0, x)]
    union(0, x)
    while queue:
        u, v = queue.pop()
        for g in arrays:
            merged = union(int(g[u]), int(g[v]))
            if merged is not None:
                queue.append(merged)
    return size[find(0)]


def is_primitive(gens: list[Permutation]) -> bool:
    """Transitive with no nontrivial block system."""
    n = gens[0].degree
    if n < 2:
        raise PointOutOfRange("degree must be >= 2")
    if len(orbit(gens, 0)) != n:
        return False
    arrays = [_to_array(g) for g in gens]
    for x in range(1, n):
        blk = _min_block_size(arrays, n, x)
        if 1 < blk < n:
            return False
    return True


@dataclass(frozen=True)
class JordanWitness:
    word: str
    cycle: CycleDecomposition
    prime: int


def _single_prime_cycle(p: Permutation, n: int) -> int | None:
    cycs = p.cycles()
    if len(cycs) != 1:
        return None
    ln = len(cycs[0])
    if ln > n - 3:
        return None
    if not _is_prime(ln):
        return None
    return ln


def jordan_certificate(gens: list[Permutation]) -> JordanWitness | None:
    """A p-cycle witness (p prime, p <= n-3) among the generators and their
    pairwise commutators.

    Generators are named a, b, c, ... by position.  Candidates in order:
    the generators, then the commutator [x,y] of each ordered pair of
    distinct generators.  Among all hits the smallest prime wins, with the
    lexicographically smallest cycle form breaking ties (then first found),
    so the canonical small 3-cycle witnesses are preferred over longer prime
    cycles and later duplicates.
    """
    if not gens:
        return None
    n = gens[0].degree
    names = [chr(ord("a") + i) for i in range(len(gens))]
    best: JordanWitness | None = None

    def consider(word: str, p: Permutation) -> None:
        nonlocal best
        prime = _single_prime_cycle(p, n)
        if prime is None:
            return
        dec = CycleDecomposition.of(p)
        if best is None or (prime, dec.cycles) < (best.prime, best.cycle.cycles):
            best = JordanWitness(word, dec, prime)

    for name, g in zip(names, gens):
        consider(name, g)
    for ni, gi in zip(names, gens):
        for nj, gj in zip(names, gens):
            if gi is gj:
                continue
            consider(f"[{ni},{nj}]", commutator(gi, gj))
    return best
