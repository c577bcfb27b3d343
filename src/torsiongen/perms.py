"""Permutations on {0..n-1} as image tables.

Composition convention: compose(p, q) applies q first, i.e. the result maps
x to p(q(x)).  The commutator is p^-1 q^-1 p q, read the same way (q acts
first).  This pair of conventions is pinned by the worked 3-cycle witness in
the generator-family tests and must not be changed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegreeMismatch, MalformedCycle, RepeatedPoint


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}, stored as an image table."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise MalformedCycle("degree must be >= 1")
        if sorted(self.images) != list(range(n)):
            raise RepeatedPoint(f"image table is not a bijection: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv))

    def cycles(self) -> list[list[int]]:
        """Canonical disjoint cycles: min element first, sorted by min,
        fixed points omitted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(cyc)
        return out


@dataclass(frozen=True)
class CycleDecomposition:
    """Canonical cycle form of a permutation."""

    cycles: tuple[tuple[int, ...], ...]
    degree: int

    @classmethod
    def of(cls, p: Permutation) -> "CycleDecomposition":
        return cls(tuple(tuple(c) for c in p.cycles()), p.degree)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Return r with r(x) = p(q(x)) (right factor applied first)."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees {p.degree} != {q.degree}")
    return Permutation(tuple(p.images[y] for y in q.images))


def order_of(p: Permutation) -> int:
    """Least positive m with p^m = identity (lcm of cycle lengths)."""
    m = 1
    for cyc in p.cycles():
        m = m * len(cyc) // gcd(m, len(cyc))
    return m


def commutator(p: Permutation, q: Permutation) -> Permutation:
    """p^-1 q^-1 p q with the right factor applied first."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees {p.degree} != {q.degree}")
    return compose(compose(p.inverse(), q.inverse()), compose(p, q))


def is_even(p: Permutation) -> bool:
    """A k-cycle is even iff k is odd."""
    return sum(len(c) - 1 for c in p.cycles()) % 2 == 0
