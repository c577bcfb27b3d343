"""Genus arithmetic: representability of g as a*k + b*(k-1) or a*k + 1.

A genus-g surface assembled from a genus-k pieces and b genus-(k-1) pieces
(optionally with one extra axis handle) admits an order-k symmetry; this
module handles the pure number theory of which g qualify.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDecomposition, InvalidParams, RangeError


@dataclass(frozen=True)
class GenusDecomposition:
    """g = a*k + b*(k-1) + (1 if plus_one else 0)."""

    k: int
    a: int
    b: int
    plus_one: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise InvalidDecomposition(f"need k >= 2, got {self.k}")
        if self.a < 0 or self.b < 0:
            raise InvalidDecomposition(f"negative piece count: a={self.a}, b={self.b}")
        if self.a + self.b < 1:
            raise InvalidDecomposition("need at least one piece")
        if self.plus_one and (self.b != 0 or self.a < 1):
            raise InvalidDecomposition(
                "plus_one form requires b = 0 and a >= 1"
            )

    def genus(self) -> int:
        return self.a * self.k + self.b * (self.k - 1) + (1 if self.plus_one else 0)


def decompose(
    k: int, g: int, require_leading_k: bool = False
) -> GenusDecomposition | None:
    """Decomposition of g maximizing the genus-k piece count a, or None.

    Both forms compete on a, with ties going to the a*k + b*(k-1) form.
    With require_leading_k the (a, b) form with a >= 1 is preferred
    outright (the downstream construction excludes the a*k+1 form there),
    falling back to plus_one only when no such (a, b) solution exists.
    """
    if k < 2:
        raise InvalidParams(f"need k >= 2, got {k}")
    if g < 1:
        raise InvalidParams(f"need g >= 1, got {g}")
    # a*k = g - b*(k-1) and k = 1 mod (k-1) force a = g mod (k-1); the
    # maximal choice is the largest such a with a*k <= g.
    step = k - 1
    lo = 1 if require_leading_k else 0
    a_max = g // k
    if step == 1:  # k = 2: every b works, so the maximal a is g // 2
        a = a_max
    else:
        a_res = g % step
        if a_max >= a_res:
            a = a_res + ((a_max - a_res) // step) * step
        else:
            a = -1
    ab_form = None
    while a >= lo:
        rem = g - a * k
        if rem >= 0 and rem % step == 0:
            b = rem // step
            if a + b >= 1:
                ab_form = GenusDecomposition(k, a, b)
                break
        a -= step if step > 1 else 1
    plus_form = None
    if (g - 1) % k == 0 and (g - 1) // k >= 1:
        plus_form = GenusDecomposition(k, (g - 1) // k, 0, plus_one=True)
    if ab_form is not None and (
        require_leading_k
        or plus_form is None
        or ab_form.a >= plus_form.a
    ):
        return ab_form
    return plus_form


def stable_bound(k: int) -> int:
    """Least bound above which every genus is representable: (k-1)(k-3)."""
    if k < 5:
        raise RangeError(f"stable bound needs k >= 5, got {k}")
    return (k - 1) * (k - 3)


def theorem1_bound(k: int) -> int:
    """(k-1)^2 + 1; at or above it a decomposition with a >= 1 and no
    plus_one handle always exists."""
    if k < 6:
        raise RangeError(f"need k >= 6, got {k}")
    return (k - 1) ** 2 + 1
