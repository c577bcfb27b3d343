"""Explicit generating families for symmetric and alternating groups.

All families are built from step k-cycles (a a+1 ... a+k-1) with entries
mod n and sequential step products of such cycles.  Each builder returns
its generators and a `ConstructionCase` by formula; none searches or
classifies, so whether a construction generates its target is decided by
the group engine where the cell is verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CaseUndefined, InvalidParams, OddK, OverlapError, RangeError
from .perms import Permutation, compose, is_even, order_of


@dataclass(frozen=True)
class ConstructionCase:
    family: str  # "prop61" | "prop62" | "miller" | "conjecture"
    k: int
    n: int
    case_tag: str


def step_cycle(k: int, n: int, a: int) -> Permutation:
    """The k-cycle (a a+1 ... a+k-1) with entries mod n."""
    if not (2 <= k <= n):
        raise InvalidParams(f"need 2 <= k <= n, got k={k}, n={n}")
    if not (0 <= a < n):
        raise InvalidParams(f"start {a} out of range for degree {n}")
    images = list(range(n))
    pts = [(a + i) % n for i in range(k)]
    for i, x in enumerate(pts):
        images[x] = pts[(i + 1) % k]
    return Permutation(tuple(images))


def seq_step_product(k: int, n: int, a: int, ell: int) -> Permutation:
    """Product of ell disjoint step k-cycles starting at a; order exactly k."""
    if not (2 <= k <= n) or not (0 <= a < n):
        raise InvalidParams(f"bad parameters k={k}, n={n}, a={a}")
    if ell < 1:
        raise InvalidParams(f"need ell >= 1, got {ell}")
    if ell > n // k:
        raise OverlapError(f"ell={ell} exceeds disjointness bound {n // k}")
    p = Permutation.identity(n)
    for i in range(ell):
        p = compose(p, step_cycle(k, n, (a + i * k) % n))
    return p


def _cycle_on(points: list[int], n: int) -> Permutation:
    images = list(range(n))
    for i, x in enumerate(points):
        images[x] = points[(i + 1) % len(points)]
    return Permutation(tuple(images))


def prop61_generators(k: int, n: int):
    """Three order-k elements (a, b, c) generating S_n (k even) / A_n (k odd).

    Requires n >= 2k; smaller n is the two-cycle (Miller) range.
    """
    if k < 3:
        raise RangeError(f"need k >= 3, got {k}")
    if n < 2 * k:
        raise RangeError(f"need n >= 2k, got n={n}, k={k}")
    m = n // k
    a = seq_step_product(k, n, 0, m)
    if n % k != 0:
        b = seq_step_product(k, n, k - 1, m)
        b_tag = "k∤n"
    else:
        b = seq_step_product(k, n, k - 1, m - 1)
        b_tag = "k|n"
    if k == 3:
        c = _cycle_on([0, 1, 2], n)
        c_tag = "k=3"
    else:
        c = compose(_cycle_on([0, 1, 2], n), step_cycle(k, n, 0))
        c_tag = "k>3"
    case = ConstructionCase("prop61", k, n, f"{b_tag};{c_tag}")
    return (a, b, c), case


def miller_small_pair(k: int, n: int):
    """Two k-cycles generating S_n (k even) / A_n (k odd), n <= 2k-1.

    The first is the step cycle (0 1 ... k-1).  The second is
    - (0 1 ... k-3 k-1 k-2) for n = k >= 4, where every step cycle is the
      first one;
    - (0 4 1 5) for (k, n) = (4, 6), where the step pair with s = 2
      generates PGL(2,5) ≅ S_5 acting on the six points of the projective
      line over F_5 (`classify` gives Other(120));
    - the step cycle starting at n-k otherwise, so the two cycles cover all
      n points.  At (3, 3) the two coincide and generate A_3.
    `verify --family miller` classifies the pair, so a wrong pair is a fail
    cell, never a search.
    """
    if not (3 <= k <= n <= 2 * k - 1):
        raise RangeError(f"need 3 <= k <= n <= 2k-1, got k={k}, n={n}")
    if n == k >= 4:
        second = _cycle_on([*range(k - 2), k - 1, k - 2], n)
    elif (k, n) == (4, 6):
        second = _cycle_on([0, 4, 1, 5], n)
    else:
        second = step_cycle(k, n, n - k)
    case = ConstructionCase("miller", k, n, "miller")
    return (step_cycle(k, n, 0), second), case


def prop62_generators(k: int, n: int):
    """At most four even order-k elements generating A_n, for even k >= 4,
    n >= k+2.

    Base generating set for S_{n-2} on {0..n-3}; odd members are multiplied
    by the transposition on the two appended points, and the mixing element
    t = (a b 3 4 ... k)(1 2) is appended (a, b = n-2, n-1).
    """
    if k % 2 != 0:
        raise OddK(f"k must be even, got {k}")
    if k < 4:
        raise RangeError(f"need k >= 4, got {k}")
    if n < k + 2:
        raise RangeError(f"need n >= k+2, got n={n}, k={k}")
    m = n - 2
    base = prop61_generators if m >= 2 * k else miller_small_pair
    base_gens, base_case = base(k, m)
    swap = _cycle_on([n - 2, n - 1], n)
    lifted = []
    for g in base_gens:
        ext = Permutation(tuple(g.images) + (n - 2, n - 1))
        if not is_even(ext):
            ext = compose(ext, swap)
        lifted.append(ext)
    # (a b 3 4 ... k)(1 2); for n = k+2 the top entry wraps mod n-2 so the
    # cycle stays inside {0..n-3} u {a, b}.
    body = [n - 2, n - 1] + [x % m for x in range(3, k + 1)]
    if len(set(body)) != len(body):
        raise RangeError(f"mixing cycle degenerate for k={k}, n={n}")
    t = compose(_cycle_on(body, n), _cycle_on([1, 2], n))
    case = ConstructionCase("prop62", k, n, f"{base_case.family}-base")
    return (*lifted, t), case


def conjecture_pair(k: int, n: int):
    """The candidate two-element order-k generating pair (a, b).

    Case 1: k odd, or k even with floor(n/k) odd.
    Case 2: k even, floor(n/k) even, n mod k != k-1.
    Case 3: k even, floor(n/k) even, n mod k == k-1 (needs floor(n/k) >= 3).
    """
    if not (3 <= k <= n):
        raise RangeError(f"need n >= k >= 3, got k={k}, n={n}")
    m = n // k
    a = seq_step_product(k, n, 0, m)
    if k % 2 == 1 or m % 2 == 1:
        tri = _cycle_on([(k - 1) % n, k % n, (k + 1) % n], n)
        b = compose(tri, seq_step_product(k, n, k - 1, m))
        tag = "case1"
    elif n % k != k - 1:
        b = seq_step_product(k, n, (k * m - 1) % n, m - 1)
        tag = "case2"
    else:
        if m < 3:
            raise CaseUndefined(
                f"case-3 d-formula needs floor(n/k) >= 3, got {m} (k={k}, n={n})"
            )
        b = compose(
            compose(
                seq_step_product(2, n, (k * (m - 1) - 1) % n, 2),
                seq_step_product(k, n, 1, m - 2),
            ),
            step_cycle(k, n, (k * m - 1) % n),
        )
        tag = "case3"
    case = ConstructionCase("conjecture", k, n, tag)
    return (a, b), case


def check_orders(gens, k: int) -> bool:
    return all(order_of(g) == k for g in gens)
