"""Integer symplectic matrices: rotation actions on homology, Dehn-twist
transvections, Humphries classes, and mod-p generation checks.

Basis convention: interleaved symplectic pairs (a1, b1, a2, b2, ...), so the
standard form J is block-diagonal with 2x2 blocks [[0, 1], [-1, 0]].  All
arithmetic is exact: an int64 product that could wrap raises TooLarge.  The
homology rotation is a BlockRotation, at most three distinct blocks of size
at most 2k, never a dense 2g x 2g matrix.  Mod-p generation is a
StabilizerChain order on the p^(2g) vectors of F_p^(2g); a matrix fixing
every vector is the identity, so that action is faithful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import StabilizerChain, _is_prime
from .errors import InvalidDecomposition, InvalidParams, RangeError, TooLarge, ZeroVector
from .genus import GenusDecomposition
from .perms import Permutation

Array = np.ndarray


def standard_form(g: int) -> Array:
    """The symplectic form J on the interleaved basis; J^2 = -Identity."""
    if g < 1:
        raise RangeError(f"need g >= 1, got {g}")
    j = np.zeros((2 * g, 2 * g), dtype=np.int64)
    for i in range(g):
        j[2 * i, 2 * i + 1] = 1
        j[2 * i + 1, 2 * i] = -1
    return j


def _exact_matmul(a: Array, b: Array) -> Array:
    """a @ b, refused unless n * max|a| * max|b| < 2^63 bounds every entry."""
    size_a, size_b = max(int(a.max()), -int(a.min())), max(int(b.max()), -int(b.min()))
    if a.shape[1] * size_a * size_b >= 2**63:
        raise TooLarge("integer matrix product could overflow int64")
    return a @ b


@dataclass(frozen=True)
class SymplecticMatrix:
    """2g x 2g integer matrix with M^T J M = J (checked on construction)."""

    g: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.np
        if m.shape != (2 * self.g, 2 * self.g):
            raise InvalidDecomposition(
                f"expected shape {(2 * self.g,) * 2}, got {m.shape}"
            )
        j = standard_form(self.g)
        if not np.array_equal(_exact_matmul(_exact_matmul(m.T, j), m), j):
            raise InvalidDecomposition("matrix does not preserve the form")

    @classmethod
    def from_array(cls, m) -> "SymplecticMatrix":
        m = np.asarray(m, dtype=np.int64)
        return cls(m.shape[0] // 2, tuple(tuple(int(x) for x in row) for row in m))

    @property
    def np(self) -> Array:
        return np.array(self.entries, dtype=np.int64)

    def order(self, cap: int = 10_000) -> int | None:
        """Multiplicative order, or None if it exceeds cap.  Raises TooLarge
        when a power's entries grow past what int64 holds exactly."""
        ident = np.eye(2 * self.g, dtype=np.int64)
        acc = m = self.np
        for k in range(1, cap + 1):
            if np.array_equal(acc, ident):
                return k
            if k < cap:
                acc = _exact_matmul(acc, m)
        return None


def _interleave(c_block: Array, d_block: Array) -> Array:
    """Combine actions on the a-type and b-type halves of interleaved pairs."""
    m = c_block.shape[0]
    out = np.zeros((2 * m, 2 * m), dtype=np.int64)
    out[0::2, 0::2] = c_block
    out[1::2, 1::2] = d_block
    return out


def _genus_k_block(k: int) -> Array:
    """Cyclic shift of k handle pairs: a_i -> a_{i+1}, b_i -> b_{i+1}."""
    perm = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        perm[(i + 1) % k, i] = 1
    return _interleave(perm, perm)


def _genus_k_minus_1_block(k: int) -> Array:
    """Rotation of a genus-(k-1) piece (two spheres joined by k tubes).

    Tube meridians c_1..c_{k-1} rotate c_i -> c_{i+1} with the wrap
    c_{k-1} -> c_k = -(c_1 + ... + c_{k-1}); this is the companion matrix C
    of x^{k-1} + ... + x + 1, which has order exactly k.  The dual tube-path
    classes transform by C^-T, the unique integer choice that preserves the
    standard pairing <c_i, d_j> = delta_ij.
    """
    m = k - 1
    c = np.zeros((m, m), dtype=np.int64)
    for i in range(m - 1):
        c[i + 1, i] = 1
    c[:, m - 1] = -1
    c_inv = np.linalg.matrix_power(c, k - 1)  # exact: C^k = I
    return _interleave(c, c_inv.T)


@dataclass(frozen=True)
class BlockRotation:
    """Block-diagonal symplectic matrix M, kept as its distinct diagonal
    blocks with their multiplicities, in diagonal order.

    M preserves the form: blocks have even size, so they start on pair
    boundaries, where J is block-diagonal too, and M^T J M is the
    block-diagonal of the B^T J B = J that each block's constructor checks.
    M^m = I exactly when every block order divides m, so the order of M is
    the lcm of the block orders.
    """

    blocks: tuple[tuple[SymplecticMatrix, int], ...]

    @property
    def g(self) -> int:
        return sum(block.g * count for block, count in self.blocks)

    def order(self, cap: int = 10_000) -> int | None:
        """Smallest m <= cap with M^m = I, or None: the lcm of the block
        orders, None as soon as one block's order or the lcm passes cap."""
        order = 1
        for block, _ in self.blocks:
            m = block.order(cap)
            if m is None:
                return None
            order = math.lcm(order, m)
            if order > cap:
                return None
        return order


def rotation_matrix(dec: GenusDecomposition) -> BlockRotation:
    """Homology action of the order-k rotation of the decomposed surface: the
    genus-k block a times, the genus-(k-1) block b times, then the 2x2
    identity on the plus_one axis handle; its g is dec.genus()."""
    pieces = (
        (_genus_k_block(dec.k), dec.a),
        (_genus_k_minus_1_block(dec.k), dec.b),
        (np.eye(2, dtype=np.int64), int(dec.plus_one)),
    )
    return BlockRotation(
        tuple((SymplecticMatrix.from_array(b), n) for b, n in pieces if n)
    )


def twist_transvection(g: int, v) -> SymplecticMatrix:
    """x -> x + <x, v> v, the homology image of the Dehn twist along v."""
    v = np.asarray(v, dtype=np.int64)
    if v.shape != (2 * g,):
        raise InvalidDecomposition(f"expected vector of length {2 * g}")
    if not v.any():
        raise ZeroVector("cannot twist along the zero class")
    # <x, v> v = v (v^T J^T x) = (v (J v)^T) x, so M = I + outer(v, J v)
    j = standard_form(g)
    m = np.eye(2 * g, dtype=np.int64) + np.outer(v, j @ v)
    return SymplecticMatrix.from_array(m)


def humphries_classes(g: int) -> list[Array]:
    """Homology classes of the 2g+1 Humphries curves, in chain order
    beta_1, gamma_1, beta_2, gamma_2, ..., beta_g, then alpha_1, alpha_2.

    beta_i -> a_i, gamma_i -> b_i - b_{i+1}, alpha_1 -> b_1, alpha_2 -> b_2.
    """
    if g < 2:
        raise RangeError(f"need g >= 2, got {g}")
    e = np.eye(2 * g, dtype=np.int64)  # rows a_1, b_1, a_2, b_2, ...
    out = []
    for i in range(g):
        out.append(e[2 * i])
        if i < g - 1:
            out.append(e[2 * i + 1] - e[2 * i + 3])
    out.append(e[1])
    out.append(e[3])
    return out


def sp_order(g: int, p: int) -> int:
    """|Sp(2g, p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1)."""
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


# Largest vector space F_p^(2g), in points, that generates_mod_p acts on.
MODP_POINTS = 1024


def generates_mod_p(mats: list[SymplecticMatrix], p: int) -> tuple[bool, int]:
    """(order equals |Sp(2g, p)|, order) for the group generated mod p.

    The order is that of the StabilizerChain on the p^(2g) vectors of
    F_p^(2g), and it is exact: only the identity matrix fixes every vector,
    so the action is faithful.  Before building anything, raises
    InvalidParams unless p is prime and TooLarge if p^(2g) > MODP_POINTS."""
    if not mats:
        raise ZeroVector("need at least one matrix")
    if not _is_prime(p):
        raise InvalidParams(f"p must be a prime, got {p}")
    g = mats[0].g
    points = p ** (2 * g)
    if points > MODP_POINTS:
        raise TooLarge(f"F_{p}^{2 * g} has {points} points > {MODP_POINTS}")
    # column x of vecs is the vector with base-p digits of x, low digit first
    weights = p ** np.arange(2 * g, dtype=np.int64)
    vecs = np.arange(points, dtype=np.int64) // weights[:, None] % p
    perms = [
        Permutation(tuple((weights @ (np.mod(m.np, p) @ vecs % p)).tolist()))
        for m in mats
    ]
    order = StabilizerChain(perms).order()
    return order == sp_order(g, p), order
