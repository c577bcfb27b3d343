"""Symplectic matrices: rotation blocks, transvections, Humphries classes,
mod-p generation.  Oracles: brute-force enumeration of Sp(2,p) at g=1,
breadth-first closure of matrix groups mod p, the dense block-diagonal
rotation matrix, and exact integer form checks everywhere.
"""

import itertools

import numpy as np
import pytest

from torsiongen.errors import (
    InvalidDecomposition,
    InvalidParams,
    RangeError,
    TooLarge,
    ZeroVector,
)
from torsiongen.genus import GenusDecomposition
from torsiongen.sympl import (
    BlockRotation,
    SymplecticMatrix,
    generates_mod_p,
    humphries_classes,
    rotation_matrix,
    sp_order,
    standard_form,
    twist_transvection,
)


def brute_sp2(p):
    """All 2x2 matrices over F_p preserving the form = SL(2, p)."""
    j = np.array([[0, 1], [-1, 0]])
    count = 0
    for entries in itertools.product(range(p), repeat=4):
        m = np.array(entries).reshape(2, 2)
        if np.array_equal(np.mod(m.T @ j @ m, p), np.mod(j, p)):
            count += 1
    return count


def matrix_closure(mats, p):
    """Order of the matrix group generated mod p, by breadth-first closure
    over the matrices themselves (independent of the permutation engine)."""
    gens = [np.mod(m.np, p) for m in mats]
    ident = np.eye(2 * mats[0].g, dtype=np.int64)
    seen = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        products = np.mod(np.stack(frontier) @ np.stack(gens)[:, None], p)
        frontier = []
        for r in products.reshape(-1, *ident.shape):
            key = r.tobytes()
            if key not in seen:
                seen.add(key)
                frontier.append(r)
    return len(seen)


def dense(rot):
    """The 2g x 2g block-diagonal matrix of a BlockRotation, each distinct
    block repeated by its multiplicity (the rotation oracle; src builds
    none)."""
    out = np.zeros((2 * rot.g, 2 * rot.g), dtype=np.int64)
    pos = 0
    for block, count in rot.blocks:
        size = 2 * block.g
        for _ in range(count):
            out[pos : pos + size, pos : pos + size] = block.np
            pos += size
    return out


def identity(g):
    return SymplecticMatrix.from_array(np.eye(2 * g, dtype=np.int64))


class TestStandardForm:
    def test_g1(self):
        assert standard_form(1).tolist() == [[0, 1], [-1, 0]]

    def test_g2_four_entries(self):
        j = standard_form(2)
        assert int(np.count_nonzero(j)) == 4
        assert set(np.unique(j)) == {-1, 0, 1}

    def test_antisymmetry_and_square(self):
        j = standard_form(3)
        assert np.array_equal(j.T, -j)
        assert np.array_equal(j @ j, -np.eye(6, dtype=np.int64))

    def test_range(self):
        with pytest.raises(RangeError):
            standard_form(0)


class TestSymplecticMatrix:
    def test_rejects_non_symplectic(self):
        with pytest.raises(InvalidDecomposition):
            SymplecticMatrix.from_array(np.array([[2, 0], [0, 1]]))

    def test_order_refuses_int64_overflow(self):
        # infinite order; exact entries of the 46th power pass 2^63
        m = SymplecticMatrix.from_array([[2, 1], [1, 1]])
        with pytest.raises(TooLarge):
            m.order(10_000)

    def test_form_check_refuses_int64_overflow(self):
        with pytest.raises(TooLarge):
            SymplecticMatrix.from_array([[1, 2**62], [0, 1]])

    def test_order_below_int64_limit(self):
        # order(cap) forms powers up to the cap-th and no further: the 45th
        # still fits in int64, the 46th would not
        m = SymplecticMatrix.from_array([[2, 1], [1, 1]])
        assert m.order(44) is None
        assert m.order(45) is None

    def test_order_equal_to_cap(self):
        assert rotation_matrix(GenusDecomposition(5, 1, 0)).order(5) == 5
        assert rotation_matrix(GenusDecomposition(5, 1, 0)).order(4) is None

    def test_determinant_one_small(self):
        for dec in [GenusDecomposition(5, 1, 0), GenusDecomposition(5, 0, 1)]:
            m = dense(rotation_matrix(dec))
            assert round(np.linalg.det(m.astype(float))) == 1


class TestRotationMatrix:
    def test_pure_handle_piece_is_permutation(self):
        r = rotation_matrix(GenusDecomposition(5, 1, 0))
        m = dense(r)
        assert m.shape == (10, 10)
        assert set(np.unique(m)) == {0, 1}
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
        assert r.order(20) == 5

    def test_tube_piece_wrap_row(self):
        r = rotation_matrix(GenusDecomposition(5, 0, 1))
        assert r.order(20) == 5
        # the wrap-around relation c_k = -(c_1+...+c_{k-1}) shows up as a
        # row (or column) of -1 entries in the c-block
        m = dense(r)
        assert (m == -1).any()

    def test_plus_one_fixes_axis_handle(self):
        dec = GenusDecomposition(5, 3, 0, plus_one=True)  # genus 16
        m = dense(rotation_matrix(dec))
        assert m.shape == (32, 32)
        assert m[30, 30] == 1 and m[31, 31] == 1
        assert np.count_nonzero(m[30]) == 1 and np.count_nonzero(m[31]) == 1

    def test_strict_order(self):
        for k in (4, 5, 7):
            r = rotation_matrix(GenusDecomposition(k, 1, 1))
            ident = np.eye(2 * r.g, dtype=np.int64)
            acc = dense(r)
            for m in range(1, k):
                assert not np.array_equal(acc, ident), (k, m)
                acc = acc @ dense(r)
            assert np.array_equal(acc, ident)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_order_k_across_decompositions(self, k):
        for a in range(0, 4):
            for b in range(0, 4 - a):
                if a + b == 0:
                    continue
                for plus in ([False, True] if b == 0 and a >= 1 else [False]):
                    dec = GenusDecomposition(k, a, b, plus_one=plus)
                    assert rotation_matrix(dec).order(2 * k) == k, dec

    def test_order_is_lcm_of_block_orders(self):
        # negative control: blocks of orders 2 and 3 give 6, not either one
        minus_one = SymplecticMatrix.from_array(-np.eye(2, dtype=np.int64))
        third = SymplecticMatrix.from_array([[0, 1], [-1, -1]])
        assert (minus_one.order(), third.order()) == (2, 3)
        rot = BlockRotation(((minus_one, 1), (third, 2)))
        assert rot.order() == 6
        assert rot.order(5) is None
        assert SymplecticMatrix.from_array(dense(rot)).order(6) == 6


class TestTwistTransvection:
    def test_g1_matrix(self):
        t = twist_transvection(1, [1, 0])
        assert t.entries in (((1, -1), (0, 1)), ((1, 0), (-1, 1)))
        assert (t.np @ np.array([1, 0]) == np.array([1, 0])).all()

    def test_inverse_composes_to_identity(self):
        # a transvection is unipotent, (t - I)^2 = 0, so its inverse is 2I - t
        v = np.array([1, 2, 0, 1], dtype=np.int64)
        t = twist_transvection(2, v)
        inv = SymplecticMatrix.from_array(2 * np.eye(4, dtype=np.int64) - t.np)
        assert np.array_equal(t.np @ inv.np, np.eye(4, dtype=np.int64))

    def test_disjoint_classes_commute(self):
        u, v = np.eye(4, dtype=np.int64)[[0, 2]]  # a1, a2
        j = standard_form(2)
        assert int(u @ j @ v) == 0
        tu, tv = twist_transvection(2, u), twist_transvection(2, v)
        assert np.array_equal(tu.np @ tv.np, tv.np @ tu.np)

    def test_fixes_pairing_kernel(self):
        v = np.eye(4, dtype=np.int64)[0]  # a1
        t = twist_transvection(2, v).np
        j = standard_form(2)
        for w in np.eye(4, dtype=np.int64):
            if int(w @ j @ v) == 0:
                assert (t @ w == w).all()

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            twist_transvection(2, [0, 0, 0, 0])


class TestHumphriesClasses:
    def test_count(self):
        for g in (2, 3, 5, 9):
            assert len(humphries_classes(g)) == 2 * g + 1

    def test_range(self):
        with pytest.raises(RangeError):
            humphries_classes(1)

    @pytest.mark.parametrize("g", [2, 3, 4, 6])
    def test_pairing_is_humphries_adjacency(self, g):
        classes = humphries_classes(g)
        labels = []
        for i in range(1, g + 1):
            labels.append(f"beta{i}")
            if i < g:
                labels.append(f"gamma{i}")
        labels += ["alpha1", "alpha2"]
        # J on the interleaved basis (a1, b1, a2, b2, ...)
        j = np.kron(np.eye(g, dtype=np.int64), np.array([[0, 1], [-1, 0]]))
        by = dict(zip(labels, classes))

        def pair(x, y):
            return int(by[x] @ j @ by[y])

        # chain: consecutive curves intersect once, others not at all
        chain = [lb for lb in labels if lb.startswith(("beta", "gamma"))]
        for i, x in enumerate(chain):
            for y in chain[i + 1 :]:
                expected = 1 if chain.index(y) == i + 1 else 0
                assert abs(pair(x, y)) == expected, (x, y)
        # alphas touch exactly their one chain neighbor
        for alpha, friend in (("alpha1", "beta1"), ("alpha2", "beta2")):
            assert abs(pair(alpha, friend)) == 1
            for other in chain:
                if other != friend:
                    assert pair(alpha, other) == 0, (alpha, other)
        assert pair("alpha1", "alpha2") == 0
        # named spot checks
        assert abs(pair("beta1", "gamma1")) == 1
        if g >= 3:
            assert pair("beta1", "gamma2") == 0


class TestGeneratesModP:
    def _sl2_gens(self):
        return [twist_transvection(1, [1, 0]), twist_transvection(1, [0, 1])]

    def test_sp2_closed_form_matches_brute_force(self):
        for p in (2, 3):
            assert sp_order(1, p) == brute_sp2(p)

    def test_g1_generates(self):
        for p in (2, 3):
            ok, order = generates_mod_p(self._sl2_gens(), p)
            assert ok and order == sp_order(1, p)

    def test_humphries_g2_p2(self):
        ts = [twist_transvection(2, v) for v in humphries_classes(2)]
        ok, order = generates_mod_p(ts, 2)
        assert ok and order == 720

    def test_identity_alone(self):
        ok, order = generates_mod_p([identity(1)], 2)
        assert not ok and order == 1

    def test_rotation_alone_is_cyclic(self):
        rot = rotation_matrix(GenusDecomposition(3, 1, 0))
        r = SymplecticMatrix.from_array(dense(rot))
        ok, order = generates_mod_p([r], 2)
        assert not ok and order == 3

    def test_too_large(self):
        with pytest.raises(TooLarge):
            generates_mod_p([identity(6)], 2)  # 4096 points
        with pytest.raises(TooLarge):
            generates_mod_p([identity(3)], 5)  # 15625 points

    @pytest.mark.parametrize("p", [-2, 0, 1, 4, 9])
    def test_p_must_be_prime(self, p):
        with pytest.raises(InvalidParams):
            generates_mod_p([identity(1)], p)


def _oracle_cases():
    ts = [twist_transvection(2, v) for v in humphries_classes(2)]
    cases = []
    for p in (2, 3):
        cases.append(pytest.param(ts, p, id=f"humphries-g2-p{p}"))
        for drop in range(len(ts)):
            rest = ts[:drop] + ts[drop + 1 :]
            cases.append(pytest.param(rest, p, id=f"humphries-g2-p{p}-minus{drop}"))
    rot = rotation_matrix(GenusDecomposition(3, 1, 0))
    rot = SymplecticMatrix.from_array(dense(rot))
    sl2 = [twist_transvection(1, [1, 0]), twist_transvection(1, [0, 1])]
    cases += [pytest.param([rot], p, id=f"rotation-g3-p{p}") for p in (2, 3)]
    cases.append(pytest.param([identity(2)], 3, id="identity-g2-p3"))
    cases += [pytest.param(sl2, p, id=f"sl2-p{p}") for p in (2, 3, 5, 7)]
    return cases


@pytest.mark.parametrize("mats, p", _oracle_cases())
def test_order_matches_matrix_closure(mats, p):
    order = matrix_closure(mats, p)
    g = mats[0].g
    assert generates_mod_p(mats, p) == (order == sp_order(g, p), order)
