"""Permutation arithmetic: composition, orders, parity, and the tests'
cycle-notation helpers.

Fixed values marked by their provenance: hand-derived small compositions
act as the oracle for the composition convention r(x) = p(q(x)).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from helpers import format_cycles, parse_cycles

from torsiongen.errors import (
    DegreeMismatch,
    MalformedCycle,
    PointOutOfRange,
    RepeatedPoint,
)
from torsiongen.perms import Permutation, commutator, compose, is_even, order_of

perm_strategy = st.integers(1, 12).flatmap(
    lambda n: st.permutations(list(range(n))).map(
        lambda images: Permutation(tuple(images))
    )
)


def power(p, e):
    """p^e for e >= 0 by repeated composition."""
    result = Permutation.identity(p.degree)
    for _ in range(e):
        result = compose(result, p)
    return result


def same_degree_pairs(max_n=10):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im))),
            st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im))),
        )
    )


class TestParsing:
    def test_worked_example(self):
        p = parse_cycles("(6 7 8 9)(10 11 12 13)(14 0 1 2)", 15)
        assert p(6) == 7
        assert p(14) == 0
        assert p(2) == 14
        for fixed in (3, 4, 5):
            assert p(fixed) == fixed

    def test_empty_is_identity(self):
        assert parse_cycles("", 5) == Permutation.identity(5)

    def test_repeated_point(self):
        with pytest.raises(RepeatedPoint):
            parse_cycles("(0 1)(1 2)", 3)

    def test_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            parse_cycles("(0 5)", 3)

    def test_malformed(self):
        with pytest.raises(MalformedCycle):
            parse_cycles("(0 1", 3)
        with pytest.raises(MalformedCycle):
            parse_cycles("(0 x)", 3)

    def test_singleton_cycle_fixes_point(self):
        assert parse_cycles("(2)", 4) == Permutation.identity(4)

    def test_identity_prints_as_unit(self):
        assert format_cycles(Permutation.identity(7)) == "()"

    @given(perm_strategy)
    def test_round_trip(self, p):
        assert parse_cycles(format_cycles(p), p.degree) == p

    def test_canonical_form(self):
        # min element first in each cycle, cycles sorted by min
        p = parse_cycles("(3 4 0 1 2)", 5)
        assert format_cycles(p) == "(0 1 2 3 4)"

    def test_not_a_bijection_rejected(self):
        with pytest.raises(RepeatedPoint):
            Permutation((0, 0, 1))


class TestCompose:
    def test_identity_law(self):
        p = parse_cycles("(0 1 2)", 5)
        assert compose(p, Permutation.identity(5)) == p
        assert compose(Permutation.identity(5), p) == p

    def test_hand_composed_three_cycles(self):
        # (2 3 4)(2 3 4) = (2 4 3), composed point by point
        p = parse_cycles("(2 3 4)", 9)
        assert format_cycles(compose(p, p)) == "(2 4 3)"

    def test_inverse_law(self):
        p = parse_cycles("(0 1 2 3 4)", 5)
        assert compose(p, p.inverse()) == Permutation.identity(5)

    def test_right_factor_first(self):
        # r(x) = p(q(x)): q sends 0 to 1, then p sends 1 to 2
        p = parse_cycles("(1 2)", 3)
        q = parse_cycles("(0 1)", 3)
        assert compose(p, q)(0) == 2

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            compose(Permutation.identity(3), Permutation.identity(4))

    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(
                *(
                    st.permutations(list(range(n))).map(
                        lambda im: Permutation(tuple(im))
                    ),
                )
                * 3
            )
        )
    )
    def test_associative(self, pqr):
        p, q, r = pqr
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestPowerOrder:
    def test_five_cycle_order(self):
        p = parse_cycles("(0 1 2 3 4)", 5)
        assert power(p, 5) == Permutation.identity(5)
        assert order_of(p) == 5

    def test_lcm_order(self):
        p = parse_cycles("(0 1)(2 3 4)", 5)
        assert order_of(p) == 6
        assert power(p, 6) == Permutation.identity(5)
        for e in range(1, 6):
            assert power(p, e) != Permutation.identity(5)

    def test_identity_order(self):
        assert order_of(Permutation.identity(4)) == 1

    @given(perm_strategy, st.integers(1, 12))
    def test_order_of_power(self, p, e):
        from math import gcd

        m = order_of(p)
        assert order_of(power(p, e)) == m // gcd(e, m)


def inversions(p):
    """Independent parity oracle: the number of out-of-order image pairs."""
    im = p.images
    return sum(im[i] > im[j] for i in range(len(im)) for j in range(i + 1, len(im)))


class TestParity:
    def test_three_cycle_even(self):
        assert is_even(parse_cycles("(0 1 2)", 3))

    def test_even_cycle_odd(self):
        assert not is_even(parse_cycles("(0 1 2 3)", 6))

    def test_identity_even(self):
        assert is_even(Permutation.identity(3))

    @given(same_degree_pairs())
    def test_homomorphism(self, pq):
        p, q = pq
        assert is_even(compose(p, q)) == (is_even(p) == is_even(q))

    @given(perm_strategy)
    def test_is_even_consistent(self, p):
        assert is_even(p) == (inversions(p) % 2 == 0)


class TestCommutator:
    def test_self_commutator_trivial(self):
        p = parse_cycles("(0 1 2 3)", 5)
        assert commutator(p, p) == Permutation.identity(5)

    @given(same_degree_pairs())
    def test_definition(self, pq):
        p, q = pq
        expected = compose(
            compose(p.inverse(), q.inverse()), compose(p, q)
        )
        assert commutator(p, q) == expected

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            commutator(Permutation.identity(3), Permutation.identity(4))
