"""Genus arithmetic, checked against a brute-force enumeration oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torsiongen.errors import InvalidDecomposition, InvalidParams, RangeError
from torsiongen.genus import (
    GenusDecomposition,
    decompose,
    stable_bound,
    theorem1_bound,
)


def brute_decompositions(k, g):
    """All (a, b) with a*k + b*(k-1) = g, plus the a*k+1 form."""
    pairs = [
        (a, (g - a * k) // (k - 1))
        for a in range(g // k + 1)
        if (g - a * k) % (k - 1) == 0 and (g - a * k) // (k - 1) >= 0
    ] if k > 2 else [
        (a, g - 2 * a) for a in range(g // 2 + 1) if g - 2 * a >= 0
    ]
    pairs = [(a, b) for a, b in pairs if a + b >= 1]
    plus = (g - 1) % k == 0 and (g - 1) // k >= 1
    return pairs, plus


class TestDecomposition:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidDecomposition):
            GenusDecomposition(5, 0, 0)
        with pytest.raises(InvalidDecomposition):
            GenusDecomposition(5, -1, 2)
        with pytest.raises(InvalidDecomposition):
            GenusDecomposition(5, 2, 1, plus_one=True)
        with pytest.raises(InvalidDecomposition):
            GenusDecomposition(1, 1, 0)

    def test_genus_value(self):
        assert GenusDecomposition(5, 2, 2).genus() == 18
        assert GenusDecomposition(5, 3, 0, plus_one=True).genus() == 16

    def test_worked_g18(self):
        d = decompose(5, 18)
        assert (d.a, d.b, d.plus_one) == (2, 2, False)

    def test_worked_g16_plus_one(self):
        d = decompose(5, 16)
        assert (d.a, d.b, d.plus_one) == (3, 0, True)

    def test_unrepresentable(self):
        assert decompose(5, 7) is None

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            decompose(1, 10)
        with pytest.raises(InvalidParams):
            decompose(5, 0)

    @given(st.integers(2, 15), st.integers(1, 400))
    def test_matches_brute_force(self, k, g):
        d = decompose(k, g)
        pairs, plus = brute_decompositions(k, g)
        plus_a = (g - 1) // k if plus else -1
        if not pairs and not plus:
            assert d is None
            return
        assert d is not None and d.genus() == g
        best_ab = max(pairs) if pairs else None
        if best_ab is not None and best_ab[0] >= plus_a:
            assert not d.plus_one and (d.a, d.b) == best_ab
        else:
            assert d.plus_one and d.a == plus_a

    @given(st.integers(2, 15), st.integers(1, 400))
    def test_leading_k_matches_brute_force(self, k, g):
        d = decompose(k, g, require_leading_k=True)
        pairs, plus = brute_decompositions(k, g)
        pairs = [(a, b) for a, b in pairs if a >= 1]
        if pairs:
            assert d is not None and not d.plus_one
            assert (d.a, d.b) == max(pairs)
        elif plus:
            assert d is not None and d.plus_one
        else:
            assert d is None

    @given(st.integers(2, 15), st.integers(1, 400))
    def test_deterministic(self, k, g):
        assert decompose(k, g) == decompose(k, g)


class TestStableBound:
    def test_values(self):
        assert stable_bound(5) == 8
        assert stable_bound(6) == 15

    def test_range_error(self):
        with pytest.raises(RangeError):
            stable_bound(4)

    @pytest.mark.parametrize("k", range(5, 41))
    def test_everything_above_is_representable(self, k):
        for g in range(stable_bound(k), 5001):
            assert decompose(k, g) is not None, (k, g)

    @pytest.mark.parametrize("k", range(5, 41))
    def test_bound_is_tight(self, k):
        # the value just below the bound is not representable
        assert decompose(k, stable_bound(k) - 1) is None


def count_small_representable(k):
    """(representable count, window size) for g in 1..stable_bound(k)-1, by
    enumeration; the closed forms below are claims tested against it."""
    window = range(1, stable_bound(k))
    return sum(1 for g in window if decompose(k, g) is not None), len(window)


class TestSmallCount:
    def test_k5(self):
        assert count_small_representable(5) == (3, 7)
        assert [g for g in range(1, 8) if decompose(5, g)] == [4, 5, 6]

    def test_k6(self):
        # enumeration gives 7 = (36-18-4)/2, matching the closed form
        assert count_small_representable(6) == (7, 14)

    @pytest.mark.parametrize("k", range(5, 41))
    def test_closed_forms(self, k):
        count, window = count_small_representable(k)
        assert count == (k * k - 3 * k - 4) // 2, k
        assert window == k * k - 4 * k + 2, k
        # the alternative closed form sum(i for i in 3..k-2)
        assert count == sum(range(3, k - 1))


class TestTheorem1Bound:
    def test_values(self):
        assert theorem1_bound(6) == 26
        assert theorem1_bound(8) == 50
        d = decompose(6, 26, require_leading_k=True)
        assert (d.a, d.b, d.plus_one) == (1, 4, False)

    def test_range_error(self):
        with pytest.raises(RangeError):
            theorem1_bound(5)

    @pytest.mark.parametrize("k", range(6, 41))
    def test_leading_k_above_bound(self, k):
        for g in range(theorem1_bound(k), 5001):
            d = decompose(k, g, require_leading_k=True)
            assert d is not None and d.a >= 1 and not d.plus_one, (k, g)
