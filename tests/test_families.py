"""Generator families: step cycles, sequential products, and the four
construction families, pinned against worked examples and certified by the
group engine on subranges.
"""

import itertools

import pytest

from torsiongen.engine import classify
from torsiongen.errors import (
    CaseUndefined,
    InvalidParams,
    OddK,
    OverlapError,
    RangeError,
)
from torsiongen.families import (
    ConstructionCase,
    _cycle_on,
    check_orders,
    conjecture_pair,
    miller_small_pair,
    prop61_generators,
    prop62_generators,
    seq_step_product,
    step_cycle,
)
from torsiongen.perms import Permutation, format_cycles, is_even, order_of


class TestStepCycle:
    def test_wraparound(self):
        assert format_cycles(step_cycle(4, 15, 14)) == "(0 1 2 14)"

    def test_transposition(self):
        assert format_cycles(step_cycle(2, 5, 0)) == "(0 1)"

    def test_full_cycle_canonical(self):
        assert format_cycles(step_cycle(5, 5, 3)) == "(0 1 2 3 4)"

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            step_cycle(6, 5, 0)
        with pytest.raises(InvalidParams):
            step_cycle(3, 5, 5)


class TestSeqStepProduct:
    def test_worked_example(self):
        p = seq_step_product(4, 15, 6, 3)
        assert format_cycles(p) == "(0 1 2 14)(6 7 8 9)(10 11 12 13)"

    def test_element_a_k5_n18(self):
        p = seq_step_product(5, 18, 0, 3)
        assert format_cycles(p) == "(0 1 2 3 4)(5 6 7 8 9)(10 11 12 13 14)"

    def test_order_exactly_k(self):
        assert order_of(seq_step_product(6, 30, 2, 4)) == 6

    def test_overlap_error(self):
        with pytest.raises(OverlapError):
            seq_step_product(3, 9, 0, 4)


class TestProp61:
    def test_worked_instance_k5_n18(self):
        (a, b, c), case = prop61_generators(5, 18)
        assert format_cycles(a) == "(0 1 2 3 4)(5 6 7 8 9)(10 11 12 13 14)"
        # (4 5 6 7 8)(9 10 11 12 13)(14 15 16 17 0) in canonical order
        assert format_cycles(b) == "(0 14 15 16 17)(4 5 6 7 8)(9 10 11 12 13)"
        # c = (1 0 2 3 4): 1->0, 0->2, 2->3, 3->4, 4->1
        assert format_cycles(c) == "(0 2 3 4 1)"
        assert case.case_tag == "k∤n;k>3"

    def test_divisible_branch_k3_n9(self):
        (a, b, c), case = prop61_generators(3, 9)
        assert format_cycles(c) == "(0 1 2)"
        assert format_cycles(b) == "(2 3 4)(5 6 7)"
        assert case.case_tag == "k|n;k=3"

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            prop61_generators(5, 9)
        with pytest.raises(RangeError):
            prop61_generators(2, 10)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_orders_and_parity(self, k):
        for n in (2 * k, 2 * k + 1, 3 * k, 3 * k + 2):
            gens, _ = prop61_generators(k, n)
            assert check_orders(gens, k)
            a, b, c = gens
            if k % 2 == 1:
                assert all(is_even(g) for g in gens)
            else:
                assert not is_even(c)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_classification_sample(self, k):
        for n in (2 * k, 2 * k + 3, 30):
            if n < 2 * k:
                continue
            gens, _ = prop61_generators(k, n)
            want = "symmetric" if k % 2 == 0 else "alternating"
            assert classify(list(gens)).kind == want


# Arbitrary k-cycles the Miller search tries after the step-cycle pairs.
MILLER_BUDGET = 500_000


def searched_pair(k: int, n: int):
    """Oracle: the search `miller_small_pair` ran before it became a
    formula, kept verbatim apart from its name and return shape."""
    if not (3 <= k <= n <= 2 * k - 1):
        raise RangeError(f"need 3 <= k <= n <= 2k-1, got k={k}, n={n}")
    target = "symmetric" if k % 2 == 0 else "alternating"

    def certified(p: Permutation, q: Permutation) -> bool:
        return classify([p, q]).kind == target

    first = step_cycle(k, n, 0)
    for s in range(1, n):
        second = step_cycle(k, n, s)
        if certified(first, second):
            return first, second
    tried = 0
    for second in _k_cycles_lex(k, n):
        tried += 1
        if tried > MILLER_BUDGET:
            break
        if certified(first, second):
            return first, second
    raise AssertionError(f"no certified pair found for k={k}, n={n}")


def _k_cycles_lex(k: int, n: int):
    """All k-cycles on n points: support sets ascending, then the cycle word
    (min first) in lexicographic order."""
    for support in itertools.combinations(range(n), k):
        head, rest = support[0], support[1:]
        for tail in itertools.permutations(rest):
            yield _cycle_on([head, *tail], n)


class TestMillerSmallPair:
    def test_k3_n3(self):
        (p, q), _ = miller_small_pair(3, 3)
        assert order_of(p) == 3 and order_of(q) == 3
        assert classify([p, q]).kind == "alternating"

    def test_k5_n7(self):
        (p, q), case = miller_small_pair(5, 7)
        assert case == ConstructionCase("miller", 5, 7, "miller")
        assert order_of(p) == 5 and order_of(q) == 5
        assert classify([p, q]).kind == "alternating"

    def test_even_k_symmetric(self):
        (p, q), _ = miller_small_pair(4, 7)
        assert classify([p, q]).kind == "symmetric"

    def test_k4_n6_exception(self):
        # the step pair with s = 2 is PGL(2,5) on the projective line over F_5
        step_pair = [step_cycle(4, 6, 0), step_cycle(4, 6, 2)]
        assert str(classify(step_pair)) == "Other(120)"
        (p, q), _ = miller_small_pair(4, 6)
        assert (format_cycles(p), format_cycles(q)) == ("(0 1 2 3)", "(0 4 1 5)")

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            miller_small_pair(4, 9)

    @pytest.mark.parametrize("k", range(3, 11))
    def test_formula_equals_search(self, k):
        for n in range(k, 2 * k):
            gens, _ = miller_small_pair(k, n)
            assert gens == searched_pair(k, n), (k, n)

    @pytest.mark.parametrize("k", range(3, 31))
    def test_whole_small_range(self, k):
        want = "symmetric" if k % 2 == 0 else "alternating"
        for n in range(k, 2 * k):
            (p, q), _ = miller_small_pair(k, n)
            assert order_of(p) == k and order_of(q) == k
            assert classify([p, q]).kind == want, (k, n)


class TestProp62:
    def test_mixing_element_k4_n12(self):
        gens, _ = prop62_generators(4, 12)
        t = gens[-1]
        assert format_cycles(t) == "(1 2)(3 4 10 11)"
        assert order_of(t) == 4
        assert is_even(t)

    def test_all_even_order_k(self):
        for k, n in [(4, 12), (6, 20), (8, 25), (4, 6), (6, 8)]:
            gens, _ = prop62_generators(k, n)
            assert check_orders(gens, k), (k, n)
            assert all(is_even(g) for g in gens), (k, n)

    def test_generates_alternating_sample(self):
        for k, n in [(4, 12), (4, 6), (6, 8), (6, 20), (8, 10), (8, 30)]:
            gens, _ = prop62_generators(k, n)
            assert classify(list(gens)).kind == "alternating", (k, n)

    def test_odd_k_rejected(self):
        with pytest.raises(OddK):
            prop62_generators(5, 12)

    def test_small_n_rejected(self):
        with pytest.raises(RangeError):
            prop62_generators(6, 7)


class TestConjecturePair:
    def test_case2_k4_n16(self):
        (a, b), case = conjecture_pair(4, 16)
        assert case.case_tag == "case2"
        assert format_cycles(b) == "(0 1 2 15)(3 4 5 6)(7 8 9 10)"

    def test_case3_k4_n19(self):
        (a, b), case = conjecture_pair(4, 19)
        assert case.case_tag == "case3"
        assert (
            format_cycles(b)
            == "(1 2 3 4)(5 6 7 8)(11 12)(13 14)(15 16 17 18)"
        )
        assert order_of(b) == 4

    def test_case1_k5_n18(self):
        (a, b), case = conjecture_pair(5, 18)
        assert case.case_tag == "case1"
        assert b(4) == 6  # first cycle (4 6 7 8 5)
        cycles = {tuple(c) for c in b.cycles()}
        assert (4, 6, 7, 8, 5) in cycles
        assert order_of(b) == 5

    def test_case3_floor(self):
        with pytest.raises(CaseUndefined):
            conjecture_pair(4, 11)  # floor(11/4) = 2 < 3

    def test_case_selection_total(self):
        # every (k, n) with n >= k >= 3 resolves to exactly one case or a
        # flagged CaseUndefined (case-3 floor)
        for k in range(3, 11):
            for n in range(k, 61):
                try:
                    _, case = conjecture_pair(k, n)
                except CaseUndefined:
                    m = n // k
                    assert k % 2 == 0 and m % 2 == 0 and n % k == k - 1
                    assert m < 3
                    continue
                m = n // k
                if k % 2 == 1 or m % 2 == 1:
                    assert case.case_tag == "case1"
                elif n % k != k - 1:
                    assert case.case_tag == "case2"
                else:
                    assert case.case_tag == "case3"

    def test_orders(self):
        for k in range(3, 9):
            for n in range(k, 40):
                try:
                    (a, b), _ = conjecture_pair(k, n)
                except CaseUndefined:
                    continue
                assert order_of(a) == k, (k, n)
                assert order_of(b) == k, (k, n)

    def test_known_exceptions_fail(self):
        for k, n in [(3, 6), (3, 7), (3, 8)]:
            (a, b), _ = conjecture_pair(k, n)
            assert classify([a, b]).kind not in ("alternating",)

    def test_generation_sample(self):
        for k, n in [(3, 9), (5, 18), (4, 16), (4, 19), (6, 25), (7, 30)]:
            (a, b), _ = conjecture_pair(k, n)
            want = "symmetric" if k % 2 == 0 else "alternating"
            assert classify([a, b]).kind == want, (k, n)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            conjecture_pair(2, 10)
        with pytest.raises(RangeError):
            conjecture_pair(5, 4)
