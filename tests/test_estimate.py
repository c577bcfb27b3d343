"""Monte Carlo estimator: samplers, Wilson interval, determinism.

Oracles: exhaustive enumeration of small sample spaces and closed-form
interval checks.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiongen.engine import classify
from torsiongen.errors import InvalidParams, InvalidSampler, TrialsZero
from torsiongen.estimate import (
    MAX_REJECTS,
    EstimatorResult,
    count_order_k,
    estimate_generation,
    sample_max_disjoint_k_cycles,
    sample_uniform_order_k,
    wilson_interval,
)
from torsiongen.perms import Permutation, is_even, order_of


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for s, t in [(0, 10), (5, 10), (10, 10), (1, 1000), (999, 1000)]:
            low, high = wilson_interval(s, t)
            assert low <= s / t <= high

    def test_known_value(self):
        # 50/100: Wilson 95% interval is approximately (0.404, 0.596)
        low, high = wilson_interval(50, 100)
        assert math.isclose(low, 0.40383, abs_tol=1e-4)
        assert math.isclose(high, 0.59617, abs_tol=1e-4)

    def test_degenerate_endpoints(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_zero_trials(self):
        with pytest.raises(TrialsZero):
            wilson_interval(0, 0)

    @given(st.integers(0, 200), st.integers(1, 200))
    def test_interval_ordering(self, s, t):
        if s > t:
            return
        low, high = wilson_interval(s, t)
        assert 0.0 <= low <= high <= 1.0


class TestSamplers:
    def test_max_disjoint_structure(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = sample_max_disjoint_k_cycles(rng, 3, 10)
            lengths = sorted(len(c) for c in p.cycles())
            assert lengths == [3, 3, 3]

    def test_max_disjoint_order(self):
        rng = np.random.default_rng(3)
        for k, n in [(2, 4), (4, 9), (5, 11)]:
            for _ in range(20):
                assert order_of(sample_max_disjoint_k_cycles(rng, k, n)) == k

    def test_uniform_order_k(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = sample_uniform_order_k(rng, 4, 8)
            assert order_of(p) == 4

    def test_uniform_allows_mixed_cycle_types(self):
        # order 4 on 8 points can be a single 4-cycle, two 4-cycles,
        # 4+2, etc.; a large sample should show more than one shape
        rng = np.random.default_rng(0)
        shapes = {
            tuple(sorted(len(c) for c in sample_uniform_order_k(rng, 4, 8).cycles()))
            for _ in range(60)
        }
        assert len(shapes) > 1


class TestCountOrderK:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_enumeration(self, n):
        orders = [
            order_of(Permutation(images))
            for images in itertools.permutations(range(n))
        ]
        for k in range(1, 13):
            assert count_order_k(k, n) == orders.count(k), (k, n)

    def test_order_three_shares(self):
        # n!/count: feasible at n = 9, far beyond the rejection budget at 30
        assert math.factorial(9) / count_order_k(3, 9) == pytest.approx(62.9, abs=0.05)
        assert math.factorial(30) / count_order_k(3, 30) > 1e10 > MAX_REJECTS


class TestEstimateGeneration:
    def test_k2_n4_exact_zero(self):
        # oracle: every pair of double transpositions lies in the Klein
        # four-group, so the success probability is exactly 0
        doubles = [
            p
            for images in itertools.permutations(range(4))
            if order_of(p := Permutation(images)) == 2
            and sorted(len(c) for c in p.cycles()) == [2, 2]
        ]
        for p, q in itertools.product(doubles, repeat=2):
            target = "alternating" if is_even(p) and is_even(q) else "symmetric"
            assert classify([p, q]).kind != target
        res = estimate_generation(2, 4, 500, "max_disjoint_k_cycles", seed=1)
        assert res.successes == 0 and res.estimate == 0.0
        assert res.ci_low == 0.0 and res.ci_high < 1.0

    def test_seed_determinism(self):
        a = estimate_generation(3, 8, 50, "uniform_order_k", seed=42)
        b = estimate_generation(3, 8, 50, "uniform_order_k", seed=42)
        assert a == b

    def test_different_seeds_can_differ(self):
        results = {
            estimate_generation(3, 9, 40, "max_disjoint_k_cycles", seed=s).successes
            for s in range(5)
        }
        assert len(results) > 1

    def test_nontrivial_rate(self):
        # two random 3-cycle products on 9 points generate A_9 fairly often
        res = estimate_generation(3, 9, 100, "max_disjoint_k_cycles", seed=0)
        assert 0 < res.successes < 100
        assert res.ci_low <= res.estimate <= res.ci_high

    def test_trials_zero(self):
        with pytest.raises(TrialsZero):
            estimate_generation(3, 9, 0, "max_disjoint_k_cycles", seed=0)

    def test_invalid_sampler(self):
        with pytest.raises(InvalidSampler):
            estimate_generation(3, 9, 10, "bogus", seed=0)

    def test_invariants_enforced(self):
        with pytest.raises(InvalidParams):
            EstimatorResult(3, 9, "uniform_order_k", 10, 11, 1.1, 0.0, 1.0, 0)
        with pytest.raises(InvalidParams):
            EstimatorResult(3, 9, "uniform_order_k", 10, 5, 0.5, 0.6, 1.0, 0)

    @given(st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_determinism_property(self, k, seed):
        n = 2 * k + 1
        a = estimate_generation(k, n, 5, "max_disjoint_k_cycles", seed=seed)
        b = estimate_generation(k, n, 5, "max_disjoint_k_cycles", seed=seed)
        assert a == b
