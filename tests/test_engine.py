"""Group engine: order, membership, transitivity, primitivity, classification.

Oracle discipline: exact orders and membership on small instances come from
breadth-first closure over image tables, computed independently of the
stabilizer chain.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiongen import engine
from torsiongen.engine import (
    StabilizerChain,
    classify,
    is_primitive,
    jordan_certificate,
    orbit,
)
from torsiongen.errors import (
    CaseUndefined,
    DegreeMismatch,
    EmptyGeneratorList,
    PointOutOfRange,
)
from torsiongen.families import (
    conjecture_pair,
    prop61_generators,
    prop62_generators,
)
from torsiongen.perms import Permutation, is_even, parse_cycles


def bfs_closure(gens, cap=None):
    """All elements of the generated group as image tuples (independent
    oracle for order and membership)."""
    n = gens[0].degree
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    tables = [g.images for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for t in tables:
                q = tuple(t[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if cap is not None and len(seen) > cap:
                        raise AssertionError("closure exceeded cap")
        frontier = nxt
    return seen


def random_generator_sets(seed=0, count=60, max_degree=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_degree)
        k = rng.randint(1, 3)
        gens = [
            Permutation(tuple(rng.sample(range(n), n))) for _ in range(k)
        ]
        out.append(gens)
    return out


class TestOrderOracle:
    def test_cyclic_five(self):
        chain = StabilizerChain([parse_cycles("(0 1 2 3 4)", 5)])
        assert chain.order() == 5

    def test_identity_group(self):
        chain = StabilizerChain([Permutation.identity(4)])
        assert chain.order() == 1

    def test_sym3(self):
        gens = [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)]
        assert StabilizerChain(gens).order() == 6

    def test_prop61_order_k5_n18(self):
        gens, _ = prop61_generators(5, 18)
        assert StabilizerChain(list(gens)).order() == math.factorial(18) // 2

    def test_prop61_order_k4_n12(self):
        gens, _ = prop61_generators(4, 12)
        assert StabilizerChain(list(gens)).order() == math.factorial(12)

    @pytest.mark.parametrize("gens", random_generator_sets())
    def test_matches_bfs_closure(self, gens):
        assert StabilizerChain(gens).order() == len(bfs_closure(gens))

    def test_empty_generators(self):
        with pytest.raises(EmptyGeneratorList):
            StabilizerChain([])

    def test_mixed_degrees(self):
        with pytest.raises(DegreeMismatch):
            StabilizerChain([Permutation.identity(3), Permutation.identity(4)])


class TestMembership:
    @pytest.mark.parametrize("gens", random_generator_sets(seed=1, count=25, max_degree=6))
    def test_sift_matches_closure(self, gens):
        chain = StabilizerChain(gens)
        members = bfs_closure(gens, cap=5000)
        n = gens[0].degree
        # all members accepted
        for images in list(members)[:200]:
            assert chain.contains(Permutation(images))
        # non-members rejected
        rng = random.Random(7)
        for _ in range(50):
            images = tuple(rng.sample(range(n), n))
            assert chain.contains(Permutation(images)) == (images in members)

    def test_membership_degree_mismatch(self):
        chain = StabilizerChain([parse_cycles("(0 1)", 3)])
        with pytest.raises(DegreeMismatch):
            chain.contains(Permutation.identity(4))


class TestChainDeterminism:
    def test_base_points_distinct_and_anchored(self):
        gens, _ = prop61_generators(4, 12)
        chain = StabilizerChain(list(gens))
        assert len(set(chain.base)) == len(chain.base)
        # initial base point is the least point moved by any generator
        assert chain.base[0] == min(
            x for g in gens for x in range(g.degree) if g(x) != x
        )

    def test_identical_rebuild(self):
        gens, _ = prop61_generators(5, 18)
        c1 = StabilizerChain(list(gens))
        c2 = StabilizerChain(list(gens))
        assert c1.base == c2.base
        assert [len(l.orbit) for l in c1.levels] == [
            len(l.orbit) for l in c2.levels
        ]


class TestClassify:
    def test_prop61_k5_n18_alternating(self):
        gens, _ = prop61_generators(5, 18)
        assert classify(list(gens)).kind == "alternating"

    def test_prop61_k4_n13_symmetric(self):
        gens, _ = prop61_generators(4, 13)
        assert classify(list(gens)).kind == "symmetric"

    def test_four_cycle_other(self):
        c = classify([parse_cycles("(0 1 2 3)", 4)])
        assert c.kind == "other"
        assert c.order == 4

    @pytest.mark.parametrize("k", range(3, 11))
    def test_prop61_grid_small(self, k):
        for n in range(2 * k, 41):
            gens, _ = prop61_generators(k, n)
            want = "symmetric" if k % 2 == 0 else "alternating"
            assert classify(list(gens)).kind == want, (k, n)

    @pytest.mark.parametrize("gens", random_generator_sets(seed=2, count=40))
    def test_order_agrees_with_closure(self, gens):
        assert classify(gens).order == len(bfs_closure(gens))

    def test_alternating_requires_even_generators(self):
        # classify = alternating implies every generator is even
        from torsiongen.perms import is_even

        gens, _ = prop61_generators(7, 21)
        assert classify(list(gens)).kind == "alternating"
        assert all(is_even(g) for g in gens)


def _acceptance_cells(family, k):
    """Generator lists of the acceptance-grid cells of one family and k."""
    if family == "conjecture":
        cells = []
        for n in range(k, 61):
            try:
                gens, _ = conjecture_pair(k, n)
            except CaseUndefined:
                continue
            cells.append(list(gens))
        return cells
    if family == "prop61":
        return [list(prop61_generators(k, n)[0]) for n in range(2 * k, 61)]
    return [list(prop62_generators(k, n)[0]) for n in range(k + 2, 61)]


def _projective_line(p, with_diagonal):
    """PSL(2,p), or PGL(2,p) with the diagonal map, on the p+1 points of
    the projective line (point p is infinity)."""
    inf = p
    translate = [(x + 1) % p for x in range(p)] + [inf]
    invert = [inf] + [(-pow(x, -1, p)) % p for x in range(1, p)] + [0]
    gens = [Permutation(tuple(translate)), Permutation(tuple(invert))]
    if with_diagonal:
        r = _primitive_root(p)
        gens.append(Permutation(tuple([(r * x) % p for x in range(p)] + [inf])))
    return gens


def _primitive_root(p):
    return next(
        r for r in range(2, p) if len({pow(r, e, p) for e in range(1, p)}) == p - 1
    )


def _affine_line(p):
    r = _primitive_root(p)
    return [
        Permutation(tuple((x + 1) % p for x in range(p))),
        Permutation(tuple((r * x) % p for x in range(p))),
    ]


def _wreath_with_s2(m):
    """S_m wr S_2 on 2m points: S_m on the first block plus the block swap."""
    n = 2 * m
    return [
        parse_cycles("(0 1)", n),
        parse_cycles("(" + " ".join(map(str, range(m))) + ")", n),
        parse_cycles("".join(f"({i} {i + m})" for i in range(m)), n),
    ]


# (name, generators, exact order or None to take it from bfs_closure)
NON_GIANTS = [
    *[(f"PSL(2,{p})", _projective_line(p, False), None) for p in (7, 11, 13)],
    *[(f"PGL(2,{p})", _projective_line(p, True), None) for p in (7, 11, 13)],
    *[(f"AGL(1,{p})", _affine_line(p), None) for p in (7, 11, 13)],
    ("S4 wr S2", _wreath_with_s2(4), None),
    ("S6 wr S2", _wreath_with_s2(6), 2 * math.factorial(6) ** 2),
    (
        "S5 x S5",
        [
            parse_cycles("(0 1)", 10),
            parse_cycles("(0 1 2 3 4)", 10),
            parse_cycles("(5 6)", 10),
            parse_cycles("(5 6 7 8 9)", 10),
        ],
        None,
    ),
]


class TestGiantCertificate:
    """The certificate-first classify against the chain-only path."""

    @pytest.mark.parametrize(
        "family,k",
        [("conjecture", k) for k in range(3, 11)]
        + [("prop61", k) for k in range(3, 13)]
        + [("prop62", k) for k in range(4, 13, 2)],
    )
    def test_matches_chain_only(self, family, k, monkeypatch):
        cells = _acceptance_cells(family, k)
        fast = [classify(gens) for gens in cells]
        fired = sum(
            1 for gens in cells
            if gens[0].degree >= 8 and engine._giant_certificate(gens)
        )
        monkeypatch.setattr(engine, "_giant_certificate", lambda gens: False)
        assert [classify(gens) for gens in cells] == fast
        # the comparison exercises the certificate, not only the fallback;
        # the one allowed miss is the non-giant conjecture cell (3, 8)
        assert fired >= len([g for g in cells if g[0].degree >= 8]) - 1

    @pytest.mark.parametrize(
        "name,gens,order", NON_GIANTS, ids=[c[0] for c in NON_GIANTS]
    )
    def test_never_fires_on_non_giant(self, name, gens, order):
        assert not engine._giant_certificate(gens)
        c = classify(gens)
        chain_order = StabilizerChain(gens).order()
        if order is None:
            order = len(bfs_closure(gens))
        assert c == engine.Classification("other", chain_order)
        assert chain_order == order

    @pytest.mark.parametrize("k,n", [(10, 140), (10, 160), (10, 180), (10, 200), (20, 200)])
    def test_cliff_cells_certified(self, k, n):
        gens, _ = conjecture_pair(k, n)
        assert engine._giant_certificate(list(gens))
        want = "alternating" if all(is_even(g) for g in gens) else "symmetric"
        assert classify(list(gens)).kind == want

    @pytest.mark.parametrize("k,n", [(5, 40), (3, 6), (3, 8)])
    def test_global_random_state_untouched(self, k, n):
        # (5, 40) is certified; (3, 6) and (3, 8) fall back to the chain
        gens, _ = conjecture_pair(k, n)
        random.seed(1234)
        before = random.getstate()
        classify(list(gens))
        assert random.getstate() == before

    def test_deterministic(self):
        gens, _ = conjecture_pair(7, 128)
        results = {engine._giant_certificate(list(gens)) for _ in range(3)}
        assert len(results) == 1


class TestOrbits:
    def test_prop61_transitive(self):
        (a, b, _c), _ = prop61_generators(5, 18)
        assert orbit([a, b], 0) == set(range(18))

    def test_identity_orbit(self):
        assert orbit([Permutation.identity(5)], 3) == {3}

    def test_fixed_point(self):
        assert orbit([parse_cycles("(0 1)", 3)], 2) == {2}

    def test_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            orbit([Permutation.identity(3)], 5)


def two_transitive(gens):
    """Brute-force oracle: the orbit of (0, 1) under the action on ordered
    pairs of distinct points is all of them."""
    n = gens[0].degree
    seen = {(0, 1)}
    frontier = [(0, 1)]
    while frontier:
        x, y = frontier.pop()
        for g in gens:
            pair = (g(x), g(y))
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return len(seen) == n * (n - 1)


class TestTransitivityPrimitivity:
    def test_four_cycle_imprimitive(self):
        assert not is_primitive([parse_cycles("(0 1 2 3)", 4)])

    def test_prop61_primitive(self):
        gens, _ = prop61_generators(5, 18)
        assert is_primitive(list(gens))

    def test_prime_cycle_primitive(self):
        assert is_primitive([parse_cycles("(0 1 2)", 3)])

    def test_intransitive_not_primitive(self):
        assert not is_primitive([parse_cycles("(0 1)", 4)])

    @pytest.mark.parametrize("gens", random_generator_sets(seed=3, count=40))
    def test_two_transitive_implies_primitive(self, gens):
        if gens[0].degree < 2:
            return
        if two_transitive(gens):
            assert is_primitive(gens)

    def test_imprimitive_blocks_oracle(self):
        # brute-force over partitions of 6 points confirms the verdict for
        # the transitive wreath-like group <(0 1 2)(3 4 5), (0 3)(1 4)(2 5)>
        gens = [
            parse_cycles("(0 1 2)(3 4 5)", 6),
            parse_cycles("(0 3)(1 4)(2 5)", 6),
        ]
        assert not is_primitive(gens)


class TestJordanCertificate:
    def test_k3_witness_is_c(self):
        gens, _ = prop61_generators(3, 9)
        w = jordan_certificate(list(gens))
        assert w is not None
        assert w.word == "c"
        assert w.prime == 3

    def test_k7_witness_is_commutator(self):
        gens, _ = prop61_generators(7, 21)
        w = jordan_certificate(list(gens))
        assert w is not None
        assert w.word == "[a,c]"
        assert w.cycle.cycles == ((0, 1, 5),)

    def test_identity_has_no_witness(self):
        assert jordan_certificate([Permutation.identity(8)]) is None

    @pytest.mark.parametrize("k", range(4, 13))
    def test_commutator_witness_shape(self, k):
        n = 3 * k
        gens, _ = prop61_generators(k, n)
        w = jordan_certificate(list(gens))
        assert w is not None
        assert w.cycle.cycles == ((0, 1, k - 2),)

    def test_witness_cycle_is_prime_and_small(self):
        gens, _ = prop61_generators(5, 20)
        w = jordan_certificate(list(gens))
        assert w is not None
        assert w.prime <= 20 - 3
