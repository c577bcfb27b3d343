"""Curve action tables and single-orbit certification.

Oracles: the shipped worked-instance data files (double-entry bookkeeping
against the programmatic generator), label-count arithmetic, and explicit
hand-checked edges on the two worked instances.
"""

import json

import pytest
from helpers import DATA, actions_of, load_shipped
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiongen.curves import (
    ALPHA_L,
    X1,
    X2,
    X3,
    GeneratorAction,
    actions_to_json,
    alpha,
    beta,
    build_action_four,
    build_action_three,
    certified_labels,
    certify_single_orbit,
    chain_layout,
    gamma,
    humphries_label_set,
    verify_lantern_hypotheses,
    xgamma,
)
from torsiongen.errors import (
    InvalidDecomposition,
    MissingLanternData,
    PlusOneUnsupported,
    RangeError,
    UnsupportedK,
)
from torsiongen.genus import GenusDecomposition, decompose


def admissible_decs(k, g_max=120):
    for g in range(2, g_max + 1):
        dec = decompose(k, g)
        if dec is not None:
            yield dec


class TestCurveLabel:
    def test_serialized_forms(self):
        assert beta(12) == "beta:12"
        assert xgamma(5) == "xgamma:5"
        assert X3 == "lantern:x3"


class TestLabelSets:
    def test_humphries_count_is_2g_plus_1(self):
        for g in (5, 18, 21, 40):
            assert len(humphries_label_set(g, {5, 10})) == 2 * g + 1

    def test_g18_set_has_37_humphries_labels(self):
        dec = decompose(5, 18)
        labels = certified_labels(dec, False)
        humphries = {lb for lb in labels if not lb.startswith("lantern:")}
        assert len(humphries) == 37

    def test_excluded_positions_g18(self):
        # chains of 5, 5, 4, 4 handles; separators after each chain
        layout = chain_layout(5, decompose(5, 18))
        assert layout.excluded() == [5, 10, 14]

    def test_excluded_positions_g21_k8(self):
        layout = chain_layout(8, decompose(8, 21))
        assert layout.beta_counts == (7, 7, 7)
        assert layout.excluded() == [7, 14]


class TestGeneratorAction:
    def test_rejects_non_injective(self):
        with pytest.raises(InvalidDecomposition):
            GeneratorAction.of("f", 5, {beta(1): beta(3), beta(2): beta(3)})

    def test_rejects_cycle_not_dividing_order(self):
        with pytest.raises(InvalidDecomposition):
            GeneratorAction.of(
                "f", 5, {beta(1): beta(2), beta(2): beta(3), beta(3): beta(1)}
            )

    def test_accepts_dividing_cycle(self):
        act = GeneratorAction.of(
            "f", 4, {beta(1): beta(2), beta(2): beta(1)}
        )
        assert act.cycle_lengths() == [2]

    def test_chains_are_not_cycles(self):
        act = GeneratorAction.of("g", 5, {beta(1): beta(2), beta(2): beta(3)})
        assert act.cycle_lengths() == []


class TestBuildActionFour:
    def test_range(self):
        with pytest.raises(RangeError):
            build_action_four(4, GenusDecomposition(4, 1, 1))

    def test_k_mismatch(self):
        with pytest.raises(InvalidDecomposition):
            build_action_four(5, GenusDecomposition(6, 1, 1))

    def test_k_mismatch_with_a_decomposed_genus(self):
        # chain_layout's k == dec.k guard: a genus-18 split for k = 5 must
        # not be laid out as k = 6 chains
        with pytest.raises(InvalidDecomposition):
            build_action_four(6, decompose(5, 18))

    def test_f_cycles_F1_betas_g18(self):
        f, g, h = build_action_four(5, decompose(5, 18))
        fm = f.as_dict()
        cur, seen = beta(1), []
        for _ in range(5):
            seen.append(cur)
            cur = fm[cur]
        assert cur == beta(1) and len(set(seen)) == 5

    def test_g_hits_excluded_gamma_g18(self):
        _, g, _ = build_action_four(5, decompose(5, 18))
        gm = g.as_dict()
        # second-to-last beta of F1 -> excluded gamma between F1 and F2
        assert gm[beta(4)] == xgamma(5)
        assert gm[xgamma(5)] == beta(7)

    def test_lantern_edges(self):
        _, g, h = build_action_four(5, decompose(5, 18))
        assert g.as_dict()[X3] == gamma(1)
        assert g.as_dict()[X1] == gamma(2)
        assert g.as_dict()[gamma(2)] == alpha(2)
        hm = h.as_dict()
        assert hm[gamma(1)] == X2
        # h^2(gamma2) = beta4
        assert hm[hm[gamma(2)]] == beta(4)

    def test_leading_tube_piece_alpha_edge(self):
        dec = decompose(8, 21)  # a=0: first piece has genus k-1
        f, _, _ = build_action_four(8, dec)
        assert f.as_dict()[alpha(1)] == gamma(1)

    def test_plus_one_extensions(self):
        dec = decompose(5, 16)
        assert dec.plus_one
        f, g, h = build_action_four(5, dec)
        assert g.as_dict()[gamma(2)] == beta(16)
        assert h.as_dict()[beta(4)] == gamma(15)
        # beta_16 and gamma_15 sit outside every chain
        layout = chain_layout(5, dec)
        assert 16 not in {b for i in range(3) for b in layout.betas(i)}

    def test_orders_are_k(self):
        for act in build_action_four(7, decompose(7, 27)):
            assert act.order == 7


class TestBuildActionThree:
    def test_unsupported_k5(self):
        with pytest.raises(UnsupportedK):
            build_action_three(5, decompose(5, 18))

    def test_k7_needs_leading_piece(self):
        dec = decompose(7, 18)  # 18 = 3*6: a=0, b=3
        assert dec.a == 0
        with pytest.raises(UnsupportedK):
            build_action_three(7, dec)
        lead = decompose(7, 25, require_leading_k=True)
        assert lead.a >= 1
        acts = build_action_three(7, lead)
        assert {a.name for a in acts} == {"f", "g", "g^3"}

    def test_plus_one_unsupported(self):
        with pytest.raises(PlusOneUnsupported):
            build_action_three(6, GenusDecomposition(6, 2, 0, plus_one=True))

    def test_alpha_l_edges_g21(self):
        f, g, g3 = build_action_three(8, decompose(8, 21))
        assert f.as_dict()[ALPHA_L] == alpha(1)
        gm = g.as_dict()
        # G2 = (alpha_l, excluded gamma, first gamma of F2, third beta of F2)
        assert gm[ALPHA_L] == xgamma(7)
        assert gm[xgamma(7)] == gamma(8)
        # third beta of F2 (betas 8..14)
        assert gm[gamma(8)] == beta(10)

    def test_gi_sets_have_four_elements_g21(self):
        _, g, _ = build_action_three(8, decompose(8, 21))
        gm = g.as_dict()
        # G3 = (last gamma of F2, excluded gamma, first gamma of F3, third beta)
        assert gm[gamma(13)] == xgamma(14)
        assert gm[xgamma(14)] == gamma(15)
        # third beta of F3 (betas 15..21)
        assert gm[gamma(15)] == beta(17)

    def test_power_facts_g21(self):
        _, g, g3 = build_action_three(8, decompose(8, 21))
        assert g.as_dict()[gamma(4)] == beta(6)
        assert g3.as_dict() == {X2: gamma(3), alpha(2): gamma(4)}

    def test_k6_power_table(self):
        acts = build_action_three(6, decompose(6, 17))
        by = {a.name: a for a in acts}
        assert set(by) == {"f", "g", "g^2"}
        g2 = by["g^2"].as_dict()
        assert g2[X3] == gamma(1) and g2[X1] == gamma(2)
        assert g2[gamma(1)] == X2 and g2[gamma(2)] == alpha(2)
        # g^4 facts compose from g^2
        assert g2[g2[X2]] == gamma(1)
        assert g2[g2[alpha(2)]] == gamma(2)
        assert by["g"].as_dict()[X1] == beta(4)


class TestCertifySingleOrbit:
    def test_worked_four_g18(self):
        dec = decompose(5, 18)
        acts = build_action_four(5, dec)
        assert certify_single_orbit(acts, certified_labels(dec, False)) == 1

    def test_worked_three_g21(self):
        dec = decompose(8, 21)
        acts = build_action_three(8, dec)
        assert certify_single_orbit(acts, certified_labels(dec, True)) == 1

    @pytest.mark.parametrize("k", range(5, 13))
    def test_four_gen_sweep(self, k):
        for dec in admissible_decs(k):
            acts = build_action_four(k, dec)
            components = certify_single_orbit(acts, certified_labels(dec, False))
            assert components == 1, (k, dec, components)
            assert verify_lantern_hypotheses(acts), (k, dec)

    @pytest.mark.parametrize("k", [6, 7, 8, 9, 10, 11, 12])
    def test_three_gen_sweep(self, k):
        tested = 0
        for g in range(2, 121):
            dec = (
                decompose(k, g, require_leading_k=True)
                if k == 7
                else decompose(k, g)
            )
            if dec is None or dec.plus_one:
                continue
            if k == 7 and dec.a < 1:
                continue
            acts = build_action_three(k, dec)
            components = certify_single_orbit(acts, certified_labels(dec, True))
            assert components == 1, (k, dec, components)
            assert verify_lantern_hypotheses(acts), (k, dec)
            tested += 1
        assert tested > 0

    def test_deleting_h_edges_disconnects(self):
        dec = decompose(5, 18)
        f, g, h = build_action_four(5, dec)
        empty_h = GeneratorAction.of("h", 5, {})
        labels = certified_labels(dec, False)
        assert certify_single_orbit([f, g, empty_h], labels) >= 2

    def test_deleting_f_alpha_edge_disconnects(self):
        dec = decompose(5, 18)
        f, g, h = build_action_four(5, dec)
        f2 = GeneratorAction.of(
            "f", 5, {s: t for s, t in f.map if s != alpha(1)}
        )
        assert certify_single_orbit([f2, g, h], certified_labels(dec, False)) != 1

    def test_deleting_g_chain_edges_disconnects(self):
        dec = decompose(5, 18)
        f, g, h = build_action_four(5, dec)
        keep = (X1, X3, gamma(2))
        g2 = GeneratorAction.of("g", 5, {s: t for s, t in g.map if s in keep})
        assert certify_single_orbit([f, g2, h], certified_labels(dec, False)) != 1

    def test_deleting_derived_h_edges_disconnects_three_gen(self):
        dec = decompose(8, 21)
        f, g, g3 = build_action_three(8, dec)
        empty = GeneratorAction.of("g^3", 8, {})
        labels = certified_labels(dec, True)
        assert certify_single_orbit([f, g, empty], labels) >= 2


class TestVerifyLanternHypotheses:
    def test_four_gen_true(self):
        assert verify_lantern_hypotheses(build_action_four(5, decompose(5, 18)))

    def test_three_gen_true_derived_h(self):
        assert verify_lantern_hypotheses(build_action_three(8, decompose(8, 21)))

    def test_k6_true(self):
        assert verify_lantern_hypotheses(build_action_three(6, decompose(6, 17)))

    def test_redirected_f_fails(self):
        f, g, h = build_action_four(5, decompose(5, 18))
        f2 = GeneratorAction.of("f", 5, {**f.as_dict(), gamma(1): X1})
        assert not verify_lantern_hypotheses([f2, g, h])

    def test_redirected_g_fails(self):
        f, g, h = build_action_four(5, decompose(5, 18))
        g2 = GeneratorAction.of("g", 5, {**g.as_dict(), X3: X2})
        assert not verify_lantern_hypotheses([f, g2, h])

    def test_missing_lantern_data(self):
        f = GeneratorAction.of("f", 5, {beta(1): beta(2), beta(2): beta(3)})
        g = GeneratorAction.of("g", 5, {})
        h = GeneratorAction.of("h", 5, {})
        with pytest.raises(MissingLanternData):
            verify_lantern_hypotheses([f, g, h])


class TestShippedTables:
    @pytest.mark.parametrize(
        "name,builder,k,g",
        [
            ("action_k5_g18_four.json", build_action_four, 5, 18),
            ("action_k8_g21_three.json", build_action_three, 8, 21),
        ],
    )
    def test_generator_output_matches_shipped_file(self, name, builder, k, g):
        data = load_shipped(name)
        dec = decompose(k, g)
        assert actions_to_json(k, dec, builder(k, dec)) == data

    def test_shipped_files_parse_and_certify(self):
        acts = actions_of(load_shipped("action_k5_g18_four.json"))
        assert certify_single_orbit(acts, certified_labels(decompose(5, 18), False)) == 1

    def test_files_are_sorted_stable_json(self):
        for name in ("action_k5_g18_four.json", "action_k8_g21_three.json"):
            raw = (DATA / name).read_text()
            data = json.loads(raw)
            assert json.dumps(data, indent=2, sort_keys=True) + "\n" == raw

    @pytest.mark.parametrize("order", [0, -5])
    def test_nonpositive_order_rejected(self, order):
        data = load_shipped("action_k5_g18_four.json")
        data["generators"][0]["order"] = order
        with pytest.raises(InvalidDecomposition):
            actions_of(data)


class TestProperties:
    @given(
        st.integers(5, 12),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_injectivity(self, k, a, b):
        if a + b == 0:
            return
        dec = GenusDecomposition(k, a, b)
        acts = build_action_four(k, dec)
        assert actions_of(actions_to_json(k, dec, acts)) == acts
        for act in acts:
            targets = [t for _, t in act.map]
            assert len(set(targets)) == len(targets)

    @given(st.integers(5, 12), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_plus_one_certifies(self, k, a):
        dec = GenusDecomposition(k, a, 0, plus_one=True)
        acts = build_action_four(k, dec)
        assert certify_single_orbit(acts, certified_labels(dec, False)) == 1
        assert verify_lantern_hypotheses(acts)
