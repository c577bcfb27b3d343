"""Formal replay of the twist-word derivation.

Oracles: the final displayed word shape and a numeric check that the
word's exponent structure is balanced.
"""

import pytest

from torsiongen.curves import (
    GeneratorAction,
    X1,
    X2,
    build_action_four,
    build_action_three,
    gamma,
)
from torsiongen.errors import HypothesisFailure, RewriteStepInvalid
from torsiongen.genus import decompose
from torsiongen.lantern import ALL_RULES, TwistWord, verify_lantern_word


def four_gen():
    return build_action_four(5, decompose(5, 18))


class TestWordShapes:
    def test_four_gen_shape(self):
        w = verify_lantern_word(four_gen())
        text = str(w)
        # three conjugated copies of f' = T[gamma:2] f T[gamma:2]^-1,
        # preceded by f^-1, conjugated by the g and h role words
        assert text.count("T[gamma:2]") == 6
        assert text.startswith("f^-1 T[gamma:2] f T[gamma:2]^-1")
        assert "g^-1" in text and "h" in text

    def test_three_gen_uses_derived_h(self):
        w = verify_lantern_word(build_action_three(8, decompose(8, 21)))
        text = str(w)
        assert "h" not in text  # h only as the word f^-2 g^3
        assert "g^3" in text

    def test_k6_uses_g_powers(self):
        w = verify_lantern_word(build_action_three(6, decompose(6, 17)))
        text = str(w)
        assert "h" not in text and "f^-2" not in text
        assert "g^4" in text and "g^-2" in text

    def test_only_twists_along_gamma2(self):
        for acts in (four_gen(), build_action_three(8, decompose(8, 21))):
            w = verify_lantern_word(acts)
            twists = {name for kind, name, _ in w.tokens if kind == "T"}
            assert twists == {"gamma:2"}

    def test_deterministic(self):
        assert verify_lantern_word(four_gen()) == verify_lantern_word(four_gen())


class TestEvaluation:
    def test_exponent_sums_balance_per_symbol(self):
        # abelianization: every generator symbol cancels; only the twist
        # symbols survive (net one positive twist per factor pair)
        for acts in (four_gen(), build_action_three(6, decompose(6, 17))):
            w = verify_lantern_word(acts)
            sums = {}
            for kind, name, exp in w.tokens:
                sums[(kind, name)] = sums.get((kind, name), 0) + exp
            for (kind, name), total in sums.items():
                if kind == "M":
                    assert total == 0, (name, total)
                else:
                    assert total == 0, (name, total)


class TestRuleSet:
    @pytest.mark.parametrize("rule", sorted(ALL_RULES))
    def test_every_rule_is_required(self, rule):
        with pytest.raises(RewriteStepInvalid):
            verify_lantern_word(four_gen(), disabled_rules={rule})

    @pytest.mark.parametrize("rule", sorted(ALL_RULES))
    def test_rules_required_for_derived_h_route(self, rule):
        acts = build_action_three(8, decompose(8, 21))
        with pytest.raises(RewriteStepInvalid):
            verify_lantern_word(acts, disabled_rules={rule})

    def test_full_rule_set_succeeds(self):
        assert isinstance(verify_lantern_word(four_gen()), TwistWord)


class TestHypothesisGate:
    def test_failing_hypotheses_raise(self):
        f, g, h = four_gen()
        f_bad = GeneratorAction.of("f", 5, {**f.as_dict(), gamma(1): X1})
        with pytest.raises(HypothesisFailure):
            verify_lantern_word([f_bad, g, h])

    def test_redirected_g_raises(self):
        f, g, h = four_gen()
        g_bad = GeneratorAction.of("g", 5, {**g.as_dict(), X1: X2})
        with pytest.raises(HypothesisFailure):
            verify_lantern_word([f, g_bad, h])
