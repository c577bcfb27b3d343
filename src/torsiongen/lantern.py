"""Scripted derivation of the Dehn twist T_{alpha_1} as a word in the
construction's generators, replayed under exactly three permitted rewrite
rules:

1. "lantern"   — the lantern relation on the seven curves
                 T_{a1} T_{a2} T_{x1} T_{g2} = T_{g1} T_{x3} T_{x2},
                 used once to solve for T_{a1};
2. "commute"   — Dehn twists along disjoint curves commute (in the lantern,
                 only the three interior curves g1, x3, x2 pairwise
                 intersect);
3. "conjugate" — w T_c w^-1 = T_{w(c)} for a mapping class w, applied via
                 the recorded partial-action facts.

Free cancellation of w w^-1 is structural bookkeeping, not a rule.  Each
step validates against the instance's action tables, so the replay only
succeeds when the lemma hypotheses actually hold for the given actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import X1, X2, X3, GeneratorAction, alpha, gamma
from .errors import HypothesisFailure, RewriteStepInvalid
from .curves import _role_maps, verify_lantern_hypotheses

# token kinds: ("T", curve-label-string, exponent) for Dehn twists,
# ("M", generator-name, exponent) for mapping classes f, g, h
Token = tuple[str, str, int]

_INTERIOR = {gamma(1), X3, X2}

ALL_RULES = frozenset({"lantern", "commute", "conjugate"})


@dataclass(frozen=True)
class TwistWord:
    tokens: tuple[Token, ...]

    def __str__(self) -> str:
        parts = []
        for kind, name, exp in self.tokens:
            sym = f"T[{name}]" if kind == "T" else name
            parts.append(sym if exp == 1 else f"{sym}^{exp}")
        return " ".join(parts) or "1"


def _t(label: str, exp=1) -> Token:
    return ("T", label, exp)


def _m(name, exp=1) -> Token:
    return ("M", name, exp)


def _inv(word: list[Token]) -> list[Token]:
    return [(k, n, -e) for k, n, e in reversed(word)]


def _free_reduce(tokens: list[Token]) -> list[Token]:
    out: list[Token] = []
    for tok in tokens:
        if out and out[-1][:2] == tok[:2]:
            merged = out[-1][2] + tok[2]
            out.pop()
            if merged:
                out.append((tok[0], tok[1], merged))
        else:
            out.append(tok)
    return out


def _need(rule: str, enabled: frozenset, step: str):
    if rule not in enabled:
        raise RewriteStepInvalid(
            f"step {step!r} needs the {rule!r} rule, which is disabled"
        )


def _commutation_equivalent(src: list[Token], dst: list[Token]) -> bool:
    """True iff dst is reachable from src by swapping adjacent twists along
    disjoint curves: same tokens, and every non-commuting pair (two distinct
    interior curves) keeps its relative order."""
    if sorted(src) != sorted(dst):
        return False
    src_interior = [t for t in src if t[1] in _INTERIOR]
    dst_interior = [t for t in dst if t[1] in _INTERIOR]
    return src_interior == dst_interior


def _role_words(actions: list[GeneratorAction]):
    """Words (token lists) realizing the lemma's g and h roles, plus the
    partial maps giving their recorded curve facts."""
    g_role, h_role, variant = _role_maps(actions)
    if variant == "four":
        g_word, h_word = [_m("g")], [_m("h")]
        if h_role.get(gamma(1)) == X2:
            # the recorded h maps (gamma1, gamma2) to (x2, alpha2), so the
            # element playing the lemma's h role is h^-1
            h_word = [_m("h", -1)]
            h_role = {t: s for s, t in h_role.items()}
    elif variant == "three":
        g_word, h_word = [_m("g")], [_m("f", -2), _m("g", 3)]
    else:  # three-k6
        g_word, h_word = [_m("g", 2)], [_m("g", 4)]
    return g_word, h_word, g_role, h_role


def verify_lantern_word(
    actions: list[GeneratorAction],
    disabled_rules: frozenset | set = frozenset(),
) -> TwistWord:
    """Replay the derivation and return the final word

        f^-1 f' (g^-1 f^-1 f' g) (h^-1 f^-1 f' h),   f' = T[gamma:2] f T[gamma:2]^-1

    expressed in raw tokens (f' expanded).  Raises HypothesisFailure when
    the action tables do not satisfy the lemma hypotheses, and
    RewriteStepInvalid when a required rewrite rule is disabled."""
    enabled = ALL_RULES - frozenset(disabled_rules)
    if not verify_lantern_hypotheses(actions):
        raise HypothesisFailure("action tables do not satisfy the lemma")
    g_word, h_word, g_role, h_role = _role_words(actions)
    g1, g2, a2 = gamma(1), gamma(2), alpha(2)

    # Step 1 (lantern): solve the relation for T[alpha:1]:
    #   T[a1] = T[g1] T[x3] T[x2] T[g2]^-1 T[x1]^-1 T[a2]^-1
    _need("lantern", enabled, "solve lantern relation")
    word = [_t(g1), _t(X3), _t(X2), _t(g2, -1), _t(X1, -1), _t(a2, -1)]

    # Step 2 (commute): regroup into (T[g1] T[g2]^-1)(T[x3] T[x1]^-1)
    # (T[x2] T[a2]^-1); only g1, x3, x2 pairwise intersect, every swap used
    # moves a boundary twist past another twist.
    target = [_t(g1), _t(g2, -1), _t(X3), _t(X1, -1), _t(X2), _t(a2, -1)]
    if word != target:
        _need("commute", enabled, "regroup into difference pairs")
        if not _commutation_equivalent(word, target):
            raise RewriteStepInvalid("regrouping is not a disjoint-commutation")
        word = target

    # Step 3 (conjugate): T[x3] = G^-1 T[g(x3)] G and T[x1]^-1 =
    # G^-1 T[g(x1)]^-1 G with the recorded facts g(x3)=g1, g(x1)=g2;
    # likewise the h-role facts turn (T[x2] T[a2]^-1) into
    # H^-1 (T[g1] T[g2]^-1) H.
    _need("conjugate", enabled, "conjugate lantern curves to gamma curves")

    def conj(w_word, facts, pairs):
        out = []
        for label, exp in pairs:
            image = facts.get(label)
            if image is None:
                raise HypothesisFailure(f"no recorded image for {label}")
            out += _inv(w_word) + [_t(image, exp)] + list(w_word)
        return _free_reduce(out)

    if g_role.get(X3) != g1 or g_role.get(X1) != g2:
        raise HypothesisFailure("g-role facts missing")
    if h_role.get(X2) != g1 or h_role.get(a2) != g2:
        raise HypothesisFailure("h-role facts missing")

    middle = conj(g_word, g_role, [(X3, 1), (X1, -1)])
    last = conj(h_word, h_role, [(X2, 1), (a2, -1)])
    word = _free_reduce([_t(g1), _t(g2, -1)] + middle + last)

    # Step 4 (conjugate): T[g1] = f^-1 T[f(g1)] f = f^-1 T[g2] f wherever
    # T[g1] appears, using the recorded fact f(g1) = g2.
    f_map = {a.name: a for a in actions}["f"].as_dict()
    if f_map.get(g1) != g2:
        raise HypothesisFailure("f(gamma:1) = gamma:2 fact missing")
    rewritten: list[Token] = []
    for tok in word:
        if tok[0] == "T" and tok[1] == g1:
            rewritten += [_m("f", -1), _t(g2, tok[2]), _m("f")]
        else:
            rewritten.append(tok)
    word = _free_reduce(rewritten)

    # Final shape check: three factors f^-1 f' W-conjugated, f' expanded as
    # T[g2] f T[g2]^-1.
    fprime = [_m("f", -1), _t(g2), _m("f"), _t(g2, -1)]
    expected = _free_reduce(
        fprime
        + _inv(g_word) + fprime + list(g_word)
        + _inv(h_word) + fprime + list(h_word)
    )
    if word != expected:
        raise RewriteStepInvalid("final word does not match the derived shape")
    return TwistWord(tuple(word))
