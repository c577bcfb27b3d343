"""Partial curve actions and orbit certification for the twist-generator
constructions.

Labels are `kind:index` strings for the 2g+1 Humphries curves (a
beta/gamma chain plus two alpha curves), the gamma curves excluded to split
the chain into sub-chains F_i, the three extra lantern curves x1, x2, x3,
and (for the three-generator construction) the auxiliary alpha_l curve.
Generator actions are partial injective maps recording only the curve
images forced by the construction; images landing on unlabeled curves are
simply absent from the map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidDecomposition,
    MissingLanternData,
    PlusOneUnsupported,
    RangeError,
    UnsupportedK,
)
from .genus import GenusDecomposition


def beta(i: int) -> str:
    return f"beta:{i}"


def gamma(i: int) -> str:
    return f"gamma:{i}"


def xgamma(i: int) -> str:
    return f"xgamma:{i}"


def alpha(i: int) -> str:
    return f"alpha:{i}"


ALPHA_L = "alpha:l"
X1 = "lantern:x1"
X2 = "lantern:x2"
X3 = "lantern:x3"
# The lantern curves gamma1, gamma2, alpha1, alpha2 alias their Humphries
# identities; only x1, x2, x3 are extra labels.


@dataclass(frozen=True)
class GeneratorAction:
    """A named partial injective curve map; name may be a power word like
    "g^3" recording facts about that power."""

    name: str
    order: int
    map: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.order < 1:
            raise InvalidDecomposition(f"{self.name}: order {self.order} < 1")
        sources = [s for s, _ in self.map]
        targets = [t for _, t in self.map]
        if len(set(sources)) != len(sources):
            raise InvalidDecomposition(f"{self.name}: map is not a function")
        if len(set(targets)) != len(targets):
            raise InvalidDecomposition(f"{self.name}: map is not injective")
        for length in self.cycle_lengths():
            if self.order % length != 0:
                raise InvalidDecomposition(
                    f"{self.name}: labeled {length}-cycle does not divide "
                    f"order {self.order}"
                )

    @classmethod
    def of(cls, name, order, mapping: dict) -> "GeneratorAction":
        return cls(name, order, tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.map)

    def cycle_lengths(self) -> list[int]:
        m = self.as_dict()
        seen = set()
        out = []
        for start in m:
            if start in seen:
                continue
            # walk forward; a cycle exists only if we return to start
            path = [start]
            seen.add(start)
            cur = m[start]
            while cur in m and cur != start:
                if cur in seen:
                    break
                seen.add(cur)
                path.append(cur)
                cur = m[cur]
            if cur == start:
                out.append(len(path))
        return out


def humphries_label_set(g: int, excluded: set[int]) -> set[str]:
    """The 2g+1 Humphries labels: beta 1..g, gamma 1..g-1 (excluded ones
    carry the xgamma kind), alpha 1 and 2."""
    out = {beta(i) for i in range(1, g + 1)}
    out |= {
        xgamma(j) if j in excluded else gamma(j) for j in range(1, g)
    }
    out |= {alpha(1), alpha(2)}
    return out


@dataclass(frozen=True)
class ChainLayout:
    """The F_i sub-chains: per chain, global beta and gamma index ranges,
    plus the excluded gamma indices separating consecutive chains."""

    beta_counts: tuple[int, ...]

    @property
    def starts(self) -> list[int]:
        s, out = 1, []
        for m in self.beta_counts:
            out.append(s)
            s += m
        return out

    def betas(self, i: int) -> list[int]:
        s = self.starts[i]
        return list(range(s, s + self.beta_counts[i]))

    def gammas(self, i: int) -> list[int]:
        s = self.starts[i]
        return list(range(s, s + self.beta_counts[i] - 1))

    def excluded(self) -> list[int]:
        return [
            self.starts[i] + self.beta_counts[i] - 1
            for i in range(len(self.beta_counts) - 1)
        ]

def chain_layout(k: int, dec: GenusDecomposition) -> ChainLayout:
    if dec.k != k:
        raise InvalidDecomposition(f"decomposition is for k={dec.k}, not {k}")
    if dec.plus_one:
        counts = (k,) * dec.a
    else:
        counts = (k,) * dec.a + (k - 1,) * dec.b
    return ChainLayout(counts)


def certified_labels(dec: GenusDecomposition, with_alpha_l: bool) -> set[str]:
    """The labels the single-orbit certificate must join: the Humphries
    curves, x1, x2, x3, and alpha_l for the three-generator construction."""
    excluded = set(chain_layout(dec.k, dec).excluded())
    labels = humphries_label_set(dec.genus(), excluded) | {X1, X2, X3}
    if with_alpha_l:
        labels.add(ALPHA_L)
    return labels


def _f_map(k: int, dec: GenusDecomposition, with_alpha_l: bool) -> dict:
    layout = chain_layout(k, dec)
    m: dict = {}
    for i, count in enumerate(layout.beta_counts):
        bs = layout.betas(i)
        for j in range(len(bs) - 1):
            m[beta(bs[j])] = beta(bs[j + 1])
        if count == k:
            # a genus-k piece has exactly k evenly spaced handle curves, so
            # the rotation closes the labeled beta cycle
            m[beta(bs[-1])] = beta(bs[0])
        gs = layout.gammas(i)
        for j in range(len(gs) - 1):
            m[gamma(gs[j])] = gamma(gs[j + 1])
        # the final gamma image is an unlabeled curve: absent from the map
    if dec.a >= 1:
        m[alpha(1)] = alpha(2)
    else:
        m[alpha(1)] = gamma(1)
    if with_alpha_l:
        m[ALPHA_L] = alpha(1)
    return m


def build_action_four(k: int, dec: GenusDecomposition) -> list[GeneratorAction]:
    """The f, g, h partial actions of the four-generator construction."""
    if k < 5:
        raise RangeError(f"four-generator construction needs k >= 5, got {k}")
    layout = chain_layout(k, dec)
    g_total = dec.genus()
    nchains = len(layout.beta_counts)
    excl = layout.excluded()

    f_map = _f_map(k, dec, with_alpha_l=False)

    g_map: dict = {X3: gamma(1), X1: gamma(2)}
    if dec.plus_one:
        g_map[gamma(2)] = beta(g_total)
    else:
        g_map[gamma(2)] = alpha(2)
    for i in range(1, nchains):  # chains are 0-based; G_i for i = 2..a+b
        prev_bs = layout.betas(i - 1)
        g_map[beta(prev_bs[-2])] = xgamma(excl[i - 1])
        g_map[xgamma(excl[i - 1])] = beta(layout.betas(i)[1])

    h_map: dict = {gamma(1): X2, gamma(2): alpha(2), alpha(2): beta(4)}
    if dec.plus_one:
        h_map[beta(4)] = gamma(g_total - 1)
    for i in range(1, nchains):  # H_i for i = 2..a+b
        bs = layout.betas(i)
        h_map[beta(bs[0])] = gamma(layout.gammas(i)[1])

    return [
        GeneratorAction.of("f", k, f_map),
        GeneratorAction.of("g", k, g_map),
        GeneratorAction.of("h", k, h_map),
    ]


def build_action_three(k: int, dec: GenusDecomposition) -> list[GeneratorAction]:
    """The f, g partial actions of the three-generator construction, with
    the needed power facts (g^3, or g^2 for k = 6) as extra action tables."""
    if k == 5 or k < 5:
        raise UnsupportedK(
            f"three-generator construction needs k = 6 or k >= 7, got {k}"
        )
    if k == 7 and dec.a < 1:
        raise UnsupportedK(
            "k = 7 needs a decomposition with a leading genus-7 piece"
        )
    if dec.plus_one:
        raise PlusOneUnsupported(
            "the three-generator construction excludes the ak+1 form"
        )
    layout = chain_layout(k, dec)
    nchains = len(layout.beta_counts)
    excl = layout.excluded()

    f_map = _f_map(k, dec, with_alpha_l=True)

    actions: list[GeneratorAction] = []
    if k >= 7:
        g_map = {X3: gamma(1), X1: gamma(2), gamma(4): beta(6)}
        power_name, power_exp = "g^3", 3
        power_map = {X2: gamma(3), alpha(2): gamma(4)}
    else:  # k == 6: the lantern has three-fold symmetry under the rotation
        g_map = {X1: beta(4), beta(4): gamma(2)}
        power_name, power_exp = "g^2", 2
        power_map = {
            X3: gamma(1),
            X1: gamma(2),
            gamma(1): X2,
            gamma(2): alpha(2),
            X2: X3,
            alpha(2): X1,
        }
    # G_2 starts at alpha_l; later G_i start at the last gamma of F_{i-1}
    for i in range(1, nchains):
        first = ALPHA_L if i == 1 else gamma(layout.gammas(i - 1)[-1])
        g_map[first] = xgamma(excl[i - 1])
        g_map[xgamma(excl[i - 1])] = gamma(layout.gammas(i)[0])
        g_map[gamma(layout.gammas(i)[0])] = beta(layout.betas(i)[2])

    actions.append(GeneratorAction.of("f", k, f_map))
    actions.append(GeneratorAction.of("g", k, g_map))
    actions.append(GeneratorAction.of(power_name, k, power_map))
    return actions


def actions_to_json(k: int, dec: GenusDecomposition, actions) -> dict:
    """Reviewable file format: {k, genus, decomposition, generators:
    [{name, order, map: [[label, label]]}]}."""
    return {
        "k": k,
        "genus": dec.genus(),
        "decomposition": {"a": dec.a, "b": dec.b, "plus_one": dec.plus_one},
        "generators": [
            {
                "name": act.name,
                "order": act.order,
                "map": [[s, t] for s, t in act.map],
            }
            for act in actions
        ],
    }


def certify_single_orbit(actions: list[GeneratorAction], labels: set[str]) -> int:
    """The number of components `labels` fall into under the undirected
    action edges; one component is a single orbit.  Orbit membership is
    symmetric under inverses, so undirected closure suffices."""
    parent: dict[str, str] = {}  # roots are absent

    def find(x: str) -> str:
        path = []
        while x in parent:
            path.append(x)
            x = parent[x]
        for y in path:
            parent[y] = x
        return x

    for act in actions:
        for s, t in act.map:
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[rs] = rt
    return len({find(lb) for lb in labels})


def _role_maps(actions: list[GeneratorAction]):
    """The (g-role, h-role) partial maps satisfying the twist lemma, derived
    from the action tables: (g, h) for the four-generator variant, (g,
    f^-2 g^3) for three generators, (g^2, g^4) for k = 6."""
    by_name = {a.name: a for a in actions}
    f_map = by_name["f"].as_dict()
    if "h" in by_name:
        return by_name["g"].as_dict(), by_name["h"].as_dict(), "four"
    f_inv = {t: s for s, t in f_map.items()}
    if "g^3" in by_name:
        g3 = by_name["g^3"].as_dict()
        h_role = {}
        for s, t in g3.items():
            u = f_inv.get(t)
            u = f_inv.get(u) if u is not None else None
            if u is not None:
                h_role[s] = u
        return by_name["g"].as_dict(), h_role, "three"
    if "g^2" in by_name:
        g2 = by_name["g^2"].as_dict()
        g4 = {
            s: g2[t] for s, t in g2.items() if t in g2
        }
        return g2, g4, "three-k6"
    raise MissingLanternData("no h, g^3, or g^2 action present")


def verify_lantern_hypotheses(actions: list[GeneratorAction]) -> bool:
    """Check the three twist-lemma conditions: f(gamma1) = gamma2,
    g-role(x3, x1) = (gamma1, gamma2), h-role(x2, alpha2) = (gamma1,
    gamma2) (the four-generator h satisfies the inverse form)."""
    by_name = {a.name: a for a in actions}
    if "f" not in by_name or "g" not in by_name:
        raise MissingLanternData("actions must include f and g")
    f_map = by_name["f"].as_dict()
    g_role, h_role, _variant = _role_maps(actions)
    lantern_labels = {X1, X2, X3, gamma(1), gamma(2), alpha(2)}
    touched = set()
    for m in (f_map, g_role, h_role):
        touched |= set(m) | set(m.values())
    if not lantern_labels & touched:
        raise MissingLanternData("no lantern curve appears in the actions")
    if f_map.get(gamma(1)) != gamma(2):
        return False
    if not (g_role.get(X3) == gamma(1) and g_role.get(X1) == gamma(2)):
        return False
    direct = h_role.get(X2) == gamma(1) and h_role.get(alpha(2)) == gamma(2)
    inverse = h_role.get(gamma(1)) == X2 and h_role.get(gamma(2)) == alpha(2)
    return direct or inverse
