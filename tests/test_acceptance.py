"""Acceptance gate: the nine primary criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; each criterion also asserts, so a failure fails the build.
"""

import io
import itertools
import time

import numpy as np
import pytest
from test_sympl import dense

from torsiongen.cli import cmd_mcg, main
from torsiongen.curves import (
    GeneratorAction,
    build_action_four,
    build_action_three,
    certified_labels,
    certify_single_orbit,
)
from torsiongen.engine import classify, jordan_certificate
from torsiongen.errors import CaseUndefined, RewriteStepInvalid
from torsiongen.families import (
    check_orders,
    conjecture_pair,
    prop61_generators,
    prop62_generators,
)
from torsiongen.genus import (
    GenusDecomposition,
    decompose,
    stable_bound,
    theorem1_bound,
)
from torsiongen.lantern import ALL_RULES, verify_lantern_word
from torsiongen.perms import is_even
from torsiongen.sympl import (
    SymplecticMatrix,
    generates_mod_p,
    humphries_classes,
    rotation_matrix,
    sp_order,
    standard_form,
    twist_transvection,
)


def line(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    return ok


_prop61_results = None


def prop61_grid():
    """Shared sweep for criteria 1 and 4: classification plus the Jordan
    witness on every prop61 cell."""
    global _prop61_results
    if _prop61_results is None:
        results = []
        for k in range(3, 13):
            for n in range(2 * k, 61):
                gens, _ = prop61_generators(k, n)
                cls = classify(list(gens))
                witness = jordan_certificate(list(gens))
                results.append((k, n, check_orders(gens, k), cls, witness))
        _prop61_results = results
    return _prop61_results


def test_criterion_1_prop61_sweep():
    bad = []
    for k, n, orders_ok, cls, _ in prop61_grid():
        expected = "symmetric" if k % 2 == 0 else "alternating"
        if not orders_ok or cls.kind != expected:
            bad.append((k, n, cls.kind))
    ok = not bad
    assert line(1, "prop61 sweep 3<=k<=12, 2k<=n<=60", ok, f"bad cells: {bad[:5]}")


def test_criterion_2_prop62_sweep():
    bad = []
    for k in (4, 6, 8, 10, 12):
        for n in range(k + 2, 61):
            gens, _ = prop62_generators(k, n)
            parity_ok = all(is_even(g) for g in gens)
            cls = classify(list(gens))
            if not (check_orders(gens, k) and parity_ok and cls.kind == "alternating"):
                bad.append((k, n, cls.kind))
    ok = not bad
    assert line(2, "prop62 sweep even 4<=k<=12, k+2<=n<=60", ok, f"bad cells: {bad[:5]}")


def test_criterion_3_conjecture_replication():
    expected_fail = {(3, 6), (3, 7), (3, 8)}
    failures, skipped = set(), []
    start = time.perf_counter()
    for k in range(3, 11):
        for n in range(k, 101):
            try:
                (a, b), _ = conjecture_pair(k, n)
            except CaseUndefined:
                skipped.append((k, n))
                continue
            target = "alternating" if is_even(a) and is_even(b) else "symmetric"
            if classify([a, b]).kind != target:
                failures.add((k, n))
    elapsed = time.perf_counter() - start
    ok = failures == expected_fail and elapsed < 1800
    assert line(
        3,
        "conjecture grid 3<=k<=10, k<=n<=100",
        ok,
        f"failures={sorted(failures)}, case-3 skips={skipped}, {elapsed:.0f}s",
    )


def test_criterion_4_jordan_witnesses():
    bad = []
    for k, n, _, _, witness in prop61_grid():
        if witness is None or witness.prime != 3:
            bad.append((k, n, witness))
            continue
        expected_word = "c" if k == 3 else "[a,c]"
        expected_cycle = ((0, 1, 2),) if k == 3 else ((0, 1, k - 2),)
        if witness.word != expected_word or witness.cycle.cycles != expected_cycle:
            bad.append((k, n, witness))
    ok = not bad
    assert line(4, "Jordan 3-cycle witnesses at depth 1", ok, f"bad: {bad[:5]}")


def test_criterion_5_genus_arithmetic():
    start = time.perf_counter()
    problems = []
    for k in range(5, 41):
        bound = stable_bound(k)
        reachable = {
            g for g in range(1, 5001) if decompose(k, g) is not None
        }
        if any(g not in reachable for g in range(bound, 5001)):
            problems.append((k, "gap above stable bound"))
        below = sum(1 for g in range(1, bound) if g in reachable)
        if below != (k * k - 3 * k - 4) // 2:
            problems.append((k, "count mismatch", below))
        if bound - 1 != k * k - 4 * k + 2:
            problems.append((k, "window mismatch", bound - 1))
        if k >= 6:
            for g in range(theorem1_bound(k), 5001):
                d = decompose(k, g, require_leading_k=True)
                if d is None or d.a < 1 or d.plus_one:
                    problems.append((k, g, "no leading-k form"))
                    break
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10
    assert line(
        5, "genus arithmetic 5<=k<=40, g<=5000", ok,
        f"problems={problems[:3]}, {elapsed:.1f}s",
    )


def test_criterion_6_rotation_matrices():
    bad = []
    for k in range(2, 13):
        for a in range(0, 6):
            for b in range(0, 6 - a):
                if a + b == 0 or a + b > 5:
                    continue
                variants = [GenusDecomposition(k, a, b)]
                if b == 0 and a >= 1:
                    variants.append(GenusDecomposition(k, a, 0, plus_one=True))
                for dec in variants:
                    # each block's constructor checks its form; the dense
                    # oracle checks the whole matrix and its order
                    rot = rotation_matrix(dec)
                    m = dense(rot)
                    j = standard_form(rot.g)
                    if (
                        rot.g != dec.genus()
                        or not np.array_equal(m.T @ j @ m, j)
                        or rot.order(2 * k) != k
                        or SymplecticMatrix.from_array(m).order(2 * k) != k
                    ):
                        bad.append(dec)
    ok = not bad
    assert line(6, "rotation matrices order k, k<=12, a+b<=5", ok, f"bad: {bad[:3]}")


def test_criterion_7_symplectic_mod_p():
    ts = [twist_transvection(2, v) for v in humphries_classes(2)]
    ok2, order2 = generates_mod_p(ts, 2)
    checks = [ok2 and order2 == 720]
    detail = [f"Sp(4,2) order {order2}"]
    for g, p in ((2, 3), (3, 2), (4, 2), (3, 3)):
        tg = [twist_transvection(g, v) for v in humphries_classes(g)]
        okg, orderg = generates_mod_p(tg, p)
        checks.append(okg and orderg == sp_order(g, p))
        detail.append(f"Sp({2 * g},{p}) order {orderg}")
    sl2 = [twist_transvection(1, [1, 0]), twist_transvection(1, [0, 1])]
    for p in (2, 3):
        okp, orderp = generates_mod_p(sl2, p)
        brute = _brute_sp2(p)
        checks.append(okp and orderp == sp_order(1, p) == brute)
        detail.append(f"Sp(2,{p}) order {orderp} (brute {brute})")
    ok = all(checks)
    assert line(7, "symplectic generation mod p", ok, "; ".join(detail))


def _brute_sp2(p):
    j = np.array([[0, 1], [-1, 0]])
    count = 0
    for entries in itertools.product(range(p), repeat=4):
        m = np.array(entries).reshape(2, 2)
        if np.array_equal(np.mod(m.T @ j @ m, p), np.mod(j, p)):
            count += 1
    return count


def test_criterion_8_mcg_pipeline():
    problems = []

    def all_stages_pass(k, g, variant):
        rep = cmd_mcg(k, g, variant)
        return all(c.status == "pass" for c in rep.cells)

    for k, g, variant in ((5, 18, "four"), (8, 21, "three")):
        if not all_stages_pass(k, g, variant):
            problems.append((k, g, variant))
    for k in range(5, 11):
        for g in range(2, 241):
            if decompose(k, g) is None:
                continue
            if not all_stages_pass(k, g, "four"):
                problems.append((k, g, "four"))
            dec3 = decompose(k, g, require_leading_k=True) if k == 7 else decompose(k, g)
            if dec3 is None or dec3.plus_one or k == 5 or (k == 7 and dec3.a < 1):
                continue
            if not all_stages_pass(k, g, "three"):
                problems.append((k, g, "three"))
    # the proof replay needs each of the three rules and no fewer
    acts = build_action_four(5, decompose(5, 18))
    for rule in ALL_RULES:
        try:
            verify_lantern_word(acts, disabled_rules={rule})
            problems.append(("rule-not-needed", rule))
        except RewriteStepInvalid:
            pass
    # edge-deletion negative controls
    dec = decompose(5, 18)
    labels = certified_labels(dec, False)
    f, gg, h = build_action_four(5, dec)
    controls = [
        [f, gg, GeneratorAction.of("h", 5, {})],
        [GeneratorAction.of("f", 5, {s: t for s, t in f.map if not s.startswith("alpha:")}), gg, h],
        [f, GeneratorAction.of("g", 5, {s: t for s, t in gg.map if s.startswith("lantern:") or s == _g2()}), h],
    ]
    for i, acts_ctrl in enumerate(controls):
        if certify_single_orbit(acts_ctrl, labels) == 1:
            problems.append(("control-still-connected", i))
    ok = not problems
    assert line(8, "mapping-class pipeline k<=10, g<=240", ok, f"problems: {problems[:5]}")


def _g2():
    from torsiongen.curves import gamma

    return gamma(2)


def test_criterion_9_byte_identical_reports():
    def run(argv):
        out = io.StringIO()
        code = main(argv, out=out, err=io.StringIO())
        return code, out.getvalue()

    commands = [
        ["verify", "--family", "prop61", "--k", "5", "--n", "18"],
        ["verify", "--family", "prop62", "--k", "4", "--n", "12"],
        ["verify", "--family", "conjecture", "--k", "3", "--n", "6"],
        ["estimate", "--k", "3", "--n", "9", "--trials", "25", "--seed", "11"],
        ["mcg", "--k", "5", "--g", "18", "--variant", "four"],
        ["mcg", "--k", "8", "--g", "21", "--variant", "three"],
        ["genus", "--k", "6", "--g", "26"],
        ["sympl", "--k", "5", "--g", "18"],
        ["sympl", "--k", "2", "--g", "2", "--p", "2"],
    ]
    mismatches = []
    for argv in commands:
        first, second = run(argv), run(argv)
        if first != second:
            mismatches.append(argv)
    ok = not mismatches
    assert line(9, "byte-identical reports", ok, f"mismatches: {mismatches}")
