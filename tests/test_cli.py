"""CLI surface, reports, and cache: exit codes, determinism, round trips."""

import codecs
import dataclasses
import inspect
import io
import json
import os
import time

import pytest

from torsiongen import __version__, cli, curves, errors, families, perms, report, sympl
from torsiongen.cache import cache_dir, cache_key, get as cache_get, put as cache_put
from torsiongen.cli import (
    _build_parser,
    cmd_genus,
    cmd_mcg,
    cmd_sweep,
    cmd_sympl,
    cmd_verify,
    main,
)
from torsiongen.errors import InvalidParams, RangeError
from torsiongen.report import ReportCell, SweepReport


def run(argv, env_cache=None):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class Interrupted(Exception):
    """Raised by the stubs below to stop a sweep part-way."""


class TestReport:
    def cell(self, status="pass"):
        return ReportCell.of({"k": 5, "n": 18}, status, {"kind": "alternating"}, 1.5)

    def test_summary_counts_match_cells(self):
        rep = SweepReport.of(
            "verify",
            {},
            [self.cell(), self.cell("fail"), self.cell("skip")],
            "0",
        )
        assert rep.summary() == {"pass": 1, "fail": 1, "expected-fail": 0, "skip": 1}
        assert not rep.ok()

    def test_canonical_json_excludes_elapsed(self):
        rep = SweepReport.of("verify", {}, [self.cell()], "0")
        assert rep.cells[0].elapsed == 1.5
        assert "elapsed" not in rep.to_json()

    def test_json_parses(self):
        rep = cmd_verify("prop61", 5, 18)
        data = json.loads(rep.to_json())
        assert data["command"] == "verify"
        assert data["version"] == __version__
        assert data["summary"]["pass"] == 1

    def test_csv_has_one_row_per_cell(self, tmp_path):
        rep = cmd_sweep("prop61", (3, 3), (6, 12), cache_root=tmp_path)
        lines = rep.to_csv().strip().splitlines()
        assert len(lines) == 1 + len(rep.cells)


CELL_5_9 = {"family": "conjecture", "k": 5, "n": 9}


class TestCache:
    def test_key_depends_on_version_and_params(self):
        k1 = cache_key("1", "verify", {"k": 3})
        assert k1 != cache_key("2", "verify", {"k": 3})
        assert k1 != cache_key("1", "verify", {"k": 4})
        assert k1 == cache_key("1", "verify", {"k": 3})

    def test_key_depends_on_schema(self, monkeypatch):
        k1 = cache_key("1", "verify", {"k": 3})
        monkeypatch.setattr(report, "SCHEMA_VERSION", report.SCHEMA_VERSION + 1)
        assert cache_key("1", "verify", {"k": 3}) != k1

    def test_round_trip(self, tmp_path):
        key = cache_key("1", "c", {"x": 1})
        assert cache_get(tmp_path, key) is None
        cache_put(tmp_path, key, {"status": "pass"})
        assert cache_get(tmp_path, key) == {"status": "pass"}

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORSIONGEN_CACHE", str(tmp_path / "envcache"))
        assert cache_dir() == tmp_path / "envcache"
        assert cache_dir(tmp_path / "explicit") == tmp_path / "explicit"

    def test_sweep_uses_cache(self, tmp_path):
        rep1 = cmd_sweep("prop61", (3, 3), (6, 10), cache_root=tmp_path)
        rep2 = cmd_sweep("prop61", (3, 3), (6, 10), cache_root=tmp_path)
        assert rep1.to_json() == rep2.to_json()
        assert any(tmp_path.rglob("*.json"))

    @pytest.mark.parametrize(
        "bad",
        [
            {"status": "pass"},
            [1, 2],
            b"\xff\xfe garbage",
            {"params": 1, "status": "pass", "outcome": {}},
            {"params": CELL_5_9, "status": "pass", "outcome": []},
            {"params": CELL_5_9, "status": "bogus", "outcome": {}},
            # the right entry, in encodings that json.loads accepts from
            # bytes but that are not plain UTF-8 JSON
            lambda text: codecs.BOM_UTF8 + text.encode(),
            lambda text: text.encode("utf-16"),
        ],
        ids=[
            "no-params", "list", "not-utf8",
            "params-not-dict", "outcome-not-dict", "unknown-status",
            "utf8-bom", "utf16",
        ],
    )
    def test_malformed_entry_is_a_miss(self, tmp_path, bad):
        fresh = cmd_sweep("conjecture", (5, 5), (9, 9), cache_root=tmp_path / "ok")
        clean = json.dumps(fresh.cells[0].as_dict(), sort_keys=True)
        key = cache_key(__version__, "verify/conjecture", {"k": 5, "n": 9})
        if callable(bad):
            bad = bad(clean)
        if isinstance(bad, bytes):
            cache_put(tmp_path, key, {})
            next(tmp_path.rglob(f"{key}.json")).write_bytes(bad)
        else:
            cache_put(tmp_path, key, bad)
        rep = cmd_sweep("conjecture", (5, 5), (9, 9), cache_root=tmp_path)
        assert rep.to_json() == fresh.to_json()
        # a miss rewrites the entry; a hit would have left the bad bytes
        assert next(tmp_path.rglob(f"{key}.json")).read_text() == clean

    def test_put_writes_canonical_json(self, tmp_path):
        payload = {"z": [1, 2.5, None], "a": {"é": "\u2028", "t": True}}
        key = cache_key("1", "c", {"x": 1})
        cache_put(tmp_path, key, payload)
        written = next(tmp_path.rglob(f"{key}.json")).read_bytes()
        assert written == json.dumps(payload, sort_keys=True).encode()

    def test_entry_for_another_cell_is_a_miss(self, tmp_path):
        argv = [
            "sweep", "--family", "conjecture", "--k", "3", "--k-max", "6",
            "--n", "3", "--n-max", "40", "--cache-dir", str(tmp_path),
        ]
        code, clean, _ = run(argv)
        assert code == 0
        key = cache_key(__version__, "verify/conjecture", {"k": 4, "n": 20})
        entry = cache_get(tmp_path, key)
        # the 1% spot check samples one other cell here, so only the params
        # tie the entry to (4, 20)
        wrong = {"family": "prop61", "k": 99, "n": 99}
        cache_put(tmp_path, key, {**entry, "params": wrong, "status": "fail"})
        assert run(argv) == (0, clean, "")
        assert cache_get(tmp_path, key) == entry


    def test_altered_entry_is_cache_corruption(self, tmp_path):
        argv = [
            "sweep", "--family", "conjecture", "--k", "5", "--n", "9",
            "--cache-dir", str(tmp_path),
        ]
        assert run(argv)[0] == 0
        key = cache_key(__version__, "verify/conjecture", {"k": 5, "n": 9})
        entry = cache_get(tmp_path, key)
        cache_put(tmp_path, key, {**entry, "status": "fail"})
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert err.startswith("error: cache corruption")


class TestVerify:
    def test_prop61_pass(self):
        rep = cmd_verify("prop61", 5, 18)
        cell = rep.cells[0]
        assert cell.status == "pass"
        assert dict(cell.outcome)["kind"] == "alternating"
        assert dict(cell.outcome)["witness"] == "[a,c]"

    def test_known_exception_flagged(self):
        rep = cmd_verify("conjecture", 3, 6)
        cell = rep.cells[0]
        assert cell.status == "expected-fail"
        assert dict(cell.outcome)["known_exception"] is True
        assert rep.ok()

    def test_out_of_domain_raises(self):
        with pytest.raises(RangeError):
            cmd_verify("prop61", 5, 9)

    def test_miller_family(self):
        rep = cmd_verify("miller", 5, 7)
        assert rep.cells[0].status == "pass"
        assert dict(rep.cells[0].outcome)["kind"] == "alternating"


class TestSweep:
    def test_cells_ordered_and_complete(self, tmp_path):
        rep = cmd_sweep("conjecture", (3, 4), (3, 12), cache_root=tmp_path)
        keys = [
            (dict(c.params)["k"], dict(c.params)["n"]) for c in rep.cells
        ]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys)) == 2 * 10

    def test_empty_range(self, tmp_path):
        # an inverted range is a usage error, not an empty passing report
        for k_range, n_range in (((3, 3), (10, 9)), ((4, 3), (10, 10))):
            with pytest.raises(InvalidParams):
                cmd_sweep("prop61", k_range, n_range, cache_root=tmp_path)
        assert not any(tmp_path.rglob("*.json"))

    def test_known_exceptions_expected_fail(self, tmp_path):
        rep = cmd_sweep("conjecture", (3, 3), (3, 10), cache_root=tmp_path)
        by_n = {dict(c.params)["n"]: c.status for c in rep.cells}
        assert by_n[6] == by_n[7] == by_n[8] == "expected-fail"
        assert all(s == "pass" for n, s in by_n.items() if n not in (6, 7, 8))
        assert rep.ok()

    def test_case3_floor_skipped(self, tmp_path):
        rep = cmd_sweep("conjecture", (4, 4), (11, 11), cache_root=tmp_path)
        assert rep.cells[0].status == "skip"

    def test_jobs_flag_gives_same_report(self, tmp_path):
        a = cmd_sweep("prop61", (3, 3), (6, 14), cache_root=tmp_path / "a")
        b = cmd_sweep("prop61", (3, 3), (6, 14), jobs=2, cache_root=tmp_path / "b")
        assert a.to_json() == b.to_json()

    def test_interrupted_sweep_keeps_finished_cells(self, tmp_path, monkeypatch):
        sweep_one, done = cli._sweep_one, []

        def fourth_interrupts(args):
            if len(done) == 3:
                raise Interrupted
            done.append(args)
            return sweep_one(args)

        monkeypatch.setattr(cli, "_sweep_one", fourth_interrupts)
        with pytest.raises(Interrupted):
            cmd_sweep("conjecture", (5, 5), (5, 12), cache_root=tmp_path)
        assert [(k, n) for _, k, n in done] == [(5, 5), (5, 6), (5, 7)]
        for _, k, n in done:
            key = cache_key(__version__, "verify/conjecture", {"k": k, "n": n})
            assert cache_get(tmp_path, key)["params"] == {"family": "conjecture", "k": k, "n": n}
        assert len(list(tmp_path.rglob("*.json"))) == 3

    @pytest.mark.parametrize("cores,n_max,workers", [(64, 7, 3), (4, 10, 4), (None, 10, 1)])
    def test_workers_clamped_before_any_start(self, tmp_path, monkeypatch, cores, n_max, workers):
        # the stub starts no process, and the sweep stops at the first cell
        asked = []

        class StubPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                raise Interrupted

        def first_cell(args):
            raise Interrupted

        monkeypatch.setattr(cli, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(cli, "_sweep_one", first_cell)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        with pytest.raises(Interrupted):
            cmd_sweep("conjecture", (5, 5), (5, n_max), jobs=10_000, cache_root=tmp_path)
        assert asked == ([workers] if workers > 1 else [])

    def test_oversized_grid_is_refused_before_any_cell(self, tmp_path, monkeypatch):
        def no_cell_work(*args):
            raise AssertionError("the sweep reached a cell")

        monkeypatch.setattr(cli, "cache_key", no_cell_work)
        # 1001 x 1000 cells, one row past the bound
        code, out, err = run([
            "sweep", "--family", "conjecture", "--k", "3", "--k-max", "1003",
            "--n", "3", "--n-max", "1002", "--cache-dir", str(tmp_path),
        ])
        assert code == 2 and out == ""
        assert err == "error: sweep of 1001000 cells exceeds the 1000000-cell bound\n"
        assert not any(tmp_path.iterdir())


class TestMcg:
    def test_worked_four(self):
        rep = cmd_mcg(5, 18, "four")
        stages = {dict(c.params)["stage"]: c.status for c in rep.cells}
        assert set(stages) == {
            "decompose",
            "build_actions",
            "lantern_hypotheses",
            "single_orbit",
            "lantern_word",
            "rotation_order",
        }
        assert all(s == "pass" for s in stages.values())

    def test_worked_three(self):
        rep = cmd_mcg(8, 21, "three")
        assert rep.ok()
        assert all(c.status == "pass" for c in rep.cells)

    def test_unrepresentable_genus(self):
        with pytest.raises(InvalidParams):
            cmd_mcg(5, 7, "four")

    def test_k7_three_uses_leading_piece(self):
        rep = cmd_mcg(7, 25, "three")
        assert rep.ok()


class TestGenusSympl:
    def test_genus_query(self):
        rep = cmd_genus(5, 16)
        out = dict(rep.cells[0].outcome)
        assert out["representable"] and out["plus_one"]
        assert out["stable_bound"] == 8

    def test_genus_unrepresentable_is_informational(self):
        rep = cmd_genus(5, 7)
        assert dict(rep.cells[0].outcome)["representable"] is False
        assert rep.ok()

    def test_sympl_rotation(self):
        rep = cmd_sympl(5, 18)
        assert dict(rep.cells[0].outcome)["order"] == 5

    def test_sympl_mod_p(self):
        rep = cmd_sympl(2, 2, p=2)
        mod = dict(rep.cells[1].outcome)
        assert mod["generates"] and mod["group_order"] == 720


class TestMainExitCodes:
    def test_pass_is_zero(self):
        code, out, _ = run(["verify", "--family", "prop61", "--k", "5", "--n", "18"])
        assert code == 0 and json.loads(out)["summary"]["pass"] == 1

    def test_domain_error_is_two(self):
        code, _, err = run(["verify", "--family", "prop61", "--k", "5", "--n", "9"])
        assert code == 2 and "error:" in err

    def test_mcg_unrepresentable_is_two(self):
        code, _, _ = run(["mcg", "--k", "5", "--g", "7", "--variant", "four"])
        assert code == 2

    @pytest.mark.parametrize(
        "bounds",
        [["--k", "10", "--k-max", "3", "--n", "12"], ["--k", "5", "--n", "20", "--n-max", "3"]],
        ids=["k", "n"],
    )
    def test_inverted_sweep_range_is_two(self, tmp_path, bounds):
        argv = ["sweep", "--family", "conjecture", *bounds, "--cache-dir", str(tmp_path)]
        code, out, err = run(argv)
        assert code == 2 and out == "" and err.startswith("error: empty sweep range")

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "bogus", "--k", "3", "--n", "9"])
        assert exc.value.code == 2

    def test_estimate_deterministic_output(self):
        argv = [
            "estimate", "--k", "3", "--n", "8", "--trials", "20",
            "--sampler", "uniform_order_k", "--seed", "7",
        ]
        code1, out1, _ = run(argv)
        code2, out2, _ = run(argv)
        assert code1 == code2 == 0 and out1 == out2

    def test_sweep_csv_format(self, tmp_path):
        code, out, _ = run([
            "sweep", "--family", "prop61", "--k", "3", "--n", "6",
            "--n-max", "10", "--format", "csv", "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        assert out.splitlines()[0].startswith("family,k,n,status")

    def test_byte_identical_reports(self, tmp_path):
        argv = [
            "mcg", "--k", "5", "--g", "18", "--variant", "four",
        ]
        _, out1, _ = run(argv)
        _, out2, _ = run(argv)
        assert out1 == out2

    def test_sympl_too_large_is_two(self):
        code, out, err = run(["sympl", "--k", "2", "--g", "6", "--p", "2"])
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("p", ["0", "1", "4"])
    def test_sympl_non_prime_p_is_two(self, p):
        code, out, err = run(["sympl", "--k", "2", "--g", "2", "--p", p])
        assert code == 2 and out == "" and err.startswith("error:")

    def test_sympl_sp4_5_passes(self):
        code, out, _ = run(["sympl", "--k", "2", "--g", "2", "--p", "5"])
        mod = json.loads(out)["cells"][1]["outcome"]
        assert code == 0 and mod == {"generates": True, "group_order": 9360000}

    def test_sympl_sp6_2_is_fast(self):
        start = time.perf_counter()
        code, out, _ = run(["sympl", "--k", "3", "--g", "3", "--p", "2"])
        assert time.perf_counter() - start < 10
        assert code == 0 and json.loads(out)["cells"][1]["outcome"]["group_order"] == 1451520

    def test_estimate_csv_format(self):
        code, out, _ = run([
            "estimate", "--k", "3", "--n", "9", "--trials", "5", "--format", "csv",
        ])
        assert code == 0
        header, row = out.splitlines()
        assert header == "k,n,sampler,trials,status,ci_high,ci_low,estimate,successes"
        assert row.startswith("3,9,max_disjoint_k_cycles,5,pass,")

    def test_estimate_is_a_seeded_report(self):
        code, out, _ = run(["estimate", "--k", "3", "--n", "9", "--trials", "5", "--seed", "4"])
        data = json.loads(out)
        assert code == 0 and data["command"] == "estimate" and data["seed"] == 4
        assert data["summary"]["pass"] == 1

    def test_uniform_sampler_infeasible_fails_fast(self):
        start = time.perf_counter()
        code, out, err = run([
            "estimate", "--k", "3", "--n", "30", "--trials", "10",
            "--sampler", "uniform_order_k",
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and "rejection" in err


def statuses(out: str) -> dict:
    """Stage -> status of a JSON report."""
    return {c["params"]["stage"]: c["status"] for c in json.loads(out)["cells"]}


MCG_STAGES = [
    "decompose", "build_actions", "lantern_hypotheses",
    "single_orbit", "lantern_word", "rotation_order",
]


class TestNegativeControls:
    """Broken inputs put through `main`: each must fail exactly the cell or
    stage it breaks, and exit 1."""

    MCG = ["mcg", "--k", "5", "--g", "18", "--variant", "four"]

    def mcg_failing(self, monkeypatch, attr, replacement, *failing):
        monkeypatch.setattr(cli, attr, replacement)
        code, out, _ = run(self.MCG)
        assert code == 1
        assert statuses(out) == {s: "fail" if s in failing else "pass" for s in MCG_STAGES}

    def test_wrong_order_generator_fails_its_cell(self, monkeypatch):
        # <a, ab> = <a, b> and ab is even, so only the order check can fail
        def pair(k, n):
            (a, b), tag = families.conjecture_pair(k, n)
            return (a, perms.compose(a, b)), tag

        monkeypatch.setattr(cli, "conjecture_pair", pair)
        code, out, _ = run(["verify", "--family", "conjecture", "--k", "5", "--n", "18"])
        cell = json.loads(out)["cells"][0]
        assert code == 1 and cell["status"] == "fail"
        assert cell["params"] == {"family": "conjecture", "k": 5, "n": 18}
        assert cell["outcome"]["orders_ok"] is False
        assert cell["outcome"]["kind"] == cell["outcome"]["expected"]

    def test_deleted_attachment_edge_splits_the_orbit(self, monkeypatch):
        def without_attachment(k, dec):
            f, g, h = curves.build_action_four(k, dec)
            g_map = {s: t for s, t in g.map if s != curves.beta(4)}
            return [f, curves.GeneratorAction.of("g", k, g_map), h]

        self.mcg_failing(monkeypatch, "build_action_four", without_attachment, "single_orbit")

    def test_broken_lantern_h_fails_both_lantern_stages(self, monkeypatch):
        def swapped_h(k, dec):
            f, g, h = curves.build_action_four(k, dec)
            h_map = {**h.as_dict(), curves.gamma(1): curves.alpha(2), curves.gamma(2): curves.X2}
            return [f, g, curves.GeneratorAction.of("h", k, h_map)]

        self.mcg_failing(
            monkeypatch, "build_action_four", swapped_h, "lantern_hypotheses", "lantern_word"
        )

    def test_wrong_order_rotation_fails_its_stage(self, monkeypatch):
        def order_k_plus_1(dec):
            return sympl.rotation_matrix(dataclasses.replace(dec, k=dec.k + 1))

        self.mcg_failing(monkeypatch, "rotation_matrix", order_k_plus_1, "rotation_order")

    def test_one_transvection_does_not_generate_mod_p(self, monkeypatch):
        monkeypatch.setattr(cli, "humphries_classes", lambda g: sympl.humphries_classes(g)[:1])
        code, out, _ = run(["sympl", "--k", "2", "--g", "2", "--p", "2"])
        assert code == 1
        assert statuses(out) == {"rotation": "pass", "humphries_mod_2": "fail"}


class TestParserReuse:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_back_to_back_calls_match_fresh_parser(self, tmp_path):
        commands = [
            ["sweep", "--family", "prop61", "--k", "3", "--k-max", "4",
             "--n", "6", "--n-max", "9", "--cache-dir", str(tmp_path / "a")],
            ["sweep", "--family", "prop61", "--k", "3", "--n", "6",
             "--cache-dir", str(tmp_path / "b")],
            ["mcg", "--k", "5", "--g", "18", "--variant", "four"],
        ]
        reused = [run(argv) for argv in commands]
        fresh = []
        for argv in commands:
            _build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert json.loads(reused[1][1])["params"]["k_max"] == 3


def test_every_error_has_exactly_one_base():
    bases = {errors.TorsionGenError, errors.DomainError, errors.VerificationFailure}
    classes = [
        c for _, c in inspect.getmembers(errors, inspect.isclass)
        if issubclass(c, errors.TorsionGenError) and c not in bases
    ]
    assert len(classes) == 20
    for cls in classes:
        assert issubclass(cls, errors.DomainError) != issubclass(
            cls, errors.VerificationFailure
        ), cls.__name__
