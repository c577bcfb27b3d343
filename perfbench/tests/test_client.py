import json

import pytest

import client
import tracer as tracing
import workloads

SMALL_WARM = ("sweep", "--family", "conjecture", "--k", "3", "--k-max", "4", "--n", "3", "--n-max", "12")


@pytest.fixture(scope="module")
def cli():
    return client.import_cli(client.ROOT)


def test_forced_cap_counts_as_capped_and_failed_and_leaves_no_entry(cli, tmp_path):
    runner = client.Runner(cli, cap=0.05, workdir=tmp_path)
    slow, cheap = workloads.cell_op(10, 160), workloads.cell_op(3, 9)
    records = [runner.run_op(0, slow), runner.run_op(1, cheap)]
    assert [r.status for r in records] == ["capped", "ok"]
    assert records[0].latency >= 0.05  # the cap, at the reference host speed
    m = client.stats.op_metrics(records)
    assert m["uncapped_frac"] == 0.5 and m["ok_frac"] == 0.5
    assert m["op_s_max"] == records[0].latency
    assert not (tmp_path / "op-cache").exists()
    assert runner.capped_leftovers == 0


def test_ops_never_touch_the_users_cache(cli, tmp_path, monkeypatch):
    users = tmp_path / "users-cache"
    monkeypatch.setenv("TORSIONGEN_CACHE", str(users))
    runner = client.Runner(cli, cap=30, workdir=tmp_path / "work")
    assert runner.run_op(0, workloads.cell_op(5, 12)).status == "ok"
    assert not users.exists()


def test_missing_hook_is_reported_not_raised(cli):
    hooks = tracing.HOOKS + (
        ("engine.build_chain", "torsiongen.engine:no_such_function", None),
        ("cache.gone", "torsiongen.no_such_module:get", None),
    )
    tr = tracing.Tracer(hooks)
    with tr:
        cli.main(["genus", "--k", "6", "--g", "26"], out=open("/dev/null", "w"))
    assert set(tr.missing) == {
        "torsiongen.engine:no_such_function",
        "torsiongen.no_such_module:get",
    }
    assert cli.classify.__name__ == "classify"  # originals are restored
    extra = tracing.LayerMetric("engine.build_chain_s", "s/op", ("engine.build_chain",), None)
    saved = tracing.LAYER_METRICS
    tracing.LAYER_METRICS = saved + (extra,)
    try:
        metrics, unavailable = tracing.layer_metrics(tr, 1)
    finally:
        tracing.LAYER_METRICS = saved
    assert metrics["engine.build_chain_s"]["value"] is None
    assert "engine.build_chain_s" in unavailable
    assert metrics["genus.decompose_s"]["value"] > 0


def _warm_runner(cli, tmp_path):
    cache = tmp_path / "warm"
    text, ref_s, wall_s, problem = client.fill_warm_cache(
        cli, cache, SMALL_WARM, client.warm_up_kernels()
    )
    assert ref_s > 0 and wall_s > 0
    assert cli._sweep_one.__name__ == "_sweep_one"  # the sampling wrapper is gone
    assert problem is None
    return client.Runner(cli, cap=30, workdir=tmp_path, warm_cache=cache, warm_text=text), cache


def test_warm_byte_check_catches_a_corrupted_cache_entry(cli, tmp_path):
    runner, cache = _warm_runner(cli, tmp_path)
    op = workloads.Op("warm", SMALL_WARM, {"kind": "warm"})
    assert runner.run_op(0, op).status == "ok"
    for path in sorted(cache.rglob("*.json")):
        entry = json.loads(path.read_text())
        if entry["status"] == "pass":
            entry["outcome"]["case"] = "case2" if entry["outcome"]["case"] != "case2" else "case1"
            path.write_text(json.dumps(entry, sort_keys=True))
            break
    assert runner.run_op(1, op).status in ("wrong", "raised")


def test_traced_pass_matches_untraced_bytes_and_counts_cache_hits(cli, tmp_path):
    runner, _ = _warm_runner(cli, tmp_path)
    ops = [workloads.Op("warm", SMALL_WARM, {"kind": "warm"})]
    _, failed, m, info = client.run_traced(runner, ops, seconds=1.0, spans=None)
    assert failed == 0 and info["identity_mismatches"] == []
    assert m["cache.hit_frac"]["value"] == 1.0
    assert m["cache.get_calls"]["value"] == 20  # k in 3..4, n in 3..12
    assert m["cache.spot_checks"]["value"] == 1
    assert m["cache.put_calls"]["value"] == 0


def test_workloads_follow_the_seed_and_keep_the_fixed_cells():
    assert workloads.cold_ops(5) == workloads.cold_ops(5)
    assert workloads.cold_ops(5) != workloads.cold_ops(6)
    shared = slice(8, 8 + workloads.SHARED_OPS)
    assert workloads.cold_ops(5)[shared] == workloads.cold_ops(6)[shared]
    fixed = workloads.CLIFF_CELLS + workloads.KNOWN_EXCEPTIONS
    labels = {op.label for op in workloads.cold_ops(5)[: len(fixed)]}
    assert labels == {f"cell:{k}:{n}" for k, n in fixed}
    assert workloads.conjecture_status(3, 7) == "expected-fail"
    assert workloads.conjecture_status(4, 11) == "skip"
    assert workloads.conjecture_status(4, 12) == "pass"
