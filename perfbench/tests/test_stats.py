import pytest

from stats import OpRecord, op_metrics, percentile


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile([3.0, 1.0], 50) == pytest.approx(2.0)
    assert percentile([7.0], 90) == 7.0


def test_op_metrics_counts_caps_as_failed_and_max_reads_the_cap():
    records = [OpRecord(i, f"op{i}", "ok", 0.1 * (i + 1)) for i in range(8)]
    records.append(OpRecord(8, "slow", "capped", 2.0004))
    records.append(OpRecord(9, "bad", "wrong", 0.05))
    m = op_metrics(records)
    assert m["ops_per_s"] == pytest.approx(8 / sum(r.latency for r in records))
    assert m["op_s_max"] == 2.0004
    assert m["op_s_p50"] == pytest.approx(percentile([r.latency for r in records], 50))
    assert m["uncapped_frac"] == pytest.approx(9 / 10)
    assert m["ok_frac"] == pytest.approx(8 / 10)


def test_op_metrics_needs_an_op():
    with pytest.raises(ValueError):
        op_metrics([])
