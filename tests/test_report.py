"""The direct JSON writer behind `SweepReport.to_json`, against its oracle:
`json.dumps(as_dict(), sort_keys=True, indent=2) + "\\n"`."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiongen.cli import _build_parser
from torsiongen.report import ReportCell, SweepReport

CRITERION_9 = [
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


def oracle(rep: SweepReport) -> str:
    return json.dumps(rep.as_dict(), sort_keys=True, indent=2) + "\n"


def report_of(argv) -> SweepReport:
    args = _build_parser().parse_args(argv)
    return args.run(args)


def holding(value) -> SweepReport:
    cell = ReportCell.of({"k": 3, "n": 9}, "pass", {"value": value}, 0.25)
    return SweepReport.of("verify", {"value": value}, [cell], "0")


@pytest.mark.parametrize("argv", CRITERION_9, ids=[" ".join(a[:1] + a[2:4]) for a in CRITERION_9])
def test_criterion_9_reports_match_the_oracle(argv):
    # estimate's outcome holds floats
    rep = report_of(argv)
    assert rep.to_json() == oracle(rep)


def test_784_cell_sweep_cold_and_warm(tmp_path):
    argv = [
        "sweep", "--family", "conjecture", "--k", "3", "--k-max", "10",
        "--n", "3", "--n-max", "100", "--cache-dir", str(tmp_path),
    ]
    cold, warm = report_of(argv), report_of(argv)
    assert len(cold.cells) == len(warm.cells) == 784
    assert cold.to_json() == oracle(cold) == warm.to_json() == oracle(warm)


SPECIAL_TEXT = st.sampled_from(["", "é", "\x00\x1f\x7f", " \ud800", '"\\/', "😀"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats()  # NaN and the infinities included
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
    | st.text()
    | SPECIAL_TEXT
)
JSON_LIKE = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | SPECIAL_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_LIKE)
def test_writer_matches_the_oracle_on_json_like_values(value):
    rep = holding(value)
    assert rep.to_json() == oracle(rep)


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", {"k": 1j}])
def test_unsupported_types_raise_the_oracles_type_error(value):
    rep = holding(value)
    with pytest.raises(TypeError) as expected:
        oracle(rep)
    with pytest.raises(TypeError) as got:
        rep.to_json()
    assert str(got.value) == str(expected.value)
