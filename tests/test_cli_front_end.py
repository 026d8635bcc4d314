"""CLI front end: --timings from main, report encoding, usage errors that exit 2."""

import json
import math
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import TransferMatrix
from groupsampling.cli import bundled_scenario_paths, main
from groupsampling.config import parse_config
from groupsampling.report import render_report

SCENARIOS = {p.rsplit("/", 1)[-1].removesuffix(".json"): p
             for p in bundled_scenario_paths()}


def run_cli(argv, capsys):
    """Exit code, stdout and stderr of one in-process run; argparse's exits count as codes."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["analyze", SCENARIOS["identity"]],
    ["roundtrip", SCENARIOS["finite_index_z8"], "--seed", "7"],
    ["roundtrip", SCENARIOS["nonframe_counterexample"]],  # the early return of a non-frame
    ["verify", SCENARIOS["shannon_z4"]],
])
def test_timings_add_only_total_s(argv, capsys):
    code, plain, _ = run_cli(argv, capsys)
    timed_code, timed, _ = run_cli([*argv, "--timings"], capsys)
    plain, timed = json.loads(plain), json.loads(timed)
    assert "timings" not in plain
    timings = timed.pop("timings")
    assert list(timings) == ["total_s"]
    assert isinstance(timings["total_s"], float) and timings["total_s"] >= 0.0
    assert timed == plain
    assert timed_code == code == plain["exit_code"]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16,
                                  sys.float_info.max, -sys.float_info.max,
                                  sys.float_info.min, 2.0 ** 53 + 2.0])))
def test_report_floats_read_back_bit_for_bit(x):
    report = {"value": x, "checks": [{"value": x, "tolerance": None}]}
    back = json.loads(render_report(report))
    assert _bits(back["value"]) == _bits(x)
    assert _bits(back["checks"][0]["value"]) == _bits(x)
    assert back["checks"][0]["tolerance"] is None


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_report_rejects_non_finite(x):
    with pytest.raises(ValueError):
        render_report({"checks": [{"value": x}]})


def _config_with(tmp_path, **changes):
    payload = json.loads(Path(SCENARIOS["identity"]).read_text(encoding="utf-8"))
    payload.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))  # json writes NaN as the token NaN
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "roundtrip"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tol_option_exits_two(command, tol, capsys):
    code, out, err = run_cli([command, SCENARIOS["identity"], "--tol", tol], capsys)
    assert code == 2 and out == ""
    assert "argument --tol: invalid tolerance value" in err


@pytest.mark.parametrize("tolerances", [{"frame": -1}, {"residual": -1e-9},
                                        {"interpolation": math.nan}])
def test_bad_config_tolerance_exits_two(tolerances, tmp_path, capsys):
    path = _config_with(tmp_path, tolerances=tolerances)
    code, out, err = run_cli(["analyze", path], capsys)
    assert code == 2 and out == ""
    key = next(iter(tolerances))
    assert err.startswith(f"error: config.tolerances.{key}: expected a finite number >= 0")
    assert err.count("\n") == 1


@pytest.mark.parametrize("transfer", [{"moduli": [4]}, 5, [1, 2],
                                      {"moduli": [4], "rows": 1, "cols": 1,
                                       "re": [1.0], "im": [0.0]}])
def test_malformed_transfer_exits_two(transfer, tmp_path, capsys):
    path = _config_with(tmp_path, left_inverse={"kind": "family", "transfer": transfer})
    code, out, err = run_cli(["roundtrip", path], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: config.left_inverse.transfer: ")
    assert err.count("\n") == 1


def test_config_holds_the_parsed_transfer():
    payload = json.loads(Path(SCENARIOS["identity"]).read_text(encoding="utf-8"))
    transfer = {"moduli": [4], "rows": 1, "cols": 1,
                "re": [[[0.5]], [[1.0]], [[1.5]], [[2.0]]], "im": [[[0.0]]] * 4}
    payload["left_inverse"] = {"kind": "family", "transfer": transfer}
    choice = parse_config(payload).left_inverse
    assert isinstance(choice.transfer, TransferMatrix)
    assert choice.transfer.to_json_dict() == TransferMatrix.from_json_dict(transfer).to_json_dict()
    assert choice.parameter_for(None) is choice.transfer


@pytest.mark.parametrize("argv", [["roundtrip", SCENARIOS["identity"], "--seed", "-5"],
                                  ["verify", "--all", "--seed", "-1"]])
def test_negative_seed_option_exits_two(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"argument --seed: invalid seed value: '{argv[-1]}'" in err


@pytest.mark.parametrize("changes, key", [
    ({"seed": -5}, "config.seed"),
    ({"left_inverse": {"kind": "family", "seed": -3}}, "config.left_inverse.seed"),
])
@pytest.mark.parametrize("command", ["analyze", "roundtrip"])
def test_negative_config_seed_exits_two(command, changes, key, tmp_path, capsys):
    path = _config_with(tmp_path, **changes)
    code, out, err = run_cli([command, path], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: expected an integer >= 0, got -")
    assert err.count("\n") == 1
