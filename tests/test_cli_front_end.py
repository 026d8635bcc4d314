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
from groupsampling.cli import build_parser, bundled_scenario_paths, load_config, main
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


def test_one_parser_serves_every_call(capsys):
    """The parser is built once, and no call leaves options or defaults for the next."""
    assert build_parser() is build_parser()
    first = run_cli(["roundtrip", SCENARIOS["identity"]], capsys)
    run_cli(["roundtrip", SCENARIOS["identity"], "--seed", "7", "--tol", "1e-3",
             "--left-inverse", "family", "--timings"], capsys)
    code, out, err = run_cli(["verify"], capsys)
    assert code == 2 and out == "" and "verify needs scenario files or --all" in err
    assert run_cli(["roundtrip", SCENARIOS["identity"]], capsys) == first


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


_ENTRIES = [{"re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}]


@pytest.mark.parametrize("changes, key", [
    *[({"system": {"moduli": [4], "rows": rows, "cols": 1, "entries": _ENTRIES}},
       "config.system.rows") for rows in (1.7, True, "1", 0)],
    ({"system": {"moduli": [4], "rows": 1, "cols": 1.0, "entries": _ENTRIES}},
     "config.system.cols"),
    ({"left_inverse": {"kind": "family", "transfer": {
        "moduli": [4], "rows": 1.5, "cols": True, "re": [[[1.0]]] * 4, "im": [[[0.0]]] * 4}}},
     "config.left_inverse.transfer.rows"),
])
@pytest.mark.parametrize("command", ["analyze", "roundtrip"])
def test_rows_and_cols_must_be_integers(command, changes, key, tmp_path, capsys):
    payload = json.loads(Path(SCENARIOS["identity"]).read_text(encoding="utf-8"))
    if "system" in changes:  # a config gives probes or a system, not both
        del payload["probes"]
    payload.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: expected an integer >= 1, got ")
    assert err.count("\n") == 1


def _with_system(name, system):
    payload = json.loads(Path(SCENARIOS[name]).read_text(encoding="utf-8"))
    del payload["probes"]
    return {**payload, "system": system}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_system_the_probes_give_fits(name, tmp_path, capsys):
    """A system with one column per generator of the resolved model runs as the probes do:
    generators x cosets columns for finite_index, one per rotation for semidirect."""
    system = load_config(SCENARIOS[name]).system
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_with_system(name, system.to_json_dict())))
    code, out, _ = run_cli(["analyze", SCENARIOS[name]], capsys)
    given_code, given, err = run_cli(["analyze", str(path)], capsys)
    assert given_code == code and err == ""
    assert json.loads(given)["system"] == json.loads(out)["system"]


@pytest.mark.parametrize("system", [
    {"moduli": [2], "rows": 1, "cols": 1, "entries": [{"re": [1.0, 0.0]}]},
    {"moduli": [4], "rows": 2, "cols": 2, "entries": _ENTRIES * 4},
], ids=["wrong_group", "wrong_cols"])
@pytest.mark.parametrize("command", ["analyze", "roundtrip", "verify"])
def test_a_system_that_does_not_fit_the_model_exits_two(command, system, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with_system("identity", system)))
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: config.system: expected 1 columns on [4], got ")
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


@pytest.mark.parametrize("command", ["analyze", "roundtrip", "verify"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_two(command, kind, tmp_path, capsys):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read config file {path}: ")
    assert err.count("\n") == 1


def test_missing_config_keeps_its_message(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: config file not found: {path}\n")


@pytest.mark.parametrize("target", ["directory", "under_a_file"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_unwritable_report_exits_two_before_stdout(command, target, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    report = tmp_path if target == "directory" else tmp_path / "file" / "report.json"
    code, out, err = run_cli([command, SCENARIOS["identity"], "--report", str(report)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err
    assert err.count("\n") == 1

