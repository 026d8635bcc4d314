"""CLI behavior: exit codes, determinism, schema rejection, fault injection."""

import json

import pytest

from groupsampling.cli import bundled_scenario_paths, load_config, main


@pytest.fixture()
def scenario_path():
    paths = {p.rsplit("/", 1)[-1].removesuffix(".json"): p
             for p in bundled_scenario_paths()}
    return paths


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


class TestAnalyze:
    def test_identity_passes(self, scenario_path, capsys):
        code, out = run_cli(["analyze", scenario_path["identity"]], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["diagnostics"]["is_frame"] is True
        assert report["diagnostics"]["alpha"] == 1.0

    def test_nonframe_exits_one(self, scenario_path, capsys):
        code, out = run_cli(["analyze", scenario_path["nonframe_counterexample"]], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["diagnostics"]["delta"] == 0.0

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "model": {"type": "translation", "moduli": [-4], "H_strides": [1],
                      "phi": {"moduli": [-4], "re": []}, "generators": []},
            "probes": [],
        }))
        code, _ = run_cli(["analyze", str(bad)], capsys)
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path, scenario_path, capsys):
        payload = json.loads(open(scenario_path["identity"]).read())
        payload["surprise"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, _ = run_cli(["analyze", str(bad)], capsys)
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _ = run_cli(["analyze", "/nonexistent/config.json"], capsys)
        assert code == 2

    def test_null_frame_tolerance_is_the_scale_aware_default(self, tmp_path, scenario_path,
                                                            capsys):
        payload = json.loads(open(scenario_path["identity"]).read())
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({**payload, "tolerances": {"frame": None}}))
        assert load_config(str(path)).tolerance("frame") is None
        code, out = run_cli(["analyze", str(path)], capsys)
        assert (code, out) == run_cli(["analyze", scenario_path["identity"]], capsys)
        assert json.loads(out)["diagnostics"]["tol"] == 1e-10


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["identity", "shannon_z4", "finite_index_z8",
                                      "semidirect_c2"])
    def test_bundled_scenarios_pass(self, scenario_path, capsys, name):
        code, out = run_cli(["roundtrip", scenario_path[name]], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(c["pass"] for c in report["checks"])

    def test_nonframe_fails(self, scenario_path, capsys):
        code, out = run_cli(["roundtrip", scenario_path["nonframe_counterexample"]],
                            capsys)
        assert code == 1
        assert "error" in json.loads(out)

    def test_deterministic_output(self, scenario_path, capsys):
        _, first = run_cli(["roundtrip", scenario_path["finite_index_z8"],
                            "--seed", "7"], capsys)
        _, second = run_cli(["roundtrip", scenario_path["finite_index_z8"],
                             "--seed", "7"], capsys)
        assert first == second

    def test_seed_changes_draw_not_verdict(self, scenario_path, capsys):
        code1, first = run_cli(["roundtrip", scenario_path["shannon_z4"],
                                "--seed", "1"], capsys)
        code2, second = run_cli(["roundtrip", scenario_path["shannon_z4"],
                                 "--seed", "2"], capsys)
        assert code1 == code2 == 0
        assert json.loads(first)["rng"]["seed"] == 1
        assert json.loads(second)["rng"]["seed"] == 2

    def test_family_override(self, scenario_path, capsys):
        code, out = run_cli(["roundtrip", scenario_path["finite_index_z8"],
                             "--left-inverse", "family"], capsys)
        assert code == 0
        assert json.loads(out)["left_inverse"] == "family"

    def test_report_file_and_env_dir(self, scenario_path, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GROUPSAMPLING_REPORT_DIR", str(tmp_path))
        code, out = run_cli(["roundtrip", scenario_path["identity"],
                             "--report", "sub/report.json"], capsys)
        assert code == 0
        written = (tmp_path / "sub" / "report.json").read_text()
        assert written == out


class TestVerify:
    def test_all_bundled_pass(self, capsys):
        code, out = run_cli(["verify", "--all"], capsys)
        assert code == 0
        report = json.loads(out)
        names = [s["scenario"] for s in report["scenarios"]]
        assert names == ["identity", "shannon_z4", "finite_index_z8", "semidirect_c2",
                         "nonframe_counterexample"]
        assert all(s["pass"] for s in report["scenarios"])

    def test_nonframe_runs_necessity_probe(self, scenario_path, capsys):
        code, out = run_cli(["verify", scenario_path["nonframe_counterexample"]], capsys)
        assert code == 0
        checks = {c["name"] for c in json.loads(out)["scenarios"][0]["checks"]}
        assert "necessity_witness_annihilated" in checks

    def test_semidirect_checks_present(self, scenario_path, capsys):
        code, out = run_cli(["verify", scenario_path["semidirect_c2"]], capsys)
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["scenarios"][0]["checks"]}
        assert checks["composition_law"]["value"] == 0.0
        assert checks["quasi_regular_unitarity"]["value"] == 0.0

    def test_injected_fault_fails(self, scenario_path, capsys):
        code, out = run_cli(["verify", scenario_path["shannon_z4"], "--inject-fault"],
                            capsys)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["scenarios"][0]["checks"]}
        assert not checks["left_inverse_residual"]["pass"]

    @pytest.mark.parametrize("kind, error", [
        ("square", "transfer matrix is singular at character (1, 2) (|det|=1.611e-07, "
                   "threshold 2.421e-02)"),
        ("moore_penrose", "left inverse residual 5.000e-01 exceeds 1e-09"),
    ], ids=["square", "moore_penrose"])
    def test_a_frame_whose_procedure_is_refused_fails_with_its_error(
            self, singular_square_system, tmp_path, capsys, kind, error):
        """The system passes the frame verdict, so verify builds its procedure, which the
        dual refuses: the scenario names the error and fails, as roundtrip reports it."""
        model, system, _ = singular_square_system
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({"name": "singular", "model": model.to_json_dict(),
                                    "system": system.to_json_dict(),
                                    "left_inverse": {"kind": kind}}))
        code, out = run_cli(["verify", str(path)], capsys)
        assert code == 1
        (entry,) = json.loads(out)["scenarios"]
        assert list(entry) == ["scenario", "scenario_kind", "checks", "error", "pass"]
        assert entry["error"] == error and entry["pass"] is False
        assert all(c["pass"] for c in entry["checks"])
        code, out = run_cli(["roundtrip", str(path)], capsys)
        assert code == 1 and json.loads(out)["error"] == error
        assert run_cli(["analyze", str(path)], capsys)[0] == 0

    def test_empty_scenario_list_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_determinism(self, capsys):
        _, first = run_cli(["verify", "--all", "--seed", "3"], capsys)
        _, second = run_cli(["verify", "--all", "--seed", "3"], capsys)
        assert first == second
