"""``roundtrip --left-inverse square`` on every bundled scenario: a verdict or a usage error."""

import json

import pytest

from groupsampling.cli import bundled_scenario_paths, main

# exit codes: 0 stable and reconstructed, 1 not stable, 2 a square dual of a non-square system
EXPECTED = {
    "identity": 0,
    "shannon_z4": 0,
    "finite_index_z8": 0,
    "semidirect_c2": 2,  # 4x2
    "nonframe_counterexample": 1,
}


@pytest.mark.parametrize("path", bundled_scenario_paths(),
                         ids=lambda p: p.rsplit("/", 1)[-1].removesuffix(".json"))
def test_square_left_inverse_exit_code(path, capsys):
    name = path.rsplit("/", 1)[-1].removesuffix(".json")
    code = main(["roundtrip", path, "--left-inverse", "square"])
    out, err = capsys.readouterr()
    assert code == EXPECTED[name]
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "square" in err
    else:
        assert err == ""
        report = json.loads(out)
        assert report["exit_code"] == code
        if code == 0:
            assert report["left_inverse"] == "square"
