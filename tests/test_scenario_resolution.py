"""A parsed scenario is resolved: kind, sampled model, reduction and system; holders are frozen."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, SchemaError,
                           SemidirectModel, TranslationModel, coefficients_of,
                           finite_index_model, make_procedure, moore_penrose, sample_matrix,
                           semidirect_reduce)
from groupsampling import cli, config, models
from groupsampling.cli import build_procedure, bundled_scenario_paths, load_config, main

SCENARIOS = {Path(p).stem: p for p in bundled_scenario_paths()}


def _payload(name):
    return json.loads(Path(SCENARIOS[name]).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, kind", [("identity", "translation"),
                                        ("finite_index_z8", "finite_index"),
                                        ("semidirect_c2", "semidirect")])
def test_parse_config_resolves_the_kind_and_the_sampled_model(name, kind):
    scenario = load_config(SCENARIOS[name])
    assert scenario.kind == kind
    assert isinstance(scenario.model, TranslationModel)
    assert (scenario.reduction is not None) == (kind == "finite_index")
    if kind == "translation":
        assert scenario.model is scenario.source
    elif kind == "finite_index":
        assert scenario.reduction.base is scenario.source
        assert scenario.model is scenario.reduction.model
    else:
        assert isinstance(scenario.source, SemidirectModel)
        assert scenario.model.n_generators == scenario.source.n_rotations
    habs = scenario.model.subgroup.abstract_group
    assert (scenario.system.group, scenario.system.cols) == (habs, scenario.model.n_generators)


def test_the_probes_system_is_built_on_first_read_and_kept(monkeypatch):
    calls = []

    def counting(model, probes):
        calls.append(model)
        return sample_matrix(model, probes)

    monkeypatch.setattr(config, "sample_matrix", counting)
    scenario = load_config(SCENARIOS["finite_index_z8"])
    assert calls == []
    system = scenario.system
    assert scenario.system is system and calls == [scenario.model]


def test_a_given_system_is_the_system():
    payload = _payload("identity")
    given = load_config(SCENARIOS["identity"]).system
    del payload["probes"]
    payload["system"] = given.to_json_dict()
    scenario = config.parse_config(payload)
    assert scenario.system is scenario.given_system
    assert scenario.system.values.tobytes() == given.values.tobytes()


def test_parse_config_rejects_a_system_that_does_not_fit():
    payload = _payload("finite_index_z8")
    scenario = load_config(SCENARIOS["finite_index_z8"])
    system, base = scenario.system, sample_matrix(scenario.source, scenario.probes)
    del payload["probes"]
    payload["system"] = base.to_json_dict()  # fits the base model, not the regrouped one
    expected = f"config.system: expected {system.cols} columns on {list(system.group.moduli)}, "
    with pytest.raises(SchemaError, match="^" + re.escape(expected) + "got 1 on "):
        config.parse_config(payload)
    payload["system"] = system.to_json_dict()
    assert config.parse_config(payload).kind == "finite_index"


@pytest.mark.parametrize("changes, first", [
    # the fit is checked after every key is read, as the commands checked it before
    ({"tolerances": {"residual": -1}}, "config.tolerances.residual"),
    # the strides are checked where the finite_index block is read, before the tolerances
    ({"finite_index": {"strides": [3]}, "tolerances": {"residual": -1}},
     "config.finite_index.strides"),
])
def test_a_config_with_several_errors_reports_the_first(changes, first):
    payload = {k: v for k, v in _payload("identity").items() if k != "probes"}
    payload["system"] = {"moduli": [4], "rows": 2, "cols": 2,
                         "entries": [{"re": [1.0, 0.0, 0.0, 0.0]}] * 4}
    with pytest.raises(SchemaError, match=rf"^{first}: "):
        config.parse_config({**payload, **changes})


@pytest.mark.parametrize("gamma", [["C4"], 4, None, "C3"])
def test_a_gamma_outside_the_rotation_sets_exits_two(gamma, tmp_path, capsys):
    payload = _payload("semidirect_c2")
    payload["model"]["Gamma"] = gamma
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(payload))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: model.Gamma: expected one of "
                            f"{', '.join(models._ROTATION_SETS)}, got {gamma!r}\n")


@pytest.mark.parametrize("configured, left_kind, seed", [
    ("family", None, 7),              # the configured choice, with its own seed
    ("family", "family", 7),
    ("moore_penrose", "family", 1),   # an override draws with the config seed
    ("family", "moore_penrose", None),
    ("moore_penrose", "mp", None),
])
def test_build_procedure_takes_the_family_parameter_from_the_choice(configured, left_kind,
                                                                    seed):
    payload = _payload("identity")  # its config seed is 1
    payload["left_inverse"] = {"kind": configured, "seed": 7}
    scenario = config.parse_config(payload)
    proc = build_procedure(scenario, left_kind)
    kind = left_kind or configured
    c = (None if seed is None
         else config.LeftInverseChoice("family", seed=seed).parameter_for(scenario.system))
    expected = make_procedure(scenario.model, system=scenario.system, left_inverse=kind, c=c)
    assert proc.dual.kind == expected.dual.kind
    assert proc.dual.transfer.matrices.tobytes() == expected.dual.transfer.matrices.tobytes()


def test_the_tol_option_overrides_the_configured_frame_tolerance():
    payload = _payload("identity")
    payload["tolerances"] = {"frame": 0.5}
    scenario = config.parse_config(payload)
    assert scenario.tolerance("frame", 0.0) == 0.0
    for tol, used in ((None, 0.5), (1e-3, 1e-3)):
        assert build_procedure(scenario, tol=tol).diag.tol == used
        assert cli.cmd_analyze(scenario, tol)["diagnostics"]["tol"] == used


def _z8_model():
    g = GroupSpec((8,))
    rng = np.random.default_rng(3)
    return TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                            (GroupSequence(g, rng.standard_normal(8)),))


def _holders():
    model = _z8_model()
    proc = make_procedure(model, probes=[GroupSequence.delta(model.ambient)])
    g4 = GroupSpec((4, 4))
    sd = SemidirectModel(g4, "C2", ProductSubgroup(g4, (2, 2)), GroupSequence.delta(g4),
                         GroupSequence.delta(g4))
    return {"TranslationModel": (model, "generators"),
            "SemidirectModel": (sd, "rotations"),
            "SamplingProcedure": (proc, "dual"),
            "SamplingFunctions": (proc.sampling_functions, "betas"),
            "FiniteIndexReduction": (finite_index_model(model, (2,)), "model"),
            "SemidirectReduction": (semidirect_reduce(sd), "model"),
            "LeftInverse": (moore_penrose(proc.system), "transfer"),
            "ScenarioConfig": (load_config(SCENARIOS["identity"]), "model")}


@pytest.mark.parametrize("name", sorted(_holders()))
def test_holders_with_cached_results_are_frozen(name):
    holder, attribute = _holders()[name]
    before = getattr(holder, attribute)
    with pytest.raises(AttributeError):
        setattr(holder, attribute, before)
    with pytest.raises(AttributeError):
        setattr(holder, "unknown", None)
    assert getattr(holder, attribute) is before


def test_a_model_cannot_be_changed_under_its_cached_fibers():
    """Swapping the generators after a read would leave the fibers of the old ones in use."""
    model = _z8_model()
    f = model.generators[0]
    coefficients_of(model, f)
    new = GroupSequence(model.ambient, np.random.default_rng(4).standard_normal(8))
    for value in ((new,), [1, 2]):
        with pytest.raises(AttributeError):
            model.generators = value
    assert model.generators == (f,)
