"""Scenario configuration: strict parsing, validation and object construction.

Configurations are plain JSON.  Validation is strict: unknown keys anywhere
raise :class:`SchemaError` before any numerics run, so typos fail fast with
exit code 2 instead of silently changing a run.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError, json_integer
from .frames import LEFT_INVERSE_RESIDUAL_TOL
from .groups import GroupSequence, GroupSpec, ProductSubgroup
from .models import SemidirectModel, TranslationModel
from .sampling import LEFT_INVERSE_KINDS
from .systems import SequenceMatrix, TransferMatrix

DEFAULT_TOLERANCES = {
    "frame": None,          # None selects the scale-aware default
    "residual": 1e-9,
    "left_inverse": LEFT_INVERSE_RESIDUAL_TOL,
    "interpolation": 1e-8,
    "semidirect_residual": 1e-8,
    "foundation": 1e-10,
}


def _require_keys(data: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _int_list(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a non-empty list of integers")
    out = []
    for v in value:
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError(f"{where}: expected integers, got {v!r}")
        out.append(v)
    return tuple(out)


def _finite(value, where: str, expected: str = "finite numbers", least: float = -math.inf) -> float:
    """A JSON number as a finite float >= ``least``: no bool, NaN, inf or int beyond the doubles."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the doubles
            number = math.inf
        if math.isfinite(number) and number >= least:
            return number
    raise SchemaError(f"{where}: expected {expected}, got {value!r}")


def _float_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list of numbers")
    return [_finite(v, where) for v in value]


def _finite_values(data, where: str):
    """A system or transfer payload through ``json_integer`` (rows, cols) and :func:`_finite`."""
    if isinstance(data, dict):
        return {k: _finite_values(v, where) if k in ("entries", "re", "im")
                else json_integer(v, f"{where}.{k}", least=1) if k in ("rows", "cols") else v
                for k, v in data.items()}
    if isinstance(data, list):
        return [_finite_values(v, where) if isinstance(v, (dict, list)) else _finite(v, where)
                for v in data]
    return data


def parse_seed(value, where: str) -> int:
    """A seed is an integer >= 0, as PCG64 needs; anything else is a configuration error."""
    return json_integer(value, where)


def parse_tolerance(value, where: str) -> float:
    """A tolerance is a finite number >= 0; anything else is a configuration error."""
    return _finite(value, where, "a finite number >= 0", least=0.0)


def parse_sequence(data: dict, group: GroupSpec, where: str) -> GroupSequence:
    _require_keys(data, {"moduli", "re", "im"}, {"moduli", "re"}, where)
    moduli = _int_list(data["moduli"], f"{where}.moduli")
    if moduli != group.moduli:
        raise SchemaError(f"{where}: moduli {list(moduli)} do not match the "
                          f"model group {list(group.moduli)}")
    re = _float_list(data["re"], f"{where}.re")
    im = _float_list(data.get("im", [0.0] * len(re)), f"{where}.im")
    if len(re) != group.order or len(im) != group.order:
        raise SchemaError(f"{where}: expected {group.order} values")
    return GroupSequence(group, np.asarray(re) + 1j * np.asarray(im))


@contextmanager
def _schema_errors(where: str):
    """Report the library's own validation failures as configuration errors."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_group(data: dict, where: str) -> GroupSpec:
    moduli = _int_list(data["moduli"], f"{where}.moduli")
    with _schema_errors(f"{where}.moduli"):
        return GroupSpec(moduli)


def _parse_strides(data, group: GroupSpec, where: str) -> ProductSubgroup:
    strides = _int_list(data, where)
    with _schema_errors(where):
        return ProductSubgroup(group, strides)


def parse_model(data: dict, where: str = "model"):
    if not isinstance(data, dict) or "type" not in data:
        raise SchemaError(f"{where}: expected an object with a 'type' key")
    kind = data["type"]
    if kind == "translation":
        _require_keys(data, {"type", "moduli", "H_strides", "phi", "generators"},
                      {"type", "moduli", "H_strides", "phi", "generators"}, where)
        group = _parse_group(data, where)
        sub = _parse_strides(data["H_strides"], group, f"{where}.H_strides")
        phi = parse_sequence(data["phi"], group, f"{where}.phi")
        gens = data["generators"]
        if not isinstance(gens, list) or not gens:
            raise SchemaError(f"{where}.generators: expected a non-empty list")
        generators = tuple(parse_sequence(g, group, f"{where}.generators[{i}]")
                           for i, g in enumerate(gens))
        return TranslationModel(group, phi, sub, generators)
    if kind == "semidirect":
        _require_keys(data, {"type", "moduli", "Gamma", "H_strides", "phi", "varphi"},
                      {"type", "moduli", "Gamma", "H_strides", "phi", "varphi"}, where)
        group = _parse_group(data, where)
        sub = _parse_strides(data["H_strides"], group, f"{where}.H_strides")
        phi = parse_sequence(data["phi"], group, f"{where}.phi")
        varphi = parse_sequence(data["varphi"], group, f"{where}.varphi")
        gamma = data["Gamma"]
        if gamma not in ("C1", "C2", "C4"):
            raise SchemaError(f"{where}.Gamma: expected one of C1, C2, C4, got {gamma!r}")
        with _schema_errors(where):
            return SemidirectModel(group, gamma, sub, phi, varphi)
    raise SchemaError(f"{where}.type: expected 'translation' or 'semidirect', got {kind!r}")


@dataclass(eq=False)
class LeftInverseChoice:
    kind: str = "moore_penrose"
    seed: int | None = None
    scale: float = 1.0
    transfer: TransferMatrix | None = None

    def parameter_for(self, system: SequenceMatrix) -> TransferMatrix | None:
        """Materialize the family parameter for a given system, if applicable."""
        if self.kind != "family":
            return None
        if self.transfer is not None:
            return self.transfer
        rng = np.random.Generator(np.random.PCG64(0 if self.seed is None else self.seed))
        shape = (system.group.order, system.cols, system.rows)
        mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return TransferMatrix(system.group, self.scale * mats)


@dataclass(eq=False)
class ScenarioConfig:
    """One validated scenario: model, sampling system source, options."""

    name: str
    model: TranslationModel | SemidirectModel
    probes: list[GroupSequence] | None
    system: SequenceMatrix | None
    finite_index_strides: tuple[int, ...] | None
    left_inverse: LeftInverseChoice
    seed: int
    tolerances: dict = field(default_factory=dict)

    def tolerance(self, key: str) -> float | None:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])


def parse_config(data: dict) -> ScenarioConfig:
    allowed = {"name", "model", "probes", "system", "finite_index", "left_inverse",
               "seed", "tolerances"}
    _require_keys(data, allowed, {"name", "model"}, "config")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("config.name: expected a non-empty string")
    model = parse_model(data["model"])

    has_probes = "probes" in data
    has_system = "system" in data
    if has_probes == has_system:
        raise SchemaError("config: provide exactly one of 'probes' or 'system'")

    ambient = model.torus if isinstance(model, SemidirectModel) else model.ambient
    probes = None
    system = None
    if has_probes:
        raw = data["probes"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("config.probes: expected a non-empty list")
        probes = [parse_sequence(p, ambient, f"config.probes[{i}]")
                  for i, p in enumerate(raw)]
    else:
        raw = _finite_values(data["system"], "config.system")
        _require_keys(raw, {"moduli", "rows", "cols", "entries"},
                      {"moduli", "rows", "cols", "entries"}, "config.system")
        try:
            system = SequenceMatrix.from_json_dict(raw)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise SchemaError(f"config.system: {exc}") from exc

    finite_index = None
    if "finite_index" in data:
        if isinstance(model, SemidirectModel):
            raise SchemaError("config.finite_index: not supported for semidirect models")
        block = data["finite_index"]
        _require_keys(block, {"strides"}, {"strides"}, "config.finite_index")
        finite_index = _int_list(block["strides"], "config.finite_index.strides")
        with _schema_errors("config.finite_index.strides"):
            model.subgroup.refine(finite_index)

    left = LeftInverseChoice()
    if "left_inverse" in data:
        block = data["left_inverse"]
        _require_keys(block, {"kind", "seed", "scale", "transfer"}, {"kind"},
                      "config.left_inverse")
        kind = block["kind"]
        if kind not in LEFT_INVERSE_KINDS:
            raise SchemaError(f"config.left_inverse.kind: expected one of "
                              f"{LEFT_INVERSE_KINDS}, got {kind!r}")
        seed = block.get("seed")
        if seed is not None:
            seed = parse_seed(seed, "config.left_inverse.seed")
        scale = _finite(block.get("scale", 1.0), "config.left_inverse.scale", "a finite number")
        transfer = _finite_values(block.get("transfer"), "config.left_inverse.transfer")
        if transfer is not None:
            try:
                transfer = TransferMatrix.from_json_dict(transfer)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise SchemaError(f"config.left_inverse.transfer: {exc}") from exc
        left = LeftInverseChoice(kind=kind, seed=seed, scale=scale,
                                 transfer=transfer)

    seed = parse_seed(data.get("seed", 0), "config.seed")

    tolerances = {}
    if "tolerances" in data:
        block = data["tolerances"]
        _require_keys(block, set(DEFAULT_TOLERANCES), set(), "config.tolerances")
        for key, value in block.items():
            if value is None and key == "frame":
                tolerances[key] = None
                continue
            tolerances[key] = parse_tolerance(value, f"config.tolerances.{key}")

    return ScenarioConfig(name=name, model=model, probes=probes, system=system,
                          finite_index_strides=finite_index, left_inverse=left,
                          seed=seed, tolerances=tolerances)
