"""Scenario configuration: strict parsing, validation and resolution.

Configurations are plain JSON.  Validation is strict: unknown keys anywhere
raise :class:`SchemaError` before any numerics run, so typos fail fast with
exit code 2 instead of silently changing a run.  The sequences, the ``system``
and the ``left_inverse.transfer`` are read by their classes' ``from_json_dict``,
with the payload rules of :mod:`.errors`; this module reads the rest.

:func:`parse_config` returns the resolved scenario: its kind, the translation
model that is sampled (a finite-index regrouping, or the reduction of a
semidirect model) and the system, which must fit that model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SchemaError, _finite, _int_list, _require_keys, json_integer
from .frames import LEFT_INVERSE_RESIDUAL_TOL
from .groups import GroupSequence, GroupSpec, ProductSubgroup
from .models import (_ROTATION_SETS, SemidirectModel, TranslationModel, sample_matrix,
                     semidirect_reduce)
from .sampling import LEFT_INVERSE_KINDS, FiniteIndexReduction, finite_index_model
from .systems import SequenceMatrix, TransferMatrix

DEFAULT_TOLERANCES = {
    "frame": None,          # None selects the scale-aware default
    "residual": 1e-9,
    "left_inverse": LEFT_INVERSE_RESIDUAL_TOL,
    "interpolation": 1e-8,
    "semidirect_residual": 1e-8,
    "foundation": 1e-10,
}


def parse_seed(value, where: str) -> int:
    """A seed is an integer >= 0, as PCG64 needs; anything else is a configuration error."""
    return json_integer(value, where)


def parse_tolerance(value, where: str) -> float:
    """A tolerance is a finite number >= 0; anything else is a configuration error."""
    return _finite(value, where, "a finite number >= 0", least=0.0)


@contextmanager
def _schema_errors(where: str):
    """Report the library's own validation failures as configuration errors."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def parse_model(data: dict, where: str = "model"):
    if not isinstance(data, dict) or "type" not in data:
        raise SchemaError(f"{where}: expected an object with a 'type' key")
    kind = data["type"]
    extra = {"translation": {"generators"}, "semidirect": {"Gamma", "varphi"}}
    if not isinstance(kind, str) or kind not in extra:
        raise SchemaError(f"{where}.type: expected 'translation' or 'semidirect', got {kind!r}")
    keys = {"type", "moduli", "H_strides", "phi", *extra[kind]}
    _require_keys(data, keys, keys, where)
    group = GroupSpec(_int_list(data["moduli"], f"{where}.moduli"))
    strides = _int_list(data["H_strides"], f"{where}.H_strides")
    with _schema_errors(f"{where}.H_strides"):
        sub = ProductSubgroup(group, strides)
    phi = GroupSequence.from_json_dict(data["phi"], f"{where}.phi", group)
    if kind == "translation":
        gens = data["generators"]
        if not isinstance(gens, list) or not gens:
            raise SchemaError(f"{where}.generators: expected a non-empty list")
        generators = tuple(GroupSequence.from_json_dict(g, f"{where}.generators[{i}]", group)
                           for i, g in enumerate(gens))
        return TranslationModel(group, phi, sub, generators)
    varphi = GroupSequence.from_json_dict(data["varphi"], f"{where}.varphi", group)
    gamma = data["Gamma"]
    if not isinstance(gamma, str) or gamma not in _ROTATION_SETS:
        raise SchemaError(f"{where}.Gamma: expected one of {', '.join(_ROTATION_SETS)}, "
                          f"got {gamma!r}")
    with _schema_errors(where):
        return SemidirectModel(group, gamma, sub, phi, varphi)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One validated scenario, resolved.  ``kind`` is ``translation``, ``finite_index`` or
    ``semidirect``; ``source`` is the model the file gives, ``model`` the translation model
    that is sampled, and ``reduction`` the finite-index regrouping of ``source``, if any."""

    name: str
    kind: str
    source: TranslationModel | SemidirectModel
    model: TranslationModel
    reduction: FiniteIndexReduction | None
    probes: tuple[GroupSequence, ...] | None
    given_system: SequenceMatrix | None
    left_inverse: LeftInverseChoice
    seed: int
    tolerances: dict = field(default_factory=dict)

    @cached_property
    def system(self) -> SequenceMatrix:
        """The given system, or else the probes' sample matrix, built on first read."""
        if self.given_system is not None:
            return self.given_system
        return sample_matrix(self.model, self.probes)

    def tolerance(self, key: str, override: float | None = None) -> float | None:
        """``override`` (a command-line ``--tol``) if given, else the configured value."""
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key]) if override is None else override


def parse_config(data: dict) -> ScenarioConfig:
    allowed = {"name", "model", "probes", "system", "finite_index", "left_inverse",
               "seed", "tolerances"}
    _require_keys(data, allowed, {"name", "model"}, "config")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("config.name: expected a non-empty string")
    source = parse_model(data["model"])
    kind, model, reduction = "translation", source, None
    if isinstance(source, SemidirectModel):
        kind, model = "semidirect", semidirect_reduce(source).model

    if ("probes" in data) == ("system" in data):
        raise SchemaError("config: provide exactly one of 'probes' or 'system'")

    probes = system = None
    if "probes" in data:
        raw = data["probes"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("config.probes: expected a non-empty list")
        probes = tuple(GroupSequence.from_json_dict(p, f"config.probes[{i}]", model.ambient)
                       for i, p in enumerate(raw))
    else:
        system = SequenceMatrix.from_json_dict(data["system"], "config.system")

    if "finite_index" in data:
        if kind == "semidirect":
            raise SchemaError("config.finite_index: not supported for semidirect models")
        block = data["finite_index"]
        _require_keys(block, {"strides"}, {"strides"}, "config.finite_index")
        strides = _int_list(block["strides"], "config.finite_index.strides")
        with _schema_errors("config.finite_index.strides"):
            reduction = finite_index_model(source, strides)
        kind, model = "finite_index", reduction.model

    left = LeftInverseChoice()
    if "left_inverse" in data:
        block = data["left_inverse"]
        _require_keys(block, {"kind", "seed", "scale", "transfer"}, {"kind"},
                      "config.left_inverse")
        left_kind = block["kind"]
        if left_kind not in LEFT_INVERSE_KINDS:
            raise SchemaError(f"config.left_inverse.kind: expected one of "
                              f"{LEFT_INVERSE_KINDS}, got {left_kind!r}")
        seed = block.get("seed")
        if seed is not None:
            seed = parse_seed(seed, "config.left_inverse.seed")
        scale = _finite(block.get("scale", 1.0), "config.left_inverse.scale", "a finite number")
        transfer = block.get("transfer")
        if transfer is not None:
            if left_kind != "family" or {"seed", "scale"} & set(block):
                raise SchemaError(f"config.left_inverse.transfer: only kind 'family' without "
                                  f"'seed' or 'scale' takes a transfer, got {sorted(block)}")
            transfer = TransferMatrix.from_json_dict(transfer, "config.left_inverse.transfer")
        left = LeftInverseChoice(kind=left_kind, seed=seed, scale=scale,
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

    # last, so that a config with several errors reports the first of those above
    habs, n = model.subgroup.abstract_group, model.n_generators
    if system is not None and (system.group, system.cols) != (habs, n):
        raise SchemaError(f"config.system: expected {n} columns on {list(habs.moduli)}, got "
                          f"{system.cols} on {list(system.group.moduli)}")
    return ScenarioConfig(name=name, kind=kind, source=source, model=model,
                          reduction=reduction, probes=probes, given_system=system,
                          left_inverse=left, seed=seed, tolerances=tolerances)
