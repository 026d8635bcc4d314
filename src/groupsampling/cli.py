"""Command-line front end: analyze, roundtrip and verify scenarios for CI.

Each command loads its scenarios with :func:`load_config`, which returns them
resolved by :func:`.config.parse_config`: the kind, the sampled model and the
system.  Exit codes: 0 all checks pass, 1 a numeric or stability check failed,
2 usage or configuration error.  Reports are deterministic for a fixed
config and seed; timing data is opt-in because it would break byte-level
reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .config import (LeftInverseChoice, ScenarioConfig, parse_config, parse_seed,
                     parse_tolerance)
from .duals import LeftInverse, verify_left_inverse
from .errors import (DimensionMismatchError, FrameConditionError, SchemaError,
                     SingularCharacterError)
from .frames import (DEFAULT_ORACLE_CAP, check_determinant_sandwich, diagnostics,
                     kernel_witness, oracle_frame_bounds)
from .groups import (GroupSequence, GroupSpec, convolve, dft, exact_norm_sq, idft,
                     involution)
from .models import (analysis_transform, compose_group_law, quasi_regular_apply,
                     sample_matrix, synthesize)
from .report import render_report
from .sampling import (LEFT_INVERSE_KINDS, SamplingProcedure, interpolation_check,
                       make_procedure, reconstruct_coefficients, reconstruct_function,
                       semidirect_sample_and_reconstruct, take_samples)
from .systems import TransferMatrix, VectorSequence, adjoint_system, apply, transfer

REPORT_DIR_ENV = "GROUPSAMPLING_REPORT_DIR"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

BUNDLED_SCENARIOS = ("identity", "shannon_z4", "finite_index_z8", "semidirect_c2",
                     "nonframe_counterexample")

FOUNDATION_DRAWS = 100  # random sequences per foundation identity of verify, and a quarter as pairs


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check(name: str, value: float, tolerance: float | None, ok: bool | None = None) -> dict:
    passed = bool(value <= tolerance) if ok is None else bool(ok)
    return {"name": name, "value": float(value),
            "tolerance": tolerance, "pass": passed}


def build_procedure(config: ScenarioConfig, left_kind: str | None = None,
                    tol: float | None = None) -> SamplingProcedure:
    """The scenario's procedure; a ``left_kind`` other than the configured one takes
    the config seed for a family parameter."""
    choice = config.left_inverse
    if left_kind is not None and left_kind != choice.kind:
        choice = LeftInverseChoice(kind=left_kind, seed=config.seed)
    return make_procedure(config.model, system=config.system, left_inverse=choice.kind,
                          c=choice.parameter_for(config.system),
                          tol=config.tolerance("frame", tol))


def load_config(path: str) -> ScenarioConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise SchemaError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or bytes that are not UTF-8
        raise SchemaError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(payload)


def bundled_scenario_paths() -> list[str]:
    root = resources.files("groupsampling").joinpath("scenarios")
    return [str(root.joinpath(f"{name}.json")) for name in BUNDLED_SCENARIOS]


def emit_report(report: dict, report_arg: str | None) -> None:
    text = render_report(report)
    if report_arg:  # first, so that a path that cannot be written leaves stdout empty
        path = Path(report_arg)
        directory = os.environ.get(REPORT_DIR_ENV)
        if directory and not path.is_absolute():
            path = Path(directory) / path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_analyze(config: ScenarioConfig, tol: float | None) -> dict:
    diag = diagnostics(config.system, config.tolerance("frame", tol))
    return {
        "command": "analyze",
        "scenario": config.name,
        "scenario_kind": config.kind,
        "system": {"rows": config.system.rows, "cols": config.system.cols,
                   "moduli": list(config.system.group.moduli)},
        "diagnostics": diag.to_json_dict(),
        "exit_code": EXIT_PASS if diag.is_frame else EXIT_FAIL,
    }


def _roundtrip_checks(config: ScenarioConfig, proc: SamplingProcedure,
                      rng: np.random.Generator) -> list[dict]:
    residual_tol = config.tolerance("residual")
    checks = [
        _check("left_inverse_residual", verify_left_inverse(proc.system, proc.dual),
               config.tolerance("left_inverse")),
    ]
    habs = proc.system.group
    n = proc.system.cols

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if config.kind == "semidirect":
        x = VectorSequence(habs, draw((habs.order, n)).T)  # component-major for the vector space
        f = synthesize(proc.model, x)
        out = semidirect_sample_and_reconstruct(config.source, proc, f)
        direct = analysis_transform(proc.model, f)
        checks.append(_check("semidirect_function_residual",
                             (out - direct).max_abs() / max(1.0, direct.max_abs()),
                             config.tolerance("semidirect_residual")))
    elif config.kind == "finite_index":
        red = config.reduction
        base = red.base
        x_base = VectorSequence(base.subgroup.abstract_group,
                                draw((base.n_generators,
                                      base.subgroup.abstract_group.order)))
        x = red.regroup_coefficients(x_base)
        base_system = sample_matrix(base, config.probes) if config.probes else None
        if base_system is not None:
            via_h = red.downsample(apply(base_system, x_base))
            via_r = apply(red.regroup_system(base_system), x)
            coherence = 0.0 if np.array_equal(via_h.values, via_r.values) else float(
                np.abs(via_h.values - via_r.values).max())
            checks.append(_check("finite_index_coherence", coherence, 0.0))
        f = synthesize(base, x_base)
    else:
        x = VectorSequence(habs, draw((n, habs.order)))
        f = synthesize(proc.model, x)

    samples = take_samples(proc, x)
    back = reconstruct_coefficients(proc, samples)
    checks.append(_check("coefficient_residual",
                         float(np.abs(back.values - x.values).max())
                         / max(1.0, float(np.abs(x.values).max())),
                         residual_tol))
    if config.kind == "semidirect":
        return checks
    table = analysis_transform(proc.model, f)
    out = reconstruct_function(proc, samples)
    scale = max(1.0, table.max_abs())
    checks.append(_check("function_residual", (out - table).max_abs() / scale,
                         residual_tol))
    two_path = analysis_transform(proc.model, synthesize(proc.model, back))
    checks.append(_check("two_path_residual", (out - two_path).max_abs() / scale,
                         residual_tol))
    if proc.diag.is_riesz:
        checks.append(_check("interpolation_deviation", interpolation_check(proc),
                             config.tolerance("interpolation")))
    return checks


def cmd_roundtrip(config: ScenarioConfig, seed: int | None, tol: float | None,
                  left_kind: str | None) -> dict:
    used_seed = config.seed if seed is None else seed
    report = {
        "command": "roundtrip",
        "scenario": config.name,
        "scenario_kind": config.kind,
        "rng": {"generator": "pcg64", "seed": used_seed},
    }
    try:
        proc = build_procedure(config, left_kind, tol)
    except (FrameConditionError, SingularCharacterError) as exc:
        report["error"] = str(exc)
        report["exit_code"] = EXIT_FAIL
        return report
    checks = _roundtrip_checks(config, proc, _rng(used_seed))
    report["diagnostics"] = proc.diag.to_json_dict()
    report["left_inverse"] = proc.dual.kind
    report["checks"] = checks
    report["exit_code"] = EXIT_PASS if all(c["pass"] for c in checks) else EXIT_FAIL
    return report


def _foundation_checks(group: GroupSpec, rng: np.random.Generator, tol: float) -> list[dict]:
    # each identity once over a stack of draws, read from the stream as one draw
    # at a time would read them: a sequence's real parts, then its imaginary parts
    order = group.order
    parts = rng.standard_normal((FOUNDATION_DRAWS, 2, order))
    x = VectorSequence(group, parts[:, 0] + 1j * parts[:, 1])
    x_hat = dft(x)
    worst_round = float(np.abs(idft(x_hat).values - x.values).max())
    lhs, rhs = exact_norm_sq(x.values), exact_norm_sq(x_hat.values) / order
    worst_plancherel = float((np.abs(lhs - rhs) / np.maximum(lhs, 1.0)).max())
    worst_invol = float(np.abs(involution(involution(x)).values - x.values).max())
    pairs = rng.standard_normal((FOUNDATION_DRAWS // 4, 2, 2, order))
    pairs = pairs[:, :, 0] + 1j * pairs[:, :, 1]  # (pair, a or x, order)
    a, x = VectorSequence(group, pairs[:, 0]), VectorSequence(group, pairs[:, 1])
    lhs = dft(convolve(a, x)).values
    rhs = dft(a).values * dft(x).values
    worst_conv = float((np.abs(lhs - rhs).max(axis=1)
                        / np.maximum(1.0, np.abs(rhs).max(axis=1))).max())
    return [
        _check("dft_roundtrip", worst_round, tol),
        _check("plancherel", worst_plancherel, tol),
        _check("convolution_theorem", worst_conv, tol),
        _check("involution_identity", worst_invol, 0.0),
    ]


def _verify_checks(config: ScenarioConfig, rng: np.random.Generator,
                   inject_fault: bool) -> list[dict]:
    tol = config.tolerance("foundation")
    checks = _foundation_checks(config.model.ambient, rng, tol)

    system = config.system
    star = adjoint_system(system)
    adjoint_dev = float(np.abs(transfer(star).matrices
                               - np.conj(transfer(system).matrices.transpose(0, 2, 1))).max())
    checks.append(_check("adjoint_transfer_identity", adjoint_dev, 0.0))
    checks.append(_check("determinant_sandwich", 0.0, None,
                         ok=check_determinant_sandwich(system)))

    diag = diagnostics(system, config.tolerance("frame"))
    if system.group.order * max(system.rows, system.cols) <= DEFAULT_ORACLE_CAP:
        lo, hi = oracle_frame_bounds(system)
        scale = max(diag.beta, 1e-30)
        bound_dev = max(abs(lo - diag.alpha), abs(hi - diag.beta)) / scale
        checks.append(_check("oracle_bounds_match", bound_dev, 1e-8))

    if diag.is_frame:
        proc = build_procedure(config)
        dual = proc.dual
        if inject_fault:
            perturbed = dual.transfer.matrices.copy()
            perturbed[:, 0, 0] += 1e-3
            dual = LeftInverse(TransferMatrix(dual.transfer.group, perturbed), dual.kind)
        checks.append(_check("left_inverse_residual", verify_left_inverse(proc.system, dual),
                             config.tolerance("left_inverse")))
        if proc.diag.is_riesz:
            checks.append(_check("interpolation_deviation", interpolation_check(proc),
                                 config.tolerance("interpolation")))
    else:
        witness = kernel_witness(system)
        sample_energy = apply(system, witness).norm()
        checks.append(_check("necessity_witness_annihilated", sample_energy, 1e-6))
        checks.append(_check("necessity_witness_norm", abs(witness.norm() - 1.0), 1e-9))

    if config.kind == "semidirect":
        sd = config.source
        torus = sd.torus
        f = GroupSequence(torus, rng.standard_normal(torus.order)
                          + 1j * rng.standard_normal(torus.order))
        norm_sq, worst_comp, worst_norm = f.norm_sq(), 0.0, 0.0
        for _ in range(50):
            s1, s2 = (torus.element_at(int(rng.integers(torus.order))) for _ in range(2))
            g1, g2 = (int(rng.integers(sd.n_rotations)) for _ in range(2))
            lhs = quasi_regular_apply(sd, s1, g1, quasi_regular_apply(sd, s2, g2, f))
            rhs = quasi_regular_apply(sd, *compose_group_law(sd, (s1, g1), (s2, g2)), f)
            worst_comp = max(worst_comp, float(np.abs(lhs.values - rhs.values).max()))
            worst_norm = max(worst_norm, abs(lhs.norm_sq() - norm_sq))
        checks.append(_check("composition_law", worst_comp, 0.0))
        checks.append(_check("quasi_regular_unitarity", worst_norm, 0.0))
    return checks


def cmd_verify(configs: list[ScenarioConfig], seed: int, inject_fault: bool) -> dict:
    scenarios = []
    all_ok = True
    for config in configs:
        checks = _verify_checks(config, _rng(seed), inject_fault)
        ok = all(c["pass"] for c in checks)
        all_ok = all_ok and ok
        scenarios.append({
            "scenario": config.name,
            "scenario_kind": config.kind,
            "checks": checks,
            "pass": ok,
        })
    return {
        "command": "verify",
        "rng": {"generator": "pcg64", "seed": seed},
        "inject_fault": inject_fault,
        "scenarios": scenarios,
        "exit_code": EXIT_PASS if all_ok else EXIT_FAIL,
    }


def tolerance(text: str) -> float:
    """``--tol``: a config's tolerance rule; argparse turns its ValueError into exit 2."""
    return parse_tolerance(float(text), "--tol")


def seed(text: str) -> int:
    """``--seed``: a config's seed rule; argparse turns its ValueError into exit 2."""
    return parse_seed(int(text), "--seed")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsampling",
        description="Analyze, exercise and verify sampling scenarios on finite "
                    "abelian groups.")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--report", default=None, help="Also write the report here.")
    output.add_argument("--timings", action="store_true",
                        help="Include wall-clock timings (breaks byte determinism).")
    frame = argparse.ArgumentParser(add_help=False)
    frame.add_argument("--tol", type=tolerance, default=None,
                       help="Frame tolerance override (a finite number >= 0).")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", parents=[output, frame],
                             help="Frame diagnostics for a scenario.")
    analyze.add_argument("config", help="Scenario JSON file.")

    roundtrip = sub.add_parser("roundtrip", parents=[output, frame],
                               help="Sample, reconstruct and report residuals.")
    roundtrip.add_argument("config", help="Scenario JSON file.")
    roundtrip.add_argument("--seed", type=seed, default=None,
                           help="Seed for the coefficient draw (defaults to the "
                                "config seed).")
    roundtrip.add_argument("--left-inverse", dest="left_inverse", default=None,
                           choices=LEFT_INVERSE_KINDS,
                           help="Override the configured left-inverse kind.")

    verify = sub.add_parser("verify", parents=[output],
                            help="Run the invariant suite on scenarios.")
    verify.add_argument("configs", nargs="*", help="Scenario JSON files.")
    verify.add_argument("--all", action="store_true",
                        help="Verify every bundled scenario.")
    verify.add_argument("--seed", type=seed, default=0)
    verify.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                        help="Deliberately perturb the left inverse; the suite "
                             "must then fail.")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "analyze":
            report = cmd_analyze(load_config(args.config), args.tol)
        elif args.command == "roundtrip":
            report = cmd_roundtrip(load_config(args.config), args.seed, args.tol,
                                   args.left_inverse)
        else:
            paths = list(args.configs)
            if args.all:
                paths.extend(bundled_scenario_paths())
            if not paths:
                parser.error("verify needs scenario files or --all")
            report = cmd_verify([load_config(p) for p in paths], args.seed,
                                args.inject_fault)
        if args.timings:
            report["timings"] = {"total_s": time.perf_counter() - started}
        emit_report(report, args.report)
    # e.g. a square dual of a 4x2 system, or a --report path that is a directory
    except (SchemaError, DimensionMismatchError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return report["exit_code"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
