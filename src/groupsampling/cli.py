"""Command-line front end: analyze, roundtrip and verify scenarios for CI.

Exit codes: 0 all checks pass, 1 a numeric or stability check failed,
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
from .models import (SemidirectModel, analysis_transform, compose_group_law,
                     quasi_regular_apply, sample_matrix, semidirect_analysis,
                     semidirect_reduce, synthesize)
from .report import render_report
from .sampling import (LEFT_INVERSE_KINDS, FiniteIndexReduction, SamplingProcedure,
                       finite_index_model, interpolation_check, make_procedure,
                       reconstruct_coefficients, reconstruct_function,
                       semidirect_sample_and_reconstruct, take_samples)
from .systems import TransferMatrix, VectorSequence, adjoint_system, apply, transfer

REPORT_DIR_ENV = "GROUPSAMPLING_REPORT_DIR"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

BUNDLED_SCENARIOS = ("identity", "shannon_z4", "finite_index_z8", "semidirect_c2",
                     "nonframe_counterexample")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check(name: str, value: float, tolerance: float | None, ok: bool | None = None) -> dict:
    passed = bool(value <= tolerance) if ok is None else bool(ok)
    return {"name": name, "value": float(value),
            "tolerance": tolerance, "pass": passed}


class ScenarioRuntime:
    """Resolved scenario: the sampling model/system pair actually exercised."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.kind = "translation"
        self.reduction: FiniteIndexReduction | None = None
        if isinstance(config.model, SemidirectModel):
            self.kind = "semidirect"
            self.model = semidirect_reduce(config.model).model
        elif config.finite_index_strides is not None:
            self.kind = "finite_index"
            self.reduction = finite_index_model(config.model, config.finite_index_strides)
            self.model = self.reduction.model
        else:
            self.model = config.model
        self.system = (config.system if config.system is not None
                       else sample_matrix(self.model, config.probes))
        habs, n = self.model.subgroup.abstract_group, self.model.n_generators
        if (self.system.group, self.system.cols) != (habs, n):  # only a given system can miss
            raise SchemaError(f"config.system: expected {n} columns on {list(habs.moduli)}, got "
                              f"{self.system.cols} on {list(self.system.group.moduli)}")

    def build_procedure(self, left_kind: str | None = None,
                        tol: float | None = None) -> SamplingProcedure:
        choice = self.config.left_inverse
        kind = left_kind or choice.kind
        c = None
        if kind == "family":
            if choice.kind != "family":
                choice = LeftInverseChoice(kind="family", seed=self.config.seed)
            c = choice.parameter_for(self.system)
        frame_tol = tol if tol is not None else self.config.tolerance("frame")
        return make_procedure(self.model, system=self.system, left_inverse=kind,
                              c=c, tol=frame_tol)


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
    runtime = ScenarioRuntime(config)
    frame_tol = tol if tol is not None else config.tolerance("frame")
    diag = diagnostics(runtime.system, frame_tol)
    return {
        "command": "analyze",
        "scenario": config.name,
        "scenario_kind": runtime.kind,
        "system": {"rows": runtime.system.rows, "cols": runtime.system.cols,
                   "moduli": list(runtime.system.group.moduli)},
        "diagnostics": diag.to_json_dict(),
        "exit_code": EXIT_PASS if diag.is_frame else EXIT_FAIL,
    }


def _roundtrip_checks(runtime: ScenarioRuntime, proc: SamplingProcedure,
                      rng: np.random.Generator) -> list[dict]:
    config = runtime.config
    residual_tol = config.tolerance("residual")
    checks = [
        _check("left_inverse_residual", verify_left_inverse(proc.system, proc.dual),
               config.tolerance("left_inverse")),
    ]
    habs = proc.system.group
    n = proc.system.cols

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if runtime.kind == "semidirect":
        sd = config.model
        coeffs = draw((habs.order, n)).T  # component-major for the vector space
        x = VectorSequence(habs, coeffs)
        f = synthesize(proc.model, x)
        out = semidirect_sample_and_reconstruct(sd, proc, f)
        direct = semidirect_analysis(sd, f)
        scale = max(1.0, direct.max_abs())
        checks.append(_check("semidirect_function_residual",
                             (out - direct).max_abs() / scale,
                             config.tolerance("semidirect_residual")))
        samples = take_samples(proc, x)
        back = reconstruct_coefficients(proc, samples)
        checks.append(_check("coefficient_residual",
                             float(np.abs(back.values - x.values).max())
                             / max(1.0, float(np.abs(x.values).max())),
                             residual_tol))
        return checks

    if runtime.kind == "finite_index":
        red = runtime.reduction
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
    runtime = ScenarioRuntime(config)
    used_seed = config.seed if seed is None else seed
    report = {
        "command": "roundtrip",
        "scenario": config.name,
        "scenario_kind": runtime.kind,
        "rng": {"generator": "pcg64", "seed": used_seed},
    }
    try:
        proc = runtime.build_procedure(left_kind=left_kind, tol=tol)
    except (FrameConditionError, SingularCharacterError) as exc:
        report["error"] = str(exc)
        report["exit_code"] = EXIT_FAIL
        return report
    checks = _roundtrip_checks(runtime, proc, _rng(used_seed))
    report["diagnostics"] = proc.diag.to_json_dict()
    report["left_inverse"] = proc.dual.kind
    report["checks"] = checks
    report["exit_code"] = EXIT_PASS if all(c["pass"] for c in checks) else EXIT_FAIL
    return report


def _foundation_checks(group: GroupSpec, rng: np.random.Generator,
                       tol: float, draws: int = 100) -> list[dict]:
    # each identity once over a stack of draws, read from the stream as one draw
    # at a time would read them: a sequence's real parts, then its imaginary parts
    order = group.order
    parts = rng.standard_normal((draws, 2, order))
    x = VectorSequence(group, parts[:, 0] + 1j * parts[:, 1])
    x_hat = dft(x)
    worst_round = float(np.abs(idft(x_hat).values - x.values).max())
    lhs, rhs = exact_norm_sq(x.values), exact_norm_sq(x_hat.values) / order
    worst_plancherel = float((np.abs(lhs - rhs) / np.maximum(lhs, 1.0)).max())
    worst_invol = float(np.abs(involution(involution(x)).values - x.values).max())
    pairs = rng.standard_normal((draws // 4, 2, 2, order))
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


def _verify_checks(runtime: ScenarioRuntime, rng: np.random.Generator,
                   inject_fault: bool) -> list[dict]:
    config = runtime.config
    tol = config.tolerance("foundation")
    checks = _foundation_checks(runtime.model.ambient, rng, tol)

    star = adjoint_system(runtime.system)
    adjoint_dev = float(np.abs(transfer(star).matrices
                               - np.conj(transfer(runtime.system).matrices
                                         .transpose(0, 2, 1))).max())
    checks.append(_check("adjoint_transfer_identity", adjoint_dev, 0.0))
    checks.append(_check("determinant_sandwich", 0.0, None,
                         ok=check_determinant_sandwich(runtime.system)))

    diag = diagnostics(runtime.system, config.tolerance("frame"))
    order = runtime.system.group.order
    if order * max(runtime.system.rows, runtime.system.cols) <= DEFAULT_ORACLE_CAP:
        lo, hi = oracle_frame_bounds(runtime.system)
        scale = max(diag.beta, 1e-30)
        bound_dev = max(abs(lo - diag.alpha), abs(hi - diag.beta)) / scale
        checks.append(_check("oracle_bounds_match", bound_dev, 1e-8))

    if diag.is_frame:
        proc = runtime.build_procedure()
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
        witness = kernel_witness(runtime.system)
        sample_energy = apply(runtime.system, witness).norm()
        checks.append(_check("necessity_witness_annihilated", sample_energy, 1e-6))
        checks.append(_check("necessity_witness_norm", abs(witness.norm() - 1.0), 1e-9))

    if runtime.kind == "semidirect":
        sd = config.model
        torus = sd.torus
        f = GroupSequence(torus, rng.standard_normal(torus.order)
                          + 1j * rng.standard_normal(torus.order))
        worst_comp = 0.0
        worst_norm = 0.0
        for _ in range(50):
            s1 = torus.element_at(int(rng.integers(torus.order)))
            s2 = torus.element_at(int(rng.integers(torus.order)))
            g1 = int(rng.integers(sd.n_rotations))
            g2 = int(rng.integers(sd.n_rotations))
            lhs = quasi_regular_apply(sd, s1, g1, quasi_regular_apply(sd, s2, g2, f))
            s3, g3 = compose_group_law(sd, (s1, g1), (s2, g2))
            rhs = quasi_regular_apply(sd, s3, g3, f)
            worst_comp = max(worst_comp, float(np.abs(lhs.values - rhs.values).max()))
            worst_norm = max(worst_norm, abs(lhs.norm_sq() - f.norm_sq()))
        checks.append(_check("composition_law", worst_comp, 0.0))
        checks.append(_check("quasi_regular_unitarity", worst_norm, 0.0))
    return checks


def cmd_verify(configs: list[ScenarioConfig], seed: int, inject_fault: bool) -> dict:
    scenarios = []
    all_ok = True
    for config in configs:
        runtime = ScenarioRuntime(config)
        checks = _verify_checks(runtime, _rng(seed), inject_fault)
        ok = all(c["pass"] for c in checks)
        all_ok = all_ok and ok
        scenarios.append({
            "scenario": config.name,
            "scenario_kind": runtime.kind,
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
