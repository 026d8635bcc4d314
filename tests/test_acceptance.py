"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, SequenceMatrix,
                           SingularCharacterError, TransferMatrix, TranslationModel,
                           VectorSequence, adjoint_system, analysis_transform, apply,
                           check_determinant_sandwich, convolve, dft, diagnostics, idft,
                           interpolation_check, involution, kernel_witness,
                           left_inverse_family, make_procedure,
                           oracle_frame_bounds, reconstruct_coefficients,
                           reconstruct_function, reproducing_kernel, sample_matrix,
                           shannon_procedure, synthesize, take_samples, transfer,
                           verify_left_inverse)
from groupsampling.cli import main as cli_main
from groupsampling.sampling import finite_index_model, finite_index_procedure


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_group(rng, max_order=64) -> GroupSpec:
    ndim = int(rng.integers(1, 3))
    while True:
        moduli = tuple(int(m) for m in rng.integers(2, 9, size=ndim))
        if math.prod(moduli) <= max_order:
            return GroupSpec(moduli)


def random_subgroup(rng, group: GroupSpec) -> ProductSubgroup:
    strides = []
    for s in group.moduli:
        divisors = [d for d in range(1, s + 1) if s % d == 0]
        strides.append(int(rng.choice(divisors)))
    return ProductSubgroup(group, tuple(strides))


def random_real_frame_system(rng, group, m, n, floor=1e-6):
    while True:
        a = SequenceMatrix(group, rng.standard_normal((m, n, group.order)))
        d = diagnostics(a)
        if d.beta > 0 and d.delta / d.beta ** n > floor:
            return a, d


def random_scenario(rng):
    """Random model plus random real stable system over its sampling subgroup."""
    ambient = random_group(rng)
    sub = random_subgroup(rng, ambient)
    habs = sub.abstract_group
    n = int(rng.integers(1, 4))
    m = int(rng.integers(n, 6))
    phi = GroupSequence(ambient, rng.standard_normal(ambient.order))
    generators = tuple(GroupSequence(ambient, rng.standard_normal(ambient.order))
                       for _ in range(n))
    model = TranslationModel(ambient, phi, sub, generators)
    system, diag = random_real_frame_system(rng, habs, m, n)
    return model, system, diag


class TestAcceptance:
    def test_1_exact_recovery(self):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        worst_coeff = worst_func = 0.0
        for _ in range(100):
            model, system, _ = random_scenario(rng)
            proc = make_procedure(model, system=system)
            habs = system.group
            x = VectorSequence(habs, rng.standard_normal((system.cols, habs.order))
                               + 1j * rng.standard_normal((system.cols, habs.order)))
            samples = take_samples(proc, x)
            back = reconstruct_coefficients(proc, samples)
            worst_coeff = max(worst_coeff,
                              float(np.abs(back.values - x.values).max())
                              / max(1.0, float(np.abs(x.values).max())))
            table = analysis_transform(model, synthesize(model, x))
            out = reconstruct_function(proc, samples)
            worst_func = max(worst_func,
                             (out - table).max_abs() / max(1.0, table.max_abs()))
        elapsed = time.perf_counter() - started
        ok = worst_coeff < 1e-9 and worst_func < 1e-9 and elapsed < 30.0
        report(1, ok, f"100 scenarios: coeff residual {worst_coeff:.2e}, "
                      f"function residual {worst_func:.2e}, {elapsed:.1f}s")

    def test_2_transfer_vs_oracle_bounds(self):
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(50):
            group = random_group(rng, max_order=36)
            n = int(rng.integers(1, 3))
            m = int(rng.integers(n, 6))
            a = SequenceMatrix(group, rng.standard_normal((m, n, group.order))
                               + 1j * rng.standard_normal((m, n, group.order)))
            d = diagnostics(a)
            lo, hi = oracle_frame_bounds(a)
            scale = max(d.beta, 1e-30)
            worst = max(worst, abs(lo - d.alpha) / scale, abs(hi - d.beta) / scale)
        ok = worst < 1e-8
        report(2, ok, f"50 systems: worst bound deviation {worst:.2e}")

    def test_3_determinant_sandwich(self):
        rng = np.random.default_rng(103)
        all_hold = True
        scalar_identity = True
        for _ in range(100):
            group = random_group(rng, max_order=32)
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 6))
            a = SequenceMatrix(group, rng.standard_normal((m, n, group.order)))
            all_hold = all_hold and check_determinant_sandwich(a, slack=1e-9)
            if n == 1:
                d = diagnostics(a)
                scalar_identity = scalar_identity and (d.alpha == d.delta)
        ok = all_hold and scalar_identity
        report(3, ok, "sandwich inequality on 100 systems; single-column "
                      "alpha equals delta exactly")

    def test_4_dual_family(self):
        rng = np.random.default_rng(104)
        worst_residual = 0.0
        worst_func_spread = 0.0
        for _ in range(5):
            model, system, _ = random_scenario(rng)
            habs = system.group
            base = make_procedure(model, system=system)
            x = VectorSequence(habs, rng.standard_normal((system.cols, habs.order)))
            samples = take_samples(base, x)
            reference = reconstruct_function(base, samples)
            scale = max(1.0, reference.max_abs())
            for _ in range(20):
                shape = (habs.order, system.cols, system.rows)
                c = TransferMatrix(habs, rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape))
                member = left_inverse_family(system, c)
                worst_residual = max(worst_residual,
                                     verify_left_inverse(system, member))
                proc = make_procedure(model, system=system, left_inverse="family", c=c)
                out = reconstruct_function(proc, samples)
                worst_func_spread = max(worst_func_spread,
                                        (out - reference).max_abs() / scale)
        ok = worst_residual < 1e-9 and worst_func_spread < 1e-9
        report(4, ok, f"family residual {worst_residual:.2e}, reconstruction "
                      f"spread {worst_func_spread:.2e} over 100 members")

    def test_5_pointwise_only_sampling(self):
        rng = np.random.default_rng(105)
        # positive cases: pointwise recovery whenever the correlation transform
        # stays away from zero
        worst = 0.0
        built = 0
        while built < 10:
            ambient = random_group(rng, max_order=32)
            sub = random_subgroup(rng, ambient)
            model = TranslationModel(
                ambient, GroupSequence(ambient, rng.standard_normal(ambient.order)),
                sub, (GroupSequence(ambient, rng.standard_normal(ambient.order)),))
            a = sample_matrix(model, [model.phi])
            d = diagnostics(a)
            if not d.is_riesz:
                continue
            built += 1
            proc = shannon_procedure(model)
            habs = sub.abstract_group
            x = VectorSequence(habs, rng.standard_normal((1, habs.order)))
            f = synthesize(model, x)
            table = analysis_transform(model, f)
            emb = sub.embedding_indices
            pointwise = VectorSequence(habs, table.flat()[emb][None, :])
            out = reconstruct_function(proc, pointwise)
            worst = max(worst, (out - table).max_abs() / max(1.0, table.max_abs()))

        # failing case: the transform vanishes at one named character and the
        # kernel direction cannot be recovered from its (vanishing) samples
        g2 = GroupSpec((2,))
        bad_model = TranslationModel(g2, GroupSequence.delta(g2),
                                     ProductSubgroup(g2, (1,)),
                                     (GroupSequence(g2, [1, 1]),))
        try:
            shannon_procedure(bad_model)
            rejected, characters = False, []
        except SingularCharacterError as err:
            rejected, characters = True, err.characters
        bad_system = sample_matrix(bad_model, [bad_model.phi])
        witness = kernel_witness(bad_system)
        witness_samples = apply(bad_system, witness)
        best_effort = np.linalg.pinv(transfer(bad_system).matrices, rcond=1e-10)
        recovered = np.einsum("knm,mk->nk", best_effort,
                              np.stack([dft(witness_samples.component(0)).values]))
        recovery_error = np.abs(
            idft(GroupSequence(g2, recovered[0])).values
            - witness.values[0]).max()
        ok = (worst < 1e-9 and rejected and characters == [(1,)]
              and witness_samples.norm() < 1e-10 and recovery_error > 0.5)
        report(5, ok, f"pointwise recovery {worst:.2e}; degenerate case rejected "
                      f"at character {characters} with unrecoverable witness "
                      f"(error {recovery_error:.2f})")

    def test_6_interpolation(self):
        rng = np.random.default_rng(106)
        worst = 0.0
        built = 0
        while built < 10:
            model, system, diag = random_scenario(rng)
            if system.rows != system.cols:
                continue
            if not diag.is_riesz or diag.delta / diag.beta ** system.cols < 1e-4:
                continue
            built += 1
            proc = make_procedure(model, system=system, left_inverse="square")
            worst = max(worst, interpolation_check(proc))
        ok = worst < 1e-8
        report(6, ok, f"10 square Riesz systems: worst interpolation deviation "
                      f"{worst:.2e}")

    def test_7_finite_index(self):
        rng = np.random.default_rng(107)
        g = GroupSpec((8,))
        model = TranslationModel(
            g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
            (GroupSequence(g, [1, 0.5, 0.25, 0, 0, 0, 0, 0]),))
        probes = [model.phi, GroupSequence(g, [0.5, 0.5, 0, 0, 0, 0, 0, 0])]
        red = finite_index_model(model, (2,))
        a_h = sample_matrix(model, probes)
        proc = finite_index_procedure(model, (2,), probes=probes)
        coherent = True
        worst_recon = 0.0
        for _ in range(20):
            x = VectorSequence(model.subgroup.abstract_group,
                               rng.standard_normal((1, 4))
                               + 1j * rng.standard_normal((1, 4)))
            via_h = red.downsample(apply(a_h, x))
            xr = red.regroup_coefficients(x)
            via_r = apply(red.regroup_system(a_h), xr)
            coherent = coherent and np.array_equal(via_h.values, via_r.values)
            samples = take_samples(proc, xr)
            table = analysis_transform(model, synthesize(model, x))
            out = reconstruct_function(proc, samples)
            worst_recon = max(worst_recon,
                              (out - table).max_abs() / max(1.0, table.max_abs()))
        ok = coherent and worst_recon < 1e-9
        report(7, ok, f"coset regrouping bitwise coherent; index-2 reconstruction "
                      f"residual {worst_recon:.2e}")

    def test_8_semidirect_pipeline(self):
        # sampled discrete group: (Z_4)^2 twisted by the half turn, realized as
        # the stride-3 lattice inside the (Z_12)^2 torus (stride-2 lattices are
        # structurally degenerate for the half-turn orbit)
        from groupsampling import (SemidirectModel, compose_group_law,
                                   quasi_regular_apply, semidirect_analysis,
                                   semidirect_reduce, semidirect_sample_and_reconstruct)
        rng = np.random.default_rng(108)
        torus = GroupSpec((12, 12))
        model = SemidirectModel(torus, "C2", ProductSubgroup(torus, (3, 3)),
                                GroupSequence(torus, rng.standard_normal(144)),
                                GroupSequence(torus, rng.standard_normal(144)))
        red = semidirect_reduce(model)
        assert red.model.subgroup.abstract_group.moduli == (4, 4)

        f0 = GroupSequence(torus, rng.standard_normal(144) + 1j * rng.standard_normal(144))
        worst_comp = worst_norm = 0.0
        for _ in range(50):
            s1 = torus.element_at(int(rng.integers(144)))
            s2 = torus.element_at(int(rng.integers(144)))
            g1, g2 = int(rng.integers(2)), int(rng.integers(2))
            lhs = quasi_regular_apply(model, s1, g1,
                                      quasi_regular_apply(model, s2, g2, f0))
            s3, g3 = compose_group_law(model, (s1, g1), (s2, g2))
            rhs = quasi_regular_apply(model, s3, g3, f0)
            worst_comp = max(worst_comp, float(np.abs(lhs.values - rhs.values).max()))
            worst_norm = max(worst_norm, abs(lhs.norm_sq() - f0.norm_sq()))

        probes = [GroupSequence(torus, rng.standard_normal(144)) for _ in range(4)]
        proc = make_procedure(red.model, probes=probes)
        worst_recon = 0.0
        for _ in range(5):
            coeffs = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
            f = synthesize(red.model, VectorSequence(red.model.subgroup.abstract_group,
                                                     coeffs.T))
            out = semidirect_sample_and_reconstruct(model, proc, f)
            direct = semidirect_analysis(model, f)
            worst_recon = max(worst_recon,
                              (out - direct).max_abs() / max(1.0, direct.max_abs()))
        ok = worst_comp == 0.0 and worst_norm == 0.0 and worst_recon < 1e-8
        report(8, ok, f"composition deviation {worst_comp}, unitarity deviation "
                      f"{worst_norm}, full-table reconstruction residual "
                      f"{worst_recon:.2e}")

    def test_9_foundations(self):
        rng = np.random.default_rng(109)
        worst = {"dft_roundtrip": 0.0, "plancherel": 0.0, "convolution": 0.0,
                 "involution": 0.0, "adjoint": 0.0, "kernel": 0.0}
        for _ in range(100):
            g = random_group(rng, max_order=24)
            x = GroupSequence(g, rng.standard_normal(g.order)
                              + 1j * rng.standard_normal(g.order))
            a = GroupSequence(g, rng.standard_normal(g.order)
                              + 1j * rng.standard_normal(g.order))
            worst["dft_roundtrip"] = max(worst["dft_roundtrip"],
                                         float(np.abs(idft(dft(x)).values
                                                      - x.values).max()))
            worst["plancherel"] = max(worst["plancherel"],
                                      abs(x.norm_sq() - dft(x).norm_sq() / g.order)
                                      / max(x.norm_sq(), 1.0))
            conv = dft(convolve(a, x)).values - dft(a).values * dft(x).values
            worst["convolution"] = max(worst["convolution"],
                                       float(np.abs(conv).max())
                                       / max(1.0, float(np.abs(dft(a).values).max()
                                                        * np.abs(dft(x).values).max())))
            worst["involution"] = max(worst["involution"],
                                      float(np.abs(involution(involution(a)).values
                                                   - a.values).max()))
            m = SequenceMatrix(g, np.stack([np.stack([a.values]), np.stack([x.values])]))
            dev = np.abs(transfer(adjoint_system(m)).matrices
                         - np.conj(transfer(m).matrices.transpose(0, 2, 1))).max()
            worst["adjoint"] = max(worst["adjoint"], float(dev))

        built = 0
        while built < 100:
            g = random_group(rng, max_order=16)
            phi = GroupSequence(g, rng.standard_normal(g.order))
            mags = np.abs(dft(phi).values)
            if mags.min() < 0.05 * mags.max():
                continue
            built += 1
            model = TranslationModel(g, phi, ProductSubgroup(g, (1,) * g.ndim),
                                     (GroupSequence.delta(g),))
            kernel = reproducing_kernel(model)
            f = GroupSequence(g, rng.standard_normal(g.order)
                              + 1j * rng.standard_normal(g.order))
            worst["kernel"] = max(worst["kernel"],
                                  kernel.residual(analysis_transform(model, f)))

        started = time.perf_counter()
        code = cli_main(["verify", "--all"])
        verify_elapsed = time.perf_counter() - started
        ok = all(v < 1e-10 for v in worst.values()) and code == 0 and verify_elapsed < 60
        detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        report(9, ok, f"{detail}; verify --all exit {code} in {verify_elapsed:.1f}s")
