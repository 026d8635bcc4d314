"""Per-stage timings of the exactly rounded kernels, for the performance record.

    python bench/stages.py --out BENCH.json --label change
    python bench/stages.py --out BENCH.json --label parent --src /path/to/other/checkout/src

Times ``exact_sums`` on the block shapes the benchmark's workloads sum
((16, 2048), (64, 512), (28, 1152) and (30, 1024)) and on (100, 288), the blocks
of ``verify``'s stacked 25-pair Z12 x Z12 convolve, filled with products of normal
draws, and the same shapes with the open rows of
``compare_trees.open_rows_block``: zero, cancelling, tied and subnormal
sums); ``convolve`` and ``apply`` (a 3x2 system) on square tori of order 64,
256, 1024 and 2304; ``convolve`` cold, on a new ``GroupSpec`` each call so
that tables a group caches are built inside the timing, on orders 256, 1024
and 2304, with the peak of ``tracemalloc`` over one call (``traced_peak_mb``,
taken after the timed calls); on the same tori the build stages ``sample_matrix`` (2
generators, 3 probes), ``synthesize`` and ``analysis_transform`` of a
translation model with a delta window and strides (2, 2), the exact applies
of its procedure, ``take_samples`` (3x2) and ``reconstruct_coefficients``
(2x3, Moore-Penrose dual), and ``reproducing_kernel`` of a random window up
to order 1024; the stability verdicts ``diagnostics`` and ``moore_penrose``
and ``left_inverse_family`` (6x4 systems) and ``square_inverse`` (4x4) on
the same tori and on order 4096, the size of the benchmark's
``stability_scan``; ``coefficients_of`` and
``semidirect_sample_and_reconstruct`` on the C4 reduction of Z24 x Z24 and
Z48 x Z48 with strides (3, 3), as in the benchmark's ``semidirect_c4``
(``coefficients_of`` cold, on a new reduction each call, so that the fibers
kept on a model are not timed as a faster solve, and warm, on a kept model;
the op warm, ``semidirect_reconstruct_c4``, on a kept model and procedure,
and cold, ``semidirect_reconstruct_c4_cold``, on a new model, its reduction and
a procedure made from the kept system each call, so that what a first call
builds and keeps, the rotations, the fibers, the betas and the kernels'
spectra, is timed too);
on a C4 model of Z24 x Z24 with strides (3, 3), ``semidirect_reduce`` (on a new
model each call, so that the rotation table is built inside the timing),
``semidirect_analysis`` and ``quasi_regular_apply`` at a fixed shift and
quarter turn (on a kept model);
``make_procedure`` with each kind of left inverse (6x4 Moore-Penrose and
family, 4x4 square) on orders 1024 and 4096; the foundation checks of
``verify`` (``cli._foundation_checks``: 100 draws, 25 pairs convolved
exactly) on Z4, Z48, Z12 x Z12 and Z32 x Z32; ``load_config`` (file read
and parse) of each bundled scenario; and ``verify --all`` end to end.  Each
is repeated ``REPEATS`` times after one untimed call; reports the minimum and
the median.  Fifteen repeats, because the minimum of five did
not resolve changes below about 1.6x on a shared two-core machine.  A
verdict or procedure is timed on a new system object each call, so that its
transfer and spectrum are computed, not read from the cache.
The package is imported from ``--src`` (default: this checkout's ``src/``),
so two trees are compared by running the script once for each.  Each run
replaces its label's entry in the ``--out`` file, keeps the other labels and
records the machine facts (cores, Python, numpy).  BLAS is pinned to one
thread.  Timings are wall-clock and reported, not gated.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from compare_trees import open_rows_block

REPEATS = 15
# exact_sums blocks; (100, 288) is the largest single cost of verify --all
BLOCK_SHAPES = ((16, 2048), (64, 512), (28, 1152), (30, 1024), (100, 288))
SIDES = (8, 16, 32, 48)  # square tori: |G| = 64, 256, 1024, 2304
COLD_SIDES = (16, 32, 48)  # |G| = 256, 1024, 2304, on a new GroupSpec per call
VERDICT_SIDES = SIDES + (64,)  # and |G| = 4096
PROCEDURE_SIDES = (32, 64)  # |H| = 1024, and 4096 as in stability_scan
C4_SIDES = (24, 48)  # |G| = 576 and 2304, |H| = 64 and 256
ROTATION_SIDE = 24  # the rotation stages' torus, as in the benchmark's semidirect_c4
FOUNDATION_MODULI = ((4,), (48,), (12, 12), (32, 32))  # |G| = 4, 48, 144, 1024
ROOT = Path(__file__).resolve().parent.parent


def _timed(call) -> dict:
    call()
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return {"min_s": min(times), "median_s": statistics.median(times), "repeats": REPEATS}


def _traced_peak_mb(call) -> float:
    """Peak of the memory ``tracemalloc`` sees over one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def stages() -> dict:
    import numpy as np
    import groupsampling as gs
    from groupsampling import cli
    from groupsampling.groups import exact_sums

    rng = np.random.default_rng(0)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    out = {}
    block_rng = np.random.default_rng(1)  # leaves the draws of the other stages as they were
    for rows, terms in BLOCK_SHAPES:
        block = block_rng.standard_normal((rows, terms)) * block_rng.standard_normal((rows, terms))
        out[f"exact_sums/{rows}x{terms}"] = _timed(lambda: exact_sums(block))
    open_rng = np.random.default_rng(2)
    for rows, terms in BLOCK_SHAPES:
        block = open_rows_block(open_rng, rows, terms)
        out[f"exact_sums_open/{rows}x{terms}"] = _timed(lambda: exact_sums(block))

    for side in SIDES:
        g = gs.GroupSpec((side, side))
        a, x = gs.GroupSequence(g, draw(g.order)), gs.GroupSequence(g, draw(g.order))
        system = gs.SequenceMatrix(g, draw((3, 2, g.order)))
        coeffs = gs.VectorSequence(g, draw((2, g.order)))
        out[f"convolve/{g.order}"] = _timed(lambda: gs.convolve(a, x))
        out[f"apply_3x2/{g.order}"] = _timed(lambda: gs.apply(system, coeffs))
        sub = gs.ProductSubgroup(g, (2, 2))
        habs = sub.abstract_group
        gens = tuple(gs.GroupSequence(g, draw(g.order)) for _ in range(2))
        probes = [gs.GroupSequence(g, draw(g.order)) for _ in range(3)]
        model = gs.TranslationModel(g, gs.GroupSequence.delta(g), sub, gens)
        lattice_coeffs = gs.VectorSequence(habs, draw((2, habs.order)))
        out[f"sample_matrix/{g.order}"] = _timed(lambda: gs.sample_matrix(model, probes))
        out[f"synthesize/{g.order}"] = _timed(lambda: gs.synthesize(model, lattice_coeffs))
        out[f"analysis_transform/{g.order}"] = _timed(lambda: gs.analysis_transform(model, a))
        proc = gs.make_procedure(model, probes=probes)
        samples = gs.take_samples(proc, lattice_coeffs)
        out[f"take_samples_3x2/{g.order}"] = _timed(lambda: gs.take_samples(proc, lattice_coeffs))
        out[f"reconstruct_coefficients_2x3/{g.order}"] = _timed(
            lambda: gs.reconstruct_coefficients(proc, samples))
        if g.order <= 1024:  # a new model each call, so no cached spectrum is reused
            out[f"reproducing_kernel/{g.order}"] = _timed(
                lambda: gs.reproducing_kernel(gs.TranslationModel(g, a, sub, gens)))

    cold_rng = np.random.default_rng(3)  # leaves the draws of the other stages as they were
    for side in COLD_SIDES:
        a, x = (cold_rng.standard_normal(side * side) + 1j * cold_rng.standard_normal(side * side)
                for _ in range(2))

        def cold():
            g = gs.GroupSpec((side, side))
            return gs.convolve(gs.GroupSequence(g, a), gs.GroupSequence(g, x))

        out[f"convolve_cold/{side * side}"] = {**_timed(cold),
                                               "traced_peak_mb": _traced_peak_mb(cold)}

    for side in C4_SIDES:
        torus = gs.GroupSpec((side, side))
        sd = gs.SemidirectModel(torus, "C4", gs.ProductSubgroup(torus, (3, 3)),
                                gs.GroupSequence(torus, draw(torus.order)),
                                gs.GroupSequence(torus, draw(torus.order)))
        reduced = gs.semidirect_reduce(sd).model
        proc = gs.make_procedure(reduced, probes=[gs.GroupSequence(torus, draw(torus.order))
                                                  for _ in range(5)])
        proc.sampling_functions  # built once, outside the timing
        habs = reduced.subgroup.abstract_group
        f = gs.synthesize(reduced, gs.VectorSequence(habs, draw((4, habs.order))))
        out[f"coefficients_of_c4/{torus.order}"] = _timed(
            lambda: gs.coefficients_of(gs.semidirect_reduce(sd).model, f))
        out[f"coefficients_of_c4_warm/{torus.order}"] = _timed(
            lambda: gs.coefficients_of(reduced, f))
        out[f"semidirect_reconstruct_c4/{torus.order}"] = _timed(
            lambda: gs.semidirect_sample_and_reconstruct(sd, proc, f))

        def reconstruct_cold():
            fresh = gs.SemidirectModel(torus, "C4", sd.lattice, sd.phi, sd.varphi)
            fresh_proc = gs.make_procedure(gs.semidirect_reduce(fresh).model, system=proc.system)
            return gs.semidirect_sample_and_reconstruct(fresh, fresh_proc, f)

        out[f"semidirect_reconstruct_c4_cold/{torus.order}"] = _timed(reconstruct_cold)

    rotation_rng = np.random.default_rng(4)  # leaves the draws of the other stages as they were
    torus = gs.GroupSpec((ROTATION_SIDE, ROTATION_SIDE))
    phi, varphi, f = (gs.GroupSequence(torus, rotation_rng.standard_normal(torus.order)
                                       + 1j * rotation_rng.standard_normal(torus.order))
                      for _ in range(3))

    def c4_model():
        return gs.SemidirectModel(torus, "C4", gs.ProductSubgroup(torus, (3, 3)), phi, varphi)

    sd, shift = c4_model(), torus.element((5, 7))
    out[f"semidirect_reduce_c4/{torus.order}"] = _timed(lambda: gs.semidirect_reduce(c4_model()))
    out[f"semidirect_analysis_c4/{torus.order}"] = _timed(lambda: gs.semidirect_analysis(sd, f))
    out[f"quasi_regular_apply_c4/{torus.order}"] = _timed(
        lambda: gs.quasi_regular_apply(sd, shift, 1, f))

    for side in VERDICT_SIDES:
        g = gs.GroupSpec((side, side))
        tall, square = draw((6, 4, g.order)), draw((4, 4, g.order))
        c = gs.TransferMatrix(g, draw((g.order, 4, 6)))
        verdicts = {
            "diagnostics_6x4": lambda: gs.diagnostics(gs.SequenceMatrix(g, tall)),
            "moore_penrose_6x4": lambda: gs.moore_penrose(gs.SequenceMatrix(g, tall)),
            "left_inverse_family_6x4": lambda: gs.left_inverse_family(
                gs.SequenceMatrix(g, tall), c),
            "square_inverse_4x4": lambda: gs.square_inverse(gs.SequenceMatrix(g, square)),
        }
        for name, call in verdicts.items():
            out[f"{name}/{g.order}"] = _timed(call)

    for side in PROCEDURE_SIDES:
        g = gs.GroupSpec((side, side))
        model = gs.TranslationModel(  # sampled at every point: systems live on g itself
            g, gs.GroupSequence.delta(g), gs.ProductSubgroup(g, (1, 1)),
            tuple(gs.GroupSequence.delta(g, g.element_at(k)) for k in range(4)))
        tall, square = draw((6, 4, g.order)), draw((4, 4, g.order))
        c = gs.TransferMatrix(g, draw((g.order, 4, 6)))
        procedures = {
            "make_procedure_mp_6x4": lambda: gs.make_procedure(
                model, system=gs.SequenceMatrix(g, tall)),
            "make_procedure_family_6x4": lambda: gs.make_procedure(
                model, system=gs.SequenceMatrix(g, tall), left_inverse="family", c=c),
            "make_procedure_square_4x4": lambda: gs.make_procedure(
                model, system=gs.SequenceMatrix(g, square), left_inverse="square"),
        }
        for name, call in procedures.items():
            out[f"{name}/{g.order}"] = _timed(call)

    for moduli in FOUNDATION_MODULI:
        g = gs.GroupSpec(moduli)
        out[f"foundation_checks/{g.order}"] = _timed(
            lambda: cli._foundation_checks(g, cli._rng(0), 1e-10))

    for path in cli.bundled_scenario_paths():
        out[f"load_config/{Path(path).stem}"] = _timed(lambda: cli.load_config(path))

    def verify_all():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["verify", "--all", "--seed", "0"]) != 0:
                raise RuntimeError("verify --all failed")

    out["verify_all"] = _timed(verify_all)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    timings = stages()
    import numpy as np

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__, "machine": platform.machine()}
    record.setdefault("timings", {})[args.label] = timings
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, t in timings.items():
        peak = f"  traced peak {t['traced_peak_mb']:.2f} MB" if "traced_peak_mb" in t else ""
        print(f"{args.label:>8} {name:<36} min {t['min_s']:.4f} s  median {t['median_s']:.4f} s"
              + peak)
    return 0


if __name__ == "__main__":
    sys.exit(main())
