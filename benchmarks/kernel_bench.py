"""Time the two propagator layers, and the optimizer and calibration built on
them, per chain size.

First arrival: what the optimizer, the calibration and the sweeps repeat for
every Hamiltonian, the bandwidth-scaled scan of |A_N(t)|^2 followed by the
analytic-slope refine of the first peak, as one one-row ``first_arrivals``
call on the raw matrix (N = 9, 13, 25).

Refine step: the calls on the optimizer's objective H0 + delta E
(E = dH/ddelta at the corner) that a slope-refine step makes: the followed
arrival and slope ``evaluate(delta, near=t)`` from a nearby arrival t, one
``eigh`` and Newton steps with no scan; and, where it cannot be followed,
the full first arrival ``evaluate([delta])`` and then the slope
``evaluate([delta], at=t)`` at that arrival, one ``eigh`` and no scan
(N = 13, 25).

End weights: the spectrum and end weights c_k = v_k[1] v_k[N] of one block
of B copies of a bent chain (B = 1, 32; N = 9, 13, 25, 100), from a stacked
``eigh`` against ``eigvalsh`` plus the weights from the eigenvalues alone,
as ``first_arrivals`` takes them.

Amplitude trace: ``evolve``, every site amplitude on 4096 steps over the
window (N = 60, 120, 200), the full propagator of the unitarity and RK4
acceptance checks (no CLI command calls it), and its layers: the ``eigh``
that builds the Hamiltonian before it, the phase tables with their
site-major broadcast, and the real GEMM of the eigenvectors with the
phases.

Detuning optimizer: ``optimize_detuning`` on the default interval, the
16-detuning batched coarse scan plus the slope refine, with its evaluations
(full first arrivals) per optimized point (N = 9, 13, 25).

Detuning curve: ``detuning_curve`` over kappa = 0, 0.1, ..., 1 (N = 13,
alpha = 7), warm-started scans widened at the edge plus one refine per
point, in ms and evaluations per optimized point.

Protocol 1 calibration: ``calibrate_protocol1`` over the default 20-point
ratio grid (N = 13, 21, 25), with the full first arrivals (the coarse
ratios and the refined one) and the followed refine steps of one
calibration (counts; run once).

Refine evaluations: per optimized point of ``figure fig2`` and
``figure fig4``, the one-row ``first_arrivals`` calls (refined optima and
refine steps that could not be followed) and, apart, the followed refine
steps, the refines of their Protocol 1 calibrations included (counts; run
once).

Figures: one in-process ``cli.main(["figure", tag, "--jobs", "1"])`` call
for fig2 to fig5, its files and manifest written to a temporary directory,
in s per figure.

CLI: one in-process ``cli.main`` call, parsing plus the command plus its
files and manifest written to a temporary directory, for
``reference --protocol 2 --n 13`` and
``sweep-kappa --protocol 2 --n 13 --alpha 7 --grid 0:0.1:1``.

The chains are Protocol 2, bent at the centre with kappa = 0.5 and detuned by
-1.5 Omega_max (near the optimum), over the unbent arrival window pi/2; the
optimizer tunes the detuning of the same bend itself.

Run:  python3 benchmarks/kernel_bench.py [--json PATH]

With ``--json PATH`` it also writes every row (median, quartiles and the
repeat count; counts as a single value) with the python and numpy versions
and the BLAS thread count to PATH.
"""

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bentchain import (
    BendSpec,
    ChainSpec,
    Hamiltonian,
    Protocol,
    calibrate_protocol1,
    detuning_curve,
    evolve,
    first_arrivals,
    omega_max,
    optimize_detuning,
    reference,
)
from bentchain import cli, propagate
from bentchain.chain import hamiltonian_matrix
from bentchain.propagate import _end_weights, _objective, _phase_tables

REPEATS = 7
WINDOW = math.pi / 2
EVOLVE_STEPS = 4096


def bent_matrix(n):
    spec = ChainSpec(Protocol.PROTOCOL_2, n)
    bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5, delta_alpha=-1.5 * omega_max(spec))
    return hamiltonian_matrix(spec, bend)


def bent_chain(n):
    """The bent chain with its eigensystem, which only ``evolve`` reads."""
    h = bent_matrix(n)
    return Hamiltonian(h, *np.linalg.eigh(h))


def record(rows, row, unit, median, q1, q3, repeats):
    rows.append({"row": row, "unit": unit, "median": median, "q1": q1, "q3": q3,
                 "repeats": repeats})


def time_call(rows, row, call, per_repeat, points=1, unit="ms"):
    """Median and quartiles of the time per call, in ``unit`` (ms or s;
    per point, for a call that yields ``points`` results), and the last
    result; appends the row to ``rows``."""
    scale = {"ms": 1e3, "s": 1.0}[unit]
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(per_repeat):
            result = call()
        samples.append((time.perf_counter() - start) / per_repeat / points * scale)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    record(rows, row, unit, median, q1, q3, REPEATS)
    return median, q1, q3, result


def evolve_layers(ham, t_end, n_steps):
    """The layers of ``evolve`` on ``n_steps`` points of [0, t_end] as
    callables: the ``eigh`` of the Hamiltonian, the phase tables with their
    site-major broadcast, and the real GEMM of the eigenvectors with a float
    view of those phases."""
    vec = ham.eigenvectors

    def phases():
        _, outer, inner = _phase_tables(ham.eigenvalues, t_end, n_steps)
        return np.multiply((outer * vec[0]).T[:, :, None], inner.T[:, None, :], order="C")

    flat = phases().reshape(vec.shape[0], -1).view(float)
    return {
        "eigh": lambda: np.linalg.eigh(ham.matrix),
        "phases": phases,
        "gemm": lambda: vec @ flat,
    }


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None for another BLAS
    or a platform without /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                get = getattr(dll, sym)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


@contextlib.contextmanager
def counted_arrivals():
    """While active, count bentchain's ``first_arrivals`` calls on one row
    (``one_row``), the matrices all its calls scan (``rows``, the full
    first arrivals) and the refine steps that were followed (``followed``)."""
    counts = {"one_row": 0, "rows": 0, "followed": 0}
    follow = propagate._follow

    def counting(matrices, window):
        matrices = list(matrices)
        counts["one_row"] += len(matrices) == 1
        counts["rows"] += len(matrices)
        return first_arrivals(matrices, window)

    def following(*args):
        found = follow(*args)
        counts["followed"] += found is not None
        return found

    bound = [module for name, module in sys.modules.items() if name.startswith("bentchain")
             and getattr(module, "first_arrivals", None) is first_arrivals]
    for module in bound:
        module.first_arrivals = counting
    propagate._follow = following
    try:
        yield counts
    finally:
        for module in bound:
            module.first_arrivals = first_arrivals
        propagate._follow = follow


def refine_evaluations(figure, out):
    """One-row first_arrivals calls and followed refine steps of
    ``bentchain figure <figure>`` (one process), and the optimized points in
    its files."""
    with counted_arrivals() as counts, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["figure", figure, "--jobs", "1", "--out", str(out)])
    assert code == 0
    points = 0
    for path in (Path(out) / "figure" / figure).glob("*.csv"):
        with open(path, newline="") as fh:
            points += sum(1 for row in csv.DictReader(fh) if row.get("delta_opt"))
    return counts["one_row"], counts["followed"], points


def main(argv=None):
    parser = argparse.ArgumentParser(description="Time the propagator layers and "
                                     "the optimizer, calibration and CLI built on them.")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the rows and the environment as JSON")
    opts = parser.parse_args(argv)
    rows = []
    for n in (9, 13, 25):
        matrix = bent_matrix(n)
        median, q1, q3, (t, p) = time_call(
            rows, f"first_arrivals N={n} B=1", lambda: first_arrivals([matrix], WINDOW), 500)
        print(
            f"first_arrivals N={n:3d} B=1: {median:.3f} ms per evaluation "
            f"(quartiles {q1:.3f}-{q3:.3f}), t*={t[0]:.9f} p*={p[0]:.9f}"
        )
    for n in (13, 25):
        matrix = bent_matrix(n)
        direction = np.zeros_like(matrix)
        corner = (n + 1) // 2 - 1
        direction[corner, corner] = omega_max(ChainSpec(Protocol.PROTOCOL_2, n))
        evaluate = _objective(matrix, direction, WINDOW)
        t_star, _ = evaluate([0.0])
        # followed from the arrival of a detuning one coarse cell away
        (t_near,), _ = evaluate([0.3])
        for label, call in (("arrival", lambda: evaluate([0.0])),
                            ("slope", lambda: evaluate([0.0], at=t_star)),
                            ("followed", lambda: evaluate(0.0, near=float(t_near)))):
            median, q1, q3, found = time_call(
                rows, f"refine step N={n} {label}", call, 500)
            value = (f"p*={found[1][0]:.9f}" if label == "arrival"
                     else f"dp*/ddelta={found[0]:.9f}" if label == "slope"
                     else f"p*={found[1]:.9f} dp*/ddelta={found[2]:.9f}")
            print(
                f"refine step N={n:3d} {label:<8}: {median:.3f} ms per one-point call "
                f"(quartiles {q1:.3f}-{q3:.3f}), {value}"
            )
    for n in (9, 13, 25, 100):
        for rows_per_block in (1, 32):
            block = np.repeat(bent_matrix(n)[None], rows_per_block, axis=0)
            timed = {}
            for label, call in (("eigh", lambda: np.linalg.eigh(block)),
                                ("eigvalsh+weights", lambda: _end_weights(block))):
                timed[label] = time_call(
                    rows, f"end weights N={n} B={rows_per_block} {label}", call, 20)[0]
            print(
                f"end weights   N={n:3d} B={rows_per_block:2d}: eigh {timed['eigh']:.3f} ms, "
                f"eigvalsh+weights {timed['eigvalsh+weights']:.3f} ms per block"
            )
    for n in (9, 13, 25):
        spec = ChainSpec(Protocol.PROTOCOL_2, n)
        ref = reference(spec)
        bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5)
        median, q1, q3, res = time_call(
            rows, f"optimize N={n}", lambda: optimize_detuning(spec, bend, ref), 5)
        print(
            f"optimize      N={n:3d}: {median:.3f} ms per optimized point "
            f"(quartiles {q1:.3f}-{q3:.3f}), {res.evaluations} evaluations, "
            f"delta*={res.delta_star:.9f} q_opt={res.q_opt:.9f}"
        )
    spec = ChainSpec(Protocol.PROTOCOL_2, 13)
    ref = reference(spec)
    kappas = np.linspace(0.0, 1.0, 11)
    median, q1, q3, curve = time_call(
        rows, "curve N=13", lambda: detuning_curve(spec, 7, kappas, ref), 3, points=kappas.size)
    points = len(curve)
    evaluations = sum(res.evaluations for _, res in curve)
    print(
        f"curve         N= 13: {median:.3f} ms per optimized point "
        f"(quartiles {q1:.3f}-{q3:.3f}), "
        f"{evaluations / points:.1f} evaluations per point over {points} kappas, "
        f"delta*(1)={curve[-1][1].delta_star:.9f}"
    )
    for n in (13, 21, 25):
        median, q1, q3, ref = time_call(
            rows, f"calibrate N={n}", lambda: calibrate_protocol1(n), 3)
        with counted_arrivals() as counts:
            calibrate_protocol1(n)
        for label, unit, count in (("full", "full first arrivals", counts["rows"]),
                                   ("followed", "followed refine steps", counts["followed"])):
            record(rows, f"calibrate N={n} {label}", f"{unit} per calibration",
                   count, count, count, 1)
        print(
            f"calibrate     N={n:3d}: {median:.3f} ms per calibration "
            f"(quartiles {q1:.3f}-{q3:.3f}), {counts['rows']} full first arrivals and "
            f"{counts['followed']} followed steps, ratio={ref.boundary_ratio:.9f} "
            f"p0={ref.p0:.9f}"
        )
    for n in (60, 120, 200):
        ham = bent_chain(n)
        median, q1, q3, trace = time_call(
            rows, f"evolve N={n}", lambda: evolve(ham, WINDOW, EVOLVE_STEPS), 10)
        print(
            f"evolve        N={n:3d}: {median:.3f} ms per trace "
            f"(quartiles {q1:.3f}-{q3:.3f}), {EVOLVE_STEPS} steps, "
            f"p_end[-1]={trace.p_end[-1]:.9f}"
        )
        for layer, call in evolve_layers(ham, WINDOW, EVOLVE_STEPS).items():
            median, q1, q3, _ = time_call(rows, f"evolve N={n} {layer}", call, 10)
            print(f"  {layer:<6}      N={n:3d}: {median:.3f} ms (quartiles {q1:.3f}-{q3:.3f})")
    with tempfile.TemporaryDirectory() as out:
        for figure in ("fig2", "fig4"):
            one_row, followed, points = refine_evaluations(figure, out)
            for label, count in (("one-row", one_row), ("followed", followed)):
                per_point = count / points
                record(rows, f"refine {figure} {label}",
                       f"{label} evaluations per optimized point",
                       per_point, per_point, per_point, 1)
            print(
                f"refine        {figure}: {one_row / points:.2f} one-row evaluations and "
                f"{followed / points:.2f} followed steps per optimized point "
                f"({one_row} and {followed} over {points} points)"
            )
        for figure in ("fig2", "fig3", "fig4", "fig5"):
            argv = ["figure", figure, "--jobs", "1", "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                median, q1, q3, code = time_call(
                    rows, f"figure {figure}", lambda: cli.main(argv), 1, unit="s")
            print(
                f"figure        {figure}: {median:.3f} s per figure "
                f"(quartiles {q1:.3f}-{q3:.3f}), exit code {code}"
            )
    commands = (
        ["reference", "--protocol", "2", "--n", "13"],
        ["sweep-kappa", "--protocol", "2", "--n", "13", "--alpha", "7", "--grid", "0:0.1:1"],
    )
    with tempfile.TemporaryDirectory() as out:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                median, q1, q3, code = time_call(
                    rows, f"cli {argv[0]}", lambda: cli.main([*argv, "--out", out]), 20)
            print(
                f"cli {argv[0]:<11}     : {median:.3f} ms per main call "
                f"(quartiles {q1:.3f}-{q3:.3f}), exit code {code}"
            )
    if opts.json:
        environment = {"python": platform.python_version(), "numpy": np.__version__,
                       "blas_threads": blas_threads()}
        opts.json.write_text(json.dumps({"environment": environment, "rows": rows},
                                        indent=1) + "\n")


if __name__ == "__main__":
    main()
