"""Time the two propagator layers, and the optimizer and calibration built on
them, per chain size.

First arrival: what the optimizer, the calibration and the sweeps repeat for
every Hamiltonian, the bandwidth-scaled scan of |A_N(t)|^2 followed by the
analytic-slope refine of the first peak, as one one-row ``first_arrivals``
call on the raw matrix (N = 9, 13, 25).

Coarse block: the optimizer's coarse scan, the first arrivals of 16
detunings over the default interval as one block ``evaluate(deltas)`` on
the objective below (N = 13, 25), and at N = 25 the phase tables of that
block's scan alone (``propagate._phase_tables`` with the arguments the
scan passes it).

Refine step: the calls on the optimizer's objective H0 + delta E
(E = dH/ddelta at the corner) that a slope-refine step makes: the followed
arrival and slope ``evaluate(delta, near=t)`` from a nearby arrival t, one
``eigh`` and Newton steps with no scan; and, where it cannot be followed,
the full first arrival ``evaluate([delta])`` and then the slope
``evaluate([delta], at=t)`` at that arrival, one ``eigh`` and no scan
(N = 13, 25).

End weights: the spectrum and end weights c_k = v_k[1] v_k[N] of one block
of B copies of a bent chain (N = 9, 13, 25, 100), from a stacked ``eigh``
against ``eigvalsh`` plus the weights from the eigenvalues alone, as
``first_arrivals`` takes them.  B = 1, 16 and 20: the library's own calls
hold one row, the optimizer's coarse scan (16) or a calibration's (20).

Amplitude trace: ``evolve``, every site amplitude on 4096 steps over the
window (N = 60, 120, 200), the full propagator of the unitarity and RK4
acceptance checks (no CLI command calls it), and the tracemalloc peak of
one call in MB (of 2^20 bytes, as perfbench's peak_rss_mb).

Spectrum report: ``spectrum_report`` of the bent chain at its detuning
(N = 60, 120, 200), what the ``spectrum`` command and fig5 write: one
``eigh`` of the unbent chain and one stacked ``eigvalsh`` of the bent
matrices at delta 0 and at the detuning.

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

Figures: one in-process ``cli.main(["figure", tag])`` call for fig2 to
fig5, its files and manifest written to a temporary directory, in s per
figure.

CLI: one in-process ``cli.main`` call, parsing plus the command plus its
files and manifest written to a temporary directory, for
``reference --protocol 2 --n 13`` and
``sweep-kappa --protocol 2 --n 13 --alpha 7 --grid 0:0.1:1``.

The chains are Protocol 2, bent at the centre with kappa = 0.5 and detuned by
-1.5 Omega_max (near the optimum), over the unbent arrival window pi/2; the
optimizer tunes the detuning of the same bend itself.

Run:  python3 benchmarks/kernel_bench.py [--json PATH]

It imports bentchain from the ``src`` directory of its own checkout, and
sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
it imports numpy, so that every row runs on one BLAS thread.  Each
row prints one line as it is measured: a time as the median with its
quartiles over the repeats, a count or a peak as a single value.  With
``--json PATH`` it also writes the same rows (median, quartiles and the
repeat count; a single value as its own median and quartiles, repeated once)
with the python and numpy versions and the BLAS thread count to PATH.
"""

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# one BLAS thread, as perfbench/run.py runs: set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bentchain import (  # noqa: E402
    BendSpec,
    ChainSpec,
    Protocol,
    build_hamiltonian,
    calibrate_protocol1,
    detuning_curve,
    evolve,
    first_arrivals,
    omega_max,
    optimize_detuning,
    reference,
    spectrum_report,
)
from bentchain import cli, propagate  # noqa: E402
from bentchain.optimize import DEFAULT_INTERVAL, N_COARSE  # noqa: E402
from bentchain.propagate import _end_weights, _objective  # noqa: E402

REPEATS = 7
WINDOW = math.pi / 2
EVOLVE_STEPS = 4096


def bent_spec(n):
    """The chain and bend of every row."""
    spec = ChainSpec(Protocol.PROTOCOL_2, n)
    return spec, BendSpec(alpha=(n + 1) // 2, kappa=0.5, delta_alpha=-1.5 * omega_max(spec))


def bent_chain(n):
    """The bent chain of every row, with the eigensystem ``evolve`` reads."""
    return build_hamiltonian(*bent_spec(n))


def record(rows, row, unit, median, q1=None, q3=None, repeats=1):
    """Append a row to ``rows`` and print it; a single value (a count or a
    peak) is its own median and quartiles."""
    q1, q3 = (median, median) if q1 is None else (q1, q3)
    rows.append({"row": row, "unit": unit, "median": median, "q1": q1, "q3": q3,
                 "repeats": repeats})
    spread = f" (quartiles {q1:.4g}-{q3:.4g})" if repeats > 1 else ""
    print(f"{row}: {median:.4g} {unit}{spread}")


def time_call(rows, row, call, per_repeat, points=1, unit="ms"):
    """Record the median and quartiles of the time per call, in ``unit``
    (ms or s; per point, for a call that yields ``points`` results), and
    return the last result."""
    scale = {"ms": 1e3, "s": 1.0}[unit]
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(per_repeat):
            result = call()
        samples.append((time.perf_counter() - start) / per_repeat / points * scale)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    record(rows, row, unit, median, q1, q3, REPEATS)
    return result


def run_cli(argv):
    """One in-process ``cli.main(argv)`` with its summary line discarded;
    it must succeed."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, f"bentchain {' '.join(argv)} exited {code}"


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


def phase_table_arguments(call):
    """The arguments of the one ``propagate._phase_tables`` call that
    ``call()`` makes."""
    seen = []
    build = propagate._phase_tables
    propagate._phase_tables = lambda *args: seen.append(args) or build(*args)
    try:
        call()
    finally:
        propagate._phase_tables = build
    (args,) = seen
    return args


def refine_evaluations(figure, out):
    """One-row first_arrivals calls and followed refine steps of
    ``bentchain figure <figure>``, and the optimized points in its files."""
    with counted_arrivals() as counts:
        run_cli(["figure", figure, "--out", str(out)])
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
        matrix = bent_chain(n).matrix
        time_call(rows, f"first_arrivals N={n} B=1",
                  lambda: first_arrivals([matrix], WINDOW), 500)
    for n in (13, 25):
        matrix = bent_chain(n).matrix
        direction = np.zeros_like(matrix)
        corner = (n + 1) // 2 - 1
        direction[corner, corner] = omega_max(ChainSpec(Protocol.PROTOCOL_2, n))
        evaluate = _objective(matrix, direction, WINDOW)
        coarse = np.linspace(*DEFAULT_INTERVAL, N_COARSE)
        time_call(rows, f"first_arrivals N={n} B={N_COARSE}", lambda: evaluate(coarse), 100)
        if n == 25:
            tables = phase_table_arguments(lambda: evaluate(coarse))
            time_call(rows, f"phase tables N={n} B={N_COARSE}",
                      lambda: propagate._phase_tables(*tables), 200)
        t_star, _ = evaluate([0.0])
        # followed from the arrival of a detuning one coarse cell away
        (t_near,), _ = evaluate([0.3])
        for label, call in (("arrival", lambda: evaluate([0.0])),
                            ("slope", lambda: evaluate([0.0], at=t_star)),
                            ("followed", lambda: evaluate(0.0, near=float(t_near)))):
            time_call(rows, f"refine step N={n} {label}", call, 500)
    for n in (9, 13, 25, 100):
        for rows_per_block in (1, 16, 20):
            block = np.repeat(bent_chain(n).matrix[None], rows_per_block, axis=0)
            for label, call in (("eigh", lambda: np.linalg.eigh(block)),
                                ("eigvalsh+weights", lambda: _end_weights(block))):
                time_call(rows, f"end weights N={n} B={rows_per_block} {label}", call, 20)
    for n in (9, 13, 25):
        spec = ChainSpec(Protocol.PROTOCOL_2, n)
        ref = reference(spec)
        bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5)
        res = time_call(rows, f"optimize N={n}", lambda: optimize_detuning(spec, bend, ref), 5)
        record(rows, f"optimize N={n} evaluations", "evaluations per optimized point",
               res.evaluations)
    spec = ChainSpec(Protocol.PROTOCOL_2, 13)
    ref = reference(spec)
    kappas = np.linspace(0.0, 1.0, 11)
    curve = time_call(rows, "curve N=13", lambda: detuning_curve(spec, 7, kappas, ref), 3,
                      points=kappas.size)
    record(rows, "curve N=13 evaluations", "evaluations per optimized point",
           sum(res.evaluations for _, res in curve) / len(curve))
    for n in (13, 21, 25):
        time_call(rows, f"calibrate N={n}", lambda: calibrate_protocol1(n), 3)
        with counted_arrivals() as counts:
            calibrate_protocol1(n)
        record(rows, f"calibrate N={n} full", "full first arrivals per calibration",
               counts["rows"])
        record(rows, f"calibrate N={n} followed", "followed refine steps per calibration",
               counts["followed"])
    for n in (60, 120, 200):
        ham = bent_chain(n)
        time_call(rows, f"evolve N={n}", lambda: evolve(ham, WINDOW, EVOLVE_STEPS), 10)
        tracemalloc.start()
        try:
            evolve(ham, WINDOW, EVOLVE_STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record(rows, f"evolve N={n} peak", "MB", peak / 2**20)
    for n in (60, 120, 200):
        spec, bend = bent_spec(n)
        time_call(rows, f"spectrum_report N={n}",
                  lambda: spectrum_report(spec, bend, bend.delta_alpha), 20)
    with tempfile.TemporaryDirectory() as out:
        for figure in ("fig2", "fig4"):
            one_row, followed, points = refine_evaluations(figure, out)
            for label, count in (("one-row", one_row), ("followed", followed)):
                record(rows, f"refine {figure} {label}",
                       f"{label} evaluations per optimized point", count / points)
        for figure in ("fig2", "fig3", "fig4", "fig5"):
            argv = ["figure", figure, "--out", out]
            time_call(rows, f"figure {figure}", lambda: run_cli(argv), 1, unit="s")
    commands = (
        ["reference", "--protocol", "2", "--n", "13"],
        ["sweep-kappa", "--protocol", "2", "--n", "13", "--alpha", "7", "--grid", "0:0.1:1"],
    )
    with tempfile.TemporaryDirectory() as out:
        for argv in commands:
            time_call(rows, f"cli {argv[0]}", lambda: run_cli([*argv, "--out", out]), 20)
    if opts.json:
        environment = {"python": platform.python_version(), "numpy": np.__version__,
                       "blas_threads": blas_threads()}
        opts.json.write_text(json.dumps({"environment": environment, "rows": rows},
                                        indent=1) + "\n")


if __name__ == "__main__":
    main()
