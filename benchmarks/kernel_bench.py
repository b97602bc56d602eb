"""Time the two propagator layers, and the optimizer and calibration built on
them, per chain size.

First arrival: what the optimizer, the calibration and the sweeps repeat for
every Hamiltonian, the bandwidth-scaled scan of |A_N(t)|^2 followed by the
analytic-slope refine of the first peak (N = 9, 13, 25).

Amplitude trace: ``evolve``, every site amplitude on 4096 steps over the
window (N = 60, 120, 200), as the spectra and trace files use it.

Detuning optimizer: ``optimize_detuning`` on the default interval, the
64-detuning batched coarse scan plus the Brent refine, with its evaluations
per optimized point (N = 9, 13, 25).

Detuning curve: ``detuning_curve`` over kappa = 0, 0.1, ..., 1 (N = 13,
alpha = 7), warm-started scans widened at the edge plus one refine per
point, in ms and evaluations per optimized point.

Protocol 1 calibration: ``calibrate_protocol1`` over the default 100-point
ratio grid, uncached (N = 13, 21).

CLI: one in-process ``cli.main`` call, parsing plus the command plus its
files and manifest written to a temporary directory, for
``reference --protocol 2 --n 13`` and
``sweep-kappa --protocol 2 --n 13 --alpha 7 --grid 0:0.1:1``.

The chains are Protocol 2, bent at the centre with kappa = 0.5 and detuned by
-1.5 Omega_max (near the optimum), over the unbent arrival window pi/2; the
optimizer tunes the detuning of the same bend itself.

Run:  python3 benchmarks/kernel_bench.py
"""

import contextlib
import io
import math
import statistics
import tempfile
import time

import numpy as np

from bentchain import (
    BendSpec,
    ChainSpec,
    Protocol,
    build_hamiltonian,
    calibrate_protocol1,
    detuning_curve,
    evolve,
    first_arrival,
    omega_max,
    optimize_detuning,
    reference,
)
from bentchain import cli

REPEATS = 7
WINDOW = math.pi / 2
EVOLVE_STEPS = 4096


def bent_chain(n):
    spec = ChainSpec(Protocol.PROTOCOL_2, n)
    bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5, delta_alpha=-1.5 * omega_max(spec))
    return build_hamiltonian(spec, bend)


def time_call(call, per_repeat):
    """Median and quartiles of the time per call, in ms, and the last result."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(per_repeat):
            result = call()
        samples.append((time.perf_counter() - start) / per_repeat * 1e3)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3, result


def main():
    for n in (9, 13, 25):
        ham = bent_chain(n)
        median, q1, q3, fm = time_call(lambda: first_arrival(ham, WINDOW), 500)
        print(
            f"first_arrival N={n:3d}: {median:.3f} ms per evaluation "
            f"(quartiles {q1:.3f}-{q3:.3f}), t*={fm.t_star:.9f} p*={fm.p_star:.9f}"
        )
    for n in (9, 13, 25):
        spec = ChainSpec(Protocol.PROTOCOL_2, n)
        ref = reference(spec)
        bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5)
        median, q1, q3, res = time_call(lambda: optimize_detuning(spec, bend, ref), 5)
        print(
            f"optimize      N={n:3d}: {median:.3f} ms per optimized point "
            f"(quartiles {q1:.3f}-{q3:.3f}), {res.evaluations} evaluations, "
            f"delta*={res.delta_star:.9f} q_opt={res.q_opt:.9f}"
        )
    spec = ChainSpec(Protocol.PROTOCOL_2, 13)
    ref = reference(spec)
    kappas = np.linspace(0.0, 1.0, 11)
    median, q1, q3, curve = time_call(lambda: detuning_curve(spec, 7, kappas, ref), 3)
    points = len(curve)
    evaluations = sum(res.evaluations for _, res in curve)
    print(
        f"curve         N= 13: {median / points:.3f} ms per optimized point "
        f"(quartiles {q1 / points:.3f}-{q3 / points:.3f}), "
        f"{evaluations / points:.1f} evaluations per point over {points} kappas, "
        f"delta*(1)={curve[-1][1].delta_star:.9f}"
    )
    for n in (13, 21):
        median, q1, q3, ref = time_call(lambda: calibrate_protocol1(n), 3)
        print(
            f"calibrate     N={n:3d}: {median:.3f} ms per calibration "
            f"(quartiles {q1:.3f}-{q3:.3f}), ratio={ref.boundary_ratio:.9f} "
            f"p0={ref.p0:.9f}"
        )
    for n in (60, 120, 200):
        ham = bent_chain(n)
        median, q1, q3, trace = time_call(lambda: evolve(ham, WINDOW, EVOLVE_STEPS), 10)
        print(
            f"evolve        N={n:3d}: {median:.3f} ms per trace "
            f"(quartiles {q1:.3f}-{q3:.3f}), {EVOLVE_STEPS} steps, "
            f"p_end[-1]={trace.p_end[-1]:.9f}"
        )
    commands = (
        ["reference", "--protocol", "2", "--n", "13"],
        ["sweep-kappa", "--protocol", "2", "--n", "13", "--alpha", "7", "--grid", "0:0.1:1"],
    )
    with tempfile.TemporaryDirectory() as out:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                median, q1, q3, code = time_call(lambda: cli.main([*argv, "--out", out]), 20)
            print(
                f"cli {argv[0]:<11}     : {median:.3f} ms per main call "
                f"(quartiles {q1:.3f}-{q3:.3f}), exit code {code}"
            )


if __name__ == "__main__":
    main()
