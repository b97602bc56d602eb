"""Time one first-arrival evaluation per chain size.

Each evaluation is what the optimizer, the calibration and the sweeps repeat
for every Hamiltonian: the bandwidth-scaled scan of |A_N(t)|^2 followed by
the analytic-slope refine of the first peak.  The chains are Protocol 2,
bent at the centre with kappa = 0.5 and detuned by -1.5 Omega_max (near the
optimum), over the unbent arrival window pi/2.

Run:  python3 benchmarks/kernel_bench.py
"""

import math
import statistics
import time

from bentchain import (
    BendSpec,
    ChainSpec,
    Protocol,
    build_hamiltonian,
    first_arrival,
    omega_max,
)

REPEATS = 7
EVALS_PER_REPEAT = 500


def main():
    window = math.pi / 2
    for n in (9, 13, 25):
        spec = ChainSpec(Protocol.PROTOCOL_2, n)
        bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5, delta_alpha=-1.5 * omega_max(spec))
        ham = build_hamiltonian(spec, bend)
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(EVALS_PER_REPEAT):
                fm = first_arrival(ham, window)
            samples.append((time.perf_counter() - start) / EVALS_PER_REPEAT)
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(
            f"N={n:2d}: {median * 1e3:.3f} ms per evaluation "
            f"(quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f}), t*={fm.t_star:.9f} p*={fm.p_star:.9f}"
        )


if __name__ == "__main__":
    main()
