"""Corner-detuning optimization.

For a given bend the corner-site detuning is tuned so that the first
maximum of the end-site occupation within the unbent reference window is
as large as possible.  Detunings are reported in units of Omega_max so
they compare directly with the bend strength kappa = g / Omega_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import BendSpec, ChainSpec, hamiltonian_matrix, omega_max
from .propagate import first_arrivals
from .reference import ReferencePoint
from .search import brent_max

DEFAULT_INTERVAL = (-4.0, 0.5)  # in units of Omega_max
N_COARSE = 64  # detunings of the coarse scan
DELTA_TOL = 1e-6  # |delta| tolerance, units of Omega_max

__all__ = ["OptimizationResult", "optimize_detuning", "detuning_curve"]


@dataclass(frozen=True)
class OptimizationResult:
    delta_star: float  # units of Omega_max
    delta_energy: float  # same units as omega0
    q_opt: float
    s_opt: float
    evaluations: int
    bracket: tuple[float, float]
    on_boundary: bool = False


def optimize_detuning(
    spec: ChainSpec,
    bend: BendSpec,
    ref: ReferencePoint,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> OptimizationResult:
    """Maximize the first-maximum transfer probability over the corner
    detuning.

    Coarse scan at ``N_COARSE`` equispaced detunings over ``interval``
    (units of Omega_max), evaluated as a batch: the bent matrix is built
    once, copied with one corner diagonal entry per detuning, and handed to
    :func:`first_arrivals` (one stacked ``eigh`` and one scan per block).
    Then Brent's method (parabolic and golden-section steps) refines the
    optimum within the best bracketing cell, one detuning at a time, each a
    one-matrix call of the same :func:`first_arrivals`.  An optimum pinned
    at the interval edge is flagged, not raised.  Fully deterministic; ties
    break toward smaller |delta|.  Raises ValueError unless the interval
    ends are finite with lo < hi, and FloatingPointError if the reference
    probability is not positive or the optimized metrics are not finite.
    """
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid interval: [{lo}, {hi}]")
    om = omega_max(spec)
    window = ref.t0
    base = hamiltonian_matrix(spec, replace(bend, delta_alpha=0.0))
    corner = bend.alpha - 1

    def detuned(delta_units: float) -> np.ndarray:
        h = base.copy()
        h[corner, corner] += delta_units * om
        return h

    seen: dict[float, tuple[float, float]] = {}  # delta -> (p*, t*)

    def p_first_max(delta_units: float) -> float:
        # a Python float, so that brent_max's iterates stay Python floats
        t_star, p_star = first_arrivals([detuned(delta_units)], window)
        seen[delta_units] = float(p_star[0]), float(t_star[0])
        return seen[delta_units][0]

    grid = np.linspace(lo, hi, N_COARSE)
    _, scores = first_arrivals(map(detuned, grid), window)
    # ties break toward the smaller |delta|
    best_score = scores.max()
    candidates = np.flatnonzero(scores >= best_score)
    best = int(candidates[np.argmin(np.abs(grid[candidates]))])

    on_boundary = best in (0, N_COARSE - 1)
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, N_COARSE - 1)])
    delta_star, _, n_refine = brent_max(p_first_max, a, b, DELTA_TOL)
    p_star, t_star = seen[delta_star]
    q_opt, s_opt = ref.normalise(p_star, t_star)
    return OptimizationResult(
        delta_star=float(delta_star),
        delta_energy=float(delta_star * om),
        q_opt=q_opt,
        s_opt=s_opt,
        evaluations=N_COARSE + n_refine,
        bracket=(a, b),
        on_boundary=on_boundary,
    )


def detuning_curve(
    spec: ChainSpec,
    alpha: int,
    kappa_grid: np.ndarray,
    ref: ReferencePoint,
) -> list[tuple[float, OptimizationResult]]:
    """Optimal detuning per kappa, warm-starting each coarse scan on the
    previous optimum (kappa values processed in ascending order)."""
    results: list[tuple[float, OptimizationResult]] = []
    interval = DEFAULT_INTERVAL
    grid = np.sort(np.asarray(kappa_grid, dtype=float))
    for i, kappa in enumerate(grid):
        bend = BendSpec(alpha=alpha, kappa=float(kappa))
        res = _optimize_expanding(spec, bend, ref, interval)
        results.append((float(kappa), res))
        # recentre the next scan around this optimum; the margin covers the
        # steepest observed drift of delta* with kappa (about -3 per unit)
        gap = grid[i + 1] - kappa if i + 1 < grid.size else 0.0
        margin = 0.5 + 4.0 * gap
        interval = (res.delta_star - margin, res.delta_star + margin)
    return results


# beyond this the corner site is effectively eliminated; the objective
# saturates, so searching further is pointless
EXPANSION_FLOOR = -32.0
EXPANSION_CEIL = 1.0


def _optimize_expanding(
    spec: ChainSpec,
    bend: BendSpec,
    ref: ReferencePoint,
    interval: tuple[float, float],
) -> OptimizationResult:
    """Re-run the optimizer with a widened interval while the optimum sits
    on the interval edge (the optimal detuning grows superlinearly with
    kappa and can escape any fixed window)."""
    lo, hi = interval
    while True:
        res = optimize_detuning(spec, bend, ref, interval=(lo, hi))
        if not res.on_boundary:
            return res
        width = hi - lo
        new_lo, new_hi = lo, hi
        if abs(res.delta_star - lo) < abs(res.delta_star - hi):
            new_lo = max(lo - 2.0 * width, EXPANSION_FLOOR)
        else:
            new_hi = min(hi + 2.0 * width, EXPANSION_CEIL)
        if (new_lo, new_hi) == (lo, hi):
            return res
        lo, hi = new_lo, new_hi
