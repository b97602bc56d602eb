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
from .propagate import _objective
from .reference import ReferencePoint
from .search import scan_and_refine

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
    on_boundary: bool = False


def optimize_detuning(
    spec: ChainSpec,
    bend: BendSpec,
    ref: ReferencePoint,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> OptimizationResult:
    """Maximize the first-maximum transfer probability over the corner
    detuning.

    The objective is p*(delta) of H0 + delta E, with H0 the bent matrix and
    E = dH/ddelta = Omega_max on the corner diagonal entry
    (:func:`propagate._objective`).  A coarse scan of ``N_COARSE``
    equispaced detunings over ``interval`` (units of Omega_max) is one batch
    of :func:`first_arrivals`, ties going to the smaller |delta|; its rows
    need eigenvalues only.  The slope dp*/ddelta at the best detuning and
    its neighbours, at the arrival times the scan found (one ``eigh`` of at
    most three rows, and no scan), then brackets the optimum in one cell,
    refined by secant steps on the slope to ``DELTA_TOL``, each step one
    first arrival and then its slope (:func:`search.scan_and_refine`).  An
    interval end whose slope points outwards is the optimum as it stands,
    with no refine; it is flagged as ``on_boundary``, not raised.  Raises
    ValueError if the interval ends are not finite with lo < hi or ``ref``
    is not the reference of ``spec`` (:meth:`ReferencePoint.check_chain`),
    and FloatingPointError if the reference probability is not positive or
    the optimized metrics are not finite.
    """
    return _optimize(spec, bend, ref, interval)


def detuning_curve(
    spec: ChainSpec,
    alpha: int,
    kappa_grid: np.ndarray,
    ref: ReferencePoint,
) -> list[tuple[float, OptimizationResult]]:
    """Optimal detuning per kappa, warm-starting each coarse scan on the
    previous optimum (kappa values processed in ascending order).  While the
    best coarse detuning lies on an interval edge, that side is widened by
    twice the width, within [EXPANSION_FLOOR, EXPANSION_CEIL], and rescanned;
    the slope refine of :func:`optimize_detuning` runs once, on the last
    interval, so an optimum at ``EXPANSION_FLOOR`` is the floor itself.
    ``evaluations`` counts every scan.  Raises ValueError on an empty grid
    or a repeated kappa."""
    grid = np.sort(np.asarray(kappa_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("kappa grid is empty")
    if np.unique(grid).size < grid.size:
        raise ValueError(f"repeated kappa in the curve: {grid.tolist()}")
    results: list[tuple[float, OptimizationResult]] = []
    interval = DEFAULT_INTERVAL
    for i, kappa in enumerate(grid):
        bend = BendSpec(alpha=alpha, kappa=float(kappa))
        res = _optimize(spec, bend, ref, interval, widen=_widened)
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


def _widened(grid: np.ndarray, best: int) -> np.ndarray | None:
    """The next coarse grid of a curve point whose best detuning is an end
    sample; None once it is interior or that side cannot widen."""
    lo, hi = float(grid[0]), float(grid[-1])
    if best == 0:
        wider = (max(lo - 2.0 * (hi - lo), EXPANSION_FLOOR), hi)
    elif best == grid.size - 1:
        wider = (lo, min(hi + 2.0 * (hi - lo), EXPANSION_CEIL))
    else:
        return None
    return None if wider == (lo, hi) else np.linspace(*wider, N_COARSE)


def _optimize(spec: ChainSpec, bend: BendSpec, ref: ReferencePoint,
              interval: tuple[float, float], widen=None) -> OptimizationResult:
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid interval: [{lo}, {hi}]")
    ref.check_chain(spec)
    om = omega_max(spec)
    base = hamiltonian_matrix(spec, replace(bend, delta_alpha=0.0))
    direction = np.zeros_like(base)  # dH/ddelta, delta in units of Omega_max
    direction[bend.alpha - 1, bend.alpha - 1] = om
    delta_star, p_star, t_star, on_boundary, evaluations = scan_and_refine(
        _objective(base, direction, ref.t0), np.linspace(lo, hi, N_COARSE),
        DELTA_TOL, widen,
    )
    q_opt, s_opt = ref.normalise(p_star, t_star)
    return OptimizationResult(delta_star, delta_star * om, q_opt, s_opt, evaluations,
                              on_boundary)
