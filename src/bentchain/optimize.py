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

from .chain import BendSpec, ChainSpec, _sorted_grid, hamiltonian_matrix, omega_max
from .propagate import _objectives
from .reference import ReferencePoint
from .search import _lockstep

DEFAULT_INTERVAL = (-4.0, 0.5)  # in units of Omega_max
N_COARSE = 16  # detunings of the coarse scan
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
    (:func:`propagate._objectives`).  A coarse scan of ``N_COARSE``
    equispaced detunings over ``interval`` (units of Omega_max) is one batch
    of :func:`first_arrivals`, ties going to the smaller |delta|; its rows
    need eigenvalues only.  The slope dp*/ddelta at the best detuning and
    its neighbours, at the arrival times the scan found (one ``eigh`` of at
    most three rows, and no scan), then brackets the optimum in one cell,
    refined by secant steps on the slope to ``DELTA_TOL``
    (:func:`search._search`, run alone by :func:`search._lockstep`).
    Each step follows the arrival from that of the nearest detuning
    evaluated, with one ``eigh`` and Newton steps in t and no scan (a
    ``"follow"`` request), and takes the full
    first arrival and then its slope only where the arrival cannot be
    followed; the refined optimum takes one full first arrival, which
    gives p* and t*.  ``evaluations`` counts the detunings whose first
    arrival took the full path.  An interval end whose slope points
    outwards is the optimum as it stands, with no refine; it is flagged
    as ``on_boundary``, not raised.  Raises
    ValueError unless lo < hi with a finite width hi - lo, or if ``ref``
    is not the reference of ``spec`` (:meth:`ReferencePoint.check_chain`),
    and FloatingPointError if the reference probability is not positive or
    the optimized metrics are not finite.
    """
    (result,) = _optimize(spec, [bend], ref, interval)
    return result


def detuning_curve(
    spec: ChainSpec,
    alpha: int,
    kappa_grid: np.ndarray,
    ref: ReferencePoint,
) -> list[tuple[float, OptimizationResult]]:
    """Optimal detuning per kappa, in ascending order of kappa.  Each kappa
    is optimized as :func:`optimize_detuning` does on ``DEFAULT_INTERVAL``,
    except that while the best coarse detuning lies on an interval edge,
    that side is widened by twice the width, within [EXPANSION_FLOOR,
    EXPANSION_CEIL], and rescanned; the slope refine runs once, on the
    last interval, so an optimum at ``EXPANSION_FLOOR`` is the floor
    itself.  No point starts from another's optimum: the kappas are
    independent searches, run in lockstep (:func:`search._lockstep`), so
    that each round asks for the scans, slopes and followed arrivals of
    all of them with one batched call per kind.  Their refined optima
    share :func:`first_arrivals` blocks, whose rows share one grid, so a
    point can differ from that kappa optimized alone in the last bits.
    ``evaluations`` counts every scan and the optimum's full first
    arrival.  Raises ValueError on an empty grid or a repeated kappa."""
    grid = _sorted_grid(kappa_grid, "kappa grid", "kappa")
    bends = [BendSpec(alpha=alpha, kappa=kappa) for kappa in grid.tolist()]
    found = _optimize(spec, bends, ref, DEFAULT_INTERVAL, widen=_widened)
    return [(bend.kappa, res) for bend, res in zip(bends, found)]


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


def _optimize(spec: ChainSpec, bends: list[BendSpec], ref: ReferencePoint,
              interval: tuple[float, float], widen=None) -> list[OptimizationResult]:
    """The optimum of each bend of one chain, the searches run in lockstep
    (:func:`search._lockstep`), each from a coarse scan of ``interval``."""
    lo, hi = interval
    # a width that overflows (-1e308, 1e308) would make linspace warn and
    # give non-finite detunings; as a Python float it is inf, not a warning
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"invalid interval: [{lo}, {hi}]")
    ref.check_chain(spec)
    om = omega_max(spec)
    bases, directions = [], []
    for bend in bends:
        bases.append(hamiltonian_matrix(spec, replace(bend, delta_alpha=0.0)))
        direction = np.zeros_like(bases[-1])  # dH/ddelta, delta in units of Omega_max
        direction[bend.alpha - 1, bend.alpha - 1] = om
        directions.append(direction)
    grid = np.linspace(lo, hi, N_COARSE)
    results = []
    for delta_star, p_star, t_star, on_boundary, evaluations in _lockstep(
        _objectives(bases, directions, ref.t0), [grid] * len(bends), DELTA_TOL, widen,
    ):
        q_opt, s_opt = ref.normalise(p_star, t_star)
        results.append(OptimizationResult(delta_star, delta_star * om, q_opt, s_opt,
                                          evaluations, on_boundary))
    return results
