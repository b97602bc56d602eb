"""Bend sweeps, normalized transfer metrics, and the empirical fits.

Metrics are reported relative to the unbent chain: q = p / p0 and
s = t / t0, where (p, t) is the first maximum of the end-site occupation
within the unbent window [0, t0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    BendSpec,
    ChainSpec,
    _binary_exponent,
    _sorted_grid,
    hamiltonian_matrix,
    spec_to_dict,
)
from .optimize import OptimizationResult, detuning_curve, optimize_detuning
from .propagate import first_arrivals
from .reference import ReferencePoint, reference

__all__ = [
    "TransferResult",
    "SweepRow",
    "SweepTable",
    "FitReport",
    "FitDivergedError",
    "transfer_metrics",
    "sweep_kappa",
    "sweep_alpha",
    "fit_gaussian",
    "fit_linear",
]


@dataclass(frozen=True)
class TransferResult:
    p: float  # first-maximum probability
    t: float  # arrival time
    q: float  # p / p0
    s: float  # t / t0


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    result: TransferResult
    optimized: OptimizationResult | None = None


@dataclass(frozen=True)
class SweepTable:
    axis: str  # "kappa" or "alpha"
    rows: list[SweepRow]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FitReport:
    kind: str  # "gaussian" or "linear"
    params: tuple[float, float]  # (amplitude, sigma) or (slope, intercept)
    residual_rms: float
    domain: tuple[float, float]


class FitDivergedError(RuntimeError):
    """Gauss-Newton did not converge; carries the best iterate seen."""

    def __init__(self, message: str, best: FitReport):
        super().__init__(message)
        self.best = best


def transfer_metrics(
    spec: ChainSpec,
    bend: BendSpec,
    ref: ReferencePoint,
) -> TransferResult:
    """First-maximum metrics of the bent chain within [0, ref.t0].

    Raises FloatingPointError if the reference probability is not positive
    or any of p, t, q, s is not finite.
    """
    (result,) = _transfer_rows(spec, [bend], ref)
    return result


def _transfer_rows(
    spec: ChainSpec, bends: list[BendSpec], ref: ReferencePoint
) -> list[TransferResult]:
    """:func:`transfer_metrics` of each bend of one chain, with the first
    arrivals evaluated as one batch (see :func:`first_arrivals`)."""
    ref.check_chain(spec)
    t_star, p_star = first_arrivals((hamiltonian_matrix(spec, b) for b in bends), ref.t0)
    results = []
    for p, t in zip(p_star.tolist(), t_star.tolist()):
        q, s = ref.normalise(p, t)
        results.append(TransferResult(p=p, t=t, q=q, s=s))
    return results


def _base_metadata(spec: ChainSpec, ref: ReferencePoint) -> dict:
    meta = spec_to_dict(spec)
    meta["p0"] = ref.p0
    meta["t0"] = ref.t0
    meta["delta_units"] = "omega_max"
    return meta


def sweep_kappa(
    spec: ChainSpec,
    alpha: int,
    kappa_grid,
    optimize: bool = False,
    ref: ReferencePoint | None = None,
) -> SweepTable:
    """One TransferResult per distinct kappa at a fixed corner; optionally
    also the optimal detuning and optimized metrics per row.  Raises
    ValueError on an empty grid or a repeated kappa."""
    kappa_grid = _sorted_grid(kappa_grid, "kappa grid", "kappa")
    ref = ref or reference(spec)
    optima: dict[float, OptimizationResult] = {}
    if optimize:
        optima = dict(detuning_curve(spec, alpha, kappa_grid, ref))
    bends = [BendSpec(alpha=alpha, kappa=float(kappa)) for kappa in kappa_grid]
    rows = [
        SweepRow(axis_value=bend.kappa, result=result, optimized=optima.get(bend.kappa))
        for bend, result in zip(bends, _transfer_rows(spec, bends, ref))
    ]
    meta = _base_metadata(spec, ref)
    meta["alpha"] = alpha
    return SweepTable(axis="kappa", rows=rows, metadata=meta)


def sweep_alpha(
    spec: ChainSpec,
    kappa: float,
    alpha_range,
    optimize: bool = True,
    ref: ReferencePoint | None = None,
) -> SweepTable:
    """Metrics (and optimal detunings) per distinct corner at fixed kappa.
    Raises ValueError on an empty range, a corner with a fractional part
    (3.0 is corner 3) or a repeated corner."""
    corners = [float(a) for a in alpha_range]
    if not all(a.is_integer() for a in corners):
        raise ValueError(f"corner range needs integer corners, got {corners}")
    alphas = [int(a) for a in _sorted_grid(corners, "corner range", "corner")]
    ref = ref or reference(spec)
    bends = [BendSpec(alpha=alpha, kappa=kappa) for alpha in alphas]
    rows = [
        SweepRow(
            axis_value=float(bend.alpha),
            result=result,
            optimized=optimize_detuning(spec, bend, ref) if optimize else None,
        )
        for bend, result in zip(bends, _transfer_rows(spec, bends, ref))
    ]
    meta = _base_metadata(spec, ref)
    meta["kappa"] = kappa
    return SweepTable(axis="alpha", rows=rows, metadata=meta)


def _rms(r: np.ndarray) -> float:
    """sqrt(mean(r**2)), with r divided by a power of two first so that
    r**2 cannot overflow (see :func:`_binary_exponent`)."""
    scale = math.ldexp(1.0, _binary_exponent(r))
    return scale * float(np.sqrt(np.mean((r / scale) ** 2)))


def _ldexp(value: float, k: int) -> float:
    """value * 2**k, or an infinity of its sign where that overflows (as
    numpy's product would)."""
    try:
        return math.ldexp(value, k)
    except OverflowError:
        return math.copysign(math.inf, value)


def _finite_report(fit: FitReport) -> FitReport:
    """The fit's report; raises FloatingPointError if a parameter or the
    RMS is not finite."""
    if not all(math.isfinite(v) for v in (*fit.params, fit.residual_rms)):
        raise FloatingPointError(f"{fit.kind} fit is not finite: params {fit.params}, "
                                 f"residual rms {fit.residual_rms!r}")
    return fit


def _require_finite_points(points) -> None:
    """Raise ValueError at the first (x, y) point with a non-finite entry."""
    for x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"fit points must be finite, got ({x!r}, {y!r})")


# the Gaussian fit gives up after FIT_MAX_ITER Gauss-Newton steps and has
# converged once a step is shorter than FIT_TOL
FIT_MAX_ITER = 200
FIT_TOL = 1e-12


def fit_gaussian(table: SweepTable) -> FitReport:
    """Gauss-Newton fit of q(kappa) ~ A exp(-kappa^2 / (2 sigma^2)).

    Fits q / 2**k, with k such that its largest |q| lies in [1, 2) (see
    :func:`_binary_exponent`), from (A, sigma) = (1, 0.5), and scales A
    and the RMS back by 2**k: the start and the absolute step tolerance
    ``FIT_TOL`` then suit a profile of any amplitude, and a sweep whose
    largest q already lies in [1, 2) (every kappa sweep, since q(0) = 1)
    is fitted as it is.  Raises ValueError on fewer than 5
    rows, a non-finite point, fewer than 2 distinct |kappa| (which leave
    sigma undetermined) or a |kappa| above 1, which no bend has,
    FitDivergedError (carrying the best iterate) on non-convergence or a
    degenerate flat profile, and FloatingPointError if the converged fit
    or its RMS is not finite.
    """
    if table.axis != "kappa":
        raise ValueError("gaussian fit expects a kappa sweep")
    x = np.array([row.axis_value for row in table.rows])
    y = np.array([row.result.q for row in table.rows])
    if x.size < 5:
        raise ValueError("gaussian fit needs at least 5 rows")
    _require_finite_points(zip(x.tolist(), y.tolist()))
    if np.unique(np.abs(x)).size < 2:
        raise ValueError("gaussian fit needs at least 2 distinct |kappa|")
    if np.any(np.abs(x) > 1.0):
        raise ValueError("gaussian fit expects kappa within [-1, 1]")
    domain = (float(x.min()), float(x.max()))
    k = _binary_exponent(y)
    y = np.ldexp(y, -k)

    def report(rms: float, amp: float, sigma: float) -> FitReport:
        return FitReport("gaussian", (_ldexp(amp, k), sigma), _ldexp(rms, k), domain)

    amp, sigma = 1.0, 0.5
    best = None
    for _ in range(FIT_MAX_ITER):
        shape = np.exp(-(x**2) / (2.0 * sigma**2))
        model = amp * shape
        r = y - model
        rms = _rms(r)
        if best is None or rms < best[0]:
            best = (rms, amp, sigma)
        jac = np.column_stack([shape, model * x**2 / sigma**3])
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        amp += step[0]
        sigma += step[1]
        # sigma far beyond the fitted domain means the profile is flat on
        # this window and the width is unidentifiable
        sigma_cap = 50.0 * max(domain[1] - domain[0], abs(domain[1]))
        if sigma <= 0 or not np.isfinite(sigma) or sigma > sigma_cap:
            raise FitDivergedError(
                "gaussian fit degenerate (sigma escaped); profile may be flat",
                report(*best),
            )
        if float(np.hypot(*step)) < FIT_TOL:
            model = amp * np.exp(-(x**2) / (2.0 * sigma**2))
            return _finite_report(report(_rms(y - model), float(amp), float(sigma)))
    raise FitDivergedError(
        f"gaussian fit did not converge in {FIT_MAX_ITER} iterations",
        report(*best),
    )


def fit_linear(pairs, kappa_cut: float = 0.7) -> FitReport:
    """Ordinary least squares on (kappa, delta*) pairs with kappa <= cut.

    ``delta*`` values are expected in units of Omega_max, matching the
    optimizer's output.  Raises ValueError on a non-finite pair, or on fewer
    than 3 points or 2 distinct kappa at or below the cut (kappas a few ulps
    apart count as one: the least-squares matrix then has rank 1, and the
    slope is undetermined), and FloatingPointError if a parameter or the
    RMS is not finite.
    """
    pts = [(float(k), float(d)) for k, d in pairs]
    _require_finite_points(pts)
    pts = [(k, d) for k, d in pts if k <= kappa_cut]
    if len(pts) < 3:
        raise ValueError(f"linear fit needs >= 3 points with kappa <= {kappa_cut}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.unique(x).size < 2:
        raise ValueError(f"linear fit needs >= 2 distinct kappa <= {kappa_cut}")
    # fitted to x / 2**kx and y / 2**ky, which polyfit can square, and
    # scaled back by the same powers of two (see _binary_exponent)
    kx, ky = _binary_exponent(x), _binary_exponent(y)
    xs, ys = np.ldexp(x, -kx), np.ldexp(y, -ky)
    (slope, intercept), _, rank, _, _ = np.polyfit(xs, ys, 1, full=True)
    if rank < 2:
        raise ValueError(f"linear fit needs >= 2 distinct kappa <= {kappa_cut}")
    resid = ys - (slope * xs + intercept)
    params = (_ldexp(float(slope), ky - kx), _ldexp(float(intercept), ky))
    return _finite_report(FitReport("linear", params, _ldexp(_rms(resid), ky),
                                    (float(x.min()), float(x.max()))))
