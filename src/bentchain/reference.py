"""Unbent-chain reference values and Protocol 1 boundary-ratio calibration.

The bent-chain metrics are normalized by the unbent first-maximum
probability p0 and arrival time t0.  Protocol 2 has analytic references
(p0 = 1 at t0 = pi/(2*omega0)); Protocol 1's are the first arrival of its
unbent matrix, and its boundary ratio is calibrated numerically by
maximizing the first-maximum probability over a ratio grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .chain import ChainSpec, Protocol, hamiltonian_matrix, perfect_transfer_time
from .propagate import _objective, first_arrivals
from .search import scan_and_refine

DEFAULT_REFERENCE_WINDOW = 40.0  # in units of 1/omega0
DEFAULT_RATIO_GRID_STEP = 0.05
RATIO_TOL = 1e-6  # refine tolerance of the calibrated boundary ratio


def default_calibration_window(n_sites: int, omega0: float = 1.0) -> float:
    """Calibration window scaled to the ballistic arrival (~0.7 N / omega0).

    A fixed generous window would let the search drift into the slow
    weak-boundary resonance regime for some N, whose transfer collapses
    under a bend; capping near the ballistic time scale keeps the selected
    ratio in the fast-transfer regime for every N.
    """
    return _window(max(0.8 * n_sites, 8.0), omega0)


def _window(length: float, omega0: float) -> float:
    """A window of ``length`` / omega0; raises FloatingPointError when a
    tiny omega0 sends it to infinity."""
    window = length / omega0
    if not math.isfinite(window):
        raise FloatingPointError(
            f"non-finite window {length!r}/omega0 (omega0={omega0!r})")
    return window

__all__ = [
    "ReferencePoint",
    "reference",
    "calibrate_protocol1",
]


@dataclass(frozen=True)
class ReferencePoint:
    protocol: Protocol
    n_sites: int
    p0: float
    t0: float
    boundary_ratio: float | None = None
    omega0: float = 1.0

    def check_chain(self, spec: ChainSpec) -> None:
        """Raise ValueError unless this is the reference of ``spec``'s
        unbent chain: the same protocol, size, omega0 and boundary ratio."""
        mine = (self.protocol.value, self.n_sites, self.omega0, self.boundary_ratio)
        chain = (spec.protocol.value, spec.n_sites, spec.omega0, spec.boundary_ratio)
        if mine != chain:
            raise ValueError(f"reference point (protocol, N, omega0, ratio) = {mine} does "
                             f"not match the chain spec's {chain}")

    def normalise(self, p: float, t: float) -> tuple[float, float]:
        """(q, s) = (p / p0, t / t0) of a first maximum (p, t).

        Raises FloatingPointError when p0 is not positive or any of p, t,
        q, s is not finite: such a reference cannot normalise anything.
        """
        if not self.p0 > 0.0:
            raise FloatingPointError(
                f"reference probability p0 = {self.p0!r} is not positive; "
                "the excitation never reaches the end site in the reference window"
            )
        q, s = p / self.p0, t / self.t0
        if not all(math.isfinite(v) for v in (p, t, q, s)):
            raise FloatingPointError(
                f"non-finite transfer metrics: p={p!r} t={t!r} q={q!r} s={s!r}"
            )
        return q, s

    def to_dict(self) -> dict:
        d = asdict(self)
        d["protocol"] = self.protocol.value
        return d


def reference(spec: ChainSpec) -> ReferencePoint:
    """Unbent-chain reference (p0, t0).

    Protocol 2 takes its closed form, p0 = 1 at t0 = pi/(2*omega0);
    Protocol 1 takes the first arrival of its unbent matrix
    (:func:`first_arrivals`) within max(``DEFAULT_REFERENCE_WINDOW``,
    0.8 N)/omega0: 40/omega0, or the longer calibration window past N = 50,
    since a long chain arrives after 40/omega0.  Raises FloatingPointError
    when p0, t0 or that window is not finite (a tiny omega0 sends
    t0 = pi/(2*omega0) and the window to infinity).
    """
    if spec.protocol is Protocol.PROTOCOL_2:
        p0, t0 = 1.0, perfect_transfer_time(spec)
    else:
        window = _window(max(DEFAULT_REFERENCE_WINDOW, 0.8 * spec.n_sites), spec.omega0)
        t, p = first_arrivals([hamiltonian_matrix(spec)], window)
        p0, t0 = float(p[0]), float(t[0])
    if not (math.isfinite(p0) and math.isfinite(t0)):
        raise FloatingPointError(
            f"non-finite reference: p0={p0!r} t0={t0!r} (omega0={spec.omega0!r})"
        )
    return ReferencePoint(
        protocol=spec.protocol,
        n_sites=spec.n_sites,
        p0=p0,
        t0=t0,
        boundary_ratio=spec.boundary_ratio,
        omega0=spec.omega0,
    )


def calibrate_protocol1(
    n_sites: int,
    ratio_grid: np.ndarray | None = None,
    window: float | None = None,
    omega0: float = 1.0,
) -> ReferencePoint:
    """Pick the Protocol 1 boundary ratio maximizing the first-maximum
    transfer probability of the unbent chain.

    The objective is p0(ratio) of H1 + ratio E, with E = dH/dratio =
    omega0 on the four boundary-coupling entries and H1 the uniform chain
    without them (:func:`propagate._objective`).  Scans the grid (default
    the 20 ratios 0.05, 0.10, ..., 1 of ``DEFAULT_RATIO_GRID_STEP``; a
    finer ``ratio_grid`` moves the refined ratio by less than ``RATIO_TOL``
    for N = 4-200) as one batch of :func:`first_arrivals` (one stacked
    ``eigvalsh`` and one scan per block; the end weights need no
    eigenvectors).  Ties break toward the smaller ratio.  Then the slope
    dp0/dratio at the best grid ratio and its neighbours, at the arrival
    times of the scan (one ``eigh`` of at most three rows), brackets the
    optimum, and secant steps on the slope refine it to ``RATIO_TOL``, as
    the optimizer does (:func:`search.scan_and_refine`): each step follows
    the arrival from a nearby ratio's with one ``eigh`` and no scan, and
    the refined ratio takes one full first arrival, which gives p0 and t0.
    A grid that is empty, leaves (0, 1] or repeats a ratio raises
    ValueError.  The default window (:func:`default_calibration_window`)
    raises FloatingPointError when a tiny omega0 sends it to infinity; a
    given window that is not finite and positive raises ValueError.
    """
    if n_sites < 4:
        raise ValueError(f"calibration needs n_sites >= 4, got {n_sites}")
    base = hamiltonian_matrix(  # validates omega0 before the window uses it
        ChainSpec(Protocol.PROTOCOL_1, n_sites, omega0=omega0, boundary_ratio=1.0)
    )
    if ratio_grid is None:
        ratio_grid = np.arange(DEFAULT_RATIO_GRID_STEP, 1.0 + 1e-12, DEFAULT_RATIO_GRID_STEP)
    grid = np.sort(np.asarray(ratio_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("ratio grid is empty")
    if not np.all((grid > 0) & (grid <= 1)):  # NaN fails too
        raise ValueError("ratio grid must lie within (0, 1]")
    if np.unique(grid).size < grid.size:
        raise ValueError(f"repeated ratio in the calibration grid: {grid.tolist()}")
    if window is None:
        window = default_calibration_window(n_sites, omega0)

    direction = np.zeros_like(base)  # dH/dratio
    direction[0, 1] = direction[1, 0] = direction[-2, -1] = direction[-1, -2] = omega0
    best_ratio, p0, t0, on_boundary, _ = scan_and_refine(
        _objective(base - direction, direction, window), grid, RATIO_TOL)
    if grid.size > 1 and on_boundary:
        warnings.warn(
            f"calibration optimum at ratio grid boundary ({best_ratio:.4g})",
            stacklevel=2,
        )
    return ReferencePoint(
        protocol=Protocol.PROTOCOL_1,
        n_sites=n_sites,
        p0=p0,
        t0=t0,
        boundary_ratio=best_ratio,
        omega0=omega0,
    )

