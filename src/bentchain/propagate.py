"""Exact time evolution of the one-excitation amplitudes.

The Hamiltonian is time independent, so propagation is spectral:
A(t) = sum_k exp(-i lam_k t) v_k <v_k, A(0)> with A(0) = e_1.  There is no
step-size error; accuracy is set by the eigensolver residual alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import Hamiltonian
from .kernels import end_probability, end_probability_curve, phase_tables
from .search import brent_root, golden_max

DEFAULT_N_STEPS = 4096

# Local maxima below this are roundoff ripple in |A_N|^2 (cancellation of
# O(1) spectral terms leaves ~1e-24 noise), not physical arrivals.
NOISE_FLOOR = 1e-16

# First-arrival scan: samples per half-period pi / (lam_max - lam_min) of the
# fastest frequency in |A_N|^2, with a floor for narrow spectra.  The
# ceiling stops a huge detuning from asking for an unbounded grid; the
# optimizer's widest range (delta = -32 Omega_max) needs a few thousand.
SAMPLES_PER_HALF_PERIOD = 16
MIN_GRID_POINTS = 64
MAX_GRID_POINTS = 2**20
REL_TOL = 1e-9  # arrival-time tolerance, relative to the window

__all__ = [
    "AmplitudeTrace",
    "FirstMaximum",
    "evolve",
    "end_probability_at",
    "end_probability_on_grid",
    "first_arrival",
    "first_maximum",
    "dump_trace_csv",
]


@dataclass(frozen=True)
class AmplitudeTrace:
    """Site amplitudes A_j(t) on a uniform time grid, excitation on site 1
    at t=0.  ``p_end[i]`` is |A_N(times[i])|^2."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n_times, N), complex
    p_end: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[1]

    def norms(self) -> np.ndarray:
        """Total occupation probability per time point (should be 1)."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


@dataclass(frozen=True)
class FirstMaximum:
    """First local maximum of the end-site occupation within the window."""

    t_star: float
    p_star: float


def _end_coef(ham: Hamiltonian) -> np.ndarray:
    # spectral weights of the 1 -> N transfer amplitude
    return np.ascontiguousarray(ham.eigenvectors[0, :] * ham.eigenvectors[-1, :])


def evolve(ham: Hamiltonian, t_end: float, n_steps: int = DEFAULT_N_STEPS) -> AmplitudeTrace:
    """Propagate A(0) = e_1 on a uniform grid of ``n_steps`` points in
    [0, t_end] (endpoints included)."""
    if not math.isfinite(t_end) or t_end <= 0:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if n_steps < 100:
        raise ValueError(f"n_steps must be >= 100, got {n_steps}")
    times = np.linspace(0.0, t_end, n_steps)
    weights = ham.eigenvectors[0, :]  # <v_k, e_1>
    outer, inner = phase_tables(ham.eigenvalues, times)
    phases = (outer * weights)[:, None, :] * inner[None, :, :]
    amplitudes = phases.reshape(-1, weights.size)[:n_steps] @ ham.eigenvectors.T
    p_end = np.abs(amplitudes[:, -1]) ** 2
    return AmplitudeTrace(times=times, amplitudes=amplitudes, p_end=p_end)


def end_probability_at(ham: Hamiltonian, t: float) -> float:
    """Exact |A_N(t)|^2 at a single time."""
    return end_probability(np.ascontiguousarray(ham.eigenvalues), _end_coef(ham), t)


def end_probability_on_grid(
    ham: Hamiltonian, t_end: float, n_steps: int = DEFAULT_N_STEPS
) -> tuple[np.ndarray, np.ndarray]:
    """(times, |A_N|^2) on a uniform grid; cheaper than a full trace."""
    times = np.linspace(0.0, t_end, n_steps)
    p = end_probability_curve(
        np.ascontiguousarray(ham.eigenvalues), _end_coef(ham), times
    )
    return times, p


def first_maximum(trace: AmplitudeTrace, ham: Hamiltonian) -> FirstMaximum:
    """First local maximum of the end-site probability within the trace's
    window [0, trace.times[-1]]; see :func:`first_arrival`."""
    if len(trace.times) < 3:
        raise ValueError("trace needs at least 3 grid points")
    return first_arrival(ham, trace.times[-1])


def first_arrival(ham: Hamiltonian, window: float) -> FirstMaximum:
    """Locate the first local maximum of |A_N(t)|^2 in [0, window].

    Scans a uniform grid with ``SAMPLES_PER_HALF_PERIOD`` points per
    half-period of the fastest frequency in |A_N|^2 (the spectral bandwidth)
    for the first point at or above both neighbours and above
    ``NOISE_FLOOR``.  The bracketing cells are refined by Brent's method on
    the analytic slope p'(t), or by golden section on p where p' does not
    change sign across them (a flat or kinked top).  Without an interior
    peak, a falling slope at the window end puts the peak in the last cell,
    which is refined the same way; otherwise the endpoint is reported
    (transfer not yet peaked).  Raises ValueError if the window is not
    finite and positive, or if the bandwidth would need more than
    ``MAX_GRID_POINTS`` points.
    """
    window = float(window)
    if not math.isfinite(window) or window <= 0:
        raise ValueError(f"window must be finite and > 0, got {window}")
    eigvals = ham.eigenvalues
    bandwidth = float(eigvals[-1] - eigvals[0])
    needed = SAMPLES_PER_HALF_PERIOD * window * bandwidth / math.pi
    if not needed < MAX_GRID_POINTS:
        raise ValueError(
            f"first-arrival scan needs {needed:.3g} grid points (spectral "
            f"bandwidth {bandwidth:.6g} over window {window:.6g}); the limit "
            f"is {MAX_GRID_POINTS}"
        )
    # centring the spectrum is a global phase: |A_N|^2 and p' are unchanged,
    # and the phases lam * t stay as small as the bandwidth allows
    lam = np.ascontiguousarray(eigvals - 0.5 * (eigvals[-1] + eigvals[0]))
    coef = _end_coef(ham)
    times = np.linspace(0.0, window, max(MIN_GRID_POINTS, math.ceil(needed)) + 1)
    p = end_probability_curve(lam, coef, times)
    mid = p[1:-1]
    peaks = np.flatnonzero((mid >= p[:-2]) & (mid >= p[2:]) & (mid > NOISE_FLOOR))
    weights = np.column_stack([coef, lam * coef])

    def slope(t: float) -> float:
        # p' = 2 Re(conj(A) A') with A' = -i D, D = sum lam_k c_k e^{-i lam_k t},
        # so p' = 2 Im(conj(A) D)
        amp, damp = np.exp(-1j * lam * t) @ weights
        return 2.0 * float((amp.conjugate() * damp).imag)

    if peaks.size:
        i = int(peaks[0]) + 1
        a, b = float(times[i - 1]), float(times[i + 1])
    else:
        a, b = float(times[-2]), window
        if not (p[-1] > NOISE_FLOOR and slope(b) < 0.0):
            return FirstMaximum(t_star=window, p_star=float(p[-1]))
    tol = REL_TOL * window
    fa, fb = slope(a), slope(b)
    if fa > 0.0 > fb:
        t_star = brent_root(slope, a, b, fa, fb, tol)
        p_star = end_probability(lam, coef, t_star)
    else:
        t_star, p_star, _ = golden_max(
            lambda t: end_probability(lam, coef, t), a, b, tol
        )
    return FirstMaximum(t_star=float(t_star), p_star=float(p_star))


def dump_trace_csv(trace: AmplitudeTrace, path: str | Path) -> None:
    """CSV with columns t, Re A_j, Im A_j (j = 1..N), p_end."""
    n = trace.n_sites
    header = ["t"]
    for j in range(1, n + 1):
        header += [f"re_A{j}", f"im_A{j}"]
    header.append("p_end")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(trace.times):
            row = [repr(float(t))]
            for j in range(n):
                a = trace.amplitudes[i, j]
                row += [repr(float(a.real)), repr(float(a.imag))]
            row.append(repr(float(trace.p_end[i])))
            writer.writerow(row)
