"""Independent first-arrival reference for the tests.

Diagonalizes the Hamiltonian matrix itself, samples |A_N(t)|^2 on a dense
uniform grid, takes the first local maximum above the noise floor (or, with
none, a peak in the last cell when the slope falls at the window end), and
bisects the analytic slope p'(t) = 2 Re(conj(A) A') to machine precision.
It shares no code with ``bentchain.propagate`` or ``search``.
"""

from __future__ import annotations

import numpy as np

GRID_POINTS = 65_536
CHUNK = 4096
NOISE_FLOOR = 1e-16


def spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and the 1 -> N spectral weights v_1k v_Nk."""
    lam, vec = np.linalg.eigh(np.asarray(matrix, dtype=float))
    return lam, vec[0, :] * vec[-1, :]


def end_probability(lam, weights, times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(times.size)
    for lo in range(0, times.size, CHUNK):
        amp = np.exp(-1j * np.multiply.outer(times[lo:lo + CHUNK], lam)) @ weights
        out[lo:lo + CHUNK] = amp.real**2 + amp.imag**2
    return out


def slope(lam, weights, t: float) -> float:
    phase = np.exp(-1j * lam * t)
    amp = phase @ weights
    damp = phase @ (-1j * lam * weights)
    return 2.0 * float((np.conj(amp) * damp).real)


def first_arrival_dense(matrix: np.ndarray, window: float) -> tuple[float, float]:
    """(t, p) of the first maximum of |A_N|^2 in [0, window]."""
    lam, w = spectrum(matrix)
    times = np.linspace(0.0, window, GRID_POINTS)
    p = end_probability(lam, w, times)
    mid = p[1:-1]
    peaks = np.flatnonzero((mid >= p[:-2]) & (mid >= p[2:]) & (mid > NOISE_FLOOR))
    if peaks.size:
        i = int(peaks[0]) + 1
        a, b = float(times[i - 1]), float(times[i + 1])
    elif p[-1] > NOISE_FLOOR and slope(lam, w, window) < 0.0:
        a, b = float(times[-2]), window
    else:
        return window, float(p[-1])
    if slope(lam, w, a) > 0.0 > slope(lam, w, b):
        for _ in range(200):
            m = 0.5 * (a + b)
            if m in (a, b):
                break
            if slope(lam, w, m) > 0.0:
                a = m
            else:
                b = m
    else:  # flat or kinked top: ternary search on p itself
        for _ in range(200):
            if b - a <= 4.0 * np.finfo(float).eps * window:
                break
            m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
            f1, f2 = end_probability(lam, w, [m1, m2])
            if f1 < f2:
                a = m1
            else:
                b = m2
    t = 0.5 * (a + b)
    return t, float(end_probability(lam, w, t)[0])
