"""Independent first-arrival oracle.

Rebuilds |A_N(t)|^2 from its own eigendecomposition of the library's
Hamiltonian matrix (only the matrix assembly is shared with the code under
test) on a dense uniform grid, then refines the first local maximum by
bisection on the analytic derivative p'(t) = 2 Re(conj(A) A').  It never
calls ``bentchain.propagate``, ``bentchain.kernels`` or ``bentchain.search``.
"""

from __future__ import annotations

import math

import numpy as np

GRID_POINTS = 65_536
CHUNK = 4096
# same meaning as the library's documented noise floor: local maxima of
# |A_N|^2 below this are roundoff ripple, not arrivals
NOISE_FLOOR = 1e-16
# documented defaults of the references the library computes: the unbent
# Protocol 1 reference searches [0, 40/omega0]; the calibration searches
# [0, max(0.8 N, 8)/omega0]
P1_REFERENCE_WINDOW = 40.0


def calibration_window(n_sites: int, omega0: float = 1.0) -> float:
    return max(0.8 * n_sites, 8.0) / omega0


class Oracle:
    """Dense-grid first arrival and reference values for bentchain chains."""

    def __init__(self, bc):
        self._bc = bc
        self._refs: dict = {}

    def spectrum(self, spec, bend=None) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and the 1 -> N spectral weights v_1k v_Nk."""
        matrix = np.array(self._bc.build_hamiltonian(spec, bend).matrix, dtype=float)
        lam, vec = np.linalg.eigh(matrix)
        return lam, vec[0, :] * vec[-1, :]

    @staticmethod
    def end_probability(lam, weights, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty(times.size)
        for lo in range(0, times.size, CHUNK):
            amp = np.exp(-1j * np.multiply.outer(times[lo:lo + CHUNK], lam)) @ weights
            out[lo:lo + CHUNK] = amp.real**2 + amp.imag**2
        return out

    @staticmethod
    def _slope(lam, weights, t: float) -> float:
        phase = np.exp(-1j * lam * t)
        amp = phase @ weights
        damp = phase @ (-1j * lam * weights)
        return 2.0 * float((np.conj(amp) * damp).real)

    def first_arrival(self, lam, weights, window: float) -> tuple[float, float]:
        """(t, p) of the first local maximum of |A_N|^2 in [0, window]; the
        window end if the occupation is still rising there."""
        times = np.linspace(0.0, window, GRID_POINTS)
        p = self.end_probability(lam, weights, times)
        mid = p[1:-1]
        peaks = np.flatnonzero((mid >= p[:-2]) & (mid >= p[2:]) & (mid > NOISE_FLOOR))
        if peaks.size == 0:
            return float(times[-1]), float(p[-1])
        i = int(peaks[0]) + 1
        a, b = float(times[i - 1]), float(times[i + 1])
        if self._slope(lam, weights, a) > 0.0 > self._slope(lam, weights, b):
            for _ in range(200):
                m = 0.5 * (a + b)
                if m in (a, b):
                    break
                if self._slope(lam, weights, m) > 0.0:
                    a = m
                else:
                    b = m
            t = 0.5 * (a + b)
        else:  # flat or kinked top: ternary search on p itself
            for _ in range(200):
                if b - a <= 4.0 * np.finfo(float).eps * window:
                    break
                m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
                f1, f2 = self.end_probability(lam, weights, [m1, m2])
                if f1 < f2:
                    a = m1
                else:
                    b = m2
            t = 0.5 * (a + b)
        return t, float(self.end_probability(lam, weights, t)[0])

    def reference(self, spec, ref_window: float | None) -> tuple[float, float]:
        """(p0, t0) of the unbent chain.  ``ref_window`` None means the
        analytic Protocol 2 arrival pi/(2 omega0)."""
        key = (spec, ref_window)
        if key not in self._refs:
            lam, w = self.spectrum(spec)
            if ref_window is None:
                t0 = math.pi / (2.0 * spec.omega0)
                p0 = float(self.end_probability(lam, w, t0)[0])
            else:
                t0, p0 = self.first_arrival(lam, w, ref_window)
            self._refs[key] = (p0, t0)
        return self._refs[key]

    def normalized_arrival(self, spec, bend, ref_window) -> tuple[float, float]:
        """(q, s) of the bent chain within the unbent reference window."""
        p0, t0 = self.reference(spec, ref_window)
        lam, w = self.spectrum(spec, bend)
        t, p = self.first_arrival(lam, w, t0)
        return p / p0, t / t0
