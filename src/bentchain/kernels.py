"""Spectral phase kernels on a uniform time grid.

An amplitude of the package is a spectral sum A(t) = sum_k e^{-i lam_k t} w_k
over the eigenvalues lam_k.  On a uniform grid t_k = t0 + k dt of T points
the phases factorise by angle addition,

    e^{-i lam (t0 + (j1 m2 + j2) dt)} = e^{-i lam (t0 + j1 m2 dt)} e^{-i lam j2 dt},

with k = j1 m2 + j2, m2 = isqrt(T) and m1 = ceil(T / m2).  So two tables of
about sqrt(T) rows each (:func:`phase_tables`) replace the T x N table of
transcendental functions: the end-site amplitude on the whole grid is one
complex matrix product.  ``propagate.evolve`` broadcasts the transposed
tables into a site-major phase array, one row per eigenvalue, so that the
real eigenvectors multiply a float view of it in one real matrix product.
The grid must be uniform; a grid that is not raises ValueError rather than
giving a wrong curve.  The eigenvalues may carry a leading batch axis, one
row per Hamiltonian sharing the grid: the batched first-arrival scans
evaluate a whole block of Hamiltonians in one stacked product.  The
first-arrival scan and ``evolve`` go through here; sums at scattered times
(the peak refine and single-time probabilities) are
``propagate._spectral_sums``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["end_probability_curve", "phase_tables"]

# Largest departure of ``times`` from t0 + k dt, relative to the largest
# |t|, that still counts as uniform: the few ulp of rounding in linspace or
# arange pass, while a grid whose points sit further off would get a curve
# at times it did not ask for.
UNIFORM_RTOL = 1e-12


def _cis(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}; cos and sin write straight into the complex result,
    with no complex temporary as in np.exp(1j * phase)."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def phase_tables(
    eigvals: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outer and inner phase tables of a uniform time grid.

    For T = len(times) points t0 + k dt, returns ``outer`` of shape (m1, N)
    holding e^{-i lam (t0 + j1 m2 dt)} and ``inner`` of shape (m2, N) holding
    e^{-i lam j2 dt}, with m2 = isqrt(T) and m1 = ceil(T / m2).  Row k of the
    full table is ``outer[k // m2] * inner[k % m2]``; the m1 m2 - T rows past
    the grid's end are surplus.  Eigenvalues of shape (B, N) give tables of
    shape (B, m1, N) and (B, m2, N).  Raises ValueError unless ``times`` is
    uniform to ``UNIFORM_RTOL`` of its largest |t|.
    """
    times = np.asarray(times, dtype=float)
    n = times.size
    m2 = max(1, math.isqrt(n))
    dt = (times[-1] - times[0]) / (n - 1) if n > 1 else 0.0
    starts = times[::m2]
    steps = dt * np.arange(m2)
    grid = (starts[:, None] + steps).ravel()[:n]
    if not np.all(np.abs(grid - times) <= UNIFORM_RTOL * np.abs(times).max(initial=0.0)):
        raise ValueError("times must be a finite, uniform grid")
    minus_lam = -np.asarray(eigvals, dtype=float)[..., None, :]
    return _cis(starts[:, None] * minus_lam), _cis(steps[:, None] * minus_lam)


def end_probability_curve(
    eigvals: np.ndarray, coef: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """|A_end(t)|^2 on a uniform grid of times (see :func:`phase_tables`).

    ``eigvals`` and ``coef`` of shape (B, N) give B curves, shape (B, T).
    """
    outer, inner = phase_tables(eigvals, times)
    coef = np.asarray(coef)[..., None, :]
    amp = ((outer * coef) @ np.swapaxes(inner, -1, -2))
    amp = amp.reshape(*amp.shape[:-2], -1)[..., : np.size(times)]
    return amp.real * amp.real + amp.imag * amp.imag
