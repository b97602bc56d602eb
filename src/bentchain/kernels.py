"""End-site probability kernel.

A(t) = sum_k exp(-i lam_k t) c_k with real spectral weights c_k, so
|A(t)|^2 = (sum_k c_k cos(lam_k t))^2 + (sum_k c_k sin(lam_k t))^2.
Every first-arrival search, sweep and detuning optimization evaluates it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["end_probability", "end_probability_curve"]


def end_probability(eigvals: np.ndarray, coef: np.ndarray, t: float) -> float:
    """|A_end(t)|^2 for a single time."""
    phase = eigvals * t
    re = float(coef @ np.cos(phase))
    im = float(coef @ np.sin(phase))
    return re * re + im * im


def end_probability_curve(
    eigvals: np.ndarray, coef: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """|A_end(t)|^2 on a grid of times."""
    phases = np.outer(times, eigvals)
    re = np.cos(phases) @ coef
    im = np.sin(phases) @ coef
    return re * re + im * im
