"""Spectral diagnostics: eigenvalue gaps and initial-state overlaps for the
unperturbed, bent, and bent-optimized Hamiltonians.

The bend distorts the (uniform, for Protocol 2) gap structure; a good
corner detuning restores it.  Restoration is quantified as the RMS of the
gap differences relative to the unperturbed spectrum, plus a variant
weighted by the initial-state overlap profile (end-of-spectrum gaps matter
little because the initial state barely overlaps those eigenvectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import BendSpec, ChainSpec, Hamiltonian, build_hamiltonian

LABELS = ("unperturbed", "bent", "bent_optimized")

__all__ = ["SpectrumReport", "spectrum_report", "overlap_profile"]


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: dict[str, np.ndarray]
    gaps: dict[str, np.ndarray]
    overlaps: dict[str, np.ndarray]
    gap_distortion: dict[str, float]
    gap_distortion_weighted: dict[str, float]


def overlap_profile(ham: Hamiltonian) -> np.ndarray:
    """|<v_k, e_1>|^2 in eigenvalue order; sums to 1 by completeness."""
    return ham.eigenvectors[0, :] ** 2


def spectrum_report(
    spec: ChainSpec, bend: BendSpec, delta_alpha: float
) -> SpectrumReport:
    """Compare unperturbed, bent (no defect) and bent-optimized spectra.

    ``delta_alpha`` is the optimized corner detuning in energy units
    (same units as omega0).  Raises FloatingPointError if a gap is not
    finite (``eigh`` of entries near the float limit can return an
    infinite eigenvalue, and two finite ones can lie too far apart).
    """
    hams = {
        "unperturbed": build_hamiltonian(spec),
        "bent": build_hamiltonian(spec, replace(bend, delta_alpha=0.0)),
        "bent_optimized": build_hamiltonian(
            spec, replace(bend, delta_alpha=delta_alpha)
        ),
    }
    for k, h in hams.items():
        lam = h.eigenvalues.tolist()
        # a Python float difference overflows to inf where np.diff would warn
        if not all(math.isfinite(b - a) for a, b in zip(lam, lam[1:])):
            raise FloatingPointError(f"{k} spectrum has a non-finite gap")
    eigenvalues = {k: h.eigenvalues.copy() for k, h in hams.items()}
    gaps = {k: np.diff(v) for k, v in eigenvalues.items()}
    overlaps = {k: overlap_profile(h) for k, h in hams.items()}

    ref_gaps = gaps["unperturbed"]
    ref_overlap = overlaps["unperturbed"]
    # weight gap k by the initial-state overlap of its two flanking levels
    w = 0.5 * (ref_overlap[:-1] + ref_overlap[1:])
    w = w / w.sum()
    distortion = {}
    distortion_weighted = {}
    for k in LABELS:
        d = gaps[k] - ref_gaps
        # divided by the power of two at or below max |d|, d^2 cannot
        # overflow; the RMS is bit for bit the unscaled one wherever d^2
        # neither overflows nor underflows
        scale = math.ldexp(1.0, math.frexp(float(np.abs(d).max()))[1] - 1)
        d = d / scale
        distortion[k] = scale * float(np.sqrt(np.mean(d**2)))
        distortion_weighted[k] = scale * float(np.sqrt(np.sum(w * d**2)))
    return SpectrumReport(
        eigenvalues=eigenvalues,
        gaps=gaps,
        overlaps=overlaps,
        gap_distortion=distortion,
        gap_distortion_weighted=distortion_weighted,
    )
