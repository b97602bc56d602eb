"""Spectral diagnostics: eigenvalue gaps of the unperturbed, bent, and
bent-optimized Hamiltonians, and the initial-state overlaps of the
unperturbed one.

The bend distorts the (uniform, for Protocol 2) gap structure; a good
corner detuning restores it.  Restoration is quantified as the RMS of the
gap differences relative to the unperturbed spectrum, plus a variant
weighted by the initial-state overlap profile (end-of-spectrum gaps matter
little because the initial state barely overlaps those eigenvectors).
Only the unperturbed chain needs eigenvectors (``eigh``); the two bent
spectra are eigenvalues only, one stacked ``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import (
    BendSpec,
    ChainSpec,
    Hamiltonian,
    _binary_exponent,
    build_hamiltonian,
    hamiltonian_matrix,
)

LABELS = ("unperturbed", "bent", "bent_optimized")

__all__ = ["SpectrumReport", "spectrum_report", "overlap_profile"]


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: dict[str, np.ndarray]
    gaps: dict[str, np.ndarray]
    overlaps: np.ndarray  # the unperturbed chain's overlap_profile
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
    (same units as omega0).  The unperturbed chain is diagonalized with
    ``eigh`` for its overlap profile; the two bent matrices are stacked
    into one ``eigvalsh``, as their eigenvectors are not read.  Raises
    FloatingPointError if a gap is not finite (``eigvalsh`` of entries
    near the float limit can return an infinite eigenvalue, and two
    finite ones can lie too far apart).
    """
    unbent = build_hamiltonian(spec)
    bent = np.linalg.eigvalsh(np.stack([
        hamiltonian_matrix(spec, replace(bend, delta_alpha=d)) for d in (0.0, delta_alpha)
    ]))
    eigenvalues = dict(zip(LABELS, (unbent.eigenvalues, *bent)))
    for k, v in eigenvalues.items():
        lam = v.tolist()
        # a Python float difference overflows to inf where np.diff would warn
        if not all(math.isfinite(b - a) for a, b in zip(lam, lam[1:])):
            raise FloatingPointError(f"{k} spectrum has a non-finite gap")
    gaps = {k: np.diff(v) for k, v in eigenvalues.items()}
    overlaps = overlap_profile(unbent)

    ref_gaps = gaps["unperturbed"]
    # weight gap k by the initial-state overlap of its two flanking levels
    w = 0.5 * (overlaps[:-1] + overlaps[1:])
    w = w / w.sum()
    distortion = {}
    distortion_weighted = {}
    for k in LABELS:
        d = gaps[k] - ref_gaps
        # d^2 cannot overflow at this scale (see _binary_exponent)
        scale = math.ldexp(1.0, _binary_exponent(d))
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
