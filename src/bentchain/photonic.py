"""Mapping coupling distributions to waveguide-array geometry.

In the weak-coupling regime the inter-guide coupling falls exponentially
with the gap, C = eta * exp(-xi * d), so a target coupling list inverts to
d = -ln(C / eta) / xi.  Propagation distance along the array plays the
role of time, so the dimensionless arrival time and the device length fix
the physical energy scale omega0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _require_finite, build_couplings
from .reference import reference

__all__ = [
    "DeviceParams",
    "WaveguideLayout",
    "ParasiticReport",
    "coupling_from_separation",
    "separation_from_coupling",
    "design_layout",
    "parasitic_check",
]


@dataclass(frozen=True)
class DeviceParams:
    """eta in 1/cm, xi in 1/um, length in cm, wavelength in nm (metadata)."""

    eta: float
    xi: float
    length: float
    wavelength: float = 633.0

    def __post_init__(self):
        _require_finite(eta=self.eta, xi=self.xi, length=self.length,
                        wavelength=self.wavelength)
        if self.eta <= 0 or self.xi <= 0 or self.length <= 0:
            raise ValueError("eta, xi and length must all be > 0")


@dataclass(frozen=True)
class WaveguideLayout:
    separations: np.ndarray  # um, N-1 gaps
    omega0_physical: float  # 1/cm
    couplings_physical: np.ndarray  # 1/cm


@dataclass(frozen=True)
class ParasiticReport:
    """Next-nearest over nearest coupling ratios on a straight layout."""

    ratios: np.ndarray
    max_ratio: float


def coupling_from_separation(d_um: float, dev: DeviceParams) -> float:
    """C = eta * exp(-xi d), in 1/cm."""
    return dev.eta * math.exp(-dev.xi * d_um)


def separation_from_coupling(c_per_cm: float, dev: DeviceParams) -> float:
    """d = -ln(C / eta) / xi, in um; requires 0 < C < eta.  Raises
    FloatingPointError if C / eta underflows to 0 or d is not finite."""
    if c_per_cm >= dev.eta:
        raise ValueError(
            f"separation non-positive: coupling {c_per_cm:.4g}/cm exceeds "
            f"prefactor eta={dev.eta:.4g}/cm"
        )
    if c_per_cm <= 0:
        raise ValueError("coupling must be > 0")
    ratio = c_per_cm / dev.eta
    d = -math.log(ratio) / dev.xi if ratio > 0 else math.inf
    if not math.isfinite(d):
        raise FloatingPointError(
            f"separation not finite: coupling {c_per_cm:.4g}/cm against "
            f"eta={dev.eta:.4g}/cm at xi={dev.xi:.4g}/um"
        )
    return d


def design_layout(spec: ChainSpec, dev: DeviceParams) -> WaveguideLayout:
    """Physical gap distances realizing the chain's coupling distribution.

    omega0 is chosen so the transfer completes at the device length:
    omega0 = t0 / L with t0 the dimensionless arrival time of the chain's
    reference at omega0 = 1 (:func:`reference`).
    """
    unit_spec = ChainSpec(
        protocol=spec.protocol,
        n_sites=spec.n_sites,
        omega0=1.0,
        boundary_ratio=spec.boundary_ratio,
    )
    omega0_physical = reference(unit_spec).t0 / dev.length  # 1/cm
    ratios = build_couplings(spec) / spec.omega0
    couplings = omega0_physical * ratios
    separations = np.array(
        [separation_from_coupling(c, dev) for c in couplings]
    )
    return WaveguideLayout(
        separations=separations,
        omega0_physical=omega0_physical,
        couplings_physical=couplings,
    )


def parasitic_check(layout: WaveguideLayout, dev: DeviceParams) -> ParasiticReport:
    """Next-nearest-neighbour couplings on the straight layout, relative to
    the weaker of the two flanking nearest-neighbour couplings."""
    d = layout.separations
    if d.size < 2:
        return ParasiticReport(ratios=np.empty(0), max_ratio=0.0)
    ratios = np.empty(d.size - 1)
    for j in range(d.size - 1):
        c_nnn = coupling_from_separation(float(d[j] + d[j + 1]), dev)
        c_min = min(
            coupling_from_separation(float(d[j]), dev),
            coupling_from_separation(float(d[j + 1]), dev),
        )
        ratios[j] = c_nnn / c_min
    return ParasiticReport(ratios=ratios, max_ratio=float(ratios.max()))
