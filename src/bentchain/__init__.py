"""Single-excitation state transfer along bent qubit chains."""

from .chain import (
    BendSpec,
    ChainSpec,
    Hamiltonian,
    Protocol,
    build_couplings,
    build_hamiltonian,
    omega_max,
    perfect_transfer_time,
)
from .metrics import (
    FitDivergedError,
    FitReport,
    SweepTable,
    TransferResult,
    fit_gaussian,
    fit_linear,
    sweep_alpha,
    sweep_kappa,
    transfer_metrics,
)
from .optimize import OptimizationResult, detuning_curve, optimize_detuning
from .photonic import (
    DeviceParams,
    ParasiticReport,
    WaveguideLayout,
    coupling_from_separation,
    design_layout,
    parasitic_check,
    separation_from_coupling,
)
from .propagate import AmplitudeTrace, evolve, first_arrivals
from .reference import ReferencePoint, calibrate_protocol1, reference
from .spectral import SpectrumReport, overlap_profile, spectrum_report

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTrace",
    "BendSpec",
    "ChainSpec",
    "DeviceParams",
    "FitDivergedError",
    "FitReport",
    "Hamiltonian",
    "OptimizationResult",
    "ParasiticReport",
    "Protocol",
    "ReferencePoint",
    "SpectrumReport",
    "SweepTable",
    "TransferResult",
    "WaveguideLayout",
    "build_couplings",
    "build_hamiltonian",
    "calibrate_protocol1",
    "coupling_from_separation",
    "design_layout",
    "detuning_curve",
    "evolve",
    "first_arrivals",
    "fit_gaussian",
    "fit_linear",
    "omega_max",
    "optimize_detuning",
    "overlap_profile",
    "parasitic_check",
    "perfect_transfer_time",
    "reference",
    "separation_from_coupling",
    "spectrum_report",
    "sweep_alpha",
    "sweep_kappa",
    "transfer_metrics",
]
