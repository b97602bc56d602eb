"""Chain, bend and defect definitions, and one-excitation Hamiltonian assembly.

Two coupling protocols are supported:

* Protocol 1: uniform bulk couplings with weakened boundary couplings
  (near-perfect transfer once the boundary ratio is calibrated).
* Protocol 2: fully engineered couplings sqrt((N-j) j) with exactly perfect
  transfer at pi/(2*omega0).

A bend at corner site alpha adds a direct coupling g = kappa * Omega_max
between the corner's two neighbours, and optionally an energy defect
(detuning) on the corner site itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Protocol",
    "ChainSpec",
    "BendSpec",
    "Hamiltonian",
    "build_couplings",
    "omega_max",
    "build_hamiltonian",
    "hamiltonian_matrix",
    "spec_to_dict",
    "spec_from_dict",
]


class Protocol(Enum):
    PROTOCOL_1 = 1
    PROTOCOL_2 = 2


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _binary_exponent(values: np.ndarray) -> int:
    """k with 2**k <= max |values| < 2**(k + 1) (k = -1 if all are 0).
    Divided by 2**k the values' squares cannot overflow, and a product, sum
    or square root that neither overflows nor underflows changes by no bit."""
    return math.frexp(float(np.abs(values).max()))[1] - 1


def _sorted_grid(values, name: str, item: str) -> np.ndarray:
    """A caller's grid as an ascending float array.  Raises ValueError
    if it is empty or repeats a value."""
    grid = np.sort(np.asarray(values, dtype=float))
    if grid.size == 0:
        raise ValueError(f"{name} is empty")
    if np.unique(grid).size < grid.size:
        raise ValueError(f"repeated {item} in the {name}: {grid.tolist()}")
    return grid


@dataclass(frozen=True)
class ChainSpec:
    """An unbent N-site chain: protocol, size and energy scale.

    ``boundary_ratio`` is the end-coupling ratio Omega/omega0 and is required
    for (and only allowed with) Protocol 1.  All couplings and energies are
    expressed in units where ``omega0`` sets the scale.
    """

    protocol: Protocol
    n_sites: int
    omega0: float = 1.0
    boundary_ratio: float | None = None

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        _require_finite(omega0=self.omega0)
        if self.boundary_ratio is not None:
            _require_finite(boundary_ratio=self.boundary_ratio)
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if self.protocol is Protocol.PROTOCOL_1:
            if self.boundary_ratio is None:
                raise ValueError("Protocol 1 requires boundary_ratio")
            if self.boundary_ratio <= 0:
                raise ValueError("boundary_ratio must be > 0")
        elif self.boundary_ratio is not None:
            raise ValueError("boundary_ratio is only meaningful for Protocol 1")


@dataclass(frozen=True)
class BendSpec:
    """A bend at corner site ``alpha`` (1-based, interior: 2 <= alpha <= N-1).

    ``kappa`` is the bend strength g / Omega_max in [0, 1]; ``delta_alpha``
    is the corner-site detuning in the same energy units as omega0.
    """

    alpha: int
    kappa: float
    delta_alpha: float = 0.0

    def __post_init__(self):
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Integral):
            raise ValueError(f"alpha must be an integer, got {self.alpha!r}")
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must be in [0, 1], got {self.kappa}")
        _require_finite(delta_alpha=self.delta_alpha)


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric one-excitation Hamiltonian with its eigensystem.

    ``eigenvalues`` are sorted ascending; ``eigenvectors[:, k]`` is the
    orthonormal eigenvector for ``eigenvalues[k]``.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def eigen_residual(self) -> float:
        """Max-norm residual of H v = lambda v over all eigenpairs."""
        r = self.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.abs(r).max())


def build_couplings(spec: ChainSpec) -> np.ndarray:
    """Nearest-neighbour coupling list, N-1 entries, centrosymmetric.
    Raises FloatingPointError if a Protocol 2 coupling overflows."""
    n = spec.n_sites
    if spec.protocol is Protocol.PROTOCOL_1:
        if n < 3:
            raise ValueError("Protocol 1 needs n_sites >= 3 (boundary + bulk)")
        couplings = np.full(n - 1, spec.omega0)
        couplings[0] = couplings[-1] = spec.boundary_ratio * spec.omega0
    else:
        # the middle coupling is the largest; checked as a Python float, whose
        # product overflows to inf where numpy's would warn
        if not math.isfinite(spec.omega0 * math.sqrt((n // 2) * (n - n // 2))):
            raise FloatingPointError(
                f"non-finite matrix entry: the Protocol 2 couplings overflow at "
                f"omega0={spec.omega0!r}"
            )
        j = np.arange(1, n)
        couplings = spec.omega0 * np.sqrt((n - j) * j)
    return couplings


def omega_max(spec: ChainSpec) -> float:
    """Largest nearest-neighbour coupling of the unbent chain."""
    return float(build_couplings(spec).max())


def hamiltonian_matrix(spec: ChainSpec, bend: BendSpec | None = None) -> np.ndarray:
    """The one-excitation matrix of a chain, bent or not.

    Without a bend the matrix is tridiagonal: a zero diagonal and the
    protocol couplings on the off-diagonals.  A bend adds
    g = kappa * Omega_max at the (alpha-1, alpha+1) site pair and the
    detuning delta_alpha on the corner diagonal entry.
    """
    n = spec.n_sites
    if bend is not None and not 2 <= bend.alpha <= n - 1:
        raise ValueError(f"corner index alpha={bend.alpha} out of range [2, {n - 1}]")
    couplings = build_couplings(spec)
    h = np.zeros((n, n))
    idx = np.arange(n - 1)
    h[idx, idx + 1] = couplings
    h[idx + 1, idx] = couplings
    if bend is not None:
        g = bend.kappa * omega_max(spec)
        a = bend.alpha - 1  # 0-based corner index
        h[a - 1, a + 1] += g
        h[a + 1, a - 1] += g
        h[a, a] += bend.delta_alpha
    return h


def build_hamiltonian(spec: ChainSpec, bend: BendSpec | None = None) -> Hamiltonian:
    """Assemble the one-excitation matrix (:func:`hamiltonian_matrix`) and
    diagonalize it."""
    h = hamiltonian_matrix(spec, bend)
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    return Hamiltonian(matrix=h, eigenvalues=eigenvalues, eigenvectors=eigenvectors)


# --- JSON config (keys: protocol, n_sites, omega0, boundary_ratio, alpha,
#     kappa, delta_alpha) ---


def spec_to_dict(spec: ChainSpec, bend: BendSpec | None = None) -> dict:
    d = {
        "protocol": spec.protocol.value,
        "n_sites": spec.n_sites,
        "omega0": spec.omega0,
    }
    if spec.boundary_ratio is not None:
        d["boundary_ratio"] = spec.boundary_ratio
    if bend is not None:
        d["alpha"] = bend.alpha
        d["kappa"] = bend.kappa
        d["delta_alpha"] = bend.delta_alpha
    return d


def _integer(key: str, value) -> int:
    """An integer config value.  int() would truncate a float with a
    fractional part (or read a bool as 0 or 1) into a different chain than
    the config names, so those raise ValueError, as do null, lists and
    objects; 9 and 9.0 both give 9."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, str))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _float(key: str, value) -> float:
    """A float config value: a number or a numeric string.  float() would
    read a bool as 0.0 or 1.0, so a bool raises ValueError, as do null,
    lists and objects."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def spec_from_dict(d: dict) -> tuple[ChainSpec, BendSpec | None]:
    spec = ChainSpec(
        protocol=Protocol(_integer("protocol", d["protocol"])),
        n_sites=_integer("n_sites", d["n_sites"]),
        omega0=_float("omega0", d.get("omega0", 1.0)),
        boundary_ratio=(
            _float("boundary_ratio", d["boundary_ratio"])
            if d.get("boundary_ratio") is not None else None
        ),
    )
    bend = None
    if "alpha" in d:
        bend = BendSpec(
            alpha=_integer("alpha", d["alpha"]),
            kappa=_float("kappa", d.get("kappa", 0.0)),
            delta_alpha=_float("delta_alpha", d.get("delta_alpha", 0.0)),
        )
    return spec, bend


def perfect_transfer_time(spec: ChainSpec) -> float:
    """Protocol 2's analytic arrival time pi/(2*omega0)."""
    if spec.protocol is not Protocol.PROTOCOL_2:
        raise ValueError("analytic arrival time exists only for Protocol 2")
    return 0.5 * math.pi / spec.omega0
