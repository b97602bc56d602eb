"""Exact time evolution of the one-excitation amplitudes.

The Hamiltonian is time independent, so propagation is spectral:
A(t) = sum_k exp(-i lam_k t) v_k <v_k, A(0)> with A(0) = e_1.  There is no
step-size error; accuracy is set by the eigensolver residual and by the
rounding of the phase tables below.

:func:`evolve` and the first-arrival scan sample A(t) on a uniform grid of
[0, t_end], which :func:`_phase_tables` builds.  On a grid t_k = k dt of T
points the phases factorise by angle addition,

    e^{-i lam (j1 m2 + j2) dt} = e^{-i lam j1 m2 dt} e^{-i lam j2 dt},

with k = j1 m2 + j2, m2 = isqrt(T) and m1 = ceil(T / m2).  So two tables of
about sqrt(T) rows each replace the T x N table, and the end-site amplitude
on the whole grid, for a whole block of Hamiltonians, is one stacked matrix
product (:func:`_end_curve`).  The tables themselves are powers of two bases,
e^{-i lam j2 dt} = z^j2 with z = e^{-i lam dt} and
e^{-i lam j1 m2 dt} = w^j1 with w = e^{-i lam m2 dt}, built by doubling
(z^{k + j} = z^k z^j), so a Hamiltonian takes 2 N cos/sin pairs rather
than one per table entry.  Row m of a table is off by at most about m eps
in magnitude (2.3e-13 on the largest grid, where m reaches 1024), and its
phase is as accurate as a direct evaluation at the rounded argument
lam m dt.  Sums at scattered times (the peak refine) are
:func:`_spectral_sums`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .chain import Hamiltonian
from .search import zoom_max

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
# Newton steps of the slope refine; bisection alone needs about 30 to shrink
# a scan cell to REL_TOL
MAX_REFINE_STEPS = 100
# Newton steps of a followed arrival (:func:`_follow`); the refine steps of
# the figures and of 300 random bends converged in at most 4
MAX_FOLLOW_STEPS = 8
# Scan cells on either side of its start within which a followed arrival's
# Newton iterates must stay: a calibration's refine step can lie up to one
# 0.05 ratio cell from the nearest known ratio, and its arrival then moves
# by up to 2 cells
FOLLOW_CELLS = 3
# Bytes of the phases evolve builds and multiplies per block: about half of
# a 2 MiB L2 cache, so that the GEMM reads a block the broadcast has just
# written while it is still in cache.
PHASE_BLOCK_BYTES = 2**20
# Hamiltonians per stacked eigvalsh and scan in first_arrivals.  The
# library's own calls hold at most 20 (the optimizer's coarse scan 16, a
# calibration's 20), so the block bounds the memory of a long sweep a
# caller passes in, whose rows would otherwise all share one grid as wide
# as the widest row's.
BLOCK_ROWS = 32

__all__ = [
    "AmplitudeTrace",
    "evolve",
    "first_arrivals",
]


@dataclass(frozen=True)
class AmplitudeTrace:
    """Site amplitudes A_j(t) on a uniform time grid, excitation on site 1
    at t=0.  ``p_end[i]`` is |A_N(times[i])|^2."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n_times, N), complex; a site-major view
    p_end: np.ndarray

    def norms(self) -> np.ndarray:
        """Total occupation probability per time point (should be 1)."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


def _cis(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}; cos and sin write straight into the complex result,
    with no complex temporary as in np.exp(1j * phase)."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _powers(base: np.ndarray, m: int) -> np.ndarray:
    """The powers z^0, ..., z^(m-1) of each entry z of ``base`` (shape
    (..., N)) as an (..., m, N) table, built by doubling: once rows [0, k)
    are filled, rows [k, 2k) are those rows times z^k, and z^2k is the
    square of z^k.  It takes no transcendental function, and about
    m + log2(m) complex products per entry of ``base``."""
    table = np.empty((*base.shape[:-1], m, base.shape[-1]), dtype=complex)
    table[..., 0, :] = 1.0
    power, k = base[..., None, :], 1
    while k < m:
        j = min(k, m - k)
        np.multiply(table[..., :j, :], power, out=table[..., k : k + j, :])
        k += j
        if k < m:
            power = power * power
    return table


def _phase_tables(
    eigvals: np.ndarray, t_end: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniform grid of ``n`` points on [0, t_end] (endpoints included),
    the (m1, N) outer table e^{-i lam j1 m2 dt} and the (m2, N) inner table
    e^{-i lam j2 dt}.  Row k of the full table is
    ``outer[k // m2] * inner[k % m2]``; the m1 m2 - n rows past the grid's
    end are surplus.  Eigenvalues of shape (B, N) give (B, m1, N) and
    (B, m2, N) tables.

    Only the two bases e^{-i lam dt} and e^{-i lam m2 dt} are evaluated
    (2 N cos/sin pairs per Hamiltonian); the tables are their powers
    (:func:`_powers`).  Row j of a table is off by at most about j eps in
    magnitude, and its phase error, j times that of the rounded base, is
    the size of a direct evaluation's at the rounded argument lam j dt.
    """
    times = np.linspace(0.0, t_end, n)
    m2 = math.isqrt(n)
    dt = (times[-1] - times[0]) / (n - 1)
    m1 = -(-n // m2)
    bases = _cis(-eigvals[..., None, :] * np.array([[dt], [m2 * dt]]))
    return times, _powers(bases[..., 1, :], m1), _powers(bases[..., 0, :], m2)


def _end_curve(
    eigvals: np.ndarray, coef: np.ndarray, t_end: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The grid of :func:`_phase_tables` and |A_N|^2 on it, for the end
    weights ``coef``.  ``eigvals`` and ``coef`` of shape (B, N) give B
    curves, shape (B, n)."""
    times, outer, inner = _phase_tables(eigvals, t_end, n)
    amp = (outer * coef[..., None, :]) @ np.swapaxes(inner, -1, -2)
    amp = amp.reshape(*amp.shape[:-2], -1)[..., :n]
    return times, amp.real * amp.real + amp.imag * amp.imag


def evolve(ham: Hamiltonian, t_end: float, n_steps: int = DEFAULT_N_STEPS) -> AmplitudeTrace:
    """Propagate A(0) = e_1 on a uniform grid of ``n_steps`` points in
    [0, t_end] (endpoints included).

    The phases <v_k, e_1> e^{-i lam_k t} are built site-major, one row per
    eigenvalue, from the tables of :func:`_phase_tables`, a block of whole
    outer-table rows (at most ``PHASE_BLOCK_BYTES``, at least one row) at a
    time into one reused buffer.  The product of each block with the real
    eigenvectors is one real GEMM on their float views (2 T N^2 multiply-adds
    in all, half those of a complex GEMM), written straight into that
    block's columns of the site-major (N, >= n_steps) result, so the full
    phase array is never held.  ``amplitudes`` is the (n_steps, N)
    transpose of the result: a view, not a C-ordered copy.
    """
    if not math.isfinite(t_end) or t_end <= 0:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if n_steps < 100:
        raise ValueError(f"n_steps must be >= 100, got {n_steps}")
    times, outer, inner = _phase_tables(ham.eigenvalues, t_end, n_steps)
    vec = ham.eigenvectors
    n, m1, m2 = vec.shape[0], len(outer), len(inner)
    rows = min(m1, max(1, PHASE_BLOCK_BYTES // (16 * n * m2)))
    # weights[k, j1] = <v_k, e_1> e^{-i lam_k t_{j1 m2}}
    weights, steps = (outer * vec[0]).T[:, :, None], inner.T[:, None, :]
    buffer = np.empty(n * rows * m2, dtype=complex)
    sites = np.empty((n, m1 * m2), dtype=complex)
    product = sites.view(float)
    for j in range(0, m1, rows):
        b = min(rows, m1 - j)
        # phases[k, j1, j2] = <v_k, e_1> e^{-i lam_k t_{(j + j1) m2 + j2}};
        # the last block may be short, so it takes the head of the flat buffer
        phases = buffer[: n * b * m2].reshape(n, b, m2)
        np.multiply(weights[:, j : j + b], steps, out=phases)
        np.matmul(vec, phases.reshape(n, -1).view(float),
                  out=product[:, 2 * j * m2 : 2 * (j + b) * m2])
    amplitudes = sites[:, :n_steps].T
    p_end = np.abs(amplitudes[:, -1]) ** 2
    return AmplitudeTrace(times=times, amplitudes=amplitudes, p_end=p_end)


def first_arrivals(
    matrices: Iterable[np.ndarray], window: float
) -> tuple[np.ndarray, np.ndarray]:
    """First arrival (t*, p*), the first local maximum of |A_N|^2 in
    [0, window], of every Hamiltonian in a sequence of real symmetric
    N x N matrices (an (B, N, N) array, a list or a generator); returns two
    arrays with one entry per matrix.

    Scans a uniform grid with ``SAMPLES_PER_HALF_PERIOD`` points per
    half-period of the fastest frequency in |A_N|^2 (the spectral bandwidth)
    for the first point at or above both neighbours and above
    ``NOISE_FLOOR``.  The bracketing cells are refined by a safeguarded
    Newton iteration on the analytic slope p'(t), or by a zoom on p
    (:func:`search.zoom_max`) where p' does not change sign across them (a
    flat or kinked top).  Without an interior peak, a falling slope at the
    window end puts the peak in the last cell, which is refined the same
    way; otherwise the endpoint is reported (transfer not yet peaked).
    Raises ValueError if the window is not finite and positive (checked
    once per call, also for an empty sequence), or if the bandwidth would
    need more than ``MAX_GRID_POINTS`` points, and FloatingPointError if a
    matrix has a non-finite entry (an overflowing coupling or detuning).

    Takes the matrices ``BLOCK_ROWS`` at a time: one stacked ``eigvalsh``
    and one scan per block, on a grid fine enough for the block's widest
    spectrum, so no more than one block is held at once.  The end weights
    come from the eigenvalues alone (:func:`_end_weights`); only a row
    that is not tridiagonal plus at most one chord, or whose weights are
    not finite, takes ``eigh``.  Each block is first divided by a power of
    two that brings its largest |entry| into [1, 2), and the window
    multiplied by it, as far as the scaled window stays a finite normal
    number; t* is divided by it at the end.  A power of two rescales
    exactly, and it keeps the products of couplings in the weights and the
    moments lam^2 c of the refine from overflowing or going subnormal,
    whatever the overall size of the matrices (omega0).
    """
    window = float(window)
    if not math.isfinite(window) or window <= 0:
        raise ValueError(f"window must be finite and > 0, got {window}")
    rows = iter(matrices)
    found = [np.empty((2, 0))]
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        block = np.array(block, dtype=float)
        scale = _scale(block, window)
        block /= scale
        t_star, p_star = _scan(*_end_weights(block), window * scale)
        found.append((t_star / scale, p_star))
    return tuple(np.concatenate(found, axis=1))


_NON_FINITE_ENTRY = "non-finite matrix entry (an overflowing coupling or detuning)"


def _scale(matrices: np.ndarray, window: float) -> float:
    """The power of two 2^e with 2^e <= the largest |entry| of ``matrices``
    < 2^(e + 1), clipped so that ``window`` times it stays a finite normal
    number: the divisor of a block in :func:`first_arrivals`, and of the
    matrices of a slope or followed call of :func:`_objective`.  Raises
    FloatingPointError if an entry is not finite (the largest |entry| is
    then inf or NaN), or if the clip leaves the largest |entry| divided by
    2^e beyond the float range."""
    largest = float(np.abs(matrices).max(initial=0.0))
    if not math.isfinite(largest):
        raise FloatingPointError(_NON_FINITE_ENTRY)
    _, e_window = math.frexp(window)  # 2^(e_window - 1) <= window < 2^e_window
    exponent = math.frexp(largest)[1] - 1
    scale = math.ldexp(1.0, min(max(exponent, -1021 - e_window), 1023 - e_window))
    if not math.isfinite(largest / scale):
        raise FloatingPointError(
            f"overflow: the largest |entry| {largest:.6g} and the window {window:.6g} "
            f"cannot both be scaled into the float range"
        )
    return scale


def _objective(base: np.ndarray, direction: np.ndarray, window: float):
    """The ``evaluate`` callable of :func:`search.scan_and_refine` for the
    matrices H(x) = ``base`` + x ``direction``, built lazily, one block at a
    time, in three forms:

    - ``evaluate(xs)``: the first arrivals (t*, p*) of the points ``xs``
      over [0, window] (:func:`first_arrivals`), the full path;
    - ``evaluate(xs, at=t)``: their slopes dp*/dx at the arrivals t found
      before (:func:`_arrival_slopes`), one stacked ``eigh`` of the stack
      divided by its power of two (:func:`_scale`) and no scan;
    - ``evaluate(x, near=t)``: the first arrival of one point x followed
      from the arrival t of a nearby point, with its slope: (t*, p*, dp*/dx)
      from one ``eigh`` and no scan (:func:`_follow`), or None where it
      cannot be followed.

    ``evaluate.t_tol`` = ``REL_TOL`` * window is the tolerance of both
    paths' t*.  Each form raises FloatingPointError if x ``direction``
    overflows; ``base`` is zero wherever ``direction`` is not, so base +
    x ``direction`` cannot overflow otherwise."""
    largest = float(np.abs(direction).max(initial=0.0))

    def checked(x) -> float:
        # a Python float product overflows to inf where numpy's would warn
        x = float(x)
        if not math.isfinite(x * largest):
            raise FloatingPointError(_NON_FINITE_ENTRY)
        return x

    def evaluate(xs, at=None, near=None):
        if near is not None:
            return _follow(base + checked(xs) * direction, direction, near, window)
        if at is None:
            return first_arrivals((base + checked(x) * direction for x in xs), window)
        stack = base + np.multiply.outer([checked(x) for x in xs], direction)
        scale = _scale(stack, window)
        return _arrival_slopes(*np.linalg.eigh(stack / scale), direction / scale, at * scale)

    evaluate.t_tol = REL_TOL * window
    return evaluate


def _follow(matrix: np.ndarray, direction: np.ndarray, t_near: float,
            window: float) -> tuple[float, float, float] | None:
    """The first arrival (t*, p*) of ``matrix`` = H(x) over [0, window] and
    its slope dp*/dx, with E = dH/dx ``direction``, followed from the
    arrival ``t_near`` of a nearby x: the refine step of
    :func:`search.scan_and_refine`, where x moves within one coarse cell
    and the arrival moves with it.

    One ``eigh`` of H(x), divided by a power of two as a block of
    :func:`first_arrivals` is (:func:`_scale`), gives the end weights
    c = v[1] v[N].  Newton steps on p'(t), with p'' from the same sums
    (those of :func:`_spectral_sums` at one time: one ``exp`` and one dot
    over the spectrum per step, the rest on Python scalars), start from
    ``t_near`` and stop once a step is within ``REL_TOL`` * window; the
    slope comes from the same eigenvectors (:func:`_arrival_slopes`).
    None, for the full path to take over, where ``t_near`` is the window
    end, where p'' >= 0 (or is not finite) at an iterate, where an iterate
    leaves the ``FOLLOW_CELLS`` scan cells on either side of ``t_near``
    (the grid spacing :func:`_scan` would use for H(x)'s own bandwidth,
    within [0, window]), or where ``MAX_FOLLOW_STEPS`` steps do not
    converge.  Only the first arrival's own peak passes these; the caller
    checks its last point on the full path.
    """
    if not t_near < window:
        return None
    scale = _scale(matrix, window)
    lam, vec = np.linalg.eigh(matrix[None] / scale)
    window, t = window * scale, float(t_near) * scale
    needed = SAMPLES_PER_HALF_PERIOD * window * float(lam[0, -1] - lam[0, 0]) / math.pi
    reach = FOLLOW_CELLS * window / max(MIN_GRID_POINTS, math.ceil(needed))
    lo, hi = max(t - reach, 0.0), min(t + reach, window)
    _, ilam, moments = _centred_sums(lam, vec[:, 0, :] * vec[:, -1, :])
    ilam, moments = ilam[0], moments[0]
    tol = REL_TOL * window
    for _ in range(MAX_FOLLOW_STEPS):
        s0, s1, s2 = (np.exp(t * ilam) @ moments).tolist()
        c0 = s0.conjugate()
        curvature = s1.real * s1.real + s1.imag * s1.imag - (c0 * s2).real  # p'' / 2
        if not curvature < 0.0:
            return None
        step = (c0 * s1).imag / curvature
        t -= step
        if not lo <= t <= hi:
            return None
        if abs(step) <= tol:
            break
    else:
        return None
    amp = complex(np.exp(t * ilam) @ moments[:, 0])
    slope = _arrival_slopes(lam, vec, direction / scale, np.array([t]))[0]
    return float(t / scale), float(amp.real * amp.real + amp.imag * amp.imag), float(slope)


@functools.lru_cache(maxsize=4)
def _band_weights(n: int) -> np.ndarray:
    """A weight per entry of a flattened n x n matrix: 1 on the second
    subdiagonal, 2 further down the lower triangle, 0 elsewhere.  The
    weighted count of a matrix's nonzero entries is at most 1 exactly when
    its lower triangle is tridiagonal plus at most one chord (j, j + 2)."""
    below = np.subtract.outer(np.arange(n), np.arange(n)).ravel()  # i - j
    return np.clip(below - 1, 0, 2).astype(float)


def _end_weights(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues lam_k and end weights c_k = v_k[1] v_k[N] of a
    (B, N, N) stack of real symmetric matrices, read from the lower
    triangle as ``eigh`` reads it.

    For a matrix that is tridiagonal, with couplings b_j between sites j
    and j + 1, plus at most one chord g between the neighbours of a corner
    a, c_k is the residue at lam_k of G_1N(z) = adj(z - H)_1N / det(z - H):

        c_k = P(lam_k) / prod_{j != k} (lam_k - lam_j),
        P(z) = prod_j b_j * (1 + g (z - H_aa) / (b_{a-1} b_a)),

    since the only paths from site 1 to site N are the chain itself and
    the detour over the chord, which skips the corner (the path-sum
    expansion of Giscard, Thwaite and Jaksch, SIAM J. Matrix Anal. Appl. 34,
    2013).  So those rows need only ``eigvalsh``.  Each coupling is divided
    by one eigenvalue difference before the product is taken, so that
    neither product overflows on its own (P2 chains from N = 140 on would).
    Rows of another shape, and rows whose weights come out non-finite (an
    exactly degenerate spectrum), take ``eigh``.
    """
    lam = np.linalg.eigvalsh(matrices)
    rows, n = lam.shape
    b = np.diagonal(matrices, -1, 1, 2)
    with np.errstate(all="ignore"):
        # w = g / (b_{a-1} b_a) at the chord around corner a and 0 on the
        # rest of the second subdiagonal, so that summing w (lam_k - H_aa)
        # over the interior sites a gives P(lam_k) / prod b - 1
        w = np.diagonal(matrices, -2, 1, 2) / (b[:, :-1] * b[:, 1:])
        corners = np.diagonal(matrices, 0, 1, 2)[:, None, 1:-1]
        ratio = 1.0 + ((lam[:, :, None] - corners) @ w[:, :, None])[:, :, 0]
        # row k pairs b_j with lam_k - lam_j (with 1 for j = k), and the
        # last difference is left over
        diff = lam[:, :, None] - lam[:, None, :]
        diff.reshape(rows, -1)[:, :: n + 1] = 1.0
        coef = np.multiply.reduce(b[:, None, :] / diff[:, :, :-1], axis=2) * ratio
        coef /= diff[:, :, -1]
        bad = ~np.isfinite(coef.sum(axis=1))
    bad |= (matrices.reshape(rows, -1) != 0.0) @ _band_weights(n) > 1.0
    if bad.any():
        lam[bad], vec = np.linalg.eigh(matrices[bad])
        coef[bad] = vec[:, 0, :] * vec[:, -1, :]
    return lam, coef


def _arrival_slopes(eigvals: np.ndarray, vec: np.ndarray, direction: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
    """dp*/dx of each row of a block, with (B, N) eigenvalues, (B, N, N)
    eigenvectors, E = dH/dx and the first arrivals t* of the rows.

    At an interior peak p'(t*) = 0, and at the window end t* is fixed, so by
    the envelope theorem dp*/dx = dp/dx at t* = 2 Re(conj(A_N) dA_N/dx),
    with A_N = sum_k c_k e^{-i lam_k t} and c_k = v_k[1] v_k[N].
    The Daleckii-Krein formula gives the derivative of e^{-iHt} exactly:
    dA_N/dx = sum_kl v_k[N] (V^T E V)_kl v_l[1] D_kl with the divided
    difference D_kl = (e^{-i lam_k t} - e^{-i lam_l t}) / (lam_k - lam_l),
    written as -i t e^{-i (lam_k + lam_l) t / 2} sinc((lam_k - lam_l) t / 2)
    so that equal or nearly equal eigenvalues give the limit -i t e^{-i lam t}
    and never 0/0.  The spectrum is centred as in the scan (a global phase).
    """
    lam = eigvals - 0.5 * (eigvals[:, -1:] + eigvals[:, :1])
    half_phase = np.exp(-0.5j * lam * t[:, None])  # e^{-i lam t / 2}
    u, w = vec[:, -1, :] * half_phase, vec[:, 0, :] * half_phase
    coef = vec[:, 0, :] * vec[:, -1, :]
    amp = np.sum(coef * half_phase * half_phase, axis=1)
    x = 0.5 * (lam[:, :, None] - lam[:, None, :]) * t[:, None, None]
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    coupling = np.swapaxes(vec, 1, 2) @ direction @ vec  # V^T E V
    damp = -1j * t * (u[:, None, :] @ (coupling * sinc) @ w[:, :, None])[:, 0, 0]
    return 2.0 * (amp.conjugate() * damp).real


def _spectral_sums(ilam: np.ndarray, moments: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-row sums S_j = sum_k lam_k^j c_k e^{-i lam_k t}, j = 0, 1, 2, at
    times t of shape (B, K): shape (B, K, 3).  ``ilam`` (B, N) holds -i lam
    and ``moments`` (B, N, 3) lam^j c.  A = S_0, A' = -i S_1 and A'' = -S_2,
    so p = |S_0|^2, p' = 2 Im(conj(S_0) S_1) and
    p'' = 2 (|S_1|^2 - Re(conj(S_0) S_2))."""
    return np.exp(t[:, :, None] * ilam[:, None, :]) @ moments


def _centred_sums(
    eigvals: np.ndarray, coef: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centred spectrum lam of each row of a (B, N) spectrum, with the
    arguments -i lam and lam^j c (j = 0, 1, 2) of :func:`_spectral_sums`.
    Centring is a global phase: |A_N|^2 and p' are unchanged, and the
    phases lam * t stay as small as the bandwidth allows."""
    lam = eigvals - 0.5 * (eigvals[:, -1:] + eigvals[:, :1])
    moments = np.empty((*lam.shape, 3), dtype=complex)
    moments[..., 0] = coef
    moments[..., 1] = coef * lam
    moments[..., 2] = coef * (lam * lam)
    return lam, -1j * lam, moments


def _scan(eigvals: np.ndarray, coef: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """First arrival of each row of a (B, N) spectrum with its (B, N) end
    weights, on one grid shared by the rows: the scan of
    :func:`first_arrivals`, block by block, on the block and window it has
    scaled and checked.  Rows whose bracket
    around the peak shows a rising and a falling slope take the Newton
    refine of :func:`_slope_root` together; the rest (a flat or kinked top)
    take one :func:`search.zoom_max` on p = |S_0|^2 together."""
    bandwidth = float(np.max(eigvals[:, -1] - eigvals[:, 0]))
    needed = SAMPLES_PER_HALF_PERIOD * window * bandwidth / math.pi
    if not needed < MAX_GRID_POINTS:
        raise ValueError(
            f"first-arrival scan needs {needed:.3g} grid points (spectral "
            f"bandwidth times window {bandwidth * window:.6g}); the limit is "
            f"{MAX_GRID_POINTS}"
        )
    lam, ilam, moments = _centred_sums(eigvals, coef)
    times, p = _end_curve(lam, coef, window, max(MIN_GRID_POINTS, math.ceil(needed)) + 1)
    mid = p[:, 1:-1]
    peaks = (mid >= p[:, :-2]) & (mid >= p[:, 2:]) & (mid > NOISE_FLOOR)
    # the first peak sample and its neighbours, or else (index T) the last
    # cell and its midpoint: each a bracket split in two
    ends = np.append(times, (times[-2], 0.5 * (times[-2] + window), window))
    first = np.where(peaks.any(axis=1), peaks.argmax(axis=1), times.size)
    cells = ends[first[:, None] + np.arange(3)]
    s = _spectral_sums(ilam, moments, cells)
    slopes = (s[..., 0].conjugate() * s[..., 1]).imag  # p' / 2
    t_star, p_star = np.full(len(p), window), p[:, -1].copy()
    refine = (first < times.size) | ((p[:, -1] > NOISE_FLOOR) & (slopes[:, 2] < 0.0))
    tol = REL_TOL * window
    root = refine & (slopes[:, 0] > 0.0) & (slopes[:, 2] < 0.0)
    if root.any():
        t_star[root], p_star[root] = _slope_root(
            ilam[root], moments[root], cells[root], slopes[root], tol
        )
    flat = np.flatnonzero(refine & ~root)
    if flat.size:
        def p_at(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
            amp = _spectral_sums(ilam[flat[rows]], moments[flat[rows]], t)[..., 0]
            return amp.real * amp.real + amp.imag * amp.imag

        t_star[flat], p_star[flat] = zoom_max(p_at, cells[flat, 0], cells[flat, 2], tol)
    return t_star, p_star


def _slope_root(ilam, moments, cells, slopes, tol) -> tuple[np.ndarray, np.ndarray]:
    """A root t of p' in each bracket [a, b] with p'(a) > 0 > p'(b), to
    within ``tol``, and p(t).  ``cells`` holds (a, m, b) per row, with m
    inside the bracket, and ``slopes`` p'/2 there.

    Starts from inverse quadratic interpolation of p' through the three
    points, then takes Newton steps on p' with p'' from the same spectral
    sums, and bisects whenever a step leaves the bracket (safeguarded
    Newton).  A row stops once its step is within ``tol``, or once it
    bisects a bracket within 2 ``tol``.
    """
    (t0, t1, t2), (f0, f1, f2) = cells.T, slopes.T
    a, b = np.where(f1 > 0.0, t1, t0), np.where(f1 > 0.0, t2, t1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (t0 * f1 * f2 / ((f0 - f1) * (f0 - f2))
             + t1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
             + t2 * f0 * f1 / ((f2 - f0) * (f2 - f1)))
        x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
        # the rows still refining, with their x, a, b and spectra
        rows, xr, ar, br, il, mo = np.arange(x.size), x, a, b, ilam, moments
        for _ in range(MAX_REFINE_STEPS):
            s0, s1, s2 = _spectral_sums(il, mo, xr[:, None])[:, 0, :].T
            c0 = s0.conjugate()
            f = (c0 * s1).imag  # p' / 2
            newton = f / (s1.real * s1.real + s1.imag * s1.imag - (c0 * s2).real)
            ar, br = np.where(f > 0.0, xr, ar), np.where(f > 0.0, br, xr)
            xr = xr - newton
            # convergence first: a converged step from a bracket end may
            # round to just outside the bracket
            converged = np.abs(newton) <= tol
            bisect = ~(converged | ((ar < xr) & (xr < br)))
            xr[bisect] = 0.5 * (ar[bisect] + br[bisect])
            # a row that is done freezes, so that its result does not
            # depend on the other rows of the block
            done = converged | (bisect & (br - ar <= 2.0 * tol))
            if done.all():
                break
            if done.any():
                x[rows], a[rows], b[rows] = xr, ar, br
                keep = ~done
                rows, xr, ar, br = rows[keep], xr[keep], ar[keep], br[keep]
                il, mo = il[keep], mo[keep]
        x[rows], a[rows], b[rows] = xr, ar, br
    x = np.clip(x, a, b)
    amp = _spectral_sums(ilam, moments, x[:, None])[:, 0, 0]
    return x, amp.real * amp.real + amp.imag * amp.imag
