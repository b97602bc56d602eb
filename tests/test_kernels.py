import math
import tracemalloc

import numpy as np
import pytest

from bentchain import BendSpec, ChainSpec, Protocol, evolve, omega_max
from bentchain import propagate
from bentchain.chain import Hamiltonian, build_hamiltonian
from bentchain.propagate import _end_curve, _phase_tables


class TestKernelConsistency:
    """The end-probability curve must reproduce the |A_N|^2 column of the
    full amplitude trace, which propagates every site amplitude."""

    def test_curve_agreement(self):
        ham = build_hamiltonian(
            ChainSpec(Protocol.PROTOCOL_1, 12, boundary_ratio=0.7),
            BendSpec(alpha=5, kappa=0.6, delta_alpha=-1.3),
        )
        coef = ham.eigenvectors[0] * ham.eigenvectors[-1]
        trace = evolve(ham, t_end=15.0, n_steps=2048)
        times, p = _end_curve(ham.eigenvalues, coef, 15.0, 2048)
        assert np.array_equal(times, trace.times)
        np.testing.assert_allclose(p, np.abs(trace.amplitudes[:, -1]) ** 2, atol=1e-13)

    def test_probability_bounds(self):
        ham = build_hamiltonian(ChainSpec(Protocol.PROTOCOL_2, 9))
        coef = ham.eigenvectors[0] * ham.eigenvectors[-1]
        _, p = _end_curve(ham.eigenvalues, coef, 10.0, 4096)
        assert np.all(p >= -1e-14)
        assert np.all(p <= 1 + 1e-12)


def _direct_curve(lam, coef, times, rows=4096):
    """|sum_k c_k e^{-i lam_k t}|^2 with one complex exponential per
    (time, eigenvalue) pair, in blocks of rows to bound memory."""
    return np.concatenate([
        np.abs(np.exp(-1j * np.outer(times[i:i + rows], lam)) @ coef) ** 2
        for i in range(0, times.size, rows)
    ])


class TestPhaseTables:
    """The factorised phases against one exponential per (t, lam) pair."""

    # non-square sizes, and sizes where the tables cover more than T rows
    @pytest.mark.parametrize("size", [3, 64, 65, 4097, 2**16 + 1])
    @pytest.mark.parametrize("n", [5, 25, 100])
    def test_curve_matches_direct(self, n, size):
        spec = ChainSpec(Protocol.PROTOCOL_2, n)
        times = np.linspace(0.0, math.pi / 2, size)
        for delta in (0.0, -1.5, -32.0):
            bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5,
                            delta_alpha=delta * omega_max(spec))
            ham = build_hamiltonian(spec, bend)
            lam, coef = ham.eigenvalues, ham.eigenvectors[0] * ham.eigenvectors[-1]
            direct = _direct_curve(lam, coef, times)
            # raw and centred spectra (the first-arrival scan passes the
            # centred one); a shift of lam is a global phase
            for shift in (0.0, 0.5 * (lam[0] + lam[-1])):
                grid, p = _end_curve(lam - shift, coef, math.pi / 2, size)
                assert np.array_equal(grid, times)
                assert p.shape == times.shape
                np.testing.assert_allclose(p, direct, rtol=0, atol=1e-13)

    def test_table_shapes(self):
        lam = np.arange(4.0)
        for size, m1, m2 in ((3, 3, 1), (64, 8, 8), (65, 9, 8), (4097, 65, 64)):
            times, outer, inner = _phase_tables(lam, 1.0, size)
            assert np.array_equal(times, np.linspace(0.0, 1.0, size))
            assert outer.shape == (m1, 4) and inner.shape == (m2, 4)
            _, outer, inner = _phase_tables(np.stack([lam, lam + 1.0, -lam]), 1.0, size)
            assert outer.shape == (3, m1, 4) and inner.shape == (3, m2, 4)

    def test_tables_match_direct_at_the_largest_grid(self):
        # the scan's largest grid takes the deepest doubling: rows up to
        # about 1024 powers of the base, each off by about eps per power.
        # Phases lam t of order 1 keep direct evaluation within a few eps
        size = propagate.MAX_GRID_POINTS + 1
        lam = np.array([[-1.3, -0.45, 0.0, 0.2, 1.1, 1.7], [-2.0, -1.0, -0.3, 0.3, 1.0, 2.0]])
        times, outer, inner = _phase_tables(lam, 1.0, size)
        m2 = math.isqrt(size)
        assert outer.shape == (2, -(-size // m2), 6) and inner.shape == (2, m2, 6)
        tol = outer.shape[1] * np.finfo(float).eps
        dt = times[1]
        for table, t in ((outer, times[::m2]), (inner, dt * np.arange(m2))):
            direct = np.exp(-1j * t[:, None] * lam[:, None, :])
            np.testing.assert_allclose(table, direct, rtol=0, atol=tol)

    @pytest.mark.parametrize("size", [3, 65, 4097])
    def test_batched_curve_matches_rows(self, size):
        # rows of very different bandwidth share one grid
        spec = ChainSpec(Protocol.PROTOCOL_2, 13)
        times = np.linspace(0.0, math.pi / 2, size)
        hams = [
            build_hamiltonian(spec, BendSpec(alpha=7, kappa=kappa,
                                             delta_alpha=delta * omega_max(spec)))
            for kappa, delta in ((0.0, 0.0), (0.5, -1.5), (1.0, -32.0), (0.3, 1.0))
        ]
        lam = np.stack([h.eigenvalues for h in hams])
        coef = np.stack([h.eigenvectors[0] * h.eigenvectors[-1] for h in hams])
        _, p = _end_curve(lam, coef, math.pi / 2, size)
        assert p.shape == (len(hams), size)
        for row, ham in zip(p, hams):
            direct = _direct_curve(ham.eigenvalues, ham.eigenvectors[0] * ham.eigenvectors[-1],
                                   times)
            np.testing.assert_allclose(row, direct, rtol=0, atol=1e-13)

    # the tables cover more than T rows in every case but (200, 4096) and
    # (60, 1024).  A block budget (bytes) below one outer row's 16 N isqrt(T)
    # bytes, as at N > 1024 for T = 4096, gives one-row blocks; a budget of
    # 4 of the 17 outer rows at (12, 257) leaves a last block of one row
    @pytest.mark.parametrize("build,t_end,n_steps,budget", [
        pytest.param(lambda: _bent_p2(2), math.pi / 2, 113, None, id="p2-2-113"),
        pytest.param(lambda: _bent_p1(12), 15.0, 257, None, id="p1-12-257"),
        pytest.param(lambda: _bent_p2(200), math.pi / 2, 4096, None, id="p2-200-4096"),
        pytest.param(lambda: _bent_p2(200), math.pi / 2, 4097, None, id="p2-200-4097"),
        pytest.param(lambda: _bent_p2(60), math.pi / 2, 1024, 1, id="p2-60-1024-one-row-blocks"),
        pytest.param(lambda: _bent_p1(12), 15.0, 257, 4 * 16 * 12 * 16,
                     id="p1-12-257-short-last-block"),
    ])
    def test_evolve_matches_direct(self, build, t_end, n_steps, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(propagate, "PHASE_BLOCK_BYTES", budget)
        ham = build()
        trace = evolve(ham, t_end, n_steps)
        assert np.array_equal(trace.times, np.linspace(0.0, t_end, n_steps))
        assert trace.amplitudes.shape == (n_steps, ham.eigenvalues.size)
        phases = np.exp(-1j * np.outer(trace.times, ham.eigenvalues))
        direct = (phases * ham.eigenvectors[0, :]) @ ham.eigenvectors.T
        np.testing.assert_allclose(trace.amplitudes, direct, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.norms(), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(trace.p_end, np.abs(trace.amplitudes[:, -1]) ** 2)


def _bent_p2(n):
    """A Protocol 2 chain bent at its centre and detuned near the optimum;
    N = 2 has no interior corner and stays straight."""
    spec = ChainSpec(Protocol.PROTOCOL_2, n)
    if n < 3:
        return build_hamiltonian(spec)
    bend = BendSpec(alpha=n // 2, kappa=0.5, delta_alpha=-1.5 * omega_max(spec))
    return build_hamiltonian(spec, bend)


def _bent_p1(n):
    return build_hamiltonian(
        ChainSpec(Protocol.PROTOCOL_1, n, boundary_ratio=0.7),
        BendSpec(alpha=5, kappa=0.6, delta_alpha=-1.3),
    )


class TestEvolveLayout:
    """``evolve`` multiplies the real eigenvectors into site-major phase
    blocks; its amplitudes are a transposed view of the product."""

    @pytest.mark.parametrize("n,n_steps", [(2, 113), (200, 4097)])
    def test_eigenvector_order_does_not_change_bits(self, n, n_steps):
        ham = _bent_p2(n)
        assert ham.eigenvectors.flags.c_contiguous
        fortran = Hamiltonian(ham.matrix, ham.eigenvalues, np.asfortranarray(ham.eigenvectors))
        assert fortran.eigenvectors.flags.f_contiguous
        a = evolve(ham, math.pi / 2, n_steps)
        b = evolve(fortran, math.pi / 2, n_steps)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(a.p_end, b.p_end)

    @pytest.mark.parametrize("n_steps", [4096, 4097])
    def test_peak_allocation(self, n_steps):
        # the product, (N, m1 m2) complex, plus one phase block of at most
        # PHASE_BLOCK_BYTES (0.08 T N 16 bytes here) and small tables; a
        # full phase array or a C-order copy of the result would take
        # about 2 T N 16 bytes
        ham = _bent_p2(200)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            trace = evolve(ham, math.pi / 2, n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.amplitudes.shape == (n_steps, 200)
        assert peak <= 1.35 * n_steps * 200 * 16
