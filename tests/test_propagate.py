import math

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentchain import (
    BendSpec,
    ChainSpec,
    Protocol,
    build_hamiltonian,
    evolve,
    first_arrivals,
    omega_max,
)
from bentchain import propagate
from bentchain.chain import hamiltonian_matrix
from bentchain.propagate import BLOCK_ROWS
from dense_reference import first_arrival_dense


def p2(n):
    return ChainSpec(Protocol.PROTOCOL_2, n)


def end_curve(ham, t_end, n_steps):
    """(times, |A_N|^2) on a uniform grid of [0, t_end]."""
    coef = ham.eigenvectors[0] * ham.eigenvectors[-1]
    return propagate._end_curve(ham.eigenvalues, coef, t_end, n_steps)


def rk4_site_probs(ham, t_end, dt):
    """Independent oracle: classic fixed-step RK4 on the amplitude ODE
    i dA/dt = H A."""
    h = ham.matrix
    n_steps = int(math.ceil(t_end / dt))
    dt = t_end / n_steps
    a = np.zeros(h.shape[0], dtype=complex)
    a[0] = 1.0

    def f(y):
        return -1j * (h @ y)

    for _ in range(n_steps):
        k1 = f(a)
        k2 = f(a + 0.5 * dt * k1)
        k3 = f(a + 0.5 * dt * k2)
        k4 = f(a + dt * k3)
        a = a + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.abs(a) ** 2


class TestEvolve:
    def test_initial_condition(self):
        trace = evolve(build_hamiltonian(p2(6)), t_end=1.0, n_steps=128)
        np.testing.assert_allclose(trace.amplitudes[0], np.eye(6)[0], atol=1e-12)
        assert trace.p_end[0] <= 1e-15

    def test_two_site_rabi(self):
        ham = build_hamiltonian(p2(2))
        assert math.isclose(end_curve(ham, math.pi / 2, 2)[1][-1], 1.0, abs_tol=1e-12)
        # sin^2 at an intermediate point
        assert math.isclose(
            end_curve(ham, 0.3, 2)[1][-1], math.sin(0.3) ** 2, abs_tol=1e-12
        )

    def test_three_site_closed_form(self):
        # A_3(t) = -sin^2(t) from diagonalizing the 3x3 matrix
        ham = build_hamiltonian(p2(3))
        trace = evolve(ham, t_end=math.pi / 2, n_steps=200)
        np.testing.assert_allclose(
            trace.amplitudes[:, 2], -np.sin(trace.times) ** 2, atol=1e-12
        )
        assert math.isclose(
            end_curve(ham, math.pi / 4, 2)[1][-1], 0.25, abs_tol=1e-10
        )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_protocol2_closed_form(self, n):
        # p_end(t) = sin^(2(N-1))(t) for the engineered couplings
        ham = build_hamiltonian(p2(n))
        times, p = end_curve(ham, math.pi / 2, 500)
        np.testing.assert_allclose(p, np.sin(times) ** (2 * (n - 1)), atol=1e-8)
        trace = evolve(ham, math.pi / 2, 500)
        for t, p_t in zip(trace.times[::50], trace.p_end[::50]):
            assert abs(p_t - math.sin(t) ** (2 * (n - 1))) <= 1e-8

    def test_rejects_bad_window(self):
        ham = build_hamiltonian(p2(4))
        with pytest.raises(ValueError):
            evolve(ham, t_end=math.inf)
        with pytest.raises(ValueError):
            evolve(ham, t_end=-1.0)
        with pytest.raises(ValueError):
            evolve(ham, t_end=1.0, n_steps=50)

    @pytest.mark.parametrize(
        "n,alpha,kappa,delta",
        [(5, 3, 0.4, 0.0), (12, 6, 0.9, -3.0), (25, 2, 1.0, -8.0)],
    )
    def test_unitarity(self, n, alpha, kappa, delta):
        ham = build_hamiltonian(
            p2(n), BendSpec(alpha=alpha, kappa=kappa, delta_alpha=delta)
        )
        trace = evolve(ham, t_end=10.0, n_steps=512)
        np.testing.assert_allclose(trace.norms(), 1.0, atol=1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 40),
        protocol=st.sampled_from(Protocol),
        ratio=st.floats(0.05, 1.0),
        corner=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        delta=st.floats(-32.0, 1.0),
        t_end=st.floats(0.1, 60.0),
        n_steps=st.integers(100, 3000),
    )
    def test_norm_conserved(self, n, protocol, ratio, corner, kappa, delta, t_end, n_steps):
        p1 = protocol is Protocol.PROTOCOL_1
        spec = ChainSpec(protocol, n, boundary_ratio=ratio if p1 else None)
        alpha = 2 + min(int(corner * (n - 2)), n - 3)
        bend = BendSpec(alpha=alpha, kappa=kappa, delta_alpha=delta * omega_max(spec))
        trace = evolve(build_hamiltonian(spec, bend), t_end, n_steps)
        assert np.all(np.abs(trace.norms() - 1.0) <= 1e-10)

    def test_rk4_cross_check(self):
        ham = build_hamiltonian(p2(7), BendSpec(alpha=4, kappa=0.5))
        om = np.abs(ham.matrix).max()
        t_end = math.pi / 2
        oracle = rk4_site_probs(ham, t_end, dt=1e-3 / om)
        trace = evolve(ham, t_end, n_steps=128)
        np.testing.assert_allclose(
            np.abs(trace.amplitudes[-1]) ** 2, oracle, atol=1e-6
        )


class TestFirstMaximum:
    def test_perfect_transfer_window_end(self):
        t, p = first_arrivals([hamiltonian_matrix(p2(5))], math.pi / 2)
        assert math.isclose(t[0], math.pi / 2, rel_tol=1e-8)
        assert p[0] >= 1 - 1e-8

    def test_two_site(self):
        t, p = first_arrivals([hamiltonian_matrix(p2(2))], 2.0)
        assert math.isclose(t[0], math.pi / 2, rel_tol=1e-8)
        assert math.isclose(p[0], 1.0, abs_tol=1e-12)

    def test_bend_accelerates(self):
        # dense-grid scan as oracle for the refined answer
        ham = build_hamiltonian(p2(9), BendSpec(alpha=5, kappa=0.4))
        t, p = first_arrivals([ham.matrix], math.pi / 2)
        assert t[0] < math.pi / 2
        times, curve = end_curve(ham, math.pi / 2, 100_000)
        i = int(np.argmax(curve))
        assert math.isclose(t[0], times[i], abs_tol=1e-3)
        assert p[0] >= curve[i] - 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(4, 29),
        protocol=st.sampled_from(Protocol),
        ratio=st.floats(0.3, 1.0),
        corner=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        delta=st.floats(-32.0, 1.0),
    )
    def test_grid_independence(self, n, protocol, ratio, corner, kappa, delta):
        # four times the scan's sampling moves neither the arrival nor the
        # probability beyond the refine's tolerance
        if protocol is Protocol.PROTOCOL_1:
            spec = ChainSpec(protocol, n, boundary_ratio=ratio)
            window = first_arrivals([hamiltonian_matrix(spec)], 40.0)[0][0]
        else:
            spec = p2(n)
            window = math.pi / 2
        alpha = 2 + min(int(corner * (n - 2)), n - 3)
        bend = BendSpec(alpha=alpha, kappa=kappa, delta_alpha=delta * omega_max(spec))
        h = hamiltonian_matrix(spec, bend)
        t_coarse, p_coarse = first_arrivals([h], window)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagate, "SAMPLES_PER_HALF_PERIOD", 64)
            t_fine, p_fine = first_arrivals([h], window)
        assert abs(t_coarse[0] - t_fine[0]) <= 1e-9 * window
        assert abs(p_coarse[0] - p_fine[0]) <= 1e-12


class TestFirstArrival:
    """The bandwidth-scaled scan with its slope refine against the dense
    65,536-point reference."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(4, 29),
        protocol=st.sampled_from(Protocol),
        ratio=st.floats(0.3, 1.0),
        corner=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        delta=st.floats(-32.0, 1.0),
    )
    def test_matches_dense_reference(self, n, protocol, ratio, corner, kappa, delta):
        if protocol is Protocol.PROTOCOL_1:
            spec = ChainSpec(protocol, n, boundary_ratio=ratio)
            window, _ = first_arrival_dense(hamiltonian_matrix(spec), 40.0)
        else:
            spec = ChainSpec(protocol, n)
            window = math.pi / 2
        alpha = 2 + min(int(corner * (n - 2)), n - 3)
        bend = BendSpec(alpha=alpha, kappa=kappa, delta_alpha=delta * omega_max(spec))
        h = hamiltonian_matrix(spec, bend)
        t, p = first_arrivals([h], window)
        t_ref, p_ref = first_arrival_dense(h, window)
        assert abs(t[0] - t_ref) <= 1e-9 * window
        assert abs(p[0] - p_ref) <= 1e-12

    def test_peak_in_last_cell(self):
        # the window ends just past the first peak, inside the last cell of
        # any scan grid: the peak must be refined, not reported as the end
        h = hamiltonian_matrix(p2(9), BendSpec(alpha=5, kappa=0.4))
        t_peak, _ = first_arrival_dense(h, math.pi / 2)
        assert t_peak < math.pi / 2 * (1 - 1e-3)
        window = t_peak * (1 + 1e-5)
        t_ref, p_ref = first_arrival_dense(h, window)
        t, p = first_arrivals([h], window)
        assert abs(t[0] - t_ref) <= 1e-9 * window
        assert abs(p[0] - p_ref) <= 1e-12

    def test_huge_detuning_rejected_fast(self):
        spec = p2(9)
        h = hamiltonian_matrix(spec, BendSpec(alpha=5, kappa=0.4, delta_alpha=1e9 * omega_max(spec)))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="grid points"):
            first_arrivals([h], math.pi / 2)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("window", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError):
            first_arrivals([hamiltonian_matrix(p2(4))], window)


class TestFirstArrivals:
    """The batched scan: every row of a stack agrees with its own one-row
    call and with the dense reference, although the rows share one grid
    sized for the widest spectrum among them."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(4, 29),
        ratio=st.floats(0.3, 1.0),
        rows=st.lists(
            st.tuples(st.sampled_from(Protocol), st.floats(0.0, 1.0),
                      st.floats(0.0, 1.0), st.floats(-32.0, 1.0)),
            min_size=1, max_size=6,
        ),
        p1_window=st.booleans(),
        last_cell=st.booleans(),
    )
    def test_rows_match_single_calls(self, n, ratio, rows, p1_window, last_cell):
        specs = {Protocol.PROTOCOL_1: ChainSpec(Protocol.PROTOCOL_1, n, boundary_ratio=ratio),
                 Protocol.PROTOCOL_2: p2(n)}
        hams = []
        for protocol, corner, kappa, delta in rows:
            spec = specs[protocol]
            alpha = 2 + min(int(corner * (n - 2)), n - 3)
            hams.append(hamiltonian_matrix(spec, BendSpec(
                alpha=alpha, kappa=kappa, delta_alpha=delta * omega_max(spec))))
        if p1_window:
            unbent = hamiltonian_matrix(specs[Protocol.PROTOCOL_1])
            window, _ = first_arrival_dense(unbent, 40.0)
        else:
            window = math.pi / 2
        if last_cell:
            # end the window just past row 0's first peak, inside the last
            # cell of the shared grid
            t_peak, _ = first_arrival_dense(hams[0], window)
            if t_peak < window:
                window = t_peak * (1 + 1e-5)
        t, p = first_arrivals(np.stack(hams), window)
        assert t.shape == p.shape == (len(hams),)
        for i, h in enumerate(hams):
            t_one, p_one = first_arrivals([h], window)
            assert abs(t[i] - t_one[0]) <= 1e-9 * window
            assert abs(p[i] - p_one[0]) <= 1e-12
        # the dense reference (slow) for the first row, whose window may end
        # in the last cell, and the last
        for i in {0, len(hams) - 1}:
            t_ref, p_ref = first_arrival_dense(hams[i], window)
            assert abs(t[i] - t_ref) <= 1e-9 * window
            assert abs(p[i] - p_ref) <= 1e-12

    def test_several_blocks(self):
        # a detuning scan over the optimizer's widest range, longer than
        # two blocks
        spec = p2(13)
        deltas = np.linspace(-32.0, 1.0, 2 * BLOCK_ROWS + 5)
        hams = [hamiltonian_matrix(spec, BendSpec(alpha=7, kappa=0.5,
                                                  delta_alpha=d * omega_max(spec)))
                for d in deltas]
        # any iterable of matrices, taken a block at a time
        t, p = first_arrivals((h for h in hams), math.pi / 2)
        assert t.shape == p.shape == (len(hams),)
        for h, t_row, p_row in zip(hams, t, p):
            t_one, p_one = first_arrivals([h], math.pi / 2)
            assert abs(t_row - t_one[0]) <= 1e-9 * math.pi / 2
            assert abs(p_row - p_one[0]) <= 1e-12

    def test_grid_fits_widest_row(self, monkeypatch):
        # the block's grid has the point count of its widest spectrum, so
        # no row is sampled more coarsely than it would be alone
        sizes = []
        curve = propagate._end_curve

        def recording(lam, coef, t_end, n):
            sizes.append(n)
            return curve(lam, coef, t_end, n)

        monkeypatch.setattr(propagate, "_end_curve", recording)
        spec = p2(13)
        narrow, wide = (
            hamiltonian_matrix(spec, BendSpec(alpha=7, kappa=0.5,
                                              delta_alpha=d * omega_max(spec)))
            for d in (0.0, -32.0)
        )
        first_arrivals([narrow], math.pi / 2)
        first_arrivals([wide], math.pi / 2)
        first_arrivals([narrow, wide, narrow], math.pi / 2)
        assert sizes[0] < sizes[1] == sizes[2]

    def test_no_matrices(self):
        t, p = first_arrivals([], math.pi / 2)
        assert t.shape == p.shape == (0,)

    def test_rejects_bad_window(self):
        matrices = hamiltonian_matrix(p2(4))[None]
        with pytest.raises(ValueError):
            first_arrivals(matrices, math.nan)


def _corner(spec, alpha, kappa, delta):
    """A bent matrix detuned by delta Omega_max at the corner, and dH/ddelta."""
    om = omega_max(spec)
    h = hamiltonian_matrix(spec, BendSpec(alpha=alpha, kappa=kappa,
                                          delta_alpha=delta * om))
    e = np.zeros_like(h)
    e[alpha - 1, alpha - 1] = om
    return h, e


def _boundary(n, ratio):
    """An unbent Protocol 1 matrix and dH/dratio."""
    h = hamiltonian_matrix(ChainSpec(Protocol.PROTOCOL_1, n, boundary_ratio=ratio))
    e = np.zeros_like(h)
    e[0, 1] = e[1, 0] = e[-2, -1] = e[-1, -2] = 1.0
    return h, e


class TestArrivalSlopes:
    """dp*/dx of the objective H(x) = H + x E, from the Daleckii-Krein
    formula at the first arrivals found before, against central
    differences of its first arrivals."""

    @pytest.mark.parametrize("make,window,interior", [
        # corner detuning with an interior peak, Protocol 2 and Protocol 1
        (lambda: _corner(p2(13), 7, 0.5, -2.0), math.pi / 2, True),
        (lambda: _corner(p2(13), 7, 0.5, -0.3), math.pi / 2, True),
        (lambda: _corner(p2(9), 3, 0.8, -1.0), math.pi / 2, True),
        (lambda: _corner(ChainSpec(Protocol.PROTOCOL_1, 12, boundary_ratio=0.7),
                         6, 0.5, -1.0), 8.2, True),
        # transfer not yet peaked: the arrival is the window end
        (lambda: _corner(p2(13), 7, 0.5, -0.5), 1.2, False),
        # the boundary ratio of the calibration
        (lambda: _boundary(13, 0.7), 10.4, True),
        (lambda: _boundary(21, 0.6), 16.8, True),
    ], ids=["p2-n13-d-2", "p2-n13-d-0.3", "p2-n9-a3", "p1-n12", "window-end",
            "ratio-n13", "ratio-n21"])
    def test_matches_central_differences(self, make, window, interior):
        evaluate = propagate._objective(*make(), window)
        t, p = evaluate([0.0])
        slope = evaluate([0.0], at=t)
        assert bool(t[0] < window) == interior
        eps = 1e-6
        _, p_hi = evaluate([eps])
        _, p_lo = evaluate([-eps])
        fd = (p_hi[0] - p_lo[0]) / (2.0 * eps)
        assert abs(slope[0] - fd) <= 1e-7
        assert abs(slope[0]) > 1e-3  # a slope, not a maximum

    def test_batch_rows_match_one_row_calls(self):
        deltas = np.linspace(-4.0, 0.5, BLOCK_ROWS + 3)  # two blocks
        evaluate = propagate._objective(*_corner(p2(13), 7, 0.5, 0.0), math.pi / 2)
        t, p = evaluate(deltas)
        slope = evaluate(deltas, at=t)
        for i, delta in enumerate(deltas):
            t_one, p_one = evaluate([delta])
            s_one = evaluate([delta], at=t_one)
            assert abs(p[i] - p_one[0]) <= 1e-12
            assert abs(slope[i] - s_one[0]) <= 1e-9

    def test_degenerate_spectrum_is_finite(self):
        # a boundary ratio of 1e-300 cuts the end sites off: eigenvalue 0
        # appears twice, exactly, where a divided difference would be 0/0
        h, e_ratio = _boundary(9, 1e-300)
        lam = np.linalg.eigvalsh(h)
        assert np.any(lam[1:] == lam[:-1])
        e_corner = np.zeros_like(h)
        e_corner[3, 3] = 1.0
        for e in (e_ratio, e_corner):
            evaluate = propagate._objective(h, e, 40.0)
            t, p = evaluate([0.0])
            slope = evaluate([0.0], at=t)
            assert np.isfinite(slope).all() and np.isfinite(p).all()

    def test_no_matrices(self):
        evaluate = propagate._objective(np.zeros((4, 4)), np.eye(4), math.pi / 2)
        t, p = evaluate([])
        slope = evaluate([], at=t)
        assert t.shape == p.shape == slope.shape == (0,)

    def test_matrices_are_base_plus_x_direction(self, monkeypatch):
        # H(x) is built as base + x E, one block at a time
        seen = []
        monkeypatch.setattr(propagate, "first_arrivals",
                            lambda matrices, window: seen.append(matrices))
        h, e = _corner(p2(9), 5, 0.4, 0.0)
        propagate._objective(h, e, math.pi / 2)(np.array([-1.5, 0.25]))
        (matrices,) = seen
        assert not isinstance(matrices, (list, np.ndarray))
        expected = [h.copy(), h.copy()]
        expected[0][4, 4] += -1.5 * e[4, 4]
        expected[1][4, 4] += 0.25 * e[4, 4]
        assert all(np.array_equal(m, x) for m, x in zip(matrices, expected, strict=True))


def _eigh_weights(matrices):
    """Eigenvalues and end weights v_k[1] v_k[N] of a stack, from eigh."""
    lam, vec = np.linalg.eigh(matrices)
    return lam, vec[:, 0, :] * vec[:, -1, :]


def _random_bent_chains(count, seed):
    """(matrix, bent) of random bent chains: N = 5-29, either protocol,
    any corner, kappa in [0, 1] and a corner detuning in [-32, 1]
    Omega_max."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(5, 30))
        if rng.random() < 0.5:
            spec = ChainSpec(Protocol.PROTOCOL_1, n, boundary_ratio=float(rng.uniform(0.3, 1.0)))
        else:
            spec = p2(n)
        kappa = float(rng.uniform(0.0, 1.0))
        bend = BendSpec(alpha=int(rng.integers(2, n)), kappa=kappa,
                        delta_alpha=float(rng.uniform(-32.0, 1.0)) * omega_max(spec))
        yield hamiltonian_matrix(spec, bend), kappa > 0.0


def _spy_eigh(monkeypatch):
    """Record the stacks that np.linalg.eigh receives."""
    stacks = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        stacks.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return stacks


class TestEndWeights:
    """End weights c_k = v_k[1] v_k[N] from the eigenvalues alone, for
    tridiagonal matrices plus at most one chord, against eigh."""

    def test_random_bent_chains(self, monkeypatch):
        stacks = _spy_eigh(monkeypatch)
        for h, _ in _random_bent_chains(320, seed=7):
            lam, coef = propagate._end_weights(h[None])
            lam_ref, coef_ref = _eigh_weights(h[None])
            assert np.abs(lam - lam_ref).max() <= 1e-14 * np.abs(lam_ref).max()
            assert np.abs(coef - coef_ref).max() <= 2e-14
        # the only eigh calls are the reference ones
        assert len(stacks) == 320

    def test_moments_vanish_below_the_graph_distance(self):
        # sum_k lam_k^j c_k = (H^j)_1N, which is 0 while j is below the
        # graph distance from site 1 to site N: N - 1, or N - 2 over a chord
        for h, bent in _random_bent_chains(100, seed=8):
            lam, coef = propagate._end_weights(h[None])
            terms = coef[0, :, None] * lam[0, :, None] ** np.arange(len(h) - 1 - bent)
            assert (np.abs(terms.sum(axis=0)) <= 1e-14 * np.abs(terms).sum(axis=0)).all()

    def test_calibration_grid(self):
        ratios = np.arange(1, 101) * 0.01
        for n in range(4, 61):
            matrices = np.array([
                hamiltonian_matrix(ChainSpec(Protocol.PROTOCOL_1, n, boundary_ratio=r))
                for r in ratios])
            lam, coef = propagate._end_weights(matrices)
            assert np.abs(coef - _eigh_weights(matrices)[1]).max() <= 3e-14

    @pytest.mark.parametrize("n", [200, 300])
    @pytest.mark.parametrize("bent", [False, True])
    def test_long_protocol2_chains(self, n, bent, monkeypatch):
        # the products of the couplings and of the eigenvalue differences
        # each overflow from about N = 140
        spec = p2(n)
        bend = BendSpec(alpha=n // 2, kappa=0.5, delta_alpha=-1.5 * omega_max(spec))
        h = hamiltonian_matrix(spec, bend if bent else None)
        stacks = _spy_eigh(monkeypatch)
        lam, coef = propagate._end_weights(h[None])
        assert stacks == [] and np.isfinite(coef).all()
        assert np.abs(coef - _eigh_weights(h[None])[1]).max() <= 1e-14

    def test_mixed_corner_block(self):
        # sweep_alpha hands every corner of a chain to one block
        spec = p2(13)
        om = omega_max(spec)
        matrices = np.array([hamiltonian_matrix(spec)] + [
            hamiltonian_matrix(spec, BendSpec(alpha=a, kappa=0.08 * (a - 1), delta_alpha=-om))
            for a in range(2, 13)])
        lam, coef = propagate._end_weights(matrices)
        assert np.abs(coef - _eigh_weights(matrices)[1]).max() <= 2e-14
        for i, h in enumerate(matrices):
            lam_one, coef_one = propagate._end_weights(h[None])
            assert np.array_equal(lam[i], lam_one[0]) and np.array_equal(coef[i], coef_one[0])

    def test_other_shapes_take_eigh(self, monkeypatch):
        spec = p2(9)
        h = hamiltonian_matrix(spec, BendSpec(alpha=4, kappa=0.5, delta_alpha=-2.0))
        two_chords = h.copy()
        two_chords[7, 5] = two_chords[5, 7] = 0.3
        far = h.copy()
        far[6, 3] = far[3, 6] = 0.3  # a (j, j + 3) entry
        upper = h.copy()
        upper[0, 5] = 0.3  # eigh reads the lower triangle only
        matrices = np.array([h, two_chords, far, upper])
        stacks = _spy_eigh(monkeypatch)
        lam, coef = propagate._end_weights(matrices)
        assert len(stacks) == 1 and np.array_equal(stacks[0], matrices[1:3])
        lam_ref, coef_ref = _eigh_weights(matrices[1:3])
        assert np.array_equal(lam[1:3], lam_ref) and np.array_equal(coef[1:3], coef_ref)
        assert np.abs(coef - _eigh_weights(matrices)[1]).max() <= 2e-14

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_degenerate_spectrum_takes_eigh(self, kappa, monkeypatch):
        # a boundary ratio of 1e-300 cuts the end sites off: eigenvalue 0
        # appears twice, exactly, and the formula would give 0/0
        spec = ChainSpec(Protocol.PROTOCOL_1, 9, boundary_ratio=1e-300)
        h = hamiltonian_matrix(spec, BendSpec(alpha=5, kappa=kappa, delta_alpha=-1.0))
        stacks = _spy_eigh(monkeypatch)
        lam, coef = propagate._end_weights(h[None])
        assert len(stacks) == 1
        assert np.isfinite(lam).all() and np.isfinite(coef).all()
        t, p = first_arrivals([h], 40.0)
        assert np.isfinite(t).all() and np.isfinite(p).all()

    def test_near_degenerate_spectrum(self):
        # at ratio 1e-8 the two end states are 2.4e-16 apart: single c_k
        # differ from eigh's by up to 1e-3, but |A_N(t)|^2 agrees at the
        # roundoff level
        spec = ChainSpec(Protocol.PROTOCOL_1, 9, boundary_ratio=1e-8)
        h = hamiltonian_matrix(spec, BendSpec(alpha=5, kappa=0.5, delta_alpha=-1.0))
        times = np.linspace(0.0, 40.0, 2001)
        curves = []
        for lam, coef in (propagate._end_weights(h[None]), _eigh_weights(h[None])):
            curves.append(np.abs(np.exp(-1j * np.outer(times, lam[0])) @ coef[0]) ** 2)
        assert np.abs(curves[0] - curves[1]).max() <= 1e-27


def _spy_zoom(monkeypatch):
    """Record the (a, b) bracket arrays of every zoom_max call of the scan."""
    brackets = []
    zoom_max = propagate.zoom_max

    def spy(f, a, b, tol):
        brackets.append((a.copy(), b.copy()))
        return zoom_max(f, a, b, tol)

    monkeypatch.setattr(propagate, "zoom_max", spy)
    return brackets


class TestFlatTopFallback:
    """The branch of the scan where p' does not fall across the bracket
    around the peak (here the last cell, with p' <= 0 at both ends), so a
    zoom on p refines it.  Physical chains never reach it; small random
    spectra with random weights do."""

    # (draw, t*, p*) of the draws that take the branch, as Brent's method on
    # p (stopping within about 2 (SQRT_EPS t + tol / 3) of the maximum, with
    # SQRT_EPS = 1.49e-8) found them with the scalar cos/sin evaluator
    RECORDED = [
        (6, 4.170321559134791, 0.7163565120533719),
        (11, 0.6039924359074884, 2.1491386229525),
        (17, 1.9718353340706005, 4.358045680671118),
        (35, 0.904193331500236, 0.2701924443505935),
        (41, 1.5646673614783753, 1.0616837256940688),
        (45, 2.9264362854922643, 4.230694024845519),
        (64, 17.608367848859693, 2.3591010328058477),
        (104, 1.5180375593806084, 0.5359383239312906),
        (151, 1.240199714488328, 0.6758134544841293),
        (156, 1.2021903926581565, 0.2802275508705089),
        (158, 4.339136499205559, 1.0601951956955065),
        (168, 17.43041441042651, 5.085460642455859),
    ]
    # the same draws refined by the zoom
    ZOOMED = [
        (6, 4.1703214753616535, 0.7163565338991682),
        (11, 0.6039924237745293, 2.149138676082779),
        (17, 1.9718352944605049, 4.358045685049357),
        (35, 0.9041933133368614, 0.2701924444451986),
        (41, 1.5646673300474427, 1.0616837418271525),
        (45, 2.9264362267062096, 4.23069402818143),
        (64, 17.608367495143984, 2.3591011298630566),
        (104, 1.5180375288863721, 0.5359384283116768),
        (151, 1.2401996895752798, 0.6758134685556352),
        (156, 1.202190368508637, 0.2802275998076313),
        (158, 4.339136412041278, 1.0601952121835312),
        (168, 17.43041406028553, 5.085460648174209),
    ]

    def test_refines_on_p(self, monkeypatch):
        brackets = _spy_zoom(monkeypatch)
        rng = np.random.default_rng(1)
        found = []
        for draw in range(200):
            n = int(rng.integers(2, 5))
            lam = np.sort(rng.uniform(-3.0, 3.0, n))
            coef = rng.normal(size=n)
            window = float(rng.uniform(0.5, 20.0))
            calls = len(brackets)
            (t,), (p,) = propagate._scan(lam[None], coef[None], window)
            if len(brackets) == calls:
                continue
            (a,), (b,) = brackets[-1]
            assert b == window and a < t <= b  # the last cell
            direct = abs(np.sum(coef * np.exp(-1j * lam * t))) ** 2
            assert abs(p - direct) <= 1e-14
            found.append((draw, t, p, window))
        assert [d for d, *_ in found] == [d for d, _, _ in self.ZOOMED]
        for (_, t, p, window), (_, t_new, p_new), (_, t_rec, p_rec) in zip(
                found, self.ZOOMED, self.RECORDED):
            assert abs(t - t_new) <= 1e-12
            assert abs(p - p_new) <= 1e-12
            # no worse than Brent's method, and within its stopping bound
            tol = propagate.REL_TOL * window
            assert p >= p_rec - 1e-12
            assert abs(t - t_rec) <= 2.0 * (math.sqrt(np.finfo(float).eps) * t_rec + tol / 3.0)

    def test_block_rows_match_one_row_calls(self, monkeypatch):
        # spectra padded with zero weights to one bandwidth [-3, 3], so that
        # the block and every one-row call scan the same grid
        brackets = _spy_zoom(monkeypatch)
        rng = np.random.default_rng(2)
        lam, coef = [], []
        for _ in range(400):
            n = int(rng.integers(2, 5))
            lam.append(np.concatenate(
                [np.full(5 - n, -3.0), np.sort(rng.uniform(-3.0, 3.0, n)), [3.0]]))
            coef.append(np.concatenate([np.zeros(5 - n), rng.normal(size=n), [0.0]]))
        lam, coef, window = np.array(lam), np.array(coef), 10.0
        one, flat = [], []
        for i in range(len(lam)):
            calls = len(brackets)
            one.append(propagate._scan(lam[i : i + 1], coef[i : i + 1], window))
            if len(brackets) > calls:
                flat.append(i)
        brackets.clear()
        t, p = propagate._scan(lam, coef, window)
        # every flat top of the block in one zoom
        assert len(flat) >= 5 and [a.size for a, _ in brackets] == [len(flat)]
        # the Newton refine and the zoom both freeze a converged row, so
        # every row of the block is its one-row call, bit for bit
        for i, ((t_one,), (p_one,)) in enumerate(one):
            assert (t[i], p[i]) == (t_one, p_one)
