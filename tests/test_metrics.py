import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentchain import (
    BendSpec,
    ChainSpec,
    Protocol,
    fit_gaussian,
    omega_max,
    fit_linear,
    optimize_detuning,
    reference,
    sweep_alpha,
    sweep_kappa,
    transfer_metrics,
)
from bentchain.metrics import FitDivergedError, SweepRow, SweepTable, TransferResult
from bentchain.optimize import DELTA_TOL


def _p2(n):
    return ChainSpec(Protocol.PROTOCOL_2, n)


class TestTransferMetrics:
    def test_vanishing_bend_is_identity(self):
        spec = _p2(9)
        ref = reference(spec)
        res = transfer_metrics(spec, BendSpec(alpha=5, kappa=0.0), ref)
        assert math.isclose(res.q, 1.0, abs_tol=1e-8)
        assert math.isclose(res.s, 1.0, abs_tol=1e-8)

    def test_weak_bend_mild_loss(self):
        spec = _p2(13)
        ref = reference(spec)
        res = transfer_metrics(spec, BendSpec(alpha=7, kappa=0.2), ref)
        assert 0.9 <= res.q < 1.0
        assert res.s <= 1.0

    def test_strong_bend_severe_loss(self):
        spec = _p2(13)
        ref = reference(spec)
        weak = transfer_metrics(spec, BendSpec(alpha=7, kappa=0.2), ref)
        strong = transfer_metrics(spec, BendSpec(alpha=7, kappa=0.9), ref)
        assert strong.q < weak.q
        assert strong.q < 0.5

    def test_fields_are_floats(self):
        spec = _p2(9)
        ref = reference(spec)
        results = [transfer_metrics(spec, BendSpec(alpha=5, kappa=0.4), ref)]
        results += [row.result for row in sweep_kappa(spec, 5, [0.0, 0.5], ref=ref).rows]
        for res in results:
            assert all(type(v) is float for v in (res.p, res.t, res.q, res.s))

    def test_mismatched_reference_rejected(self):
        ref = reference(_p2(9))
        with pytest.raises(ValueError):
            transfer_metrics(_p2(11), BendSpec(alpha=5, kappa=0.3), ref)

    def test_reference_of_another_boundary_ratio_rejected(self):
        spec = ChainSpec(Protocol.PROTOCOL_1, 9, boundary_ratio=0.7)
        ref = reference(ChainSpec(Protocol.PROTOCOL_1, 9, boundary_ratio=0.6))
        with pytest.raises(ValueError, match="does not match the chain spec"):
            transfer_metrics(spec, BendSpec(alpha=5, kappa=0.3), ref)

    def test_reference_of_another_omega0_rejected(self):
        # the omega0 = 2 reference used to give this chain q = 0.00031
        ref = reference(ChainSpec(Protocol.PROTOCOL_2, 13, omega0=2.0))
        with pytest.raises(ValueError, match="does not match the chain spec"):
            transfer_metrics(_p2(13), BendSpec(alpha=7, kappa=0.5), ref)

    def test_mirror_symmetry(self):
        # a corner at alpha and its mirror N+1-alpha are physically equivalent
        spec = _p2(12)
        ref = reference(spec)
        for alpha in (3, 5):
            a = transfer_metrics(spec, BendSpec(alpha=alpha, kappa=0.4), ref)
            b = transfer_metrics(spec, BendSpec(alpha=13 - alpha, kappa=0.4), ref)
            assert math.isclose(a.p, b.p, abs_tol=1e-8)
            assert math.isclose(a.t, b.t, abs_tol=1e-6)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(4, 29),
        protocol=st.sampled_from(Protocol),
        ratio=st.floats(0.3, 1.0),
        corner=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        delta=st.floats(-32.0, 1.0),
    )
    def test_mirror_symmetry_property(self, n, protocol, ratio, corner, kappa, delta):
        # both protocols are centrosymmetric, so the corner at N+1-alpha is
        # the mirror image of alpha and A_1N is the same function of t
        p1 = protocol is Protocol.PROTOCOL_1
        spec = ChainSpec(protocol, n, boundary_ratio=ratio if p1 else None)
        ref = reference(spec)
        alpha = 2 + min(int(corner * (n - 2)), n - 3)
        a, b = (
            transfer_metrics(spec, BendSpec(alpha=c, kappa=kappa,
                                            delta_alpha=delta * omega_max(spec)), ref)
            for c in (alpha, n + 1 - alpha)
        )
        assert abs(a.q - b.q) <= 1e-12
        # each arrival time is refined to 1e-9 of the window, here t0
        assert abs(a.s - b.s) <= 2e-9

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 40),
        corner=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        delta=st.floats(-32.0, 1.0),
    )
    def test_protocol2_bend_never_gains(self, n, corner, kappa, delta):
        # Protocol 2 transfers perfectly (p0 = 1), so no bend can raise q
        spec = _p2(n)
        alpha = 2 + min(int(corner * (n - 2)), n - 3)
        res = transfer_metrics(
            spec, BendSpec(alpha=alpha, kappa=kappa, delta_alpha=delta * omega_max(spec)),
            reference(spec),
        )
        assert res.q <= 1 + 1e-9

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(4, 29),
        protocol=st.sampled_from(Protocol),
        ratio=st.floats(0.3, 1.0),
        corner=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        delta=st.floats(-32.0, 1.0),
    )
    def test_bend_never_slows_arrival(self, n, protocol, ratio, corner, kappa, delta):
        # the bent arrival is searched within the unbent window [0, t0]
        p1 = protocol is Protocol.PROTOCOL_1
        spec = ChainSpec(protocol, n, boundary_ratio=ratio if p1 else None)
        alpha = 2 + min(int(corner * (n - 2)), n - 3)
        res = transfer_metrics(
            spec, BendSpec(alpha=alpha, kappa=kappa, delta_alpha=delta * omega_max(spec)),
            reference(spec),
        )
        assert 0.0 < res.s <= 1 + 1e-9

    def test_longer_chains_lose_less(self):
        kappa = 0.5
        q = {}
        for n in (8, 20):
            spec = _p2(n)
            ref = reference(spec)
            q[n] = transfer_metrics(
                spec, BendSpec(alpha=n // 2, kappa=kappa), ref
            ).q
        assert q[20] >= q[8]


class TestSweeps:
    def test_kappa_sweep_shape_and_order(self):
        spec = _p2(9)
        table = sweep_kappa(spec, 5, [0.6, 0.0, 0.3])
        assert table.axis == "kappa"
        assert [r.axis_value for r in table.rows] == [0.0, 0.3, 0.6]
        qs = [r.result.q for r in table.rows]
        assert qs[0] > qs[1] > qs[2]
        assert all(r.optimized is None for r in table.rows)

    def test_kappa_sweep_with_optimization(self):
        spec = _p2(9)
        table = sweep_kappa(spec, 5, [0.2, 0.5], optimize=True)
        for row in table.rows:
            assert row.optimized is not None
            assert row.optimized.q_opt >= row.result.q - 1e-12

    def test_alpha_sweep(self):
        spec = _p2(9)
        table = sweep_alpha(spec, 0.4, range(2, 9), optimize=False)
        assert table.axis == "alpha"
        assert len(table.rows) == 7
        # mirror pairs agree
        qs = {int(r.axis_value): r.result.q for r in table.rows}
        for alpha in (2, 3, 4):
            assert math.isclose(qs[alpha], qs[10 - alpha], abs_tol=1e-8)

    @pytest.mark.parametrize("kappas", [[0.5, 0.5], [0.3, 0.2, 0.3]])
    def test_kappa_sweep_rejects_repeats(self, kappas):
        with pytest.raises(ValueError, match="repeated kappa"):
            sweep_kappa(_p2(9), 5, kappas)

    def test_sweeps_reject_empty_grids(self):
        with pytest.raises(ValueError, match="kappa grid is empty"):
            sweep_kappa(_p2(9), 5, [])
        with pytest.raises(ValueError, match="corner range is empty"):
            sweep_alpha(_p2(9), 0.4, [], optimize=False)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_alpha_sweep_optimizes_each_corner_as_alone(self, protocol):
        # the corners' searches run in lockstep; each optimum is that of
        # its corner alone, within the tolerances, with the same flags and
        # evaluations (kappa = 0.9 pins corners on the interval edge)
        spec = ChainSpec(protocol, 13, boundary_ratio=0.7 if protocol is Protocol.PROTOCOL_1 else None)
        ref = reference(spec)
        for kappa in (0.4, 0.9):
            table = sweep_alpha(spec, kappa, range(2, 13), optimize=True, ref=ref)
            for row in table.rows:
                alone = optimize_detuning(spec, BendSpec(alpha=int(row.axis_value), kappa=kappa), ref)
                got = row.optimized
                assert abs(got.delta_star - alone.delta_star) <= DELTA_TOL
                assert abs(got.q_opt - alone.q_opt) <= 1e-12
                assert (got.on_boundary, got.evaluations) == (alone.on_boundary, alone.evaluations)

    @pytest.mark.parametrize("alphas", [[2, 2], [3, 2, 3]])
    def test_alpha_sweep_rejects_repeats(self, alphas):
        with pytest.raises(ValueError, match="repeated corner"):
            sweep_alpha(_p2(9), 0.4, alphas, optimize=False)

    @pytest.mark.parametrize("alphas", [[2.5, 3.9], [2, 3, 4.5], [math.nan]])
    def test_alpha_sweep_rejects_fractional_corners(self, alphas):
        # int() used to run corners 2 and 3 for [2.5, 3.9]
        with pytest.raises(ValueError, match="integer corners"):
            sweep_alpha(_p2(9), 0.4, alphas, optimize=False)

    def test_alpha_sweep_takes_integral_floats(self):
        spec = _p2(9)
        floats = sweep_alpha(spec, 0.4, [3.0, 2.0], optimize=False)
        ints = sweep_alpha(spec, 0.4, [2, 3], optimize=False)
        assert floats.rows == ints.rows

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_rows_match_transfer_metrics(self, protocol):
        # a sweep evaluates its rows as one batch on a shared grid; each row
        # agrees with its own single evaluation
        p1 = protocol is Protocol.PROTOCOL_1
        spec = ChainSpec(protocol, 11, boundary_ratio=0.6 if p1 else None)
        ref = reference(spec)
        kappas = sweep_kappa(spec, 4, np.linspace(0.0, 1.0, 11), ref=ref)
        alphas = sweep_alpha(spec, 0.7, range(2, 11), optimize=False, ref=ref)
        bends = ([BendSpec(alpha=4, kappa=r.axis_value) for r in kappas.rows]
                 + [BendSpec(alpha=int(r.axis_value), kappa=0.7) for r in alphas.rows])
        for bend, row in zip(bends, kappas.rows + alphas.rows):
            single = transfer_metrics(spec, bend, ref)
            assert abs(row.result.t - single.t) <= 1e-9 * ref.t0
            assert abs(row.result.p - single.p) <= 1e-12
            assert abs(row.result.q - single.q) <= 1e-12 / ref.p0


def _synthetic_table(x, y):
    rows = [
        SweepRow(
            axis_value=float(xi),
            result=TransferResult(p=float(yi), t=1.0, q=float(yi), s=1.0),
            optimized=None,
        )
        for xi, yi in zip(x, y)
    ]
    return SweepTable(axis="kappa", rows=rows, metadata={})


class TestFits:
    def test_gaussian_recovers_synthetic(self):
        x = np.linspace(0.0, 1.0, 11)
        y = 0.97 * np.exp(-(x**2) / (2 * 0.5**2))
        fit = fit_gaussian(_synthetic_table(x, y))
        amp, sigma = fit.params
        assert math.isclose(amp, 0.97, abs_tol=1e-6)
        assert math.isclose(sigma, 0.5, abs_tol=1e-6)
        assert fit.residual_rms < 1e-10

    def test_gaussian_degenerate_flat_data(self):
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(FitDivergedError) as exc:
            fit_gaussian(_synthetic_table(x, np.ones_like(x)))
        assert exc.value.best.kind == "gaussian"

    def test_gaussian_needs_enough_rows(self):
        with pytest.raises(ValueError):
            fit_gaussian(_synthetic_table([0.0, 0.5], [1.0, 0.9]))

    def test_gaussian_rejects_alpha_axis(self):
        table = _synthetic_table(np.linspace(0, 1, 6), np.ones(6))
        object.__setattr__(table, "axis", "alpha")
        with pytest.raises(ValueError):
            fit_gaussian(table)

    def test_linear_exact(self):
        pairs = [(k, -2.0 * k + 0.01) for k in np.arange(0.1, 0.71, 0.1)]
        fit = fit_linear(pairs)
        slope, intercept = fit.params
        assert math.isclose(slope, -2.0, abs_tol=1e-10)
        assert math.isclose(intercept, 0.01, abs_tol=1e-10)
        assert fit.residual_rms < 1e-12

    def test_linear_cut_applies(self):
        pairs = [(k, -2.0 * k) for k in (0.2, 0.4, 0.6)] + [(0.9, 5.0)]
        fit = fit_linear(pairs, kappa_cut=0.7)
        assert math.isclose(fit.params[0], -2.0, abs_tol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_points_rejected(self, bad):
        x = np.linspace(0.0, 1.0, 11)
        y = 0.97 * np.exp(-(x**2) / (2 * 0.5**2))
        y[4] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_gaussian(_synthetic_table(x, y))
        pairs = [(k, -2.0 * k) for k in (0.1, 0.2, 0.3, 0.4)]
        for i in range(2):
            point = list(pairs[1])
            point[i] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_linear(pairs[:1] + [tuple(point)] + pairs[2:])

    def test_overflowing_residuals_keep_a_finite_rms(self):
        # the squares of these residuals overflow; their RMS does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_linear([(0.1, 1e300), (0.2, -1e300), (0.3, 1e300)])
            assert math.isclose(fit.residual_rms, math.sqrt(8 / 9) * 1e300, rel_tol=1e-12)
            fit = fit_linear([(-1e300, 1.0), (0.2, -1.0), (0.3, 1.0)])
            assert all(math.isfinite(v) for v in (*fit.params, fit.residual_rms))
            # fitted as q / 2**996, this profile converges like its copy of
            # order 1 (it used to diverge on its scale alone) ...
            x = np.linspace(0.0, 0.8, 5)
            fit = fit_gaussian(_synthetic_table(x, [1e300, -1e300, 1e300, 1.0, 1.0]))
            assert all(math.isfinite(v) for v in (*fit.params, fit.residual_rms))
            # ... and a flat one diverges with a finite best RMS
            with pytest.raises(FitDivergedError) as exc:
                fit_gaussian(_synthetic_table(x, [1e300] * 5))
        assert math.isfinite(exc.value.best.residual_rms)

    def test_overflowing_parameters_raise(self):
        with pytest.raises(FloatingPointError, match="linear fit is not finite"):
            fit_linear([(0.1, 1.7e308), (0.2, 1.7e308), (0.3, -1.7e308)])

    def test_linear_too_few_points(self):
        with pytest.raises(ValueError):
            fit_linear([(0.1, -0.2), (0.8, -1.6)])

    def test_linear_needs_two_distinct_kappa(self):
        # one distinct kappa at or below the cut, however many rows: no slope
        pairs = [(0.1, -1.0), (0.1, -2.0), (0.1, -3.0), (0.9, -5.0)]
        with pytest.raises(ValueError, match="2 distinct kappa"):
            fit_linear(pairs)
        assert fit_linear(pairs, kappa_cut=1.0).params[0] < 0.0

    def test_linear_rejects_kappas_ulps_apart(self):
        # distinct kappas a few ulps apart leave the slope as undetermined as
        # equal ones: polyfit warned RankWarning and returned slope 10
        pairs = [(0.1, 1.0), (0.1, 2.0), (math.nextafter(0.1, 1.0), 3.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2 distinct kappa"):
                fit_linear(pairs)

    @pytest.mark.parametrize("amp", [1e-300, 1e200])
    def test_gaussian_is_scale_free(self, amp):
        # the fit of q / 2**k: a tiny amplitude no longer stops on the
        # absolute step tolerance far from A, nor a huge one escape in sigma
        x = np.linspace(0.0, 1.0, 11)
        fit = fit_gaussian(_synthetic_table(x, amp * np.exp(-(x**2) / (2 * 0.5**2))))
        assert math.isclose(fit.params[0], amp, rel_tol=1e-12)
        assert math.isclose(fit.params[1], 0.5, rel_tol=1e-12)

    @pytest.mark.parametrize("k", [-1000, -3, 5, 600])
    def test_gaussian_exact_under_powers_of_two(self, k):
        # a profile times 2**k fits to the same sigma, bit for bit, and to
        # A and an RMS times 2**k
        x = np.linspace(0.0, 1.0, 11)
        y = 0.97 * np.exp(-(x**2) / (2 * 0.45**2)) + 0.01 * np.cos(7.0 * x)
        fit = fit_gaussian(_synthetic_table(x, y))
        scaled = fit_gaussian(_synthetic_table(x, np.ldexp(y, k)))
        assert scaled.params == (math.ldexp(fit.params[0], k), fit.params[1])
        assert scaled.residual_rms == math.ldexp(fit.residual_rms, k)

    @pytest.mark.parametrize("x", [[2, 3, 4, 5, 6], [-1.5, -0.5, 0.0, 0.5, 1.0]])
    def test_gaussian_rejects_kappa_beyond_one(self, x):
        # corners read as kappas: no bend has |kappa| > 1
        with pytest.raises(ValueError, match=r"kappa within \[-1, 1\]"):
            fit_gaussian(_synthetic_table(x, [0.9, 0.8, 0.7, 0.6, 0.5]))

    def test_gaussian_needs_two_distinct_magnitudes(self):
        # q(kappa) = q(-kappa): one |kappa| leaves sigma undetermined
        x = [0.3, -0.3, 0.3, -0.3, 0.3]
        with pytest.raises(ValueError, match="2 distinct"):
            fit_gaussian(_synthetic_table(x, [0.8, 0.8, 0.81, 0.79, 0.8]))
