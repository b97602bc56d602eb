import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentchain import (
    BendSpec,
    ChainSpec,
    Protocol,
    build_hamiltonian,
    calibrate_protocol1,
    detuning_curve,
    optimize_detuning,
    reference,
    transfer_metrics,
)
from bentchain import propagate, search
from bentchain.chain import omega_max
from bentchain.optimize import (
    DEFAULT_INTERVAL,
    DELTA_TOL,
    EXPANSION_FLOOR,
    N_COARSE,
    _optimize,
    _widened,
)
from bentchain.propagate import BLOCK_ROWS, first_arrivals
from bentchain.reference import DEFAULT_RATIO_GRID_STEP


def _p2(n):
    return ChainSpec(Protocol.PROTOCOL_2, n)


class TestOptimizeDetuning:
    def test_unbent_optimum_is_zero(self):
        spec = _p2(9)
        ref = reference(spec)
        res = optimize_detuning(spec, BendSpec(alpha=5, kappa=0.0), ref)
        assert abs(res.delta_star) < 1e-3
        assert res.q_opt >= 1 - 1e-6

    def test_example_case_recovers_fidelity(self):
        spec = _p2(13)
        ref = reference(spec)
        res = optimize_detuning(spec, BendSpec(alpha=7, kappa=0.5), ref)
        assert res.q_opt >= 0.99
        assert res.delta_star < 0

    def test_optimum_beats_undetuned(self):
        spec = _p2(12)
        ref = reference(spec)
        for kappa in (0.2, 0.5, 0.7):
            bend = BendSpec(alpha=6, kappa=kappa)
            base = transfer_metrics(spec, bend, ref)
            res = optimize_detuning(spec, bend, ref)
            assert res.q_opt >= base.q - 1e-12

    def test_evaluation_budget(self):
        spec = _p2(9)
        ref = reference(spec)
        res = optimize_detuning(spec, BendSpec(alpha=5, kappa=0.4), ref)
        assert res.evaluations <= 200

    def test_delta_energy_consistent(self):
        spec = ChainSpec(Protocol.PROTOCOL_2, 9, omega0=2.0)
        ref = reference(spec)
        res = optimize_detuning(spec, BendSpec(alpha=5, kappa=0.4), ref)
        assert math.isclose(
            res.delta_energy, res.delta_star * omega_max(spec), rel_tol=1e-12
        )

    def test_invalid_interval_rejected(self):
        spec = _p2(9)
        ref = reference(spec)
        with pytest.raises(ValueError):
            optimize_detuning(
                spec, BendSpec(alpha=5, kappa=0.4), ref, interval=(1.0, -1.0)
            )

    @pytest.mark.parametrize("interval", [
        (0.0, math.nan), (math.nan, 0.0), (-1.0, math.inf), (-math.inf, 0.5),
        (-1e308, 1e308),  # finite ends whose width overflows
    ])
    def test_nonfinite_interval_rejected(self, interval):
        spec = _p2(9)
        with pytest.raises(ValueError, match="invalid interval"):
            optimize_detuning(spec, BendSpec(alpha=5, kappa=0.4), reference(spec),
                              interval=interval)

    def test_fields_are_floats(self):
        spec = _p2(9)
        res = optimize_detuning(spec, BendSpec(alpha=5, kappa=0.4), reference(spec))
        for value in (res.delta_star, res.delta_energy, res.q_opt, res.s_opt):
            assert type(value) is float

    def test_boundary_flagged(self):
        spec = _p2(9)
        ref = reference(spec)
        res = optimize_detuning(
            spec, BendSpec(alpha=5, kappa=0.5), ref, interval=(-0.1, 0.0)
        )
        assert res.on_boundary

    def test_interior_optimum_from_an_end_sample_not_flagged(self):
        # the best coarse detuning is the -4 end, but the slope there points
        # inwards and the refined optimum lies inside the interval
        spec = _p2(12)
        res = optimize_detuning(spec, BendSpec(alpha=5, kappa=0.75), reference(spec))
        assert DEFAULT_INTERVAL[0] < res.delta_star < -3.99
        assert abs(res.delta_star + 3.996232) <= 1e-6
        assert res.on_boundary is False

    @pytest.mark.parametrize("spec,other", [
        (_p2(13), _p2(9)),
        (_p2(13), ChainSpec(Protocol.PROTOCOL_1, 13, boundary_ratio=0.6)),
        (ChainSpec(Protocol.PROTOCOL_1, 13, boundary_ratio=0.7),
         ChainSpec(Protocol.PROTOCOL_1, 13, boundary_ratio=0.6)),
        (_p2(13), ChainSpec(Protocol.PROTOCOL_2, 13, omega0=2.0)),
        (ChainSpec(Protocol.PROTOCOL_1, 13, boundary_ratio=0.7),
         ChainSpec(Protocol.PROTOCOL_1, 13, omega0=2.0, boundary_ratio=0.7)),
    ], ids=["n_sites", "protocol", "boundary_ratio", "omega0", "protocol1_omega0"])
    def test_reference_of_another_chain_rejected(self, spec, other):
        ref = reference(other)
        with pytest.raises(ValueError, match="does not match the chain spec"):
            optimize_detuning(spec, BendSpec(alpha=7, kappa=0.5), ref)
        with pytest.raises(ValueError, match="does not match the chain spec"):
            detuning_curve(spec, 7, [0.1, 0.2], ref)

    @pytest.mark.parametrize("omega0", [1e200, 1e-160])
    def test_results_do_not_depend_on_the_size_of_omega0(self, omega0):
        # products of two couplings overflow past omega0 ~ 1e154 and go
        # subnormal below ~1e-154 unless the scan rescales its matrices
        def results(omega0):
            small, large = (ChainSpec(Protocol.PROTOCOL_2, n, omega0=omega0) for n in (9, 13))
            bent = transfer_metrics(small, BendSpec(alpha=5, kappa=0.4), reference(small))
            opt = optimize_detuning(large, BendSpec(alpha=7, kappa=0.5), reference(large))
            return bent, opt

        (bent, opt), (bent_1, opt_1) = results(omega0), results(1.0)
        assert abs(opt.delta_star - opt_1.delta_star) <= DELTA_TOL
        for value, value_1 in ((bent.q, bent_1.q), (bent.s, bent_1.s),
                               (opt.q_opt, opt_1.q_opt), (opt.s_opt, opt_1.s_opt)):
            assert math.isclose(value, value_1, rel_tol=1e-12)

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(9, 25),
        protocol=st.sampled_from(Protocol),
        corner=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 1.0),
        k=st.integers(-1000, 1000),
    )
    def test_omega0_power_of_two_scaling_property(self, n, protocol, corner, kappa, k):
        # omega0 * 2**k scales every matrix and window by an exact power of
        # two, which the scan divides out again: the calibrated ratio, p0,
        # q, s and the optimum are bit-identical, and times scale exactly
        def results(omega0):
            if protocol is Protocol.PROTOCOL_1:
                ref = calibrate_protocol1(n, omega0=omega0)
                spec = ChainSpec(protocol, n, omega0=omega0, boundary_ratio=ref.boundary_ratio)
            else:
                spec = ChainSpec(protocol, n, omega0=omega0)
                ref = reference(spec)
            bend = BendSpec(alpha=2 + min(int(corner * (n - 2)), n - 3), kappa=kappa)
            return ref, transfer_metrics(spec, bend, ref), optimize_detuning(spec, bend, ref)

        scale = math.ldexp(1.0, k)
        (ref, bent, opt), (ref_1, bent_1, opt_1) = results(scale), results(1.0)
        assert ref == replace(ref_1, t0=ref_1.t0 / scale, omega0=scale)
        assert bent == replace(bent_1, t=bent_1.t / scale)
        assert opt == replace(opt_1, delta_energy=opt_1.delta_energy * scale)

    def test_deterministic(self):
        spec = _p2(11)
        ref = reference(spec)
        bend = BendSpec(alpha=6, kappa=0.6)
        assert optimize_detuning(spec, bend, ref) == optimize_detuning(
            spec, bend, ref
        )


def _p1(n):
    ref = calibrate_protocol1(n)
    return ChainSpec(Protocol.PROTOCOL_1, n, boundary_ratio=ref.boundary_ratio), ref


# (spec, reference, bend) with an optimum inside the default interval
INTERIOR_CASES = [
    pytest.param(lambda: (_p2(9), reference(_p2(9)), BendSpec(alpha=5, kappa=0.4)),
                 id="p2-n9-a5-k0.4"),
    pytest.param(lambda: (_p2(13), reference(_p2(13)), BendSpec(alpha=4, kappa=0.5)),
                 id="p2-n13-a4-k0.5"),
    pytest.param(lambda: (*_p1(12), BendSpec(alpha=6, kappa=0.5)), id="p1-n12-a6-k0.5"),
    pytest.param(lambda: (*_p1(21), BendSpec(alpha=3, kappa=0.2)), id="p1-n21-a3-k0.2"),
    # a coarse scan of 8 detunings put this optimum (delta* = -1.58228) in
    # the wrong cell and returned -3.217
    pytest.param(lambda: (_p2(6), reference(_p2(6)), BendSpec(alpha=5, kappa=0.5505)),
                 id="p2-n6-a5-k0.5505"),
]


class TestAgainstDenseScan:
    @pytest.mark.parametrize("case", INTERIOR_CASES)
    def test_delta_star_matches_dense_scan(self, case):
        spec, ref, bend = case()
        res = optimize_detuning(spec, bend, ref)
        assert not res.on_boundary
        om = omega_max(spec)
        corner = bend.alpha - 1

        def scan(deltas):
            matrices = np.repeat(build_hamiltonian(spec, bend).matrix[None],
                                 deltas.size, axis=0)
            matrices[:, corner, corner] += deltas * om
            return first_arrivals(matrices, ref.t0)[1]

        # the whole interval at 1e-3, then 1e-7 steps around delta*
        coarse = np.arange(DEFAULT_INTERVAL[0], DEFAULT_INTERVAL[1] + 1e-9, 1e-3)
        assert abs(res.delta_star - coarse[np.argmax(scan(coarse))]) <= 1e-3
        fine = res.delta_star + 1e-7 * np.arange(-50, 51)
        assert abs(res.delta_star - fine[np.argmax(scan(fine))]) <= 1e-6
        # the reported metrics are those of delta* itself
        tuned = transfer_metrics(spec, replace(bend, delta_alpha=res.delta_energy), ref)
        assert (res.q_opt, res.s_opt) == (tuned.q, tuned.s)

    @pytest.mark.parametrize("case", INTERIOR_CASES)
    def test_evaluations_on_default_interval(self, case):
        spec, ref, bend = case()
        res = optimize_detuning(spec, bend, ref)
        # N_COARSE coarse detunings, the slopes at three of them, then the
        # refine, whose followed steps count no evaluation
        assert res.evaluations <= 80


@pytest.fixture(scope="module")
def curve_n12():
    spec = _p2(12)
    ref = reference(spec)
    grid = np.arange(0.1, 1.001, 0.1)
    return detuning_curve(spec, 6, grid, ref)


class TestDetuningCurve:
    def test_all_negative_and_monotone(self, curve_n12):
        deltas = [res.delta_star for _, res in curve_n12]
        assert all(d < 0 for d in deltas)
        # |delta*| grows with the bend strength
        assert all(b < a + 1e-6 for a, b in zip(deltas, deltas[1:]))

    def test_fidelity_restored_everywhere(self, curve_n12):
        assert all(res.q_opt >= 0.99 for _, res in curve_n12)

    def test_no_boundary_pinning(self, curve_n12):
        # at kappa = 1 the optimum saturates (corner removal limit), so the
        # boundary flag is only meaningful below that
        assert not any(res.on_boundary for k, res in curve_n12 if k < 1.0)

    def test_arrival_not_slower(self, curve_n12):
        spec = _p2(12)
        ref = reference(spec)
        for kappa, res in curve_n12:
            if kappa > 0.7:
                continue
            base = transfer_metrics(spec, BendSpec(alpha=6, kappa=kappa), ref)
            assert res.s_opt <= base.s * 1.05

    def test_rejects_empty_grid(self):
        spec = _p2(9)
        with pytest.raises(ValueError, match="kappa grid is empty"):
            detuning_curve(spec, 5, [], reference(spec))

    @pytest.mark.parametrize("kappas", [[0.5, 0.5], [0.3, 0.2, 0.3]])
    def test_rejects_repeats(self, kappas):
        # a repeat would give a second optimum for one kappa
        spec = _p2(9)
        with pytest.raises(ValueError, match="repeated kappa"):
            detuning_curve(spec, 5, kappas, reference(spec))

    def test_size_collapse(self, curve_n12):
        # delta*(kappa)/Omega_max is nearly chain-length independent
        spec = _p2(21)
        ref = reference(spec)
        grid = np.arange(0.1, 0.701, 0.1)
        curve_n21 = detuning_curve(spec, 11, grid, ref)
        d12 = {round(k, 3): r.delta_star for k, r in curve_n12}
        for kappa, res in curve_n21:
            assert math.isclose(
                res.delta_star, d12[round(kappa, 3)], rel_tol=0.15
            )


# Protocol 2, N = 13, alpha = 7: from kappa = 0.8 on, delta* leaves
# DEFAULT_INTERVAL, and at kappa = 1 it reaches EXPANSION_FLOOR
EXPANDING_KAPPAS = np.array([0.7, 0.8, 0.9, 1.0])
# (delta*, q_opt, s_opt, on_boundary) of that curve, recorded when each
# expansion round was a full optimizer run with Brent's refine
EXPANDING_CURVE = [
    (-2.7520068925301295, 0.9968459802631868, 0.9579778120739496, False),
    (-4.632924768889452, 0.9979381375677909, 0.9531964203770459, False),
    (-10.640741196350374, 0.9992780847563909, 0.9503506036658644, False),
    (-31.999998704069704, 0.9983155277088257, 0.9473153587325085, True),
]
# the same, refined on the slope dp*/ddelta from coarse scans of N_COARSE
# detunings, with end weights from the eigenvalues alone and each refine
# step's arrival followed from a nearby one with its own eigh: the optimum
# at the floor is the floor itself.  q_opt is p* over the closed-form p0 = 1.
# Each kappa starts cold on DEFAULT_INTERVAL, and the four run in lockstep.
EXPANDING_CURVE_SLOPE = [
    (-2.7520070145785556, 0.9968459802631885, 0.9579778120932585, False),
    (-4.632924285652109, 0.9979381375677864, 0.953196420046967, False),
    (-10.640739122311352, 0.9992780847563857, 0.9503506030468301, False),
    (EXPANSION_FLOOR, 0.9983155278099508, 0.9473153587902079, True),
]


def _spy_first_arrivals(monkeypatch):
    """Record the row count of every first_arrivals call, through every
    module binding of it."""
    rows = []
    original = propagate.first_arrivals

    def spy(matrices, window):
        matrices = list(matrices)
        rows.append(len(matrices))
        return original(matrices, window)

    for name, module in list(sys.modules.items()):
        if name.startswith("bentchain") and getattr(module, "first_arrivals", None) is original:
            monkeypatch.setattr(module, "first_arrivals", spy)
    return rows


class TestCurveExpansion:
    @pytest.fixture(scope="class")
    def chain(self):
        spec = _p2(13)
        return spec, reference(spec)

    @pytest.fixture
    def traced_curve(self, chain, monkeypatch):
        spec, ref = chain
        rows = _spy_first_arrivals(monkeypatch)
        return detuning_curve(spec, 7, EXPANDING_KAPPAS, ref), rows

    def test_pinned_results(self, traced_curve):
        curve, _ = traced_curve
        assert [kappa for kappa, _ in curve] == EXPANDING_KAPPAS.tolist()
        got = [(r.delta_star, r.q_opt, r.s_opt, r.on_boundary) for _, r in curve]
        assert got == EXPANDING_CURVE_SLOPE
        # Brent's method stopped within about 2 (DELTA_TOL / 3 + 1.5e-8
        # |delta|) of the optimum, 2.1e-6 at kappa = 0.9, where the slope
        # refine lands on the root of dp*/ddelta
        for new, old in zip(got, EXPANDING_CURVE):
            assert abs(new[0] - old[0]) <= 5.0 * DELTA_TOL
            assert new[1] >= old[1] - 1e-12 and new[3] == old[3]

    def test_matches_optimizer_on_last_interval(self, chain, traced_curve):
        # each point is the optimum of its kappa alone, widened from
        # DEFAULT_INTERVAL and refined on the last interval; the lockstep
        # scans share blocks, so the bits may differ
        spec, ref = chain
        curve, _ = traced_curve
        for kappa, res in curve:
            (alone,) = _optimize(spec, [BendSpec(alpha=7, kappa=kappa)], ref, DEFAULT_INTERVAL,
                                 widen=_widened)
            assert abs(res.delta_star - alone.delta_star) <= DELTA_TOL
            assert abs(res.q_opt - alone.q_opt) <= 1e-12
            assert (res.on_boundary, res.evaluations) == (alone.on_boundary, alone.evaluations)

    def test_evaluations_count_every_scan(self, traced_curve):
        curve, rows = traced_curve
        assert sum(res.evaluations for _, res in curve) == sum(rows)
        # the kappas run in lockstep: each coarse grid, the first and the
        # widened ones, is a call of its own, and the refined optima x*
        # that the searches ask for in one round share a call; the slopes
        # and the followed arrivals and slopes of the refine steps come
        # without a scan
        assert rows[: len(curve)] == [N_COARSE] * len(curve)
        assert all(n == N_COARSE or 1 <= n <= len(curve) for n in rows)
        assert rows.count(N_COARSE) == sum(res.evaluations // N_COARSE for _, res in curve)
        # kappa = 0.7 stays inside DEFAULT_INTERVAL: one scan, then x*
        assert curve[0][1].evaluations == N_COARSE + 1
        # the others widen at least once
        assert all(res.evaluations > 2 * N_COARSE for _, res in curve[1:])
        # the optimum at EXPANSION_FLOOR is an end sample: no refine, no x*
        assert curve[-1][1].evaluations % N_COARSE == 0
        assert sum(n for n in rows if n != N_COARSE) == len(curve) - 1


def _spy_eigh_and_scan(monkeypatch):
    """Record, in call order, the row count of every stacked np.linalg.eigh
    ("E") and of every first-arrival scan ("S"), as "E3 S1 ..."."""
    events = []
    eigh, scan = np.linalg.eigh, propagate._scan

    def eigh_spy(a, *args, **kwargs):
        events.append(f"E{len(a)}")
        return eigh(a, *args, **kwargs)

    def scan_spy(eigvals, coef, window):
        events.append(f"S{len(eigvals)}")
        return scan(eigvals, coef, window)

    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    monkeypatch.setattr(propagate, "_scan", scan_spy)
    return events


def _scan_blocks(rows: int) -> str:
    """The scans of one first_arrivals call on ``rows`` matrices, as
    _spy_eigh_and_scan records them: full blocks, then the rest."""
    blocks = [BLOCK_ROWS] * (rows // BLOCK_ROWS) + [rows % BLOCK_ROWS] * (rows % BLOCK_ROWS > 0)
    return " ".join(f"S{n}" for n in blocks)


def test_coarse_rows_skip_eigh(monkeypatch):
    """The coarse scans take eigenvalues and end weights only: eigh sees
    the three rows of the slope step, which runs no scan, and then one row
    per refine step, whose arrival is followed with no scan; x* alone then
    takes a one-row scan."""
    spec = _p2(13)
    ref = reference(spec)
    events = _spy_eigh_and_scan(monkeypatch)
    res = optimize_detuning(spec, BendSpec(alpha=7, kappa=0.5), ref)
    # the coarse detunings in blocks of BLOCK_ROWS
    assert re.fullmatch(rf"{_scan_blocks(N_COARSE)} E3( E1)+ S1", " ".join(events))
    assert res.evaluations == N_COARSE + 1
    events.clear()
    calibrate_protocol1(13)
    ratios = round(1.0 / DEFAULT_RATIO_GRID_STEP)  # (0, 1] in steps of the default
    assert re.fullmatch(rf"{_scan_blocks(ratios)} E3( E1)+ S1", " ".join(events))


def test_physical_chains_never_zoom(monkeypatch):
    """The slope refines settle every optimum and first arrival of the
    optimizer, the curves and the calibration: the zoom fallbacks of
    search.scan_and_refine and of the scan's flat tops never run."""
    calls = []
    for module in (search, propagate):
        def spy(*args, original=module.zoom_max):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "zoom_max", spy)
    p1_spec, p1_ref = _p1(12)  # calibrate_protocol1
    p2_spec = _p2(13)
    for spec, ref, alpha in ((p1_spec, p1_ref, 6), (p2_spec, reference(p2_spec), 7)):
        optimize_detuning(spec, BendSpec(alpha=alpha, kappa=0.5), ref)
        detuning_curve(spec, alpha, np.linspace(0.1, 1.0, 10), ref)
    assert calls == []
    # the spies see both fallbacks: a constant |A_N|^2 is a flat top, and a
    # NaN slope brackets nothing
    def nan_slopes(xs, at=None):
        xs = np.asarray(xs, dtype=float)
        return np.full(xs.size, np.nan) if at is not None else (xs, -(xs**2))

    propagate._scan(np.array([[-1.0, 1.0]]), np.array([[1.0, 0.0]]), 1.0)
    search.scan_and_refine(nan_slopes, np.linspace(-1.0, 1.0, 5), 1e-6)
    assert len(calls) == 2
