import math
import warnings

import numpy as np
import pytest

from bentchain import ChainSpec, Protocol, calibrate_protocol1, propagate, reference
from bentchain.chain import hamiltonian_matrix
from bentchain.cli import build_parser, parse_grid
from bentchain.propagate import REL_TOL, first_arrivals
from bentchain.reference import DEFAULT_REFERENCE_WINDOW, RATIO_TOL
from dense_reference import first_arrival_dense


class TestReference:
    @pytest.mark.parametrize("n", [2, 7, 19])
    def test_protocol2_analytic(self, n):
        ref = reference(ChainSpec(Protocol.PROTOCOL_2, n))
        assert math.isclose(ref.t0, math.pi / 2, rel_tol=1e-12)
        assert ref.p0 == 1.0

    @pytest.mark.parametrize("spec", [
        ChainSpec(Protocol.PROTOCOL_2, 13),
        ChainSpec(Protocol.PROTOCOL_1, 13, boundary_ratio=0.6),
    ], ids=["p2", "p1"])
    def test_no_eigensystem(self, spec, monkeypatch):
        # Protocol 2's reference is its closed form, Protocol 1's one scan
        # of the unbent matrix's eigenvalues and end weights
        calls = []
        eigh, scan = np.linalg.eigh, propagate._scan

        def eigh_spy(a, *args, **kwargs):
            calls.append("eigh")
            return eigh(a, *args, **kwargs)

        def scan_spy(*args):
            calls.append("scan")
            return scan(*args)

        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        monkeypatch.setattr(propagate, "_scan", scan_spy)
        reference(spec)
        assert calls == ([] if spec.protocol is Protocol.PROTOCOL_2 else ["scan"])

    def test_protocol2_omega0_scaling(self):
        ref = reference(ChainSpec(Protocol.PROTOCOL_2, 5, omega0=4.0))
        assert math.isclose(ref.t0, math.pi / 8, rel_tol=1e-12)

    def test_protocol1_uniform_chain_imperfect(self):
        # ratio 1 is the plain uniform chain; transfer is not faithful
        ref = reference(ChainSpec(Protocol.PROTOCOL_1, 4, boundary_ratio=1.0))
        assert ref.p0 < 1.0
        # dense-grid oracle over the same window
        h = hamiltonian_matrix(ChainSpec(Protocol.PROTOCOL_1, 4, boundary_ratio=1.0))
        t_star, p_star = first_arrival_dense(h, 40.0)
        assert math.isclose(ref.p0, p_star, abs_tol=1e-8)
        assert math.isclose(ref.t0, t_star, abs_tol=1e-4)


    # calibrated ratios; from N ~ 72 on the arrival comes after 40/omega0,
    # where a fixed 40/omega0 window reported the window end as the arrival
    @pytest.mark.parametrize("n,ratio,omega0", [
        (80, 0.5131882440240542, 1.0),
        (80, 0.5131882440240542, 2.0),
        (100, 0.49391866199349327, 1.0),
    ])
    def test_protocol1_long_chain_arrival(self, n, ratio, omega0):
        spec = ChainSpec(Protocol.PROTOCOL_1, n, omega0=omega0, boundary_ratio=ratio)
        window = 2.0 * n / omega0
        t, p = first_arrivals([hamiltonian_matrix(spec)], window)
        ref = reference(spec)
        assert ref.t0 > DEFAULT_REFERENCE_WINDOW / omega0
        assert abs(ref.p0 - p[0]) <= 1e-12
        assert abs(ref.t0 - t[0]) <= REL_TOL * window

    def test_reference_records_omega0(self):
        p2 = ChainSpec(Protocol.PROTOCOL_2, 9, omega0=2.0)
        cal = calibrate_protocol1(9, omega0=2.0)
        p1 = ChainSpec(Protocol.PROTOCOL_1, 9, omega0=2.0, boundary_ratio=cal.boundary_ratio)
        for spec, ref in ((p2, reference(p2)), (p1, reference(p1)), (p1, cal)):
            assert ref.omega0 == 2.0 and ref.to_dict()["omega0"] == 2.0
            ref.check_chain(spec)

    @pytest.mark.parametrize("omega0", [1e-320, 5e-324])
    def test_protocol2_infinite_arrival_time_raises(self, omega0):
        # t0 = pi/(2*omega0) overflows: no finite reference exists
        with pytest.raises(FloatingPointError, match="non-finite reference"):
            reference(ChainSpec(Protocol.PROTOCOL_2, 9, omega0=omega0))

    @pytest.mark.parametrize("omega0", [1e-308, 2e-307])
    def test_protocol1_infinite_window_raises(self, omega0):
        # max(40, 0.8 N)/omega0 overflows, a numerical failure of the
        # derived window, not a bad window given by the caller
        spec = ChainSpec(Protocol.PROTOCOL_1, 9, omega0=omega0, boundary_ratio=0.7)
        with pytest.raises(FloatingPointError, match="non-finite window"):
            reference(spec)

    def test_fields_are_floats(self):
        p2 = reference(ChainSpec(Protocol.PROTOCOL_2, 9))
        p1 = reference(ChainSpec(Protocol.PROTOCOL_1, 9, boundary_ratio=0.6))
        cal = calibrate_protocol1(9)
        for ref in (p2, p1, cal):
            assert type(ref.p0) is float and type(ref.t0) is float
        assert p2.boundary_ratio is None
        assert type(p1.boundary_ratio) is float and type(cal.boundary_ratio) is float


class TestCalibration:
    def test_n6_high_fidelity(self):
        ref = calibrate_protocol1(6)
        assert ref.p0 >= 0.99
        assert 0 < ref.boundary_ratio <= 1

    def test_singleton_grid(self):
        ref = calibrate_protocol1(6, ratio_grid=np.array([1.0]))
        assert ref.boundary_ratio == 1.0

    def test_selection_dominates_uniform(self):
        best = calibrate_protocol1(6)
        uniform = calibrate_protocol1(6, ratio_grid=np.array([1.0]))
        assert best.p0 >= uniform.p0

    def test_deterministic(self):
        a = calibrate_protocol1(8)
        b = calibrate_protocol1(8)
        assert a == b

    def test_cli_default_grid_is_the_library_default(self):
        # the CLI default is built from DEFAULT_RATIO_GRID_STEP, and
        # parse_grid reproduces the library's grid
        grid = build_parser().parse_args(["calibrate", "--n", "9"]).grid
        assert calibrate_protocol1(9) == calibrate_protocol1(9, ratio_grid=parse_grid(grid))

    def test_grid_refinement_never_hurts(self):
        coarse = np.arange(0.1, 1.01, 0.1)
        fine = np.arange(0.05, 1.001, 0.05)
        assert calibrate_protocol1(7, ratio_grid=fine).p0 >= (
            calibrate_protocol1(7, ratio_grid=coarse).p0 - 1e-12
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            calibrate_protocol1(3)
        with pytest.raises(ValueError):
            calibrate_protocol1(6, ratio_grid=np.array([]))
        with pytest.raises(ValueError):
            calibrate_protocol1(6, ratio_grid=np.array([0.0, 0.5]))
        # the refine needs distinct grid ratios
        with pytest.raises(ValueError, match="repeated ratio"):
            calibrate_protocol1(6, ratio_grid=np.array([0.6, 0.7, 0.6]))

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan])
    def test_rejects_bad_omega0(self, omega0):
        # omega0 is validated before the default window divides by it
        with pytest.raises(ValueError, match="omega0"):
            calibrate_protocol1(6, omega0=omega0)

    def test_infinite_default_window_raises(self):
        # max(0.8 N, 8)/omega0 overflows
        with pytest.raises(FloatingPointError, match="non-finite window"):
            calibrate_protocol1(9, omega0=1e-308)

    def test_rejects_nan_ratio(self):
        # both (0, 1] comparisons are False for NaN, so neither may let it by
        with pytest.raises(ValueError, match=r"within \(0, 1\]"):
            calibrate_protocol1(6, ratio_grid=np.array([math.nan, 0.5]))

    @pytest.mark.parametrize("window", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_window(self, window):
        # an explicit window is used as given, never replaced by the default
        with pytest.raises(ValueError, match="window"):
            calibrate_protocol1(6, window=window)

    # recorded when the calibration carried its own copy of the optimizer's
    # scan-then-refine search, with Brent's refine
    @pytest.mark.parametrize("n,ratio,p0,t0", [
        (13, 0.697477588225976, 0.9682915947429216, 8.583807797730191),
        (21, 0.6438796264032591, 0.9455557122850131, 13.038755664374476),
    ])
    def test_pinned_default_grid(self, n, ratio, p0, t0):
        ref = calibrate_protocol1(n)
        # the refine on the slope dp0/dratio, with end weights from the
        # eigenvalues alone and each refine step's arrival followed from a
        # nearby one with its own eigh, from the 20-ratio default grid
        assert (ref.boundary_ratio, ref.p0, ref.t0) == {
            13: (0.6974776945325221, 0.968291594742965, 8.583807418035166),
            21: (0.6438796310695525, 0.9455557122850211, 13.038755645168342),
        }[n]
        assert abs(ref.boundary_ratio - ratio) <= RATIO_TOL
        assert ref.p0 >= p0 - 1e-12 and math.isclose(ref.t0, t0, rel_tol=1e-6)

    def test_default_grid_matches_a_fine_grid(self):
        # the 20 default ratios put the optimum in the same cell as the 100
        # of a 0.01 grid: the refined ratio agrees within RATIO_TOL
        fine_grid = np.arange(0.01, 1.0 + 1e-12, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no boundary warning
            for n in range(4, 26):
                ref, fine = calibrate_protocol1(n), calibrate_protocol1(n, ratio_grid=fine_grid)
                assert abs(ref.boundary_ratio - fine.boundary_ratio) <= RATIO_TOL, n
                assert ref.p0 >= fine.p0 - 1e-12, n

    def test_interior_optimum_from_an_end_sample_does_not_warn(self):
        # the best grid ratio is the last one, 0.4, but the refined optimum
        # lies inside the grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = calibrate_protocol1(5, ratio_grid=np.arange(1, 9) * 0.05)
        assert 0.35 < ref.boundary_ratio < 0.4
        assert abs(ref.boundary_ratio - 0.392759) <= 1e-6

    def test_boundary_warning(self):
        with pytest.warns(UserWarning, match="boundary") as record:
            calibrate_protocol1(6, ratio_grid=np.array([0.9, 0.95, 1.0]))
        # the warning names the caller's line, not the calibration's
        assert record[0].filename == __file__
