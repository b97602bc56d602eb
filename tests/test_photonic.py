import math

import numpy as np
import pytest

from bentchain import (
    ChainSpec,
    DeviceParams,
    Protocol,
    coupling_from_separation,
    design_layout,
    parasitic_check,
    separation_from_coupling,
)

DEV = DeviceParams(eta=19.5, xi=0.152, length=10.0)


class TestCouplingLaw:
    def test_zero_separation_gives_prefactor(self):
        assert coupling_from_separation(0.0, DEV) == DEV.eta

    def test_roundtrip(self):
        for d in (5.0, 21.86, 40.0):
            c = coupling_from_separation(d, DEV)
            assert math.isclose(separation_from_coupling(c, DEV), d, abs_tol=1e-12)
        for c in (0.01, 0.1, 1.0):
            d = separation_from_coupling(c, DEV)
            assert math.isclose(coupling_from_separation(d, DEV), c, rel_tol=1e-10)

    def test_monotone_decreasing(self):
        assert coupling_from_separation(30.0, DEV) < coupling_from_separation(
            20.0, DEV
        )

    def test_rejects_excess_coupling(self):
        with pytest.raises(ValueError, match="exceeds prefactor"):
            separation_from_coupling(DEV.eta, DEV)
        with pytest.raises(ValueError):
            separation_from_coupling(0.0, DEV)

    @pytest.mark.parametrize("c,dev", [
        (0.5, DeviceParams(eta=19.5, xi=5e-324, length=10.0)),
        (1e-300, DeviceParams(eta=1e300, xi=0.152, length=10.0)),
    ], ids=["separation-overflows", "ratio-underflows"])
    def test_unrepresentable_separation_raises(self, c, dev):
        # d = -ln(C / eta) / xi came out infinite, or C / eta underflowed to
        # 0 and math.log raised "math domain error"
        with pytest.raises(FloatingPointError, match=r"coupling .*/cm against eta="):
            separation_from_coupling(c, dev)

    def test_rejects_bad_device(self):
        with pytest.raises(ValueError):
            DeviceParams(eta=-1.0, xi=0.152, length=10.0)


class TestDesignLayout:
    def test_protocol2_nine_sites(self):
        layout = design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), DEV)
        assert layout.separations.size == 8
        # strongest coupling sits at the chain centre -> smallest gap there
        assert np.argmin(layout.separations) in (3, 4)
        assert math.isclose(float(layout.separations.min()), 21.8655, abs_tol=5e-4)
        assert math.isclose(float(layout.separations.max()), 24.8796, abs_tol=5e-4)

    def test_centrosymmetric_separations(self):
        layout = design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), DEV)
        np.testing.assert_allclose(
            layout.separations, layout.separations[::-1], atol=1e-12
        )

    def test_omega0_from_device_length(self):
        layout = design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), DEV)
        assert math.isclose(
            layout.omega0_physical, math.pi / 2 / DEV.length, rel_tol=1e-12
        )

    def test_couplings_match_law(self):
        layout = design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), DEV)
        for d, c in zip(layout.separations, layout.couplings_physical):
            assert math.isclose(
                coupling_from_separation(float(d), DEV), float(c), rel_tol=1e-10
            )

    def test_protocol1_layout(self):
        spec = ChainSpec(Protocol.PROTOCOL_1, 9, boundary_ratio=0.7)
        layout = design_layout(spec, DEV)
        assert layout.separations.size == 8
        # weak boundary couplings -> the end gaps are the widest
        assert layout.separations[0] == layout.separations.max()
        inner = layout.separations[1:-1]
        np.testing.assert_allclose(inner, inner[0], atol=1e-10)


class TestParasitics:
    def test_uniform_gap_ratio(self):
        layout = design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), DEV)
        report = parasitic_check(layout, DEV)
        assert report.ratios.size == 7
        assert report.max_ratio == report.ratios.max()
        assert 0 < report.max_ratio <= 0.05
        # hand-checked against the law for the first pair of gaps
        d0, d1 = layout.separations[:2]
        expected = coupling_from_separation(float(d0 + d1), DEV) / min(
            coupling_from_separation(float(d0), DEV),
            coupling_from_separation(float(d1), DEV),
        )
        assert math.isclose(report.ratios[0], expected, rel_tol=1e-12)

    def test_single_gap_is_empty(self):
        layout = design_layout(ChainSpec(Protocol.PROTOCOL_2, 2), DEV)
        report = parasitic_check(layout, DEV)
        assert report.ratios.size == 0
        assert report.max_ratio == 0.0
