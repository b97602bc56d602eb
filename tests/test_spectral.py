import math

import numpy as np
import pytest

from bentchain import (
    BendSpec,
    ChainSpec,
    Protocol,
    optimize_detuning,
    overlap_profile,
    reference,
    spectrum_report,
)
from bentchain.chain import build_hamiltonian


class TestOverlapProfile:
    def test_sums_to_one(self):
        for n in (2, 9, 25):
            ham = build_hamiltonian(ChainSpec(Protocol.PROTOCOL_2, n))
            assert abs(overlap_profile(ham).sum() - 1.0) < 1e-10

    def test_two_site_half_half(self):
        ham = build_hamiltonian(ChainSpec(Protocol.PROTOCOL_2, 2))
        np.testing.assert_allclose(overlap_profile(ham), [0.5, 0.5], atol=1e-12)

    def test_protocol1_peaks_centrally(self):
        # weak boundaries concentrate the initial site on mid-band levels
        ham = build_hamiltonian(
            ChainSpec(Protocol.PROTOCOL_1, 13, boundary_ratio=0.7)
        )
        prof = overlap_profile(ham)
        n = prof.size
        assert prof[n // 2 - 1 : n // 2 + 2].sum() > prof[:3].sum()


class TestSpectrumReport:
    def test_uniform_gaps_protocol2(self):
        spec = ChainSpec(Protocol.PROTOCOL_2, 25)
        rep = spectrum_report(spec, BendSpec(alpha=12, kappa=0.3), 0.0)
        np.testing.assert_allclose(
            rep.gaps["unperturbed"], np.full(24, 2.0), atol=1e-9
        )
        assert rep.gap_distortion["unperturbed"] == 0.0

    def test_bend_distorts(self):
        spec = ChainSpec(Protocol.PROTOCOL_2, 25)
        rep = spectrum_report(spec, BendSpec(alpha=12, kappa=0.3), 0.0)
        assert rep.gap_distortion["bent"] > 0
        assert rep.gap_distortion_weighted["bent"] > 0

    def test_optimized_detuning_restores_spectrum(self):
        spec = ChainSpec(Protocol.PROTOCOL_2, 25)
        ref = reference(spec)
        bend = BendSpec(alpha=12, kappa=0.3)
        opt = optimize_detuning(spec, bend, ref)
        rep = spectrum_report(spec, bend, opt.delta_energy)
        assert (
            rep.gap_distortion["bent_optimized"] < rep.gap_distortion["bent"]
        )
        assert (
            rep.gap_distortion_weighted["bent_optimized"]
            < rep.gap_distortion_weighted["bent"]
        )

    def test_kappa_zero_limit(self):
        spec = ChainSpec(Protocol.PROTOCOL_2, 11)
        rep = spectrum_report(spec, BendSpec(alpha=6, kappa=0.0), 0.0)
        assert rep.gap_distortion["bent"] < 1e-12
        np.testing.assert_allclose(
            rep.eigenvalues["bent"], rep.eigenvalues["unperturbed"], atol=1e-12
        )

    def test_distortion_grows_with_kappa(self):
        spec = ChainSpec(Protocol.PROTOCOL_2, 15)
        d = [
            spectrum_report(
                spec, BendSpec(alpha=8, kappa=k), 0.0
            ).gap_distortion["bent"]
            for k in (0.1, 0.4, 0.8)
        ]
        assert d[0] < d[1] < d[2]
