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
from bentchain.chain import build_hamiltonian, omega_max


def _spy(monkeypatch, name, calls):
    """Record the name and argument shape of every np.linalg.<name> call."""
    solver = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        calls.append((name, np.shape(a)))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)


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

    def test_distortion_of_huge_gaps(self):
        # gap differences near 2^1000 overflowed as they were squared
        bend = BendSpec(alpha=5, kappa=0.4)
        big = spectrum_report(ChainSpec(Protocol.PROTOCOL_2, 9, omega0=2.0**1000), bend,
                              -(2.0**1000))
        unit = spectrum_report(ChainSpec(Protocol.PROTOCOL_2, 9), bend, -1.0)
        for k in ("bent", "bent_optimized"):
            assert big.gap_distortion[k] / 2.0**1000 == pytest.approx(
                unit.gap_distortion[k], rel=1e-12)
            assert big.gap_distortion_weighted[k] / 2.0**1000 == pytest.approx(
                unit.gap_distortion_weighted[k], rel=1e-12)

    def test_infinite_eigenvalue_raises(self):
        # eigvalsh of the bent matrices returns -inf for a corner detuning
        # of -1.79e308; the spectrum command wrote an infinite gap with exit 0
        spec = ChainSpec(Protocol.PROTOCOL_2, 9, omega0=1e307)
        with pytest.raises(FloatingPointError, match="non-finite gap"):
            spectrum_report(spec, BendSpec(alpha=2, kappa=1.0), -1.7888543819998319e308)

    @pytest.mark.parametrize("n", [13, 60, 200])
    @pytest.mark.parametrize("spec_of", [
        lambda n: ChainSpec(Protocol.PROTOCOL_1, n, boundary_ratio=0.7),
        lambda n: ChainSpec(Protocol.PROTOCOL_2, n),
    ], ids=["p1", "p2"])
    def test_one_eigh_and_one_eigvalsh(self, spec_of, n, monkeypatch):
        # only the unperturbed chain's eigenvectors are read; the two bent
        # spectra are eigenvalues of one stacked call
        spec = spec_of(n)
        bend = BendSpec(alpha=(n + 1) // 2, kappa=0.5)
        delta = -1.5 * omega_max(spec)
        calls = []
        for name in ("eigh", "eigvalsh"):
            _spy(monkeypatch, name, calls)
        rep = spectrum_report(spec, bend, delta)
        assert calls == [("eigh", (n, n)), ("eigvalsh", (2, n, n))]
        monkeypatch.undo()
        np.testing.assert_array_equal(rep.overlaps,
                                      overlap_profile(build_hamiltonian(spec)))
        for label, d in (("bent", 0.0), ("bent_optimized", delta)):
            lam = build_hamiltonian(spec, BendSpec(bend.alpha, bend.kappa, d)).eigenvalues
            assert np.abs(rep.eigenvalues[label] - lam).max() <= 1e-13 * np.abs(lam).max()
