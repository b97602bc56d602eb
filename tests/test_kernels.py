import numpy as np

from bentchain import BendSpec, ChainSpec, Protocol, evolve
from bentchain.chain import build_hamiltonian
from bentchain.kernels import end_probability, end_probability_curve
from bentchain.propagate import _end_coef


class TestKernelConsistency:
    """The end-probability kernel must reproduce the |A_N|^2 column
    of the full amplitude trace, which propagates every site amplitude."""

    def test_scalar_agreement(self):
        ham = build_hamiltonian(ChainSpec(Protocol.PROTOCOL_2, 17))
        coef = _end_coef(ham)
        trace = evolve(ham, t_end=3.0, n_steps=113)
        for t, amp in zip(trace.times[::2], trace.amplitudes[::2, -1]):
            p = end_probability(ham.eigenvalues, coef, float(t))
            assert abs(p - abs(amp) ** 2) < 1e-13

    def test_curve_agreement(self):
        ham = build_hamiltonian(
            ChainSpec(Protocol.PROTOCOL_1, 12, boundary_ratio=0.7),
            BendSpec(alpha=5, kappa=0.6, delta_alpha=-1.3),
        )
        coef = _end_coef(ham)
        trace = evolve(ham, t_end=15.0, n_steps=2048)
        p = end_probability_curve(ham.eigenvalues, coef, trace.times)
        np.testing.assert_allclose(p, np.abs(trace.amplitudes[:, -1]) ** 2, atol=1e-13)

    def test_probability_bounds(self):
        ham = build_hamiltonian(ChainSpec(Protocol.PROTOCOL_2, 9))
        coef = _end_coef(ham)
        times = np.linspace(0.0, 10.0, 4096)
        p = end_probability_curve(ham.eigenvalues, coef, times)
        assert np.all(p >= -1e-14)
        assert np.all(p <= 1 + 1e-12)
