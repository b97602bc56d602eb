import json
import math

import numpy as np
import pytest

from bentchain import (
    BendSpec,
    ChainSpec,
    Protocol,
    build_couplings,
    build_hamiltonian,
    omega_max,
)
from bentchain.chain import spec_to_dict


def p2(n, omega0=1.0):
    return ChainSpec(Protocol.PROTOCOL_2, n, omega0=omega0)


def p1(n, ratio, omega0=1.0):
    return ChainSpec(Protocol.PROTOCOL_1, n, omega0=omega0, boundary_ratio=ratio)


class TestSpecValidation:
    def test_rejects_tiny_chain(self):
        with pytest.raises(ValueError):
            ChainSpec(Protocol.PROTOCOL_2, 1)

    def test_protocol1_requires_ratio(self):
        with pytest.raises(ValueError, match="boundary_ratio"):
            ChainSpec(Protocol.PROTOCOL_1, 6)

    def test_protocol2_rejects_ratio(self):
        with pytest.raises(ValueError):
            ChainSpec(Protocol.PROTOCOL_2, 6, boundary_ratio=0.5)

    def test_bend_alpha_range(self):
        with pytest.raises(ValueError):
            BendSpec(alpha=1, kappa=0.5)
        with pytest.raises(ValueError):
            build_hamiltonian(p2(5), BendSpec(alpha=5, kappa=0.5))

    @pytest.mark.parametrize("alpha", [2.5, 3.0, True, "3", None])
    def test_bend_alpha_must_be_integer(self, alpha):
        # 2.5 used to pass here and fail later in hamiltonian_matrix with
        # an IndexError
        with pytest.raises(ValueError, match="alpha must be an integer"):
            BendSpec(alpha=alpha, kappa=0.5)
        assert BendSpec(alpha=np.int64(3), kappa=0.5).alpha == 3

    def test_kappa_range(self):
        with pytest.raises(ValueError):
            BendSpec(alpha=3, kappa=-0.1)
        with pytest.raises(ValueError):
            BendSpec(alpha=3, kappa=1.5)


class TestCouplings:
    def test_protocol2_n3(self):
        np.testing.assert_allclose(
            build_couplings(p2(3)), [math.sqrt(2), math.sqrt(2)]
        )

    def test_protocol2_n9_max(self):
        c = build_couplings(p2(9))
        # oracle: enumerate sqrt((N-j) j) over j = 1..8
        expected = [math.sqrt((9 - j) * j) for j in range(1, 9)]
        np.testing.assert_allclose(c, expected)
        assert math.isclose(c.max(), math.sqrt(20))
        assert list(np.flatnonzero(c == c.max())) == [3, 4]

    def test_protocol1_n6(self):
        np.testing.assert_allclose(
            build_couplings(p1(6, 0.5)), [0.5, 1, 1, 1, 0.5]
        )

    @pytest.mark.parametrize("n", [3, 8, 13, 24])
    @pytest.mark.parametrize("make", [lambda n: p2(n), lambda n: p1(n, 0.7)])
    def test_centrosymmetric(self, n, make):
        c = build_couplings(make(n))
        np.testing.assert_allclose(c, c[::-1], atol=1e-15)

    def test_omega0_scaling(self):
        np.testing.assert_allclose(
            build_couplings(p2(7, omega0=2.5)), 2.5 * build_couplings(p2(7))
        )


class TestOmegaMax:
    def test_protocol2_n9(self):
        assert math.isclose(omega_max(p2(9)), math.sqrt(20))

    def test_protocol2_formula(self):
        for n in range(2, 26):
            expected = math.sqrt((n // 2) * ((n + 1) // 2))
            assert math.isclose(omega_max(p2(n)), expected)

    def test_protocol1_interior_dominates(self):
        assert omega_max(p1(10, 0.3)) == 1.0

    def test_protocol2_n2(self):
        assert math.isclose(omega_max(p2(2)), 1.0)


class TestHamiltonian:
    def test_n3_assembly(self):
        h = build_hamiltonian(p2(3))
        s2 = math.sqrt(2)
        np.testing.assert_allclose(h.matrix, [[0, s2, 0], [s2, 0, s2], [0, s2, 0]])

    def test_zero_bend_matches_unbent(self):
        spec = p2(7)
        plain = build_hamiltonian(spec)
        bent = build_hamiltonian(spec, BendSpec(alpha=4, kappa=0.0))
        np.testing.assert_array_equal(plain.matrix, bent.matrix)

    def test_bend_entry(self):
        h = build_hamiltonian(p2(5), BendSpec(alpha=3, kappa=0.5))
        # Omega_max = sqrt(6) by enumeration; g = 0.5 sqrt(6)
        assert math.isclose(h.matrix[1, 3], 0.5 * math.sqrt(6))
        assert math.isclose(h.matrix[3, 1], 0.5 * math.sqrt(6))

    def test_detuning_entry(self):
        h = build_hamiltonian(p2(5), BendSpec(alpha=3, kappa=0.2, delta_alpha=-0.7))
        assert math.isclose(h.matrix[2, 2], -0.7)

    def test_symmetry_exact(self):
        h = build_hamiltonian(p2(12), BendSpec(alpha=5, kappa=0.8, delta_alpha=-2))
        np.testing.assert_array_equal(h.matrix, h.matrix.T)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_eigen_residual(self, n):
        h = build_hamiltonian(p2(n), BendSpec(alpha=2, kappa=0.9))
        hnorm = np.abs(h.matrix).sum(axis=1).max()
        assert h.eigen_residual() <= 1e-10 * hnorm

    def test_eigenvector_orthonormality(self):
        h = build_hamiltonian(p2(20), BendSpec(alpha=10, kappa=0.6))
        gram = h.eigenvectors.T @ h.eigenvectors
        assert np.abs(gram - np.eye(20)).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 17, 30])
    def test_protocol2_uniform_spectrum(self, n):
        # eigenvalues are omega0 (2k - N + 1), k = 0..N-1
        h = build_hamiltonian(p2(n))
        expected = np.arange(-(n - 1), n, 2, dtype=float)
        np.testing.assert_allclose(h.eigenvalues, expected, rtol=1e-9, atol=1e-9)

    def test_offdiagonal_count(self):
        n = 11
        unbent = build_hamiltonian(p2(n)).matrix
        bent = build_hamiltonian(p2(n), BendSpec(alpha=6, kappa=0.4)).matrix
        off = ~np.eye(n, dtype=bool)
        assert np.count_nonzero(unbent[off]) == 2 * (n - 1)
        assert np.count_nonzero(bent[off]) == 2 * n


class TestConfigRoundtrip:
    def test_keys(self):
        d = spec_to_dict(p2(5), BendSpec(alpha=3, kappa=0.5))
        assert set(d) == {
            "protocol", "n_sites", "omega0", "alpha", "kappa", "delta_alpha",
        }
        assert json.loads(json.dumps(d)) == d
