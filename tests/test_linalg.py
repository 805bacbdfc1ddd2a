import numpy as np
import pytest

from triqent import NonFiniteError, svd_2x2
from helpers import random_unitary


NON_FINITE = {"nan": np.nan, "inf": np.inf, "nanj": complex(0.0, np.nan)}


class TestSvd2x2:
    def test_identity(self):
        _, s, _ = svd_2x2(np.eye(2))
        np.testing.assert_allclose(s, [1.0, 1.0])

    def test_rank_one(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        u, s, v = svd_2x2(m)
        np.testing.assert_allclose(s, [1.0, 0.0])
        np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, m, atol=1e-14)

    def test_hand_case(self):
        # eigenvalues of m^dagger m are {4, 1}
        m = np.array([[0.0, 2.0], [1.0, 0.0]])
        _, s, _ = svd_2x2(m)
        np.testing.assert_allclose(s, [2.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        u, s, v = svd_2x2(np.zeros((2, 2)))
        np.testing.assert_allclose(s, [0.0, 0.0])
        np.testing.assert_allclose(u, np.eye(2))
        np.testing.assert_allclose(v, np.eye(2))

    def test_random_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, s, v = svd_2x2(m)
            assert s[0] >= s[1] >= 0.0
            np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, m, atol=1e-12)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_singular_values_unitarily_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            s0 = svd_2x2(m)[1]
            s1 = svd_2x2(random_unitary(rng) @ m @ random_unitary(rng))[1]
            np.testing.assert_allclose(s0, s1, atol=1e-12)


class TestSvd2x2IllConditioned:
    @pytest.mark.parametrize("exponent", [4, 6, 8, 10, 12, 14])
    def test_small_singular_value_matches_lapack(self, exponent):
        # pins svd_2x2 to LAPACK's own rounding, not to the exact s2 of the
        # rounded m: the closed form |det m| / s1 is nearer that exact value
        # (2.9e-3 relative against LAPACK's 1.6e-2 at exponent 14), yet it
        # misses this bound from exponent 4 on
        rng = np.random.default_rng(exponent)
        for _ in range(50):
            m = random_unitary(rng) @ np.diag([1.0, 10.0**-exponent]) @ random_unitary(rng)
            s = svd_2x2(m)[1]
            ref = np.linalg.svd(m, compute_uv=False)
            assert abs(s[1] - ref[1]) <= 1e-12 * ref[1]
            assert abs(s[0] - ref[0]) <= 1e-12 * ref[0]

    def test_contract_on_ill_conditioned_input(self):
        rng = np.random.default_rng(7)
        for exponent in range(4, 15):
            m = random_unitary(rng) @ np.diag([2.0, 10.0**-exponent]) @ random_unitary(rng)
            u, s, v = svd_2x2(m)
            np.testing.assert_allclose(u @ np.diag(s) @ v.conj().T, m, atol=1e-14)
            np.testing.assert_allclose(m @ v, u * s, atol=1e-14)
            top = v[np.argmax(np.abs(v), axis=0), [0, 1]]
            assert np.all(np.abs(top.imag) <= 1e-15) and np.all(top.real > 0.0)

    @pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_rejected(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(NonFiniteError):
            svd_2x2(m)

