import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from triqent import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    eig_hermitian,
    ghz,
    partial_transpose,
    sigma_b,
    sqrt_psd,
    svd_2x2,
    to_density,
)
from helpers import random_unitary


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestEigHermitian:
    def test_identity(self):
        eig = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(eig.values, [1.0, 1.0])

    def test_already_diagonal(self):
        eig = eig_hermitian(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(eig.values, [3.0, -1.0])
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 = 0
        eig = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.values, [1.0, -1.0], atol=1e-14)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            eig_hermitian(np.zeros((2, 3)))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        a = np.eye(4, dtype=complex)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(NonFiniteError):
            eig_hermitian(a)

    @pytest.mark.parametrize(
        "a",
        [to_density(ghz()).matrix, np.eye(4) + np.outer([1, 2, 0, 1], [1, 2, 0, 1])],
        ids=["ghz_projector", "eye_plus_rank1"],
    )
    def test_tie_order_deterministic(self, a):
        first, second = eig_hermitian(a), eig_hermitian(a)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)
        assert np.all(np.diff(first.values) <= 0.0)

    def test_sigma_b_pivot_underflow(self):
        # b = 2/102 is a point of the 101-point sweep grid; rotating this
        # partial transpose leaves a subnormal pivot, which an iterative
        # rotation solver turns into an overflow
        a = partial_transpose(sigma_b(2 / 102), "A")
        w, v = eig_hermitian(a)
        assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-12

    def test_descending_order_and_unitary_basis(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 8):
            a = random_hermitian(rng, n)
            w, v = eig_hermitian(a)
            assert np.all(np.diff(w) <= 1e-12)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_trace_and_reconstruction_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            a = random_hermitian(rng, n)
            w, v = eig_hermitian(a)
            scale = np.abs(a).max()
            assert abs(w.sum() - np.trace(a).real) <= 1e-10 * max(1.0, scale)
            rec = (v * w) @ v.conj().T
            assert np.abs(rec - a).max() <= 1e-10 * scale

    def test_matches_lapack(self):
        rng = np.random.default_rng(17)
        for n in (2, 4, 8):
            for _ in range(50):
                a = random_hermitian(rng, n)
                w, _ = eig_hermitian(a)
                np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a), atol=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
        arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
    )
    def test_reconstruction_hypothesis(self, re, im):
        a = re + 1j * im
        a = (a + a.conj().T) / 2
        w, v = eig_hermitian(a)
        scale = max(1.0, np.abs(a).max())
        assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-10 * scale


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


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_projector_idempotent(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(sqrt_psd(p), p, atol=1e-12)

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -1.0]))

    def test_square_matches_input(self):
        rng = np.random.default_rng(8)
        for n in (2, 4, 8):
            for _ in range(67):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                a = g @ g.conj().T
                r = sqrt_psd(a)
                np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
                assert np.abs(r @ r - a).max() <= 1e-9 * np.abs(a).max()
