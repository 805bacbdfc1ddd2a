import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triqent.states
from triqent import (
    DensityMatrix,
    NonFiniteError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    PureState,
    QubitNotPresentError,
    apply_local_unitary,
    classify_mixed,
    classify_pure,
    eig_hermitian,
    ghz,
    measure_set,
    partial_trace,
    partial_transpose,
    rho_zero,
    sample_haar_pure,
    sample_hs_mixed,
    to_density,
    transpose_qubit,
    tripartite_negativity,
)
from helpers import random_biseparable, random_product_state, random_unitary


def basis_state(i, j, k):
    v = np.zeros(8, dtype=complex)
    v[4 * i + 2 * j + k] = 1.0
    return PureState(v)


class TestValidation:
    def test_norm_enforced(self):
        with pytest.raises(NotNormalizedError, match="norm is 0"):
            PureState(np.zeros(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pure_rejects_non_finite(self, bad):
        amps = np.full(8, 1 / np.sqrt(8), dtype=complex)
        amps[3] = bad
        with pytest.raises(NonFiniteError):
            PureState(amps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(NonFiniteError):
            DensityMatrix(m, ("B", "C"))

    def test_density_requires_psd(self):
        m = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(NotPSDError):
            DensityMatrix(m)

    def test_density_clamps_tiny_negative(self):
        rng = np.random.default_rng(0)
        u = random_unitary(rng, 4)
        w = np.array([0.5 + 2.5e-11, 0.5 + 2.5e-11, -5e-11, 0.0])
        rho = DensityMatrix((u * w) @ u.conj().T, ("B", "C"))
        assert eig_hermitian(rho.matrix).values[-1] >= -1e-15
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12

    def test_layout_checked(self):
        with pytest.raises(QubitNotPresentError):
            DensityMatrix(np.eye(4) / 4, ("A", "A"))


class TestToDensity:
    def test_basis_projector(self):
        rho = to_density(basis_state(0, 0, 0))
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected)

    def test_ghz_projector_entries(self):
        rho = to_density(ghz())
        for i, j in [(0, 0), (0, 7), (7, 0), (7, 7)]:
            assert abs(rho.matrix[i, j] - 0.5) < 1e-14
        assert np.abs(rho.matrix).sum() == pytest.approx(2.0, abs=1e-12)

    def test_projector_property(self):
        psi = sample_haar_pure(11)
        rho = to_density(psi)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-10)


class TestPartialTrace:
    def test_product_state(self):
        sigma = sample_hs_mixed(4, ("B", "C"))
        m = np.kron(np.diag([1.0, 0.0]), sigma.matrix)
        reduced = partial_trace(DensityMatrix(m), "A")
        np.testing.assert_allclose(reduced.matrix, sigma.matrix, atol=1e-12)
        assert reduced.qubits == ("B", "C")

    def test_ghz_reduction(self):
        reduced = partial_trace(to_density(ghz()), "A")
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)

    def test_bell_mixture_reduction(self):
        # the BC reduction of the eps=0 Bell mixture is diagonal, hence separable
        reduced = partial_trace(rho_zero(), "A")
        np.testing.assert_allclose(reduced.matrix, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-14)

    def test_missing_qubit(self):
        with pytest.raises(QubitNotPresentError):
            partial_trace(sample_hs_mixed(1, ("B", "C")), "A")

    def test_preserves_trace_and_psd(self):
        for seed in range(500):
            rho = sample_hs_mixed(seed)
            red = partial_trace(rho, "B")
            assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert eig_hermitian(red.matrix).values[-1] >= -1e-12

    def test_trace_order_commutes(self):
        for seed in range(20):
            rho = sample_hs_mixed(seed)
            ab = partial_trace(partial_trace(rho, "A"), "B")
            ba = partial_trace(partial_trace(rho, "B"), "A")
            assert np.abs(ab.matrix - ba.matrix).max() < 1e-12

    def test_schmidt_symmetry(self):
        # for pure states the A and BC reductions share a spectrum
        for seed in range(30):
            rho = to_density(sample_haar_pure(seed))
            w_bc = eig_hermitian(partial_trace(rho, "A").matrix).values
            single = partial_trace(partial_trace(rho, "B"), "C")
            w_a = eig_hermitian(single.matrix).values
            padded = np.concatenate([w_a, np.zeros(2)])
            np.testing.assert_allclose(np.sort(w_bc), np.sort(padded), atol=1e-10)


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho_a = sample_hs_mixed(2, ("A",))
        sigma = sample_hs_mixed(3, ("B", "C"))
        rho = DensityMatrix(np.kron(rho_a.matrix, sigma.matrix))
        pt = partial_transpose(rho, "A")
        w = eig_hermitian(pt).values
        np.testing.assert_allclose(
            np.sort(w), np.sort(eig_hermitian(rho.matrix).values), atol=1e-10
        )
        assert w[-1] >= -1e-12

    def test_bell_spectrum(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()), ("B", "C"))
        w = np.sort(eig_hermitian(partial_transpose(rho, "B")).values)
        np.testing.assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_bit_exact(self):
        rho = sample_hs_mixed(7)
        once = transpose_qubit(rho.matrix, rho.qubits, "B")
        twice = transpose_qubit(once, rho.qubits, "B")
        assert np.array_equal(twice, rho.matrix)

    def test_preserves_trace_and_hermiticity(self):
        for seed in range(50):
            rho = sample_hs_mixed(seed)
            pt = partial_transpose(rho, "C")
            assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)
            assert np.abs(pt - pt.conj().T).max() < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["A", "B", "C"]))
    def test_involution_hypothesis(self, seed, side):
        rho = sample_hs_mixed(seed)
        once = transpose_qubit(rho.matrix, rho.qubits, side)
        assert np.array_equal(transpose_qubit(once, rho.qubits, side), rho.matrix)


class TestLocalUnitary:
    def test_identity_factors(self):
        psi = sample_haar_pure(5)
        out = apply_local_unitary(psi, np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_bit_flip(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = apply_local_unitary(basis_state(0, 0, 0), x, x, x)
        np.testing.assert_allclose(out.amplitudes, basis_state(1, 1, 1).amplitudes)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            apply_local_unitary(ghz(), np.eye(2) * 2, np.eye(2), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_unitary(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(NonFiniteError, match="u_b"):
            apply_local_unitary(ghz(), np.eye(2), u, np.eye(2))

    def test_ghz_tripartite_negativity_invariant(self):
        rng = np.random.default_rng(21)
        out = apply_local_unitary(
            ghz(), random_unitary(rng), random_unitary(rng), random_unitary(rng)
        )
        assert tripartite_negativity(to_density(out)) == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_haar_deterministic(self):
        a = sample_haar_pure(123)
        b = sample_haar_pure(123)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_haar_normalized(self):
        for seed in range(20):
            amps = sample_haar_pure(seed).amplitudes
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_haar_mean_single_qubit_purity(self):
        # frozen from a 10^6-sample Monte-Carlo run (0.66684 +/- 0.0001),
        # matching the (dA + dB) / (dA dB + 1) moment formula: 2/3
        total = 0.0
        n = 10_000
        for seed in range(n):
            t = sample_haar_pure(seed).amplitudes.reshape(2, 4)
            rho_a = t @ t.conj().T
            total += np.trace(rho_a @ rho_a).real
        assert abs(total / n - 2.0 / 3.0) < 0.01

    def test_hs_mixed_valid(self):
        rho = sample_hs_mixed(9)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert eig_hermitian(rho.matrix).values[-1] >= -1e-12


def derived_reductions(rho):
    """Every reduction the package derives from a three-qubit state."""
    for q in rho.qubits:
        pair = partial_trace(rho, q)
        yield pair
        for r in pair.qubits:
            yield partial_trace(pair, r)


class TestValidateOnce:
    def test_derived_states_skip_validation(self, monkeypatch):
        psi = sample_haar_pure(3)
        mixed = sample_hs_mixed(4)

        def fail(*args, **kwargs):
            raise AssertionError("validation eigensolve called")

        monkeypatch.setattr(triqent.states, "eig_hermitian", fail)
        for q in ("A", "B", "C"):
            partial_trace(to_density(psi), q)
        measure_set(psi)
        measure_set(mixed)
        classify_pure(psi)
        classify_mixed(mixed)
        with pytest.raises(AssertionError, match="validation eigensolve"):
            DensityMatrix(np.eye(8) / 8)

    def test_skipped_validation_would_pass(self):
        rng = np.random.default_rng(17)
        states = [to_density(sample_haar_pure(seed)) for seed in range(200)]
        states += [sample_hs_mixed(seed) for seed in range(50)]
        for q in ("A", "B", "C"):
            states += [to_density(random_biseparable(rng, q)) for _ in range(20)]
        states += [to_density(random_product_state(rng)) for _ in range(20)]
        for rho in states:
            for derived in [rho, *derived_reductions(rho)]:
                assert not derived.matrix.flags.writeable
                validated = DensityMatrix(derived.matrix, derived.qubits)
                assert np.abs(validated.matrix - derived.matrix).max() < 1e-12
