import numpy as np
import pytest

from triqent import (
    DensityMatrix,
    MixedStateUnsupportedError,
    PureState,
    WrongDimensionError,
    additive_measure,
    apply_local_unitary,
    concurrence_2q,
    eta3_multiplicative,
    from_gsd_coefficients,
    ghz,
    measure_set,
    negativity,
    partial_trace,
    q_multiplicative,
    rho_epsilon,
    sample_haar_pure,
    three_tangle,
    to_density,
    tripartite_negativity,
    von_neumann_entropy,
    w_prime,
    w_state,
)
from helpers import random_biseparable, random_product_state, random_unitary

W_NEG = 2.0 * np.sqrt(2.0) / 3.0


def cayley_hyperdeterminant(a):
    """Cayley's hyperdeterminant of a 2x2x2 tensor; the 3-tangle is 4|Det| (CKW 2000)."""
    return (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
        - 2 * (
            a[0, 0, 0] * a[1, 1, 1] * a[0, 0, 1] * a[1, 1, 0]
            + a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 0] * a[1, 0, 1]
            + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 0] * a[0, 1, 1]
            + a[0, 0, 1] * a[1, 1, 0] * a[0, 1, 0] * a[1, 0, 1]
            + a[0, 0, 1] * a[1, 1, 0] * a[1, 0, 0] * a[0, 1, 1]
            + a[0, 1, 0] * a[1, 0, 1] * a[1, 0, 0] * a[0, 1, 1]
        )
        + 4 * (
            a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
            + a[1, 1, 1] * a[1, 0, 0] * a[0, 1, 0] * a[0, 0, 1]
        )
    )


def one_qubit_reductions(psi):
    """rho_A, rho_B, rho_C contracted directly from the amplitude tensor."""
    t = psi.tensor
    return [
        np.einsum("ijk,ljk->il", t, t.conj()),
        np.einsum("ijk,ilk->jl", t, t.conj()),
        np.einsum("ijk,ijl->kl", t, t.conj()),
    ]


def binary_entropy(w):
    p = w[w > 1e-14]
    return float(-(p * np.log2(p)).sum())


def bell_pair_state():
    """|0>_A x (|00> + |11>)/sqrt(2) on BC."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return PureState(v)


class TestNegativity:
    def test_product_state_zero(self):
        rho = to_density(random_product_state(np.random.default_rng(1)))
        assert negativity(rho, "A") == 0.0

    def test_rho_epsilon_reduction(self):
        red = partial_trace(rho_epsilon(0.5), "A")
        assert negativity(red, "B") == pytest.approx(0.5, abs=1e-12)

    def test_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()), ("B", "C"))
        assert negativity(rho, "B") == pytest.approx(1.0, abs=1e-12)


class TestTripartiteNegativity:
    def test_ghz(self):
        assert tripartite_negativity(to_density(ghz())) == pytest.approx(1.0, abs=1e-9)

    def test_w(self):
        n = tripartite_negativity(to_density(w_prime()))
        assert n == pytest.approx(W_NEG, abs=1e-9)
        assert n == pytest.approx(0.94, abs=0.005)

    def test_basis_state(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert tripartite_negativity(to_density(PureState(v))) == 0.0

    def test_needs_three_qubits(self):
        with pytest.raises(WrongDimensionError):
            tripartite_negativity(partial_trace(to_density(ghz()), "A"))


class TestConcurrence:
    def test_diagonal_mixture_zero(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), ("A", "B"))
        assert concurrence_2q(rho) == 0.0

    def test_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()), ("A", "B"))
        assert concurrence_2q(rho) == pytest.approx(1.0, abs=1e-12)

    def test_star_state_reduction(self):
        # alpha = beta = epsilon = omega = 1/2 gives C(rho_BC) = 2|beta*omega| = 1/2
        psi = from_gsd_coefficients(0.5, 0.5, 0.0, 0.5, 0.5)
        red = partial_trace(to_density(psi), "A")
        assert concurrence_2q(red) == pytest.approx(0.5, abs=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimensionError):
            concurrence_2q(to_density(ghz()))


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(to_density(sample_haar_pure(2))) == 0.0

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.eye(2) / 2, ("A",))
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_third_two_thirds(self):
        rho = DensityMatrix(np.diag([1 / 3, 2 / 3]).astype(complex), ("A",))
        assert von_neumann_entropy(rho) == pytest.approx(0.9182958340544896, abs=1e-12)


class TestPureOnlyMeasures:
    def test_q_ghz(self):
        assert q_multiplicative(ghz()) == pytest.approx(1.0, abs=1e-9)

    def test_q_w(self):
        assert q_multiplicative(w_prime()) == pytest.approx(8.0 / 9.0, abs=1e-9)

    def test_q_product(self):
        assert q_multiplicative(random_product_state(np.random.default_rng(3))) == 0.0

    def test_eta_ghz(self):
        assert eta3_multiplicative(ghz()) == pytest.approx(1.0, abs=1e-9)

    def test_eta_w(self):
        eta = eta3_multiplicative(w_prime())
        assert eta == pytest.approx(0.9182958340544896, abs=1e-9)
        assert eta == pytest.approx(0.92, abs=0.005)

    def test_eta_biseparable_zero(self):
        assert eta3_multiplicative(bell_pair_state()) == 0.0

    def test_tangle_ghz(self):
        assert three_tangle(ghz()) == pytest.approx(1.0, abs=1e-9)

    def test_tangle_w_zero(self):
        assert three_tangle(w_prime()) < 1e-9

    def test_tangle_product(self):
        assert three_tangle(random_product_state(np.random.default_rng(4))) == 0.0

    def test_refuse_mixed(self):
        rho = rho_epsilon(0.3)
        for fn in (q_multiplicative, eta3_multiplicative, three_tangle):
            with pytest.raises(MixedStateUnsupportedError):
                fn(rho)
        with pytest.raises(MixedStateUnsupportedError):
            additive_measure(rho, "tangle")


class TestAdditiveMeasure:
    def test_ghz_any_base(self):
        for base in ("negativity", "tangle", "entropy"):
            assert additive_measure(ghz(), base) == pytest.approx(1.0, abs=1e-9)

    def test_biseparable_nonzero(self):
        # one cut is pure (term 0), the other two carry tangle 1 each
        val = additive_measure(bell_pair_state(), "tangle")
        assert val == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert val > 0.0

    def test_product_zero(self):
        psi = random_product_state(np.random.default_rng(5))
        for base in ("negativity", "tangle", "entropy"):
            assert additive_measure(psi, base) == 0.0

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            additive_measure(ghz(), "purity")


class TestMeasureSet:
    def test_geometric_mean_consistency(self):
        for seed in range(25):
            ms = measure_set(sample_haar_pure(seed))
            expected = (ms.n_a_bc * ms.n_b_ac * ms.n_c_ab) ** (1 / 3)
            assert ms.n_abc == pytest.approx(expected, abs=1e-12)
            for name, value in ms.as_dict().items():
                assert value >= 0.0, name

    def test_w_values(self):
        ms = measure_set(w_state())
        r = (np.sqrt(5) - 1) / 3
        for v in (ms.n_red_bc, ms.n_red_ac, ms.n_red_ab):
            assert v == pytest.approx(r, abs=1e-9)
        assert ms.q_mult == pytest.approx(8 / 9, abs=1e-9)

    def test_mixed_has_no_pure_only_entries(self):
        ms = measure_set(rho_epsilon(0.2))
        assert ms.q_mult is None and ms.eta_mult is None and ms.three_tangle is None

    def test_matches_standalone_ops(self):
        # independent closed forms from the amplitude tensor, not from measure_set
        for seed in range(200):
            psi = sample_haar_pure(seed)
            ms = measure_set(psi)
            singles = one_qubit_reductions(psi)
            entropies = [binary_entropy(np.linalg.eigvalsh(r)) for r in singles]
            dets = [2.0 * np.sqrt(max(0.0, np.linalg.det(r).real)) for r in singles]
            assert abs(ms.three_tangle - 4.0 * abs(cayley_hyperdeterminant(psi.tensor))) < 1e-12
            assert abs(ms.eta_mult - np.prod(entropies) ** (1 / 3)) < 1e-12
            assert abs(ms.n_abc - np.prod(dets) ** (1 / 3)) < 1e-12


class TestPureStateProperties:
    def test_lu_invariance(self):
        rng = np.random.default_rng(30)
        for seed in range(30):
            psi = sample_haar_pure(seed)
            rotated = apply_local_unitary(
                psi, random_unitary(rng), random_unitary(rng), random_unitary(rng)
            )
            a, b = measure_set(psi).as_dict(), measure_set(rotated).as_dict()
            for name in a:
                assert abs(a[name] - b[name]) < 1e-8, name

    def test_negativity_equals_concurrence_and_determinant(self):
        for seed in range(50):
            psi = sample_haar_pure(seed)
            rho = to_density(psi)
            for q, pair in (("A", ("B", "C")), ("B", ("A", "C")), ("C", ("A", "B"))):
                single = partial_trace(partial_trace(rho, pair[0]), pair[1])
                det = np.linalg.det(single.matrix).real
                expected = 2.0 * np.sqrt(max(0.0, det))
                assert negativity(rho, q) == pytest.approx(expected, abs=1e-9)

    def test_monogamy(self):
        for seed in range(50):
            psi = sample_haar_pure(seed)
            rho = to_density(psi)
            c_ab = concurrence_2q(partial_trace(rho, "C"))
            c_ac = concurrence_2q(partial_trace(rho, "B"))
            assert c_ab**2 + c_ac**2 <= negativity(rho, "A") ** 2 + 1e-9

    def test_geometric_means_vanish_on_biseparable(self):
        rng = np.random.default_rng(31)
        for q in ("A", "B", "C"):
            for _ in range(10):
                psi = random_biseparable(rng, q)
                ms = measure_set(psi)
                assert ms.n_abc < 1e-9
                assert ms.q_mult < 1e-9
                assert ms.eta_mult < 1e-9
