import numpy as np
import pytest

from triqent import (
    AmbiguousNearThresholdError,
    MixedStateUnsupportedError,
    PureState,
    apply_local_unitary,
    classify_gsd_pattern,
    from_gsd_coefficients,
    ghz,
    ghz_like,
    gsd,
    measure_set,
    rho_zero,
    sample_haar_pure,
    w_prime,
)
from helpers import nonzero_coefficients, random_biseparable, random_product_state

CANONICAL_INDICES = (0, 4, 6, 5, 7)  # alpha, beta, delta, epsilon, omega
ZERO_INDICES = (1, 2, 3)


def assert_canonical_zeros(form, psi):
    rotated = apply_local_unitary(psi, form.u_a, form.u_b, form.u_c)
    assert np.abs(rotated.amplitudes[list(ZERO_INDICES)]).max() < 1e-10


class TestGsdExamples:
    def test_basis_state(self):
        form = gsd(PureState(np.eye(8)[0]))
        assert abs(form.alpha - 1.0) < 1e-12
        assert np.abs(form.coefficients[1:]).max() < 1e-12

    def test_uniform_superposition_is_product(self):
        # (|+>)^x3 factorizes, so a single coefficient must survive
        form = gsd(PureState(np.full(8, 1 / np.sqrt(8))))
        assert abs(form.alpha) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(form.coefficients[1:]).max() < 1e-10

    def test_symmetric_w_pattern(self):
        form = gsd(w_prime())
        mags = np.abs(form.coefficients)
        # nonzero pattern is exactly {alpha, delta, epsilon}
        assert mags[0] > 0.5 and mags[2] > 0.5 and mags[3] > 0.5
        assert mags[1] < 1e-10 and mags[4] < 1e-10

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            gsd(ghz(), mode="fancy")

    def test_rejects_mixed_state(self):
        with pytest.raises(MixedStateUnsupportedError):
            gsd(rho_zero())


class TestGsdInvariants:
    def test_round_trip_and_zeros(self):
        for seed in range(60):
            psi = sample_haar_pure(seed)
            for mode in ("raw", "normal"):
                form = gsd(psi, mode=mode)
                rotated = apply_local_unitary(psi, form.u_a, form.u_b, form.u_c)
                np.testing.assert_allclose(
                    rotated.amplitudes[list(CANONICAL_INDICES)],
                    form.coefficients,
                    atol=1e-9,
                )
                assert np.abs(rotated.amplitudes[list(ZERO_INDICES)]).max() < 1e-10

    def test_structured_inputs_reduce(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            for make in (
                lambda: random_product_state(rng),
                lambda: random_biseparable(rng, "A"),
                lambda: random_biseparable(rng, "B"),
                lambda: random_biseparable(rng, "C"),
            ):
                psi = make()
                form = gsd(psi)
                assert_canonical_zeros(form, psi)

    def test_near_boundary_inputs_reduce(self):
        # perturbed factorizable states put the two polynomial roots
        # closer than the root finder alone can resolve
        rng = np.random.default_rng(10)
        for _ in range(5):
            for eps in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6):
                for q in ("A", "B", "C"):
                    base = random_biseparable(rng, q).amplitudes
                    noise = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                    z = base + eps * noise
                    psi = PureState(z / np.linalg.norm(z))
                    assert_canonical_zeros(gsd(psi), psi)

    def test_extreme_ghz_like_inputs(self):
        for a in (1e-12, 1e-8, 1e-5, 0.999999999):
            amps = np.zeros(8, dtype=complex)
            amps[0] = a
            amps[7] = np.sqrt(1 - a * a)
            psi = PureState(amps)
            assert_canonical_zeros(gsd(psi), psi)

    def test_measure_preservation(self):
        for seed in range(25):
            psi = sample_haar_pure(seed)
            form = gsd(psi)
            a = measure_set(psi).as_dict()
            b = measure_set(form.to_state()).as_dict()
            for name in a:
                assert abs(a[name] - b[name]) < 1e-9, name

    def test_idempotence(self):
        for seed in range(25):
            form = gsd(sample_haar_pure(seed))
            again = gsd(form.to_state())
            np.testing.assert_allclose(
                np.abs(again.coefficients), np.abs(form.coefficients), atol=1e-9
            )

    def test_normal_mode_phases(self):
        for seed in range(25):
            form = gsd(sample_haar_pure(seed), mode="normal")
            for name in ("alpha", "delta", "epsilon", "omega"):
                z = getattr(form, name)
                assert abs(z.imag) < 1e-9, name
                assert z.real > -1e-9, name

    def test_normalization(self):
        for seed in range(25):
            form = gsd(sample_haar_pure(seed))
            assert (np.abs(form.coefficients) ** 2).sum() == pytest.approx(1.0, abs=1e-10)

    def test_ghz_phase_preserved_in_raw_mode(self):
        for phi in (0.0, np.pi / 2, np.pi):
            amps = np.zeros(8, dtype=complex)
            amps[0] = 1 / np.sqrt(2)
            amps[7] = np.exp(1j * phi) / np.sqrt(2)
            form = gsd(PureState(amps), mode="raw")
            rel = np.angle(form.omega) - np.angle(form.alpha)
            delta = (rel - phi + np.pi) % (2 * np.pi) - np.pi
            assert abs(delta) < 1e-9


class TestPatternClassifier:
    def test_ghz_pattern(self):
        form = gsd(ghz_like(0.6))
        pat = classify_gsd_pattern(form)
        assert pat.pattern == "GHZ"
        assert pat.subtype.code == "2-0"

    def test_iv_pattern(self):
        psi = from_gsd_coefficients(0.6, 0.3, 0.0, 0.0, np.sqrt(1 - 0.36 - 0.09))
        pat = classify_gsd_pattern(gsd(psi))
        assert pat.pattern == "IV"
        assert pat.subtype.code == "2-1"
        assert pat.subtype.entangled_pairs == ("BC",)

    def test_balanced_b_form_is_fully_separable(self):
        # beta*omega = delta*epsilon makes the leftover pair a product
        psi = from_gsd_coefficients(0.0, 0.5, 0.5, 0.5, 0.5)
        pat = classify_gsd_pattern(gsd(psi))
        assert pat.pattern == "product"
        assert pat.subtype.code == "0-0"

    def test_b_form(self):
        rng = np.random.default_rng(12)
        beta, delta, epsilon, omega = nonzero_coefficients(rng, 4)
        assert abs(beta * omega - delta * epsilon) > 1e-4
        pat = classify_gsd_pattern(gsd(from_gsd_coefficients(0.0, beta, delta, epsilon, omega)))
        assert pat.pattern == "B"
        assert pat.subtype.code == "1^1-1"
        assert pat.subtype.separable_qubit == "A"

    def test_w_pattern_for_generic_states(self):
        pat = classify_gsd_pattern(gsd(sample_haar_pure(1)))
        assert pat.pattern == "W"
        assert pat.subtype.code == "2-3"

    def test_ambiguous_near_threshold(self):
        c = np.array([0.6, 3e-8, 0.5, 0.4, 0.0], dtype=complex)
        c /= np.linalg.norm(c)
        form = gsd(from_gsd_coefficients(*c))
        with pytest.raises(AmbiguousNearThresholdError):
            classify_gsd_pattern(form, zero_tol=1e-8)
