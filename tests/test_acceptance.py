"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); the
expensive random-state corpus is shared across the property criteria.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from triqent import (
    AmbiguousNearThresholdError,
    apply_local_unitary,
    classify_gsd_pattern,
    classify_mixed,
    classify_pure,
    concurrence_2q,
    default_grid,
    from_gsd_coefficients,
    ghz,
    gsd,
    measure_set,
    negativity,
    oracle,
    partial_trace,
    rho_epsilon,
    sample_haar_pure,
    sigma_b,
    sweep,
    to_density,
    w_prime,
    w_state,
)
from helpers import (
    bell_bc_plus,
    hidden_canonical_corpus,
    near_separable_corpus,
    nonzero_coefficients,
    random_biseparable,
    random_product_state,
    random_unitary,
    sparse_canonical_corpus,
)

N_PROPERTY_STATES = 500
LU_TOL = 1e-8
W_NEG = 2.0 * np.sqrt(2.0) / 3.0


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def haar_corpus():
    """Seeded Haar states with classification, canonical form and a rotated twin."""
    rng = np.random.default_rng(2026)
    corpus = []
    for seed in range(N_PROPERTY_STATES):
        psi = sample_haar_pure(seed)
        rotated = apply_local_unitary(
            psi, random_unitary(rng), random_unitary(rng), random_unitary(rng)
        )
        corpus.append((psi, rotated, classify_pure(psi), classify_pure(rotated)))
    return corpus


def test_criterion_1_ghz_measures():
    with criterion(1, "GHZ state has N_ABC = Q = eta3 = 1 within 1e-9"):
        ms = measure_set(ghz())
        assert abs(ms.n_abc - 1.0) < 1e-9
        assert abs(ms.q_mult - 1.0) < 1e-9
        assert abs(ms.eta_mult - 1.0) < 1e-9


def test_criterion_2_w_measures():
    with criterion(2, "W state: N_ABC ~ 0.94 (= 2 sqrt(2)/3), Q = 8/9, eta3 ~ 0.92"):
        ms = measure_set(w_state())
        assert abs(ms.n_abc - 0.94) < 0.005
        assert abs(ms.n_abc - W_NEG) < 1e-9
        assert abs(ms.q_mult - 8.0 / 9.0) < 1e-9
        assert abs(ms.eta_mult - 0.92) < 0.005


def test_criterion_3_w_reduced_negativities():
    with criterion(3, "W reduced negativities all equal (sqrt(5) - 1)/3 within 1e-9"):
        ms = measure_set(w_state())
        expected = (np.sqrt(5.0) - 1.0) / 3.0
        for value in (ms.n_red_bc, ms.n_red_ac, ms.n_red_ab):
            assert abs(value - expected) < 1e-9


def test_criterion_4_symmetric_w_tangle():
    with criterion(4, "symmetric W' has 3-tangle < 1e-9 yet classifies as 2-3"):
        ms = measure_set(w_prime())
        assert ms.three_tangle < 1e-9
        assert classify_pure(w_prime()).label.code == "2-3"


def test_criterion_5_canonical_form_formulas():
    with criterion(5, "canonical-form closed forms match the pipeline within 1e-9 (100 draws each)"):
        rng = np.random.default_rng(55)
        for _ in range(100):
            # |B>: factored qubit A, reduced BC negativity 2|beta*omega - delta*epsilon|
            beta, delta, eps, omega = nonzero_coefficients(rng, 4)
            ms = measure_set(from_gsd_coefficients(0.0, beta, delta, eps, omega))
            assert abs(ms.n_red_bc - 2 * abs(beta * omega - delta * eps)) < 1e-9

            # |IV>: three coefficients, reduced BC negativity 2|beta*omega|
            alpha, beta, omega = nonzero_coefficients(rng, 3)
            ms = measure_set(from_gsd_coefficients(alpha, beta, 0.0, 0.0, omega))
            assert abs(ms.n_red_bc - 2 * abs(beta * omega)) < 1e-9

            # |S>: reduced concurrences 2|beta*omega| and 2|alpha*epsilon|
            alpha, beta, eps, omega = nonzero_coefficients(rng, 4)
            rho = to_density(from_gsd_coefficients(alpha, beta, 0.0, eps, omega))
            assert abs(concurrence_2q(partial_trace(rho, "A")) - 2 * abs(beta * omega)) < 1e-9
            assert abs(concurrence_2q(partial_trace(rho, "B")) - 2 * abs(alpha * eps)) < 1e-9

            # |Psi_W>: the three reduced negativities and companions
            alpha, eps, delta = nonzero_coefficients(rng, 3)
            ms = measure_set(from_gsd_coefficients(alpha, 0.0, delta, eps, 0.0))
            ref = oracle("w_canonical", alpha, eps, delta)
            assert abs(ms.n_red_bc - ref["n_red_bc"]) < 1e-9
            assert abs(ms.n_red_ac - ref["n_red_ac"]) < 1e-9
            assert abs(ms.n_red_ab - ref["n_red_ab"]) < 1e-9


def test_criterion_6_ghz_w_mixture():
    with criterion(6, "GHZ(+)W mixture matches its closed form on a 101-point grid"):
        rows = sweep(default_grid("ghz_w_mix", points=101))
        vals = np.array([r.measures.n_abc for r in rows])
        for r in rows:
            assert r.deviations["n_abc"] < 1e-9
        assert vals.min() > 0.0
        assert int(np.argmax(vals)) == len(vals) - 1  # absolute maximum at p = 1
        assert vals[0] > vals[1]  # secondary local maximum at p = 0


def test_criterion_7_ghz_white_noise():
    with criterion(7, "GHZ + white noise: N_ABC = 0 below p = 1/5, (5p - 1)/4 above"):
        for row in sweep(default_grid("ghz_noise", points=101)):
            p = row.params[0]
            expected = 0.0 if p <= 0.2 else (5.0 * p - 1.0) / 4.0
            if p <= 0.2:
                assert row.measures.n_abc < 1e-10
            else:
                assert abs(row.measures.n_abc - expected) < 1e-9
            distillable = "GHZ-distillable" in row.verdict
            assert distillable == (expected > 1e-8)


def test_criterion_8_sigma_b_family():
    with criterion(8, "sigma_b: PPT across A|BC, closed-form B/C negativities, undetermined"):
        for b in np.arange(0.1, 0.95, 0.1):
            ms = measure_set(sigma_b(b))
            assert ms.n_a_bc < 1e-10
            expected = (np.sqrt(3 * b * b + 1) - 2 * b) / (7 * b + 1)
            assert abs(ms.n_b_ac - expected) < 1e-9
            assert abs(ms.n_c_ab - expected) < 1e-9
            claims = classify_mixed(sigma_b(b)).claims()
            assert any(c.startswith("undetermined") for c in claims)
            assert "GHZ-distillable" not in claims


def test_criterion_9_rho_epsilon_family():
    with criterion(9, "rho_eps: reduced BC negativity equals |eps|; eps = 0 is PPT"):
        for eps in (-1.0, -0.5, 0.0, 0.5, 1.0):
            ms = measure_set(rho_epsilon(eps))
            assert abs(ms.n_red_bc - abs(eps)) < 1e-9
        assert measure_set(rho_epsilon(0.0)).n_red_bc < 1e-12


def test_criterion_10a_lu_invariance(haar_corpus):
    with criterion(10, f"(a) LU invariance of measures and labels on {N_PROPERTY_STATES} states"):
        for psi, rotated, res, res2 in haar_corpus:
            a, b = res.measures.as_dict(), res2.measures.as_dict()
            for name in a:
                assert abs(a[name] - b[name]) < LU_TOL, name
            if not (res.ambiguous or res2.ambiguous):
                assert res.label == res2.label


def test_criterion_10b_negativity_equals_concurrence(haar_corpus):
    with criterion(10, "(b) pure-state negativity = concurrence = 2 sqrt(det) per bipartition"):
        for psi, _, res, _ in haar_corpus:
            rho = to_density(psi)
            for q, pair in (("A", ("B", "C")), ("B", ("A", "C")), ("C", ("A", "B"))):
                single = partial_trace(partial_trace(rho, pair[0]), pair[1])
                det = np.linalg.det(single.matrix).real
                assert abs(negativity(rho, q) - 2.0 * np.sqrt(max(0.0, det))) < 1e-9


def test_criterion_10c_monogamy(haar_corpus):
    with criterion(10, "(c) monogamy: C_AB^2 + C_AC^2 <= N_A^2 (3-tangle >= 0)"):
        for _, _, res, _ in haar_corpus:
            ms = res.measures
            assert ms.c_red_ab**2 + ms.c_red_ac**2 <= ms.n_a_bc**2 + 1e-9
            assert ms.three_tangle >= -1e-9


def test_criterion_10d_gsd_zeros_and_measures(haar_corpus):
    with criterion(10, "(d) GSD zero pattern and measure preservation on the corpus"):
        for psi, _, res, _ in haar_corpus:
            form = gsd(psi)
            rotated = apply_local_unitary(psi, form.u_a, form.u_b, form.u_c)
            assert np.abs(rotated.amplitudes[[1, 2, 3]]).max() < 1e-10
            a, b = res.measures.as_dict(), measure_set(form.to_state()).as_dict()
            for name in a:
                assert abs(a[name] - b[name]) < 1e-9, name


def test_criterion_10e_classifier_pattern_agreement(haar_corpus):
    with criterion(10, "(e) numerical classifier agrees with the GSD pattern catalog"):
        rng = np.random.default_rng(1055)
        states = [psi for psi, _, _, _ in haar_corpus[:200]]
        states += [random_biseparable(rng, q) for q in "ABC" for _ in range(20)]
        states += [random_product_state(rng) for _ in range(20)]
        # near-separable states, where the entangling amplitude is small,
        # hidden canonical-class states, |0>_A Bell_BC + 1e-5 |101>, and
        # sparse canonical forms, whose small coefficients multiply to
        # products on either side of the tolerance
        states += near_separable_corpus(rng, 300) + hidden_canonical_corpus(rng, 50) + [bell_bc_plus(1e-5)]
        states += sparse_canonical_corpus(rng, 1500)
        # the pattern is flagged exactly where classify_pure is, and names its label elsewhere
        for psi in states:
            res = classify_pure(psi)
            for mode in ("raw", "normal"):
                form = gsd(psi, mode=mode)
                if res.ambiguous:
                    with pytest.raises(AmbiguousNearThresholdError):
                        classify_gsd_pattern(form)
                else:
                    assert classify_gsd_pattern(form).subtype == res.label


def test_criterion_10f_measure_ordering_on_ghz_like():
    with criterion(10, "(f) N_ABC, Q and eta3 all increase along the GHZ-like family"):
        rows = sweep(default_grid("ghz_like", points=101))
        n = np.array([r.measures.n_abc for r in rows])
        q = np.array([r.measures.q_mult for r in rows])
        eta = np.array([r.measures.eta_mult for r in rows])
        assert np.all(np.diff(n) > 0.0)
        assert np.all(np.diff(q) > 0.0)
        assert np.all(np.diff(eta) > 0.0)
        assert abs(n[-1] - 1.0) < 1e-9
