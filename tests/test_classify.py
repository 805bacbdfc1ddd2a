import numpy as np
import pytest

import triqent.classify
from triqent import (
    AmbiguousNearThresholdError,
    MixedStateUnsupportedError,
    NonFiniteError,
    ParamOutOfDomainError,
    PureState,
    WrongDimensionError,
    apply_local_unitary,
    classify_gsd_pattern,
    classify_mixed,
    classify_pure,
    from_gsd_coefficients,
    ghz,
    ghz_noise,
    gsd,
    rho_zero,
    sample_haar_pure,
    sigma_b,
    to_density,
    w_prime,
)
from helpers import near_separable_corpus, random_biseparable, random_product_state, random_unitary


class TestClassifyPure:
    def test_ghz(self):
        res = classify_pure(ghz())
        assert res.label.code == "2-0"
        assert not res.ambiguous

    def test_w(self):
        res = classify_pure(w_prime())
        assert res.label.code == "2-3"
        assert res.label.entangled_pairs == ("BC", "AC", "AB")

    def test_biseparable(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)  # |0>_A x Bell_BC
        res = classify_pure(PureState(v))
        assert res.label.code == "1^1-1"
        assert res.label.separable_qubit == "A"

    def test_star_state(self):
        res = classify_pure(from_gsd_coefficients(0.5, 0.5, 0.0, 0.5, 0.5))
        assert res.label.code == "2-2"
        assert res.label.entangled_pairs == ("BC", "AC")

    def test_product(self):
        res = classify_pure(random_product_state(np.random.default_rng(2)))
        assert res.label.code == "0-0"

    def test_margins_recorded(self):
        res = classify_pure(ghz())
        assert set(res.margins) >= {"factorizable_A", "pair_BC", "pair_AC", "pair_AB"}

    def test_near_threshold_flagged_ambiguous(self):
        # reduced BC negativity lands right at the zero tolerance
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[4], amps[7] = 0.8, 8.333333e-9, 0.6
        res = classify_pure(PureState(amps / np.linalg.norm(amps)))
        assert res.ambiguous
        assert 1e-9 <= res.margins["pair_BC"] <= 1e-7

    def test_label_lu_invariant(self):
        rng = np.random.default_rng(40)
        for seed in range(40):
            psi = sample_haar_pure(seed)
            res = classify_pure(psi)
            rotated = apply_local_unitary(
                psi, random_unitary(rng), random_unitary(rng), random_unitary(rng)
            )
            res2 = classify_pure(rotated)
            if not (res.ambiguous or res2.ambiguous):
                assert res.label == res2.label

    def test_type2_iff_positive_tripartite_negativity(self):
        rng = np.random.default_rng(41)
        cases = [sample_haar_pure(s) for s in range(30)]
        cases += [random_biseparable(rng, q) for q in "ABC" for _ in range(5)]
        cases += [random_product_state(rng) for _ in range(5)]
        for psi in cases:
            res = classify_pure(psi)
            if res.ambiguous:
                continue
            assert (res.measures.n_abc > 1e-8) == res.label.code.startswith("2-")

    def test_agrees_with_gsd_pattern(self):
        rng = np.random.default_rng(42)
        cases = [sample_haar_pure(s) for s in range(30)]
        cases += [random_biseparable(rng, q) for q in "ABC" for _ in range(4)]
        cases += [random_product_state(rng) for _ in range(4)]
        for psi in cases:
            res = classify_pure(psi)
            if res.ambiguous:
                continue
            try:
                pat = classify_gsd_pattern(gsd(psi))
            except AmbiguousNearThresholdError:
                continue
            assert pat.subtype.code == res.label.code
            if res.label.code.startswith("2-"):
                assert pat.subtype.entangled_pairs == res.label.entangled_pairs

    def test_impurity_is_reduced_state_impurity(self):
        # the factorizability margins are n_q^2 / 2; they must equal
        # 1 - Tr rho_q^2 of the reduced states, near the zero tolerance too
        rng = np.random.default_rng(43)
        cases = [sample_haar_pure(s) for s in range(50)] + near_separable_corpus(rng, 400)
        ambiguous = 0
        for psi in cases:
            res = classify_pure(psi)
            ambiguous += res.ambiguous
            t = psi.tensor
            singles = {
                "A": np.einsum("ijk,ljk->il", t, t.conj()),
                "B": np.einsum("ijk,ilk->jl", t, t.conj()),
                "C": np.einsum("ijk,ijl->kl", t, t.conj()),
            }
            for q, rho in singles.items():
                impurity = 1.0 - np.trace(rho @ rho).real
                assert abs(res.margins[f"factorizable_{q}"] - impurity) < 1e-14, q
        assert ambiguous > 0  # the corpus reaches the 1e-9..1e-7 decade

    def test_rejects_mixed_state_before_measuring(self, monkeypatch):
        def fail(state):
            raise AssertionError("measure_set called on mixed input")

        monkeypatch.setattr(triqent.classify, "measure_set", fail)
        with pytest.raises(MixedStateUnsupportedError):
            classify_pure(rho_zero())


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_non_finite_tolerance_rejected(tol):
    with pytest.raises(NonFiniteError):
        classify_pure(w_prime(), zero_tol=tol)
    with pytest.raises(NonFiniteError):
        classify_mixed(rho_zero(), zero_tol=tol)
    with pytest.raises(NonFiniteError):
        classify_gsd_pattern(gsd(w_prime()), zero_tol=tol)


@pytest.mark.parametrize("tol", [-1.0, 0.0, -1e-8])
def test_non_positive_tolerance_rejected(tol):
    # with zero_tol = -1, |000> came out W-like and its projector "GHZ-distillable"
    product = PureState(np.eye(8)[0])
    with pytest.raises(ParamOutOfDomainError, match="zero_tol must be positive"):
        classify_pure(product, zero_tol=tol)
    with pytest.raises(ParamOutOfDomainError, match="zero_tol must be positive"):
        classify_mixed(to_density(product), zero_tol=tol)
    with pytest.raises(ParamOutOfDomainError, match="zero_tol must be positive"):
        classify_gsd_pattern(gsd(product), zero_tol=tol)


class TestClassifyMixed:
    def test_needs_three_qubits(self):
        from triqent import partial_trace

        with pytest.raises(WrongDimensionError):
            classify_mixed(partial_trace(rho_zero(), "A"))

    def test_bell_mixture_has_separable_reduction(self):
        verdict = classify_mixed(rho_zero())
        claims = verdict.claims()
        assert "reduced pair BC entangled" not in claims
        assert verdict.measures.n_red_bc == 0.0
        # the A-BC cut is provably separable, so no exclusion either
        assert "not simply biseparable w.r.t. A" not in claims

    def test_ghz_noise_distillable(self):
        verdict = classify_mixed(ghz_noise(0.5))
        assert "GHZ-distillable" in verdict.claims()
        assert verdict.measures.n_abc == pytest.approx(0.375, abs=1e-9)

    def test_ghz_noise_below_threshold(self):
        verdict = classify_mixed(ghz_noise(0.15))
        assert "GHZ-distillable" not in verdict.claims()
        assert verdict.measures.n_abc < 1e-10

    @pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
    def test_sigma_b_verdict(self, b):
        verdict = classify_mixed(sigma_b(b))
        claims = verdict.claims()
        assert "not fully separable" in claims
        assert "not simply biseparable w.r.t. B" in claims
        assert "not simply biseparable w.r.t. C" in claims
        assert "not simply biseparable w.r.t. A" not in claims
        assert "GHZ-distillable" not in claims
        assert any(c.startswith("undetermined") for c in claims)
        assert verdict.measures.n_abc == 0.0

    def test_positive_claims_carry_witnesses(self):
        verdict = classify_mixed(ghz_noise(0.8))
        for cert in verdict.certificates:
            if not cert.claim.startswith("undetermined"):
                assert cert.witness > 1e-8

    @pytest.mark.parametrize("delta", [1e-13, 1e-12, 1e-11, 1e-10])
    def test_tiny_cut_not_ghz_distillable(self, delta):
        # |0>_A Bell_BC + delta |101>: the A-BC cut negativity is about
        # delta, far below zero_tol, while its cube root in n_abc is not
        v = np.zeros(8, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        v[5] = delta
        psi = PureState(v / np.linalg.norm(v))
        verdict = classify_mixed(to_density(psi))
        assert verdict.measures.n_a_bc < 1e-8 < verdict.measures.n_abc
        assert "GHZ-distillable" not in verdict.claims()
        assert "not simply biseparable w.r.t. A" not in verdict.claims()
        assert classify_pure(psi).label.code == "1^1-1"

    def test_pure_projector_consistent_with_pure_classifier(self):
        for psi in (ghz(), w_prime(), sample_haar_pure(3)):
            res = classify_pure(psi)
            verdict = classify_mixed(to_density(psi))
            claims = verdict.claims()
            if res.label.code.startswith("2-"):
                assert "not fully separable" in claims
                assert "GHZ-distillable" in claims
            for pair in res.label.entangled_pairs:
                assert f"reduced pair {pair} entangled" in claims
