import itertools

import numpy as np
import pytest

import triqent.classify
from triqent import (
    AmbiguousNearThresholdError,
    DensityMatrix,
    MixedStateUnsupportedError,
    NonFiniteError,
    ParamOutOfDomainError,
    PureState,
    QubitNotPresentError,
    WrongDimensionError,
    apply_local_unitary,
    classify_gsd_pattern,
    classify_mixed,
    classify_pure,
    default_grid,
    from_gsd_coefficients,
    ghz,
    ghz_noise,
    gsd,
    make_state,
    measure_set,
    rho_epsilon,
    rho_zero,
    sample_haar_pure,
    sample_hs_mixed,
    sigma_b,
    to_density,
    tripartite_negativity,
    w_prime,
)
from triqent.classify import (
    _CLAIMS,
    _LABELS,
    _PAIRS,
    AMBIGUITY_BAND,
    DEFAULT_ZERO_TOL,
    SubtypeLabel,
    _certify_table,
    _classify_table,
)
from triqent.measures import NEG_EIG_FLOOR, MeasureSet, _mixed_measure_table, _pure_measure_table
from triqent.states import QUBITS
from helpers import (
    bell_bc_plus,
    hidden_canonical_corpus,
    near_product_corpus,
    near_separable_corpus,
    pure_corpora,
    random_biseparable,
    random_product_state,
    random_unitary,
)


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
        # the reduced BC concurrence lands right at the zero tolerance
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

    def test_margins_are_linear_measures(self):
        # the decision quantities are the one-vs-two negativities n_q and the
        # reduced concurrences c_red, both linear in a small canonical
        # amplitude; n_q^2 / 2 is still the impurity 1 - Tr rho_q^2 of the
        # reduced states, near the zero tolerance too
        rng = np.random.default_rng(43)
        cases = [sample_haar_pure(s) for s in range(50)] + near_separable_corpus(rng, 400)
        ambiguous = 0
        for psi in cases:
            res = classify_pure(psi)
            ms = res.measures
            ambiguous += res.ambiguous
            for q, n_q in zip("ABC", (ms.n_a_bc, ms.n_b_ac, ms.n_c_ab)):
                assert res.margins[f"factorizable_{q}"] == n_q, q
            for p, c in zip(("BC", "AC", "AB"), (ms.c_red_bc, ms.c_red_ac, ms.c_red_ab)):
                assert res.margins[f"pair_{p}"] == c, p
            t = psi.tensor
            singles = {
                "A": np.einsum("ijk,ljk->il", t, t.conj()),
                "B": np.einsum("ijk,ilk->jl", t, t.conj()),
                "C": np.einsum("ijk,ijl->kl", t, t.conj()),
            }
            for q, rho in singles.items():
                impurity = 1.0 - np.trace(rho @ rho).real
                assert abs(0.5 * res.margins[f"factorizable_{q}"] ** 2 - impurity) < 1e-14, q
        assert ambiguous > 0  # the corpus reaches the 1e-9..1e-7 decade

    def test_rejects_mixed_state_before_measuring(self, monkeypatch):
        def fail(amps):
            raise AssertionError("measure table built for mixed input")

        monkeypatch.setattr(triqent.classify, "_pure_measure_table", fail)
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


@pytest.mark.parametrize("tol", [1e-14, 1e-16, 1e-20, 5e-324])
def test_tolerance_below_the_accuracy_floor_rejected(tol):
    # at 1e-16 the projector of a product state was certified to hold an
    # entangled pair, and at 1e-20 gsd patterns of product states read S''
    product = PureState(np.eye(8)[0])
    with pytest.raises(ParamOutOfDomainError, match="accuracy floor"):
        classify_pure(product, zero_tol=tol)
    with pytest.raises(ParamOutOfDomainError, match="accuracy floor"):
        classify_mixed(to_density(product), zero_tol=tol)
    with pytest.raises(ParamOutOfDomainError, match="accuracy floor"):
        classify_gsd_pattern(gsd(product), zero_tol=tol)


class TestClassifyMixed:
    def test_needs_three_qubits(self):
        from triqent import partial_trace

        with pytest.raises(WrongDimensionError):
            classify_mixed(partial_trace(rho_zero(), "A"))

    def test_permuted_layout_rejected(self):
        # |0>_A x Bell_BC: in the layout (B, C, A) the same matrix has B
        # separable and the pair CA entangled, which a reading as A, B, C
        # would swap; a permuted layout fails where it enters, so no
        # three-qubit call ever sees one
        rho = to_density(bell_bc_plus(0.0))
        for layout in itertools.permutations(QUBITS):
            if layout == QUBITS:
                same = DensityMatrix(rho.matrix, layout)
                assert classify_mixed(same) == classify_mixed(rho)
                assert measure_set(same) == measure_set(rho)
                assert tripartite_negativity(same) == tripartite_negativity(rho)
                continue
            with pytest.raises(QubitNotPresentError, match="invalid qubit layout"):
                DensityMatrix(rho.matrix, layout)

    @pytest.mark.parametrize("state, witness, ambiguous", [
        (lambda: ghz_noise(0.2 + 4e-8), "n_abc", True),  # n_q = 5.0e-8, certified GHZ-distillable
        (lambda: rho_epsilon(2e-8), "c_red_bc", True),  # pair BC certified at 2.0e-8
        (lambda: rho_epsilon(1e-5), "c_red_bc", False),
        (lambda: ghz_noise(0.5), "n_abc", False),
        (lambda: rho_zero(), "n_b_ac", False),
    ], ids=["ghz_noise_near", "rho_epsilon_near", "rho_epsilon_far", "ghz_noise_far", "rho_zero"])
    def test_near_threshold_flagged_ambiguous(self, state, witness, ambiguous):
        verdict = classify_mixed(state())
        assert verdict.ambiguous is ambiguous
        assert verdict.certificates  # the verdict is still returned
        value = getattr(verdict.measures, witness)
        assert (DEFAULT_ZERO_TOL / 10 <= value <= DEFAULT_ZERO_TOL * 10) is ambiguous

    def test_one_band_for_every_classifier(self, monkeypatch):
        # the band is one module-level name: widened, it flags calls of
        # classify_pure, classify_mixed and classify_gsd_pattern alike
        coefficients = np.array([0.8, 0.0, 1e-5, 0.0, 0.6])
        psi = from_gsd_coefficients(*coefficients / np.linalg.norm(coefficients))  # c_red_ab = 2|alpha delta|
        rho = rho_epsilon(1e-5)
        assert not classify_pure(psi).ambiguous and not classify_mixed(rho).ambiguous
        classify_gsd_pattern(gsd(psi))
        monkeypatch.setattr(triqent.classify, "AMBIGUITY_BAND", 1e4)
        assert classify_pure(psi).ambiguous and classify_mixed(rho).ambiguous
        with pytest.raises(AmbiguousNearThresholdError):
            classify_gsd_pattern(gsd(psi))

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
        psi = bell_bc_plus(delta)
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


@pytest.fixture(scope="module")
def agreement_corpus():
    """Pure states by kind, each with its classify_pure result, its projector's claims and its GSD pattern.

    The pattern is None where ``classify_gsd_pattern`` calls it ambiguous.
    """
    def row(psi):
        try:
            pattern = classify_gsd_pattern(gsd(psi))
        except AmbiguousNearThresholdError:
            pattern = None
        return psi, classify_pure(psi), classify_mixed(to_density(psi)).claims(), pattern

    kinds = {
        "haar": [sample_haar_pure(seed) for seed in range(300)],
        "near": near_separable_corpus(np.random.default_rng(2024), 1200),
        "hidden": hidden_canonical_corpus(np.random.default_rng(77), 200),
        "example": [bell_bc_plus(delta) for delta in (1e-5, 1e-6, 1e-3)],
    }
    return {kind: [row(psi) for psi in states] for kind, states in kinds.items()}


AGREEMENT_KINDS = ["haar", "near", "hidden", "example"]


class TestOneThresholdScale:
    """classify_pure, classify_mixed on the projector and the GSD pattern decide on linear quantities alike.

    Factorizability is read from n_q and pair entanglement from c_red on
    both sides, and the canonical coefficients are linear too, so none of
    the three contradicts another away from the ambiguity band.
    """

    @pytest.mark.parametrize("kind", AGREEMENT_KINDS)
    def test_separable_qubit_not_contradicted(self, agreement_corpus, kind):
        for i, (_, res, claims, _) in enumerate(agreement_corpus[kind]):
            q = res.label.separable_qubit
            if q is not None:
                assert f"not simply biseparable w.r.t. {q}" not in claims, i
            if res.label.code == "0-0":
                assert not [c for c in claims if c.startswith("not ")], i

    @pytest.mark.parametrize("kind", AGREEMENT_KINDS)
    def test_label_equals_gsd_pattern_unless_ambiguous(self, agreement_corpus, kind):
        decided = 0
        for i, (_, res, _, pattern) in enumerate(agreement_corpus[kind]):
            if res.ambiguous or pattern is None:
                continue
            decided += 1
            assert pattern.subtype == res.label, i
        assert decided >= 0.8 * len(agreement_corpus[kind])

    @pytest.mark.parametrize("kind", AGREEMENT_KINDS)
    def test_pair_claims_equal_label_unless_ambiguous(self, agreement_corpus, kind):
        for i, (_, res, claims, _) in enumerate(agreement_corpus[kind]):
            certified = tuple(p for p in ("BC", "AC", "AB") if f"reduced pair {p} entangled" in claims)
            assert certified == res.label.entangled_pairs or res.ambiguous, i

    def test_bell_pair_plus_small_amplitude(self, agreement_corpus):
        # |0>_A Bell_BC + 1e-5 |101> is W-class: n_A = 2e-5 and c_AB = c_AC =
        # sqrt(2) 1e-5, where the impurity n_A^2 / 2 = 2e-10 and the reduced
        # negativities are quadratic, below zero_tol; it was labelled 1^1-1
        # with A separable while its projector was certified not biseparable
        # w.r.t. A
        psi, res, claims, pattern = agreement_corpus["example"][0]
        assert res.label == SubtypeLabel("2-3", None, ("BC", "AC", "AB")) == pattern.subtype
        assert not res.ambiguous
        assert res.margins["factorizable_A"] == pytest.approx(2e-5, rel=1e-6)
        assert res.margins["pair_AB"] == pytest.approx(np.sqrt(2.0) * 1e-5, rel=1e-6)
        assert res.measures.n_red_ab < DEFAULT_ZERO_TOL
        assert {"not simply biseparable w.r.t. A", "reduced pair AB entangled"} <= set(claims)


def separable_pair_cases(rng, count):
    """(density matrix, pairs separable by construction) for product and biseparable projectors and their mixtures.

    Each of ``count`` product states and ``count`` biseparable states per
    separable qubit is taken as a projector and mixed with white noise,
    p |psi><psi| + (1 - p) I / 8; a pair holding the separable qubit stays
    separable.  The eps = 0 Bell mixture has three separable pairs.
    """
    pairs = ("BC", "AC", "AB")
    states = [(random_product_state(rng), pairs) for _ in range(count)]
    states += [(random_biseparable(rng, q), tuple(p for p in pairs if q in p)) for q in "ABC" for _ in range(count)]
    cases = [(rho_zero(), pairs), (make_state("rho_epsilon", 0.0), pairs)]
    for psi, separable in states:
        proj = to_density(psi)
        cases.append((proj, separable))
        cases += [(DensityMatrix(p * proj.matrix + (1.0 - p) * np.eye(8) / 8.0), separable) for p in (0.999, 0.5)]
    return cases


def test_separable_pair_never_certified_entangled():
    # near separability the mixed c_red carries up to about 1e-8 of error,
    # the square root of rounding noise (see test_matches_general_path in
    # test_measures.py); on a pair that is exactly separable it stays at
    # rounding level, so no accepted threshold, down to the accuracy floor,
    # certifies it entangled
    for i, (rho, separable) in enumerate(separable_pair_cases(np.random.default_rng(91), 150)):
        for tol in (DEFAULT_ZERO_TOL, 1e-12, NEG_EIG_FLOOR):
            claims = classify_mixed(rho, zero_tol=tol).claims()
            for p in separable:
                assert f"reduced pair {p} entangled" not in claims, (i, p, tol)


def reference_pure_decision(ms, zero_tol):
    """(code, separable qubit, entangled pairs, margins, ambiguous) by the per-state rule, one comparison at a time.

    Factorizability is decided on the one-vs-two negativities n_q, pair
    entanglement on the reduced concurrences c_red.
    """
    n_side = dict(zip("ABC", (ms.n_a_bc, ms.n_b_ac, ms.n_c_ab)))
    margins = {f"factorizable_{q}": n_side[q] for q in "ABC"}
    pairs = []
    for name, v in zip(("BC", "AC", "AB"), (ms.c_red_bc, ms.c_red_ac, ms.c_red_ab)):
        margins[f"pair_{name}"] = v
        if v > zero_tol:
            pairs.append(name)
    facts = [q for q in "ABC" if n_side[q] < zero_tol]
    if not facts:
        label = (f"2-{len(pairs)}", None, tuple(pairs))
    elif len(facts) == 1:
        for single in "ABC".replace(facts[0], ""):
            margins[f"single_purity_{single}"] = n_side[single]
        label = ("1^1-1", facts[0], tuple(pairs))
    else:
        label = ("0-0", None, ())
    ambiguous = any(zero_tol / 10.0 <= v <= zero_tol * 10.0 for v in margins.values())
    return (*label, margins, ambiguous)


def reference_certificates(ms, zero_tol):
    """(claim, witness) pairs by the per-state rule of classify_mixed; a pair is certified on its concurrence."""
    c_red = {"BC": ms.c_red_bc, "AC": ms.c_red_ac, "AB": ms.c_red_ab}
    n_side = {"A": ms.n_a_bc, "B": ms.n_b_ac, "C": ms.n_c_ab}
    certs = [(f"reduced pair {p} entangled", v) for p, v in c_red.items() if v > zero_tol]
    certs += [(f"not simply biseparable w.r.t. {q}", v) for q, v in n_side.items() if v > zero_tol]
    if any(v > zero_tol for v in n_side.values()):
        certs.append(("not fully separable", max(n_side.values())))
    if min(n_side.values()) > zero_tol:
        certs.append(("GHZ-distillable", ms.n_abc))
    certs.append(("undetermined: generalized biseparable vs fully inseparable", ms.n_abc))
    return certs


def reference_ambiguous(ms, zero_tol):
    """Whether a witness classify_mixed compares with zero_tol (n_q or c_red) lies within 10x of it."""
    compared = (ms.n_a_bc, ms.n_b_ac, ms.n_c_ab, ms.c_red_bc, ms.c_red_ac, ms.c_red_ab)
    return any(zero_tol / 10 <= v <= zero_tol * 10 for v in compared)


def w_canonical_grid():
    """w_canonical points with every coefficient drawn from exact zeros, tiny, small and large magnitudes."""
    mags = (0.0, 1e-6, 1e-3, 0.05, 0.2, 0.5, 1.0)
    rows = [np.array([a, e, d]) for a in mags for e in mags for d in mags if a or e or d]
    return [make_state("w_canonical", *(r / np.linalg.norm(r))) for r in rows]


@pytest.fixture(scope="module")
def pure_stacks():
    return {
        "haar": [sample_haar_pure(seed) for seed in range(300)],
        "near": near_separable_corpus(np.random.default_rng(71), 600),
        "grid": [make_state("ghz_like", *p) for p in default_grid("ghz_like", 101).grid] + w_canonical_grid(),
    }


def bits(x):
    return float(x).hex()


class TestStackedDecisions:
    """The masked decisions on a measure table against the per-state classifiers, row by row."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.1])
    @pytest.mark.parametrize("kind", ["haar", "near", "grid"])
    def test_classify_table_equals_classify_pure(self, pure_stacks, kind, tol):
        states = pure_stacks[kind]
        table = _pure_measure_table(np.array([psi.amplitudes for psi in states]))
        d = _classify_table(table, tol)
        for i, psi in enumerate(states):
            res = classify_pure(psi, zero_tol=tol)
            code, separable, pairs, margins, ambiguous = reference_pure_decision(res.measures, tol)
            label = res.label
            assert (label.code, label.separable_qubit, label.entangled_pairs) == (code, separable, pairs), i
            assert res.ambiguous is ambiguous, i
            assert {k: bits(v) for k, v in res.margins.items()} == {k: bits(v) for k, v in margins.items()}, i
            assert str(d.codes[i]) == code and bool(d.ambiguous[i]) is ambiguous, i
            assert _LABELS[d.labels[i]] == label, i
            assert [bits(v) for v in d.margins[i]] == [bits(v) for v in list(margins.values())[:6]], i
            assert [bits(v) for v in table[i]] == [bits(v) for v in res.measures.as_dict().values()], i

    def test_two_factorizable_branch_fires(self, pure_stacks):
        # two factorizable qubits and a third just above zero_tol: a 0-0? label
        seen = set()
        for tol in (1e-8, 1e-3, 0.1):
            states = pure_stacks["grid"] + pure_stacks["near"]
            d = _classify_table(_pure_measure_table(np.array([psi.amplitudes for psi in states])), tol)
            two = (d.margins[:, :3] < tol).sum(axis=1) == 2
            seen |= {str(c) + "?" * bool(a) for c, a in zip(d.codes[two], d.ambiguous[two])}
        assert seen == {"0-0?"}

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.1])
    def test_classify_table_on_synthetic_tables(self, tol):
        # decision quantities scattered log-uniformly over four decades each
        # side of zero_tol reach every branch
        rng = np.random.default_rng(83)
        table = np.zeros((4000, 16))
        table[:, 0:3] = tol * 10.0 ** rng.uniform(-4.0, 4.0, (4000, 3))
        table[:, 7:10] = tol * 10.0 ** rng.uniform(-4.0, 4.0, (4000, 3))
        table[:, 4:7] = np.nan  # the reduced negativities are not read
        d = _classify_table(table, tol)
        shown = set()
        for i, row in enumerate(table.tolist()):
            code, separable, pairs, margins, ambiguous = reference_pure_decision(MeasureSet(*row), tol)
            assert str(d.codes[i]) == code and bool(d.ambiguous[i]) is ambiguous, i
            label = _LABELS[d.labels[i]]
            assert label.code == code and label.separable_qubit == separable and label.entangled_pairs == pairs, i
            assert [bits(v) for v in d.margins[i]] == [bits(v) for v in list(margins.values())[:6]], i
            shown.add(code + "?" * ambiguous)
        assert {"0-0", "0-0?", "1^1-1", "1^1-1?", "2-0", "2-1", "2-2", "2-3"} <= shown
        two = (d.margins[:, :3] < tol).sum(axis=1) == 2
        assert two.any() and (d.codes[two] == "0-0").all()

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.1])
    def test_certify_table_equals_classify_mixed(self, tol):
        # each kind is its own stack: the HS draws and projectors are complex,
        # the family states float64, and a stack's dtype picks its arithmetic
        kinds = [
            [sample_hs_mixed(seed) for seed in range(100)],
            [to_density(sample_haar_pure(seed)) for seed in range(100)],
            [make_state(f, *p) for f in ("ghz_w_mix", "ghz_noise", "rho_epsilon", "sigma_b")
             for p in default_grid(f).grid],
        ]
        flagged = 0
        for states in kinds:
            table = _mixed_measure_table(np.array([rho.matrix for rho in states]))
            held, witness, ambiguous = _certify_table(table, tol)
            for i, rho in enumerate(states):
                verdict = classify_mixed(rho, zero_tol=tol)
                expected = [(c, bits(w)) for c, w in reference_certificates(verdict.measures, tol)]
                assert [(c.claim, bits(c.witness)) for c in verdict.certificates] == expected, i
                stacked = [(c, bits(w)) for c, h, w in zip(_CLAIMS, held[i], witness[i]) if h]
                assert stacked == expected, i
                assert verdict.ambiguous is bool(ambiguous[i]) is reference_ambiguous(verdict.measures, tol), i
                flagged += verdict.ambiguous
        assert flagged > 0 if tol > 1e-8 else flagged == 0


@pytest.mark.parametrize("kind", ["haar", "near", "hidden", "sparse", "named", "near_product"])
def test_two_factorizable_qubits_only_inside_the_band(kind):
    # a pure state has n_q^2 = tau + C^2 + C^2 over the two pairs holding q
    # (Coffman, Kundu & Wootters), so each n_q is at most the hypot of the
    # other two; the negativity floor zeroes an n_q up to 2 NEG_EIG_FLOOR,
    # which adds at most 2 sqrt(2) NEG_EIG_FLOOR.  So two n_q below zero_tol
    # keep the third within the ambiguity band at every accepted zero_tol,
    # and _classify_table needs no repair case for that pattern
    amps = near_product_corpus() if kind == "near_product" else pure_corpora()[kind]
    table = _pure_measure_table(amps)
    n_side = table[:, 0:3]
    for q in range(3):
        others = np.delete(n_side, q, axis=1)
        assert (n_side[:, q] <= np.hypot(others[:, 0], others[:, 1]) + 3.0 * NEG_EIG_FLOOR).all(), q
    for tol in (1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.1, 0.5):
        factorizable = n_side < tol
        two = factorizable.sum(axis=1) == 2
        third = np.where(factorizable, 0.0, n_side).max(axis=1)
        assert not (two & (third >= AMBIGUITY_BAND * tol)).any(), tol
        assert _classify_table(table, tol).ambiguous[two].all(), tol


def relabelled(states, perm):
    """The states whose qubit k is qubit perm[k] of each of ``states``, (N, 8) amplitudes or (N, 8, 8) matrices."""
    axes = [k + 1 + 3 * side for side in range(states.ndim - 1) for k in perm]
    return states.reshape(-1, *(2,) * len(axes)).transpose(0, *axes).reshape(states.shape)


def qubit_names(perm):
    """Each qubit's name in ``relabelled(states, perm)``, by its name in ``states``."""
    return {QUBITS[old]: QUBITS[new] for new, old in enumerate(perm)}


def renamed_pair(pair, perm):
    name = qubit_names(perm)
    return next(p for p in _PAIRS if set(p) == {name[q] for q in pair})


def renamed(label, perm):
    """``label`` with each qubit given its name in ``relabelled(states, perm)``."""
    pairs = {renamed_pair(pair, perm) for pair in label.entangled_pairs}
    separable = qubit_names(perm).get(label.separable_qubit)
    return SubtypeLabel(label.code, separable, tuple(p for p in _PAIRS if p in pairs))


def renamed_claims(perm):
    """For each claim of ``_CLAIMS``, the index of its renamed claim in ``relabelled(states, perm)``."""
    indices = []
    for claim in _CLAIMS:
        words = claim.split()
        if claim.startswith("reduced pair "):
            words[2] = renamed_pair(words[2], perm)
        elif claim.startswith("not simply biseparable "):
            words[-1] = qubit_names(perm)[words[-1]]
        indices.append(_CLAIMS.index(" ".join(words)))
    return indices


def gsd_subtype(amps, mode):
    """The subtype ``classify_gsd_pattern`` gives the canonical form of a state, or None where it is ambiguous."""
    try:
        return classify_gsd_pattern(gsd(PureState(amps), mode)).subtype
    except AmbiguousNearThresholdError:
        return None


def permuted_columns(perm):
    """The measure-table columns of ``relabelled(states, perm)`` as indices into those of ``states``.

    n_q, n_red_*, c_red_* and s_q each come in QUBITS order (a pair by the
    qubit it leaves out); n_abc, Q, eta3 and the 3-tangle stay in place.
    """
    return np.concatenate([perm, [3], np.add(perm, 4), np.add(perm, 7), np.add(perm, 10), [13, 14, 15]])


@pytest.fixture(scope="module")
def mixed_corpora():
    """300 Hilbert-Schmidt states and the default grids of the four mixed families, as (N, 8, 8) stacks."""
    families = ("ghz_w_mix", "ghz_noise", "rho_epsilon", "sigma_b")
    return {
        "hs": np.array([sample_hs_mixed(seed).matrix for seed in range(300)]),
        "families": np.array([make_state(f, *p).matrix for f in families for p in default_grid(f).grid]),
    }


class TestQubitRelabelling:
    """Relabelling the qubits of a state permutes its measures and renames its label or claims.

    The checks run on the stacked routines (``_pure_measure_table``,
    ``_classify_table``, ``_mixed_measure_table``, ``_certify_table``),
    which ``measure_set``, ``classify_pure`` and ``classify_mixed`` are
    on a stack of one.  A swapped per-qubit row of an index table
    (``_UNFOLD``, ``_MINORS``, ``_SPIN_FLIP_PIECES``, ``_CUT_PT``,
    ``_PAIR_TRACE``, ``_SINGLE_TRACE``, ``_WITNESS_COLUMNS``) passes every
    check that looks at one qubit; it fails here for some permutation.
    """

    @pytest.mark.parametrize("kind", ["haar", "near", "hidden", "sparse", "named"])
    def test_pure(self, kind):
        amps = pure_corpora()[kind]
        table = _pure_measure_table(amps)
        decisions = _classify_table(table, DEFAULT_ZERO_TOL)
        for perm in itertools.permutations(range(3)):
            moved = _pure_measure_table(relabelled(amps, perm))
            assert (np.abs(moved - table[:, permuted_columns(perm)]) <= 1e-14).all(), perm
            moved_decisions = _classify_table(moved, DEFAULT_ZERO_TOL)
            assert np.array_equal(moved_decisions.ambiguous, decisions.ambiguous), perm
            for i, (before, after) in enumerate(zip(decisions.labels.tolist(), moved_decisions.labels.tolist())):
                assert _LABELS[after] == renamed(_LABELS[before], perm), (i, perm)

    @pytest.mark.parametrize("kind", ["hs", "families"])
    def test_mixed(self, mixed_corpora, kind):
        matrices = mixed_corpora[kind]
        table = _mixed_measure_table(matrices)
        held, witness, ambiguous = _certify_table(table, DEFAULT_ZERO_TOL)
        for perm in itertools.permutations(range(3)):
            moved = _mixed_measure_table(relabelled(matrices, perm))
            assert (np.abs(moved - table[:, permuted_columns(perm)[:13]]) <= 1e-14).all(), perm
            moved_held, moved_witness, moved_ambiguous = _certify_table(moved, DEFAULT_ZERO_TOL)
            claims = renamed_claims(perm)
            assert np.array_equal(moved_held[:, claims], held), perm
            assert (np.abs(moved_witness[:, claims] - witness) <= 1e-14).all(), perm
            assert np.array_equal(moved_ambiguous, ambiguous), perm

    @pytest.mark.parametrize("mode", ["raw", "normal"])
    @pytest.mark.parametrize("kind", ["haar", "near", "hidden", "sparse", "named"])
    def test_gsd_pattern(self, kind, mode):
        # the pattern is renamed, or ambiguous on both sides
        amps = pure_corpora()[kind]
        subtypes = [gsd_subtype(a, mode) for a in amps]
        for perm in list(itertools.permutations(range(3)))[1:]:
            for i, (before, a) in enumerate(zip(subtypes, relabelled(amps, perm))):
                assert gsd_subtype(a, mode) == (None if before is None else renamed(before, perm)), (i, perm)
