import dataclasses
import json

import numpy as np
import pytest

import triqent.measures
import triqent.states
from triqent import (
    DensityMatrix,
    MixedStateUnsupportedError,
    PureState,
    StateTypeError,
    TriqentError,
    WrongDimensionError,
    additive_measure,
    apply_local_unitary,
    classify_mixed,
    classify_pure,
    concurrence_2q,
    default_grid,
    eta3_multiplicative,
    from_gsd_coefficients,
    ghz,
    gsd,
    make_state,
    measure_set,
    negativity,
    oracle,
    partial_trace,
    partial_transpose,
    q_multiplicative,
    rho_epsilon,
    rho_zero,
    sample_haar_pure,
    sample_hs_mixed,
    sigma_b,
    sweep,
    three_tangle,
    to_density,
    tripartite_negativity,
    von_neumann_entropy,
    w_canonical,
    w_prime,
    w_state,
)
from triqent.classify import AMBIGUITY_BAND, _certify_table
from triqent.cli import main, save_state_file
from triqent.families import _FAMILIES
from triqent.measures import (
    _CUT_PT,
    _PAIR_PT,
    _PAIR_TRACE,
    _FLIP_SIGN,
    _SINGLE_TRACE,
    NEG_EIG_FLOOR,
    _entropy_of_spectrum,
    _geometric_mean3,
    _measure_sets,
    _mixed_measure_table,
    _negativity_of_spectrum,
    _pair_concurrence,
    _psd_factor,
    _pure_closed_form_table,
    _pure_measure_table,
    _spectrum_2x2,
)
from triqent.states import COMPLEMENT, QUBITS, _partial_trace, _partial_transpose, _validated_matrices
from helpers import (
    MIXED_FAMILIES,
    REAL_ROUTE_ATOL,
    near_separable_corpus,
    nonzero_coefficients,
    pure_corpora,
    random_biseparable,
    random_local_unitary,
    random_product_state,
    random_unitary,
    real_gaussian_draws,
    reference_pure_closed_form_table,
    reference_pure_measure_table,
    spy_on_lapack,
    sqrt_rho_concurrence,
)

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

    @pytest.mark.parametrize("side", QUBITS)
    def test_sigma_b_pivot_underflow(self, side):
        # b = 2/102 is a point of the 101-point sweep grid; rotating its
        # partial transpose leaves a subnormal pivot, which an iterative
        # rotation solver turns into an overflow
        expected = oracle("sigma_b", 2 / 102)[CUT_FIELDS[QUBITS.index(side)]]
        assert negativity(sigma_b(2 / 102), side) == pytest.approx(expected, abs=1e-12)


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

    def test_as_dict_matches_dataclasses_asdict(self):
        # same keys in the same order and the same JSON bytes, None fields included
        states = [sample_haar_pure(seed) for seed in range(50)]
        states += [sample_hs_mixed(seed) for seed in range(50)]
        for state in states:
            ms = measure_set(state)
            assert json.dumps(ms.as_dict()) == json.dumps(dataclasses.asdict(ms))
            assert list(ms.as_dict()) == [f.name for f in dataclasses.fields(ms)]
        assert ms.as_dict()["three_tangle"] is None  # the last set is mixed

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


def pure_family_points():
    """Every pure family point: the ghz_like sweep grid, GHZ, both W states, sampled w_canonical."""
    rng = np.random.default_rng(61)
    points = [make_state("ghz_like", *params) for params in default_grid("ghz_like").grid]
    points += [ghz(), w_state(), w_prime()]
    points += [w_canonical(*nonzero_coefficients(rng, 3, min_mag=0.0)) for _ in range(40)]
    return points


@pytest.fixture(scope="module")
def corpus():
    """Pure states by kind: Haar-random, near-separable, and the pure family points."""
    return {
        "haar": [sample_haar_pure(seed) for seed in range(200)],
        "near": near_separable_corpus(np.random.default_rng(60), 1200),
        "family": pure_family_points(),
    }


CUT_FIELDS = ("n_a_bc", "n_b_ac", "n_c_ab", "n_red_bc", "n_red_ac", "n_red_ab")
ENTROPY_FIELDS = ("s_a", "s_b", "s_c")
CONCURRENCE_FIELDS = ("c_red_bc", "c_red_ac", "c_red_ab")


class TestPureFastPath:
    """The closed-form pure path against the general path on the projector."""

    @pytest.mark.parametrize("kind", ["haar", "near", "family"])
    def test_matches_general_path(self, corpus, kind):
        # the general path factors each pair reduction as V sqrt(w); near
        # separability the rounding noise in a vanishing w enters that factor
        # through the square root, which costs its concurrence up to about 1e-8
        c_tol = 1e-12 if kind == "haar" else np.sqrt(NEG_EIG_FLOOR)
        for psi in corpus[kind]:
            fast, general = measure_set(psi), measure_set(to_density(psi))
            for name in CUT_FIELDS:
                assert abs(getattr(fast, name) - getattr(general, name)) <= 1e-12, name
            for name in ENTROPY_FIELDS:
                # an entropy collapses to 0 at or below 1e-12, so a collapsed 0
                # stands for any value up to that threshold
                a, b = (max(getattr(ms, name), 1e-12) for ms in (fast, general))
                assert abs(a - b) <= 1e-12, name
            for name in CONCURRENCE_FIELDS:
                assert abs(getattr(fast, name) - getattr(general, name)) <= c_tol, name

    @pytest.mark.parametrize("kind", ["haar", "near", "family"])
    def test_geometric_means_of_own_fields(self, corpus, kind):
        for psi in corpus[kind]:
            ms = measure_set(psi)
            cuts = (ms.n_a_bc, ms.n_b_ac, ms.n_c_ab)
            assert abs(ms.n_abc - np.prod(cuts) ** (1 / 3)) <= 1e-15
            assert abs(ms.q_mult - np.prod(np.square(cuts)) ** (1 / 3)) <= 1e-15
            assert abs(ms.eta_mult - (ms.s_a * ms.s_b * ms.s_c) ** (1 / 3)) <= 1e-15

    @pytest.mark.parametrize("kind", ["haar", "near", "family"])
    def test_three_tangle_closed_forms(self, corpus, kind):
        for psi in corpus[kind]:
            ms = measure_set(psi)
            assert abs(ms.three_tangle - 4.0 * abs(cayley_hyperdeterminant(psi.tensor))) <= 1e-12
            if kind == "haar":
                general = measure_set(to_density(psi))
                residual = general.n_a_bc**2 - general.c_red_ab**2 - general.c_red_ac**2
                assert abs(ms.three_tangle - residual) <= 1e-12

    @pytest.mark.parametrize("kind", ["haar", "near", "family"])
    def test_concurrence_matches_sqrt_rho_route(self, corpus, kind):
        # the closed form against the square-root route on each pair reduction,
        # at the tolerances of test_matches_general_path
        c_tol = 1e-12 if kind == "haar" else np.sqrt(NEG_EIG_FLOOR)
        for psi in corpus[kind]:
            ms = measure_set(psi)
            for q, name in zip(QUBITS, CONCURRENCE_FIELDS):
                reference = sqrt_rho_concurrence(partial_trace(to_density(psi), q).matrix)
                assert abs(getattr(ms, name) - reference) <= c_tol, name

    def test_concurrence_exactly_zero_on_ghz_like(self):
        # every pair of alpha|000> + omega|111> is separable, and the spin-flip
        # product has f00 = f11 = 0, so no rounding reaches the closed form
        for params in default_grid("ghz_like", 1001).grid:
            ms = measure_set(make_state("ghz_like", *params))
            assert [getattr(ms, name) for name in CONCURRENCE_FIELDS] == [0.0, 0.0, 0.0], params

    def test_stack_equals_single_calls(self, corpus):
        states = corpus["haar"] + corpus["near"][:300]
        stack = _measure_sets(_pure_measure_table(np.array([psi.amplitudes for psi in states])))
        assert len(stack) == len(states) == 500
        for ms, psi in zip(stack, states):
            single = measure_set(psi).as_dict()
            for name, value in ms.as_dict().items():
                assert abs(value - single[name]) <= 1e-14, name

    def test_no_general_eigensolve(self, monkeypatch, capsys):
        # the one eigensolve of the pure path is the batched spectrum of the
        # partial-transposed pair reductions, (N, 3, 4, 4) per stack, for
        # n_red_*; the concurrences are closed forms, with no SVD.  random
        # prints no n_red_* and decides on n_q and c_red_*, so it makes no
        # LAPACK call at all
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def fail(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called on the pure path")
            return call

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fail("eigh"))
        monkeypatch.setattr(np.linalg, "svd", fail("svd"))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        psi = sample_haar_pure(5)
        measure_set(psi)
        classify_pure(psi)
        assert shapes == [(1, 3, 4, 4), (1, 3, 4, 4)]
        monkeypatch.setattr(np.linalg, "eigvalsh", fail("eigvalsh"))
        assert main(["random", "--count", "5"]) == 0
        assert "subtype histogram" in capsys.readouterr().out


class TestClosedFormReference:
    """The pure tables read each amplitude product once, and equal the one-gather-per-table formulas bit for bit."""

    @pytest.mark.parametrize("kind", ["haar", "near", "hidden", "sparse", "named"])
    def test_closed_form_table(self, kind):
        amps = pure_corpora()[kind]
        assert np.array_equal(_pure_closed_form_table(amps), reference_pure_closed_form_table(amps), equal_nan=True)

    @pytest.mark.parametrize("kind", ["haar", "near", "hidden", "sparse", "named"])
    def test_measure_table(self, kind):
        amps = pure_corpora()[kind]
        assert np.array_equal(_pure_measure_table(amps), reference_pure_measure_table(amps), equal_nan=True)


def mixed_table_calls(n, kind):
    """The LAPACK calls of ``_mixed_measure_table`` on a stack of n, all real ('f') or all complex ('c').

    The spin flip's singular values are the last call: an ``eigvalsh`` of
    the real symmetric product on real rows, an ``svd`` on complex ones.
    """
    spin_flip = "eigvalsh" if kind == "f" else "svd"
    return [(name, (n, 3) + shape, kind) for name, shape in
            (("eigvalsh", (8, 8)), ("eigh", (4, 4)), ("eigvalsh", (4, 4)), (spin_flip, (4, 4)))]


@pytest.fixture(scope="module")
def mixed_corpus():
    """Three-qubit density matrices by kind: HS-random, Haar projectors, and every mixed family grid point."""
    return {
        "hs": [sample_hs_mixed(seed) for seed in range(200)],
        "projector": [to_density(sample_haar_pure(seed)) for seed in range(200)],
        "family": [make_state(family, *params) for family in MIXED_FAMILIES
                   for params in default_grid(family).grid],
    }


class TestMixedStack:
    """The stacked mixed routine against its stacks of one and the general references.

    The concurrence reference is the square-root route of
    ``helpers.sqrt_rho_concurrence``, which shares no code with the package.
    """

    @pytest.mark.parametrize("kind", ["hs", "projector", "family"])
    def test_stack_equals_single_calls(self, mixed_corpus, kind):
        states = mixed_corpus[kind]
        stack = _measure_sets(_mixed_measure_table(np.array([rho.matrix for rho in states])))
        assert len(stack) == len(states)
        for ms, rho in zip(stack, states):
            single = measure_set(rho).as_dict()
            for name, value in ms.as_dict().items():
                if value is None:
                    assert single[name] is None, name
                else:
                    assert abs(value - single[name]) <= 1e-14, name

    @pytest.mark.parametrize("kind", ["hs", "projector", "family"])
    def test_matches_general_references(self, mixed_corpus, kind):
        for rho in mixed_corpus[kind]:
            ms = measure_set(rho)
            fields = zip(QUBITS, CUT_FIELDS[:3], CUT_FIELDS[3:], CONCURRENCE_FIELDS, ENTROPY_FIELDS)
            for q, cut, pair, conc, single in fields:
                reduced = partial_trace(rho, q)
                assert abs(getattr(ms, cut) - negativity(rho, q)) <= 1e-12, cut
                assert abs(getattr(ms, pair) - negativity(reduced, COMPLEMENT[q][0])) <= 1e-12, pair
                assert abs(getattr(ms, conc) - sqrt_rho_concurrence(reduced.matrix)) <= 1e-12, conc
                others = [r for r in QUBITS if r != q]
                one = partial_trace(partial_trace(rho, others[0]), others[1])
                # a collapsed 0 stands for any entropy up to 1e-12
                a, b = max(getattr(ms, single), 1e-12), max(von_neumann_entropy(one), 1e-12)
                assert abs(a - b) <= 1e-12, single
            cuts = (ms.n_a_bc, ms.n_b_ac, ms.n_c_ab)
            assert abs(ms.n_abc - np.prod(cuts) ** (1 / 3)) <= 1e-15

    def test_concurrence_matches_sqrt_rho_route(self):
        pairs = [sample_hs_mixed(seed, ("A", "B")) for seed in range(500)]
        pairs += [partial_trace(to_density(sample_haar_pure(seed)), q) for seed in range(100) for q in QUBITS]
        for rho in pairs:
            assert abs(concurrence_2q(rho) - sqrt_rho_concurrence(rho.matrix)) <= 1e-12

    def test_no_general_eigensolve(self, mixed_corpus, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stacked validator called on the mixed path")

        rho = mixed_corpus["hs"][0]
        pair = partial_trace(rho, "A")
        monkeypatch.setattr(triqent.states, "_validated_matrices", fail)
        measure_set(rho)
        classify_mixed(rho)
        concurrence_2q(pair)

    def test_one_lapack_call_per_pair_or_cut_spectrum(self, mixed_corpus, monkeypatch):
        # a stack of N states makes four LAPACK calls: the spectra of the
        # cut transposes, the pair eigen-factors, the spectra of the pair
        # transposes and the spin flip's singular values (an SVD for a
        # complex state, an eigvalsh for a real one); the one-qubit spectra
        # are closed forms, so no call has a trailing (2, 2).  An HS state
        # is complex; every sigma_b grid point is real, so its calls are too
        rho = mixed_corpus["hs"][0]
        spec = default_grid("sigma_b")
        calls = spy_on_lapack(monkeypatch)
        measure_set(rho)
        classify_mixed(rho)
        assert calls == 2 * mixed_table_calls(1, "c")
        calls.clear()
        sweep(spec)
        assert calls == mixed_table_calls(len(spec.grid), "f")

    def test_classify_of_a_mixed_file(self, mixed_corpus, monkeypatch, tmp_path, capsys):
        # the file's matrix is validated by one eigh call, then measured by the four
        path = str(tmp_path / "hs.json")
        save_state_file(path, mixed_corpus["hs"][0])
        calls = spy_on_lapack(monkeypatch)
        assert main(["classify", path, "--json"]) == 0
        assert calls == [("eigh", (1, 8, 8), "c")] + mixed_table_calls(1, "c")
        assert json.loads(capsys.readouterr().out)["kind"] == "mixed"

    def test_classify_of_a_real_mixed_file(self, monkeypatch, tmp_path, capsys):
        # the file's matrix has no imaginary part, so it is validated and
        # measured in real arithmetic
        rho = make_state("ghz_noise", 0.5)
        path = str(tmp_path / "ghz_noise.json")
        save_state_file(path, rho)
        calls = spy_on_lapack(monkeypatch)
        assert main(["classify", path, "--json"]) == 0
        assert calls == [("eigh", (1, 8, 8), "f")] + mixed_table_calls(1, "f")
        monkeypatch.undo()
        verdict = classify_mixed(rho)
        assert json.loads(capsys.readouterr().out) == {
            "kind": "mixed",
            "certificates": [[c.claim, c.witness] for c in verdict.certificates],
            "ambiguous": verdict.ambiguous,
            "measures": verdict.measures.as_dict(),
        }


def same_bits(a, b):
    """Equal shapes and equal bytes: every entry the same float, signed zeros included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def signed_zero_stack(rng, shape):
    """Complex Gaussian entries, about one in five of their parts replaced by +0.0 or -0.0."""
    parts = rng.standard_normal(shape + (2,))
    zeros = rng.random(parts.shape) < 0.2
    parts[zeros] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[zeros]
    return parts.view(complex)[..., 0]


class TestGatherTables:
    """The index tables of the mixed table against the reshape routines they were built from."""

    @pytest.mark.parametrize("n", [1, 5, 1024])
    def test_cut_transposes(self, n):
        m = signed_zero_stack(np.random.default_rng(n), (n, 8, 8))
        cuts = m.reshape(n, 64)[:, _CUT_PT].reshape(n, 3, 8, 8)
        for ax in range(3):
            assert same_bits(cuts[:, ax], _partial_transpose(m, 3, ax)), ax

    @pytest.mark.parametrize("n", [1, 5, 1024])
    def test_pair_traces(self, n):
        m = signed_zero_stack(np.random.default_rng(n + 1), (n, 8, 8))
        pairs = m.reshape(n, 64)[:, _PAIR_TRACE].sum(axis=-1).reshape(n, 3, 4, 4)
        for ax in range(3):
            assert same_bits(pairs[:, ax], _partial_trace(m, 3, ax)), ax

    @pytest.mark.parametrize("n", [1, 5, 1024])
    def test_pair_transpose(self, n):
        rho = signed_zero_stack(np.random.default_rng(n + 2), (n, 3, 4, 4))
        pt = rho.reshape(n, 3, 16)[..., _PAIR_PT].reshape(n, 3, 4, 4)
        assert same_bits(pt, _partial_transpose(rho, 2, 0))

    @pytest.mark.parametrize("n", [1, 5, 1024])
    def test_single_qubit_entries(self, n):
        pairs = signed_zero_stack(np.random.default_rng(n + 3), (n, 3, 4, 4))
        singles = pairs.reshape(n, 48)[:, _SINGLE_TRACE].sum(axis=-1)
        # rho_A and rho_B from rho_AB, rho_C from rho_BC
        for q, (i, ax) in enumerate(((2, 1), (2, 0), (0, 0))):
            one = _partial_trace(pairs[:, i], 2, ax)
            assert same_bits(singles[:, q], np.stack([one[:, 0, 0], one[:, 1, 1], one[:, 0, 1]], axis=-1)), q


#: sy x sy, the spin flip of the reference stacking below; its entries are
#: real, so the reference on a real stack runs in real arithmetic throughout
SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real


def reference_mixed_measure_table(matrices):
    """The mixed table as it was stacked before the gather tables: a stack of reshapes per step.

    A real stack takes the spin flip's singular values as the sorted
    moduli of its eigenvalues, as the table does; a complex one its SVD.
    So this reference does not check the real spin flip against an SVD:
    ``TestRealSpinFlip`` does, on real rows, and ``TestRealRoute`` holds
    the real route to the complex one.  n_red_* is read off the pair
    reductions themselves, as the table reads it.
    """
    cuts = np.stack([_partial_transpose(matrices, 3, ax) for ax in range(3)], axis=1)
    n_side = _negativity_of_spectrum(np.linalg.eigvalsh(cuts))
    pairs = np.stack([_partial_trace(matrices, 3, ax) for ax in range(3)], axis=1)
    n_red = _negativity_of_spectrum(np.linalg.eigvalsh(_partial_transpose(pairs, 2, 0)))
    x = _psd_factor(pairs)
    flip = x.swapaxes(-1, -2) @ SIGMA_YY @ x
    if np.iscomplexobj(flip):
        sv = np.linalg.svd(flip, compute_uv=False)
    else:
        sv = np.sort(np.abs(np.linalg.eigvalsh(flip)), axis=-1)[..., ::-1]
    c_red = np.clip(sv[..., 0] - sv[..., 1:].sum(axis=-1), 0.0, 1.0)
    singles = np.stack([_partial_trace(pairs[:, i], 2, ax) for i, ax in ((2, 1), (2, 0), (0, 0))], axis=1)
    r00, r11, r01 = singles[..., 0, :1].real, singles[..., 1, 1:].real, singles[..., 0, 1:]
    entropy = _entropy_of_spectrum(_spectrum_2x2(r00 + r11, r00 * r11 - np.abs(r01) ** 2))
    n_abc = _geometric_mean3(n_side)[:, np.newaxis]
    return np.concatenate([n_side, n_abc, n_red, c_red, entropy], axis=1)


def rank3_density(rng):
    g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    m = g @ g.conj().T
    return m / m.trace().real


def reference_stacks():
    """Validated and closed-form mixed stacks: HS-random, rank 3, and 1001-point family grids."""
    rng = np.random.default_rng(2022)
    stacks = {
        "hs": np.array([sample_hs_mixed(seed).matrix for seed in range(300)]),
        "rank3": np.array([DensityMatrix(rank3_density(rng)).matrix for _ in range(300)]),
    }
    for family in MIXED_FAMILIES:
        stacks[family] = _FAMILIES[family].closed_form(default_grid(family, 1001).grid)
    return stacks


class TestReferenceStacking:
    """``_mixed_measure_table`` equals the reshape-and-stack code it replaced, bit for bit.

    The family grids are real, so the table measures their real parts;
    the reference is run on the same real parts.
    """

    @pytest.fixture(scope="class")
    def stacks(self):
        return reference_stacks()

    @staticmethod
    def measured(m, kind):
        return m.real if kind in MIXED_FAMILIES else m

    @pytest.mark.parametrize("kind", ["hs", "rank3", *MIXED_FAMILIES])
    def test_stack(self, stacks, kind):
        m = stacks[kind]
        assert same_bits(_mixed_measure_table(m), reference_mixed_measure_table(self.measured(m, kind)))

    @pytest.mark.parametrize("kind", ["hs", "rank3", *MIXED_FAMILIES])
    def test_stacks_of_one(self, stacks, kind):
        for m in stacks[kind][::20, np.newaxis]:
            assert same_bits(_mixed_measure_table(m), reference_mixed_measure_table(self.measured(m, kind)))


def real_draws(seed, n, rank):
    """n validated density matrices G G^T / Tr with G a real Gaussian 8 x rank matrix, given to validation
    as complex and stored as float64."""
    return _validated_matrices(real_gaussian_draws(seed, n, rank))


REAL_KINDS = (*MIXED_FAMILIES, "hs_real", "rank3_real")


class TestRealRoute:
    """A matrix with no imaginary part is measured in real arithmetic, close to the complex route.

    The stacks are the 1001-point grids of the four mixed families, 300
    real HS draws (seed 3401) and 300 real rank-3 draws (seed 3402), all
    float64: a family's grid is its closed form, and a validated real draw
    is stored real.  Each kind holds its stack, the table of the stack and
    the complex reference, ``reference_mixed_measure_table`` on the
    stack's complex copy.
    """

    @pytest.fixture(scope="class")
    def tables(self):
        stacks = {family: _FAMILIES[family].closed_form(default_grid(family, 1001).grid) for family in MIXED_FAMILIES}
        stacks["hs_real"] = real_draws(3401, 300, 8)
        stacks["rank3_real"] = real_draws(3402, 300, 3)
        assert all(m.dtype == np.float64 for m in stacks.values())
        return {kind: (m, _mixed_measure_table(m), reference_mixed_measure_table(m.astype(complex)))
                for kind, m in stacks.items()}

    @pytest.mark.parametrize("kind", REAL_KINDS)
    def test_within_bound_of_complex_route(self, tables, kind, monkeypatch):
        # the dtype picks the route: the float stack takes the real LAPACK
        # routines, its complex copy the complex ones
        m, table, complex_table = tables[kind]
        copy = m.astype(complex)
        calls = spy_on_lapack(monkeypatch)
        assert same_bits(_mixed_measure_table(m), table)
        assert calls == mixed_table_calls(len(m), "f")
        calls.clear()
        assert same_bits(_mixed_measure_table(copy), complex_table)
        assert calls == mixed_table_calls(len(m), "c")
        assert np.abs(table - complex_table).max() <= REAL_ROUTE_ATOL

    @pytest.mark.parametrize("tol", [1e-13, 1e-8, 1e-3, 0.1])
    @pytest.mark.parametrize("kind", REAL_KINDS)
    def test_same_certificates(self, tables, kind, tol):
        _, table, complex_table = tables[kind]
        held, _, ambiguous = _certify_table(table, tol)
        complex_held, _, complex_ambiguous = _certify_table(complex_table, tol)
        assert np.array_equal(held, complex_held)
        assert np.array_equal(ambiguous, complex_ambiguous)

    def test_real_and_complex_rows_in_one_stack(self, tables, monkeypatch):
        # the 101-point grid of each family, row by row between HS draws: a
        # complex stack, measured in complex arithmetic whatever its rows hold
        grid = np.concatenate([tables[family][0][::10] for family in MIXED_FAMILIES])
        hs = np.array([sample_hs_mixed(seed).matrix for seed in range(len(grid))])
        m = np.stack([grid, hs], axis=1).reshape(-1, 8, 8)
        assert m.dtype == np.complex128
        calls = spy_on_lapack(monkeypatch)
        table = _mixed_measure_table(m)
        # one batched complex call per spectrum
        assert calls == mixed_table_calls(808, "c")
        monkeypatch.undo()
        for i in range(len(m)):
            assert same_bits(table[i:i + 1], _mixed_measure_table(m[i:i + 1])), i
        # the grid rows' bits depend on the route, so a rule that measured
        # each row with no imaginary part in real arithmetic would fail here
        assert not same_bits(table[::2], reference_mixed_measure_table(grid))


def pair_factors(matrices):
    """The pair eigen-factors x of ``_mixed_measure_table``, shape (N, 3, 4, 4), and the pairs' smallest eigenvalues."""
    n = len(matrices)
    pairs = matrices.reshape(n, 64)[:, _PAIR_TRACE].sum(axis=-1).reshape(n, 3, 4, 4)
    return _psd_factor(pairs), np.linalg.eigvalsh(pairs)[..., 0]


def svd_concurrence(x):
    """The Wootters concurrence of pairs X X^dagger from the SVD of X^T (sy x sy) X, the route of a complex pair."""
    sv = np.linalg.svd(x.swapaxes(-1, -2) @ SIGMA_YY @ x, compute_uv=False)
    return np.clip(sv[..., 0] - sv[..., 1:].sum(axis=-1), 0.0, 1.0)


class TestRealSpinFlip:
    """On real rows the spin flip's singular values are the sorted |eigenvalues| of F = X^T (sy x sy) X.

    The real rows are the 101-point grids of the four mixed families, whose
    ends ghz_w_mix(0), ghz_noise(1) and rho_epsilon(-1) and (1) have
    rank-deficient pairs, and 300 real HS draws (seed 3603).
    """

    @pytest.fixture(scope="class")
    def factors(self):
        grids = [_FAMILIES[family].closed_form(default_grid(family).grid).real for family in MIXED_FAMILIES]
        return pair_factors(np.concatenate([*grids, real_draws(3603, 300, 8).real]))

    def test_singular_values_are_sorted_moduli_of_eigenvalues(self, factors):
        # they differ by at most 4.4e-16 on these rows
        x, lowest = factors
        f = (_FLIP_SIGN * x[..., ::-1, :]).swapaxes(-1, -2) @ x
        eig = np.linalg.eigvalsh(f)
        # rows whose largest |eigenvalue| is negative, and rank-deficient pairs
        assert (np.take_along_axis(eig, np.abs(eig).argmax(axis=-1)[..., np.newaxis], -1) < 0.0).sum() >= 100
        assert (lowest <= 1e-12).sum() >= 100
        ends = np.array([0, 201, 202, 302])  # ghz_w_mix(0), ghz_noise(1), rho_epsilon(-1), rho_epsilon(1)
        assert (lowest[ends] <= 1e-12).any(axis=-1).all()
        sv = np.linalg.svd(f, compute_uv=False)
        assert np.abs(np.sort(np.abs(eig), axis=-1)[..., ::-1] - sv).max() <= 1e-15

    def test_concurrence_equals_svd_route(self, factors):
        x, _ = factors
        assert x.dtype.kind == "f"
        assert np.abs(_pair_concurrence(x) - svd_concurrence(x)).max() <= 1e-15


#: the columns of the mixed table other than c_red_*
NOT_C_RED = [i for i in range(13) if i not in (7, 8, 9)]
#: on the stacks below a rotation moves every column but c_red_* by at most
#: 1.8e-15, and c_red_* of a pair reduction of full rank by at most 1.1e-15
LU_ATOL = 1e-14
#: a pair reduction whose smallest eigenvalue is at or below this is rank
#: deficient; on the stacks below the others have eigenvalues above 3e-4
RANK_DEFICIENT = 1e-12
#: the eigen-factor of a rank-deficient pair takes square roots of eigenvalues
#: that are rounding noise, a few eps, so its c_red_* may move by a few
#: sqrt(eps) = 1.5e-8: below, by 1.2e-8 at ghz_w_mix(0) and 7.1e-15 elsewhere
LU_DEFICIENT_ATOL = 1e-7


class TestLocalUnitaryInvariance:
    """The mixed table of u rho u^dagger, u = u_a x u_b x u_c, equals that of rho within stated bounds.

    The stacks are the 101-point grids of the four mixed families, 100 HS
    draws (seeds 0-99) and the projectors of every 20th row of the Haar
    corpus of ``pure_corpora``.  Each kind draws one ``random_local_unitary``
    per matrix, in row order, from ``np.random.default_rng(77)``; the
    rotated stack is validated as a user's matrix is.  A rotated real
    state is complex, so the family grids also hold the real route,
    eigvalsh spin flip included, to the complex route with its SVD.
    """

    KINDS = (*MIXED_FAMILIES, "hs", "projector")

    @pytest.fixture(scope="class")
    def tables(self):
        stacks = {family: _FAMILIES[family].closed_form(default_grid(family).grid) for family in MIXED_FAMILIES}
        stacks["hs"] = np.array([sample_hs_mixed(seed).matrix for seed in range(100)])
        stacks["projector"] = np.array([to_density(PureState(a)).matrix for a in pure_corpora()["haar"][::20]])
        out = {}
        for kind, m in stacks.items():
            rng = np.random.default_rng(77)
            u = np.array([random_local_unitary(rng) for _ in m])
            rotated = _validated_matrices(u @ m @ u.conj().swapaxes(-1, -2))
            assert rotated.imag.any(axis=(-2, -1)).all()
            out[kind] = (_mixed_measure_table(m), _mixed_measure_table(rotated), pair_factors(m)[1])
        return out

    @pytest.mark.parametrize("kind", KINDS)
    def test_columns_within_bounds(self, tables, kind):
        table, rotated, lowest = tables[kind]
        assert np.abs(table[:, NOT_C_RED] - rotated[:, NOT_C_RED]).max() <= LU_ATOL
        bound = np.where(lowest <= RANK_DEFICIENT, LU_DEFICIENT_ATOL, LU_ATOL)
        assert (np.abs(table[:, 7:10] - rotated[:, 7:10]) <= bound).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_certificates_outside_the_band(self, tables, kind):
        # a certificate or flag can change only where a witness lies within
        # its column's bound of zero_tol or of an edge of the ambiguity band;
        # witnesses 0-2 are c_red_bc, c_red_ac, c_red_ab, the pairs of
        # ``lowest``, and 3-7 are n_q and n_abc
        table, rotated, lowest = tables[kind]
        bound = np.concatenate([np.where(lowest <= RANK_DEFICIENT, LU_DEFICIENT_ATOL, LU_ATOL),
                                np.full((len(table), 5), LU_ATOL)], axis=1)
        for tol in (1e-13, 1e-8, 1e-3, 0.1):
            held, witness, ambiguous = _certify_table(table, tol)
            rotated_held, _, rotated_ambiguous = _certify_table(rotated, tol)
            edges = np.array([tol / AMBIGUITY_BAND, tol, tol * AMBIGUITY_BAND])
            near = (np.abs(witness[:, :8, np.newaxis] - edges) <= bound[..., np.newaxis]).any(axis=(1, 2))
            # no witness of these stacks is near an edge at 1e-3, so each is compared whole there
            assert tol != 1e-3 or not near.any()
            assert np.array_equal(held[~near], rotated_held[~near]), tol
            assert np.array_equal(ambiguous[~near], rotated_ambiguous[~near]), tol


def apply_non_unitaries(state):
    # the "unitaries" are not unitary, so a late type check would raise NotUnitaryError
    return apply_local_unitary(state, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


DENSITY_CALLS = {
    "negativity": lambda s: negativity(s, "A"),
    "concurrence_2q": concurrence_2q,
    "von_neumann_entropy": von_neumann_entropy,
    "tripartite_negativity": tripartite_negativity,
    "partial_trace": lambda s: partial_trace(s, "A"),
    "partial_transpose": lambda s: partial_transpose(s, "A"),
}
NOT_DENSITY = {"pure": ghz(), "str": "x", "array": np.eye(8) / 8}
PURE_CALLS = {
    "apply_local_unitary": apply_non_unitaries,
    "q_multiplicative": q_multiplicative,
    "eta3_multiplicative": eta3_multiplicative,
    "three_tangle": three_tangle,
    "additive_measure": lambda s: additive_measure(s, "tangle"),
    "classify_pure": classify_pure,
    "gsd": gsd,
    "to_density": to_density,
}
#: a DensityMatrix is a state, but not a pure one; the rest are not states
NOT_PURE = {
    "mixed": (rho_zero(), MixedStateUnsupportedError),
    "pair": (partial_trace(rho_zero(), "A"), MixedStateUnsupportedError),
    "str": ("x", StateTypeError),
    "array": (np.ones(8) / np.sqrt(8), StateTypeError),
    "none": (None, StateTypeError),
}
WRONG_TYPE_CASES = (
    [pytest.param(call, bad, StateTypeError, id=f"{name}-{kind}")
     for name, call in DENSITY_CALLS.items() for kind, bad in NOT_DENSITY.items()]
    + [pytest.param(classify_mixed, bad, StateTypeError, id=f"classify_mixed-{kind}")
       for kind, bad in NOT_DENSITY.items()]
    + [pytest.param(measure_set, bad, StateTypeError, id=f"measure_set-{kind}")
       for kind, bad in (("str", "x"), ("array", np.eye(8) / 8), ("none", None))]
    + [pytest.param(call, bad, error, id=f"{name}-{kind}")
       for name, call in PURE_CALLS.items() for kind, (bad, error) in NOT_PURE.items()]
)


@pytest.mark.parametrize("call, bad, error", WRONG_TYPE_CASES)
def test_wrong_state_type_rejected_before_numeric_work(call, bad, error, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("numeric work ran on a wrong-type argument")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    for name in ("_psd_factor", "_mixed_measure_table", "_pure_measure_table"):
        monkeypatch.setattr(triqent.measures, name, fail)
    monkeypatch.setattr(triqent.states, "transpose_qubit", fail)
    with pytest.raises(error):
        call(bad)


def test_state_type_error_is_a_type_error():
    assert issubclass(StateTypeError, TriqentError)
    assert issubclass(StateTypeError, TypeError)
