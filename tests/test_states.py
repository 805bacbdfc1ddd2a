import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triqent.states
from triqent import (
    DensityMatrix,
    FamilySpec,
    GsdForm,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    ParamOutOfDomainError,
    PureState,
    QubitNotPresentError,
    StateTypeError,
    WrongDimensionError,
    apply_local_unitary,
    classify_gsd_pattern,
    classify_mixed,
    classify_pure,
    default_grid,
    from_gsd_coefficients,
    ghz,
    ghz_like,
    gsd,
    make_state,
    measure_set,
    partial_trace,
    partial_transpose,
    rho_zero,
    sample_haar_pure,
    sample_hs_mixed,
    sweep,
    to_density,
    transpose_qubit,
    tripartite_negativity,
    w_canonical,
)
from triqent.cli import load_state_file, save_state_file
from triqent.states import EIG_FLOOR, _haar_draws, _validated_amplitudes, _validated_matrices
from helpers import (
    default_rng_haar_amplitudes,
    default_rng_haar_stack,
    domain_grid,
    nested,
    pure_corpora,
    random_biseparable,
    random_product_state,
    random_unitary,
    real_gaussian_draws,
    spy_on_lapack,
)


def _bits(a: np.ndarray) -> list:
    """The bits of a complex array, so that equality is bit identity."""
    return np.ascontiguousarray(a).view(np.uint64).tolist()


def basis_state(i, j, k):
    v = np.zeros(8, dtype=complex)
    v[4 * i + 2 * j + k] = 1.0
    return PureState(v)


PSI = ghz()
MALFORMED_INPUT = {
    "pure-string": (lambda: PureState("abc"), StateTypeError),
    "pure-objects": (lambda: PureState([object()] * 8), StateTypeError),
    "pure-ragged": (lambda: PureState([[1.0, 0.0], [0.0]]), StateTypeError),
    "pure-seven-entries": (lambda: PureState(np.ones(7) / np.sqrt(7)), WrongDimensionError),
    "pure-forty-deep": (lambda: PureState(nested(40)), WrongDimensionError),
    "density-string": (lambda: DensityMatrix("abc"), StateTypeError),
    "density-forty-deep": (lambda: DensityMatrix(nested(40)), WrongDimensionError),
    "density-forty-deep-string": (lambda: DensityMatrix(nested(40, "x")), StateTypeError),
    "density-not-square": (lambda: DensityMatrix(np.eye(8, 7) / 7), WrongDimensionError),
    "density-none-entries": (lambda: DensityMatrix([[None] * 8] * 8), StateTypeError),
    "density-layout-int": (lambda: DensityMatrix(np.eye(8) / 8, 3), QubitNotPresentError),
    "density-layout-none": (lambda: DensityMatrix(np.eye(8) / 8, None), QubitNotPresentError),
    "density-layout-nested": (lambda: DensityMatrix(np.eye(8) / 8, [["A"], "B", "C"]), QubitNotPresentError),
    "hs-layout-int": (lambda: sample_hs_mixed(1, 3), QubitNotPresentError),
    "classify_pure-tol-string": (lambda: classify_pure(PSI, "x"), ParamOutOfDomainError),
    "classify_pure-tol-none": (lambda: classify_pure(PSI, None), ParamOutOfDomainError),
    "classify_mixed-tol-string": (lambda: classify_mixed(to_density(PSI), "x"), ParamOutOfDomainError),
    "gsd_pattern-tol-complex": (lambda: classify_gsd_pattern(gsd(PSI), 1e-8j), ParamOutOfDomainError),
    "make_state-string": (lambda: make_state("ghz_like", "x"), ParamOutOfDomainError),
    "ghz-string": (lambda: ghz("x"), ParamOutOfDomainError),
    "ghz_like-complex": (lambda: ghz_like(0.5j), ParamOutOfDomainError),
    "w_canonical-string": (lambda: w_canonical("x", 0.6, 0.8), ParamOutOfDomainError),
    "gsd_coefficients-none": (lambda: from_gsd_coefficients(None, 1.0, 0, 0, 0), StateTypeError),
    "sweep-string": (lambda: sweep(FamilySpec("ghz_like", ((0.5,), ("x",)))), ParamOutOfDomainError),
    "default_grid-string": (lambda: default_grid("ghz_like", "x"), ParamOutOfDomainError),
}


@pytest.mark.parametrize("call, error", MALFORMED_INPUT.values(), ids=MALFORMED_INPUT.keys())
def test_malformed_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


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

    def test_density_keeps_hermitian_part(self):
        # an anti-Hermitian part within the tolerance is dropped, so the
        # stacked measures, which read one triangle, see the same matrix
        rho = sample_hs_mixed(4)
        skew = np.zeros((8, 8), dtype=complex)
        skew[0, 5], skew[5, 0] = 4e-11, -4e-11
        noisy = DensityMatrix(rho.matrix + skew)
        assert np.array_equal(noisy.matrix, noisy.matrix.conj().T)
        expected = measure_set(rho).as_dict()
        for name, value in measure_set(noisy).as_dict().items():
            if value is not None:
                assert abs(value - expected[name]) <= 1e-14, name

    def test_density_clamps_tiny_negative(self):
        rng = np.random.default_rng(0)
        u = random_unitary(rng, 4)
        w = np.array([0.5 + 2.5e-11, 0.5 + 2.5e-11, -5e-11, 0.0])
        rho = DensityMatrix((u * w) @ u.conj().T, ("B", "C"))
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-15
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12

    def test_layout_checked(self):
        with pytest.raises(QubitNotPresentError):
            DensityMatrix(np.eye(4) / 4, ("A", "A"))

    def test_only_ordered_layouts_enter(self):
        # a layout lists its labels in A, B, C order, so every stored matrix
        # is read in that order; the 15 sequences of distinct labels are the
        # 7 ordered layouts, 5 permutations of all three and 3 reversed pairs
        ordered = [("A", "B", "C"), ("A", "B"), ("A", "C"), ("B", "C"), ("A",), ("B",), ("C",)]
        for layout in ordered:
            d = 2 ** len(layout)
            assert DensityMatrix(np.eye(d) / d, layout).qubits == layout
            assert sample_hs_mixed(1, layout).qubits == layout
        unordered = [p for p in itertools.permutations("ABC") if p != ("A", "B", "C")]
        unordered += [pair[::-1] for pair in ordered[1:4]]
        assert len(unordered) == 8
        for layout in unordered:
            d = 2 ** len(layout)
            for call in (lambda: DensityMatrix(np.eye(d) / d, layout), lambda: sample_hs_mixed(1, layout),
                         lambda: transpose_qubit(np.eye(d) / d, layout, layout[0])):
                with pytest.raises(QubitNotPresentError, match="invalid qubit layout"):
                    call()
        # a reduction drops a label and keeps the order of the rest
        rho = sample_hs_mixed(5)
        for first in "ABC":
            pair = partial_trace(rho, first)
            assert pair.qubits in ordered
            for second in pair.qubits:
                assert partial_trace(pair, second).qubits in ordered


def random_density(rng, rank, noise=0.0):
    """A rank-``rank`` 8x8 density matrix G G^dagger / Tr, plus an anti-Hermitian part of size ``noise``."""
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    m = g @ g.conj().T
    skew = rng.standard_normal((8, 8)) * noise
    return m / m.trace().real + 1j * (skew + skew.T)


def bad_density(kind):
    m = np.eye(8, dtype=complex) / 8
    if kind == "nan":
        m[0, 1] = np.nan
    elif kind == "non-hermitian":
        m[0, 5] += 1e-6
    elif kind == "trace":
        m *= 1.01
    else:
        m = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    return m


def rank_deficient_stack():
    """128 density matrices of every rank from 1 to 8, half with a 1e-12 anti-Hermitian part.

    The rank-deficient rows carry rounding-level negative eigenvalues, so
    validation clamps at least ten of them.
    """
    rng = np.random.default_rng(31)
    stack = np.array([random_density(rng, rank, noise) for rank in range(1, 9)
                      for noise in (0.0, 1e-12) for _ in range(8)])
    sym = (stack + stack.conj().swapaxes(-1, -2)) / 2
    assert (np.linalg.eigvalsh(sym)[:, 0] < 0.0).sum() >= 10
    return stack


def reference_validated_matrices(m):
    """The eigenvector route validation took before it read eigenvalues alone, for valid stacks.

    One ``eigh`` of the whole stack; the rows whose smallest eigenvalue
    is negative are rebuilt from their clamped spectrum, largest weights first.
    """
    m = (m + m.conj().swapaxes(-1, -2)) / 2.0
    w, v = np.linalg.eigh(m)
    w, v = w[:, ::-1], v[..., ::-1]
    clamp = w[:, -1] < 0.0
    v = v[clamp]
    c = (v * np.clip(w[clamp], 0.0, None)[:, np.newaxis, :]) @ v.conj().swapaxes(-1, -2)
    c = (c + c.conj().swapaxes(-1, -2)) / 2.0
    c /= c.trace(axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
    m[clamp] = c
    return m


class TestStackedValidation:
    """``DensityMatrix`` and ``PureState`` validate through the stacked routines with N = 1."""

    def test_psd_stack_makes_one_eigenvalue_call(self, monkeypatch):
        stack = np.array([sample_hs_mixed(seed).matrix for seed in range(40)])
        calls = spy_on_lapack(monkeypatch)
        _validated_matrices(stack.copy())
        DensityMatrix(stack[0])
        assert calls == [("eigh", (40, 8, 8), "c"), ("eigh", (1, 8, 8), "c")]

    def test_rows_near_zero_make_one_eigenvector_call(self, monkeypatch):
        # the rank-deficient rows take their eigenvectors from the one eigh
        # call that reads every row's spectrum, and exactly the rows whose
        # smallest eigenvalue it rounds below zero are rebuilt
        stack = rank_deficient_stack()
        sym = (stack + stack.conj().swapaxes(-1, -2)) / 2
        clamped = np.linalg.eigh(sym)[0][:, 0] < 0.0
        assert 10 <= clamped.sum() < 7 * 16
        calls = spy_on_lapack(monkeypatch)
        validated = _validated_matrices(stack.copy())
        assert calls == [("eigh", (len(stack), 8, 8), "c")]
        assert _bits(validated[~clamped]) == _bits(sym[~clamped])
        assert all(_bits(row) != _bits(m) for row, m in zip(validated[clamped], sym[clamped]))

    def test_equals_eigenvector_route(self):
        rng = np.random.default_rng(5)
        stacks = [
            rank_deficient_stack(),
            np.array([sample_hs_mixed(seed).matrix for seed in range(200)]),
            np.array([to_density(sample_haar_pure(seed)).matrix for seed in range(200)]),
            np.array([random_density(rng, rank) for rank in (1, 2, 3) for _ in range(100)]),
        ]
        for stack in stacks:
            assert _bits(_validated_matrices(stack.copy())) == _bits(reference_validated_matrices(stack.copy()))
            for m in stack[::10]:
                assert _bits(DensityMatrix(m).matrix) == _bits(reference_validated_matrices(m[np.newaxis].copy())[0])

    def test_density_rows_equal_scalar_path(self):
        stack = rank_deficient_stack()
        validated = _validated_matrices(stack.copy())
        assert not validated.flags.writeable
        for row, m in zip(validated, stack):
            assert np.array_equal(row, DensityMatrix(m).matrix)

    def test_amplitude_rows_equal_scalar_path(self):
        amps = _haar_draws(np.random.default_rng(0), 300)
        validated = _validated_amplitudes(amps.copy())
        for row, a in zip(validated, amps):
            assert np.array_equal(row, PureState(a).amplitudes)

    @pytest.mark.parametrize("kind, error", [
        ("nan", NonFiniteError),
        ("non-hermitian", NotHermitianError),
        ("trace", NotNormalizedError),
        ("psd", NotPSDError),
    ])
    def test_density_errors_match_scalar_path(self, kind, error):
        with pytest.raises(error) as scalar:
            DensityMatrix(bad_density(kind))
        stack = np.array([np.eye(8) / 8] * 3 + [bad_density(kind)] + [np.eye(8) / 8], dtype=complex)
        with pytest.raises(error) as stacked:
            _validated_matrices(stack)
        assert stacked.value._row == 3
        assert str(stacked.value) == str(scalar.value)

    @pytest.mark.parametrize("bad, error", [(np.nan, NonFiniteError), (2.0, NotNormalizedError)])
    def test_amplitude_errors_match_scalar_path(self, bad, error):
        amps = np.full((4, 8), 1 / np.sqrt(8), dtype=complex)
        amps[2, 5] = bad
        with pytest.raises(error) as scalar:
            PureState(amps[2])
        with pytest.raises(error) as stacked:
            _validated_amplitudes(amps)
        assert stacked.value._row == 2
        assert str(stacked.value) == str(scalar.value)

    def test_eig_floor_bounds_the_clamp(self):
        u = random_unitary(np.random.default_rng(5), 8)
        for low, error in ((0.5 * EIG_FLOOR, None), (2.0 * EIG_FLOOR, NotPSDError)):
            w = np.full(8, (1.0 - low) / 7)
            w[-1] = low
            m = (u * w) @ u.conj().T
            if error is None:
                assert np.linalg.eigvalsh(_validated_matrices(m[np.newaxis])[0])[0] >= -1e-15
            else:
                with pytest.raises(error):
                    _validated_matrices(m[np.newaxis])


class TestStoredDtype:
    """A density matrix with no imaginary part is held as a read-only float64 matrix, however it was made.

    Its dtype then picks real LAPACK routines for its validation and for
    every measure of it; a matrix with an imaginary part stays complex128.
    """

    def test_real_input_is_float64(self, tmp_path):
        path = str(tmp_path / "ghz_noise.json")
        save_state_file(path, make_state("ghz_noise", 0.5))
        projector = to_density(ghz())
        made = {
            "DensityMatrix": DensityMatrix(np.eye(8) / 8),
            "DensityMatrix of complex dtype": DensityMatrix(np.eye(8, dtype=complex) / 8),
            "pair DensityMatrix": DensityMatrix(np.eye(4) / 4, ("A", "C")),
            "load_state_file": load_state_file(path),
            "make_state": make_state("ghz_w_mix", 0.3),
            "to_density": projector,
            "partial_trace": partial_trace(projector, "B"),
            "partial_trace of a float state": partial_trace(make_state("sigma_b", 0.4), "A"),
        }
        for name, rho in made.items():
            m = rho.matrix
            assert m.dtype == np.float64 and m.flags.c_contiguous and not m.flags.writeable, name

    def test_hs_draws_and_haar_projectors_stay_complex(self):
        states = [sample_hs_mixed(seed) for seed in range(50)]
        states += [to_density(sample_haar_pure(seed)) for seed in range(50)]
        states += [partial_trace(rho, "A") for rho in states[::10]]
        for rho in states:
            assert rho.matrix.dtype == np.complex128 and not rho.matrix.flags.writeable

    def test_real_validation_stores_the_real_hermitian_part(self, monkeypatch):
        # the draws are full rank, so validation clamps nothing and stores the
        # real part of the Hermitian part, the matrix a complex validation stored
        stack = real_gaussian_draws(38, 300)
        assert (np.linalg.eigvalsh(stack)[:, 0] > 0.0).all()
        hermitian = np.ascontiguousarray(triqent.states._hermitian_part(stack.copy()).real)
        calls = spy_on_lapack(monkeypatch)
        validated = _validated_matrices(stack.copy())
        assert calls == [("eigh", (300, 8, 8), "f")]
        assert validated.dtype == np.float64
        assert _bits(validated) == _bits(hermitian)
        monkeypatch.undo()
        for m, h in zip(stack[::30], hermitian[::30]):
            assert _bits(DensityMatrix(m).matrix) == _bits(h)

    def test_imaginary_parts_cancelling_in_the_hermitian_part(self):
        # m - m^dagger is 2e-12 i s, within HERM_ATOL; (m + m^dagger) / 2 is real
        real = real_gaussian_draws(39, 1)[0].real
        a = np.random.default_rng(40).standard_normal((8, 8))
        m = real + 1e-12j * (a + a.T)
        assert m.imag.any()
        rho = DensityMatrix(m)
        assert rho.matrix.dtype == np.float64
        assert _bits(rho.matrix) == _bits((real + real.T) / 2.0)


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

    def test_last_qubit_not_traced(self):
        with pytest.raises(WrongDimensionError):
            partial_trace(sample_hs_mixed(1, ("B",)), "B")

    def test_preserves_trace_and_psd(self):
        for seed in range(500):
            rho = sample_hs_mixed(seed)
            red = partial_trace(rho, "B")
            assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(red.matrix)[0] >= -1e-12

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
            w_bc = np.linalg.eigvalsh(partial_trace(rho, "A").matrix)
            single = partial_trace(partial_trace(rho, "B"), "C")
            w_a = np.linalg.eigvalsh(single.matrix)
            padded = np.concatenate([w_a, np.zeros(2)])
            np.testing.assert_allclose(np.sort(w_bc), np.sort(padded), atol=1e-10)


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho_a = sample_hs_mixed(2, ("A",))
        sigma = sample_hs_mixed(3, ("B", "C"))
        rho = DensityMatrix(np.kron(rho_a.matrix, sigma.matrix))
        pt = partial_transpose(rho, "A")
        w = np.linalg.eigvalsh(pt)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(rho.matrix), atol=1e-10)
        assert w[0] >= -1e-12

    def test_bell_spectrum(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()), ("B", "C"))
        w = np.linalg.eigvalsh(partial_transpose(rho, "B"))
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

    def test_accepts_unitaries_within_tolerance(self):
        # each factor deviates from unitary by 9.8e-11, within UNITARY_ATOL;
        # the three together scaled |111> to norm 1.00000000015, beyond
        # NORM_ATOL, before the product was renormalized
        u = np.diag([1.0, 1.0 + 4.9e-11])
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= triqent.states.UNITARY_ATOL
        out = apply_local_unitary(basis_state(1, 1, 1), u, u, u)
        np.testing.assert_allclose(out.amplitudes, basis_state(1, 1, 1).amplitudes, rtol=0, atol=1e-15)

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

    def test_stacked_draws_match_per_seed_draws(self):
        # each seed's stack against its stream drawn as one array and
        # normalized one vector at a time; row 0 is sample_haar_pure(seed),
        # the seed's 16 normals drawn alone
        for seed in range(1000, 1100):
            draws = _haar_draws(np.random.default_rng(seed), 20)
            assert np.array_equal(draws, default_rng_haar_stack(seed, 20))
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            expected = z / np.sqrt((np.abs(z) ** 2).sum())
            assert np.array_equal(draws[0], expected)
            assert np.array_equal(sample_haar_pure(seed).amplitudes, expected)

    @pytest.mark.parametrize("seed", [-1, -5, 1.5, "3", None, np.int64(-2), True])
    def test_bad_seed_rejected_before_drawing(self, seed, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew with a bad seed")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(triqent.states, "_haar_draws", no_draws)
        for sample in (sample_haar_pure, sample_hs_mixed):
            with pytest.raises(ParamOutOfDomainError, match="non-negative integer"):
                sample(seed)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(sample_haar_pure(np.int64(5)).amplitudes, sample_haar_pure(5).amplitudes)
        assert np.array_equal(sample_hs_mixed(np.uint8(5)).matrix, sample_hs_mixed(5).matrix)
        for seed in (np.uint8(200), np.int64(2**40), np.uint64(2**64 - 1)):
            assert _bits(sample_haar_pure(seed).amplitudes) == _bits(default_rng_haar_amplitudes(int(seed)))
            assert _bits(_haar_draws(np.random.default_rng(seed), 2)) == _bits(default_rng_haar_stack(int(seed), 2))

    @pytest.mark.parametrize("around", [0, 2**32, 2**64, 2**128, 2**160])
    def test_draws_bit_identical_to_default_rng(self, around):
        # seeds on both sides of a 32-bit word boundary, each stack drawn in
        # three calls on one generator against one default_rng array
        for seed in range(max(0, around - 3), around + 3):
            rng = np.random.default_rng(seed)
            draws = np.concatenate([_haar_draws(rng, n) for n in (1, 40, 9)])
            assert _bits(draws) == _bits(default_rng_haar_stack(seed, 50)), seed

    def test_draws_of_mixed_word_counts_in_one_stack(self):
        # seeds of one to seven 32-bit words, each drawing one stack of its
        # own stream
        seeds = [2**200 + 7, 3, 2**128 - 1, 2**160, 2**128 + 5, 2**32, 2**224 - 1, 0, 2**192 + 2**31, 2**64 + 9]
        for seed in seeds:
            assert _bits(_haar_draws(np.random.default_rng(seed), 10)) == _bits(default_rng_haar_stack(seed, 10)), seed

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0), st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
    def test_draws_match_default_rng_hypothesis(self, seed, sizes):
        # stacks of any sizes drawn in turn read on along one stream
        rng = np.random.default_rng(seed)
        draws = np.concatenate([_haar_draws(rng, n) for n in sizes])
        assert _bits(draws) == _bits(default_rng_haar_stack(seed, sum(sizes)))

    def test_concurrent_draws_match_serial_draws(self):
        # each thread makes its own generator, as each random command does,
        # so two threads drawing at once get what one thread drawing alone gets
        streams = ((10_000, 200), (2**64 - 100, 200))
        serial = [_bits(_haar_draws(np.random.default_rng(seed), n)) for seed, n in streams]
        barrier = threading.Barrier(len(streams), timeout=60)
        results = [[] for _ in streams]

        def draw(k):
            seed, n = streams[k]
            barrier.wait()
            for _ in range(50):
                results[k].append(_bits(_haar_draws(np.random.default_rng(seed), n)))

        threads = [threading.Thread(target=draw, args=(k,)) for k in range(len(streams))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(len(streams)):
            assert len(results[k]) == 50
            assert all(bits == serial[k] for bits in results[k])

    def test_hs_mixed_valid(self):
        rho = sample_hs_mixed(9)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


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
            raise AssertionError("stacked validator called")

        monkeypatch.setattr(triqent.states, "_validated_matrices", fail)
        for q in ("A", "B", "C"):
            partial_trace(to_density(psi), q)
        measure_set(psi)
        measure_set(mixed)
        classify_pure(psi)
        classify_mixed(mixed)
        with pytest.raises(AssertionError, match="stacked validator"):
            DensityMatrix(np.eye(8) / 8)

    def test_gsd_forms_checked_once_when_built(self, monkeypatch):
        # a form gsd derives is not checked; one a caller builds, or rebuilds
        # with dataclasses.replace, is checked once, when it is made, and no
        # read of either checks it again
        gsd_module = sys.modules["triqent.gsd"]
        check, calls = gsd_module._gsd_amplitudes, []

        def spy(*coefficients):
            calls.append(coefficients)
            return check(*coefficients)

        def read(form):
            form.coefficients, form.to_state(), classify_gsd_pattern(form)

        monkeypatch.setattr(gsd_module, "_gsd_amplitudes", spy)
        forms = [gsd(psi, mode=mode) for psi in (ghz(), sample_haar_pure(3)) for mode in ("raw", "normal")]
        for form in forms:
            read(form)
        assert calls == []
        for form in forms:
            for make in (lambda: GsdForm(*form.coefficients.tolist(), form.mode, form.u_a, form.u_b, form.u_c),
                         lambda: dataclasses.replace(form, beta=form.beta)):
                calls.clear()
                made = make()
                assert len(calls) == 1 and not made._amplitudes.flags.writeable
                read(made)
                assert len(calls) == 1

    def test_derived_pure_states_skip_validation(self, monkeypatch):
        # the six producers of derived amplitudes build through the unchecked
        # door, so a spy on PureState's check sees no call from them;
        # from_gsd_coefficients runs the check of canonical coefficients,
        # and runs it exactly once
        gsd_module = sys.modules["triqent.gsd"]
        check_amplitudes, check_coefficients = _validated_amplitudes, gsd_module._gsd_amplitudes
        amplitude_calls, coefficient_calls = [], []

        def amplitude_spy(amps):
            amplitude_calls.append(amps)
            return check_amplitudes(amps)

        def coefficient_spy(*coefficients):
            coefficient_calls.append(coefficients)
            return check_coefficients(*coefficients)

        built = GsdForm(0.6, 0.0, 0.48j, 0.0, 0.64, "raw", np.eye(2), np.eye(2), np.eye(2))
        monkeypatch.setattr(triqent.states, "_validated_amplitudes", amplitude_spy)
        monkeypatch.setattr(gsd_module, "_gsd_amplitudes", coefficient_spy)
        u = random_unitary(np.random.default_rng(5))
        produced = {
            "sample_haar_pure": lambda: sample_haar_pure(3),
            "make_state": lambda: make_state("ghz_like", 0.3),
            "make_state-w_canonical": lambda: make_state("w_canonical", 0.6, 0.8j, 0.0),
            "ghz": lambda: ghz(0.7),
            "apply_local_unitary": lambda: apply_local_unitary(ghz(), u, u.T, u.conj()),
            "to_state": lambda: gsd(sample_haar_pure(4), mode="normal").to_state(),
            "to_state-built": built.to_state,
            "from_gsd_coefficients": lambda: from_gsd_coefficients(0.6, 0.0, 0.48j, 0.0, 0.64),
        }
        for name, make in produced.items():
            coefficient_calls.clear()
            psi = make()
            assert isinstance(psi, PureState) and not psi.amplitudes.flags.writeable, name
            assert len(coefficient_calls) == (name == "from_gsd_coefficients"), name
        assert amplitude_calls == []
        # the spy does see PureState's own check
        PureState(ghz().amplitudes)
        assert len(amplitude_calls) == 1

    def test_skipped_pure_check_would_pass(self):
        # PureState's check of each producer's amplitudes passes and gives
        # them back bit for bit, on: gsd in both modes of all 7403 rows of
        # pure_corpora(), for to_state and from_gsd_coefficients; ghz_like's
        # domain_grid (2003 points, seed 0) and the named pure states, for
        # make_state; 201 phases in [-7, 7], for ghz; seeds 0-199, for
        # sample_haar_pure; and 200 Haar unitary triples (seed 41), triple i
        # on every corpus row j with j % 200 == i, for apply_local_unitary
        rows = np.concatenate(list(pure_corpora().values()))
        assert len(rows) == 7403
        states = [PureState(a) for a in rows]
        produced = []
        for mode in ("raw", "normal"):
            forms = [gsd(psi, mode=mode) for psi in states]
            produced += [form.to_state() for form in forms]
            produced += [from_gsd_coefficients(*form.coefficients.tolist()) for form in forms]
        produced += [make_state("ghz_like", *p) for p in domain_grid("ghz_like")]
        produced += [make_state(name) for name in ("ghz", "w", "w_prime")]
        produced += [ghz(phase) for phase in np.linspace(-7.0, 7.0, 201)]
        produced += [sample_haar_pure(seed) for seed in range(200)]
        rng = np.random.default_rng(41)
        triples = [[random_unitary(rng) for _ in range(3)] for _ in range(200)]
        produced += [apply_local_unitary(psi, *triples[j % 200]) for j, psi in enumerate(states)]
        assert len(produced) == 4 * 7403 + 2003 + 3 + 201 + 200 + 7403
        for psi in produced:
            checked = PureState(psi.amplitudes).amplitudes
            assert checked.dtype == psi.amplitudes.dtype == np.complex128
            assert checked.tobytes() == psi.amplitudes.tobytes()

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
