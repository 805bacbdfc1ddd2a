import dataclasses
import functools
import sys
import types
from collections import Counter

import numpy as np
import pytest

from triqent import (
    AmbiguousNearThresholdError,
    DensityMatrix,
    GsdForm,
    GsdPattern,
    MixedStateUnsupportedError,
    NonFiniteError,
    NumericalDegeneracyError,
    ParamOutOfDomainError,
    PureState,
    StateTypeError,
    SubtypeLabel,
    TriqentError,
    apply_local_unitary,
    classify_gsd_pattern,
    classify_pure,
    from_gsd_coefficients,
    ghz,
    ghz_like,
    gsd,
    measure_set,
    rho_zero,
    sample_haar_pure,
    svd_2x2,
    to_density,
    w_canonical,
    w_prime,
    w_state,
)
from triqent.cli import main, save_state_file
from triqent.gsd import _direction, _gsd_amplitudes, _phase_angles, _real_top, _top_pair
from triqent.measures import NEG_EIG_FLOOR
from helpers import (
    accepted_pure_states,
    hidden_canonical_corpus,
    hidden_w_state,
    near_separable_corpus,
    near_swap_w_state,
    near_unit_norm_corpus,
    nonzero_coefficients,
    pure_corpora,
    random_biseparable,
    random_local_unitary,
    random_product_state,
    random_unitary,
    sparse_canonical_corpus,
)

CANONICAL_INDICES = (0, 4, 6, 5, 7)  # alpha, beta, delta, epsilon, omega
ZERO_INDICES = (1, 2, 3)


def assert_canonical_zeros(form, psi):
    rotated = apply_local_unitary(psi, form.u_a, form.u_b, form.u_c)
    assert np.abs(rotated.amplitudes[list(ZERO_INDICES)]).max() < 1e-10


def assert_w_states_decided(make):
    # the W double root must locate well enough that beta and omega
    # come out at rounding level, far below the default threshold
    rng = np.random.default_rng(2024)
    for i in range(500):
        psi = make(rng)
        form = gsd(psi, mode="raw" if i % 2 == 0 else "normal")
        assert max(abs(form.beta), abs(form.omega)) < 1e-12
        pat = classify_gsd_pattern(form)
        assert pat.pattern == "W"
        assert pat.subtype == classify_pure(psi).label


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

    @pytest.mark.parametrize("mask", range(16), ids=lambda m: f"{m:04b}")
    def test_normal_mode_phase_rule(self, mask):
        # every zero/nonzero pattern of (beta, delta, epsilon, omega)
        # with alpha != 0 reaches its own case of the phase rule
        rng = np.random.default_rng(100 + mask)
        nonzero = [True] + [bool(mask >> (3 - k) & 1) for k in range(4)]
        for _ in range(25):
            c = rng.uniform(0.3, 1.0, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
            c *= nonzero
            c /= np.linalg.norm(c)
            psi = PureState(random_local_unitary(rng) @ from_gsd_coefficients(*c).amplitudes)
            form = gsd(psi, mode="normal")
            for name in ("alpha", "delta", "epsilon", "omega"):
                z = getattr(form, name)
                assert abs(z.imag) < 1e-12, name
                assert z.real > -1e-12, name
            rotated = apply_local_unitary(psi, form.u_a, form.u_b, form.u_c).amplitudes
            coefficients = rotated[list(CANONICAL_INDICES)]
            np.testing.assert_allclose(coefficients, form.coefficients, atol=1e-12)
            assert np.abs(rotated[list(ZERO_INDICES)]).max() < 1e-12

    def test_normalization(self):
        for seed in range(25):
            form = gsd(sample_haar_pure(seed))
            assert (np.abs(form.coefficients) ** 2).sum() == pytest.approx(1.0, abs=1e-10)

    def test_raw_mode_continuous(self):
        # raw phases are a function of the state: a rounding-level
        # perturbation must not flip them.  On an A-separable state the
        # picked slice is zero, so u_b and u_c come from the other one
        # (the BC Schmidt form); a 1e-14 perturbation there makes alpha
        # ~1e-14 and may move the largest-lambda direction itself
        rng = np.random.default_rng(13)

        def assert_still(psi, size):
            z = psi.amplitudes + size * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
            moved = gsd(PureState(z / np.linalg.norm(z)), mode="raw")
            assert np.abs(moved.coefficients - gsd(psi, mode="raw").coefficients).max() < 1e-10

        for seed in range(200):
            assert_still(sample_haar_pure(seed), 1e-14)
        for _ in range(200):
            assert_still(random_biseparable(rng, "A"), 1e-16)

    def test_repeat_calls_bit_identical(self):
        for seed in range(20):
            psi = sample_haar_pure(seed)
            for mode in ("raw", "normal"):
                a, b = gsd(psi, mode=mode), gsd(psi, mode=mode)
                assert np.array_equal(a.coefficients, b.coefficients)
                for name in ("u_a", "u_b", "u_c"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_no_general_eigensolve(self, monkeypatch, tmp_path, capsys):
        # the direction, the singular values of its slices and the factor of
        # the picked slice are all closed forms, so gsd makes no LAPACK call:
        # every function of np.linalg fails and is counted
        calls = []

        def fail(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"np.linalg.{name} called on the gsd path")

            return call

        path = tmp_path / "psi.json"
        save_state_file(path, sample_haar_pure(3))
        rng = np.random.default_rng(14)
        states = [sample_haar_pure(4), hidden_w_state(rng), random_product_state(rng)]
        states += [random_biseparable(rng, q) for q in "ABC"]
        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, fail(name))
        for psi in states:
            for mode in ("raw", "normal"):
                classify_gsd_pattern(gsd(psi, mode=mode))
        for mode in ("raw", "normal"):
            assert main(["gsd", str(path), "--mode", mode]) == 0
            assert "alpha" in capsys.readouterr().out
        assert calls == []

    @pytest.mark.parametrize("mode", ["raw", "normal"])
    def test_no_numpy_arithmetic(self, mode, monkeypatch):
        # every step runs on Python complexes, which no LAPACK spy can see:
        # given amplitudes that offer only tolist(), and the module's numpy
        # cut down to np.array, which may only wrap the three unitaries and
        # the form's stored amplitudes, every form comes out bit for bit as
        # before
        def form_bytes(psi):
            form = gsd(psi, mode=mode)
            coefficients = np.array([form.alpha, form.beta, form.delta, form.epsilon, form.omega])
            return b"".join(a.tobytes() for a in (coefficients, form.u_a, form.u_b, form.u_c))

        def list_only(psi):
            held = object.__new__(PureState)
            object.__setattr__(held, "amplitudes", types.SimpleNamespace(tolist=psi.amplitudes.tolist))
            return held

        built = []

        def array(*args, **kwargs):
            built.append(args)
            return np.array(*args, **kwargs)

        states = [PureState(a) for stack in pure_corpora().values() for a in stack]
        expected = [form_bytes(psi) for psi in states]
        monkeypatch.setattr(sys.modules["triqent.gsd"], "np", types.SimpleNamespace(array=array, ndarray=np.ndarray))
        assert [form_bytes(list_only(psi)) for psi in states] == expected
        assert len(built) == 4 * len(states)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_largest_lambda_root(self, seed):
        # det(T0 + z T1) = z (alpha omega + z (beta omega - delta epsilon))
        # on a canonical form: z = 0 gives lambda = |alpha|, and the second
        # root its own lambda; gsd must return the larger.  With |alpha|
        # at 1e-9..1e-6 both lambdas are that small, so comparing them
        # needs each root located far below that scale
        rng = np.random.default_rng(seed)
        for _ in range(400):
            mag = 10.0 ** rng.uniform(-9.0, -6.0)
            alpha = mag * np.exp(2j * np.pi * rng.uniform())
            beta, delta, epsilon, omega = nonzero_coefficients(rng, 4, min_mag=0.2) * np.sqrt(1 - mag**2)
            canonical = from_gsd_coefficients(alpha, beta, delta, epsilon, omega)
            t0, t1 = canonical.tensor
            z = -alpha * omega / (beta * omega - delta * epsilon)
            lam2 = np.linalg.norm(t0 + z * t1) / np.sqrt(1 + abs(z) ** 2)
            psi = PureState(random_local_unitary(rng) @ canonical.amplitudes)
            assert abs(gsd(psi).alpha) == pytest.approx(max(mag, lam2), rel=1e-3)

    def test_ghz_phase_preserved_in_raw_mode(self):
        for phi in (0.0, np.pi / 2, np.pi):
            amps = np.zeros(8, dtype=complex)
            amps[0] = 1 / np.sqrt(2)
            amps[7] = np.exp(1j * phi) / np.sqrt(2)
            form = gsd(PureState(amps), mode="raw")
            rel = np.angle(form.omega) - np.angle(form.alpha)
            delta = (rel - phi + np.pi) % (2 * np.pi) - np.pi
            assert abs(delta) < 1e-9


def reference_gsd(psi, mode):
    """Steps 2-4 of gsd from the LAPACK svd_2x2 of the same picked slice: (coefficients, u_a, u_b, u_c)."""
    t = psi.tensor
    x0, x1 = _direction(t.reshape(2, 4).tolist())
    u_a = np.array([[x0, x1], [-x1.conjugate(), x0.conjugate()]])
    ta = np.einsum("ia,ajk->ijk", u_a, t)
    u, _, v = svd_2x2(ta[1] if np.abs(ta[0]).max() <= 1e-14 else ta[0])
    u_b = np.array([u[:, 0].conj(), [-u[1, 0], u[0, 0]]])
    u_c = v.T
    tc = np.einsum("jb,kc,ibc->ijk", u_b, u_c, ta)
    if mode == "normal":
        g, pa, pb, pc = _phase_angles(tc[0, 0, 0], tc[1, 1, 0], tc[1, 0, 1], tc[1, 1, 1])
        d_a = np.exp(1j * g) * np.diag([1.0, np.exp(1j * pa)])
        d_b = np.diag([1.0, np.exp(1j * pb)])
        d_c = np.diag([1.0, np.exp(1j * pc)])
        tc = np.einsum("ia,jb,kc,abc->ijk", d_a, d_b, d_c, tc)
        u_a, u_b, u_c = d_a @ u_a, d_b @ u_b, d_c @ u_c
    return tc.reshape(8)[list(CANONICAL_INDICES)], u_a, u_b, u_c


@functools.cache
def factor_corpora():
    rng = np.random.default_rng(2021)
    corpora = {"haar": [sample_haar_pure(seed) for seed in range(500)]}
    for q in "ABC":
        corpora[f"biseparable_{q}"] = [random_biseparable(rng, q) for _ in range(200)]
    corpora["product"] = [random_product_state(rng) for _ in range(200)]
    corpora["hidden_w"] = [hidden_w_state(rng) for _ in range(200)]
    corpora["near_separable"] = near_separable_corpus(np.random.default_rng(7), 1500)
    corpora["hidden_canonical"] = hidden_canonical_corpus(np.random.default_rng(77), 300)
    return corpora


#: corpora where delta, epsilon or omega can sit just above _PHASE_TOL, so
#: a normal-mode phase knob is read from a rounding-level phase
ROUNDING_PHASED = ("near_separable", "hidden_canonical")


def assert_column_convention(v):
    """Each unit vector's larger-magnitude entry is real >= 0 (one of the two, when they tie to rounding)."""
    for col in v:
        top = max(abs(col[0]), abs(col[1]))
        assert any(abs(z) >= top - 1e-15 and abs(z.imag) <= 1e-15 and z.real >= 0.0 for z in col)
        assert abs(abs(col[0]) ** 2 + abs(col[1]) ** 2 - 1.0) < 1e-15


class TestSliceFactor:
    """The closed-form factor of the picked slice against the LAPACK path it replaces."""

    @pytest.mark.parametrize("corpus", list(factor_corpora()))
    def test_matches_svd_path(self, corpus):
        modes = ("raw",) if corpus in ROUNDING_PHASED else ("raw", "normal")
        for psi in factor_corpora()[corpus]:
            for mode in modes:
                form = gsd(psi, mode=mode)
                ref = reference_gsd(psi, mode)
                np.testing.assert_allclose(form.coefficients, ref[0], rtol=0, atol=1e-12)
                for got, want in zip((form.u_a, form.u_b, form.u_c), ref[1:]):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("corpus", ROUNDING_PHASED)
    def test_rounding_phased_normal_forms(self, corpus):
        # the phase knobs may differ from the LAPACK path there, but the
        # canonical zeros, the reconstruction and the sign rules hold
        for psi in factor_corpora()[corpus]:
            form = gsd(psi, mode="normal")
            rotated = apply_local_unitary(psi, form.u_a, form.u_b, form.u_c).amplitudes
            np.testing.assert_allclose(rotated[list(CANONICAL_INDICES)], form.coefficients, rtol=0, atol=1e-12)
            assert np.abs(rotated[list(ZERO_INDICES)]).max() < 1e-10
            for name in ("alpha", "delta", "epsilon", "omega"):
                z = getattr(form, name)
                assert abs(z.imag) <= 1e-12 and z.real >= -1e-12, name

    def test_zero_slice(self):
        u1, v = _top_pair((0j, 0j, 0j, 0j))
        assert u1 == (1.0, 0.0)
        np.testing.assert_array_equal(np.array(v), np.eye(2))

    def test_rank_one(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = random_unitary(rng)[:, 0], random_unitary(rng)[:, 0]
            s = 10.0 ** rng.uniform(-13.0, 0.0)
            m = s * np.outer(a, b.conj())
            u1, v = _top_pair(m.reshape(4).tolist())
            np.testing.assert_allclose(m @ np.array(v[0]), s * np.array(u1), rtol=0, atol=1e-15 * s)
            np.testing.assert_allclose(m @ np.array(v[1]), 0.0, atol=1e-15 * s)
            assert_column_convention(v)

    def test_proportional_to_unitary(self):
        # s1 = s2: every unit vector is a top singular vector, and v must
        # still be unitary and u1 the image of v1
        rng = np.random.default_rng(32)
        for m in [np.eye(2), np.array([[0, 1j], [1, 0]])] + [random_unitary(rng) for _ in range(100)]:
            u1, v = _top_pair((0.3 * m).reshape(4).tolist())
            np.testing.assert_allclose(np.array(v) @ np.array(v).conj().T, np.eye(2), atol=1e-15)
            np.testing.assert_allclose(0.3 * m @ np.array(v[0]), 0.3 * np.array(u1), atol=1e-15)
            assert_column_convention(v)

    def test_tie_rule(self):
        # entries of equal magnitude: the first is made real >= 0
        assert _real_top(1j, 1.0) == (1.0, -1j)
        assert _real_top(-1.0, 1j) == (1.0, -1j)
        for phase in (1.0, 1j, -1.0, np.exp(0.7j)):
            for m in ([[1, 1], [1, 1]], [[1, phase], [1, phase]], [[1, phase], [0, 0]]):
                m = np.array(m, dtype=complex) / 2
                u1, v = _top_pair(m.reshape(4).tolist())
                assert abs(abs(v[0][0]) - abs(v[0][1])) < 1e-15
                assert v[0][0].imag == 0.0 and v[0][0].real > 0.0
                np.testing.assert_allclose(m @ np.array(v[0]), np.linalg.norm(m) * np.array(u1), atol=1e-15)
                assert_column_convention(v)

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 12, 16, 100])
    def test_graded_diagonal_matches_svd_2x2(self, k):
        # U diag(1, 10^-k) W^dagger: the top pair is resolved to rounding,
        # and with svd_2x2's column convention it is svd_2x2's own
        rng = np.random.default_rng(33 + k)
        for _ in range(100):
            m = random_unitary(rng) @ np.diag([1.0, 10.0**-k]) @ random_unitary(rng).conj().T
            u1, v = _top_pair(m.reshape(4).tolist())
            u, _, v_ref = svd_2x2(m)
            np.testing.assert_allclose(np.array(u1), u[:, 0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(np.array(v).T, v_ref, rtol=0, atol=1e-14)
            assert_column_convention(v)


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

    def test_balanced_alpha_zero_form_is_product(self):
        # a form with alpha = 0 and beta*omega = delta*epsilon, as given,
        # not as gsd returns it: |1>_A (|0> + |1>)_B (|0> + |1>)_C / 2
        form = GsdForm(0j, 0.5, 0.5, 0.5, 0.5, "raw", np.eye(2), np.eye(2), np.eye(2))
        pat = classify_gsd_pattern(form)
        assert pat.pattern == "product"
        assert pat.subtype == SubtypeLabel("0-0")

    @pytest.mark.parametrize("mode", ["raw", "normal"])
    def test_separable_patterns_at_the_accuracy_floor(self, mode):
        # rounding leaves the zero coefficients of a product or biseparable
        # form near 1e-16, a decade below the ambiguity band of the floor
        # tolerance, so each pattern is decided, and decided right
        rng = np.random.default_rng(44)
        for kind in ("product", "A", "B", "C"):
            for _ in range(200):
                psi = random_product_state(rng) if kind == "product" else random_biseparable(rng, kind)
                label = classify_gsd_pattern(gsd(psi, mode=mode), zero_tol=NEG_EIG_FLOOR).subtype
                if kind == "product":
                    assert label.code == "0-0"
                else:
                    assert (label.code, label.separable_qubit) == ("1^1-1", kind)

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
        # a lone coefficient in the band decides nothing: beta = 3e-8 leaves
        # every margin far from zero_tol, and classify_pure decides W too
        c = np.array([0.6, 3e-8, 0.5, 0.4, 0.0], dtype=complex)
        psi = from_gsd_coefficients(*(c / np.linalg.norm(c)))
        res = classify_pure(psi, zero_tol=1e-8)
        assert not res.ambiguous
        for mode in ("raw", "normal"):
            pat = classify_gsd_pattern(gsd(psi, mode=mode), zero_tol=1e-8)
            assert pat == GsdPattern("W", res.label)
        # C_AB = 2|alpha delta| = 3.2e-8 is in the band, and so is n_B
        c = np.array([1.0, 0.0, 2e-8, 0.5, 0.0], dtype=complex)
        psi = from_gsd_coefficients(*(c / np.linalg.norm(c)))
        assert classify_pure(psi, zero_tol=1e-8).ambiguous
        for mode in ("raw", "normal"):
            with pytest.raises(AmbiguousNearThresholdError):
                classify_gsd_pattern(gsd(psi, mode=mode), zero_tol=1e-8)

    def test_hidden_w_states(self):
        assert_w_states_decided(hidden_w_state)

    def test_near_swap_w_states(self):
        # near a swap of qubit A the double root sits near z = infinity
        assert_w_states_decided(near_swap_w_state)

    def test_star_centred_on_a(self):
        # five nonzero coefficients with beta*omega = delta*epsilon leave
        # pair BC separable: C_BC = 2|beta*omega - delta*epsilon|
        rng = np.random.default_rng(21)
        for i in range(40):
            alpha, beta, delta, epsilon = nonzero_coefficients(rng, 4, min_mag=0.2)
            c = np.array([alpha, beta, delta, epsilon, delta * epsilon / beta])
            c /= np.linalg.norm(c)
            psi = from_gsd_coefficients(*c)
            if i % 2:
                psi = PureState(random_local_unitary(rng) @ psi.amplitudes)
            label = classify_pure(psi).label
            assert label.code == "2-2" and label.entangled_pairs == ("AC", "AB")
            for mode in ("raw", "normal"):
                pat = classify_gsd_pattern(gsd(psi, mode=mode))
                assert pat.pattern == "S''"
                assert pat.subtype == label

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_small_delta_epsilon_is_a_star(self, omega):
        # delta = epsilon = 2e-7 entangle pairs AB and AC, but their product
        # 4e-14 leaves pair BC separable: C_BC = 2|beta*omega - delta*epsilon|
        c = np.array([1.0, 0.0, 2e-7, 2e-7, omega])
        psi = from_gsd_coefficients(*(c / np.linalg.norm(c)))
        res = classify_pure(psi)
        assert not res.ambiguous
        assert res.label == SubtypeLabel("2-2", None, ("AC", "AB"))
        for mode in ("raw", "normal"):
            pat = classify_gsd_pattern(gsd(psi, mode=mode))
            assert pat == GsdPattern("S''", res.label)


#: the paper's catalogue: each pattern name and the subtype it stands for
CATALOGUE = {
    "product": SubtypeLabel("0-0"),
    "B": SubtypeLabel("1^1-1", "A", ("BC",)),
    "B'": SubtypeLabel("1^1-1", "B", ("AC",)),
    "B''": SubtypeLabel("1^1-1", "C", ("AB",)),
    "GHZ": SubtypeLabel("2-0"),
    "IV": SubtypeLabel("2-1", None, ("BC",)),
    "IV'": SubtypeLabel("2-1", None, ("AC",)),
    "IV''": SubtypeLabel("2-1", None, ("AB",)),
    "S": SubtypeLabel("2-2", None, ("BC", "AC")),
    "S'": SubtypeLabel("2-2", None, ("BC", "AB")),
    "S''": SubtypeLabel("2-2", None, ("AC", "AB")),
    "W": SubtypeLabel("2-3", None, ("BC", "AC", "AB")),
}

#: (alpha, beta, delta, epsilon, omega) before normalization, for each flag
#: combination (|beta omega - delta epsilon|, |alpha epsilon|, |alpha delta|,
#: |alpha omega| above 1e-8); small coefficients are 1e-6, so a product of
#: two is far below the tolerance and one of a small and a large far above
FLAG_FORMS = {
    (False, False, False, False): (1.0, 0.0, 0.0, 0.0, 0.0),
    (True, False, False, False): (0.0, 0.5, 0.0, 0.0, 0.5),
    (False, True, False, False): (0.5, 0.0, 0.0, 0.5, 0.0),
    (False, False, True, False): (0.5, 0.0, 0.5, 0.0, 0.0),
    (True, True, False, False): (1e-6, 0.5, 1e-6, 0.5, 0.0),
    (True, False, True, False): (1e-6, 0.5, 0.5, 1e-6, 0.0),
    (False, True, True, False): (1.0, 0.0, 1e-6, 1e-6, 0.0),
    (True, True, True, False): (0.5, 0.0, 0.5, 0.5, 0.0),
    (False, False, False, True): (0.5, 0.0, 0.0, 0.0, 0.5),
    (True, False, False, True): (0.5, 0.5, 0.0, 0.0, 0.5),
    (False, True, False, True): (0.5, 0.0, 0.0, 0.5, 0.5),
    (False, False, True, True): (0.5, 0.0, 0.5, 0.0, 0.5),
    (True, True, False, True): (0.5, 0.5, 0.0, 0.5, 0.5),
    (True, False, True, True): (0.5, 0.5, 0.5, 0.0, 0.5),
    (False, True, True, True): (0.5, 0.5, 0.5, 0.5, 0.5),
    (True, True, True, True): (0.5, 0.0, 0.5, 0.5, 0.5),
}


def test_every_flag_combination_names_its_subtype():
    # every combination of the four decision flags gives a catalogue name
    # whose subtype is the label, and that label is classify_pure's
    seen = set()
    for flags, c in FLAG_FORMS.items():
        alpha, beta, delta, epsilon, omega = np.array(c, dtype=complex) / np.linalg.norm(c)
        products = np.abs([beta * omega - delta * epsilon, alpha * epsilon, alpha * delta, alpha * omega])
        assert tuple(products > 1e-8) == flags
        form = GsdForm(alpha, beta, delta, epsilon, omega, "raw", np.eye(2), np.eye(2), np.eye(2))
        pat = classify_gsd_pattern(form)
        assert CATALOGUE[pat.pattern] == pat.subtype, flags
        res = classify_pure(form.to_state())
        assert not res.ambiguous and res.label == pat.subtype, flags
        seen.add(pat.pattern)
    assert seen == set(CATALOGUE)


#: the corpora on which the pattern must be classify_pure's decision
AGREEMENT_CORPORA = {
    "haar": lambda: [sample_haar_pure(seed) for seed in range(300)],
    "near_separable": lambda: near_separable_corpus(np.random.default_rng(7), 1500),
    "hidden_canonical": lambda: hidden_canonical_corpus(np.random.default_rng(77), 300),
    "sparse_canonical": lambda: sparse_canonical_corpus(np.random.default_rng(5), 3000),
}


@pytest.mark.parametrize("corpus", AGREEMENT_CORPORA)
def test_pattern_is_the_classify_pure_decision(corpus):
    # the pattern raises exactly where classify_pure flags its result, and
    # elsewhere names its label, in both modes
    for i, psi in enumerate(AGREEMENT_CORPORA[corpus]()):
        res = classify_pure(psi)
        for mode in ("raw", "normal"):
            form = gsd(psi, mode=mode)
            if res.ambiguous:
                with pytest.raises(AmbiguousNearThresholdError):
                    classify_gsd_pattern(form)
            else:
                assert classify_gsd_pattern(form).subtype == res.label, (i, mode)


NON_FINITE_COEFFICIENTS = {
    "alpha-nan": ("alpha", complex(np.nan, 0.0)),
    "beta-inf": ("beta", complex(np.inf, 0.0)),
    "delta-neg-inf": ("delta", complex(-np.inf, 0.0)),
    "omega-nanj": ("omega", complex(0.0, np.nan)),
}


@pytest.mark.parametrize(
    "name, value", NON_FINITE_COEFFICIENTS.values(), ids=NON_FINITE_COEFFICIENTS.keys()
)
def test_pattern_rejects_non_finite_coefficients(name, value):
    form = dataclasses.replace(gsd(w_prime()), **{name: value})
    with pytest.raises(NonFiniteError):
        classify_gsd_pattern(form)


def replaced_beta(form):
    """Malformed values of beta, by kind, each with the error every reader must raise.

    "off_norm" puts the five coefficients 1e-6 off unit norm.
    """
    return {"string": ("x", StateTypeError), "nan": (complex(np.nan, 0.0), NonFiniteError),
            "off_norm": (np.sqrt(abs(form.beta) ** 2 + 2e-6), ParamOutOfDomainError)}


#: the readers of a form's coefficients
FORM_READERS = {
    "coefficients": lambda form: form.coefficients,
    "to_state": GsdForm.to_state,
    "pattern": classify_gsd_pattern,
}


@pytest.mark.parametrize("reader", FORM_READERS)
@pytest.mark.parametrize("kind", ["string", "nan", "off_norm"])
def test_replaced_form_is_checked_on_every_read(kind, reader):
    # a form gsd made keeps its checked amplitudes, but a form rebuilt from
    # it with dataclasses.replace holds none, so it is checked on every
    # read and raises what a form the caller builds with those fields does
    read = FORM_READERS[reader]
    for psi in (w_prime(), ghz(), sample_haar_pure(3), sample_haar_pure(4)):
        for mode in ("raw", "normal"):
            form = gsd(psi, mode=mode)
            value, error = replaced_beta(form)[kind]
            replaced = dataclasses.replace(form, beta=value)
            built = GsdForm(*(getattr(replaced, f.name) for f in dataclasses.fields(GsdForm)))
            assert replaced._amplitudes is None and built._amplitudes is None
            for malformed in (replaced, built):
                with pytest.raises(error):
                    read(malformed)
            # the same fields unchanged pass the check, so only beta is refused
            read(dataclasses.replace(form))


def test_non_finite_direction_refused_by_gsd(monkeypatch):
    # gsd's forms are not checked again, so gsd refuses a NaN form itself:
    # a NaN canonical zero fails the residual check, which a NaN passes
    # when it is written as "above the tolerance"
    monkeypatch.setattr(sys.modules["triqent.gsd"], "_direction", lambda slices: (complex(np.nan, 0.0), 0j))
    for mode in ("raw", "normal"):
        with pytest.raises(NumericalDegeneracyError):
            gsd(w_state(), mode=mode)


@pytest.mark.parametrize("mode", ["raw", "normal"])
def test_form_readers_agree(mode):
    # coefficients, the five fields and the canonical state's amplitudes at
    # the canonical indices are the same numbers, bit for bit, and the
    # state's other amplitudes are exactly 0
    for corpus, stack in pure_corpora().items():
        for i, amps in enumerate(stack):
            form = gsd(PureState(amps), mode=mode)
            fields = np.array([form.alpha, form.beta, form.delta, form.epsilon, form.omega], dtype=complex)
            state = form.to_state().amplitudes
            assert form.coefficients.tobytes() == fields.tobytes(), (corpus, i)
            assert state[list(CANONICAL_INDICES)].tobytes() == fields.tobytes(), (corpus, i)
            assert (state[list(ZERO_INDICES)] == 0).all(), (corpus, i)


#: Haar draws and coefficient vectors of the norm-edge probe: about two
#: thirds of the draws are states PureState accepts
NORM_EDGE_DRAWS = 2000
NORM_EDGE_VECTORS = 3000


@functools.cache
def norm_edge_states():
    return accepted_pure_states(near_unit_norm_corpus(2911, NORM_EDGE_DRAWS))


def refusals(calls):
    """The TriqentErrors the zero-argument calls raise, counted by call name and error type.

    AmbiguousNearThresholdError is a verdict, not a refusal, and is not counted.
    """
    refused = Counter()
    for name, call in calls:
        try:
            call()
        except AmbiguousNearThresholdError:
            pass
        except TriqentError as exc:
            refused[name, type(exc).__name__] += 1
    return refused


@pytest.mark.parametrize("mode", ["raw", "normal"])
def test_stored_amplitudes_are_the_check_of_the_fields(mode):
    # the amplitudes a form of gsd stores are, byte for byte, what the one
    # check of canonical coefficients returns for its five fields, on
    # every pure corpus and every norm-edge state, and they are read-only
    states = [PureState(amps) for stack in pure_corpora().values() for amps in stack]
    for i, psi in enumerate(states + list(norm_edge_states())):
        form = gsd(psi, mode=mode)
        stored = form._amplitudes
        checked = _gsd_amplitudes(form.alpha, form.beta, form.delta, form.epsilon, form.omega)
        assert stored.dtype == checked.dtype and stored.tobytes() == checked.tobytes(), i
        assert not stored.flags.writeable, i


class TestNormEdge:
    """Every state PureState accepts at the edge of NORM_ATOL, and everything made from it, is accepted again.

    The rows of ``near_unit_norm_corpus`` lie within rounding of the norm
    bound, where a sum of the same squares in another order can fall on
    the other side of it.
    """

    @pytest.mark.parametrize("mode", ["raw", "normal"])
    def test_every_form_accepted(self, mode):
        forms = [gsd(psi, mode=mode) for psi in norm_edge_states()]
        assert len(forms) > NORM_EDGE_DRAWS // 4
        calls = [(name, call) for form in forms
                 for name, call in (("to_state", form.to_state), ("pattern", lambda f=form: classify_gsd_pattern(f)))]
        assert refusals(calls) == Counter()

    @pytest.mark.parametrize("make", [w_canonical, from_gsd_coefficients])
    def test_coefficient_check_is_the_state_check(self, make):
        # the coefficients either fail their own check or make a state PureState takes
        size = 3 if make is w_canonical else 5
        rows = near_unit_norm_corpus(2911, NORM_EDGE_VECTORS, size)
        refused = refusals((make.__name__, lambda row=row: make(*row)) for row in rows)
        assert set(refused) == {(make.__name__, "ParamOutOfDomainError")}

    def test_projector_is_a_density_matrix(self):
        calls = [("DensityMatrix", lambda psi=psi: DensityMatrix(to_density(psi).matrix)) for psi in norm_edge_states()]
        assert refusals(calls) == Counter()
