"""Every callable public name of ``triqent`` rejects malformed arguments with a typed error.

Each entry of ``SLOTS`` names the arguments of one call: valid values,
built before the test patches LAPACK, and for each argument the kind
of value it must reject.  Each rejection must be a ``TriqentError``
raised before any ``np.linalg`` eigensolve or SVD runs.  A public
callable with no entry (and not in ``EXEMPT``) fails
``test_every_public_callable_is_covered``, so new entry points are
covered too.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

import triqent
from triqent import (
    FamilySpec,
    GsdForm,
    NonFiniteError,
    ParamOutOfDomainError,
    StateTypeError,
    TriqentError,
    classify_gsd_pattern,
    default_grid,
    from_gsd_coefficients,
    ghz,
    gsd,
    partial_trace,
    rho_zero,
    sweep,
)

NAN = math.nan
INF = math.inf

# each function below gives the malformed values of one kind of argument:
# a wrong type, NaN, a string, None and a wrong shape, and for a number,
# vector or matrix also an infinite value, booleans, which Python counts
# as ints and numpy casts to 0 or 1, and an int beyond the float range
# (not for integer(): a seed may be arbitrarily large), and where numpy's
# longdouble is wider than a float (as on x86_64), a longdouble beyond
# the float range

HUGE = 10**400
HUGE_LONGDOUBLE = np.finfo(np.longdouble).max


def wide(value):
    """{"huge_longdouble": value} where a longdouble holds more than a float, else {}."""
    return {"huge_longdouble": value} if HUGE_LONGDOUBLE > np.finfo(np.float64).max else {}


def pure():
    return {"wrong_type": rho_zero(), "nan": NAN, "string": "x", "none": None, "wrong_shape": np.zeros(5)}


def density():
    return {"wrong_type": ghz(), "nan": NAN, "string": "x", "none": None, "wrong_shape": np.eye(8) / 8}


def three_qubit_state():
    # a DensityMatrix over two qubits is the wrong shape for a three-qubit call
    return {"wrong_type": object(), "nan": NAN, "string": "x", "none": None,
            "wrong_shape": partial_trace(rho_zero(), "A")}


def real():
    return {"wrong_type": 0.5j, "nan": NAN, "string": "x", "none": None, "wrong_shape": np.full(2, 0.5),
            "infinite": INF, "minus_infinite": -INF, "boolean": True, "zero_d_boolean": np.array(True),
            "huge_integer": HUGE} | wide(HUGE_LONGDOUBLE)


def tolerance():
    # a family parameter may lie below the accuracy floor, a zero_tol may not
    return real() | {"below_floor": 1e-14}


def complex_number():
    # a state's coefficient: a huge finite one must fail the norm check, not overflow it
    return {"wrong_type": [0.5], "nan": complex(NAN, 0.0), "string": "x", "none": None,
            "wrong_shape": np.full(2, 0.5), "infinite": complex(INF, 0.0), "boolean": True,
            "zero_d_boolean": np.array(True), "huge_integer": HUGE, "huge_finite": 1e200,
            **wide(np.clongdouble(HUGE_LONGDOUBLE))}


def name():
    return {"wrong_type": 1, "nan": NAN, "string": "x", "none": None, "wrong_shape": np.array(["A", "B"])}


def integer():
    return {"wrong_type": 1.5, "nan": NAN, "string": "x", "none": None, "wrong_shape": np.arange(2),
            "boolean": True}


def layout():
    # a permutation of A, B, C would store the matrix in another order than the one every call reads
    return {"wrong_type": 3, "nan": NAN, "string": "x", "none": None, "wrong_shape": ("A", "B", "C", "A"),
            "permuted": ("B", "A", "C")}


def matrix(shape):
    # cast to numbers, the boolean matrices would be valid: the identity for
    # a 2x2 unitary, |000><000| for an 8x8 density matrix; numpy casts the
    # nested list with one True among floats to a float array
    valid = np.eye(2) if shape == (2, 2) else np.diag(np.arange(shape[0]) == 0).astype(float)
    mixed_boolean, huge, huge_longdouble = valid.tolist(), valid.tolist(), valid.astype(np.longdouble)
    mixed_boolean[0][0], huge[0][0], huge_longdouble[0, 0] = True, HUGE, HUGE_LONGDOUBLE
    infinite = valid.copy()
    infinite[0, 0] = INF
    return {"wrong_type": object(), "nan": np.full(shape, NAN), "string": "x", "none": None,
            "wrong_shape": np.eye(shape[0] + 1), "infinite": infinite, "boolean": valid.astype(bool),
            "mixed_boolean": mixed_boolean, "huge_integer": huge, **wide(huge_longdouble)}


def state_matrix(shape):
    # a density matrix's or a unitary's entries have modulus at most 1; a
    # finite one far beyond must fail its check, not overflow its sums (a
    # raw matrix, as transpose_qubit and svd_2x2 take, may hold one)
    if shape == (2, 2):
        huge = 1e200 * np.eye(2)
    else:
        huge = np.eye(shape[0]) / shape[0]
        huge[0, 1] = huge[1, 0] = 1e308
    return matrix(shape) | {"huge_finite": huge}


def spec():
    return {"wrong_type": default_grid("ghz_like", 3).grid, "nan": FamilySpec("ghz_like", ((NAN,),)),
            "string": "x", "none": None, "wrong_shape": FamilySpec("ghz_like", ((0.5, 0.5),)),
            "boolean": FamilySpec("ghz_like", ((0.5,), (True,))), "mapping": FamilySpec("ghz_like", ({0.5: 1},)),
            **wide(FamilySpec("ghz_like", np.full((1, 1), HUGE_LONGDOUBLE)))}


def form():
    nan_form = GsdForm(NAN, 0j, 0j, 0j, 0j, "raw", np.eye(2), np.eye(2), np.eye(2))
    # read as the number 1, True would make this the product form |000>
    boolean_form = GsdForm(True, 0j, 0j, 0j, 0j, "raw", np.eye(2), np.eye(2), np.eye(2))
    return {"wrong_type": ghz(), "nan": nan_form, "string": "x", "none": None, "wrong_shape": np.zeros(5),
            "boolean": boolean_form, **wide(dataclasses.replace(nan_form, alpha=HUGE_LONGDOUBLE))}


def vector(n):
    # numpy casts the list with one True among floats to a float array
    return {"wrong_type": object(), "nan": np.full(n, NAN), "string": "x", "none": None,
            "wrong_shape": np.full(n + 1, 1 / np.sqrt(n + 1)), "infinite": [INF] + [0.0] * (n - 1),
            "boolean": [True] + [False] * (n - 1),
            "mixed_boolean": [True] + [0.0] * (n - 1), "huge_integer": [HUGE] + [0] * (n - 1),
            "huge_finite": [1e200] + [0] * (n - 1),
            **wide(np.array([HUGE_LONGDOUBLE] + [0] * (n - 1), dtype=np.longdouble))}


W = (1 / np.sqrt(3),) * 3
GSD = (0.6, 0.0, 0.0, 0.0, 0.8)


#: public name -> (valid arguments, malformed values of each argument);
#: both are built by functions, so LAPACK can run before it is patched
SLOTS = {
    "PureState": (lambda: (ghz().amplitudes,), lambda: [vector(8)]),
    "DensityMatrix": (lambda: (np.eye(8) / 8, ("A", "B", "C")), lambda: [state_matrix((8, 8)), layout()]),
    "apply_local_unitary": (lambda: (ghz(), np.eye(2), np.eye(2), np.eye(2)),
                            lambda: [pure(), state_matrix((2, 2)), state_matrix((2, 2)), state_matrix((2, 2))]),
    "partial_trace": (lambda: (rho_zero(), "A"), lambda: [density(), name()]),
    "partial_transpose": (lambda: (rho_zero(), "A"), lambda: [density(), name()]),
    "transpose_qubit": (lambda: (np.eye(8) / 8, ("A", "B", "C"), "A"),
                        lambda: [matrix((8, 8)), layout(), name()]),
    "to_density": (lambda: (ghz(),), lambda: [pure()]),
    "sample_haar_pure": (lambda: (3,), lambda: [integer()]),
    "sample_hs_mixed": (lambda: (3, ("A", "B", "C")), lambda: [integer(), layout()]),
    "measure_set": (lambda: (ghz(),), lambda: [three_qubit_state()]),
    "negativity": (lambda: (rho_zero(), "A"), lambda: [density(), name()]),
    "tripartite_negativity": (lambda: (rho_zero(),), lambda: [three_qubit_state()]),
    "concurrence_2q": (lambda: (partial_trace(rho_zero(), "A"),), lambda: [density()]),
    "von_neumann_entropy": (lambda: (rho_zero(),), lambda: [density()]),
    "q_multiplicative": (lambda: (ghz(),), lambda: [pure()]),
    "eta3_multiplicative": (lambda: (ghz(),), lambda: [pure()]),
    "three_tangle": (lambda: (ghz(),), lambda: [pure()]),
    "additive_measure": (lambda: (ghz(), "tangle"), lambda: [pure(), name()]),
    "classify_pure": (lambda: (ghz(), 1e-8), lambda: [pure(), tolerance()]),
    "classify_mixed": (lambda: (rho_zero(), 1e-8), lambda: [three_qubit_state(), tolerance()]),
    "gsd": (lambda: (ghz(), "raw"), lambda: [pure(), name()]),
    "classify_gsd_pattern": (lambda: (gsd(ghz()), 1e-8), lambda: [form(), tolerance()]),
    "svd_2x2": (lambda: (np.eye(2),), lambda: [matrix((2, 2))]),
    "make_state": (lambda: ("ghz_like", 0.5), lambda: [name(), real()]),
    "oracle": (lambda: ("ghz_like", 0.5), lambda: [name(), real()]),
    "default_grid": (lambda: ("ghz_like", 3), lambda: [name(), integer()]),
    "sweep": (lambda: (default_grid("ghz_like", 3),), lambda: [spec()]),
    "ghz": (lambda: (0.0,), lambda: [real()]),
    "ghz_like": (lambda: (0.5,), lambda: [real()]),
    "ghz_noise": (lambda: (0.5,), lambda: [real()]),
    "ghz_w_mix": (lambda: (0.5,), lambda: [real()]),
    "rho_epsilon": (lambda: (0.5,), lambda: [real()]),
    "sigma_b": (lambda: (0.5,), lambda: [real()]),
    "w_canonical": (lambda: W, lambda: [complex_number()] * 3),
    "from_gsd_coefficients": (lambda: GSD, lambda: [complex_number()] * 5),
}

#: public callables that take no argument a caller could get wrong
EXEMPT = {
    "rho_zero": "takes no arguments",
    "w_prime": "takes no arguments",
    "w_state": "takes no arguments",
    # plain records: results of the calls above, or their input (FamilySpec
    # and GsdForm), whose fields sweep and the coefficient check of
    # classify_gsd_pattern, to_state and coefficients read (see RECORD_FIELDS)
    "Certificate": "result record",
    "GsdPattern": "result record",
    "MeasureSet": "result record",
    "MixedVerdict": "result record",
    "PureClassification": "result record",
    "SubtypeLabel": "result record",
    "SweepRow": "result record",
    "FamilySpec": "input record, checked by sweep",
    "GsdForm": "input record, whose coefficients classify_gsd_pattern, to_state and coefficients check "
               "as from_gsd_coefficients does",
}


def test_result_records_flag_ambiguity():
    # both classifiers' records carry the flag; MixedVerdict's has a default,
    # so a verdict built without it, as before the flag, reads as decided
    assert "ambiguous" in {f.name for f in dataclasses.fields(triqent.PureClassification)}
    assert [f.name for f in dataclasses.fields(triqent.MixedVerdict)] == ["certificates", "measures", "ambiguous"]
    verdict = triqent.classify_mixed(rho_zero())
    assert verdict.ambiguous is False
    assert triqent.MixedVerdict(verdict.certificates, verdict.measures) == verdict
    near = triqent.classify_mixed(triqent.ghz_noise(0.2 + 4e-8))
    assert near.ambiguous is True and "GHZ-distillable" in near.claims()


def public_callables():
    names = []
    for attr in dir(triqent):
        obj = getattr(triqent, attr)
        if attr.startswith("_") or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, TriqentError):
            continue  # the error types themselves
        names.append(attr)
    return names


def test_every_public_callable_is_covered():
    names = set(public_callables())
    assert names - set(SLOTS) - set(EXEMPT) == set()
    assert set(SLOTS) | set(EXEMPT) <= names  # no stale entries
    assert not set(SLOTS) & set(EXEMPT)


CASES = [
    pytest.param(attr, slot, kind, id=f"{attr}-{slot}-{kind}")
    for attr, (_, bad) in SLOTS.items()
    for slot, values in enumerate(bad())
    for kind in values
]


@pytest.mark.parametrize("attr, slot, kind", CASES)
def test_malformed_argument_raises_typed_error(attr, slot, kind, monkeypatch):
    valid, bad = SLOTS[attr]
    args = list(valid())
    args[slot] = bad()[slot][kind]

    def fail(*a, **k):
        raise AssertionError("np.linalg ran on a malformed argument")

    for lapack in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, lapack, fail)
    with pytest.raises(TriqentError):
        getattr(triqent, attr)(*args)


@pytest.mark.parametrize("attr", sorted(SLOTS))
def test_valid_arguments_accepted(attr):
    # the malformed cases above differ from these in one argument only
    valid, _ = SLOTS[attr]
    getattr(triqent, attr)(*valid())


def state_entries(state):
    return state.amplitudes if isinstance(state, triqent.PureState) else state.matrix


@pytest.mark.parametrize("call, value", [
    (triqent.ghz_like, 0.5),
    (lambda x: triqent.make_state("ghz_noise", x), 0.5),
    (lambda x: triqent.w_canonical(x, *W[1:]), W[0]),
    (lambda x: triqent.PureState([x] + [0.0] * 7), 1.0),
], ids=["ghz_like", "make_state", "w_canonical", "PureState"])
def test_zero_d_numeric_array_counts_as_its_number(call, value):
    # a 0-d boolean array is rejected: the zero_d_boolean kind above
    assert np.array_equal(state_entries(call(np.array(value))), state_entries(call(value)))


def test_point_count_beyond_an_index_rejected():
    # integer() has no huge_integer kind, since a seed may be arbitrarily
    # large; a grid count is bounded by what an array can hold.  numpy
    # raised IndexError or ValueError for the two smaller counts, and
    # sigma_b's grid at sys.maxsize came out empty; none of them allocates
    for family in triqent.SWEEPABLE:
        for points in (HUGE, sys.maxsize, 2**60):
            with pytest.raises(ParamOutOfDomainError):
                default_grid(family, points)


def gsd_form(**fields):
    """The GHZ canonical form with the given coefficients replaced."""
    coefficients = dict(alpha=1 / np.sqrt(2), beta=0j, delta=0j, epsilon=0j, omega=1 / np.sqrt(2)) | fields
    return GsdForm(**coefficients, mode="raw", u_a=np.eye(2), u_b=np.eye(2), u_c=np.eye(2))


#: the calls that check a form's coefficients, by the suffix of their case names:
#: one rule, so each malformed form raises one error type from all four
FORM_CALLS = {
    "": classify_gsd_pattern,
    "-to_state": GsdForm.to_state,
    "-coefficients": lambda form: form.coefficients,
    "-from_gsd_coefficients": lambda form: from_gsd_coefficients(
        form.alpha, form.beta, form.delta, form.epsilon, form.omega),
}

#: a malformed field of an input record -> (the call that reads it, the error it must raise)
RECORD_FIELDS = {
    "FamilySpec-family-number": (lambda: sweep(FamilySpec(1, ((0.5,),))), ParamOutOfDomainError),
    "FamilySpec-family-none": (lambda: sweep(FamilySpec(None, ((0.5,),))), ParamOutOfDomainError),
    "FamilySpec-grid-number": (lambda: sweep(FamilySpec("ghz_like", 5)), ParamOutOfDomainError),
    "FamilySpec-grid-none": (lambda: sweep(FamilySpec("ghz_like", None)), ParamOutOfDomainError),
    "FamilySpec-grid-empty": (lambda: sweep(FamilySpec("ghz_like", ())), ParamOutOfDomainError),
    "FamilySpec-point-number": (lambda: sweep(FamilySpec("ghz_like", ((0.5,), 5))), ParamOutOfDomainError),
    "FamilySpec-point-none": (lambda: sweep(FamilySpec("ghz_like", ((0.5,), None))), ParamOutOfDomainError),
    "FamilySpec-point-string": (lambda: sweep(FamilySpec("ghz_like", ((0.5,), "x"))), ParamOutOfDomainError),
    **{
        f"GsdForm-{name}-{kind}{suffix}": (lambda call=call, name=name, value=value: call(gsd_form(**{name: value})),
                                           error)
        for name in ("alpha", "beta", "delta", "epsilon", "omega")
        for kind, value, error in (("string", "x", StateTypeError), ("none", None, StateTypeError),
                                   ("list", [0.5], StateTypeError), ("nan", NAN, NonFiniteError))
        for suffix, call in FORM_CALLS.items()
    },
    # the GHZ form at norm 1e-5, whose absolute margins would read "product"
    **{
        f"GsdForm-scaled{suffix}": (lambda call=call: call(gsd_form(alpha=0.6e-5, omega=0.8e-5)),
                                    ParamOutOfDomainError)
        for suffix, call in FORM_CALLS.items()
    },
}


@pytest.mark.parametrize("case", sorted(RECORD_FIELDS))
def test_malformed_record_field_raises_typed_error(case, monkeypatch):
    call, error = RECORD_FIELDS[case]

    def fail(*a, **k):
        raise AssertionError("np.linalg ran on a malformed record field")

    for lapack in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, lapack, fail)
    with pytest.raises(error):
        call()


def test_well_formed_records_accepted():
    # the malformed records above differ from these in one field only
    assert len(sweep(FamilySpec("ghz_like", ((0.5,), (0.25,))))) == 2
    assert classify_gsd_pattern(gsd_form()).pattern == "GHZ"
