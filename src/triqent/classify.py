"""Entanglement subtype assignment.

Pure states get a complete label (the subtype taxonomy is decidable
there); mixed states get a verdict made of numerically witnessed
exclusion certificates, because no general separability test exists.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ParamOutOfDomainError
from .measures import (_MEASURE_NAMES, NEG_EIG_FLOOR, MeasureSet, _measure_sets, _mixed_measure_table,
                       _pure_measure_table)
from .states import COMPLEMENT, QUBITS, DensityMatrix, PureState, _is_number, _require_density, _require_pure

DEFAULT_ZERO_TOL = 1e-8
#: a decision quantity within this factor of zero_tol, on either side,
#: makes its decision ambiguous
AMBIGUITY_BAND = 10.0


def _near_threshold(x, zero_tol: float):
    """Whether ``x`` (a number, or elementwise an array) lies within AMBIGUITY_BAND of zero_tol."""
    return (zero_tol / AMBIGUITY_BAND <= x) & (x <= zero_tol * AMBIGUITY_BAND)


def check_zero_tol(zero_tol: float) -> None:
    """Reject a threshold that is not a finite real number of at least NEG_EIG_FLOOR.

    A NaN or infinite threshold (NonFiniteError) would decide every
    comparison one way.  A zero or negative one (ParamOutOfDomainError)
    would count exact zeros as nonzero: with zero_tol = -1 the product
    state |000> would be labelled W-like and its projector certified
    GHZ-distillable.  A positive one below NEG_EIG_FLOOR, the accuracy
    the measures are computed to, is a ParamOutOfDomainError too: it
    would read rounding noise as a decision, as a pair concurrence of
    1e-16 on the projector of a product state.  Anything but a real
    number, such as a string, None or a boolean, is a
    ParamOutOfDomainError, and an int beyond the float range a
    NonFiniteError.
    """
    if not _is_number(zero_tol, numbers.Real):
        raise ParamOutOfDomainError(f"zero_tol must be a real number, got {zero_tol!r}")
    try:
        finite = math.isfinite(zero_tol)
    except OverflowError:
        raise NonFiniteError("zero_tol must be finite, got an int beyond the float range") from None
    if not finite:
        raise NonFiniteError(f"zero_tol must be finite, got {zero_tol}")
    if not zero_tol > 0:
        raise ParamOutOfDomainError(f"zero_tol must be positive, got {zero_tol}")
    if zero_tol < NEG_EIG_FLOOR:
        raise ParamOutOfDomainError(f"zero_tol must be at least {NEG_EIG_FLOOR:g}, the accuracy floor, got {zero_tol}")


_DESCRIPTION = {
    "0-0": "fully separable",
    "1^1-1": "simply biseparable",
    "2-0": "GHZ-like",
    "2-1": "fully inseparable, one entangled pair",
    "2-2": "star-shaped",
    "2-3": "W-like",
}


@dataclass(frozen=True)
class SubtypeLabel:
    """Subtype code plus which qubit/pairs carry the entanglement."""

    code: str
    separable_qubit: str | None = None
    entangled_pairs: tuple[str, ...] = ()

    def describe(self) -> str:
        return _DESCRIPTION.get(self.code, self.code)


@dataclass(frozen=True)
class PureClassification:
    label: SubtypeLabel
    measures: MeasureSet
    margins: dict[str, float]
    ambiguous: bool


@dataclass(frozen=True)
class Certificate:
    claim: str
    witness: float


@dataclass(frozen=True)
class MixedVerdict:
    """The certificates of ``classify_mixed``; ``ambiguous`` is set when a
    compared witness (a one-vs-two negativity n_q or a reduced
    concurrence c_red) lies within AMBIGUITY_BAND of zero_tol."""

    certificates: tuple[Certificate, ...]
    measures: MeasureSet
    ambiguous: bool = False

    def claims(self) -> tuple[str, ...]:
        return tuple(c.claim for c in self.certificates)


#: the reduced pairs in measure-table order (c_red_bc, c_red_ac, c_red_ab, and
#: n_red_* likewise); both classifiers decide a pair on its concurrence
_PAIRS = ("BC", "AC", "AB")
#: the columns of ``_PureDecisions.margins``
_MARGIN_NAMES = tuple(f"factorizable_{q}" for q in QUBITS) + tuple(f"pair_{p}" for p in _PAIRS)
#: the measure-table column of each margin: n_q of A, B, C, then c_red_* of BC, AC, AB
_MARGIN_COLUMNS = np.array([_MEASURE_NAMES.index(name) for name in
                            ("n_a_bc", "n_b_ac", "n_c_ab", "c_red_bc", "c_red_ac", "c_red_ab")])


@functools.cache
def _subtype(factorizable: tuple[bool, bool, bool], entangled: tuple[bool, bool, bool]) -> SubtypeLabel:
    """The label of a pure state whose qubits A, B, C factorize and whose pairs BC, AC, AB are entangled as flagged.

    Two or more factorizable qubits give 0-0, one gives 1^1-1 with that
    qubit separable, and none gives 2-k, k the number of entangled pairs.
    ``classify_pure`` and ``classify_gsd_pattern`` both label by this rule.
    Exactly two factorizable qubits occur only inside the ambiguity band:
    n_q^2 = tau + C^2 + C^2 over the pairs holding q (Coffman, Kundu &
    Wootters, PRA 61, 052306, 2000), so two n_q below zero_tol put the
    third below sqrt(2) zero_tol + 2 sqrt(2) NEG_EIG_FLOOR, under
    AMBIGUITY_BAND zero_tol for every accepted zero_tol.
    """
    if sum(factorizable) >= 2:
        return SubtypeLabel("0-0")
    pairs = tuple(p for p, on in zip(_PAIRS, entangled) if on)
    if any(factorizable):
        return SubtypeLabel("1^1-1", QUBITS[factorizable.index(True)], pairs)
    return SubtypeLabel(f"2-{len(pairs)}", None, pairs)


#: the label of every flag combination, indexed by the six flags of
#: ``_subtype`` read as bits, qubit A's the most significant
_LABELS = tuple(_subtype(flags[:3], flags[3:]) for flags in itertools.product((False, True), repeat=6))
_CODES = np.array([label.code for label in _LABELS])
#: the weight of each of the six flags in its label's index
_FLAG_BITS = 1 << np.arange(5, -1, -1)


@dataclass(frozen=True)
class _PureDecisions:
    """The decisions of ``_classify_table`` for a stack of N pure states, one row each.

    ``labels`` indexes ``_LABELS``, and ``codes`` holds the code of each
    row's label.  ``margins`` are the raw decision quantities: the
    one-vs-two negativities n_q of A, B, C, then the reduced concurrences
    c_red of BC, AC, AB, each compared against zero_tol; ``ambiguous``
    marks a row with one within AMBIGUITY_BAND of it.
    """

    codes: np.ndarray
    ambiguous: np.ndarray
    labels: np.ndarray
    margins: np.ndarray


def _classify_table(table: np.ndarray, zero_tol: float) -> _PureDecisions:
    """The decision of ``classify_pure`` on an (N, 16) pure measure table, as masks over its columns.

    It reads the six margin columns n_q and c_red_* only, in one gather
    (``_MARGIN_COLUMNS``), so a table whose n_red_* columns were never
    filled (see ``measures._pure_closed_form_table``) decides the same.
    A qubit's flag is set when its n_q is below zero_tol, a pair's when
    its c_red is above it, and ``labels`` reads the six flags as bits
    (``_FLAG_BITS``).  The rule is ``classify_gsd_pattern``'s, with no
    repair case (see ``_subtype``).
    """
    margins = table[:, _MARGIN_COLUMNS]
    flags = margins > zero_tol
    flags[:, :3] = margins[:, :3] < zero_tol
    labels = flags @ _FLAG_BITS
    ambiguous = _near_threshold(margins, zero_tol).any(axis=1)
    return _PureDecisions(_CODES[labels], ambiguous, labels, margins)


def classify_pure(psi: PureState, zero_tol: float = DEFAULT_ZERO_TOL) -> PureClassification:
    """Assign the subtype of a pure state.

    A qubit is factorizable exactly when its reduced state is pure
    (Schmidt decomposition), that is when its one-vs-two negativity
    n_q = 2 sqrt(det rho_q) is zero.  With no factorizable qubit the
    state is fully inseparable and the subtype 2-k counts the entangled
    reduced pairs; a pair is entangled exactly when its Wootters
    concurrence c_red is nonzero.

    Every thresholded comparison is recorded in ``margins`` as its raw
    decision quantity, each compared against zero_tol: n_q for
    ``factorizable_q`` and c_red for ``pair_P``; the label is ``_subtype``
    of those comparisons, and a 1^1-1 label adds the n_q of the other two
    qubits as ``single_purity_q``.  Both are linear in a small entangling
    amplitude.  ``classify_gsd_pattern`` decides on the same six, in
    closed form (C_AB = 2|alpha delta|, Acin et al., PRL 85, 1560, 2000),
    and ``classify_mixed`` certifies on n_q and c_red, so the three read
    one threshold scale.  A quantity within a factor of 10 of zero_tol
    flags the result as ambiguous; the label is still returned.  The
    decision is ``_classify_table`` on a stack of one.
    """
    _require_pure(psi, "classify_pure")
    check_zero_tol(zero_tol)
    table = _pure_measure_table(psi.amplitudes[np.newaxis])
    d = _classify_table(table, zero_tol)
    label = _LABELS[d.labels[0]]
    margins = dict(zip(_MARGIN_NAMES, d.margins[0].tolist()))
    q = label.separable_qubit
    # a 1^1-1 label has exactly one factorizable qubit (see _subtype)
    if q is not None:
        for single in COMPLEMENT[q]:
            margins[f"single_purity_{single}"] = margins[f"factorizable_{single}"]
    return PureClassification(label, _measure_sets(table)[0], margins, bool(d.ambiguous[0]))


#: the claims of ``classify_mixed``, in the order its certificates list them
_CLAIMS = (
    tuple(f"reduced pair {p} entangled" for p in _PAIRS)
    + tuple(f"not simply biseparable w.r.t. {q}" for q in QUBITS)
    + ("not fully separable", "GHZ-distillable", "undetermined: generalized biseparable vs fully inseparable")
)


#: the measure-table column each claim's witness is read from (c_red_*, n_q,
#: then n_abc twice); "not fully separable" overwrites its column with the largest n_q
_WITNESS_COLUMNS = np.array([_MEASURE_NAMES.index(name) for name in
                             ("c_red_bc", "c_red_ac", "c_red_ab", "n_a_bc", "n_b_ac", "n_c_ab",
                              "n_a_bc", "n_abc", "n_abc")])


def _certify_table(table: np.ndarray, zero_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The certificates of ``classify_mixed`` on an (N, 13) mixed measure table.

    It reads the columns n_q, n_abc and c_red_* only (``_WITNESS_COLUMNS``).
    Returns (held, witness, ambiguous): held and witness are (N,
    len(_CLAIMS)), and row i certifies claim j with witness[i, j] exactly
    when held[i, j]; ambiguous (N,) marks the rows with an n_q or c_red,
    the witnesses compared with zero_tol, within AMBIGUITY_BAND of it.
    A claim holds when its witness exceeds zero_tol, except two: GHZ
    distillability needs every n_q above it, and the undetermined gap
    always holds.
    """
    witness = table[:, _WITNESS_COLUMNS]
    n_side = witness[:, 3:6]
    witness[:, 6] = n_side.max(axis=1)
    held = witness > zero_tol
    held[:, 7] = n_side.min(axis=1) > zero_tol
    held[:, 8] = True
    return held, witness, _near_threshold(witness[:, :6], zero_tol).any(axis=1)


def classify_mixed(rho: DensityMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> MixedVerdict:
    """Emit witnessed exclusion certificates for a mixed three-qubit state.

    Positive claims always carry a witness above zero_tol: the reduced
    concurrence c_red for "reduced pair P entangled" (for two qubits
    C > 0 exactly when N > 0, and c_red is linear in a small canonical
    amplitude where the reduced negativity is quadratic), a one-vs-two
    negativity otherwise.  GHZ-distillability needs every one-vs-two
    negativity above zero_tol; its witness is their geometric mean
    n_abc, which is not compared itself because the cube root lifts a
    tiny cut above any threshold.  Full separability or biseparability
    is never asserted, only excluded; the gap between generalized
    biseparability and full inseparability stays undetermined.  The
    decision is ``_certify_table`` on a stack of one, so ``sweep``
    certifies a grid measured as one stack the same way.  As in
    ``classify_pure``, a compared witness (n_q or c_red) within a factor
    of AMBIGUITY_BAND of zero_tol sets ``ambiguous``; the certificates
    are still returned.  The state is read as A, B, C, the order of every
    layout; one over fewer qubits raises WrongDimensionError.
    """
    _require_density(rho, "classify_mixed", 3)
    check_zero_tol(zero_tol)
    table = _mixed_measure_table(rho.matrix[np.newaxis])
    held, witness, ambiguous = _certify_table(table, zero_tol)
    certs = tuple(Certificate(c, w) for c, h, w in zip(_CLAIMS, held[0].tolist(), witness[0].tolist()) if h)
    return MixedVerdict(certs, _measure_sets(table)[0], bool(ambiguous[0]))
