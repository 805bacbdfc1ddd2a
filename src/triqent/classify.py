"""Entanglement subtype assignment.

Pure states get a complete label (the subtype taxonomy is decidable
there); mixed states get a verdict made of numerically witnessed
exclusion certificates, because no general separability test exists.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import NonFiniteError, ParamOutOfDomainError, WrongDimensionError
from .measures import MeasureSet, measure_set
from .states import COMPLEMENT, QUBITS, DensityMatrix, PureState, _require_density, _require_pure

DEFAULT_ZERO_TOL = 1e-8


def check_zero_tol(zero_tol: float) -> None:
    """Reject a threshold that is not a finite positive real number.

    A NaN or infinite threshold (NonFiniteError) would decide every
    comparison one way.  A zero or negative one (ParamOutOfDomainError)
    would count exact zeros as nonzero: with zero_tol = -1 the product
    state |000> would be labelled W-like and its projector certified
    GHZ-distillable.  Anything but a real number, such as a string or
    None, is a ParamOutOfDomainError too.
    """
    if not isinstance(zero_tol, numbers.Real):
        raise ParamOutOfDomainError(f"zero_tol must be a real number, got {zero_tol!r}")
    if not math.isfinite(zero_tol):
        raise NonFiniteError(f"zero_tol must be finite, got {zero_tol}")
    if not zero_tol > 0:
        raise ParamOutOfDomainError(f"zero_tol must be positive, got {zero_tol}")


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
    certificates: tuple[Certificate, ...]
    measures: MeasureSet

    def claims(self) -> tuple[str, ...]:
        return tuple(c.claim for c in self.certificates)


def classify_pure(psi: PureState, zero_tol: float = DEFAULT_ZERO_TOL) -> PureClassification:
    """Assign the subtype of a pure state.

    A qubit is factorizable exactly when the reduced state of the other
    two is pure, that is (Schmidt decomposition) when its own reduced
    state is pure.  With no factorizable qubit the state is fully
    inseparable and the subtype 2-k counts the entangled reduced pairs.

    Every thresholded comparison is recorded in ``margins`` as its raw
    decision quantity, each compared against zero_tol: an impurity
    1 - Tr rho_q^2 or a reduced negativity.  For a pure state
    1 - Tr rho_q^2 = 2 det rho_q = n_q^2 / 2, so each impurity is read
    from the one-vs-two negativity n_q of the MeasureSet rather than
    from a reduced density matrix.  A quantity within a factor of 10 of
    zero_tol flags the result as ambiguous; the label is still returned.
    """
    _require_pure(psi, "classify_pure")
    check_zero_tol(zero_tol)
    return _classify_measured(measure_set(psi), zero_tol)


def _classify_measured(ms: MeasureSet, zero_tol: float) -> PureClassification:
    """The decision of ``classify_pure`` on the MeasureSet of a pure state."""
    n_side = {"A": ms.n_a_bc, "B": ms.n_b_ac, "C": ms.n_c_ab}
    impurity = {q: 0.5 * n_side[q] ** 2 for q in QUBITS}
    margins = {f"factorizable_{q}": impurity[q] for q in QUBITS}

    n_red = {"BC": ms.n_red_bc, "AC": ms.n_red_ac, "AB": ms.n_red_ab}
    entangled_pairs = []
    for name in ("BC", "AC", "AB"):
        margins[f"pair_{name}"] = n_red[name]
        if n_red[name] > zero_tol:
            entangled_pairs.append(name)

    facts = [q for q in QUBITS if impurity[q] < zero_tol]
    ambiguous = False
    if not facts:
        label = SubtypeLabel(f"2-{len(entangled_pairs)}", None, tuple(entangled_pairs))
    elif len(facts) == 1:
        q = facts[0]
        for single in COMPLEMENT[q]:
            margins[f"single_purity_{single}"] = impurity[single]
        label = SubtypeLabel("1^1-1", q, tuple(entangled_pairs))
    elif len(facts) == 3:
        label = SubtypeLabel("0-0")
    else:
        # two factorizable qubits cannot happen analytically: either the
        # state is fully separable (all three factorizable) or rounding
        # produced an inconsistent pattern
        if all(impurity[q] < 10.0 * zero_tol for q in QUBITS):
            label = SubtypeLabel("0-0")
        else:
            ambiguous = True
            best = min(facts, key=lambda q: impurity[q])
            label = SubtypeLabel("1^1-1", best, tuple(entangled_pairs))

    ambiguous = ambiguous or any(
        zero_tol / 10.0 <= v <= zero_tol * 10.0 for v in margins.values()
    )
    return PureClassification(label, ms, margins, ambiguous)


def classify_mixed(rho: DensityMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> MixedVerdict:
    """Emit witnessed exclusion certificates for a mixed three-qubit state.

    Positive claims always carry a negativity witness above zero_tol.
    GHZ-distillability needs every one-vs-two negativity above zero_tol;
    its witness is their geometric mean n_abc, which is not compared
    itself because the cube root lifts a tiny cut above any threshold.
    Full separability or biseparability is never asserted, only
    excluded; the gap between generalized biseparability and full
    inseparability stays undetermined.  The decision reads only the
    state's MeasureSet (``_certify_measured``), so ``sweep`` certifies a
    grid measured as one stack the same way.
    """
    if len(_require_density(rho, "classify_mixed").qubits) != 3:
        raise WrongDimensionError("classify_mixed needs a dim-8 density matrix over [A, B, C]")
    check_zero_tol(zero_tol)
    return _certify_measured(measure_set(rho), zero_tol)


def _certify_measured(ms: MeasureSet, zero_tol: float) -> MixedVerdict:
    """The certificates of ``classify_mixed`` from the MeasureSet of a mixed state."""
    certs: list[Certificate] = []
    n_red = {"BC": ms.n_red_bc, "AC": ms.n_red_ac, "AB": ms.n_red_ab}
    for name in ("BC", "AC", "AB"):
        if n_red[name] > zero_tol:
            certs.append(Certificate(f"reduced pair {name} entangled", n_red[name]))

    n_side = {"A": ms.n_a_bc, "B": ms.n_b_ac, "C": ms.n_c_ab}
    for q in QUBITS:
        if n_side[q] > zero_tol:
            certs.append(Certificate(f"not simply biseparable w.r.t. {q}", n_side[q]))
    if any(n_side[q] > zero_tol for q in QUBITS):
        certs.append(Certificate("not fully separable", max(n_side.values())))
    if min(n_side.values()) > zero_tol:
        certs.append(Certificate("GHZ-distillable", ms.n_abc))
    certs.append(Certificate("undetermined: generalized biseparable vs fully inseparable", ms.n_abc))
    return MixedVerdict(tuple(certs), ms)
