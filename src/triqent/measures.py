"""Entanglement measures for three-qubit states.

Bipartite negativity uses the doubled convention N = -2 * sum of the
negative eigenvalues of the partial transpose, so a Bell pair scores 1.
The tripartite negativity is the geometric mean of the three one-vs-two
bipartite negativities and is defined for pure and mixed states alike;
the multiplicative Q, eta3 and the 3-tangle are pure-state only.
Every measure is computed once, in ``measure_set``; the scalar
functions below are views of its fields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import WrongDimensionError
from .linalg import eig_hermitian, sqrt_psd
from .states import (
    COMPLEMENT,
    QUBITS,
    DensityMatrix,
    PureState,
    _require_pure,
    partial_trace,
    partial_transpose,
    to_density,
)

#: eigenvalues of a partial transpose within this (relative) band of zero
#: are indistinguishable from zero at the eigensolver's accuracy
NEG_EIG_FLOOR = 1e-13

#: spectrum weights at or below this are dropped from entropy sums
ENTROPY_FLOOR = 1e-14

_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def negativity(rho: DensityMatrix, side: str) -> float:
    """N = -2 * sum of negative eigenvalues of the partial transpose on `side`."""
    pt = partial_transpose(rho, side)
    w = eig_hermitian(pt).values
    floor = NEG_EIG_FLOOR * max(1.0, float(np.abs(w).max()))
    neg = w[w < -floor]
    return float(-2.0 * neg.sum()) if neg.size else 0.0


def tripartite_negativity(rho: DensityMatrix) -> float:
    """Geometric mean of the three one-vs-two negativities; zero if any factor is."""
    if len(rho.qubits) != 3:
        raise WrongDimensionError(f"need a full three-qubit state, got layout {rho.qubits!r}")
    return measure_set(rho).n_abc


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)}.

    The l_i are the descending eigenvalues of rho @ rho_tilde with
    rho_tilde the spin-flipped conjugate; they are evaluated through the
    Hermitian matrix sqrt(rho) @ rho_tilde @ sqrt(rho), which has the
    same spectrum but keeps the eigensolver on Hermitian input.
    """
    if rho.dim != 4:
        raise WrongDimensionError(f"concurrence needs a two-qubit state, got dim {rho.dim}")
    rho_tilde = _SIGMA_YY @ rho.matrix.conj() @ _SIGMA_YY
    rt = sqrt_psd(rho.matrix)
    w = eig_hermitian(rt @ rho_tilde @ rt, hermiticity_tol=1e-9).values
    # rounding noise on either side of zero must not leak through the
    # square root (sqrt(1e-15) would already cost 3e-8 in C)
    w = np.where(w < NEG_EIG_FLOOR * max(1.0, w.max()), 0.0, w)
    s = np.sqrt(w)
    c = s[0] - s[1:].sum()
    return float(min(1.0, max(0.0, c)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Base-2 von Neumann entropy; weights <= 1e-14 contribute nothing.

    Totals below 1e-12 collapse to exactly zero: the spectrum is not
    accurate enough to distinguish them from a pure state, and a stray
    1e-16 here would blow up to 1e-5 inside a geometric mean.
    """
    w = eig_hermitian(rho.matrix).values
    p = w[w > ENTROPY_FLOOR]
    s = float(-(p * np.log2(p)).sum())
    return s if s > 1e-12 else 0.0


def _geometric_mean3(values) -> float:
    if min(values) <= 0.0:
        return 0.0
    return float((values[0] * values[1] * values[2]) ** (1.0 / 3.0))


def q_multiplicative(psi: PureState) -> float:
    """Geometric mean of the three one-vs-two tangles (squared negativities)."""
    return measure_set(_require_pure(psi, "Q")).q_mult


def eta3_multiplicative(psi: PureState) -> float:
    """Geometric mean of the three single-qubit reduced entropies."""
    return measure_set(_require_pure(psi, "eta3")).eta_mult


def three_tangle(psi: PureState) -> float:
    """Residual tangle C^2(A-BC) - C^2(rho_AB) - C^2(rho_AC), clamped near zero."""
    return measure_set(_require_pure(psi, "3-tangle")).three_tangle


def additive_measure(psi: PureState, base: str) -> float:
    """Arithmetic mean of a bipartite measure over the three one-vs-two cuts.

    ``base`` is one of "negativity", "tangle" or "entropy".  Unlike the
    geometric-mean measures, this can be nonzero on biseparable states.
    """
    _require_pure(psi, "additive measure")
    if base not in ("negativity", "tangle", "entropy"):
        raise ValueError(f"unknown base {base!r}; use negativity, tangle or entropy")
    ms = measure_set(psi)
    if base == "entropy":
        vals = [ms.s_a, ms.s_b, ms.s_c]
    else:
        vals = [ms.n_a_bc, ms.n_b_ac, ms.n_c_ab]
        if base == "tangle":
            vals = [v**2 for v in vals]
    return float(sum(vals) / 3.0)


@dataclass(frozen=True)
class MeasureSet:
    """Every measure of one state; pure-only entries are None for mixed input."""

    n_a_bc: float
    n_b_ac: float
    n_c_ab: float
    n_abc: float
    n_red_bc: float
    n_red_ac: float
    n_red_ab: float
    c_red_bc: float
    c_red_ac: float
    c_red_ab: float
    s_a: float
    s_b: float
    s_c: float
    q_mult: float | None = None
    eta_mult: float | None = None
    three_tangle: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def measure_set(state: PureState | DensityMatrix) -> MeasureSet:
    """Compute the full MeasureSet of a pure state or a dim-8 mixed state."""
    pure = isinstance(state, PureState)
    if pure:
        rho = to_density(state)
    elif isinstance(state, DensityMatrix):
        if len(state.qubits) != 3:
            raise WrongDimensionError(f"need a three-qubit state, got layout {state.qubits!r}")
        rho = state
    else:
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")

    n_side = {q: negativity(rho, q) for q in QUBITS}
    n_abc = _geometric_mean3([n_side[q] for q in QUBITS])

    pair = {q: partial_trace(rho, q) for q in QUBITS}  # keyed by the traced qubit
    n_red = {q: negativity(pair[q], COMPLEMENT[q][0]) for q in QUBITS}
    c_red = {q: concurrence_2q(pair[q]) for q in QUBITS}

    single = {
        "A": partial_trace(pair["C"], "B"),
        "B": partial_trace(pair["C"], "A"),
        "C": partial_trace(pair["A"], "B"),
    }
    s = {q: von_neumann_entropy(single[q]) for q in QUBITS}

    q_mult = eta_mult = tangle = None
    if pure:
        q_mult = _geometric_mean3([n_side[q] ** 2 for q in QUBITS])
        eta_mult = _geometric_mean3([s[q] for q in QUBITS])
        tangle = n_side["A"] ** 2 - c_red["C"] ** 2 - c_red["B"] ** 2
        if -1e-10 < tangle < 0.0:
            tangle = 0.0
        tangle = float(min(1.0, tangle))

    return MeasureSet(
        n_a_bc=n_side["A"],
        n_b_ac=n_side["B"],
        n_c_ab=n_side["C"],
        n_abc=n_abc,
        n_red_bc=n_red["A"],
        n_red_ac=n_red["B"],
        n_red_ab=n_red["C"],
        c_red_bc=c_red["A"],
        c_red_ac=c_red["B"],
        c_red_ab=c_red["C"],
        s_a=s["A"],
        s_b=s["B"],
        s_c=s["C"],
        q_mult=q_mult,
        eta_mult=eta_mult,
        three_tangle=tangle,
    )
