"""Entanglement measures for three-qubit states.

Bipartite negativity uses the doubled convention N = -2 * sum of the
negative eigenvalues of the partial transpose, so a Bell pair scores 1.
The tripartite negativity is the geometric mean of the three one-vs-two
bipartite negativities and is defined for pure and mixed states alike;
the multiplicative Q, eta3 and the 3-tangle are pure-state only.

``measure_set`` computes every measure; five scalar functions below are
views of its fields, while ``negativity``, ``concurrence_2q`` and
``von_neumann_entropy`` compute their own values from one matrix, as the
references the stacked routines are tested against.  Pure and mixed
states each go through one routine on a stack of states
(``_pure_measure_table``, ``_mixed_measure_table``), which returns an
(N, 16) or (N, 13) table whose columns are the MeasureSet fields in
order; a single state is a stack of one.  A pure state uses closed
forms on its amplitudes:

- one-vs-two negativity 2*s1*s2, zero at or below the NEG_EIG_FLOOR
  floor, and single-qubit entropies from the Schmidt weights s1^2, s2^2
  of each cut, with s1^2 s2^2 the sum of the squared 2x2 minors of the
  2x4 unfolding (Cauchy-Binet);
- the 3-tangle 4|Det|, Cayley's hyperdeterminant (Coffman, Kundu &
  Wootters, PRA 61, 052306, 2000), bounded by every one-vs-two tangle;
- each reduced concurrence s1 - s2, where s1 >= s2 are the singular
  values of the symmetric 2x2 spin-flip product f = X^T (sy x sy) X of
  the pair's 4x2 amplitude block X (Wootters, PRL 80, 2245, 1998).
  The entries of f are amplitude products, and s1 - s2 is taken as
  (s1^2 - s2^2) / (s1 + s2), both read from f without an SVD.

The reduced negativities come from the partial transpose of each pair
reduction itself: for a mixed state the pair as gathered from the
matrix, for a pure one M^T M^* of the 2x4 unfolding M of the traced
qubit.  A mixed state's reduced concurrence is s1 - s2 - ... from the
singular values of F = X^T (sy x sy) X, one batched LAPACK call per
stack, where X = V sqrt(w) is the pair's eigen-factor (X X^dagger =
rho); X feeds only this spin flip.  Since sy x sy is the anti-diagonal
with signs (-1, 1, 1, -1) down its rows, X^T (sy x sy) is X with its
rows reversed and signed (``_FLIP_SIGN``), transposed: the same
products, with no 4x4 matrix product.  Either takes its one-qubit
spectra from their trace and determinant (``_spectrum_2x2``).

A density matrix with no imaginary part is held as float64 from where it
enters (``states._stored``), and the dtype of a stack decides its
arithmetic: a float stack's four LAPACK calls take the real routines,
which do about half the arithmetic of the complex ones.  Its F is real
symmetric, so the singular values are the moduli of its eigenvalues,
and the spin flip is a real ``eigvalsh`` where a complex F takes an
SVD.  A mixed family's closed form is a float stack (see ``families``),
so a sweep stays in real arithmetic from its closed form on.

A mixed stack is read through index tables made once, at import, from
matrices of indices: the three cut transposes (``_CUT_PT``) and a
pair's transpose on its first qubit (``_PAIR_PT``) by
``states._partial_transpose`` itself; the two entries summed into each
entry of the three pair reductions (``_PAIR_TRACE``) and into r00, r11
and r01 of each one-qubit reduction, from the pairs (``_SINGLE_TRACE``),
as the diagonal that ``states._partial_trace`` sums.  Each step is one
gather on the whole stack, and a trace one sum more over the same two
entries in the same order, so the table is bit for bit what the reshape
routines give.

The pure table is made in two stages: ``_pure_closed_form_table`` fills
every column but n_red_* with no LAPACK call, and
``_pure_measure_table`` adds n_red_* from one batched eigensolve.  The
classifiers decide on n_q and c_red_*, so ``random``, which prints no
n_red_*, stops after the first stage.  The closed forms read 34
differences a_i a_j - a_k a_l (the 18 minors, 12 spin-flip pieces and
4 hyperdeterminant pieces), which use 25 distinct ordered products:
one product list (``_PRODUCTS``), derived at import from the three
tables, formed once per stack as an (N, 25) array, and the 34
differences taken from it by two gathers and one subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .errors import ParamOutOfDomainError
from .states import (
    DensityMatrix,
    PureState,
    _partial_transpose,
    _require_density,
    _require_pure,
    _require_state,
    partial_transpose,
)

#: eigenvalues of a partial transpose within this (relative) band of zero
#: are indistinguishable from zero at the eigensolver's accuracy
NEG_EIG_FLOOR = 1e-13

#: spectrum weights at or below this are dropped from entropy sums
ENTROPY_FLOOR = 1e-14

#: states per call of a stacked routine in ``sweep`` and ``random``; bounds
#: their working memory for any grid size or state count
STACK_CHUNK = 1024

#: sy x sy, the two-qubit spin flip, is the anti-diagonal with these signs
#: down its rows: X^T (sy x sy) is (_FLIP_SIGN * X[::-1])^T, entry for entry
_FLIP_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])[:, np.newaxis]

#: flat indices (8 * row + column) of the entries of an 8x8 matrix m, as
#: gathered by a cut transpose in QUBITS order: cut q is m.flat[_CUT_PT[q]]
_CUT_PT = np.stack([_partial_transpose(np.arange(64).reshape(8, 8), 3, ax).reshape(64) for ax in range(3)])
#: the two flat indices of m whose sum is each entry of the pair reductions
#: BC, AC, AB: the diagonal that ``_partial_trace`` sums over the traced qubit
_PAIR_TRACE = np.stack([
    np.diagonal(np.arange(64).reshape((2,) * 6), axis1=ax, axis2=ax + 3).reshape(16, 2) for ax in range(3)
])
#: flat indices of a 4x4 pair matrix as gathered by its transpose on the first qubit
_PAIR_PT = _partial_transpose(np.arange(16).reshape(4, 4), 2, 0).reshape(16)
#: the two flat indices into the (3, 16) pairs BC, AC, AB whose sum is each of
#: r00, r11 and r01 of rho_A, rho_B (from rho_AB) and rho_C (from rho_BC)
_SINGLE_TRACE = np.stack([
    16 * pair + np.diagonal(np.arange(16).reshape(2, 2, 2, 2), axis1=ax, axis2=ax + 2)[[0, 1, 0], [0, 1, 1]]
    for pair, ax in ((2, 1), (2, 0), (0, 0))
])

_INDEX = np.arange(8).reshape(2, 2, 2)
#: amplitude indices of the 2x4 unfolding of each one-vs-two cut, in QUBITS
#: order: rows index the single qubit, columns the pair COMPLEMENT[q]
_UNFOLD = np.stack([_INDEX, _INDEX.transpose(1, 0, 2), _INDEX.transpose(2, 0, 1)]).reshape(3, 2, 4)
#: the six 2x2 minors u_i v_j - u_j v_i of each unfolding [u; v], as
#: differences of amplitude products [[i, j], [i', j']] (see _PRODUCTS)
_MINORS = np.array([
    [[[u[i], v[j]], [u[j], v[i]]] for i, j in combinations(range(4), 2)] for u, v in _UNFOLD
])
#: Cayley's hyperdeterminant is the discriminant lin^2 - 4 det(a0) det(a1) of
#: det(a0 + x a1) in x, where a0, a1 are the BC blocks of the amplitude
#: tensor at A = 0, 1 (amplitude index 4i + 2j + k):
#: lin = (a000 a111 - a001 a110) + (a100 a011 - a101 a010),
#: det(a0) = a000 a011 - a001 a010 and det(a1) = a100 a111 - a101 a110
_HYPERDET_PIECES = np.array([
    [[[0, 7], [1, 6]], [[4, 3], [5, 2]]],
    [[[0, 3], [1, 2]], [[4, 7], [5, 6]]],
])
#: the spin-flip product f = X^T (sy x sy) X of each pair (BC, AC, AB),
#: where X = [v w] holds the pair amplitudes at the traced qubit's 0 and 1
#: (the rows of that qubit's unfolding): f is symmetric, with
#: f00 = 2 (v1 v2 - v0 v3), f11 = 2 (w1 w2 - w0 w3) and
#: f01 = (v1 w2 - v0 w3) + (v2 w1 - v3 w0), from these four differences
_SPIN_FLIP_PIECES = np.array([
    [[[v[1], v[2]], [v[0], v[3]]], [[w[1], w[2]], [w[0], w[3]]],
     [[v[1], w[2]], [v[0], w[3]]], [[v[2], w[1]], [v[3], w[0]]]]
    for v, w in _UNFOLD
])
#: the distinct ordered products a_i a_j that the 34 differences of the three
#: tables above read, as [i; j] of shape (2, 25), and the slots of each
#: difference's two products in that list, shape (2, 34): the 18 minors, the
#: 12 spin-flip pieces, then the 4 hyperdeterminant pieces.  The order (i, j)
#: is the tables': numpy's complex product is not bitwise commutative
_products, _slots = np.unique(
    np.concatenate([t.reshape(-1, 2) for t in (_MINORS, _SPIN_FLIP_PIECES, _HYPERDET_PIECES)]),
    axis=0, return_inverse=True,
)
_PRODUCTS = np.ascontiguousarray(_products.T)
_PRODUCT_SLOTS = np.ascontiguousarray(_slots.reshape(-1, 2).T)


def _negativity_of_spectrum(w: np.ndarray) -> np.ndarray:
    """-2 * sum of the eigenvalues below -NEG_EIG_FLOOR * max(1, max|w|), over the last axis."""
    neg = -w
    neg[neg <= NEG_EIG_FLOOR * np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True))] = 0.0
    return 2.0 * neg.sum(axis=-1)


def _entropy_of_spectrum(w: np.ndarray) -> np.ndarray:
    """Base-2 entropy of the weights w / sum(w) over the last axis, largest first.

    The others <= ENTROPY_FLOOR add nothing, and the largest one's log is log1p(-sum of the others), so
    the trace's rounding reads as no entropy.  Totals below 1e-12 collapse to exactly zero: the spectrum
    cannot tell them from a pure state, and a stray 1e-16 would blow up to 1e-5 in a geometric mean.
    """
    p = w / w.sum(axis=-1, keepdims=True)
    rest = np.where(p[..., 1:] > ENTROPY_FLOOR, p[..., 1:], 1.0)  # log2(1) = 0: dropped weights add nothing
    s = -(rest * np.log2(rest)).sum(axis=-1) - p[..., 0] * np.log1p(-p[..., 1:].sum(axis=-1)) / np.log(2.0)
    return np.where(s > 1e-12, s, 0.0)


def _spectrum_2x2(trace: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Eigenvalues [larger, det / larger] of stacked 2x2 PSD matrices, from trace and det of shape (..., 1)."""
    larger = 0.5 * (trace + np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0)))
    return np.concatenate([larger, det / larger], axis=-1)


def _geometric_mean3(values: np.ndarray) -> np.ndarray:
    """Geometric mean of nonnegative values over the last axis (length 3); zero if any factor is."""
    return values.prod(axis=-1) ** (1.0 / 3.0)


def negativity(rho: DensityMatrix, side: str) -> float:
    """N = -2 * sum of negative eigenvalues of the partial transpose on `side`."""
    pt = partial_transpose(_require_density(rho, "negativity"), side)
    return float(_negativity_of_spectrum(np.linalg.eigvalsh(pt)))


def tripartite_negativity(rho: DensityMatrix) -> float:
    """Geometric mean of the three one-vs-two negativities; zero if any factor is."""
    return measure_set(_require_density(rho, "tripartite_negativity", 3)).n_abc


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit Wootters concurrence, from the eigen-factor of rho (see ``_pair_concurrence``)."""
    return float(_pair_concurrence(_psd_factor(_require_density(rho, "concurrence_2q", 2).matrix)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Base-2 von Neumann entropy; weights <= 1e-14 contribute nothing, totals < 1e-12 are 0."""
    return float(_entropy_of_spectrum(np.linalg.eigvalsh(_require_density(rho, "von_neumann_entropy").matrix)[::-1]))


def q_multiplicative(psi: PureState) -> float:
    """Geometric mean of the three one-vs-two tangles (squared negativities)."""
    return measure_set(_require_pure(psi, "Q")).q_mult


def eta3_multiplicative(psi: PureState) -> float:
    """Geometric mean of the three single-qubit reduced entropies."""
    return measure_set(_require_pure(psi, "eta3")).eta_mult


def three_tangle(psi: PureState) -> float:
    """The 3-tangle 4|Det|, with Det Cayley's hyperdeterminant of the amplitude tensor.

    It equals the residual tangle C^2(A-BC) - C^2(rho_AB) - C^2(rho_AC)
    (Coffman, Kundu & Wootters) but is computed directly, so it is never
    negative.  It is capped at 1 and at the smallest one-vs-two tangle
    n_q^2, which bounds it by monogamy; a biseparable state scores 0.
    """
    return measure_set(_require_pure(psi, "3-tangle")).three_tangle


def additive_measure(psi: PureState, base: str) -> float:
    """Arithmetic mean of a bipartite measure over the three one-vs-two cuts.

    ``base`` is one of "negativity", "tangle" or "entropy".  Unlike the
    geometric-mean measures, this can be nonzero on biseparable states.
    """
    _require_pure(psi, "additive measure")
    if not isinstance(base, str) or base not in ("negativity", "tangle", "entropy"):
        raise ParamOutOfDomainError(f"unknown base {base!r}; use negativity, tangle or entropy")
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
        # every value is a float or None, so no deep copy is needed
        return {name: getattr(self, name) for name in _MEASURE_NAMES}


_MEASURE_NAMES = tuple(f.name for f in fields(MeasureSet))


def measure_set(state: PureState | DensityMatrix) -> MeasureSet:
    """Compute the full MeasureSet of a pure state or a three-qubit mixed state.

    Either is a stack of one: row 0 of ``_pure_measure_table`` for a
    pure state, of ``_mixed_measure_table`` for a mixed one.  A mixed
    state is read as A, B, C, the order of every layout; one over fewer
    qubits raises WrongDimensionError.
    """
    if isinstance(_require_state(state, "measure_set"), PureState):
        return _measure_sets(_pure_measure_table(state.amplitudes[np.newaxis]))[0]
    return _measure_sets(_mixed_measure_table(state.matrix[np.newaxis]))[0]


def _measure_sets(table: np.ndarray) -> list[MeasureSet]:
    """One MeasureSet per row of a measure table; a 13-column (mixed) row leaves the pure-only fields None."""
    return [MeasureSet(*row) for row in table.tolist()]


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """X = V sqrt(w) with X X^dagger = m for stacked PSD m; negative rounding noise in w is dropped."""
    w, v = np.linalg.eigh(m)
    return v * np.sqrt(np.maximum(w, 0.0))[..., np.newaxis, :]


def _pair_negativity(rho: np.ndarray) -> np.ndarray:
    """Negativity of pair reductions rho, shape (..., 4, 4), transposed on the first qubit by one gather.

    A mixed table passes the pair reductions it gathered, a pure one M^T M^*
    of each 2x4 unfolding M.
    """
    pt = rho.reshape(rho.shape[:-2] + (16,))[..., _PAIR_PT].reshape(rho.shape)
    return _negativity_of_spectrum(np.linalg.eigvalsh(pt))


def _pair_concurrence(x: np.ndarray) -> np.ndarray:
    """Wootters concurrence of pairs rho = X X^dagger, from the singular values of F = X^T (sy x sy) X.

    A real F is symmetric, so its singular values are the moduli of its
    eigenvalues, sorted here into the SVD's descending order; a complex
    F is only complex symmetric and takes the SVD.
    """
    f = (_FLIP_SIGN * x[..., ::-1, :]).swapaxes(-1, -2) @ x
    if np.iscomplexobj(f):
        sv = np.linalg.svd(f, compute_uv=False)
    else:
        sv = np.sort(np.abs(np.linalg.eigvalsh(f)), axis=-1)[..., ::-1]
    return np.clip(sv[..., 0] - sv[..., 1:].sum(axis=-1), 0.0, 1.0)


def _pure_pair_concurrence(d: np.ndarray) -> np.ndarray:
    """Concurrence s1 - s2 of the pairs BC, AC, AB of pure states, shape (N, 3), with no SVD.

    ``d`` holds the four differences of ``_SPIN_FLIP_PIECES`` of each
    pair, shape (N, 3, 4).  For the symmetric spin-flip product f they
    make, s1^2 - s2^2 is the eigenvalue gap of f^dagger f, read from its
    entries, and (s1 + s2)^2 = ||f||_F^2 + 2 |det f|.  Their quotient
    has no cancellation near zero, where s1 - s2 computed from the two
    singular values would carry their rounding error.
    """
    f00, f11, f01 = 2.0 * d[..., 0], 2.0 * d[..., 1], d[..., 2] + d[..., 3]
    p00, p11, p01 = np.abs(f00) ** 2, np.abs(f11) ** 2, np.abs(f01) ** 2
    gap = np.sqrt((p00 - p11) ** 2 + 4.0 * np.abs(f00.conj() * f01 + f01.conj() * f11) ** 2)
    total = np.sqrt(p00 + p11 + 2.0 * p01 + 2.0 * np.abs(f00 * f11 - f01 * f01))
    c = np.divide(gap, total, out=np.zeros_like(gap), where=total > 0.0)  # f = 0: a product pair
    return np.minimum(c, 1.0)


def _mixed_measure_table(matrices: np.ndarray) -> np.ndarray:
    """The (N, 13) measure table of validated three-qubit density matrices, shape (N, 8, 8).

    Its columns are the MeasureSet fields up to ``s_c``.  The LAPACK work
    is one batched call per kind of spectrum: the cut transposes, the pair
    eigen-factors, the pair transposes and the spin flip's singular values.
    The stack's dtype picks the routines: a float stack, such as a real
    density matrix or a mixed family's closed form, takes the real ones and
    a spin flip by ``eigvalsh``, a complex stack the complex ones and an SVD
    (see ``_pair_concurrence``).  n_red_* is the negativity of each pair
    reduction as gathered, transposed on its first qubit; the eigen-factor
    X of the pairs feeds only the spin flip behind c_red_*.
    """
    n = len(matrices)
    flat = matrices.reshape(n, 64)
    n_side = _negativity_of_spectrum(np.linalg.eigvalsh(flat[:, _CUT_PT].reshape(n, 3, 8, 8)))
    pairs = flat[:, _PAIR_TRACE].sum(axis=-1).reshape(n, 3, 4, 4)  # BC, AC, AB
    x = _psd_factor(pairs)
    n_red, c_red = _pair_negativity(pairs), _pair_concurrence(x)
    singles = pairs.reshape(n, 48)[:, _SINGLE_TRACE].sum(axis=-1)  # (n, 3, 3): r00, r11, r01 of A, B, C
    r00, r11, r01 = singles[..., 0:1].real, singles[..., 1:2].real, singles[..., 2:3]
    entropy = _entropy_of_spectrum(_spectrum_2x2(r00 + r11, r00 * r11 - np.abs(r01) ** 2))
    n_abc = _geometric_mean3(n_side)[:, np.newaxis]
    return np.concatenate([n_side, n_abc, n_red, c_red, entropy], axis=1)


def _pure_closed_form_table(amps: np.ndarray) -> np.ndarray:
    """The (N, 16) measure table of validated pure states, amplitudes of shape (N, 8), with no LAPACK call.

    Every column but n_red_* (4:7) comes from closed forms on the
    amplitudes (see the module docstring); those three are NaN until
    ``_pure_measure_table`` fills them.  ``random`` classifies on this
    table: the decision reads n_q and c_red_* only.
    """
    n = amps.shape[0]
    products = amps[:, _PRODUCTS[0]] * amps[:, _PRODUCTS[1]]
    d = products[:, _PRODUCT_SLOTS[0]] - products[:, _PRODUCT_SLOTS[1]]
    # Cauchy-Binet: s1^2 s2^2 = det(M M^dagger) = sum of the squared 2x2
    # minors, which stays accurate near zero where det(rho_q) cancels
    det = (np.abs(d[:, :18].reshape(n, 3, 6)) ** 2).sum(axis=-1, keepdims=True)
    schmidt = np.sqrt(det)
    trace = (np.abs(amps) ** 2).sum(axis=-1)[:, np.newaxis, np.newaxis]
    spectrum = _spectrum_2x2(trace, det)
    entropy = _entropy_of_spectrum(spectrum)
    # a pure state's partial transpose on one qubit has the nonzero spectrum
    # s1^2, s2^2, +-s1 s2, so its negativity is 2 s1 s2 above the floor of
    # _negativity_of_spectrum; s2^2 and s1 s2 are at most trace / 2 < 1, so
    # that floor is NEG_EIG_FLOOR * max(1, s1^2)
    n_side = np.where(schmidt > NEG_EIG_FLOOR * np.maximum(1.0, spectrum[..., :1]), 2.0 * schmidt, 0.0)[..., 0]
    c_red = _pure_pair_concurrence(d[:, 18:30].reshape(n, 3, 4))

    lin = d[:, 30] + d[:, 31]
    hyperdet = lin * lin - 4.0 * d[:, 32] * d[:, 33]
    # monogamy (CKW) bounds the 3-tangle by every one-vs-two tangle n_q^2,
    # so a cut whose negativity is floored to zero zeroes it exactly
    cut_tangle = n_side * n_side
    tangle = np.minimum(np.minimum(1.0, 4.0 * np.abs(hyperdet)), cut_tangle.min(axis=-1))

    means = _geometric_mean3(np.concatenate([n_side, cut_tangle, entropy], axis=1).reshape(n, 3, 3))
    n_red = np.full((n, 3), np.nan)
    return np.concatenate(
        [n_side, means[:, :1], n_red, c_red, entropy, means[:, 1:], tangle[:, np.newaxis]], axis=1
    )


def _pure_measure_table(amps: np.ndarray) -> np.ndarray:
    """The (N, 16) measure table of validated pure states, amplitudes of shape (N, 8).

    Its columns are the MeasureSet fields in order: the closed forms of
    ``_pure_closed_form_table``, and n_red_* from the only LAPACK work of
    the pure path, one batched eigensolve of the (N, 3, 4, 4)
    partial-transposed pair reductions.
    """
    table = _pure_closed_form_table(amps)
    # each pair reduction is M^T M^*, M the 2x4 unfolding of the traced qubit
    m = amps[:, _UNFOLD]
    table[:, 4:7] = _pair_negativity(m.swapaxes(-1, -2) @ m.conj())
    return table
