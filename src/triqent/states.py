"""Three-qubit state containers and the elementary operations on them.

Basis convention: the amplitude of |ijk> (i on qubit A, j on B, k on C)
sits at index 4*i + 2*j + k, i.e. qubit A is the most significant bit.
The same ordering applies row- and column-wise to density matrices,
with the first label of the subsystem layout most significant.  A layout
lists its labels in A, B, C order (``_LAYOUTS``), so every stored matrix
is in that order; a permutation is refused where it enters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    MixedStateUnsupportedError,
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    ParamOutOfDomainError,
    QubitNotPresentError,
    StateTypeError,
    WrongDimensionError,
)

QUBITS = ("A", "B", "C")
#: the layouts a state may have: one, two or three labels, in QUBITS order
_LAYOUTS = {QUBITS, ("A", "B"), ("A", "C"), ("B", "C"), ("A",), ("B",), ("C",)}
#: the two qubits left when one is traced out
COMPLEMENT = {"A": ("B", "C"), "B": ("A", "C"), "C": ("A", "B")}

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
EIG_FLOOR = -1e-10
UNITARY_ATOL = 1e-10
#: no sum of two entries up to this modulus, nor a trace of eight, overflows
_ENTRY_MAX = np.finfo(float).max / 16


def _raise_first(bad: np.ndarray, error: type, message) -> None:
    """Raise ``error(message(i))`` for the first row i flagged in ``bad``, if any.

    The error records i as its ``_row``, so a caller checking a stack
    can say which of its inputs failed.
    """
    if bad.any():
        i = int(np.argmax(bad))
        exc = error(message(i))
        exc._row = i
        raise exc


def _norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a stack of amplitudes or coefficients."""
    return np.sqrt((np.abs(rows) ** 2).sum(axis=-1))


def _normalized(rows: np.ndarray) -> np.ndarray:
    """Which rows have unit norm: |norm - 1| <= NORM_ATOL, False for a NaN or infinite entry.

    A modulus above 2 already puts a row off unit norm, so the moduli are
    capped there: no square can overflow, and a row of smaller moduli
    gets the norm of ``_norms`` bit for bit.
    """
    return np.abs(_norms(np.minimum(np.abs(rows), 2.0)) - 1.0) <= NORM_ATOL


def _validated_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Check a stack of amplitude vectors, shape (N, 8), and return it read-only.

    ``PureState`` validation is this routine on a stack of one; an
    invalid row raises what the scalar path raises, for the first such
    row, and the error records that row (see ``_raise_first``).
    """
    unit = _normalized(amps)
    if not unit.all():
        _raise_first(~np.isfinite(amps).all(axis=-1), NonFiniteError,
                     lambda i: "NaN or infinite entry in amplitudes")
        _raise_first(~unit, NotNormalizedError,
                     lambda i: f"norm is {math.hypot(*np.abs(amps[i]).tolist()):.12g}, expected 1")
    amps.setflags(write=False)
    return amps


#: the builtin types that are numbers of each kind, tested before the slower ABC check
_BUILTIN_NUMBERS = {numbers.Integral: (int,), numbers.Real: (int, float), numbers.Complex: (int, float, complex)}
#: numpy's extended-precision types: their cast to a float or complex can overflow
_EXTENDED = (np.longdouble, np.clongdouble)


def _is_number(v, kind: type) -> bool:
    """Whether the scalar ``v`` is a number of ``kind``: numbers.Integral, Real or Complex.

    A boolean is not a number here, although Python counts it as an int
    and numpy casts it to 0 or 1.
    """
    return type(v) in _BUILTIN_NUMBERS[kind] or (isinstance(v, kind) and not isinstance(v, bool))


def _shown(v):
    """``v`` as an error message names it, so a number reads the same on numpy 1 and 2.

    A numpy scalar is its ``item()``, the Python number it holds (a
    longdouble has none).  A tuple or a list is shown entry by entry,
    and so is an array of one or more axes, as a tuple.  Anything else,
    a string or None, is shown as it is.
    """
    if type(v) in (tuple, list) or getattr(v, "ndim", 0):
        return (list if type(v) is list else tuple)(map(_shown, v))
    return v.item() if isinstance(v, np.generic) else v


def _numbers(x, kind: type) -> np.ndarray | None:
    """``x`` as a new float (numbers.Real) or complex (numbers.Complex) array, or
    None unless every entry is a number of ``kind``.

    A numeric array is taken whole.  Anything else is read entry by entry,
    because numpy casts a boolean among floats to 0 or 1; an entry that is
    a 0-d array counts as the number it holds.  An int or a longdouble
    beyond the float range raises NonFiniteError, since as a float it
    would be infinite.  The int's cast raises by itself, so only a
    longdouble or clongdouble array, or entries that are not all builtin
    numbers, are cast under ``np.errstate(over="raise")``.
    """
    codes, dtype = ("iufc", complex) if kind is numbers.Complex else ("iuf", float)
    if isinstance(x, np.ndarray) and x.dtype.kind in codes:
        may_overflow = x.dtype.type in _EXTENDED
    else:
        try:
            x = np.array(x, dtype=object)
        except ValueError:  # a ragged nesting numpy cannot hold
            return None
        flat = x.reshape(-1)  # a view, where x.flat cannot iterate over more than 32 axes
        may_overflow = not set(map(type, flat)).issubset(_BUILTIN_NUMBERS[kind])
        if may_overflow and not all(_is_number(v[()] if isinstance(v, np.ndarray) else v, kind) for v in flat):
            return None
    try:
        if not may_overflow:
            return x.astype(dtype)
        with np.errstate(over="raise"):
            return x.astype(dtype)
    except (OverflowError, FloatingPointError) as exc:
        raise NonFiniteError(f"value out of range: {exc}") from exc


def _complex_array(x, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``x`` as a new complex array of numbers, of ``shape`` when that is given.

    Raises StateTypeError unless every entry is a number and
    WrongDimensionError for another shape.
    """
    a = _numbers(x, numbers.Complex)
    if a is None:
        raise StateTypeError(f"{what} must be numbers, got {x!r:.80}")
    if shape is not None and a.shape != shape:
        raise WrongDimensionError(f"{what} must have shape {shape}, got {a.shape}")
    return a


def _complex_entries(x, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``_complex_array``, and NonFiniteError for a NaN or infinite entry."""
    a = _complex_array(x, what, shape)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"NaN or infinite entry in {what}")
    return a


def _layout(qubits) -> tuple[str, ...]:
    """``qubits`` as a tuple; QubitNotPresentError unless it is one of _LAYOUTS."""
    try:
        layout = tuple(qubits)
    except TypeError:
        layout = ()
    if not all(isinstance(q, str) for q in layout) or layout not in _LAYOUTS:
        raise QubitNotPresentError(f"invalid qubit layout {qubits!r}")
    return layout


class _Record:
    """Base of the checked records ``PureState``, ``DensityMatrix`` and ``gsd.GsdForm``: immutable values.

    Each record's constructor is the one door for outside input, and
    checks it.  ``_trusted`` is the one door for fields derived from
    checked input, and checks nothing.  A record is never changed, so
    ``copy.copy`` and ``copy.deepcopy`` return the record itself, which
    also leaves a caller's arrays in a form as the caller made them.  A
    pickle comes back through ``_trusted``, so no copy holds a
    writeable array that a later call would trust.
    """

    @classmethod
    def _trusted(cls, fields: dict):
        """A record of ``fields``, which must already be checked, built with no check.

        ``fields`` names every attribute of the record, stored values such
        as a form's amplitudes included, and becomes the record's own
        attribute dict, so the caller passes a new one.  Each array among
        them is made read-only in place, the only work done beyond that.
        """
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        record = object.__new__(cls)
        object.__setattr__(record, "__dict__", fields)
        return record

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    def __reduce__(self):
        return type(self)._trusted, (vars(self),)


@dataclass(frozen=True, eq=False)
class PureState(_Record):
    """Normalized vector of 8 complex amplitudes over |ijk>.

    A state made from amplitudes the package derived from checked input
    (a family's closed form, a Haar draw, a local unitary's image, a
    canonical form) is built by ``_trusted`` and not checked again.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        # finiteness is the first check of the validation
        amps = _complex_array(self.amplitudes, "amplitudes").reshape(-1)
        if amps.shape != (8,):
            raise WrongDimensionError(f"expected 8 amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", _validated_amplitudes(amps[np.newaxis])[0])

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (2, 2, 2) with axes (A, B, C)."""
        return self.amplitudes.reshape(2, 2, 2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of each matrix of a finite stack, which must be
    Hermitian within HERM_ATOL and then of unit trace within NORM_ATOL."""
    m_h = m.conj().swapaxes(-1, -2)
    herm_dev = np.abs(m - m_h).max(axis=(-2, -1))
    _raise_first(herm_dev > HERM_ATOL, NotHermitianError,
                 lambda i: f"Hermiticity deviation {herm_dev[i]:.3e} exceeds {HERM_ATOL:.1e}")
    m = (m + m_h) / 2.0
    tr = m.trace(axis1=-2, axis2=-1).real
    _raise_first(np.abs(tr - 1.0) > NORM_ATOL, NotNormalizedError,
                 lambda i: f"trace is {tr[i]:.12g}, expected 1")
    return m


def _stored(m: np.ndarray) -> np.ndarray:
    """The contiguous real part of matrices m with no imaginary part, m itself otherwise.

    The one place a density matrix's arithmetic is chosen: its dtype picks
    the LAPACK routines of every later call.  A stack is real only whole.
    """
    if np.iscomplexobj(m) and not m.imag.any():
        return np.ascontiguousarray(m.real)
    return m


def _validated_matrices(m: np.ndarray) -> np.ndarray:
    """Check a stack of density matrices, shape (N, d, d); return the validated stack.

    The checks are those of ``DensityMatrix``, which is this routine on
    a stack of one: finite entries, Hermitian within HERM_ATOL, unit
    trace within NORM_ATOL, and no eigenvalue below EIG_FLOOR.  The
    result is the Hermitian part (m + m^dagger) / 2 of each matrix, so
    derived matrices are exactly Hermitian, held as ``_stored`` holds it:
    float64 when no imaginary part is left, so a real stack is validated
    in real arithmetic.  The spectra and eigenvectors come from one
    ``np.linalg.eigh`` call on the whole stack, and the rows whose
    smallest eigenvalue lies in [EIG_FLOOR, 0) are rebuilt from their
    spectrum clamped at zero and renormalized to unit trace.  The
    first invalid row raises what the scalar path raises, and the error
    records the row (see ``_raise_first``).  A stack with an entry beyond
    _ENTRY_MAX, which no density matrix has, is refused before LAPACK
    sees it.  The result is read-only.
    """
    if not np.abs(m).max() <= _ENTRY_MAX:  # also for a NaN
        _raise_first(~np.isfinite(m).all(axis=(-2, -1)), NonFiniteError,
                     lambda i: "NaN or infinite entry in density matrix")
        # the sums may overflow to inf, which fails the check it enters;
        # past both checks, an entry beyond 1 leaves a negative eigenvalue
        with np.errstate(over="ignore", invalid="ignore"):
            _hermitian_part(m)
        size = np.abs(m).max(axis=(-2, -1))
        _raise_first(size > _ENTRY_MAX, NotPSDError,
                     lambda i: f"entry of modulus {size[i]:.3e} in a Hermitian matrix of unit trace, "
                     "so an eigenvalue is negative")
    m = _stored(_hermitian_part(m))
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed for dimension {m.shape[-1]}: {exc}") from exc
    low = w[:, 0]
    _raise_first(low < EIG_FLOOR, NotPSDError, lambda i: f"minimum eigenvalue {low[i]:.3e} below {EIG_FLOOR:.1e}")
    clamp = low < 0.0
    if clamp.any():
        # descending, so the sum below adds the largest weights first
        w, v = w[clamp, ::-1], v[clamp][..., ::-1]
        c = (v * np.clip(w, 0.0, None)[:, np.newaxis, :]) @ v.conj().swapaxes(-1, -2)
        c = (c + c.conj().swapaxes(-1, -2)) / 2.0
        c /= c.trace(axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
        m[clamp] = c
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Record):
    """Hermitian, unit-trace, PSD matrix with its qubit layout.

    Validation is ``_validated_matrices`` on a stack of one: it keeps
    the Hermitian part (m + m^dagger) / 2, so derived matrices are
    exactly Hermitian, and clamps eigenvalues in [EIG_FLOOR, 0) to zero
    and renormalizes the trace.  Larger violations are hard errors.  A
    matrix with no imaginary part is held as float64, however it was
    made (``_stored``), and every measure of it runs in real arithmetic.
    """

    matrix: np.ndarray
    qubits: tuple[str, ...] = QUBITS

    def __post_init__(self):
        qubits = _layout(self.qubits)
        # finiteness is the first check of the validation
        m = _complex_array(self.matrix, "density matrix", (2 ** len(qubits),) * 2)
        object.__setattr__(self, "matrix", _validated_matrices(m[np.newaxis])[0])
        object.__setattr__(self, "qubits", qubits)

    @classmethod
    def _derived(cls, matrix: np.ndarray, qubits: tuple[str, ...]) -> DensityMatrix:
        """Wrap a matrix derived from checked input, skipping validation: a reduction
        of a validated state, or a family's closed form on in-domain parameters.

        The matrix is held as ``_stored`` holds it, read-only, through ``_trusted``."""
        return cls._trusted({"matrix": _stored(matrix), "qubits": qubits})


def _require_pure(psi, what: str) -> PureState:
    """psi, if a PureState; MixedStateUnsupportedError for a DensityMatrix, StateTypeError for anything else."""
    if isinstance(psi, PureState):
        return psi
    if isinstance(psi, DensityMatrix):
        raise MixedStateUnsupportedError(f"{what} is defined for pure states only")
    raise StateTypeError(f"{what} needs a PureState, got {type(psi).__name__}")


def _require_density(rho, what: str, n: int | None = None) -> DensityMatrix:
    """rho, if a DensityMatrix over n qubits (any if n is None); StateTypeError or WrongDimensionError if not."""
    if not isinstance(rho, DensityMatrix):
        raise StateTypeError(f"{what} needs a DensityMatrix, got {type(rho).__name__}")
    if n is not None and len(rho.qubits) != n:
        raise WrongDimensionError(f"{what} needs a {n}-qubit state, got layout {rho.qubits!r}")
    return rho


def _require_state(state, what: str) -> PureState | DensityMatrix:
    """state, if it is a PureState or a three-qubit DensityMatrix; StateTypeError or WrongDimensionError if not."""
    if isinstance(state, DensityMatrix):
        return _require_density(state, what, 3)
    if not isinstance(state, PureState):
        raise StateTypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    return state


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| / <psi|psi> on the full [A, B, C] layout.

    The division by sum |a|^2 puts the trace at 1 to rounding: PureState
    accepts a norm up to 1 + NORM_ATOL, whose bare projector would have a
    trace up to 1 + 2 NORM_ATOL, outside DensityMatrix's own tolerance.
    """
    amps = _require_pure(psi, "to_density").amplitudes
    return DensityMatrix._derived(np.outer(amps, amps.conj()) / (np.abs(amps) ** 2).sum(), QUBITS)


def _partial_trace(m: np.ndarray, n: int, ax: int) -> np.ndarray:
    """Trace out qubit ``ax`` of n-qubit matrices stacked on any leading axes."""
    d = 2 ** (n - 1)
    t = np.trace(m.reshape(m.shape[:-2] + (2,) * (2 * n)), axis1=ax - 2 * n, axis2=ax - n)
    return t.reshape(m.shape[:-2] + (d, d))


def _partial_transpose(m: np.ndarray, n: int, ax: int) -> np.ndarray:
    """Transpose qubit ``ax`` of n-qubit matrices stacked on any leading axes."""
    t = np.swapaxes(m.reshape(m.shape[:-2] + (2,) * (2 * n)), ax - 2 * n, ax - n)
    return np.ascontiguousarray(t.reshape(m.shape))


def _qubit_index(qubits: tuple[str, ...], q) -> int:
    """Position of label ``q`` in a layout; QubitNotPresentError for anything else."""
    if not isinstance(q, str) or q not in qubits:
        raise QubitNotPresentError(f"qubit {q!r} not in layout {qubits!r}")
    return qubits.index(q)


def partial_trace(rho: DensityMatrix, traced: str) -> DensityMatrix:
    """Discard one qubit; the layout drops the traced label."""
    _require_density(rho, "partial_trace")
    ax = _qubit_index(rho.qubits, traced)
    n = len(rho.qubits)
    if n < 2:
        raise WrongDimensionError("cannot trace the last remaining qubit")
    keep = tuple(q for q in rho.qubits if q != traced)
    return DensityMatrix._derived(_partial_trace(rho.matrix, n, ax), keep)


def transpose_qubit(matrix: np.ndarray, qubits: tuple[str, ...], side: str) -> np.ndarray:
    """Partial transpose of a raw matrix over one qubit of the layout.

    The layout is checked as ``DensityMatrix`` checks it, labels in A, B,
    C order, and the matrix must be finite numbers of the layout's shape.
    """
    qubits = _layout(qubits)
    ax = _qubit_index(qubits, side)
    m = _complex_entries(matrix, "matrix", (2 ** len(qubits),) * 2)
    return _partial_transpose(m, len(qubits), ax)


def partial_transpose(rho: DensityMatrix, side: str) -> np.ndarray:
    """Transpose the indices of one subsystem only.

    The result is Hermitian with trace 1 but in general not PSD, so a
    plain array is returned rather than a DensityMatrix.
    """
    _require_density(rho, "partial_transpose")
    return _partial_transpose(rho.matrix, len(rho.qubits), _qubit_index(rho.qubits, side))


def _check_unitary(u, name: str) -> np.ndarray:
    u = _complex_entries(u, name, (2, 2))
    size = np.abs(u).max()
    if size > 2.0:  # a unitary's entries have modulus at most 1; refused first, none can overflow u^dagger u
        raise NotUnitaryError(f"{name} has an entry of modulus {size:.3e}, where a unitary's are at most 1")
    dev = np.abs(u.conj().T @ u - np.eye(2)).max()
    if dev > UNITARY_ATOL:
        raise NotUnitaryError(f"{name} deviates from unitary by {dev:.3e}")
    return u


def apply_local_unitary(psi: PureState, u_a, u_b, u_c) -> PureState:
    """Apply u_a (x) u_b (x) u_c; all entanglement measures are invariant.

    The product is renormalized: each factor may deviate from unitary by
    UNITARY_ATOL, and three such deviations can exceed NORM_ATOL.
    """
    _require_pure(psi, "apply_local_unitary")
    u_a = _check_unitary(u_a, "u_a")
    u_b = _check_unitary(u_b, "u_b")
    u_c = _check_unitary(u_c, "u_c")
    out = np.einsum("ia,jb,kc,abc->ijk", u_a, u_b, u_c, psi.tensor).reshape(8)
    return PureState._trusted({"amplitudes": out / _norms(out)})


def _haar_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` Haar-random states of ``rng``, as an (n, 8) stack of amplitudes.

    Row i is row i of ``rng.standard_normal((n, 16))``: 8 real parts, then
    8 imaginary parts, normalized to unit length.  Successive calls read
    on along one stream, so stacks of 1024 and 452 rows equal one of 1476.
    """
    x = rng.standard_normal((n, 16))
    z = x[:, :8] + 1j * x[:, 8:]
    return z / _norms(z)[:, np.newaxis]


def _check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer before anything is drawn."""
    if not _is_number(seed, numbers.Integral) or seed < 0:
        raise ParamOutOfDomainError(f"seed must be a non-negative integer, got {_shown(seed)!r}")


def sample_haar_pure(seed: int) -> PureState:
    """Haar-random pure state: i.i.d. standard complex Gaussian amplitudes, normalized.

    The amplitudes are ``_haar_draws`` on a stack of one: the 16 normals
    of ``np.random.default_rng(seed).standard_normal(16)``, bit for bit,
    as real then imaginary parts.  This is state 0 of ``triqent random
    --seed seed``.  Raises ParamOutOfDomainError unless seed is a
    non-negative integer.
    """
    _check_seed(seed)
    return PureState._trusted({"amplitudes": _haar_draws(np.random.default_rng(seed), 1)[0]})


def sample_hs_mixed(seed: int, qubits: tuple[str, ...] = QUBITS) -> DensityMatrix:
    """Hilbert-Schmidt random mixed state G G^dagger / Tr with Gaussian G.

    Raises ParamOutOfDomainError unless seed is a non-negative integer, and
    QubitNotPresentError for a layout not in A, B, C order, before drawing.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    d = 2 ** len(_layout(qubits))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, qubits)
