"""Three-qubit state containers and the elementary operations on them.

Basis convention: the amplitude of |ijk> (i on qubit A, j on B, k on C)
sits at index 4*i + 2*j + k, i.e. qubit A is the most significant bit.
The same ordering applies row- and column-wise to density matrices,
with the first label of the subsystem layout most significant.
"""

from __future__ import annotations

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
#: the two qubits left when one is traced out
COMPLEMENT = {"A": ("B", "C"), "B": ("A", "C"), "C": ("A", "B")}

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
EIG_FLOOR = -1e-10
UNITARY_ATOL = 1e-10


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


def _validated_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Check a stack of amplitude vectors, shape (N, 8), and return it read-only.

    ``PureState`` validation is this routine on a stack of one; an
    invalid row raises what the scalar path raises, for the first such
    row, and the error records that row (see ``_raise_first``).
    """
    norm = np.sqrt((np.abs(amps) ** 2).sum(axis=-1))
    norm_dev = np.abs(norm - 1.0)
    if not norm_dev.max() <= NORM_ATOL:  # a NaN or infinite amplitude fails this too
        _raise_first(~np.isfinite(amps).all(axis=-1), NonFiniteError,
                     lambda i: "amplitudes hold a NaN or infinite entry")
        _raise_first(norm_dev > NORM_ATOL, NotNormalizedError,
                     lambda i: f"norm is {norm[i]:.12g}, expected 1")
    amps.setflags(write=False)
    return amps


def _complex_entries(x, what: str) -> np.ndarray:
    """``x`` as a new complex array; StateTypeError unless every entry is a number."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting
        a = np.asarray(None)
    # an object array is checked entry by entry: numpy would cast None to NaN
    if a.dtype.kind in "biufc" or (a.dtype == object and all(isinstance(v, numbers.Number) for v in a.flat)):
        return a.astype(complex)
    raise StateTypeError(f"{what} must be numbers, got {x!r:.80}")


def _layout(qubits) -> tuple[str, ...]:
    """``qubits`` as a tuple; QubitNotPresentError unless it names distinct labels of QUBITS."""
    try:
        layout = tuple(qubits)
    except TypeError:
        layout = ()
    if not layout or any(q not in QUBITS for q in layout) or len(set(layout)) != len(layout):
        raise QubitNotPresentError(f"invalid qubit layout {qubits!r}")
    return layout


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized vector of 8 complex amplitudes over |ijk>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _complex_entries(self.amplitudes, "amplitudes").reshape(-1)
        if amps.shape != (8,):
            raise WrongDimensionError(f"expected 8 amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", _validated_amplitudes(amps[np.newaxis])[0])

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (2, 2, 2) with axes (A, B, C)."""
        return self.amplitudes.reshape(2, 2, 2)


def _require_pure(psi, what: str) -> PureState:
    if not isinstance(psi, PureState):
        raise MixedStateUnsupportedError(f"{what} is defined for pure states only")
    return psi


def _validated_matrices(m: np.ndarray) -> np.ndarray:
    """Check a stack of density matrices, shape (N, d, d); return the validated stack.

    The checks are those of ``DensityMatrix``, which is this routine on
    a stack of one: finite entries, Hermitian within HERM_ATOL, unit
    trace within NORM_ATOL, and no eigenvalue below EIG_FLOOR, from one
    ``np.linalg.eigh`` call on the whole stack.  The result is the
    Hermitian part (m + m^dagger) / 2 of each matrix, so derived
    matrices are exactly Hermitian.  Only the rows whose smallest
    eigenvalue lies in [EIG_FLOOR, 0) are rebuilt from their spectrum
    clamped at zero and renormalized to unit trace.  The first invalid
    row raises what the scalar path raises, and the error records the
    row (see ``_raise_first``).  The result is read-only.
    """
    if not np.isfinite(m).all():
        _raise_first(~np.isfinite(m).all(axis=(-2, -1)), NonFiniteError,
                     lambda i: "density matrix holds a NaN or infinite entry")
    m_h = m.conj().swapaxes(-1, -2)
    herm_dev = np.abs(m - m_h).max(axis=(-2, -1))
    _raise_first(herm_dev > HERM_ATOL, NotHermitianError,
                 lambda i: f"Hermiticity deviation {herm_dev[i]:.3e} exceeds {HERM_ATOL:.1e}")
    m = (m + m_h) / 2.0
    tr = m.trace(axis1=-2, axis2=-1).real
    _raise_first(np.abs(tr - 1.0) > NORM_ATOL, NotNormalizedError,
                 lambda i: f"trace is {tr[i]:.12g}, expected 1")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed for dimension {m.shape[-1]}: {exc}") from exc
    # descending, so the clamp below sums the largest weights first
    w, v = w[:, ::-1], v[..., ::-1]
    low = w[:, -1]
    clamp = low < 0.0
    if clamp.any():
        _raise_first(low < EIG_FLOOR, NotPSDError,
                     lambda i: f"minimum eigenvalue {low[i]:.3e} below {EIG_FLOOR:.1e}")
        v = v[clamp]
        c = (v * np.clip(w[clamp], 0.0, None)[:, np.newaxis, :]) @ v.conj().swapaxes(-1, -2)
        c = (c + c.conj().swapaxes(-1, -2)) / 2.0
        c /= c.trace(axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
        m[clamp] = c
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix with its qubit layout.

    Validation is ``_validated_matrices`` on a stack of one: it keeps
    the Hermitian part (m + m^dagger) / 2, so derived matrices are
    exactly Hermitian, and clamps eigenvalues in [EIG_FLOOR, 0) to zero
    and renormalizes the trace.  Larger violations are hard errors.
    """

    matrix: np.ndarray
    qubits: tuple[str, ...] = QUBITS

    def __post_init__(self):
        qubits = _layout(self.qubits)
        dim = 2 ** len(qubits)
        m = _complex_entries(self.matrix, "density matrix entries")
        if m.shape != (dim, dim):
            raise WrongDimensionError(f"layout {qubits!r} needs shape {(dim, dim)}, got {m.shape}")
        object.__setattr__(self, "matrix", _validated_matrices(m[np.newaxis])[0])
        object.__setattr__(self, "qubits", qubits)

    @classmethod
    def _derived(cls, matrix: np.ndarray, qubits: tuple[str, ...]) -> DensityMatrix:
        """Wrap a matrix derived from checked input, skipping validation: a reduction
        of a validated state, or a family's closed form on in-domain parameters."""
        matrix.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "qubits", qubits)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_density(rho, what: str) -> DensityMatrix:
    if not isinstance(rho, DensityMatrix):
        raise StateTypeError(f"{what} needs a DensityMatrix, got {type(rho).__name__}")
    return rho


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| on the full [A, B, C] layout."""
    _require_pure(psi, "to_density")
    return DensityMatrix._derived(np.outer(psi.amplitudes, psi.amplitudes.conj()), QUBITS)


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

    The layout is checked as ``DensityMatrix`` checks it, and the matrix
    must be finite numbers of the layout's shape.
    """
    qubits = _layout(qubits)
    ax = _qubit_index(qubits, side)
    n = len(qubits)
    d = 2**n
    m = _complex_entries(matrix, "matrix entries")
    if m.shape != (d, d):
        raise WrongDimensionError(f"layout {qubits!r} needs shape {(d, d)}, got {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix holds a NaN or infinite entry")
    return _partial_transpose(m, n, ax)


def partial_transpose(rho: DensityMatrix, side: str) -> np.ndarray:
    """Transpose the indices of one subsystem only.

    The result is Hermitian with trace 1 but in general not PSD, so a
    plain array is returned rather than a DensityMatrix.
    """
    _require_density(rho, "partial_transpose")
    return _partial_transpose(rho.matrix, len(rho.qubits), _qubit_index(rho.qubits, side))


def _check_unitary(u, name: str) -> np.ndarray:
    u = _complex_entries(u, name)
    if u.shape != (2, 2):
        raise WrongDimensionError(f"{name} must be 2x2, got {u.shape}")
    if not np.isfinite(u).all():
        raise NonFiniteError(f"{name} holds a NaN or infinite entry")
    dev = np.abs(u.conj().T @ u - np.eye(2)).max()
    if dev > UNITARY_ATOL:
        raise NotUnitaryError(f"{name} deviates from unitary by {dev:.3e}")
    return u


def apply_local_unitary(psi: PureState, u_a, u_b, u_c) -> PureState:
    """Apply u_a (x) u_b (x) u_c; all entanglement measures are invariant."""
    _require_pure(psi, "apply_local_unitary")
    u_a = _check_unitary(u_a, "u_a")
    u_b = _check_unitary(u_b, "u_b")
    u_c = _check_unitary(u_c, "u_c")
    out = np.einsum("ia,jb,kc,abc->ijk", u_a, u_b, u_c, psi.tensor)
    return PureState(out.reshape(8))


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 seeding
# constants, from numpy/random/bit_generator.pyx and pcg64.h
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_SHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiplier) constants of ``n`` successive ``hashmix`` calls, shape (2, n).

    ``hashmix`` xors its value with the running constant, advances the
    constant and multiplies by the new one.  The constant advances by
    call, not by value, so one sequence serves every row of a stack.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    out = np.array([consts[:-1], consts[1:]], dtype=np.uint32)
    out.setflags(write=False)
    return out


def _spread_constants(consts: np.ndarray) -> np.ndarray:
    """The calls that mix each pool word into the other three, shape (pool, 2, pool).

    Entry [s, :, d] holds the constants of the call that mixes word s
    into word d, in the order SeedSequence makes them; the entry with
    d == s is no call and stays 0.
    """
    table = np.zeros((_POOL_SIZE, 2, _POOL_SIZE), dtype=np.uint32)
    calls = iter(consts.T)
    for s in range(_POOL_SIZE):
        for d in range(_POOL_SIZE):
            if d != s:
                table[s, :, d] = next(calls)
    table.setflags(write=False)
    return table


# the entropy mix's first 16 calls: four fill the pool with the first four
# words, twelve spread each pool word into the others; four calls per
# entropy word beyond the pool follow
_POOL_CONSTS = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_SIZE)
_SPREAD_CONSTS = _spread_constants(_POOL_CONSTS[:, _POOL_SIZE:])
#: generate_state(4, uint64) draws eight words, cycling over the pool
_OUTPUT_CONSTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` on uint32 columns, one call per column of ``consts``.

    ``value`` holds one column per call, or one column that every call
    mixes.  Array arithmetic wraps modulo 2**32 without a warning.
    """
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _SHIFT)


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The PCG64 ``(state, inc)`` of ``default_rng(seed)`` for each seed of an object array of ints.

    This is ``SeedSequence(seed).generate_state(4, np.uint64)`` followed
    by PCG64's ``srandom``, for the whole stack at once: the hash runs on
    an (N, words) uint32 array of the seeds' little-endian 32-bit words,
    the 128-bit step on Python ints in object arrays.
    """
    n_words = max(_POOL_SIZE, -(-int(seeds.max()).bit_length() // 32))
    shifts = np.array(range(0, 32 * n_words, 32), dtype=object)
    # SeedSequence pads a seed of fewer words than the pool with zero
    # words, which is what these columns hold for it
    entropy = ((seeds[:, None] >> shifts) & _MASK32).astype(np.uint32)
    pool = _hashmix(entropy[:, :_POOL_SIZE], _POOL_CONSTS[:, :_POOL_SIZE])
    for src in range(_POOL_SIZE):
        spread = _mix(pool, _hashmix(pool[:, src:src + 1], _SPREAD_CONSTS[src]))
        spread[:, src] = pool[:, src]
        pool = spread
    # the words beyond the pool, each mixed into every pool word; a row
    # takes word k only if its seed has that word
    const = int(_POOL_CONSTS[1, -1])
    for k in range(_POOL_SIZE, n_words):
        consts = _hash_constants(const, _MULT_A, _POOL_SIZE)
        const = int(consts[1, -1])
        mixed = _mix(pool, _hashmix(entropy[:, k:k + 1], consts))
        pool = np.where((seeds >= 1 << 32 * k)[:, None], mixed, pool)
    # generate_state's eight words, paired little-endian into
    # (init_hi, init_lo, seq_hi, seq_lo)
    words = _hashmix(np.concatenate([pool, pool], axis=1), _OUTPUT_CONSTS)
    u = words.astype("<u4").view("<u8").astype(np.uint64).astype(object)
    init, seq = ((u[:, 0::2] << 64) | u[:, 1::2]).T
    inc = ((seq << 1) | 1) & _MASK128
    return ((inc + init) * _PCG64_MULT + inc) & _MASK128, inc


def _haar_draws(seeds) -> np.ndarray:
    """Normalized i.i.d. standard complex Gaussian amplitudes, one seed per row.

    Row i is ``np.random.default_rng(seeds[i]).standard_normal(16)``, bit
    for bit, as 8 complex amplitudes (the real parts, then the imaginary
    parts) normalized to unit length.  Each seed becomes the PCG64 state
    that ``default_rng`` gives it: numpy's SeedSequence hash of the seed's
    32-bit words, then PCG64's seeding step, both computed for the whole
    stack at once (``_pcg64_states``).  What is left per seed is setting
    the state of one generator and drawing 16 normals.  The tier-1 suite
    pins the rows against ``default_rng`` of the installed numpy, so a
    numpy release that changes its seeding fails it.  The generator is
    made in each call, so concurrent callers share none.
    ``sample_haar_pure`` is this routine on a stack of one.
    """
    states, incs = _pcg64_states(np.array([int(s) for s in seeds], dtype=object))
    # the seed 0 is overwritten by each row's state
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    x = np.empty((len(states), 16))
    for i, (state, inc) in enumerate(zip(states.tolist(), incs.tolist())):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=x[i])
    z = x[:, :8] + 1j * x[:, 8:]
    return z / np.sqrt((np.abs(z) ** 2).sum(axis=-1, keepdims=True))


def _check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer before anything is drawn.

    ``bool`` is an ``int`` subclass, but ``True`` is not a seed.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ParamOutOfDomainError(f"seed must be a non-negative integer, got {seed!r}")


def sample_haar_pure(seed: int) -> PureState:
    """Haar-random pure state: i.i.d. standard complex Gaussian amplitudes, normalized.

    The amplitudes are ``_haar_draws([seed])``: the 16 normals of
    ``np.random.default_rng(seed).standard_normal(16)``, bit for bit,
    as real then imaginary parts.  Raises ParamOutOfDomainError unless
    seed is a non-negative integer.
    """
    _check_seed(seed)
    return PureState(_haar_draws([seed])[0])


def sample_hs_mixed(seed: int, qubits: tuple[str, ...] = QUBITS) -> DensityMatrix:
    """Hilbert-Schmidt random mixed state G G^dagger / Tr with Gaussian G.

    Raises ParamOutOfDomainError unless seed is a non-negative integer.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    d = 2 ** len(_layout(qubits))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, qubits)
