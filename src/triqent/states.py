"""Three-qubit state containers and the elementary operations on them.

Basis convention: the amplitude of |ijk> (i on qubit A, j on B, k on C)
sits at index 4*i + 2*j + k, i.e. qubit A is the most significant bit.
The same ordering applies row- and column-wise to density matrices,
with the first label of the subsystem layout most significant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MixedStateUnsupportedError,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    QubitNotPresentError,
    StateTypeError,
    WrongDimensionError,
)
from .linalg import eig_hermitian

QUBITS = ("A", "B", "C")
#: the two qubits left when one is traced out
COMPLEMENT = {"A": ("B", "C"), "B": ("A", "C"), "C": ("A", "B")}

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
EIG_FLOOR = -1e-10
UNITARY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized vector of 8 complex amplitudes over |ijk>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (8,):
            raise WrongDimensionError(f"expected 8 amplitudes, got {amps.shape}")
        if not np.isfinite(amps).all():
            raise NonFiniteError("amplitudes hold a NaN or infinite entry")
        norm = np.sqrt((np.abs(amps) ** 2).sum())
        if abs(norm - 1.0) > NORM_ATOL:
            raise NotNormalizedError(f"norm is {norm:.12g}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (2, 2, 2) with axes (A, B, C)."""
        return self.amplitudes.reshape(2, 2, 2)


def _require_pure(psi, what: str) -> PureState:
    if not isinstance(psi, PureState):
        raise MixedStateUnsupportedError(f"{what} is defined for pure states only")
    return psi


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix with its qubit layout.

    Validation keeps the Hermitian part (m + m^dagger) / 2, so derived
    matrices are exactly Hermitian; it clamps eigenvalues in
    [EIG_FLOOR, 0) to zero and renormalizes the trace.  Larger
    violations are hard errors.
    """

    matrix: np.ndarray
    qubits: tuple[str, ...] = QUBITS

    def __post_init__(self):
        qubits = tuple(self.qubits)
        if not qubits or len(set(qubits)) != len(qubits) or any(q not in QUBITS for q in qubits):
            raise QubitNotPresentError(f"invalid qubit layout {qubits!r}")
        dim = 2 ** len(qubits)
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise WrongDimensionError(f"layout {qubits!r} needs shape {(dim, dim)}, got {m.shape}")
        if not np.isfinite(m).all():
            raise NonFiniteError("density matrix holds a NaN or infinite entry")
        herm_dev = np.abs(m - m.conj().T).max()
        if herm_dev > HERM_ATOL:
            raise NotHermitianError(f"Hermiticity deviation {herm_dev:.3e} exceeds {HERM_ATOL:.1e}")
        m = (m + m.conj().T) / 2.0
        tr = m.trace().real
        if abs(tr - 1.0) > NORM_ATOL:
            raise NotNormalizedError(f"trace is {tr:.12g}, expected 1")
        eig = eig_hermitian(m, HERM_ATOL)
        if eig.values[-1] < EIG_FLOOR:
            raise NotPSDError(f"minimum eigenvalue {eig.values[-1]:.3e} below {EIG_FLOOR:.1e}")
        if eig.values[-1] < 0.0:
            w = np.clip(eig.values, 0.0, None)
            m = (eig.vectors * w) @ eig.vectors.conj().T
            m = (m + m.conj().T) / 2.0
            m /= m.trace().real
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", qubits)

    @classmethod
    def _derived(cls, matrix: np.ndarray, qubits: tuple[str, ...]) -> DensityMatrix:
        """Wrap a matrix derived from an already-validated state, skipping validation."""
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


def partial_trace(rho: DensityMatrix, traced: str) -> DensityMatrix:
    """Discard one qubit; the layout drops the traced label."""
    _require_density(rho, "partial_trace")
    if traced not in rho.qubits:
        raise QubitNotPresentError(f"qubit {traced!r} not in layout {rho.qubits!r}")
    n = len(rho.qubits)
    if n < 2:
        raise WrongDimensionError("cannot trace the last remaining qubit")
    keep = tuple(q for q in rho.qubits if q != traced)
    return DensityMatrix._derived(_partial_trace(rho.matrix, n, rho.qubits.index(traced)), keep)


def transpose_qubit(matrix: np.ndarray, qubits: tuple[str, ...], side: str) -> np.ndarray:
    """Partial transpose of a raw matrix over one qubit of the layout."""
    if side not in qubits:
        raise QubitNotPresentError(f"qubit {side!r} not in layout {qubits!r}")
    n = len(qubits)
    d = 2**n
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (d, d):
        raise WrongDimensionError(f"layout {qubits!r} needs shape {(d, d)}, got {m.shape}")
    return _partial_transpose(m, n, qubits.index(side))


def partial_transpose(rho: DensityMatrix, side: str) -> np.ndarray:
    """Transpose the indices of one subsystem only.

    The result is Hermitian with trace 1 but in general not PSD, so a
    plain array is returned rather than a DensityMatrix.
    """
    _require_density(rho, "partial_transpose")
    return transpose_qubit(rho.matrix, rho.qubits, side)


def _check_unitary(u, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
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


def sample_haar_pure(seed: int) -> PureState:
    """Haar-random pure state: i.i.d. standard complex Gaussian amplitudes, normalized."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return PureState(z / np.sqrt((np.abs(z) ** 2).sum()))


def sample_hs_mixed(seed: int, qubits: tuple[str, ...] = QUBITS) -> DensityMatrix:
    """Hilbert-Schmidt random mixed state G G^dagger / Tr with Gaussian G."""
    rng = np.random.default_rng(seed)
    d = 2 ** len(qubits)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, qubits)
