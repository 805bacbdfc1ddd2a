"""Dense complex linear algebra for matrices up to 8x8.

Provides the three factorizations the rest of the package is built on:
Hermitian eigendecomposition (LAPACK, through ``np.linalg.eigh``), 2x2
singular value decomposition and the Hermitian square root of a PSD
matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    WrongDimensionError,
)

MAX_DIM = 8
#: eigenvalues of a nominally PSD matrix may undershoot zero by this much
PSD_FLOOR = -1e-10


class HermitianEigen(NamedTuple):
    """Eigenvalues sorted descending and the matching unitary eigenbasis."""

    values: np.ndarray
    vectors: np.ndarray


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise WrongDimensionError(f"{name} dimension {a.shape[0]} outside 1..{MAX_DIM}")
    return a


def eig_hermitian(a, hermiticity_tol: float = 1e-10) -> HermitianEigen:
    """Diagonalize a complex Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Square complex matrix, Hermitian within ``hermiticity_tol``
        (max absolute entrywise deviation from the conjugate transpose).
        The input is symmetrized to (a + a^dagger)/2 before factoring.
    hermiticity_tol : float
        Largest tolerated deviation from Hermiticity.

    Returns
    -------
    HermitianEigen
        Real eigenvalues in descending order (ties keep LAPACK's order)
        and a unitary matrix whose columns are the eigenvectors in
        matching order.

    Raises
    ------
    NotSquareError, NonFiniteError, NotHermitianError, NoConvergenceError
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix holds a NaN or infinite entry")
    dev = np.abs(a - a.conj().T).max()
    if dev > hermiticity_tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {dev:.3e} (tolerance {hermiticity_tol:.3e})"
        )
    h = (a + a.conj().T) / 2.0
    try:
        w, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed for dimension {h.shape[0]}: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return HermitianEigen(w[order], vectors[:, order])


def _column_phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real >= 0."""
    v = v.copy()
    for i in range(v.shape[1]):
        col = v[:, i]
        j = int(np.argmax(np.abs(col)))
        mag = abs(col[j])
        if mag > 0.0:
            v[:, i] = col * (col[j].conjugate() / mag)
    return v


def svd_2x2(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition of a 2x2 complex matrix.

    Returns ``(u, s, v)`` with ``u`` and ``v`` unitary, ``s`` the two
    singular values in descending order, and ``m = u @ diag(s) @ v^dagger``.
    Column phases of ``v`` are normalized (largest entry real >= 0) so the
    output is deterministic.
    """
    m = _as_square(m)
    if m.shape[0] != 2:
        raise WrongDimensionError(f"expected a 2x2 matrix, got {m.shape}")
    gram = m.conj().T @ m
    w, vecs = eig_hermitian(gram)
    s = np.sqrt(np.clip(w, 0.0, None))
    v = _column_phase_normalize(vecs)

    if s[0] == 0.0:
        return np.eye(2, dtype=complex), s, np.eye(2, dtype=complex)

    u1 = m @ v[:, 0] / s[0]
    u1 = u1 / np.sqrt((np.abs(u1) ** 2).sum())
    # exact orthonormal completion; phase chosen so m @ v2 = s2 * u2
    u2 = np.array([-u1[1].conjugate(), u1[0].conjugate()])
    w2 = m @ v[:, 1]
    d = u2.conjugate() @ w2
    if abs(d) > 0.0:
        u2 = u2 * (d / abs(d))
    u = np.column_stack([u1, u2])
    return u, s, v


def sqrt_psd(a, hermiticity_tol: float = 1e-10) -> np.ndarray:
    """Hermitian square root of a Hermitian PSD matrix.

    Eigenvalues in ``[PSD_FLOOR, 0)`` are clamped to zero; anything below
    the floor raises :class:`NotPSDError`.
    """
    eig = eig_hermitian(a, hermiticity_tol)
    if eig.values[-1] < PSD_FLOOR:
        raise NotPSDError(f"minimum eigenvalue {eig.values[-1]:.3e} below {PSD_FLOOR:.1e}")
    w = np.sqrt(np.clip(eig.values, 0.0, None))
    r = (eig.vectors * w) @ eig.vectors.conj().T
    return (r + r.conj().T) / 2.0
