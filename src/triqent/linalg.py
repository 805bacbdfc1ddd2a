"""Dense complex linear algebra for matrices up to 8x8.

Provides two checked factorizations, both LAPACK: the Hermitian
eigendecomposition (``np.linalg.eigh``) of a matrix or a stack of
matrices, which validates states and is the measures' general
reference, and the 2x2 singular value decomposition
(``np.linalg.svd``), which ``gsd`` uses.  The stacked measure routines
call LAPACK directly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotSquareError,
    WrongDimensionError,
)

MAX_DIM = 8


class HermitianEigen(NamedTuple):
    """Eigenvalues sorted descending and the matching unitary eigenbasis."""

    values: np.ndarray
    vectors: np.ndarray


def _as_square(a, name: str = "matrix") -> np.ndarray:
    """``a`` as complex128, one square matrix or a stack of them on leading axes."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotSquareError(f"{name} must be square, got shape {a.shape}")
    if not 1 <= a.shape[-1] <= MAX_DIM:
        raise WrongDimensionError(f"{name} dimension {a.shape[-1]} outside 1..{MAX_DIM}")
    return a


def eig_hermitian(a, hermiticity_tol: float = 1e-10) -> HermitianEigen:
    """Diagonalize a complex Hermitian matrix, or each of a stack of them.

    Parameters
    ----------
    a : array_like
        Square complex matrix, or matrices stacked on leading axes, each
        Hermitian within ``hermiticity_tol`` (max absolute entrywise
        deviation from the conjugate transpose).  The input is
        symmetrized to (a + a^dagger)/2 before factoring.
    hermiticity_tol : float
        Largest tolerated deviation from Hermiticity; must be finite.

    Returns
    -------
    HermitianEigen
        Real eigenvalues in descending order (LAPACK's ascending order
        reversed, ties included) and a unitary matrix whose columns are
        the eigenvectors in matching order; a stack gets both per
        matrix.  A matrix of a stack is factored exactly as it would be
        alone.

    Raises
    ------
    NotSquareError, NonFiniteError, NotHermitianError, NoConvergenceError
    """
    if not math.isfinite(hermiticity_tol):
        raise NonFiniteError(f"hermiticity_tol must be finite, got {hermiticity_tol}")
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix holds a NaN or infinite entry")
    a_h = a.conj().swapaxes(-1, -2)
    dev = np.abs(a - a_h).max()
    if dev > hermiticity_tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {dev:.3e} (tolerance {hermiticity_tol:.3e})"
        )
    h = (a + a_h) / 2.0
    try:
        w, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed for dimension {h.shape[-1]}: {exc}") from exc
    # LAPACK returns ascending eigenvalues
    return HermitianEigen(w[..., ::-1], vectors[..., ::-1])


def svd_2x2(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition of a 2x2 complex matrix (LAPACK).

    Returns ``(u, s, v)`` with ``u`` and ``v`` unitary, ``s`` the two
    singular values in descending order, and ``m = u @ diag(s) @ v^dagger``.
    Both singular values carry an absolute error of about eps * s[0], so
    a rank-1 matrix has ``s[1]`` at rounding level.  Each column of ``v``
    is rotated, together with the matching column of ``u``, so its
    largest-magnitude entry is real >= 0; the output is deterministic.

    Raises
    ------
    NotSquareError, WrongDimensionError, NonFiniteError, NoConvergenceError
    """
    m = _as_square(m)
    if m.shape != (2, 2):
        raise WrongDimensionError(f"expected a 2x2 matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix holds a NaN or infinite entry")
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK SVD failed: {exc}") from exc
    v = vh.conj().T
    top = v[np.argmax(np.abs(v), axis=0), [0, 1]]
    phase = top.conj() / np.abs(top)
    return u * phase, s, v * phase
