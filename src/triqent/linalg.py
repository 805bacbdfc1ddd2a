"""The public 2x2 singular value decomposition, ``svd_2x2``.

It is one LAPACK call (``np.linalg.svd``) plus a phase convention that
``gsd``'s closed-form slice factor keeps.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError
from .states import _complex_entries


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
    StateTypeError, WrongDimensionError, NonFiniteError, NoConvergenceError
    """
    m = _complex_entries(m, "matrix", (2, 2))
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK SVD failed: {exc}") from exc
    v = vh.conj().T
    top = v[np.argmax(np.abs(v), axis=0), [0, 1]]
    phase = top.conj() / np.abs(top)
    return u * phase, s, v * phase
