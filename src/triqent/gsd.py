"""Generalized Schmidt decomposition of three-qubit pure states.

Any pure state can be brought by local unitaries to a canonical form
with at most five nonzero amplitudes,

    alpha|000> + beta|100> + delta|110> + epsilon|101> + omega|111>,

i.e. the |001>, |010> and |011> amplitudes vanish.  The reduction works
on the two 2x2 slices T0, T1 of the amplitude tensor (T_i[j, k] is the
|ijk> amplitude):

1. find a unit vector x = (x0, x1) with det T(x) = 0, where
   T(x) = x0 T0 + x1 T1.  One routine solves the pencil in local
   coordinates, det(T(x) + t T(y)) = 0 with y orthogonal to x.  At
   x = (1, 0) this is det(T0 + z T1) = 0 in z = x1/x0; of its roots,
   the one whose slice has the largest Frobenius norm (its top singular
   value, since the slice is singular) is picked.  Around the picked x
   the same routine corrects x in one step, plus a step to the vertex
   when the two local roots coincide (the W class);
2. rotate qubit A by the unitary whose first row is (x0, x1), making
   the new T0 slice singular;
3. SVD that rank-1 slice, T0 = lambda u1 v1^dagger, and absorb the
   factors into qubits B and C, leaving T0 = diag(lambda, 0).  Only u1
   and v are defined by the slice; the second row of u_b is the exact
   orthonormal completion of u1, so no phase is read from the rounding
   noise in the zero singular value;
4. optionally (normal-phase mode) multiply diagonal phase unitaries
   into all three qubits so that alpha, delta, epsilon and omega are
   real and nonnegative; only beta may keep a phase.

Raw mode skips step 4, which keeps relative phases (and hence
orthogonality) within a canonical class instead of collapsing them.
Its phases are fixed by the SVD's column convention (largest entry of
each column of v real >= 0) and the completion above, so they are a
function of the state: a perturbation at rounding level moves them at
rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import DEFAULT_ZERO_TOL, SubtypeLabel, check_zero_tol
from .errors import (
    AmbiguousNearThresholdError,
    NumericalDegeneracyError,
    ParamOutOfDomainError,
    StateTypeError,
)
from .families import from_gsd_coefficients
from .linalg import svd_2x2
from .states import PureState, _complex_entries, _require_pure

#: polynomial coefficients below this are treated as identically zero
_COEFF_TOL = 1e-13
#: relative cutoff between the quadratic / linear / constant branches
_BRANCH_RTOL = 1e-12
#: local roots this close (relative to max(1, |t|)) are a double root
_DOUBLE_ROOT_RTOL = 1e-6
#: two root candidates whose top singular values differ by less than
#: this are tied; the tie goes to the smaller |z|
_LAMBDA_TIE_TOL = 1e-12
#: canonical zero amplitudes must come out below this
_ZERO_RESIDUAL_TOL = 1e-10
#: a coefficient below this fixes no phase knob
_PHASE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GsdForm:
    """Canonical coefficients plus the local unitaries that produce them."""

    alpha: complex
    beta: complex
    delta: complex
    epsilon: complex
    omega: complex
    mode: str
    u_a: np.ndarray
    u_b: np.ndarray
    u_c: np.ndarray

    @property
    def coefficients(self) -> np.ndarray:
        """The five coefficients in (alpha, beta, delta, epsilon, omega) order."""
        return np.array([self.alpha, self.beta, self.delta, self.epsilon, self.omega])

    def to_state(self) -> PureState:
        return from_gsd_coefficients(*self.coefficients)


@dataclass(frozen=True)
class GsdPattern:
    """Zero/nonzero coefficient pattern and the subtype it implies."""

    pattern: str
    subtype: SubtypeLabel


def _det2(m) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _solve_quadratic(a: complex, b: complex, c: complex) -> list[complex]:
    """Both roots of a z^2 + b z + c with a != 0, cancellation-safe; a double root twice."""
    disc = b * b - 4.0 * a * c
    # a numerically double root is located by the vertex: the usual
    # formula would inject the sqrt of the discriminant's rounding noise
    if abs(disc) <= 100.0 * np.finfo(float).eps * max(abs(b * b), abs(4.0 * a * c)):
        return [-b / (2.0 * a)] * 2
    s = np.sqrt(complex(disc))
    if abs(b - s) > abs(b + s):
        s = -s
    q = -(b + s) / 2.0
    z1 = q / a
    z2 = c / q if abs(q) > 0.0 else z1
    if abs(z1 - z2) <= 1e-12 * max(1.0, abs(z1)):
        return [z1] * 2
    return [z1, z2]


def _unit_pair(x0: complex, x1: complex) -> tuple[complex, complex]:
    n = np.sqrt(abs(x0) ** 2 + abs(x1) ** 2)
    return x0 / n, x1 / n


def _frobenius_top_direction(t0: np.ndarray, t1: np.ndarray) -> tuple[complex, complex]:
    # when every direction is singular the slices span rank-1 matrices
    # only, so maximizing the Frobenius norm maximizes lambda as well:
    # the top right singular vector of [vec T0, vec T1]
    top = np.linalg.svd(np.column_stack([t0.ravel(), t1.ravel()]))[2][0].conj()
    return _unit_pair(top[0], top[1])


def _local_pencil(m: np.ndarray, my: np.ndarray):
    """Coefficients and finite roots of det(m + t my) = d2 t^2 + d1 t + d0.

    With m = T(x) and my = T(y) this is the pencil in local coordinates
    around the direction x.  A coefficient at or below _BRANCH_RTOL of the
    largest drops the degree, and each root lost that way sits at
    t = infinity, that is, at y itself.
    """
    d0 = _det2(m)
    d2 = _det2(my)
    d1 = m[0, 0] * my[1, 1] + my[0, 0] * m[1, 1] - m[0, 1] * my[1, 0] - my[0, 1] * m[1, 0]
    scale = max(abs(d0), abs(d1), abs(d2))
    if abs(d2) > _BRANCH_RTOL * scale:
        roots = _solve_quadratic(d2, d1, d0)
    elif abs(d1) > _BRANCH_RTOL * scale:
        roots = [-d0 / d1]
    else:
        roots = []
    return (d0, d1, d2), roots


def _singular_directions(t0: np.ndarray, t1: np.ndarray) -> list[tuple[complex, complex]]:
    # the local pencil at x = (1, 0), y = (0, 1) is det(T0 + z T1)
    (c0, c1, c2), roots = _local_pencil(t0, t1)
    if max(abs(c0), abs(c1), abs(c2)) < _COEFF_TOL:
        return [_frobenius_top_direction(t0, t1)]
    directions = [_unit_pair(1.0, z) for z in roots]
    if len(roots) < 2:
        # det T1 ~ 0: the root at infinity
        directions.append((0.0 + 0.0j, 1.0 + 0.0j))
    return directions


def _pick_direction(candidates, t0, t1) -> tuple[complex, complex]:
    """Largest lambda wins; ties go to the smaller |x1/x0|.

    Every candidate slice is singular, so its Frobenius norm is its top
    singular value lambda.
    """
    best = None
    for x0, x1 in candidates:
        lam = float(np.linalg.norm(x0 * t0 + x1 * t1))
        zmag = abs(x1) / abs(x0) if abs(x0) > 1e-15 else np.inf
        if best is None or lam > best[0] + _LAMBDA_TIE_TOL:
            best = (lam, zmag, x0, x1)
        elif abs(lam - best[0]) <= _LAMBDA_TIE_TOL and zmag < best[1]:
            best = (lam, zmag, x0, x1)
    return best[2], best[3]


def _step(x0, x1, y0, y1, t, t0, t1):
    """The unit direction x + t y and the singular values of its slice."""
    nx0, nx1 = _unit_pair(x0 + t * y0, x1 + t * y1)
    return nx0, nx1, np.linalg.svd(nx0 * t0 + nx1 * t1, compute_uv=False)


def _refine_direction(x0, x1, t0, t1) -> tuple[complex, complex]:
    """Re-solve the singularity condition in local coordinates around x.

    States within ~1e-8 of a biseparable form defeat the global
    polynomial: locating its (near-coincident) roots requires resolving
    a cancellation below the evaluation noise.  Expanding around the
    current direction x along its orthogonal complement y,

        det(T(x) + t T(y)) = d2 t^2 + d1 t + d0,

    is well scaled instead: T(x) is computed first with only entrywise
    rounding, so the smallest-|t| root corrects x to machine precision.
    The pencil is exactly quadratic in t, so one step is all there is;
    it is taken only when it lowers the second singular value s2 of
    T(x), which the SVD resolves down to about eps * s1, and skipped
    whenever x is already singular enough.

    At a double root (W class) s2 grows only as the square of the
    direction error, so that guard passes x within about 1e-7, and the
    two local roots split by the square root of the rounding noise in
    d0.  When they agree to _DOUBLE_ROOT_RTOL, x then steps to the
    vertex -d1 / (2 d2), which d1 and d2 give to rounding accuracy; the
    step is kept unless it raises s2 above rounding level.  A d2 below
    _COEFF_TOL is rounding noise (every direction is singular, as for a
    product state), and then there is no vertex to step to.
    """
    m = x0 * t0 + x1 * t1
    y0, y1 = -x1.conjugate(), x0.conjugate()
    s = np.linalg.svd(m, compute_uv=False)
    d, roots = _local_pencil(m, y0 * t0 + y1 * t1)
    if s[1] > 1e-14 * max(1.0, s[0]) and roots:
        nx0, nx1, ns = _step(x0, x1, y0, y1, min(roots, key=abs), t0, t1)
        if ns[1] < s[1]:
            x0, x1, s = nx0, nx1, ns
            y0, y1 = -x1.conjugate(), x0.conjugate()
            d, roots = _local_pencil(x0 * t0 + x1 * t1, y0 * t0 + y1 * t1)
    double = len(roots) == 2 and abs(roots[0] - roots[1]) <= _DOUBLE_ROOT_RTOL * max(
        1.0, abs(roots[0]), abs(roots[1])
    )
    if double and abs(d[2]) >= _COEFF_TOL:
        nx0, nx1, ns = _step(x0, x1, y0, y1, -d[1] / (2.0 * d[2]), t0, t1)
        if ns[1] <= max(s[1], 1e-15 * s[0]):
            x0, x1 = nx0, nx1
    return x0, x1


def _phase_angles(alpha, delta, epsilon, omega):
    """Phase knobs (global g, per-qubit a, b, c) zeroing the target phases.

    Coefficient c_ijk picks up the phase g + i*a + j*b + k*c; the knobs
    are chosen so alpha, delta, epsilon and omega become real >= 0.
    Coefficients below _PHASE_TOL impose no condition.  a is needed only when
    delta, epsilon and omega are all set; otherwise delta fixes b,
    epsilon fixes c, and omega fixes whichever of the two is left, c
    first.
    """
    g = -np.angle(alpha) if abs(alpha) > _PHASE_TOL else 0.0
    d_nz, e_nz, w_nz = abs(delta) > _PHASE_TOL, abs(epsilon) > _PHASE_TOL, abs(omega) > _PHASE_TOL
    phd, phe, phw = np.angle(delta), np.angle(epsilon), np.angle(omega)
    a = phw - phd - phe - g if d_nz and e_nz and w_nz else 0.0
    b = -g - a - phd if d_nz else 0.0
    c = -g - a - phe if e_nz else 0.0
    if w_nz and not e_nz:
        c = -g - b - phw
    elif w_nz and not d_nz:
        b = -g - c - phw
    return g, a, b, c


def gsd(psi: PureState, mode: str = "raw") -> GsdForm:
    """Reduce a pure state to generalized-Schmidt canonical form.

    mode is "raw" (no phase fixing) or "normal" (alpha, delta, epsilon,
    omega real and nonnegative, at most beta phased).  The returned
    unitaries map the input to the canonical state.
    """
    _require_pure(psi, "the canonical decomposition")
    if not isinstance(mode, str) or mode not in ("raw", "normal"):
        raise ParamOutOfDomainError(f"mode must be 'raw' or 'normal', got {mode!r}")
    t = psi.tensor
    t0, t1 = t[0].astype(complex), t[1].astype(complex)

    x0, x1 = _pick_direction(_singular_directions(t0, t1), t0, t1)
    x0, x1 = _refine_direction(x0, x1, t0, t1)
    u_a = np.array([[x0, x1], [-x1.conjugate(), x0.conjugate()]])
    ta = np.einsum("ia,ajk->ijk", u_a, t)

    # ta[0] has rank <= 1, so only u1 and v are defined by it; the
    # second row of u_b is the exact completion of u1
    u, _, v = svd_2x2(ta[0])
    u1 = u[:, 0]
    u_b = np.array([u1.conj(), [-u1[1], u1[0]]])
    u_c = v.T
    tc = np.einsum("jb,kc,ibc->ijk", u_b, u_c, ta)

    if mode == "normal":
        g, pa, pb, pc = _phase_angles(tc[0, 0, 0], tc[1, 1, 0], tc[1, 0, 1], tc[1, 1, 1])
        d_a = np.exp(1j * g) * np.diag([1.0, np.exp(1j * pa)])
        d_b = np.diag([1.0, np.exp(1j * pb)])
        d_c = np.diag([1.0, np.exp(1j * pc)])
        tc = np.einsum("ia,jb,kc,abc->ijk", d_a, d_b, d_c, tc)
        u_a = d_a @ u_a
        u_b = d_b @ u_b
        u_c = d_c @ u_c

    residuals = (abs(tc[0, 0, 1]), abs(tc[0, 1, 0]), abs(tc[0, 1, 1]))
    if max(residuals) > _ZERO_RESIDUAL_TOL:
        raise NumericalDegeneracyError(
            f"canonical zeros failed: |t001|, |t010|, |t011| = {residuals}"
        )

    return GsdForm(
        alpha=complex(tc[0, 0, 0]),
        beta=complex(tc[1, 0, 0]),
        delta=complex(tc[1, 1, 0]),
        epsilon=complex(tc[1, 0, 1]),
        omega=complex(tc[1, 1, 1]),
        mode=mode,
        u_a=u_a,
        u_b=u_b,
        u_c=u_c,
    )


_PATTERNS_WITH_OMEGA = {
    # (beta, delta, epsilon) nonzero flags -> pattern when alpha, omega != 0
    (False, False, False): ("GHZ", SubtypeLabel("2-0")),
    (True, False, False): ("IV", SubtypeLabel("2-1", None, ("BC",))),
    (False, True, False): ("IV''", SubtypeLabel("2-1", None, ("AB",))),
    (False, False, True): ("IV'", SubtypeLabel("2-1", None, ("AC",))),
    (True, False, True): ("S", SubtypeLabel("2-2", None, ("BC", "AC"))),
    (True, True, False): ("S'", SubtypeLabel("2-2", None, ("BC", "AB"))),
    (False, True, True): ("W", SubtypeLabel("2-3", None, ("BC", "AC", "AB"))),
    (True, True, True): ("W", SubtypeLabel("2-3", None, ("BC", "AC", "AB"))),
}


def classify_gsd_pattern(form: GsdForm, zero_tol: float = DEFAULT_ZERO_TOL) -> GsdPattern:
    """Match the zero/nonzero coefficient pattern against the canonical catalog.

    The pair concurrences of a canonical form are C_AB = 2|alpha delta|,
    C_AC = 2|alpha epsilon| and C_BC = 2|beta omega - delta epsilon|, so
    with all five coefficients nonzero pair BC is still separable when
    beta*omega = delta*epsilon: the star S'' centred on A, completing S
    (centre C) and S' (centre B).

    Raises StateTypeError when a coefficient is not a number,
    NonFiniteError when one is NaN or infinite, and
    AmbiguousNearThresholdError when any coefficient magnitude or the
    product difference |beta*omega - delta*epsilon| falls within a
    factor of 10 of zero_tol, since the caller must then decide which
    side of the boundary was meant.
    """
    if not isinstance(form, GsdForm):
        raise StateTypeError(f"classify_gsd_pattern needs a GsdForm, got {type(form).__name__}")
    check_zero_tol(zero_tol)
    _complex_entries((form.alpha, form.beta, form.delta, form.epsilon, form.omega), "canonical coefficients", (5,))
    mags = {
        "alpha": abs(form.alpha),
        "beta": abs(form.beta),
        "delta": abs(form.delta),
        "epsilon": abs(form.epsilon),
        "omega": abs(form.omega),
        "beta*omega - delta*epsilon": abs(form.beta * form.omega - form.delta * form.epsilon),
    }
    for name, value in mags.items():
        if zero_tol / 10.0 <= value <= zero_tol * 10.0:
            raise AmbiguousNearThresholdError(
                f"|{name}| = {value:.3e} is within a decade of zero_tol = {zero_tol:.1e}"
            )

    nz = {k: v > zero_tol for k, v in mags.items()}
    if not nz["alpha"]:
        # every alpha = 0 form factors qubit A off; the leftover pair is
        # entangled exactly when beta*omega != delta*epsilon
        if nz["beta*omega - delta*epsilon"]:
            return GsdPattern("B", SubtypeLabel("1^1-1", "A", ("BC",)))
        return GsdPattern("product", SubtypeLabel("0-0"))
    if nz["omega"]:
        if nz["beta"] and nz["delta"] and nz["epsilon"] and not nz["beta*omega - delta*epsilon"]:
            return GsdPattern("S''", SubtypeLabel("2-2", None, ("AC", "AB")))
        pattern, subtype = _PATTERNS_WITH_OMEGA[(nz["beta"], nz["delta"], nz["epsilon"])]
        return GsdPattern(pattern, subtype)
    if nz["delta"] and nz["epsilon"]:
        return GsdPattern("W", SubtypeLabel("2-3", None, ("BC", "AC", "AB")))
    if nz["epsilon"]:
        return GsdPattern("B'", SubtypeLabel("1^1-1", "B", ("AC",)))
    if nz["delta"]:
        return GsdPattern("B''", SubtypeLabel("1^1-1", "C", ("AB",)))
    return GsdPattern("product", SubtypeLabel("0-0"))
