"""Generalized Schmidt decomposition of three-qubit pure states.

Any pure state can be brought by local unitaries to a canonical form
with at most five nonzero amplitudes,

    alpha|000> + beta|100> + delta|110> + epsilon|101> + omega|111>,

i.e. the |001>, |010> and |011> amplitudes vanish.  The reduction works
on the two 2x2 slices T0, T1 of the amplitude tensor (T_i[j, k] is the
|ijk> amplitude):

1. find a unit vector (x0, x1) with det(x0 T0 + x1 T1) = 0, by solving
   the quadratic det(T0 + z T1) = 0 in z = x1/x0;
2. rotate qubit A by the unitary whose first row is (x0, x1), making
   the new T0 slice singular;
3. SVD that slice and absorb the factors into qubits B and C, leaving
   T0 = diag(lambda, 0);
4. optionally (normal-phase mode) multiply diagonal phase unitaries
   into all three qubits so that alpha, delta, epsilon and omega are
   real and nonnegative; only beta may keep a phase.

Raw mode skips step 4, which keeps relative phases (and hence
orthogonality) within a canonical class instead of collapsing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import SubtypeLabel, check_zero_tol
from .errors import AmbiguousNearThresholdError, NumericalDegeneracyError
from .linalg import eig_hermitian, svd_2x2
from .states import PureState, _require_pure

#: polynomial coefficients below this are treated as identically zero
_COEFF_TOL = 1e-13
#: relative cutoff between the quadratic / linear / constant branches
_BRANCH_RTOL = 1e-12
#: two root candidates whose top singular values differ by less than
#: this are tied; the tie goes to the smaller |z|
_LAMBDA_TIE_TOL = 1e-12
#: canonical zero amplitudes must come out below this
_ZERO_RESIDUAL_TOL = 1e-10

DEFAULT_PATTERN_TOL = 1e-8


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
        amps = np.zeros(8, dtype=complex)
        amps[0] = self.alpha
        amps[4] = self.beta
        amps[6] = self.delta
        amps[5] = self.epsilon
        amps[7] = self.omega
        return PureState(amps)


@dataclass(frozen=True)
class GsdPattern:
    """Zero/nonzero coefficient pattern and the subtype it implies."""

    pattern: str
    subtype: SubtypeLabel


def _det2(m) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _polish_root(z: complex, c2: complex, c1: complex, c0: complex) -> complex:
    """Guarded Newton steps on c2 z^2 + c1 z + c0; never worsens |p(z)|."""
    for _ in range(3):
        p = (c2 * z + c1) * z + c0
        dp = 2.0 * c2 * z + c1
        if abs(dp) == 0.0 or abs(p) == 0.0:
            break
        z_new = z - p / dp
        p_new = (c2 * z_new + c1) * z_new + c0
        if abs(p_new) >= abs(p):
            break
        z = z_new
    return z


def _solve_quadratic(a: complex, b: complex, c: complex) -> list[complex]:
    """Roots of a z^2 + b z + c with a != 0, cancellation-safe."""
    disc = b * b - 4.0 * a * c
    # a numerically double root is located by the vertex: the usual
    # formula would inject the sqrt of the discriminant's rounding noise
    if abs(disc) <= 100.0 * np.finfo(float).eps * max(abs(b * b), abs(4.0 * a * c)):
        return [-b / (2.0 * a)]
    s = np.sqrt(complex(disc))
    if abs(b - s) > abs(b + s):
        s = -s
    q = -(b + s) / 2.0
    z1 = _polish_root(q / a, a, b, c)
    z2 = _polish_root(c / q, a, b, c) if abs(q) > 0.0 else z1
    if abs(z1 - z2) <= 1e-12 * max(1.0, abs(z1)):
        return [z1]
    return [z1, z2]


def _unit_pair(x0: complex, x1: complex) -> tuple[complex, complex]:
    n = np.sqrt(abs(x0) ** 2 + abs(x1) ** 2)
    return x0 / n, x1 / n


def _frobenius_top_direction(t0: np.ndarray, t1: np.ndarray) -> tuple[complex, complex]:
    # when every direction is singular the slices span rank-1 matrices
    # only, so maximizing the Frobenius norm maximizes lambda as well
    k = np.array(
        [
            [np.vdot(t0, t0), np.vdot(t0, t1)],
            [np.vdot(t1, t0), np.vdot(t1, t1)],
        ]
    )
    top = eig_hermitian(k, hermiticity_tol=1e-9).vectors[:, 0]
    return _unit_pair(top[0], top[1])


def _singular_directions(t0: np.ndarray, t1: np.ndarray) -> list[tuple[complex, complex]]:
    c2 = _det2(t1)
    c0 = _det2(t0)
    c1 = (
        t0[0, 0] * t1[1, 1]
        + t1[0, 0] * t0[1, 1]
        - t0[0, 1] * t1[1, 0]
        - t1[0, 1] * t0[1, 0]
    )
    scale = max(abs(c0), abs(c1), abs(c2))
    if scale < _COEFF_TOL:
        return [_frobenius_top_direction(t0, t1)]
    if abs(c2) > _BRANCH_RTOL * scale:
        return [_unit_pair(1.0, z) for z in _solve_quadratic(c2, c1, c0)]
    disc = c1 * c1 - 4.0 * c2 * c0
    if abs(c2) > 0.0 and abs(disc) <= 100.0 * np.finfo(float).eps * max(
        abs(c1 * c1), abs(4.0 * c2 * c0)
    ):
        # perfect-square pencil with a tiny leading coefficient; the
        # vertex locates the double root to full precision
        return [_unit_pair(1.0, -c1 / (2.0 * c2))]
    if abs(c1) > _BRANCH_RTOL * scale:
        # one finite root plus the root at infinity (det T1 ~ 0 here)
        z = _polish_root(-c0 / c1, c2, c1, c0)
        return [_unit_pair(1.0, z), (0.0 + 0.0j, 1.0 + 0.0j)]
    return [(0.0 + 0.0j, 1.0 + 0.0j)]


def _pick_direction(candidates, t0, t1) -> tuple[complex, complex]:
    """Largest top singular value wins; ties go to the smaller |x1/x0|."""
    best = None
    for x0, x1 in candidates:
        lam = float(svd_2x2(x0 * t0 + x1 * t1)[1][0])
        zmag = abs(x1) / abs(x0) if abs(x0) > 1e-15 else np.inf
        if best is None or lam > best[0] + _LAMBDA_TIE_TOL:
            best = (lam, zmag, x0, x1)
        elif abs(lam - best[0]) <= _LAMBDA_TIE_TOL and zmag < best[1]:
            best = (lam, zmag, x0, x1)
    return best[2], best[3]


def _refine_direction(x0, x1, t0, t1) -> tuple[complex, complex]:
    """Re-solve the singularity condition in local coordinates around x.

    States within ~1e-8 of a biseparable form defeat the global
    polynomial: locating its (near-coincident) roots requires resolving
    a cancellation below the evaluation noise.  Expanding around the
    current direction x along its orthogonal complement y,

        det(T(x) + t T(y)) = d2 t^2 + d1 t + d0,

    is well scaled instead: T(x) is computed first with only entrywise
    rounding, so the smallest-|t| root corrects x essentially to
    machine precision.  Iterated with an acceptance guard on the second
    singular value; a no-op whenever x is already singular enough.
    """
    for _ in range(3):
        m = x0 * t0 + x1 * t1
        s = svd_2x2(m)[1]
        if s[1] <= 1e-14 * max(1.0, s[0]):
            break
        y0, y1 = -x1.conjugate(), x0.conjugate()
        my = y0 * t0 + y1 * t1
        d0 = _det2(m)
        d2 = _det2(my)
        d1 = m[0, 0] * my[1, 1] + my[0, 0] * m[1, 1] - m[0, 1] * my[1, 0] - my[0, 1] * m[1, 0]
        if abs(d2) > 1e-12 * max(abs(d0), abs(d1), abs(d2)):
            roots = _solve_quadratic(d2, d1, d0)
        elif abs(d1) > 0.0:
            roots = [-d0 / d1]
        else:
            break
        t_step = min(roots, key=abs)
        nx0, nx1 = _unit_pair(x0 + t_step * y0, x1 + t_step * y1)
        if svd_2x2(nx0 * t0 + nx1 * t1)[1][1] >= s[1]:
            break
        x0, x1 = nx0, nx1
    return x0, x1


def _phase_angles(alpha, delta, epsilon, omega, tol=1e-12):
    """Phase knobs (global g, per-qubit a, b, c) zeroing the target phases.

    Coefficient c_ijk picks up the phase g + i*a + j*b + k*c; the knobs
    are chosen so alpha, delta, epsilon and omega become real >= 0.
    Coefficients below tol impose no condition.
    """
    g = -np.angle(alpha) if abs(alpha) > tol else 0.0
    d_nz, e_nz, w_nz = abs(delta) > tol, abs(epsilon) > tol, abs(omega) > tol
    phd = np.angle(delta) if d_nz else 0.0
    phe = np.angle(epsilon) if e_nz else 0.0
    phw = np.angle(omega) if w_nz else 0.0
    if d_nz and e_nz and w_nz:
        a = -g - phd - phe + phw
        b = phe - phw
        c = phd - phw
    elif d_nz and e_nz:
        a, b, c = 0.0, -phd - g, -phe - g
    elif d_nz and w_nz:
        a, b, c = 0.0, -phd - g, phd - phw
    elif e_nz and w_nz:
        a, b, c = 0.0, phe - phw, -phe - g
    elif d_nz:
        a, b, c = 0.0, -phd - g, 0.0
    elif e_nz:
        a, b, c = 0.0, 0.0, -phe - g
    elif w_nz:
        a, b, c = 0.0, 0.0, -phw - g
    else:
        a = b = c = 0.0
    return g, a, b, c


def gsd(psi: PureState, mode: str = "raw") -> GsdForm:
    """Reduce a pure state to generalized-Schmidt canonical form.

    mode is "raw" (no phase fixing) or "normal" (alpha, delta, epsilon,
    omega real and nonnegative, at most beta phased).  The returned
    unitaries map the input to the canonical state.
    """
    _require_pure(psi, "the canonical decomposition")
    if mode not in ("raw", "normal"):
        raise ValueError(f"mode must be 'raw' or 'normal', got {mode!r}")
    t = psi.tensor
    t0, t1 = t[0].astype(complex), t[1].astype(complex)

    x0, x1 = _pick_direction(_singular_directions(t0, t1), t0, t1)
    x0, x1 = _refine_direction(x0, x1, t0, t1)
    u_a = np.array([[x0, x1], [-x1.conjugate(), x0.conjugate()]])
    ta = np.einsum("ia,ajk->ijk", u_a, t)

    u, _, v = svd_2x2(ta[0])
    u_b = u.conj().T
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


def classify_gsd_pattern(form: GsdForm, zero_tol: float = DEFAULT_PATTERN_TOL) -> GsdPattern:
    """Match the zero/nonzero coefficient pattern against the canonical catalog.

    Raises AmbiguousNearThresholdError when any coefficient magnitude or
    the product difference |beta*omega - delta*epsilon| falls within a
    factor of 10 of zero_tol, since the caller must then decide which
    side of the boundary was meant.
    """
    check_zero_tol(zero_tol)
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
        pattern, subtype = _PATTERNS_WITH_OMEGA[(nz["beta"], nz["delta"], nz["epsilon"])]
        return GsdPattern(pattern, subtype)
    if nz["delta"] and nz["epsilon"]:
        return GsdPattern("W", SubtypeLabel("2-3", None, ("BC", "AC", "AB")))
    if nz["epsilon"]:
        return GsdPattern("B'", SubtypeLabel("1^1-1", "B", ("AC",)))
    if nz["delta"]:
        return GsdPattern("B''", SubtypeLabel("1^1-1", "C", ("AB",)))
    return GsdPattern("product", SubtypeLabel("0-0"))
