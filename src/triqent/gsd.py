"""Generalized Schmidt decomposition of three-qubit pure states.

Any pure state can be brought by local unitaries to a canonical form
with at most five nonzero amplitudes,

    alpha|000> + beta|100> + delta|110> + epsilon|101> + omega|111>,

i.e. the |001>, |010> and |011> amplitudes vanish.  The reduction works
on the two 2x2 slices T0, T1 of the amplitude tensor (T_i[j, k] is the
|ijk> amplitude):

1. find a unit vector x = (x0, x1) with det T(x) = 0, where
   T(x) = x0 T0 + x1 T1, whose slice has the largest top singular value
   lambda (its Frobenius norm, since the slice is singular): the
   largest-lambda rule.  From the principal direction, the x of largest
   |T(x)|, one exact solve of the pencil in local coordinates,
   det(T(x) + t T(y)) = 0 with y orthogonal to x, takes the root of
   smallest |t|, which is the largest-lambda one; x then steps to the
   vertex when the two local roots coincide (the W class);
2. rotate qubit A by the unitary whose first row is (x0, x1), making
   the new T0 slice singular;
3. factor that rank-1 slice in closed form, T0 = lambda u1 v1^dagger
   (v1 by the rule of step 1 on T0^dagger T0), and absorb the factors
   into qubits B and C, leaving T0 = diag(lambda, 0).  Only u1 and v are
   defined by the slice; the second row of u_b is the exact orthonormal
   completion of u1, so no phase is read from the rounding noise in the
   zero singular value.  When lambda is at rounding level (alpha ~ 0,
   qubit A separable) the slice defines neither, and the same factor of
   the other slice gives the BC Schmidt form (delta = epsilon = 0);
4. optionally (normal-phase mode) multiply diagonal phase unitaries
   into all three qubits so that alpha, delta, epsilon and omega are
   real and nonnegative; only beta may keep a phase;
5. refuse the form unless each canonical zero is below 1e-10 (a NaN
   fails too), and divide the rotated amplitudes by their norm, |psi|
   to rounding, so the five coefficients have unit norm to a few ulps
   (the canonical zeros take at most 3e-20 of it) and pass the one
   check of canonical coefficients, ``_gsd_amplitudes`` in this module,
   even for a state PureState accepted at the edge of NORM_ATOL.  The
   unitaries map psi / |psi| to the form.  The form is derived data,
   so it skips the check that ``GsdForm`` runs when a caller builds
   one: it is built through the records' one unchecked door,
   ``_trusted``, which makes its unitaries and its 8 amplitudes
   read-only, and keeps those amplitudes as every form does.  This module
   alone knows the form's layout, the basis index of each coefficient
   (``_CANONICAL_INDEX``), and its check.

Raw mode skips step 4, which keeps relative phases (and hence
orthogonality) within a canonical class instead of collapsing them.
Its phases are fixed by svd_2x2's column convention, which the closed
form keeps (largest entry of each column of v real >= 0, the first on
a tie), and the completion above, so they are a function of the state:
a perturbation at rounding level moves them at rounding level.  Where
the form itself jumps, no rule can keep it still: a W-class double root
splits as the square root of a perturbation, and near a biseparable or
product state two directions have lambdas that a 1e-14 perturbation can
reorder.  Every step runs on Python complexes, read once from the
amplitudes, so gsd makes no LAPACK or BLAS call, and near such a tie
no linear-algebra backend's rounding picks the form.  numpy holds only
the state that comes in and the three unitaries that go out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classify import _MARGIN_NAMES, DEFAULT_ZERO_TOL, SubtypeLabel, _near_threshold, _subtype, check_zero_tol
from .errors import (
    AmbiguousNearThresholdError,
    NumericalDegeneracyError,
    ParamOutOfDomainError,
    StateTypeError,
)
from .states import PureState, _complex_entries, _normalized, _Record, _require_pure

#: polynomial coefficients below this are treated as identically zero
_COEFF_TOL = 1e-13
#: local roots this close (relative to max(1, |t|)) are a double root
_DOUBLE_ROOT_RTOL = 1e-6
#: canonical zero amplitudes must come out below this
_ZERO_RESIDUAL_TOL = 1e-10
#: a coefficient below this fixes no phase knob
_PHASE_TOL = 1e-12
#: the basis index of alpha, beta, delta, epsilon and omega: |000>, |100>, |110>, |101>, |111>
_CANONICAL_INDEX = (0, 4, 6, 5, 7)


def _placed(coefficients) -> list:
    """The 8 amplitudes of five canonical coefficients: each at its index in ``_CANONICAL_INDEX``, 0j elsewhere."""
    by_index = dict(zip(_CANONICAL_INDEX, coefficients))
    return [by_index.get(n, 0j) for n in range(8)]


def _gsd_amplitudes(alpha, beta, delta, epsilon, omega) -> np.ndarray:
    """The 8 amplitudes of five canonical coefficients, read-only: the one check of canonical coefficients.

    Raises StateTypeError unless every coefficient is a number (see
    ``_numbers``), NonFiniteError for a NaN or infinite one, and
    ParamOutOfDomainError unless the amplitudes have unit norm.  The
    norm is judged by ``_normalized`` on the 8 amplitudes, PureState's
    own rule on the same numbers, so amplitudes this check passes pass
    PureState too.
    """
    amps = _complex_entries(_placed((alpha, beta, delta, epsilon, omega)), "canonical amplitudes", (8,))
    if not _normalized(amps):
        raise ParamOutOfDomainError("canonical coefficients must be normalized")
    amps.setflags(write=False)
    return amps


def from_gsd_coefficients(alpha, beta, delta, epsilon, omega) -> PureState:
    """Pure state with the five canonical amplitudes and zeros elsewhere.

    The coefficients are checked by ``_gsd_amplitudes``, as ``GsdForm``
    checks them when it is built: StateTypeError unless each is a
    number, NonFiniteError for a NaN or infinite one, and
    ParamOutOfDomainError unless the 8 amplitudes they make have unit
    norm by PureState's rule, |norm - 1| <= NORM_ATOL.
    """
    return PureState._trusted({"amplitudes": _gsd_amplitudes(alpha, beta, delta, epsilon, omega)})


@dataclass(frozen=True, eq=False)
class GsdForm(_Record):
    """Canonical coefficients plus the local unitaries that produce them.

    A form a caller builds, or rebuilds with ``dataclasses.replace``, is
    checked once, where it is made, by ``_gsd_amplitudes``, so a
    malformed coefficient raises what ``from_gsd_coefficients`` raises
    for it: StateTypeError when it is not a number, NonFiniteError when
    it is NaN or infinite, and ParamOutOfDomainError when the 8
    amplitudes are off unit norm by PureState's rule.  ``mode`` and the
    unitaries are not checked, and a caller's unitaries stay the
    caller's arrays.  A form that ``gsd`` returns is derived from a
    validated state, as a reduction is, and skips the check
    (``_derived``); its unitaries are read-only.  Either way the form
    holds the 8 amplitudes of its coefficients, read-only, which its
    readers take as they are.  A form is an immutable value, as every
    record of ``states._Record`` is: a copy is the form itself, and a
    pickle comes back through ``_trusted`` with read-only arrays.
    """

    alpha: complex
    beta: complex
    delta: complex
    epsilon: complex
    omega: complex
    mode: str
    u_a: np.ndarray
    u_b: np.ndarray
    u_c: np.ndarray

    def __post_init__(self):
        vars(self)["_amplitudes"] = _gsd_amplitudes(self.alpha, self.beta, self.delta, self.epsilon, self.omega)

    @classmethod
    def _derived(cls, coefficients: list, mode: str, unitaries) -> GsdForm:
        """The form of coefficients derived from a validated state, built by ``_trusted`` with no check.

        ``gsd`` calls it on the five coefficients it made from a validated
        state.  The amplitudes are one ``np.array`` call, bit for bit what
        ``_gsd_amplitudes`` of the five returns; they and the unitaries
        come out read-only.
        """
        fields = zip(cls.__dataclass_fields__, (*coefficients, mode, *unitaries))
        return cls._trusted(dict(fields, _amplitudes=np.array(_placed(coefficients), dtype=complex)))

    @property
    def coefficients(self) -> np.ndarray:
        """The five coefficients in (alpha, beta, delta, epsilon, omega) order, as a new complex array."""
        return self._amplitudes[list(_CANONICAL_INDEX)]

    def to_state(self) -> PureState:
        """The canonical state, whose amplitudes are the form's 8 amplitudes, checked when the form was made."""
        return PureState._trusted({"amplitudes": self._amplitudes})


@dataclass(frozen=True)
class GsdPattern:
    """A catalogue pattern name and the subtype it stands for."""

    pattern: str
    subtype: SubtypeLabel


def _singular_values(m) -> tuple[float, float]:
    """Both singular values of the 2x2 matrix m = (m00, m01, m10, m11), from |m|_F and |det m|.

    s1^2 = (|m|_F^2 + sqrt(|m|_F^4 - 4 |det m|^2)) / 2 and s2 = |det m| / s1,
    so s2 carries an absolute error of about eps * s1, as an SVD's does.
    """
    a, b, c, d = m
    f2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det = abs(a * d - b * c)
    s1 = math.sqrt((f2 + math.sqrt(max(f2 * f2 - 4.0 * det * det, 0.0))) / 2.0)
    return s1, det / s1 if s1 else 0.0


def _slice_entries(slices, x) -> list:
    """The entries (m00, m01, m10, m11) of T(x) = x0 T0 + x1 T1.

    slices holds T0 and T1 as two lists of four Python complexes, so
    T(x) is summed entry by entry, on the same numbers at every step.
    """
    return [x[0] * p + x[1] * q for p, q in zip(*slices)]


def _local(x, slices):
    """y, the singular values of T(x), and the local pencil around x.

    det(T(x) + t T(y)) = d2 t^2 + d1 t + d0 with y = (-x1*, x0*).  q is
    -(d1 +- sqrt(d1^2 - 4 d0 d2)) / 2 with the sign of larger modulus, so
    the roots are d0 / q, the smaller, and q / d2, without cancellation.
    """
    y = (-x[1].conjugate(), x[0].conjugate())
    a, b, c, d = _slice_entries(slices, x)
    e, f, g, h = _slice_entries(slices, y)
    d0, d1, d2 = a * d - b * c, a * h + e * d - b * g - f * c, e * h - f * g
    s = cmath.sqrt(d1 * d1 - 4.0 * d0 * d2)
    q = -(d1 + s) / 2.0 if abs(d1 + s) >= abs(d1 - s) else -(d1 - s) / 2.0
    return y, _singular_values((a, b, c, d)), (d0, d1, d2), q


def _guarded_step(x, w, s, slices):
    """w as a unit direction, unless its slice is less singular than x's.

    The phase is fixed as for every direction: x0 real >= 0, and x1 real
    > 0 when x0 = 0.  The step is kept while its s2 stays below
    max(s2 of x, 1e-15 * s1 of x), which the closed form resolves.
    """
    p = w[0] if w[0] else w[1]
    scale = abs(p) / p / math.hypot(abs(w[0]), abs(w[1]))
    w = (w[0] * scale, w[1] * scale)
    return w if _singular_values(_slice_entries(slices, w))[1] <= max(s[1], 1e-15 * s[0]) else x


def _principal(gap: float, gram: complex) -> tuple[float, complex]:
    """(cos t, sin t e^{-i arg gram}), the top eigenvector of a Hermitian [[n0, gram], [conj, n1]], gap = n0 - n1."""
    theta = math.atan2(abs(gram), gap / 2.0) / 2.0
    return math.cos(theta), math.sin(theta) * cmath.exp(-1j * cmath.phase(gram))


def _direction(slices) -> tuple[complex, complex]:
    """The singular direction x (det T(x) = 0) whose slice has the largest lambda.

    slices holds T0 and T1 as two lists of four Python complexes.  The
    search starts at the principal direction, the top eigenvector of the
    Gram matrix [[|T0|^2, <T0, T1>], [conj, |T1|^2]]; two sums over the
    entries give it, the gap |T0|^2 - |T1|^2 and <T0, T1>.  There T(x)
    and T(y) are orthogonal with norms sigma1 >= sigma2.  So along x + t y the unit
    slice has lambda(t)^2 = (sigma1^2 + |t|^2 sigma2^2) / (1 + |t|^2),
    which falls as |t| grows: the smallest root t of the local pencil is
    the largest-lambda direction, and a root at t = infinity (q = 0) is y
    itself.  The pencil is exactly quadratic, so one step locates it.
    The step is skipped when d0 = 0 (x is singular already), and when the
    pencil is below _COEFF_TOL and T(x) is singular to rounding: then
    every direction is singular, as for a product state, and the
    principal direction has the largest lambda.

    At a double root (W class) the two local roots split by the square
    root of the rounding noise in d0.  When they agree to
    _DOUBLE_ROOT_RTOL, x steps to the vertex -d1 / (2 d2), which d1 and
    d2 give to rounding accuracy; below _COEFF_TOL, d2 is rounding noise
    and there is no vertex to step to.
    """
    gap = sum(abs(p) ** 2 - abs(q) ** 2 for p, q in zip(*slices))
    gram = sum(p.conjugate() * q for p, q in zip(*slices))
    x = tuple(map(complex, _principal(gap, gram)))
    y, s, (d0, d1, d2), q = _local(x, slices)
    if d0 and (max(abs(d0), abs(d1), abs(d2)) >= _COEFF_TOL or s[1] > 1e-14 * max(1.0, s[0])):
        x = _guarded_step(x, (q * x[0] + d0 * y[0], q * x[1] + d0 * y[1]), s, slices)
        y, s, (d0, d1, d2), q = _local(x, slices)
    # |q / d2 - d0 / q| <= rtol * max(1, |q / d2|), multiplied out
    if abs(d2) >= _COEFF_TOL and abs(q * q - d0 * d2) <= _DOUBLE_ROOT_RTOL * max(abs(q * d2), abs(q) ** 2):
        x = _guarded_step(x, (2.0 * d2 * x[0] - d1 * y[0], 2.0 * d2 * x[1] - d1 * y[1]), s, slices)
    return x


def _real_top(p, q) -> tuple[complex, complex]:
    """(p, q) rotated so its larger-magnitude entry is real >= 0, p winning a tie."""
    top = p if abs(p) >= abs(q) else q
    return p * (abs(top) / top), q * (abs(top) / top)


def _top_pair(m):
    """u1 and v = (v1, v2) of the top singular pair of m = (m00, m01, m10, m11), m v1 = s1 u1.

    v1 is the top eigenvector of m^dagger m by ``_principal``,
    and v2 its orthogonal completion; each is rotated as svd_2x2 rotates
    its columns.  u1 is m v1 normalized, or (1, 0) when m = 0.
    """
    a, b, c, d = m
    gap = abs(a) ** 2 + abs(c) ** 2 - abs(b) ** 2 - abs(d) ** 2
    v1 = _real_top(*_principal(gap, a.conjugate() * b + c.conjugate() * d))
    v2 = _real_top(-v1[1].conjugate(), v1[0].conjugate())
    w = (a * v1[0] + b * v1[1], c * v1[0] + d * v1[1])
    norm = math.hypot(abs(w[0]), abs(w[1]))
    return (w[0] / norm, w[1] / norm) if norm else (1.0, 0.0), (v1, v2)


def _phase_angles(alpha, delta, epsilon, omega):
    """Phase knobs (global g, per-qubit a, b, c) zeroing the target phases.

    Coefficient c_ijk picks up the phase g + i*a + j*b + k*c; the knobs
    are chosen so alpha, delta, epsilon and omega become real >= 0.
    Coefficients below _PHASE_TOL impose no condition.  a is needed only when
    delta, epsilon and omega are all set; otherwise delta fixes b,
    epsilon fixes c, and omega fixes whichever of the two is left, c
    first.
    """
    g = -cmath.phase(alpha) if abs(alpha) > _PHASE_TOL else 0.0
    d_nz, e_nz, w_nz = abs(delta) > _PHASE_TOL, abs(epsilon) > _PHASE_TOL, abs(omega) > _PHASE_TOL
    phd, phe, phw = cmath.phase(delta), cmath.phase(epsilon), cmath.phase(omega)
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
    omega real and nonnegative, at most beta phased).  The coefficients
    are divided by the norm of the rotated state, so the form has unit
    norm to a few ulps, and the returned unitaries map psi / |psi| to
    the canonical state.
    """
    _require_pure(psi, "the canonical decomposition")
    if not isinstance(mode, str) or mode not in ("raw", "normal"):
        raise ParamOutOfDomainError(f"mode must be 'raw' or 'normal', got {mode!r}")
    t = psi.amplitudes.tolist()
    slices = (t[:4], t[4:])
    x0, x1 = _direction(slices)
    unitaries = [((x0, x1), (-x1.conjugate(), x0.conjugate()))]
    ta = [_slice_entries(slices, r) for r in unitaries[0]]

    # ta[0] has rank <= 1; zero up to rounding (alpha ~ 0, qubit A separable)
    # it defines no factor, and that of ta[1] gives the BC Schmidt form
    u1, v = _top_pair(ta[1] if max(map(abs, ta[0])) <= 1e-14 else ta[0])
    unitaries += [((u1[0].conjugate(), u1[1].conjugate()), (-u1[1], u1[0])), v]
    # tc[4i + 2j + k] = (u_b ta[i] u_c^T)[j, k], through the columns w[i][k] of ta[i] u_c^T
    w = [[(m[0] * c[0] + m[1] * c[1], m[2] * c[0] + m[3] * c[1]) for c in v] for m in ta]
    tc = [b[0] * col[0] + b[1] * col[1] for wi in w for b in unitaries[1] for col in wi]

    if mode == "normal":
        g, pa, pb, pc = _phase_angles(tc[0], tc[6], tc[5], tc[7])
        e = cmath.exp(1j * g)
        knobs = [(e, e * cmath.exp(1j * pa))] + [(1.0, cmath.exp(1j * p)) for p in (pb, pc)]
        tc = [z * knobs[0][n >> 2] * knobs[1][n >> 1 & 1] * knobs[2][n & 1] for n, z in enumerate(tc)]
        unitaries = [[[f * z for z in row] for f, row in zip(fs, u)] for fs, u in zip(knobs, unitaries)]

    # its readers do not check the form again, so a NaN must fail here
    residuals = (abs(tc[1]), abs(tc[2]), abs(tc[3]))
    if not all(r <= _ZERO_RESIDUAL_TOL for r in residuals):
        raise NumericalDegeneracyError(f"canonical zeros failed: |t001|, |t010|, |t011| = {residuals}")

    norm = math.hypot(*map(abs, tc))
    coefficients = [tc[n] / norm for n in _CANONICAL_INDEX]
    return GsdForm._derived(coefficients, mode, [np.array(u, dtype=complex) for u in unitaries])


#: the catalogue name of each subtype, by its code and entangled pairs
_CATALOGUE = {
    ("0-0", ()): "product", ("2-0", ()): "GHZ",
    ("1^1-1", ("BC",)): "B", ("1^1-1", ("AC",)): "B'", ("1^1-1", ("AB",)): "B''",
    ("2-1", ("BC",)): "IV", ("2-1", ("AC",)): "IV'", ("2-1", ("AB",)): "IV''",
    ("2-2", ("BC", "AC")): "S", ("2-2", ("BC", "AB")): "S'", ("2-2", ("AC", "AB")): "S''",
    ("2-3", ("BC", "AC", "AB")): "W",
}


def classify_gsd_pattern(form: GsdForm, zero_tol: float = DEFAULT_ZERO_TOL) -> GsdPattern:
    """Match the canonical form against the paper's catalogue.

    The decision is that of ``classify_pure``, on its six margins written
    in the canonical coefficients (Acin et al., PRL 85, 1560, 2000;
    Coffman, Kundu & Wootters, PRA 61, 052306, 2000): the pair
    concurrences C_AB = 2|alpha delta|, C_AC = 2|alpha epsilon| and
    C_BC = 2|beta omega - delta epsilon|, and the one-vs-two negativities
    n_q = sqrt(4|alpha omega|^2 + C^2 of each pair holding q).  A qubit
    factorizes when its n_q is below zero_tol and a pair is entangled
    when its C exceeds it; ``classify._subtype`` labels those flags, and
    the pattern is the catalogue's name for the label.  The star S''
    (pairs AC and AB) holds wherever beta omega = delta epsilon.

    The coefficients are read through ``GsdForm.coefficients``, with
    no check: every form was checked when it was made, or derived by
    ``gsd`` from a validated state.  Its coefficients have unit norm, so
    the margins, which are absolute, read the pattern of the state (the
    GHZ form scaled to norm 1e-5 would read "product", and cannot be
    built).  AmbiguousNearThresholdError is raised when a margin falls
    within a factor of 10 of zero_tol, where ``classify_pure`` sets
    ``ambiguous``, since the caller must then decide which side of the
    boundary was meant.
    """
    if not isinstance(form, GsdForm):
        raise StateTypeError(f"classify_gsd_pattern needs a GsdForm, got {type(form).__name__}")
    check_zero_tol(zero_tol)
    a, b, d, e, w = form.coefficients.tolist()
    bc, ac, ab = 2.0 * abs(b * w - d * e), 2.0 * abs(a * e), 2.0 * abs(a * d)
    tangle = 4.0 * abs(a * w) * abs(a * w)
    n = [math.sqrt(tangle + x * x + y * y) for x, y in ((ab, ac), (ab, bc), (ac, bc))]  # the pairs holding q
    for name, value in zip(_MARGIN_NAMES, (*n, bc, ac, ab)):
        if _near_threshold(value, zero_tol):
            raise AmbiguousNearThresholdError(
                f"{name} = {value:.3e} is within a decade of zero_tol = {zero_tol:.1e}"
            )
    label = _subtype(tuple(v < zero_tol for v in n), (bc > zero_tol, ac > zero_tol, ab > zero_tol))
    return GsdPattern(_CATALOGUE[label.code, label.entangled_pairs], label)
