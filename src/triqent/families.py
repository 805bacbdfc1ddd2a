"""Named states, parametric families and their closed-form reference values.

Each family constructor returns the exact state for the given
parameters; ``oracle`` evaluates whatever closed forms are known for it,
keyed by MeasureSet field names, and ``sweep`` tabulates computed
measures against those oracles over a parameter grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import classify_mixed, classify_pure
from .errors import NoOracleError, ParamOutOfDomainError, TriqentError
from .measures import MeasureSet
from .states import QUBITS, DensityMatrix, PureState, to_density

_SQRT3 = np.sqrt(3.0)


def _pure(indexed_amps: dict[int, complex]) -> PureState:
    amps = np.zeros(8, dtype=complex)
    for idx, val in indexed_amps.items():
        amps[idx] = val
    return PureState(amps)


def ghz(phase: float = 0.0) -> PureState:
    """(|000> + e^{i phase} |111>) / sqrt(2); mixtures below pin phase = 0."""
    return _pure({0: 1 / np.sqrt(2), 7: np.exp(1j * phase) / np.sqrt(2)})


def ghz_like(alpha: float) -> PureState:
    """alpha|000> + omega|111> with real alpha in [0, 1], omega = sqrt(1 - alpha^2)."""
    if not 0.0 <= alpha <= 1.0:
        raise ParamOutOfDomainError(f"ghz_like needs alpha in [0, 1], got {alpha}")
    return _pure({0: alpha, 7: np.sqrt(1.0 - alpha * alpha)})


def w_prime() -> PureState:
    """The symmetric W state (|001> + |010> + |100>) / sqrt(3)."""
    return _pure({1: 1 / _SQRT3, 2: 1 / _SQRT3, 4: 1 / _SQRT3})


def w_canonical(alpha: complex, epsilon: complex, delta: complex) -> PureState:
    """alpha|000> + epsilon|101> + delta|110>, already in canonical form."""
    if abs(abs(alpha) ** 2 + abs(epsilon) ** 2 + abs(delta) ** 2 - 1.0) > 1e-10:
        raise ParamOutOfDomainError("w_canonical coefficients must be normalized")
    return _pure({0: alpha, 5: epsilon, 6: delta})


def w_state() -> PureState:
    """The canonical-form W point alpha = epsilon = delta = 1/sqrt(3)."""
    return w_canonical(1 / _SQRT3, 1 / _SQRT3, 1 / _SQRT3)


def from_gsd_coefficients(alpha, beta, delta, epsilon, omega) -> PureState:
    """Pure state with the five canonical amplitudes and zeros elsewhere."""
    total = sum(abs(c) ** 2 for c in (alpha, beta, delta, epsilon, omega))
    if abs(total - 1.0) > 1e-10:
        raise ParamOutOfDomainError("canonical coefficients must be normalized")
    return _pure({0: alpha, 4: beta, 6: delta, 5: epsilon, 7: omega})


def _bell(sign: float) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[2] = 1 / np.sqrt(2)  # |10>
    v[1] = sign / np.sqrt(2)  # |01>
    return v


def rho_epsilon(eps: float) -> DensityMatrix:
    """Biseparable Bell mixture whose BC reduction has negativity |eps|.

    (1+eps)/2 |1><1|_A x |Psi+><Psi+| + (1-eps)/2 |0><0|_A x |Psi-><Psi-|
    with the Bell states Psi+- = (|10> +- |01>)/sqrt(2) on the BC pair.
    """
    if not -1.0 <= eps <= 1.0:
        raise ParamOutOfDomainError(f"rho_epsilon needs |eps| <= 1, got {eps}")
    plus = np.outer(_bell(1.0), _bell(1.0).conj())
    minus = np.outer(_bell(-1.0), _bell(-1.0).conj())
    m = 0.5 * (1 + eps) * np.kron(np.diag([0.0, 1.0]), plus)
    m += 0.5 * (1 - eps) * np.kron(np.diag([1.0, 0.0]), minus)
    return DensityMatrix(m, QUBITS)


def rho_zero() -> DensityMatrix:
    """The eps = 0 Bell mixture: biseparable yet with a separable BC reduction."""
    return rho_epsilon(0.0)


def ghz_w_mix(p: float) -> DensityMatrix:
    """p |GHZ><GHZ| + (1-p) |W'><W'| for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfDomainError(f"ghz_w_mix needs p in [0, 1], got {p}")
    m = p * to_density(ghz()).matrix + (1 - p) * to_density(w_prime()).matrix
    return DensityMatrix(m, QUBITS)


def ghz_noise(p: float) -> DensityMatrix:
    """p |GHZ><GHZ| + (1-p)/8 * identity for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfDomainError(f"ghz_noise needs p in [0, 1], got {p}")
    m = p * to_density(ghz()).matrix + (1 - p) / 8.0 * np.eye(8)
    return DensityMatrix(m, QUBITS)


def sigma_b(b: float) -> DensityMatrix:
    """Bound-entangled 2x4 family embedded on qubits A|(BC), b in (0, 1).

    The 4-dimensional side uses the basis map e1..e4 = |00>, |01>, |10>,
    |11> on BC, so the printed 8x8 form is already in the package's
    index convention.
    """
    if not 0.0 < b < 1.0:
        raise ParamOutOfDomainError(f"sigma_b needs b in (0, 1), got {b}")
    s = np.sqrt(1.0 - b * b) / 2.0
    h = (1.0 + b) / 2.0
    m = np.array(
        [
            [b, 0, 0, 0, 0, b, 0, 0],
            [0, b, 0, 0, 0, 0, b, 0],
            [0, 0, b, 0, 0, 0, 0, b],
            [0, 0, 0, b, 0, 0, 0, 0],
            [0, 0, 0, 0, h, 0, 0, s],
            [b, 0, 0, 0, 0, b, 0, 0],
            [0, b, 0, 0, 0, 0, b, 0],
            [0, 0, b, 0, s, 0, 0, h],
        ],
        dtype=complex,
    )
    return DensityMatrix(m / (7.0 * b + 1.0), QUBITS)


_BUILDERS = {
    "ghz": (0, ghz),
    "w": (0, w_state),
    "w_prime": (0, w_prime),
    "rho0": (0, rho_zero),
    "ghz_like": (1, ghz_like),
    "w_canonical": (3, w_canonical),
    "ghz_w_mix": (1, ghz_w_mix),
    "ghz_noise": (1, ghz_noise),
    "sigma_b": (1, sigma_b),
    "rho_epsilon": (1, rho_epsilon),
}

FAMILIES = tuple(sorted(_BUILDERS))
#: families with a one-parameter domain and hence a default sweep grid
SWEEPABLE = ("ghz_like", "ghz_w_mix", "ghz_noise", "rho_epsilon", "sigma_b")


def make_state(family: str, *params) -> PureState | DensityMatrix:
    """Build the named state or family member for the given parameters."""
    if family not in _BUILDERS:
        raise ParamOutOfDomainError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    arity, builder = _BUILDERS[family]
    if len(params) != arity:
        raise ParamOutOfDomainError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def _ghz_w_mix_negativity(p: float) -> float:
    return (
        np.sqrt(41 * p * p - 64 * p + 32) + 2 * np.sqrt(10 * p * p - 2 * p + 1) - p - 2
    ) / 6.0


def oracle(family: str, *params) -> dict[str, float]:
    """Closed-form values for a family, keyed by MeasureSet field name."""
    if family == "ghz":
        return {"n_a_bc": 1.0, "n_b_ac": 1.0, "n_c_ab": 1.0, "n_abc": 1.0,
                "n_red_bc": 0.0, "n_red_ac": 0.0, "n_red_ab": 0.0}
    if family in ("w", "w_prime"):
        n = 2.0 * np.sqrt(2.0) / 3.0
        r = (np.sqrt(5.0) - 1.0) / 3.0
        return {"n_a_bc": n, "n_b_ac": n, "n_c_ab": n, "n_abc": n,
                "n_red_bc": r, "n_red_ac": r, "n_red_ab": r}
    if family == "ghz_like":
        (alpha,) = params
        n = 2.0 * abs(alpha) * np.sqrt(max(0.0, 1.0 - alpha * alpha))
        return {"n_a_bc": n, "n_b_ac": n, "n_c_ab": n, "n_abc": n,
                "n_red_bc": 0.0, "n_red_ac": 0.0, "n_red_ab": 0.0}
    if family == "w_canonical":
        a, e, d = (abs(x) for x in params)
        return {
            "n_red_bc": np.sqrt(a**4 + 4 * (e * d) ** 2) - a**2,
            "n_red_ac": np.sqrt(d**4 + 4 * (e * a) ** 2) - d**2,
            "n_red_ab": np.sqrt(e**4 + 4 * (a * d) ** 2) - e**2,
        }
    if family == "ghz_w_mix":
        (p,) = params
        n = _ghz_w_mix_negativity(p)
        return {"n_a_bc": n, "n_b_ac": n, "n_c_ab": n, "n_abc": n}
    if family == "ghz_noise":
        (p,) = params
        return {"n_abc": 0.0 if p <= 0.2 else (5.0 * p - 1.0) / 4.0}
    if family == "sigma_b":
        (b,) = params
        n = (np.sqrt(3.0 * b * b + 1.0) - 2.0 * b) / (7.0 * b + 1.0)
        return {"n_a_bc": 0.0, "n_b_ac": n, "n_c_ab": n, "n_abc": 0.0}
    if family == "rho_epsilon":
        (eps,) = params
        return {"n_a_bc": 0.0, "n_red_bc": abs(eps)}
    raise NoOracleError(f"no closed form registered for family {family!r}")


@dataclass(frozen=True)
class FamilySpec:
    """Family identifier plus the parameter grid to evaluate it on."""

    family: str
    grid: tuple[tuple[float, ...], ...]


def default_grid(family: str, points: int = 101) -> FamilySpec:
    """Uniform grid over the family's parameter domain."""
    if points < 1:
        raise ParamOutOfDomainError("points must be >= 1")
    if family == "ghz_like":
        vals = np.linspace(0.0, 1.0 / np.sqrt(2.0), points)
    elif family in ("ghz_w_mix", "ghz_noise"):
        vals = np.linspace(0.0, 1.0, points)
    elif family == "rho_epsilon":
        vals = np.linspace(-1.0, 1.0, points)
    elif family == "sigma_b":
        # open domain: interior points only
        vals = np.arange(1, points + 1) / (points + 1.0)
    else:
        raise ParamOutOfDomainError(f"family {family!r} has no default sweep grid")
    return FamilySpec(family, tuple((float(v),) for v in vals))


@dataclass(frozen=True)
class SweepRow:
    params: tuple[float, ...]
    measures: MeasureSet
    verdict: str
    oracle_values: dict[str, float]
    deviations: dict[str, float]


def sweep(spec: FamilySpec) -> list[SweepRow]:
    """One row per grid point, in grid order, with oracle deviations."""
    if not spec.grid:
        raise ParamOutOfDomainError("sweep needs a nonempty grid")
    rows = []
    for params in spec.grid:
        try:
            state = make_state(spec.family, *params)
            if isinstance(state, PureState):
                res = classify_pure(state)
                verdict = res.label.code
            else:
                res = classify_mixed(state)
                verdict = "; ".join(res.claims())
            ms = res.measures
            try:
                oracle_values = oracle(spec.family, *params)
            except NoOracleError:
                oracle_values = {}
            deviations = {k: abs(getattr(ms, k) - v) for k, v in oracle_values.items()}
        except TriqentError as exc:
            raise type(exc)(f"sweep of {spec.family!r} failed at params {params}: {exc}") from exc
        rows.append(SweepRow(tuple(params), ms, verdict, oracle_values, deviations))
    return rows
