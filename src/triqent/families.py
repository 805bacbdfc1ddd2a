"""Named states, parametric families and their closed-form reference values.

Each family is described once, as one ``_Family`` record in
``_FAMILIES``: its number of parameters, their kind (real or complex),
its domain, its closed form over an (N, arity) stack of parameter
rows, its known closed-form measures (oracle columns) over the same
rows, and the values of its default sweep grid.  ``FAMILIES``,
``SWEEPABLE``, ``make_state``, ``oracle``, ``default_grid`` and
``sweep`` all read that record.  The closed form is a plain formula
that returns (N, 8) amplitudes for a pure family or (N, 8, 8) matrices
for a mixed one.  Every mixed family is real by construction, so its
closed form returns a float64 stack, which ``sweep`` measures in real
arithmetic from the start; ``make_state`` wraps its row, a float64
DensityMatrix as every real one is.  The scalar constructors
(``ghz_like(alpha)``, ``sigma_b(b)``, ...), ``make_state`` and
``oracle`` are the record on a stack of one; ``oracle`` builds no
state.  ``ghz(phase)`` is the one exception: the ``ghz`` record has
arity 0, its phase pinned at 0 as the mixtures use it, so ``ghz``
checks its phase as a finite one-parameter row and builds through
``_ghz_rows`` directly.  Only the parameters are
checked: the closed form of an in-domain row is a state by
construction, so ``sweep`` measures it as built, and ``make_state``
wraps a matrix unvalidated, as ``to_density`` does (amplitudes still
pass ``PureState``).

A grid is checked once, as one (N, arity) array of numbers
(``_parameter_rows``), and against the family's domain with one
vectorized predicate (``_family_rows``), which rejects a NaN parameter
too; its points are walked only when the first check fails, to name
the first bad one.  ``default_grid`` returns a read-only (N, 1)
float array, 8 bytes a point.  A sweep is a table per STACK_CHUNK grid
rows (``_sweep_chunks``): each slice of the checked rows is built,
measured, classified and compared with its oracle columns as one stack,
and only then is the next one made.  A mixed row's verdict is looked
up by the key of its claim mask, claim j weighing 2**j (``_verdict``,
cached per key).  ``sweep`` turns the chunks into SweepRows; the
``triqent sweep`` command writes each chunk's CSV lines straight from
its columns, with one % call, so beyond the grid its memory does not
grow with the number of points.
"""

from __future__ import annotations

import functools
import numbers
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .classify import _CLAIMS, DEFAULT_ZERO_TOL, _certify_table, _classify_table
from .errors import NonFiniteError, NoOracleError, ParamOutOfDomainError, TriqentError
from .measures import (
    _MEASURE_NAMES,
    STACK_CHUNK,
    MeasureSet,
    _measure_sets,
    _mixed_measure_table,
    _pure_measure_table,
)
from .states import (
    QUBITS,
    DensityMatrix,
    PureState,
    _is_number,
    _normalized,
    _numbers,
    _raise_first,
)

_SQRT3 = np.sqrt(3.0)


def _amplitudes(n: int, indexed: dict) -> np.ndarray:
    """(n, 8) amplitudes: each value of ``indexed``, a scalar or an (n,) column, at its basis index."""
    amps = np.zeros((n, 8), dtype=complex)
    for idx, val in indexed.items():
        amps[:, idx] = val
    return amps


def _ghz_rows(phase: np.ndarray) -> np.ndarray:
    return _amplitudes(len(phase), {0: 1 / np.sqrt(2), 7: np.exp(1j * phase) / np.sqrt(2)})


def _in_unit_interval(rows: np.ndarray) -> np.ndarray:
    """Which rows hold one parameter in [0, 1]."""
    return (0.0 <= rows[:, 0]) & (rows[:, 0] <= 1.0)


def _ghz_like_rows(rows: np.ndarray) -> np.ndarray:
    alpha = rows[:, 0]
    return _amplitudes(len(rows), {0: alpha, 7: np.sqrt(1.0 - alpha * alpha)})


def _w_prime_rows(n: int) -> np.ndarray:
    return _amplitudes(n, {1: 1 / _SQRT3, 2: 1 / _SQRT3, 4: 1 / _SQRT3})


def _w_canonical_rows(rows: np.ndarray) -> np.ndarray:
    return _amplitudes(len(rows), {0: rows[:, 0], 5: rows[:, 1], 6: rows[:, 2]})


def _projector(amps: np.ndarray) -> np.ndarray:
    """|v><v| as a float matrix, for amplitudes v with no imaginary part, as every mixture's are."""
    v = amps.real
    return np.outer(v, v)


_GHZ_RHO = _projector(_ghz_rows(np.zeros(1))[0])
_W_PRIME_RHO = _projector(_w_prime_rows(1)[0])


def _bell(sign: float) -> np.ndarray:
    v = np.zeros(4)
    v[2] = 1 / np.sqrt(2)  # |10>
    v[1] = sign / np.sqrt(2)  # |01>
    return v


#: |1><1|_A x |Psi+><Psi+| and |0><0|_A x |Psi-><Psi-|, the two terms of rho_epsilon
_RHO_EPS_PLUS = np.kron(np.diag([0.0, 1.0]), _projector(_bell(1.0)))
_RHO_EPS_MINUS = np.kron(np.diag([1.0, 0.0]), _projector(_bell(-1.0)))


def _rho_epsilon_rows(rows: np.ndarray) -> np.ndarray:
    eps = rows[:, 0, np.newaxis, np.newaxis]
    return 0.5 * (1 + eps) * _RHO_EPS_PLUS + 0.5 * (1 - eps) * _RHO_EPS_MINUS


def _ghz_w_mix_rows(rows: np.ndarray) -> np.ndarray:
    p = rows[:, 0, np.newaxis, np.newaxis]
    return p * _GHZ_RHO + (1 - p) * _W_PRIME_RHO


def _ghz_noise_rows(rows: np.ndarray) -> np.ndarray:
    p = rows[:, 0, np.newaxis, np.newaxis]
    return p * _GHZ_RHO + (1 - p) / 8.0 * np.eye(8)


#: the printed 8x8 form of sigma_b before its 1 / (7b + 1) normalization,
#: with h = (1 + b) / 2 and s = sqrt(1 - b^2) / 2
_SIGMA_B_FORM = np.array([list(row) for row in (
    "b0000b00",
    "0b0000b0",
    "00b0000b",
    "000b0000",
    "0000h00s",
    "b0000b00",
    "0b0000b0",
    "00b0s00h",
)])


def _sigma_b_rows(rows: np.ndarray) -> np.ndarray:
    b = rows[:, 0]
    m = np.zeros((len(b), 8, 8))
    for name, value in (("b", b), ("h", (1.0 + b) / 2.0), ("s", np.sqrt(1.0 - b * b) / 2.0)):
        m[:, _SIGMA_B_FORM == name] = value[:, np.newaxis]
    return m / (7.0 * b + 1.0)[:, np.newaxis, np.newaxis]


class _Family(NamedTuple):
    """Everything known about one family, over (N, arity) stacks of parameter rows.

    ``kind`` is the kind of number a parameter is (numbers.Real or
    numbers.Complex).  ``closed_form`` returns (N, 8) amplitudes or (N,
    8, 8) matrices for rows inside the domain; ``oracle``, when the
    family has known closed-form measures, returns one (N,) column per
    measure, keyed by MeasureSet field name; ``grid``, for a family with
    a one-parameter domain, returns the ``points`` values of its default
    sweep grid.  ``domain``, for a family with parameters, is a
    predicate marking the rows inside the domain and the message
    template a row outside it fills (see ``_family_rows``).
    """

    arity: int
    kind: type
    closed_form: Callable[[np.ndarray], np.ndarray]
    oracle: Callable[[np.ndarray], dict[str, np.ndarray]] | None
    grid: Callable[[int], np.ndarray] | None
    domain: tuple[Callable[[np.ndarray], np.ndarray], str] | None = None


def _symmetric(n_cut: np.ndarray, n_red: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Oracle columns of a family symmetric under qubit permutations.

    ``n_cut`` is every one-vs-two negativity and their mean n_abc, and
    ``n_red``, when given, every reduced-pair negativity.
    """
    out = {"n_a_bc": n_cut, "n_b_ac": n_cut, "n_c_ab": n_cut, "n_abc": n_cut}
    if n_red is not None:
        out.update({"n_red_bc": n_red, "n_red_ac": n_red, "n_red_ab": n_red})
    return out


def _w_oracle(rows: np.ndarray) -> dict[str, np.ndarray]:
    n = len(rows)
    return _symmetric(np.full(n, 2.0 * np.sqrt(2.0) / 3.0), np.full(n, (np.sqrt(5.0) - 1.0) / 3.0))


def _ghz_like_oracle(rows: np.ndarray) -> dict[str, np.ndarray]:
    alpha = rows[:, 0]
    return _symmetric(2.0 * np.abs(alpha) * np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha)), np.zeros(len(rows)))


def _w_canonical_oracle(rows: np.ndarray) -> dict[str, np.ndarray]:
    a, e, d = np.hypot(rows.real, rows.imag).T  # as Python's abs of a complex
    return {
        "n_red_bc": np.sqrt(a**4 + 4 * (e * d) ** 2) - a**2,
        "n_red_ac": np.sqrt(d**4 + 4 * (e * a) ** 2) - d**2,
        "n_red_ab": np.sqrt(e**4 + 4 * (a * d) ** 2) - e**2,
    }


def _ghz_w_mix_oracle(rows: np.ndarray) -> dict[str, np.ndarray]:
    p = rows[:, 0]
    return _symmetric((np.sqrt(41 * p * p - 64 * p + 32) + 2 * np.sqrt(10 * p * p - 2 * p + 1) - p - 2) / 6.0)


def _sigma_b_oracle(rows: np.ndarray) -> dict[str, np.ndarray]:
    b = rows[:, 0]
    n_cut = (np.sqrt(3.0 * b * b + 1.0) - 2.0 * b) / (7.0 * b + 1.0)
    return {"n_a_bc": np.zeros(len(b)), "n_b_ac": n_cut, "n_c_ab": n_cut, "n_abc": np.zeros(len(b))}


def _interior(points: int) -> np.ndarray:
    """``points`` evenly spaced values inside the open interval (0, 1)."""
    vals = np.arange(1.0, points + 1)
    vals /= points + 1.0
    return vals


#: family name -> its record; SWEEPABLE lists the families with a grid, in this order
_FAMILIES = {
    "ghz": _Family(0, numbers.Real, lambda rows: _ghz_rows(np.zeros(len(rows))),
                   lambda rows: _symmetric(np.ones(len(rows)), np.zeros(len(rows))), None),
    "w": _Family(0, numbers.Real, lambda rows: _w_canonical_rows(np.full((len(rows), 3), 1 / _SQRT3)),
                 _w_oracle, None),
    "w_prime": _Family(0, numbers.Real, lambda rows: _w_prime_rows(len(rows)), _w_oracle, None),
    "rho0": _Family(0, numbers.Real, lambda rows: _rho_epsilon_rows(np.zeros((len(rows), 1))), None, None),
    "ghz_like": _Family(1, numbers.Real, _ghz_like_rows, _ghz_like_oracle,
                        lambda points: np.linspace(0.0, 1.0 / np.sqrt(2.0), points),
                        (_in_unit_interval, "ghz_like needs alpha in [0, 1], got {}")),
    "w_canonical": _Family(3, numbers.Complex, _w_canonical_rows, _w_canonical_oracle, None,
                           (lambda rows: _normalized(_w_canonical_rows(rows)),
                            "w_canonical coefficients must be normalized")),
    "ghz_w_mix": _Family(1, numbers.Real, _ghz_w_mix_rows, _ghz_w_mix_oracle,
                         lambda points: np.linspace(0.0, 1.0, points),
                         (_in_unit_interval, "ghz_w_mix needs p in [0, 1], got {}")),
    "ghz_noise": _Family(1, numbers.Real, _ghz_noise_rows,
                         lambda rows: {"n_abc": np.where(rows[:, 0] <= 0.2, 0.0, (5.0 * rows[:, 0] - 1.0) / 4.0)},
                         lambda points: np.linspace(0.0, 1.0, points),
                         (_in_unit_interval, "ghz_noise needs p in [0, 1], got {}")),
    "rho_epsilon": _Family(1, numbers.Real, _rho_epsilon_rows,
                           lambda rows: {"n_a_bc": np.zeros(len(rows)), "n_red_bc": np.abs(rows[:, 0])},
                           lambda points: np.linspace(-1.0, 1.0, points),
                           (lambda rows: (-1.0 <= rows[:, 0]) & (rows[:, 0] <= 1.0),
                            "rho_epsilon needs |eps| <= 1, got {}")),
    "sigma_b": _Family(1, numbers.Real, _sigma_b_rows, _sigma_b_oracle, _interior,
                       (lambda rows: (0.0 < rows[:, 0]) & (rows[:, 0] < 1.0), "sigma_b needs b in (0, 1), got {}")),
}

FAMILIES = tuple(sorted(_FAMILIES))
#: families with a one-parameter domain and hence a default sweep grid
SWEEPABLE = tuple(name for name, record in _FAMILIES.items() if record.grid is not None)


def _family(family) -> _Family:
    """The record of a family name; ParamOutOfDomainError for any other value."""
    if isinstance(family, str) and family in _FAMILIES:
        return _FAMILIES[family]
    raise ParamOutOfDomainError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")


def _point_problem(params, family: str, arity: int, kind: type) -> str | None:
    """Why ``params`` is not one parameter row of ``family``, or None when it is."""
    try:
        n = len(params)
    except TypeError:  # not a sequence, such as a number
        return f"family {family!r} takes {arity} parameter(s), got {params!r}, not a tuple"
    if n != arity:
        return f"family {family!r} takes {arity} parameter(s), got {n}"
    if getattr(_numbers(params, kind), "ndim", None) != 1:  # None, for a row that is not numbers
        return f"parameters must be {kind.__name__.lower()} numbers, got {params}"
    return None


def _parameter_rows(points, family: str, arity: int, kind: type) -> np.ndarray:
    """A nonempty sequence of parameter rows, or an (N, arity) array, as an (N, arity) array of
    ``kind`` (numbers.Real or numbers.Complex) numbers, checked as one.

    An array of the kind's dtype is taken as it is, without a copy.
    Only when the whole is not such an array are the points walked:
    ParamOutOfDomainError names the first one that is not a sequence of
    ``arity`` numbers of the kind, such as a number, a dict, or a row
    holding a string, None, an array or a boolean (see ``_numbers``),
    and records its index (see ``_raise_first``).  A family's domain is
    checked by ``_family_rows``.
    """
    dtype = complex if kind is numbers.Complex else float
    rows = points if isinstance(points, np.ndarray) and points.dtype == dtype else _numbers(points, kind)
    if rows is None or rows.ndim != 2 or rows.shape[1] != arity:
        _raise_first(np.array([_point_problem(p, family, arity, kind) is not None for p in points]),
                     ParamOutOfDomainError, lambda i: _point_problem(points[i], family, arity, kind))
    return rows


def _family_rows(points, family: str, record: _Family) -> np.ndarray:
    """``_parameter_rows`` of ``family``, checked against its domain, once for all rows.

    ParamOutOfDomainError names the first row outside the domain, by
    the record's message template, and records its index.  A domain is
    built from comparisons, which are False on NaN, so a NaN parameter
    is outside every domain.
    """
    rows = _parameter_rows(points, family, record.arity, record.kind)
    if record.domain is not None:
        inside, template = record.domain
        _raise_first(~inside(rows), ParamOutOfDomainError, lambda i: template.format(*rows[i]))
    return rows


def make_state(family: str, *params) -> PureState | DensityMatrix:
    """Build the named state or family member for the given parameters."""
    record = _family(family)
    stack = record.closed_form(_family_rows([params], family, record))
    return PureState(stack[0]) if stack.ndim == 2 else DensityMatrix._derived(stack[0], QUBITS)


def ghz(phase: float = 0.0) -> PureState:
    """(|000> + e^{i phase} |111>) / sqrt(2); mixtures below pin phase = 0."""
    rows = _parameter_rows([(phase,)], "ghz", 1, numbers.Real)
    _raise_first(~np.isfinite(rows[:, 0]), NonFiniteError, lambda i: f"ghz needs a finite phase, got {rows[i, 0]}")
    return PureState(_ghz_rows(rows[:, 0])[0])


def ghz_like(alpha: float) -> PureState:
    """alpha|000> + omega|111> with real alpha in [0, 1], omega = sqrt(1 - alpha^2)."""
    return make_state("ghz_like", alpha)


def w_prime() -> PureState:
    """The symmetric W state (|001> + |010> + |100>) / sqrt(3)."""
    return make_state("w_prime")


def w_canonical(alpha: complex, epsilon: complex, delta: complex) -> PureState:
    """alpha|000> + epsilon|101> + delta|110>, already in canonical form."""
    return make_state("w_canonical", alpha, epsilon, delta)


def w_state() -> PureState:
    """The canonical-form W point alpha = epsilon = delta = 1/sqrt(3)."""
    return make_state("w")


def rho_epsilon(eps: float) -> DensityMatrix:
    """Biseparable Bell mixture whose BC reduction has negativity |eps|.

    (1+eps)/2 |1><1|_A x |Psi+><Psi+| + (1-eps)/2 |0><0|_A x |Psi-><Psi-|
    with the Bell states Psi+- = (|10> +- |01>)/sqrt(2) on the BC pair.
    """
    return make_state("rho_epsilon", eps)


def rho_zero() -> DensityMatrix:
    """The eps = 0 Bell mixture: biseparable yet with a separable BC reduction."""
    return make_state("rho0")


def ghz_w_mix(p: float) -> DensityMatrix:
    """p |GHZ><GHZ| + (1-p) |W'><W'| for p in [0, 1]."""
    return make_state("ghz_w_mix", p)


def ghz_noise(p: float) -> DensityMatrix:
    """p |GHZ><GHZ| + (1-p)/8 * identity for p in [0, 1]."""
    return make_state("ghz_noise", p)


def sigma_b(b: float) -> DensityMatrix:
    """Bound-entangled 2x4 family embedded on qubits A|(BC), b in (0, 1).

    The 4-dimensional side uses the basis map e1..e4 = |00>, |01>, |10>,
    |11> on BC, so the printed 8x8 form (``_SIGMA_B_FORM``) is already
    in the package's index convention.
    """
    return make_state("sigma_b", b)


def oracle(family: str, *params) -> dict[str, float]:
    """Closed-form values for a family, keyed by MeasureSet field name.

    It is the family's oracle columns on a stack of one, the routine
    ``sweep`` reads for its grid.  Raises NoOracleError for a family with
    no closed form, and what ``make_state`` raises for parameters outside
    the family's domain.
    """
    record = _FAMILIES.get(family) if isinstance(family, str) else None
    if record is None or record.oracle is None:
        raise NoOracleError(f"no closed form registered for family {family!r}")
    rows = _family_rows([params], family, record)
    return {k: float(v[0]) for k, v in record.oracle(rows).items()}


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """Family identifier plus the parameter grid to evaluate it on.

    The grid is a sequence of parameter tuples or an (N, arity) array of
    parameter rows.  Like the other records that hold an array, two
    specs are equal only when they are the same object.
    """

    family: str
    grid: Sequence[Sequence[float]] | np.ndarray


def default_grid(family: str, points: int = 101) -> FamilySpec:
    """Uniform grid over the family's parameter domain, as a read-only (points, 1) float array."""
    # from about sys.maxsize // 8 points numpy cannot size the grid (a raw error)
    if not _is_number(points, numbers.Integral) or not 1 <= points <= sys.maxsize // 16:
        raise ParamOutOfDomainError(f"points must be an integer from 1 to sys.maxsize // 16, got {points!r:.40}")
    values = _family(family).grid
    if values is None:
        raise ParamOutOfDomainError(f"family {family!r} has no default sweep grid")
    grid = values(points).reshape(points, 1)
    grid.setflags(write=False)
    return FamilySpec(family, grid)


@dataclass(frozen=True)
class SweepRow:
    params: tuple[float, ...]
    measures: MeasureSet
    verdict: str
    oracle_values: dict[str, float]
    deviations: dict[str, float]


#: the weight of claim j of _CLAIMS in the key of a claim mask, 2**j
_CLAIM_BITS = 1 << np.arange(len(_CLAIMS))


@functools.cache
def _verdict(key: int) -> str:
    """The mixed verdict of a claim mask, from its key: the claims it holds, joined by "; "."""
    return "; ".join(compress(_CLAIMS, [key >> j & 1 for j in range(len(_CLAIMS))]))


class _SweepChunk(NamedTuple):
    """Up to STACK_CHUNK consecutive grid points of a sweep, as columns.

    ``params`` is the (N, arity) slice of the checked grid rows; ``table``
    the (N, 16) pure or (N, 13) mixed measure table; ``verdicts`` one
    string per point; ``oracle`` and ``deviations`` (N,) columns keyed by
    MeasureSet field, the deviation being |table column - oracle column|.
    """

    params: np.ndarray
    table: np.ndarray
    verdicts: list[str]
    oracle: dict[str, np.ndarray]
    deviations: dict[str, np.ndarray]


def _sweep_chunk(record: _Family, rows: np.ndarray) -> _SweepChunk:
    """Up to STACK_CHUNK checked grid rows, built, measured, classified and compared as one stack."""
    stack = record.closed_form(rows)
    if stack.ndim == 2:
        table = _pure_measure_table(stack)
        verdicts = _classify_table(table, DEFAULT_ZERO_TOL).codes.tolist()
    else:
        table = _mixed_measure_table(stack)
        held = _certify_table(table, DEFAULT_ZERO_TOL)[0]
        verdicts = [_verdict(key) for key in (held @ _CLAIM_BITS).tolist()]
    oracle_columns = record.oracle(rows) if record.oracle else {}
    deviations = {k: np.abs(table[:, _MEASURE_NAMES.index(k)] - v) for k, v in oracle_columns.items()}
    return _SweepChunk(rows, table, verdicts, oracle_columns, deviations)


def _sweep_chunks(spec: FamilySpec):
    """The grid of ``spec`` as one _SweepChunk per STACK_CHUNK points, in grid order.

    The family and the whole grid are checked first, as one (N, arity)
    array inside the family's domain (see ``_family_rows``), and the
    chunks are slices of it.  A
    chunk is made when it is asked for, and its state stack is dropped
    once its table is made, so a caller that writes each chunk out needs
    memory for the grid and about one chunk, however long the grid.  A
    grid that is not a nonempty sequence of parameter tuples, or that
    holds a point outside the family's domain, raises
    ParamOutOfDomainError before any chunk is made; the message names
    the params of the first point that fails.
    """
    if not isinstance(spec, FamilySpec):
        raise ParamOutOfDomainError(f"sweep needs a FamilySpec, got {type(spec).__name__}")
    record = _family(spec.family)
    try:
        points = spec.grid if isinstance(spec.grid, np.ndarray) and spec.grid.ndim else tuple(spec.grid)
    except TypeError:  # not iterable, such as a number
        points = ()
    if not len(points):
        raise ParamOutOfDomainError(f"sweep needs a nonempty grid of parameter tuples, got {spec.grid!r}")
    try:
        rows = _family_rows(points, spec.family, record)
    except TriqentError as exc:
        if hasattr(exc, "_row"):  # see _raise_first
            params = points[exc._row]
            if isinstance(params, np.ndarray):
                params = tuple(params.tolist())
            exc.args = (f"sweep of {spec.family!r} failed at params {params}: {exc}",)
        raise
    for start in range(0, len(rows), STACK_CHUNK):
        yield _sweep_chunk(record, rows[start:start + STACK_CHUNK])


def _row_dicts(columns: dict[str, np.ndarray], n: int) -> list[dict[str, float]]:
    """The n rows of a dict of (n,) columns, one dict of floats per row."""
    values = np.array(list(columns.values()), dtype=float).reshape(len(columns), n).T.tolist()
    return [dict(zip(columns, row)) for row in values]


def sweep(spec: FamilySpec) -> list[SweepRow]:
    """One row per grid point, in grid order, with oracle deviations.

    The rows are read off ``_sweep_chunks``: the grid is built from the
    family's closed form, measured, classified and compared with the
    oracle columns as one stack per chunk of STACK_CHUNK points.  Each
    row equals what ``classify_pure`` or ``classify_mixed`` gives on
    ``make_state(family, *params)``, and its oracle values what
    ``oracle(family, *params)`` gives; its params are the point's
    parameters as Python numbers.  The list holds every row, so its size
    grows with the grid; the ``triqent sweep`` command streams the
    chunks instead.  An unknown family, a grid that is not a nonempty
    sequence of parameter tuples, or a point outside the family's domain
    raises ParamOutOfDomainError, whose message names the params of the
    first grid point that fails.
    """
    rows = []
    for chunk in _sweep_chunks(spec):
        n = len(chunk.params)
        rows += [
            SweepRow(tuple(params), ms, verdict, oracle_values, deviations)
            for params, ms, verdict, oracle_values, deviations in zip(
                chunk.params.tolist(), _measure_sets(chunk.table), chunk.verdicts,
                _row_dicts(chunk.oracle, n), _row_dicts(chunk.deviations, n),
            )
        ]
    return rows
