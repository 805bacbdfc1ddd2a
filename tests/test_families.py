import itertools
import sys
import tracemalloc

import numpy as np
import pytest

import triqent.families
import triqent.states
from triqent import (
    SWEEPABLE,
    DensityMatrix,
    FamilySpec,
    NoOracleError,
    NotNormalizedError,
    ParamOutOfDomainError,
    PureState,
    classify_mixed,
    classify_pure,
    default_grid,
    from_gsd_coefficients,
    ghz,
    ghz_like,
    ghz_noise,
    ghz_w_mix,
    gsd,
    make_state,
    measure_set,
    oracle,
    rho_epsilon,
    rho_zero,
    sample_haar_pure,
    sigma_b,
    sweep,
    to_density,
    w_canonical,
)
from triqent.classify import _CLAIMS
from triqent.families import _CLAIM_BITS, _FAMILIES, _family_rows, _parameter_rows, _sweep_chunks, _verdict
from triqent.measures import STACK_CHUNK, _mixed_measure_table
from triqent.states import EIG_FLOOR, NORM_ATOL, _validated_amplitudes, _validated_matrices

from helpers import MIXED_FAMILIES, REAL_ROUTE_ATOL, nonzero_coefficients, reference_oracle


def bits(ms):
    """The fields of a MeasureSet as exact bit patterns; pure-only fields of a mixed state stay None."""
    return {k: None if v is None else float(v).hex() for k, v in ms.as_dict().items()}


def spy_on_stacks(monkeypatch, routine):
    """Record the stack passed to each call of ``families.<routine>``."""
    calls = []
    original = getattr(triqent.families, routine)

    def spy(stack):
        calls.append(np.array(stack))
        return original(stack)

    monkeypatch.setattr(triqent.families, routine, spy)
    return calls


def per_point(family, grid):
    """(verdict, MeasureSet) of each grid point from the scalar constructor and classifier."""
    out = []
    for params in grid:
        state = make_state(family, *params)
        if isinstance(state, PureState):
            res = classify_pure(state)
            out.append((res.label.code, res.measures))
        else:
            res = classify_mixed(state)
            out.append(("; ".join(res.claims()), res.measures))
    return out


def assert_rows_match_per_point(rows, spec):
    assert [r.params for r in rows] == [tuple(p) for p in spec.grid]
    expected = per_point(spec.family, spec.grid)
    assert [r.verdict for r in rows] == [verdict for verdict, _ in expected]
    for row, (_, ms) in zip(rows, expected):
        assert bits(row.measures) == bits(ms), row.params


class TestConstructors:
    def test_ghz_like_at_balance_is_ghz(self):
        a = ghz_like(1 / np.sqrt(2)).amplitudes
        np.testing.assert_allclose(a, ghz().amplitudes, atol=1e-15)

    def test_ghz_w_mix_endpoint(self):
        rho = ghz_w_mix(1.0)
        np.testing.assert_allclose(rho.matrix, to_density(ghz()).matrix, atol=1e-15)

    def test_sigma_b_matches_printed_form(self):
        b = 0.3
        m = sigma_b(b).matrix * (7 * b + 1)
        assert m[0, 0] == pytest.approx(b)
        assert m[0, 5] == pytest.approx(b)
        assert m[3, 3] == pytest.approx(b)
        assert m[4, 4] == pytest.approx((1 + b) / 2)
        assert m[4, 7] == pytest.approx(np.sqrt(1 - b * b) / 2)
        assert np.trace(sigma_b(b).matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_sigma_b_is_a_state(self):
        for b in (0.1, 0.5, 0.9):
            rho = sigma_b(b)
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    def test_domains_enforced(self):
        with pytest.raises(ParamOutOfDomainError):
            ghz_like(1.2)
        with pytest.raises(ParamOutOfDomainError):
            ghz_noise(-0.1)
        with pytest.raises(ParamOutOfDomainError):
            sigma_b(0.0)
        with pytest.raises(ParamOutOfDomainError):
            rho_epsilon(1.5)
        with pytest.raises(ParamOutOfDomainError):
            w_canonical(1.0, 1.0, 1.0)

    def test_make_state_dispatch(self):
        assert isinstance(make_state("ghz"), PureState)
        assert isinstance(make_state("ghz_noise", 0.5), DensityMatrix)
        with pytest.raises(ParamOutOfDomainError):
            make_state("bogus")
        with pytest.raises(ParamOutOfDomainError):
            make_state("ghz_like")  # missing parameter


class TestOracles:
    def test_ghz_noise_below_threshold(self):
        assert oracle("ghz_noise", 0.2)["n_abc"] == 0.0

    def test_ghz_w_mix_at_zero(self):
        # printed expression evaluates to (sqrt(32) + 2 - 2) / 6 = 2 sqrt(2) / 3
        assert oracle("ghz_w_mix", 0.0)["n_abc"] == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-15)

    def test_w_point_reduced_negativities(self):
        got = oracle("w_canonical", 1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3))
        for key in ("n_red_bc", "n_red_ac", "n_red_ab"):
            assert got[key] == pytest.approx((np.sqrt(5) - 1) / 3, abs=1e-12)

    def test_unknown_family(self):
        with pytest.raises(NoOracleError):
            oracle("bogus")

    @pytest.mark.parametrize(
        "family,params",
        [
            ("ghz", ()),
            ("w", ()),
            ("w_prime", ()),
            ("ghz_like", (0.4,)),
            ("w_canonical", (0.5, 0.5, 1 / np.sqrt(2))),
            ("ghz_w_mix", (0.37,)),
            ("ghz_noise", (0.61,)),
            ("sigma_b", (0.25,)),
            ("rho_epsilon", (-0.73,)),
        ],
    )
    def test_oracle_agrees_with_pipeline(self, family, params):
        ms = measure_set(make_state(family, *params))
        for key, expected in oracle(family, *params).items():
            assert getattr(ms, key) == pytest.approx(expected, abs=1e-9), key


def oracle_columns(family, grid):
    """The oracle columns of the family's record over the grid's points, checked as ``sweep`` checks them."""
    record = _FAMILIES[family]
    return record.oracle(_parameter_rows(grid, family, record.arity, record.kind))


def hex_rows(columns, n):
    """The (N,) columns of a record's oracle as one dict of exact bit patterns per point."""
    return [{k: float(v[i]).hex() for k, v in columns.items()} for i in range(n)]


def hex_reference(family, grid):
    return [{k: float(v).hex() for k, v in reference_oracle(family, params).items()} for params in grid]


class TestOracleColumns:
    """Each record's oracle against the per-point formulas of ``helpers.reference_oracle``."""

    @pytest.mark.parametrize("points", [1, 101, 1001])
    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_sweep_grids_bit_for_bit(self, family, points):
        grid = default_grid(family, points).grid
        # the reference evaluates Python floats, not numpy scalars
        assert hex_rows(oracle_columns(family, grid), points) == hex_reference(family, grid.tolist())

    @pytest.mark.parametrize("family, low, high", [
        ("ghz_like", 0.0, 1.0),
        ("ghz_w_mix", 0.0, 1.0),
        ("ghz_noise", 0.0, 1.0),
        ("sigma_b", 1e-12, 1.0 - 1e-12),
        ("rho_epsilon", -1.0, 1.0),
    ])
    def test_random_parameters_bit_for_bit(self, family, low, high):
        grid = [(float(x),) for x in np.random.default_rng(17).uniform(low, high, 2000)]
        assert hex_rows(oracle_columns(family, grid), len(grid)) == hex_reference(family, grid)

    @pytest.mark.parametrize("family", ["ghz", "w", "w_prime"])
    def test_fixed_states_bit_for_bit(self, family):
        grid = [()] * 3
        assert hex_rows(oracle_columns(family, grid), 3) == hex_reference(family, grid)

    def test_w_canonical_within_4_ulp(self):
        # numpy's array power may differ from Python's float ** by an ulp,
        # so each term, and the difference of the two, moves by a few ulp of
        # the square-root term
        rng = np.random.default_rng(23)
        grid = [tuple(nonzero_coefficients(rng, 3, min_mag=0.0).tolist()) for _ in range(2000)]
        got = oracle_columns("w_canonical", grid)
        subtracted = {"n_red_bc": 0, "n_red_ac": 2, "n_red_ab": 1}  # the coefficient squared after the root
        for i, params in enumerate(grid):
            expected = reference_oracle("w_canonical", params)
            assert list(got) == list(expected)
            for key, value in expected.items():
                root_term = value + abs(params[subtracted[key]]) ** 2
                assert abs(got[key][i] - value) <= 4 * np.spacing(root_term), (key, params)

    def test_no_closed_form(self):
        assert _FAMILIES["rho0"].oracle is None
        with pytest.raises(NoOracleError):
            oracle("rho0")


class TestSweep:
    def test_grid_shapes(self):
        spec = default_grid("ghz_like", points=11)
        assert spec.grid.shape == (11, 1) and spec.grid.dtype == np.float64
        assert not spec.grid.flags.writeable
        assert spec.grid[0, 0] == 0.0
        assert spec.grid[-1, 0] == pytest.approx(1 / np.sqrt(2))

    def test_sigma_b_grid_is_interior(self):
        spec = default_grid("sigma_b", points=9)
        vals = [p[0] for p in spec.grid]
        assert 0.0 < min(vals) and max(vals) < 1.0

    def test_rows_in_order_with_deviations(self):
        rows = sweep(default_grid("ghz_noise", points=21))
        assert [r.params[0] for r in rows] == pytest.approx(list(np.linspace(0, 1, 21)))
        for r in rows:
            assert r.deviations["n_abc"] < 1e-9

    def test_ghz_w_mix_shape(self):
        rows = sweep(default_grid("ghz_w_mix", points=41))
        vals = [r.measures.n_abc for r in rows]
        assert min(vals) > 0.0
        assert int(np.argmax(vals)) == len(vals) - 1  # global maximum at p = 1
        assert vals[0] > vals[1]  # secondary local maximum at p = 0

    def test_rho_epsilon_endpoints_match_pure_states(self):
        rows = sweep(default_grid("rho_epsilon", points=5))
        # eps = 1 is the pure product |1>_A x Psi+, so the BC pair is Bell
        last = rows[-1].measures
        assert last.n_red_bc == pytest.approx(1.0, abs=1e-12)
        assert last.n_a_bc == pytest.approx(0.0, abs=1e-12)
        mid = rows[2].measures  # eps = 0 is the rho0 mixture
        assert mid.n_red_bc < 1e-12

    def test_bad_family(self):
        with pytest.raises(ParamOutOfDomainError):
            default_grid("w_canonical")

    def test_endpoint_consistency_with_pure_measures(self):
        row = sweep(default_grid("ghz_w_mix", points=3))[-1]
        pure = measure_set(ghz())
        for name in ("n_a_bc", "n_b_ac", "n_c_ab", "n_abc", "n_red_bc", "s_a"):
            assert getattr(row.measures, name) == pytest.approx(
                getattr(pure, name), abs=1e-12
            ), name

    def test_rho0_reduction_is_ppt(self):
        assert measure_set(rho_zero()).n_red_bc < 1e-12

    @pytest.mark.parametrize("family, routine", [
        ("ghz_like", "_pure_measure_table"),
        ("ghz_w_mix", "_mixed_measure_table"),
    ], ids=["ghz_like", "ghz_w_mix"])
    def test_one_stack_call_per_grid(self, family, routine, monkeypatch):
        calls = spy_on_stacks(monkeypatch, routine)
        spec = default_grid(family, points=5)
        rows = sweep(spec)
        assert len(rows) == 5
        states = [make_state(family, *params) for params in spec.grid]
        expected = [s.amplitudes if isinstance(s, PureState) else s.matrix for s in states]
        assert len(calls) == 1 and np.array_equal(calls[0], expected)  # the full grid, validated
        for row, state in zip(rows, states):
            assert bits(row.measures) == bits(measure_set(state))

    def test_pure_verdicts_recorded(self):
        rows = sweep(default_grid("ghz_like", points=3))
        assert rows[0].verdict == "0-0"  # alpha = 0 end is the product |111>
        assert rows[-1].verdict == "2-0"


class TestSweepStack:
    """``sweep`` measures each grid as a stack; every row equals the scalar path bit for bit."""

    @pytest.mark.parametrize("points", [101, 1001])
    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_matches_per_point_path(self, family, points):
        spec = default_grid(family, points)
        assert_rows_match_per_point(sweep(spec), spec)

    @pytest.mark.parametrize("family, grid", [
        ("w_canonical", ((0.5, 0.5, 1 / np.sqrt(2)), (1 / np.sqrt(3),) * 3, (0.6, 0.8j, 0.0))),
        ("ghz", ((),)),
        ("w", ((), ())),
        ("w_prime", ((),)),
        ("rho0", ((),)),
    ], ids=["w_canonical", "ghz", "w", "w_prime", "rho0"])
    def test_non_sweepable_families(self, family, grid):
        spec = FamilySpec(family, grid)
        rows = sweep(spec)
        assert_rows_match_per_point(rows, spec)
        for row in rows:
            try:
                expected = oracle(family, *row.params)
            except NoOracleError:
                expected = {}
            assert row.oracle_values == expected
            assert all(dev < 1e-9 for dev in row.deviations.values())

    @pytest.mark.parametrize("family, routine", [
        ("ghz_like", "_pure_measure_table"),
        ("sigma_b", "_mixed_measure_table"),
    ], ids=["ghz_like", "sigma_b"])
    def test_chunked_grid(self, family, routine, monkeypatch):
        calls = spy_on_stacks(monkeypatch, routine)
        spec = default_grid(family, 2500)
        rows = sweep(spec)
        assert [len(c) for c in calls] == [STACK_CHUNK, STACK_CHUNK, 2500 - 2 * STACK_CHUNK]
        monkeypatch.undo()
        assert_rows_match_per_point(rows, spec)

    def test_nan_param_rejected_before_lapack(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(ParamOutOfDomainError, match=r"'ghz_noise' failed at params \(nan,\)"):
            sweep(FamilySpec("ghz_noise", ((0.5,), (float("nan"),))))

    def test_domain_error_names_first_failing_point(self):
        grid = tuple((p,) for p in (0.2, 0.4, 1.5, -1.0))
        with pytest.raises(ParamOutOfDomainError, match=r"failed at params \(1\.5,\): ghz_w_mix needs p"):
            sweep(FamilySpec("ghz_w_mix", grid))
        with pytest.raises(ParamOutOfDomainError, match=r"failed at params \(0\.5, 0\.5\): family 'ghz_like' takes 1"):
            sweep(FamilySpec("ghz_like", ((0.5,), (0.5, 0.5))))

    def test_unknown_family_reported_once(self):
        # not blamed on the first grid point, whatever the grid holds
        for grid in (((0.5,),), ((0.5,), (0.25,)), ("x",)):
            with pytest.raises(ParamOutOfDomainError) as info:
                sweep(FamilySpec("nope", grid))
            assert str(info.value).startswith("unknown family 'nope'; known: ghz, ")
            assert "params" not in str(info.value)
        # default_grid looks the family up as sweep does
        for family in ("nope", 5):
            with pytest.raises(ParamOutOfDomainError) as info:
                default_grid(family)
            assert str(info.value).startswith(f"unknown family {family!r}; known: ghz, ")

    def test_first_bad_point_named_after_a_valid_array(self):
        grid = np.array([[0.5], [0.25], [2.0]])
        with pytest.raises(ParamOutOfDomainError, match=r"failed at params \(2\.0,\): ghz_like needs alpha"):
            sweep(FamilySpec("ghz_like", grid))
        with pytest.raises(ParamOutOfDomainError, match=r"failed at params \(0\.5, 0\.5\): family 'ghz_like' takes 1"):
            sweep(FamilySpec("ghz_like", np.full((2, 2), 0.5)))


def parent_grid_values(family, points):
    """The default grid as it was built before it became an array: one Python float per point."""
    if family == "ghz_like":
        vals = np.linspace(0.0, 1.0 / np.sqrt(2.0), points)
    elif family in ("ghz_w_mix", "ghz_noise"):
        vals = np.linspace(0.0, 1.0, points)
    elif family == "rho_epsilon":
        vals = np.linspace(-1.0, 1.0, points)
    else:  # sigma_b, on its open domain
        vals = np.arange(1, points + 1) / (points + 1.0)
    return [float(v).hex() for v in vals]


class TestDefaultGrid:
    """``default_grid`` reads the family's record and returns a read-only (N, 1) float array."""

    @pytest.mark.parametrize("points", [1, 2, 3, 101, 1025])
    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_values_bit_for_bit(self, family, points):
        grid = default_grid(family, points).grid
        assert isinstance(grid, np.ndarray) and grid.shape == (points, 1) and grid.dtype == np.float64
        assert not grid.flags.writeable
        assert [float(v).hex() for v in grid[:, 0]] == parent_grid_values(family, points)

    def test_eight_bytes_a_point(self):
        # a tuple of 1-tuples of Python floats took about 80 MB here
        tracemalloc.start()
        try:
            spec = default_grid("ghz_like", 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spec.grid) == 10**6
        assert peak < 10 * 2**20

    def test_sweepable_read_off_the_records(self):
        assert SWEEPABLE == ("ghz_like", "ghz_w_mix", "ghz_noise", "rho_epsilon", "sigma_b")
        assert [f for f in triqent.FAMILIES if _FAMILIES[f].grid is not None] == sorted(SWEEPABLE)
        for family in set(_FAMILIES) - set(SWEEPABLE):
            with pytest.raises(ParamOutOfDomainError, match="has no default sweep grid"):
                default_grid(family)

    def test_spec_equality_is_identity(self):
        # a spec holds an array, so == compares the objects, as for PureState
        spec = default_grid("ghz_like", 3)
        assert spec == spec and spec != default_grid("ghz_like", 3)
        assert len({spec, default_grid("ghz_like", 3)}) == 2

    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_tuple_grid_gives_the_same_rows(self, family):
        spec = default_grid(family, 101)
        as_tuples = FamilySpec(family, tuple(map(tuple, spec.grid.tolist())))
        for array_row, tuple_row in zip(sweep(spec), sweep(as_tuples), strict=True):
            assert array_row.params == tuple_row.params
            assert all(type(p) is float for p in array_row.params)
            assert bits(array_row.measures) == bits(tuple_row.measures)
            assert (array_row.verdict, array_row.oracle_values, array_row.deviations) == (
                tuple_row.verdict, tuple_row.oracle_values, tuple_row.deviations)

    def test_chunks_slice_the_grid(self):
        # the checked rows of a default grid are the grid itself, not a copy
        spec = default_grid("ghz_noise", 2500)
        chunks = list(_sweep_chunks(spec))
        assert [len(c.params) for c in chunks] == [STACK_CHUNK, STACK_CHUNK, 2500 - 2 * STACK_CHUNK]
        assert all(np.shares_memory(c.params, spec.grid) for c in chunks)


#: each family's domain as (low, high, open); the grid holds both ends, or
#: the nearest floats inside an open domain
DOMAINS = {
    "ghz_like": (0.0, 1.0, False),
    "ghz_w_mix": (0.0, 1.0, False),
    "ghz_noise": (0.0, 1.0, False),
    "rho_epsilon": (-1.0, 1.0, False),
    "sigma_b": (0.0, 1.0, True),
}


def domain_grid(family, n=2000, seed=0):
    """The family's endpoints, its middle and ``n`` uniform points inside its domain."""
    low, high, is_open = DOMAINS[family]
    ends = [np.nextafter(low, high), np.nextafter(high, low)] if is_open else [low, high]
    inside = np.random.default_rng(seed).uniform(low, high, n)
    return tuple((float(p),) for p in (*ends, (low + high) / 2, *inside))


class TestClosedFormsAreStates:
    """A family's closed form on in-domain parameters is a state, so a sweep does not validate it again."""

    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_state_by_construction(self, family):
        stack = _FAMILIES[family].closed_form(np.array(domain_grid(family)))
        if stack.ndim == 2:
            norm = np.sqrt((np.abs(stack) ** 2).sum(axis=-1))
            assert np.abs(norm - 1.0).max() <= NORM_ATOL
            assert np.array_equal(_validated_amplitudes(stack.copy()), stack)
            return
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        assert np.abs(stack.trace(axis1=-2, axis2=-1) - 1.0).max() <= NORM_ATOL
        assert np.linalg.eigvalsh(stack)[:, 0].min() >= EIG_FLOOR
        assert np.abs(_validated_matrices(stack.copy()) - stack).max() <= 1e-14

    @pytest.mark.parametrize("family", MIXED_FAMILIES)
    def test_verdicts_equal_validated_path(self, family):
        spec = default_grid(family, 1001)
        stack = _FAMILIES[family].closed_form(spec.grid)
        for row, m in zip(sweep(spec), stack):
            res = classify_mixed(DensityMatrix(m))
            assert row.verdict == "; ".join(res.claims()), row.params
            for name, value in res.measures.as_dict().items():
                if value is not None:
                    assert abs(getattr(row.measures, name) - value) <= 1e-13, (row.params, name)

    def test_validators_not_called(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stacked validator called on a family's closed form")

        monkeypatch.setattr(triqent.states, "_validated_amplitudes", fail)
        monkeypatch.setattr(triqent.states, "_validated_matrices", fail)
        for family in SWEEPABLE:
            assert len(sweep(default_grid(family, 11))) == 11
        for family in MIXED_FAMILIES:
            rho = make_state(family, 0.5)
            assert isinstance(rho, DensityMatrix) and not rho.matrix.flags.writeable
        assert isinstance(make_state("rho0"), DensityMatrix)


#: one point inside the domain of each family
DEFAULT_POINT = {
    "ghz": (), "w": (), "w_prime": (), "rho0": (),
    "ghz_like": (0.3,), "w_canonical": (0.6, 0.8j, 0.0), "ghz_w_mix": (0.37,),
    "ghz_noise": (0.61,), "rho_epsilon": (-0.73,), "sigma_b": (0.25,),
}

#: (family, a point outside its domain, the message it raises); the messages
#: are those of the closed forms that checked the domain before the records did
DOMAIN_ERRORS = [
    ("ghz_like", (1.5,), "ghz_like needs alpha in [0, 1], got 1.5"),
    ("ghz_like", (-1e-300,), "ghz_like needs alpha in [0, 1], got -1e-300"),
    ("ghz_like", (float("nan"),), "ghz_like needs alpha in [0, 1], got nan"),
    ("w_canonical", (1.0, 1.0, 1.0), "w_canonical coefficients must be normalized"),
    ("w_canonical", (0.6, 0.8j, 1e-4), "w_canonical coefficients must be normalized"),
    ("ghz_w_mix", (1.5,), "ghz_w_mix needs p in [0, 1], got 1.5"),
    ("ghz_noise", (-0.1,), "ghz_noise needs p in [0, 1], got -0.1"),
    ("rho_epsilon", (-1.5,), "rho_epsilon needs |eps| <= 1, got -1.5"),
    ("sigma_b", (0.0,), "sigma_b needs b in (0, 1), got 0.0"),
    ("sigma_b", (1.0,), "sigma_b needs b in (0, 1), got 1.0"),
    ("sigma_b", (float("inf"),), "sigma_b needs b in (0, 1), got inf"),
]


def counting_domain(monkeypatch, family):
    """Replace the family's domain predicate by one that records the number of rows of each call."""
    record = _FAMILIES[family]
    inside, template = record.domain
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return inside(rows)

    monkeypatch.setitem(_FAMILIES, family, record._replace(domain=(spy, template)))
    return calls


class TestRealClosedForms:
    """A mixed family's closed form is a float64 stack, measured in real arithmetic.

    ``make_state`` hands out its row as a read-only float64 DensityMatrix.
    The table of the stack's complex copy, the complex route, is held to
    the float table by ``REAL_ROUTE_ATOL``.  The grids have 1001 points.
    """

    @pytest.fixture(scope="class", params=MIXED_FAMILIES)
    def grid(self, request):
        family = request.param
        spec = default_grid(family, 1001)
        return family, spec.grid, _FAMILIES[family].closed_form(spec.grid)

    def test_float64_stack(self, grid):
        _, _, stack = grid
        assert stack.dtype == np.float64 and stack.shape == (1001, 8, 8)

    def test_table_equals_table_of_complex_copy(self, grid):
        _, _, stack = grid
        copy = stack.astype(complex)
        assert not copy.imag.any()
        table = _mixed_measure_table(stack)
        assert np.abs(table - _mixed_measure_table(copy)).max() <= REAL_ROUTE_ATOL
        for i in range(len(stack)):
            assert _mixed_measure_table(stack[i:i + 1]).tobytes() == table[i:i + 1].tobytes(), i

    def test_make_state_holds_the_row(self, grid):
        family, params, stack = grid
        for p, m in zip(params[:, 0].tolist(), stack):
            matrix = make_state(family, p).matrix
            assert matrix.dtype == np.float64 and not matrix.flags.writeable
            assert np.array_equal(matrix, m), p


def test_verdict_of_every_claim_mask():
    # a mixed sweep keys each row's claim mask as held @ _CLAIM_BITS and
    # looks its verdict up; each of the 2**9 masks has its own key
    masks = np.array(list(itertools.product((False, True), repeat=len(_CLAIMS))))
    keys = (masks @ _CLAIM_BITS).tolist()
    assert sorted(keys) == list(range(2 ** len(_CLAIMS)))
    assert [_verdict(key) for key in keys] == ["; ".join(itertools.compress(_CLAIMS, mask)) for mask in masks.tolist()]


class TestDomains:
    """Each record's domain is checked once per call, before any state is built, with the closed forms' messages."""

    @pytest.mark.parametrize("family, params, message", DOMAIN_ERRORS)
    def test_messages_and_rows(self, family, params, message):
        for call in (make_state, oracle) if _FAMILIES[family].oracle else (make_state,):
            with pytest.raises(ParamOutOfDomainError) as info:
                call(family, *params)
            assert str(info.value) == message and info.value._row == 0
        good = (0.5,) if len(params) == 1 else (0.6, 0.8, 0.0)
        grid = (good, good, params, params)
        with pytest.raises(ParamOutOfDomainError) as info:
            _family_rows(grid, family, _FAMILIES[family])
        assert str(info.value) == message and info.value._row == 2
        with pytest.raises(ParamOutOfDomainError) as info:
            sweep(FamilySpec(family, grid))
        assert str(info.value) == f"sweep of {family!r} failed at params {params}: {message}"

    def test_first_failing_row_beyond_a_chunk(self):
        grid = np.full((STACK_CHUNK + 10, 1), 0.5)
        grid[STACK_CHUNK + 3:] = 2.0
        with pytest.raises(ParamOutOfDomainError) as info:
            _family_rows(grid, "ghz_noise", _FAMILIES["ghz_noise"])
        assert info.value._row == STACK_CHUNK + 3
        with pytest.raises(ParamOutOfDomainError, match=r"failed at params \(2\.0,\): ghz_noise needs p"):
            sweep(FamilySpec("ghz_noise", grid))

    def test_normalized_is_the_pure_state_rule(self):
        # coefficients are normalized exactly when PureState takes the state
        # they make, |norm - 1| <= NORM_ATOL, so a state PureState accepted
        # comes back from its canonical form
        amps = sample_haar_pure(3).amplitudes
        w_point = np.array([0.6, 0.8j, 0.0])
        for dev in (0.9 * NORM_ATOL, -0.9 * NORM_ATOL):
            gsd(PureState(amps * (1.0 + dev))).to_state()
            w_canonical(*(w_point * (1.0 + dev)))
        for dev in (1.1 * NORM_ATOL, -1.1 * NORM_ATOL):
            with pytest.raises(NotNormalizedError):
                PureState(amps * (1.0 + dev))
            with pytest.raises(ParamOutOfDomainError):
                w_canonical(*(w_point * (1.0 + dev)))
            with pytest.raises(ParamOutOfDomainError):
                from_gsd_coefficients(*(np.array([0.6, 0.0, 0.0, 0.0, 0.8]) * (1.0 + dev)))

    def test_every_parametrized_family_has_a_domain(self):
        for family, record in _FAMILIES.items():
            assert (record.domain is None) == (record.arity == 0), family

    @pytest.mark.parametrize("family", sorted(f for f, r in _FAMILIES.items() if r.oracle))
    def test_oracle_builds_no_state(self, family, monkeypatch):
        def fail(rows):
            raise AssertionError("oracle built a state")

        record = _FAMILIES[family]
        expected = oracle(family, *DEFAULT_POINT[family])
        monkeypatch.setitem(_FAMILIES, family, record._replace(closed_form=fail))
        assert oracle(family, *DEFAULT_POINT[family]) == expected
        bad = [params for f, params, _ in DOMAIN_ERRORS if f == family]
        for params in bad:
            with pytest.raises(ParamOutOfDomainError):
                oracle(family, *params)

    @pytest.mark.parametrize("family", SWEEPABLE)
    def test_each_row_checked_once(self, family, monkeypatch):
        calls = counting_domain(monkeypatch, family)
        make_state(family, *DEFAULT_POINT[family])
        oracle(family, *DEFAULT_POINT[family])
        assert calls == [1, 1]
        calls.clear()
        assert len(sweep(default_grid(family, 2500))) == 2500
        assert calls == [2500]
        calls.clear()
        chunks = list(_sweep_chunks(default_grid(family, 2500)))
        assert [len(c.params) for c in chunks] == [STACK_CHUNK, STACK_CHUNK, 2500 - 2 * STACK_CHUNK]
        assert calls == [2500]

