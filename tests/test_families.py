import numpy as np
import pytest

import triqent.classify
import triqent.families
import triqent.measures
from triqent import (
    DensityMatrix,
    NoOracleError,
    ParamOutOfDomainError,
    PureState,
    default_grid,
    eig_hermitian,
    ghz,
    ghz_like,
    ghz_noise,
    ghz_w_mix,
    make_state,
    measure_set,
    oracle,
    rho_epsilon,
    rho_zero,
    sigma_b,
    sweep,
    to_density,
    w_canonical,
)


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
            assert eig_hermitian(rho.matrix).values[-1] >= -1e-12

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


class TestSweep:
    def test_grid_shapes(self):
        spec = default_grid("ghz_like", points=11)
        assert len(spec.grid) == 11
        assert spec.grid[0] == (0.0,)
        assert spec.grid[-1][0] == pytest.approx(1 / np.sqrt(2))

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

    @pytest.mark.parametrize("family", ["ghz_like", "ghz_w_mix"])
    def test_one_measure_set_per_point(self, family, monkeypatch):
        calls = []

        def counting(state):
            calls.append(state)
            return measure_set(state)

        for module in (triqent.measures, triqent.classify, triqent.families):
            monkeypatch.setattr(module, "measure_set", counting, raising=False)
        rows = sweep(default_grid(family, points=5))
        assert len(calls) == len(rows) == 5
        for row, state in zip(rows, calls):
            assert row.measures == measure_set(state)

    def test_pure_verdicts_recorded(self):
        rows = sweep(default_grid("ghz_like", points=3))
        assert rows[0].verdict == "0-0"  # alpha = 0 end is the product |111>
        assert rows[-1].verdict == "2-0"
