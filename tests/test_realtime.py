"""Tests for both real-time mechanisms and the constrained window clearing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemarket import GeneratorParams, MarketParams, StorageParams, realtime
from cyclemarket.dayahead import (
    DayAheadBids,
    DayAheadResult,
    clear_general,
    clear_uniform,
    equilibrium_bids_dayahead,
)
from cyclemarket.errors import (
    DegenerateDemandError,
    DegeneratePriceError,
    DivergenceError,
    InvalidInputError,
    NonConvergenceError,
)
from cyclemarket.realtime import (
    RealTimeBids,
    aware_bids,
    best_response_unaware,
    clear_constrained_aware,
    equilibrium_aware,
    equilibrium_unaware,
    map_stable,
)
from cyclemarket.qp import dispatch_map, idle_dispatch
from cyclemarket.rainflow import rainflow_map
from cyclemarket.simulation import _window_da_view


def make_market(rng, n_gen=1, n_storage=1, E=200.0):
    gens = [GeneratorParams(c=float(rng.uniform(8, 40)), g_min=-1e9, g_max=1e9)
            for _ in range(n_gen)]
    stores = [StorageParams(capacity_E=E, b=float(rng.uniform(0.5, 4.0)),
                            u_min=-1e9, u_max=1e9) for _ in range(n_storage)]
    return MarketParams(generators=gens, storages=stores)


def cleared_day_ahead(rng, params, T=8):
    d = 10 + 4 * np.sin(2 * np.pi * (np.arange(T) + rng.uniform(0, T)) / T) \
        + rng.normal(0, 0.3, T)
    bids = equilibrium_bids_dayahead(params)
    return d, clear_uniform(bids, d, params)


def correlated_residual(rng, d_da, scale=0.25):
    # positively tied to the forecast, so the price rises with residual demand
    # (omega > 0); its negation gives an anti-correlated residual (omega < 0)
    return scale * np.abs(d_da) * rng.uniform(0.4, 1.2, d_da.size)


def price_vector_slopes(params, da, price):
    """Both bid first-order conditions evaluated directly on a price vector:
    alpha_j = 1/c_j - <g_j, p>/||p||^2 and
    beta_s = (||p||^2 - <theta_s, N_s p>) / (b_s ||N_s p||^2)."""
    p2 = float(price @ price)
    alpha = np.array([1.0 / gen.c - float(da.g[j] @ price) / p2
                      for j, gen in enumerate(params.generators)])
    beta = np.zeros(params.n_storages)
    for s, st in enumerate(params.storages):
        Np = da.maps[s].map @ price
        beta[s] = (p2 - float(np.asarray(da.cycle_prices[s]) @ Np)) / (st.b * float(Np @ Np))
    return alpha, beta


def first_order_gaps(params, da, bids, res):
    """How far each bid (generators, then storage) lies from the best
    response at the result's own price."""
    alpha, beta = price_vector_slopes(params, da, res.price)
    return np.abs(np.concatenate([bids.alpha_r - alpha, bids.beta_r - beta]))


class TestEquilibriumUnaware:
    def test_single_generator_hand_formula(self):
        # one generator, no storage: omega = <lambda_da, d_r>/||d_r||^2 + c
        rng = np.random.default_rng(0)
        params = MarketParams(generators=[GeneratorParams(c=20.0, g_min=-1e9, g_max=1e9)])
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        bids, res = equilibrium_unaware(params, d_r, da)
        P = float(da.energy_price @ d_r) / float(d_r @ d_r)
        assert res.price_coeff == pytest.approx(P + 20.0, rel=1e-12)
        # balance: total supply matches the residual exactly
        total = bids.alpha_r[0] * res.price
        assert total == pytest.approx(d_r)

    def test_clearing_is_fixed_point(self):
        rng = np.random.default_rng(1)
        params = make_market(rng)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        bids, res = equilibrium_unaware(params, d_r, da)
        supply = bids.alpha_r.sum() * res.price + bids.beta_r.sum() * res.price
        assert supply == pytest.approx(d_r, abs=1e-8)
        assert res.kkt_residual < 1e-10

    def test_zero_residual_rejected(self):
        rng = np.random.default_rng(2)
        params = make_market(rng)
        _, da = cleared_day_ahead(rng, params)
        with pytest.raises(DegenerateDemandError):
            equilibrium_unaware(params, np.zeros(8), da)

    @pytest.mark.parametrize("d_r", [np.ones(7), np.ones(9), np.ones((2, 4)),
                                     np.full(8, np.nan), np.r_[np.inf, np.ones(7)],
                                     np.r_[1e200, np.ones(7)]],
                             ids=["short", "long", "2-d", "nan", "inf", "overflow"])
    @pytest.mark.parametrize("solve", [equilibrium_unaware, best_response_unaware])
    def test_residual_not_a_finite_vector_over_the_horizon_rejected(self, solve, d_r):
        # one residual rule covers both solvers; an hour whose square
        # overflows once failed each solver another way
        rng = np.random.default_rng(2)
        params = make_market(rng)
        _, da = cleared_day_ahead(rng, params)
        with pytest.raises(InvalidInputError, match="finite vector of 8 intervals"):
            solve(params, d_r, da)

    def test_paper_price_plus_slope_form_when_residual_sums_to_zero(self):
        # with equilibrium day-ahead bids and 1'd_r = 0 the exact fixed point
        # collapses to omega = <lambda_da, d_r>/||d_r||^2 + 1/K
        rng = np.random.default_rng(3)
        params = make_market(rng)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = rng.normal(0, 1, d_da.size)
        d_r -= d_r.mean()
        st = params.storages[0]
        dec = rainflow_map(da.u[0], st.capacity_E, st.x0)
        Nd = dec.map @ d_r
        if float(Nd @ Nd) <= 0:
            pytest.skip("residual produced no cycling through the day-ahead map")
        _, res = equilibrium_unaware(params, d_r, da)
        P = float(da.energy_price @ d_r) / float(d_r @ d_r)
        K = 1.0 / params.generators[0].c + float(d_r @ d_r) / (st.b * float(Nd @ Nd))
        assert res.price_coeff == pytest.approx(P + 1.0 / K, rel=1e-9)

    def test_storage_without_bid_slope_is_degenerate(self):
        # beta = 0 clears storage-absent: one empty map per unit, no cycling
        rng = np.random.default_rng(24)
        params = make_market(rng)
        d = 10 + rng.normal(0, 1, 8)
        da = clear_uniform(DayAheadBids(alpha=[1.0 / params.generators[0].c], beta=[0.0]),
                           d, params)
        assert [m.n_half_cycles for m in da.maps] == [0]
        with pytest.raises(DegeneratePriceError):
            equilibrium_unaware(params, correlated_residual(rng, d), da)

    def test_map_violation_flagged_not_hidden(self):
        # small capacity: some adjustments reshape the SoC, some do not
        for seed, expected in ((0, False), (3, True), (4, False), (6, True)):
            rng = np.random.default_rng(seed)
            params = make_market(rng, n_storage=2, E=20.0)
            d_da, da = cleared_day_ahead(rng, params)
            d_r = 3.0 * rng.normal(0, 1, d_da.size)
            for solve in (equilibrium_unaware, best_response_unaware):
                _, res = solve(params, d_r, da)
                assert map_stable(params, da, res) is expected

    def test_map_check_runs_when_read(self, monkeypatch):
        rng = np.random.default_rng(3)
        params = make_market(rng, n_storage=2, E=20.0)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = 3.0 * rng.normal(0, 1, d_da.size)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dispatch_map(*args, **kwargs)

        monkeypatch.setattr(realtime, "dispatch_map", counted)
        for solve in (equilibrium_unaware, best_response_unaware):
            _, res = solve(params, d_r, da)
        assert calls == []  # no solver checks the map
        assert map_stable(params, da, res) is True
        assert len(calls) == params.n_storages  # one check per unit

    def test_closed_form_and_loop_share_first_order_scalars(self, monkeypatch):
        # both read K and the numerator from one helper: doubling its K moves
        # the closed form and the loop's fixed point to the same new point
        rng = np.random.default_rng(27)
        params = make_market(rng, n_gen=2, n_storage=2, E=300.0)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        omega = equilibrium_unaware(params, d_r, da)[1].price_coeff
        calls = []

        def doubled(*args):
            k, m, K, B, numer = unaware_table(*args)
            calls.append(None)
            return k, m, 2.0 * K, B, numer

        unaware_table = realtime._unaware_table
        monkeypatch.setattr(realtime, "_unaware_table", doubled)
        omega_eq = equilibrium_unaware(params, d_r, da)[1].price_coeff
        omega_br = best_response_unaware(params, d_r, da, tol=1e-12)[1].price_coeff
        assert len(calls) == 2
        assert omega_eq == pytest.approx(omega / 2.0, rel=1e-12)
        assert omega_br == pytest.approx(omega_eq, rel=1e-9)

    def test_price_coefficient_bits_match_first_order_formula(self):
        # the formula summed term by term in generator, then storage, order
        rng = np.random.default_rng(35)
        params = make_market(rng, n_gen=3, n_storage=3, E=300.0)
        d_da, da = cleared_day_ahead(rng, params, T=12)
        d_r = correlated_residual(rng, d_da)
        norm2 = float(d_r @ d_r)
        K = float(np.array([1.0 / gen.c for gen in params.generators]).sum())
        numer = 1.0
        for j in range(params.n_generators):
            numer += float(da.g[j] @ d_r) / norm2
        for s, st in enumerate(params.storages):
            Nd = da.maps[s].map @ d_r
            D = float(Nd @ Nd)
            K += norm2 / (st.b * D)
            numer += float(np.asarray(da.cycle_prices[s], dtype=float) @ Nd) / (st.b * D)
        _, res = equilibrium_unaware(params, d_r, da)
        assert res.price_coeff == numer / K


class TestBestResponseUnaware:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = make_market(rng, n_gen=int(rng.integers(1, 4)),
                                 n_storage=int(rng.integers(1, 3)), E=300.0)
            d_da, da = cleared_day_ahead(rng, params, T=int(rng.integers(4, 12)))
            d_r = correlated_residual(rng, d_da)
            b_eq, r_eq = equilibrium_unaware(params, d_r, da)
            b_br, r_br = best_response_unaware(params, d_r, da, tol=1e-12)
            assert r_br.kkt_residual <= 1e-8
            assert np.max(np.abs(r_br.price - r_eq.price)) < 1e-6
            assert np.max(np.abs(b_br.alpha_r - b_eq.alpha_r)) < 1e-6
            assert np.max(np.abs(b_br.beta_r - b_eq.beta_r)) < 1e-6

    def test_negative_price_coefficient_reached(self):
        # residual opposed to the forecast: the fixed point lies at omega < 0
        rng = np.random.default_rng(25)
        params = make_market(rng, n_gen=2, n_storage=2, E=300.0)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = -correlated_residual(rng, d_da)
        b_eq, r_eq = equilibrium_unaware(params, d_r, da)
        assert r_eq.price_coeff < 0
        b_br, r_br = best_response_unaware(params, d_r, da, tol=1e-12)
        assert r_br.kkt_residual <= 1e-8
        scale = max(1.0, float(np.max(np.abs(r_eq.price))))
        assert np.max(np.abs(r_br.price - r_eq.price)) / scale < 1e-9
        assert np.max(np.abs(b_br.alpha_r - b_eq.alpha_r)) < 1e-9
        assert np.max(np.abs(b_br.beta_r - b_eq.beta_r)) < 1e-9

    def test_zero_aggregate_slope_diverges(self):
        rng = np.random.default_rng(26)
        params = make_market(rng)
        d_da, da = cleared_day_ahead(rng, params)
        init = RealTimeBids(alpha_r=[0.5], beta_r=[-0.5])
        with pytest.raises(DivergenceError):
            best_response_unaware(params, correlated_residual(rng, d_da), da, initial_bids=init)

    def test_initial_bids_of_other_sizes_rejected(self):
        rng = np.random.default_rng(26)
        params = make_market(rng)  # one generator, one storage unit
        d_da, da = cleared_day_ahead(rng, params)
        for init in (RealTimeBids(alpha_r=[1, 2, 3], beta_r=[4, 5]),
                     RealTimeBids(alpha_r=[1.0], beta_r=[])):
            with pytest.raises(InvalidInputError, match="participant lists"):
                best_response_unaware(params, correlated_residual(rng, d_da), da,
                                      initial_bids=init)

    def test_foc_residual_at_convergence(self):
        # re-evaluating the best responses at the final price reproduces the bids
        rng = np.random.default_rng(6)
        params = make_market(rng)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        bids, res = best_response_unaware(params, d_r, da, tol=1e-12)
        assert np.max(first_order_gaps(params, da, bids, res)) < 1e-9

    def test_random_initializations_reach_same_point(self):
        rng = np.random.default_rng(7)
        params = make_market(rng)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        prices = []
        for _ in range(5):
            init = RealTimeBids(alpha_r=rng.uniform(0.01, 1.0, 1),
                                beta_r=rng.uniform(0.01, 1.0, 1))
            _, res = best_response_unaware(params, d_r, da, tol=1e-12, initial_bids=init)
            prices.append(res.price)
        for p in prices[1:]:
            assert np.max(np.abs(p - prices[0])) < 1e-6

    def test_single_generator_converges_fast(self):
        # the aggregate-slope recursion is affine: secant lands it immediately
        rng = np.random.default_rng(8)
        params = MarketParams(generators=[GeneratorParams(c=20.0, g_min=-1e9, g_max=1e9)])
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        _, res = best_response_unaware(params, d_r, da, tol=1e-12)
        assert res.kkt_residual <= 1e-8
        assert res.iterations <= 3

    def test_iteration_cap_raises_with_trace(self):
        rng = np.random.default_rng(9)
        params = make_market(rng)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        with pytest.raises(NonConvergenceError) as err:
            best_response_unaware(params, d_r, da, tol=0.0, max_iter=4)
        assert isinstance(err.value.trace, list)


@st.composite
def unaware_markets(draw):
    """1-3 generators and 1-4 storage units, some of equal E, on a balanced
    day-ahead schedule, with a residual demand tied to the forecast or
    opposed to it.  The day-ahead maps and bid-consistent cycle prices are
    built as the rolling engine builds a window's (``_window_da_view``)."""
    J = draw(st.integers(1, 3))
    S = draw(st.integers(1, 4))
    costs = draw(st.lists(st.floats(5.0, 40.0), min_size=J, max_size=J))
    slopes = draw(st.lists(st.floats(0.5, 4.0), min_size=S, max_size=S))
    capacities = draw(st.lists(st.sampled_from([150.0, 300.0]), min_size=S, max_size=S))
    T = draw(st.integers(4, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = draw(st.sampled_from([1.0, -1.0]))  # -1 mostly gives omega < 0
    params = MarketParams(
        generators=[GeneratorParams(c=c, g_min=-1e9, g_max=1e9) for c in costs],
        storages=[StorageParams(capacity_E=E, b=b, u_min=-1e9, u_max=1e9)
                  for E, b in zip(capacities, slopes)],
    )
    d_da = 10 + 4 * np.sin(2 * np.pi * (np.arange(T) + rng.uniform(0, T)) / T) \
        + rng.normal(0, 0.3, T)
    shares = rng.dirichlet(np.ones(S))
    u = np.outer(shares, d_da - d_da.mean()) + rng.normal(0, 0.2, (S, T))
    g = np.tile((d_da - u.sum(axis=0)) / J, (J, 1))
    schedule = DayAheadResult(
        g=g, u=u, nu=[], energy_price=np.zeros(T), cycle_prices=[],
        periodicity_duals=np.zeros(S), shares=None, objective=0.0, kkt_residual=0.0,
    )
    da = _window_da_view(schedule, params, 0, T, idle_dispatch(u))
    return params, da, sign * correlated_residual(rng, d_da)


class TestUnawareFixedPointProperty:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(unaware_markets())
    def test_closed_form_is_best_response_fixed_point(self, market):
        params, da, d_r = market
        b_eq, r_eq = equilibrium_unaware(params, d_r, da)
        b_br, r_br = best_response_unaware(params, d_r, da, tol=1e-12)
        scale = max(1.0, float(np.max(np.abs(r_eq.price))))
        assert np.max(np.abs(r_br.price - r_eq.price)) <= 1e-9 * scale
        # storage slopes scale as E^2/b (map entries are 1/E), so compare on
        # the slopes' own scale as for the price
        slopes_eq = np.concatenate([b_eq.alpha_r, b_eq.beta_r])
        slopes_br = np.concatenate([b_br.alpha_r, b_br.beta_r])
        scale = max(1.0, float(np.max(np.abs(slopes_eq))))
        assert np.max(np.abs(slopes_br - slopes_eq)) <= 1e-9 * scale
        # both bid sets solve the price-vector form of the first-order conditions
        assert np.max(first_order_gaps(params, da, b_eq, r_eq)) <= 1e-9 * scale
        assert np.max(first_order_gaps(params, da, b_br, r_br)) <= 1e-9 * scale


class TestEquilibriumAware:
    def test_single_generator_case(self):
        # alpha = 1/c, phi = c, price = c*d, and the commitment cancels
        params = MarketParams(generators=[GeneratorParams(c=20.0, g_min=-1e9, g_max=1e9)])
        rng = np.random.default_rng(10)
        d_da, da = cleared_day_ahead(rng, params)
        d_r = correlated_residual(rng, d_da)
        d = d_da + d_r
        bids, res = equilibrium_aware(params, d, da)
        assert bids.alpha_r[0] == 1.0 / 20.0
        assert res.price_coeff == pytest.approx(20.0)
        assert res.price == pytest.approx(20.0 * d)
        assert da.g[0] + res.g_r[0] == pytest.approx(d)

    def test_alpha_is_inverse_cost_exactly(self):
        rng = np.random.default_rng(11)
        params = make_market(rng, n_gen=3)
        d_da, da = cleared_day_ahead(rng, params)
        d = d_da * rng.uniform(0.9, 1.1, d_da.size)
        bids, _ = equilibrium_aware(params, d, da)
        for j, gen in enumerate(params.generators):
            assert bids.alpha_r[j] == 1.0 / gen.c  # exact, not approximate

    def test_clearing_exact_to_machine_precision(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            params = make_market(rng, n_gen=int(rng.integers(1, 3)),
                                 n_storage=int(rng.integers(1, 3)), E=250.0)
            d_da, da = cleared_day_ahead(rng, params)
            d = d_da * rng.uniform(0.9, 1.1, d_da.size)
            _, res = equilibrium_aware(params, d, da)
            adj = res.g_r.sum(axis=0) + (res.u_r.sum(axis=0) if res.u_r.size else 0.0)
            target = d - d_da
            scale = max(1.0, float(np.max(np.abs(d))))
            assert np.max(np.abs(adj - target)) / scale < 5e-14

    def test_price_collinear_with_total_demand(self):
        rng = np.random.default_rng(13)
        params = make_market(rng)
        d_da, da = cleared_day_ahead(rng, params)
        d = d_da * 1.04
        _, res = equilibrium_aware(params, d, da)
        rel = np.max(np.abs(res.price - res.price_coeff * d)) / max(1e-10, np.max(np.abs(res.price)))
        assert rel < 1e-10

    @pytest.mark.parametrize("units, maps", [
        ([(50.0, 0.5)] * 4, 1),
        ([(50.0, 0.5), (100.0, 0.5), (50.0, 0.5), (50.0, 0.3)], 3),
    ], ids=["one-group", "three-groups"])
    def test_demand_mapped_once_per_capacity_and_initial_soc(self, monkeypatch, units, maps):
        # units of one (capacity_E, x0) read one map of the demand, and each
        # slope keeps the bits of the per-unit formula
        rng = np.random.default_rng(28)
        params = MarketParams(
            generators=[GeneratorParams(c=20.0)],
            storages=[StorageParams(capacity_E=E, b=float(rng.uniform(0.5, 4.0)), x0=x0)
                      for E, x0 in units])
        d = 600 + 200 * np.sin(2 * np.pi * (np.arange(24.0) - 8) / 24)
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return rainflow_map(*args)

        monkeypatch.setattr(realtime, "rainflow_map", counted)
        bids = aware_bids(params, d)
        assert sorted(calls) == sorted(set(units)) and len(calls) == maps
        for s, st in enumerate(params.storages):
            Nd = rainflow_map(d, st.capacity_E, st.x0).map @ d
            assert bids.beta_r[s] == float(d @ d) / (st.b * float(Nd @ Nd))

    def test_zero_total_demand_rejected(self):
        rng = np.random.default_rng(14)
        params = make_market(rng)
        _, da = cleared_day_ahead(rng, params)
        with pytest.raises(DegenerateDemandError):
            equilibrium_aware(params, np.zeros(8), da)

    def test_brute_force_fixed_point_T4(self):
        # solve clearing + first-order conditions numerically with no
        # proportionality assumption, then compare the implied coefficient
        params = MarketParams(
            generators=[GeneratorParams(c=7.0, g_min=-1e9, g_max=1e9)],
            storages=[StorageParams(capacity_E=4.0, b=1.3, u_min=-1e9, u_max=1e9)],
        )
        rng = np.random.default_rng(15)
        d_da, da = cleared_day_ahead(rng, params, T=4)
        d = d_da * rng.uniform(0.92, 1.12, 4)

        lam = rng.normal(0, 1, 4) + d  # arbitrary start
        for _ in range(200):
            beta = np.zeros(1)
            dec = rainflow_map(lam, 4.0, 0.5)
            Nl = dec.map @ lam
            beta[0] = float(lam @ lam) / (1.3 * float(Nl @ Nl))
            lam_new = d / (1.0 / 7.0 + beta[0])
            if np.max(np.abs(lam_new - lam)) < 1e-14 * max(1.0, np.max(np.abs(lam))):
                lam = lam_new
                break
            lam = lam_new
        _, res = equilibrium_aware(params, d, da)
        phi_oracle = float(lam @ d) / float(d @ d)
        assert res.price_coeff == pytest.approx(phi_oracle, abs=1e-8)
        assert np.max(np.abs(res.price - lam)) < 1e-8 * max(1.0, np.max(np.abs(lam)))


class TestClearConstrainedAware:
    def test_wide_limits_match_closed_form(self):
        rng = np.random.default_rng(16)
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6)],
            storages=[StorageParams(capacity_E=1e5, b=2.0, u_min=-1e5, u_max=1e5)],
        )
        d_da, da = cleared_day_ahead(rng, params)
        d = d_da * 1.05
        bids, closed = equilibrium_aware(params, d, da)
        res = clear_constrained_aware(bids, d, da.g, da.u, params)
        assert np.max(np.abs(res.u_r - closed.u_r)) < 1e-6
        assert np.max(np.abs(res.g_r - closed.g_r)) < 1e-6
        assert res.kkt_residual <= 1e-8

    def test_zero_residual_generator_only_no_adjustment(self):
        # with no storage the aware clearing reproduces the day-ahead schedule
        # exactly when nothing changed; with storage the real-time stage
        # releases the periodicity shadow price, so some restructuring is the
        # mechanism's actual optimum (covered by the closed-form cross-check)
        rng = np.random.default_rng(17)
        params = MarketParams(generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6)])
        d_da, da = cleared_day_ahead(rng, params)
        bids, _ = equilibrium_aware(params, d_da, da)
        res = clear_constrained_aware(bids, d_da, da.g, np.zeros((0, d_da.size)), params)
        scale = max(1.0, float(np.max(np.abs(d_da))))
        assert np.max(np.abs(res.g_r)) / scale < 1e-9

    def test_zero_residual_with_storage_matches_closed_form(self):
        rng = np.random.default_rng(18)
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6)],
            storages=[StorageParams(capacity_E=1e4, b=2.0, u_min=-1e4, u_max=1e4)],
        )
        d_da, da = cleared_day_ahead(rng, params)
        bids, closed = equilibrium_aware(params, d_da, da)
        res = clear_constrained_aware(bids, d_da, da.g, da.u, params)
        assert np.max(np.abs(res.u_r - closed.u_r)) < 1e-6
        assert np.max(np.abs(res.g_r - closed.g_r)) < 1e-6

    def test_binding_total_rate_limit_clips_storage(self):
        params = MarketParams(
            generators=[GeneratorParams(c=0.05, g_min=0.0, g_max=1e6)],
            storages=[StorageParams(capacity_E=8.0, b=0.001, u_min=-2.0, u_max=2.0)],
        )
        d_da = np.array([4.0, 6.0, 4.0, 6.0])
        bids_da = equilibrium_bids_dayahead(params)
        from cyclemarket.dayahead import clear_general

        da = clear_general(bids_da, d_da, params)
        d = d_da + np.array([1.5, 1.5, -1.5, -1.5])
        bids, _ = equilibrium_aware(params, d, da)
        res = clear_constrained_aware(bids, d, da.g, da.u, params)
        total_u = da.u[0] + res.u_r[0]
        assert np.all(total_u <= 2.0 + 1e-9)
        assert np.all(total_u >= -2.0 - 1e-9)
        # grid-search oracle on the first interval's split given binding limits
        assert res.kkt_residual <= 1e-8

    def test_commitment_above_rate_limit_starts_inside_adjustment_box(self):
        # u_da = 1.5 u_max leaves the total box [0.5, 1], which excludes 0
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=0.0, g_max=10.0)],
            storages=[StorageParams(capacity_E=8.0, b=2.0, u_min=-1.0, u_max=1.0)],
        )
        bids = RealTimeBids(alpha_r=[0.05], beta_r=[1.0])
        w = np.array([3.0, 4.0])
        u_da = np.array([[1.5, 1.5]])
        res = clear_constrained_aware(bids, w, np.array([[1.5, 2.5]]), u_da, params)
        total_u = u_da[0] + res.u_r[0]
        assert np.all(total_u >= 0.5 - 1e-9) and np.all(total_u <= 1.0 + 1e-9)
        assert res.kkt_residual <= 1e-8

    def test_infeasible_window_names_interval(self):
        from cyclemarket.errors import InfeasibleError

        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=0.0, g_max=3.0)],
            storages=[StorageParams(capacity_E=4.0, b=2.0, u_min=-1.0, u_max=1.0)],
        )
        bids = RealTimeBids(alpha_r=[0.05], beta_r=[1.0])
        w = np.array([2.0, 10.0])  # peak beyond generator cap + storage rate
        g_da = np.array([[2.0, 3.0]])
        u_da = np.array([[0.0, 0.0]])
        with pytest.raises(InfeasibleError) as err:
            clear_constrained_aware(bids, w, g_da, u_da, params)
        assert err.value.interval == 1

    @pytest.mark.parametrize("alpha_r, beta_r, W, message", [
        ([0.05], [1.0], 0, "at least one interval"),
        ([0.0], [1.0], 2, "positive generator slopes"),
        ([0.05], [-1.0], 2, "positive storage slopes"),
    ], ids=["empty-window", "zero-generator-slope", "negative-storage-slope"])
    def test_rejects_empty_window_and_nonpositive_slopes(self, alpha_r, beta_r, W, message):
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=0.0, g_max=10.0)],
            storages=[StorageParams(capacity_E=8.0, b=2.0)],
        )
        bids = RealTimeBids(alpha_r=alpha_r, beta_r=beta_r)
        with pytest.raises(InvalidInputError, match=message):
            clear_constrained_aware(bids, np.full(W, 3.0), np.full((1, W), 3.0),
                                    np.zeros((1, W)), params)

    @pytest.mark.parametrize("alpha_r, beta_r", [([np.nan], [1.0]), ([1.0], [np.inf]),
                                                 ([[0.05]], [1.0]), ([0.05], [[1.0]])],
                             ids=["nan-alpha", "inf-beta", "2d-alpha", "2d-beta"])
    def test_non_finite_bid_slopes_rejected(self, alpha_r, beta_r):
        with pytest.raises(InvalidInputError, match="must be finite"):
            RealTimeBids(alpha_r=alpha_r, beta_r=beta_r)


class TestMalformedInput:
    """The real-time entry points name malformed input with
    ``InvalidInputError`` rather than failing inside numpy or the solver."""

    @staticmethod
    def _setup():
        params = MarketParams(generators=[GeneratorParams(c=20.0)],
                              storages=[StorageParams(capacity_E=50.0)])
        d = 100.0 + 10.0 * np.sin(2 * np.pi * np.arange(24) / 24)
        return params, d, clear_general(equilibrium_bids_dayahead(params), d, params)

    @pytest.mark.parametrize("call, message", [
        (lambda p, d, da, b: clear_constrained_aware(b, d, da.g[:, 1:], da.u, p), "commitments"),
        (lambda p, d, da, b: clear_constrained_aware(b, d, da.g, da.u[:, 1:], p), "commitments"),
        (lambda p, d, da, b: clear_constrained_aware(b, d, da.g, da.u, p, x0s=[0.5, 0.5]),
         "states of charge"),
        (lambda p, d, da, b: clear_constrained_aware(b, d, da.g, da.u, p, x0s=[1.5]),
         "states of charge"),
        (lambda p, d, da, b: clear_constrained_aware(
            RealTimeBids(alpha_r=[0.05, 0.05], beta_r=b.beta_r), d, da.g, da.u, p), "bid vector"),
        (lambda p, d, da, b: clear_constrained_aware(
            RealTimeBids(alpha_r=b.alpha_r, beta_r=[1.0, 1.0]), d, da.g, da.u, p), "bid vector"),
        (lambda p, d, da, b: clear_constrained_aware(
            RealTimeBids(alpha_r=b.alpha_r, beta_r=[]), d, da.g, da.u, p), "bid vector"),
        (lambda p, d, da, b: equilibrium_aware(p, d[:12], da), "day-ahead schedule"),
        (lambda p, d, da, b: aware_bids(p, d.reshape(2, 12)), "demand must be a finite vector"),
        (lambda p, d, da, b: aware_bids(p, np.r_[np.nan, d[1:]]),
         "demand must be a finite vector"),
        (lambda p, d, da, b: equilibrium_aware(p, np.r_[np.nan, d[1:]], da),
         "demand must be a finite vector"),
    ], ids=["g-shape", "u-shape", "x0s-length", "x0s-range", "alpha-size", "beta-size",
            "beta-empty", "da-horizon", "2d-demand", "nan-demand-bids", "nan-demand-equilibrium"])
    def test_rejected(self, call, message):
        params, d, da = self._setup()
        with pytest.raises(InvalidInputError, match=message):
            call(params, d, da, aware_bids(params, d))
