"""Tests for day-ahead clearing, equilibrium bids, and the KKT verifier."""

import copy

import numpy as np
import pytest

from cyclemarket import GeneratorParams, MarketParams, StorageParams
from cyclemarket.dayahead import (
    DayAheadBids,
    clear_general,
    clear_uniform,
    equilibrium_bids_dayahead,
    verify_kkt_dayahead,
)
from cyclemarket.errors import InvalidInputError, SolverFailureError
from cyclemarket.planner import solve_planner


def smooth_demand(rng, T=12, base=10.0, swing=4.0):
    return base + swing * np.sin(2 * np.pi * (np.arange(T) + rng.uniform(0, T)) / T) \
        + rng.normal(0, 0.3, T)


class TestEquilibriumBids:
    def test_inverse_cost_slopes(self):
        params = MarketParams(
            generators=[GeneratorParams(c=20.0)],
            storages=[StorageParams(capacity_E=10.0, b=2.0)],
        )
        bids = equilibrium_bids_dayahead(params)
        assert bids.alpha == pytest.approx([0.05])
        assert bids.beta == pytest.approx([0.5])

    def test_bid_validation(self):
        with pytest.raises(InvalidInputError):
            DayAheadBids(alpha=[-1.0], beta=[])
        with pytest.raises(InvalidInputError):
            DayAheadBids(alpha=[0.0], beta=[0.0])


class TestClearUniform:
    def test_zero_demand(self):
        params = MarketParams(generators=[GeneratorParams(c=20.0)],
                              storages=[StorageParams(capacity_E=100.0, b=2.0)])
        res = clear_uniform(equilibrium_bids_dayahead(params), np.zeros(6), params)
        assert np.max(np.abs(res.u)) == 0.0
        assert np.max(np.abs(res.g)) < 1e-12
        assert np.max(np.abs(res.energy_price)) < 1e-12

    def test_no_storage_proportional_split(self):
        params = MarketParams(generators=[GeneratorParams(c=20.0), GeneratorParams(c=10.0)])
        bids = equilibrium_bids_dayahead(params)
        d = np.array([2.0, 3.0, 1.0])
        res = clear_uniform(bids, d, params)
        assert res.energy_price == pytest.approx(d / 0.15)
        assert res.g.sum(axis=0) == pytest.approx(d)
        assert res.g[0] == pytest.approx(0.05 * d / 0.15)

    def test_beta_proportional_dispatch_and_shared_theta(self):
        params = MarketParams(
            generators=[GeneratorParams(c=20.0)],
            storages=[StorageParams(capacity_E=100.0, b=1.0),
                      StorageParams(capacity_E=100.0, b=2.0)],
        )
        bids = equilibrium_bids_dayahead(params)  # beta = [1, 0.5]
        d = 5 + np.array([0.0, 2.0, 4.0, 2.0, 0.0, -2.0, -4.0, -2.0])
        res = clear_uniform(bids, d, params)
        assert res.cycle_prices[0] is res.cycle_prices[1]  # one shared vector
        ratio_err = np.abs(res.u[0] * bids.beta[1] - res.u[1] * bids.beta[0])
        assert np.max(ratio_err) < 1e-8
        assert res.shares == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
        assert res.kkt_residual <= 1e-8
        # the optimum sits on a two-piece kink of the aggregate map
        for pieces in res.stationarity_pieces:
            assert len(pieces) == 2
            assert sum(w for w, _ in pieces) == pytest.approx(1.0, abs=1e-12)

    def test_price_consistency(self):
        rng = np.random.default_rng(3)
        params = MarketParams(
            generators=[GeneratorParams(c=15.0), GeneratorParams(c=25.0)],
            storages=[StorageParams(capacity_E=300.0, b=2.5)],
        )
        bids = equilibrium_bids_dayahead(params)
        for _ in range(5):
            d = smooth_demand(rng)
            res = clear_uniform(bids, d, params)
            for j in range(2):
                assert res.g[j] == pytest.approx(bids.alpha[j] * res.energy_price, abs=1e-9)
            for s in range(1):
                assert res.nu[s] == pytest.approx(bids.beta[s] * res.cycle_prices[s], abs=1e-9)
            assert res.kkt_residual <= 1e-8

    def test_objective_never_increases_when_storage_joins(self):
        rng = np.random.default_rng(4)
        gen = [GeneratorParams(c=20.0)]
        one = MarketParams(generators=gen, storages=[StorageParams(capacity_E=50.0, b=2.0)])
        two = MarketParams(generators=gen, storages=[StorageParams(capacity_E=50.0, b=2.0),
                                                     StorageParams(capacity_E=50.0, b=4.0)])
        for _ in range(5):
            d = smooth_demand(rng)
            obj_one = clear_uniform(equilibrium_bids_dayahead(one), d, one).objective
            obj_two = clear_uniform(equilibrium_bids_dayahead(two), d, two).objective
            assert obj_two <= obj_one + 1e-9

    def test_payment_adequacy_reported(self):
        # generator revenue covers realized cost at equilibrium bids (a = 0)
        rng = np.random.default_rng(5)
        params = MarketParams(generators=[GeneratorParams(c=20.0)],
                              storages=[StorageParams(capacity_E=200.0, b=2.0)])
        bids = equilibrium_bids_dayahead(params)
        d = smooth_demand(rng)
        res = clear_uniform(bids, d, params)
        revenue = float(res.energy_price @ res.g[0])
        cost = 0.5 * 20.0 * float(res.g[0] @ res.g[0])
        assert revenue >= cost - 1e-9

    def test_round_budget_exhausted_raises(self):
        params = MarketParams(generators=[GeneratorParams(c=20.0)],
                              storages=[StorageParams(capacity_E=100.0, b=2.0)])
        d = 5 + np.array([0.0, 2.0, 4.0, 2.0, 0.0, -2.0, -4.0, -2.0])
        with pytest.raises(SolverFailureError) as err:
            clear_uniform(equilibrium_bids_dayahead(params), d, params, max_outer=1)
        g, u = err.value.best_iterate
        assert g.shape == u.shape == (1, d.size)
        assert err.value.residual > 1e-8

    def test_heterogeneous_capacity_rejected(self):
        params = MarketParams(
            generators=[GeneratorParams(c=20.0)],
            storages=[StorageParams(capacity_E=10.0, b=1.0),
                      StorageParams(capacity_E=20.0, b=1.0)],
        )
        with pytest.raises(InvalidInputError):
            clear_uniform(equilibrium_bids_dayahead(params), np.ones(4), params)


class TestClearGeneral:
    def test_wide_limits_reproduce_uniform(self):
        rng = np.random.default_rng(6)
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6),
                        GeneratorParams(c=35.0, g_min=-1e6, g_max=1e6)],
            storages=[StorageParams(capacity_E=5e3, b=3.0, u_min=-1e6, u_max=1e6)],
        )
        bids = equilibrium_bids_dayahead(params)
        d = smooth_demand(rng)
        uni = clear_uniform(bids, d, params)
        gen = clear_general(bids, d, params)
        assert np.max(np.abs(gen.u - uni.u)) < 1e-6
        assert np.max(np.abs(gen.g - uni.g)) < 1e-6
        assert np.max(np.abs(gen.energy_price - uni.energy_price)) < 1e-6

    def test_binding_generator_cap(self):
        params = MarketParams(
            generators=[GeneratorParams(c=1.0, g_min=0.0, g_max=4.0)],
            storages=[StorageParams(capacity_E=1.0, b=5.0, u_min=-2.0, u_max=2.0)],
        )
        bids = equilibrium_bids_dayahead(params)
        d = np.array([1.0, 5.0, 2.0])
        res = clear_general(bids, d, params)
        assert res.g[0][1] == pytest.approx(4.0, abs=1e-7)
        assert res.g.sum(axis=0) + res.u.sum(axis=0) == pytest.approx(d)
        assert res.kkt_residual <= 1e-8

    def test_negative_demand_hour_clears_under_both(self):
        # storage must charge through the hour whose demand is below zero
        t = np.arange(24)
        d = 20 + 8 * np.exp(-((t - 8) / 2.5) ** 2) + 12 * np.exp(-((t - 19) / 2.5) ** 2)
        d[5] = -2.0
        params = MarketParams(generators=[GeneratorParams(c=20.0)],
                              storages=[StorageParams(capacity_E=50.0, b=2.0)])
        bids = equilibrium_bids_dayahead(params)
        for clear in (clear_uniform, clear_general):
            res = clear(bids, d, params)
            assert res.g.sum(axis=0) + res.u.sum(axis=0) == pytest.approx(d, abs=1e-9)
            assert res.kkt_residual <= 1e-8
        assert res.g[0][5] >= -1e-9  # the general clearing keeps g_min = 0

    def test_small_capacity_approaches_generator_only(self):
        params_small = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6)],
            storages=[StorageParams(capacity_E=1e-3, b=1e3, u_min=-2.5e-4, u_max=2.5e-4)],
        )
        d = np.array([2.0, 4.0, 3.0, 1.0])
        res = clear_general(equilibrium_bids_dayahead(params_small), d, params_small)
        gen_only = d  # single generator covers everything as E -> 0
        assert np.max(np.abs(res.g[0] - gen_only)) < 1e-2


class TestVerifyKKT:
    def test_clearing_output_verifies(self):
        rng = np.random.default_rng(7)
        params = MarketParams(generators=[GeneratorParams(c=20.0)],
                              storages=[StorageParams(capacity_E=200.0, b=2.0)])
        bids = equilibrium_bids_dayahead(params)
        d = smooth_demand(rng)
        res = clear_uniform(bids, d, params)
        report = verify_kkt_dayahead(res, bids, d, params)
        assert report.max_residual <= 1e-8

    def test_perturbed_dispatch_detected(self):
        rng = np.random.default_rng(8)
        params = MarketParams(generators=[GeneratorParams(c=20.0)],
                              storages=[StorageParams(capacity_E=200.0, b=2.0)])
        bids = equilibrium_bids_dayahead(params)
        d = smooth_demand(rng)
        res = clear_uniform(bids, d, params)
        bad = copy.deepcopy(res)
        bad.u = bad.u + 0.1
        report = verify_kkt_dayahead(bad, bids, d, params)
        assert report.max_residual > 1e-8

    def test_planner_solution_with_equilibrium_bids_verifies(self):
        rng = np.random.default_rng(9)
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6)],
            storages=[StorageParams(capacity_E=5e3, b=3.0, u_min=-1e6, u_max=1e6)],
        )
        bids = equilibrium_bids_dayahead(params)
        d = smooth_demand(rng)
        pl = solve_planner(params, d, periodic=True)
        res = clear_uniform(bids, d, params)
        # package the planner dispatch in the clearing's terms and verify
        packaged = copy.deepcopy(res)
        packaged.g = pl.g
        packaged.u = pl.u
        packaged.energy_price = pl.price
        packaged.nu = [res.maps[0].map @ pl.u[0]]
        packaged.cycle_prices = [packaged.nu[0] / bids.beta[0]]
        report = verify_kkt_dayahead(packaged, bids, d, params)
        assert report.max_residual <= 1e-5


class TestAlignmentWithPlanner:
    def test_uniform_clearing_matches_periodic_planner(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            J = int(rng.integers(1, 4))
            params = MarketParams(
                generators=[GeneratorParams(c=float(rng.uniform(5, 50)),
                                            g_min=-1e7, g_max=1e7) for _ in range(J)],
                storages=[StorageParams(capacity_E=1e4, b=float(rng.uniform(0.5, 5.0)),
                                        u_min=-1e7, u_max=1e7)],
            )
            bids = equilibrium_bids_dayahead(params)
            d = smooth_demand(rng, T=int(rng.integers(4, 16)))
            uni = clear_uniform(bids, d, params)
            pl = solve_planner(params, d, periodic=True)
            scale = max(1.0, float(np.max(np.abs(pl.u))))
            assert np.max(np.abs(uni.u - pl.u)) / scale < 1e-5
            gscale = max(1.0, float(np.max(np.abs(pl.g))))
            assert np.max(np.abs(uni.g - pl.g)) / gscale < 1e-5
