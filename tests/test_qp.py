"""Tests for the active-set core and the shared dispatch solve."""

import numpy as np
import pytest

from cyclemarket.errors import InfeasibleError, SolverFailureError
from cyclemarket.qp import solve_qp, solve_market_qp


class TestActiveSetCore:
    def test_equality_and_nonnegativity(self):
        # min (x1-1)^2 + (x2-2)^2 s.t. x1 + x2 = 1, x >= 0 -> (0, 1)
        sol = solve_qp(
            2 * np.eye(2), np.array([-2.0, -4.0]),
            np.array([[1.0, 1.0]]), np.array([1.0]),
            -np.eye(2), np.zeros(2), x0=np.array([0.5, 0.5]),
        )
        assert sol.x == pytest.approx([0.0, 1.0], abs=1e-10)

    def test_box_clipping_with_duals(self):
        # min ||x - (3,3)||^2 s.t. x <= 1 -> (1,1), mu = 4
        sol = solve_qp(2 * np.eye(2), np.array([-6.0, -6.0]),
                       None, None, np.eye(2), np.ones(2), x0=np.zeros(2))
        assert sol.x == pytest.approx([1.0, 1.0])
        assert sol.ineq_duals == pytest.approx([4.0, 4.0])

    def test_stationarity_of_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            M = rng.normal(0, 1, (n, n))
            H = M @ M.T + np.eye(n)
            q = rng.normal(0, 1, n)
            G = np.vstack([np.eye(n), -np.eye(n)])
            h = np.concatenate([rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)])
            sol = solve_qp(H, q, None, None, G, h, x0=np.zeros(n))
            grad = H @ sol.x + q + G.T @ sol.ineq_duals
            assert np.max(np.abs(grad)) < 1e-8
            assert np.all(G @ sol.x <= h + 1e-9)
            assert np.all(sol.ineq_duals >= 0)
            # complementarity
            slack = h - G @ sol.x
            assert np.max(np.abs(sol.ineq_duals * slack)) < 1e-7


class TestMarketQP:
    def test_generator_only_price_is_marginal_cost(self):
        d = np.array([2.0, 4.0, 3.0])
        res = solve_market_qp(alphas=[0.05], a_lin=[0.0], betas=[], capacities=[], x0s=[],
                              demand=d, g_lo=0.0, g_hi=np.inf, u_lo=0.0, u_hi=0.0,
                              periodic=True)
        assert res.g[0] == pytest.approx(d)
        assert res.price == pytest.approx(d / 0.05)
        assert res.kkt_residual <= 1e-8

    def test_storage_shifts_energy_and_stays_periodic(self):
        d = np.array([1.0, 3.0, 1.0, 3.0])
        res = solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                              x0s=[0.5], demand=d, g_lo=-np.inf, g_hi=np.inf,
                              u_lo=-10.0, u_hi=10.0, periodic=True)
        assert abs(res.u[0].sum()) < 1e-9
        assert res.u[0][1] > 0 > res.u[0][0]  # discharge at the peaks
        assert res.kkt_residual <= 1e-8

    def test_infeasible_demand_names_interval(self):
        with pytest.raises(InfeasibleError) as err:
            solve_market_qp(alphas=[1.0], a_lin=[0.0], betas=[], capacities=[], x0s=[],
                            demand=np.array([1.0, 5.0]), g_lo=0.0, g_hi=2.0,
                            u_lo=0.0, u_hi=0.0, periodic=False)
        assert err.value.interval == 1

    def test_storage_absorbs_demand_below_generator_minimum(self):
        res = solve_market_qp(alphas=[1.0], a_lin=[0.0], betas=[1.0], capacities=[2.0],
                              x0s=[0.5], demand=np.array([10.0, 4.5, 10.0]), g_lo=5.0,
                              g_hi=np.inf, u_lo=-1.0, u_hi=1.0, periodic=False)
        assert np.all(res.g[0] >= 5.0 - 1e-9)
        assert res.u[0][1] == pytest.approx(-0.5, abs=1e-9)
        assert res.kkt_residual <= 1e-8

    def test_demand_below_generator_minimum_names_interval(self):
        with pytest.raises(InfeasibleError) as err:
            solve_market_qp(alphas=[1.0], a_lin=[0.0], betas=[1.0], capacities=[2.0],
                            x0s=[0.5], demand=np.array([10.0, 1.0, 10.0]), g_lo=5.0,
                            g_hi=np.inf, u_lo=-1.0, u_hi=1.0, periodic=False)
        assert err.value.interval == 1

    def test_round_budget_exhausted_raises_with_best_iterate(self):
        # from u = 0 the first round moves the map, so one round cannot certify
        with pytest.raises(SolverFailureError) as err:
            solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                            x0s=[0.5], demand=np.array([1.0, 3.0, 1.0, 3.0]),
                            g_lo=-np.inf, g_hi=np.inf, u_lo=-10.0, u_hi=10.0,
                            periodic=True, max_outer=1)
        g, u = err.value.best_iterate
        assert g.shape == u.shape == (1, 4)
        assert err.value.residual > 1e-8

    def test_soc_corridor_enforced(self):
        # long discharge pull: the corridor caps cumulative output at x0 * E
        d = np.array([2.0, 2.0, 2.0, 2.0])
        res = solve_market_qp(alphas=[1.0], a_lin=[0.0], betas=[10.0], capacities=[2.0],
                              x0s=[0.5], demand=d, g_lo=0.0, g_hi=np.inf,
                              u_lo=-1.0, u_hi=1.0, periodic=False, soc_bounds=True)
        soc = 0.5 - np.cumsum(res.u[0]) / 2.0
        assert np.all(soc >= -1e-9) and np.all(soc <= 1 + 1e-9)
        assert res.kkt_residual <= 1e-8

    def test_binding_cap_matches_grid_search(self):
        # single generator capped below the peak; storage must cover the rest
        from cyclemarket.rainflow import cycle_depths

        d = np.array([1.0, 5.0, 2.0])
        c, b, E = 1.0, 5.0, 1.0
        g_hi, u_rng = 4.0, 2.0
        res = solve_market_qp(alphas=[1.0 / c], a_lin=[0.0], betas=[1.0 / b],
                              capacities=[E], x0s=[0.5], demand=d,
                              g_lo=0.0, g_hi=g_hi, u_lo=-u_rng, u_hi=u_rng, periodic=True)
        assert res.g[0][1] == pytest.approx(g_hi, abs=1e-7)  # cap binds at the peak

        def cost(u):
            g = d - u
            if np.any(g < -1e-12) or np.any(g > g_hi + 1e-12):
                return np.inf
            nu = cycle_depths(u, E, 0.5)
            return 0.5 * c * float(g @ g) + 0.5 * b * float(nu @ nu)

        step = 0.01 * E
        grid = np.arange(-u_rng, u_rng + step / 2, step)
        best = np.inf
        for u1 in grid:
            for u2 in grid:
                u3 = -(u1 + u2)
                if abs(u3) > u_rng:
                    continue
                best = min(best, cost(np.array([u1, u2, u3])))
        solver_cost = cost(res.u[0])
        assert solver_cost <= best + 1e-9
        assert best - solver_cost <= 0.05  # within grid resolution

    def test_zero_demand_idle(self):
        res = solve_market_qp(alphas=[1.0], a_lin=[0.0], betas=[1.0], capacities=[2.0],
                              x0s=[0.5], demand=np.zeros(4), g_lo=-10.0, g_hi=10.0,
                              u_lo=-5.0, u_hi=5.0, periodic=True)
        assert np.max(np.abs(res.g)) < 1e-9
        assert np.max(np.abs(res.u)) < 1e-9
