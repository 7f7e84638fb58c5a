"""Tests for the active-set core and the shared dispatch solve."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclemarket import (
    DemandScenario,
    GeneratorParams,
    MarketParams,
    StorageParams,
    build_params,
    qp,
)
from cyclemarket.data import default_config
from cyclemarket.dayahead import clear_general, clear_uniform, equilibrium_bids_dayahead
from cyclemarket.errors import InfeasibleError, InvalidInputError, SolverFailureError
from cyclemarket.planner import solve_planner
from cyclemarket.qp import solve_qp, solve_market_qp
from cyclemarket.realtime import RealTimeBids, clear_constrained_aware


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

    def test_iteration_cap_raises_with_best_iterate(self, monkeypatch):
        # the first iteration steps to the box corner; certifying it needs a second
        monkeypatch.setattr(qp, "_MAX_ITER", 1)
        with pytest.raises(SolverFailureError) as err:
            solve_qp(2 * np.eye(2), np.array([-6.0, -6.0]),
                     None, None, np.eye(2), np.ones(2), x0=np.zeros(2))
        assert err.value.best_iterate == pytest.approx([1.0, 1.0])

    def test_singular_kkt_system_raises_with_start(self):
        # H is singular and nothing pins the flat direction
        x0 = np.array([1.0, 2.0])
        with pytest.raises(SolverFailureError) as err:
            solve_qp(np.diag([1.0, 0.0]), np.ones(2), x0=x0)
        assert err.value.best_iterate == pytest.approx(x0)

    def test_indefinite_hessian_raises_when_its_factor_is_built(self):
        # M = diag(1, -1) is not positive definite, so the Cholesky
        # factorization that builds T when the solve starts fails
        with pytest.raises(SolverFailureError, match="singular") as err:
            solve_qp(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), None, None,
                     np.array([[0.0, 1.0]]), np.array([0.5]), x0=np.zeros(2))
        assert err.value.best_iterate == pytest.approx([0.0, 0.0])

    def test_drop_freeing_a_flat_direction_raises_with_iterate(self):
        # x1 <= 0 pins the flat direction of H; its multiplier at (-1, 0) is
        # -1, and the direction its drop frees has no curvature to border T
        with pytest.raises(SolverFailureError, match="singular") as err:
            solve_qp(np.diag([1.0, 0.0]), np.array([1.0, 1.0]), None, None,
                     np.array([[0.0, 1.0]]), np.array([0.0]), x0=np.zeros(2))
        assert err.value.best_iterate == pytest.approx([-1.0, 0.0])

    def test_infeasible_start_equalities_raises_invalid_input(self):
        with pytest.raises(InvalidInputError, match="equalities"):
            solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
                     x0=np.zeros(2))

    def test_infeasible_start_inequalities_raises_invalid_input(self):
        with pytest.raises(InvalidInputError, match="inequalities"):
            solve_qp(np.eye(2), np.zeros(2), None, None, np.eye(2), np.ones(2),
                     x0=np.array([2.0, 0.0]))

    @pytest.mark.parametrize("name, value", [
        ("H", np.nan), ("q", np.nan), ("A", np.nan), ("b", np.nan), ("G", np.nan),
        ("h", np.nan), ("h", np.inf), ("x0", np.nan),
    ])
    def test_non_finite_data_raises_naming_its_argument(self, name, value):
        # H = I, q = (-1, -1), x1 = x2 and x <= (2, 1), with one entry of one
        # argument replaced; a NaN limit once dropped its row, an infinite one
        # read as active at the start, and the rest ran to the iteration cap
        args = dict(H=np.eye(2), q=np.array([-1.0, -1.0]), A=np.array([[1.0, -1.0]]),
                    b=np.zeros(1), G=np.eye(2), h=np.array([2.0, 1.0]), x0=np.zeros(2))
        args[name].flat[0] = value
        with pytest.raises(InvalidInputError, match=rf"finite {name}\b") as err:
            solve_qp(**args)
        assert name != "h" or "an absent limit is no row" in str(err.value)

    @pytest.mark.parametrize("offset, accepted", [(0.9e-7, True), (2e-7, False), (np.nan, False)])
    def test_solve_qp_and_start_from_share_one_start_rule(self, offset, accepted):
        # one generator and one storage unit, demand 2 at both intervals: the
        # unit stands ``offset`` past its upper limit 1 at interval 0, and the
        # generator takes up the balance exactly, so ``start_from`` places its
        # state at the very point that ``solve_qp`` gets as ``x0``
        prob = qp._Problem([1.0], [0.0], [1.0], [2.0], [0.5], [2.0, 2.0], 0.0, np.inf,
                           -1.0, 1.0, periodic=False, soc_bounds=False)
        u = np.array([[1.0 + offset, -1.0]])
        g = 2.0 - u
        x = np.concatenate([g.ravel(), u.ravel()])
        args = (np.eye(4), np.zeros(4), prob.A, prob.b, _problem_rows(prob), prob.h, x)
        state = prob.start_from(g, u)
        if accepted:
            assert np.array_equal(state.x, x)
            assert solve_qp(*args).x == pytest.approx(np.ones(4))
        else:
            assert state is None
            with pytest.raises(InvalidInputError):
                solve_qp(*args)

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

    def test_stationarity_of_random_instances_with_equalities(self):
        rng = np.random.default_rng(7)
        binding = 0
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, n))
            M = rng.normal(0, 1, (n, n))
            H = M @ M.T + np.eye(n)
            q = rng.normal(0, 5, n)
            A = rng.normal(0, 1, (m, n))
            x0 = rng.uniform(-0.5, 0.5, n)
            b = A @ x0
            G = np.vstack([np.eye(n), -np.eye(n)])
            h = np.ones(2 * n)
            sol = solve_qp(H, q, A, b, G, h, x0=x0)
            grad = H @ sol.x + q + A.T @ sol.eq_duals + G.T @ sol.ineq_duals
            assert np.max(np.abs(grad)) <= 1e-8
            assert np.max(np.abs(A @ sol.x - b)) <= 1e-9
            assert np.all(G @ sol.x <= h + 1e-9)
            assert np.all(sol.ineq_duals >= 0)
            assert np.max(np.abs(sol.ineq_duals * (h - G @ sol.x))) <= 1e-8
            binding += int(np.any(sol.ineq_duals > 0))
        assert binding >= 10  # the draws exercise the working set, not just the equalities

    # at x0 = 0 all three rows are active and row 2 = row 0 - row 1 parks;
    # dropping row 1 must bring row 2 back, or the step crosses it to (0, -3)
    PARKED = (np.eye(2), np.array([-1.0, 3.0]), None, None,
              np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), np.zeros(3), np.zeros(2))

    def test_parked_row_rejoins_after_drop(self):
        sol = solve_qp(*self.PARKED)
        assert sol.x == pytest.approx([-1.0, -1.0], abs=1e-12)
        assert sol.ineq_duals == pytest.approx([0.0, 0.0, 2.0], abs=1e-12)

    def test_freed_row_rejoins_through_the_ratio_test(self, monkeypatch):
        # the start joins rows 0 and 1 and parks row 2; the drop of row 1
        # tests no row, and the step toward (0, -3) meets row 2 at its limit,
        # so row 2 joins after a step of length zero, still at x0 = 0
        events = []
        rows = qp._WorkingRows
        join, drop, add, multipliers = rows._join, rows.drop, rows.add, rows.multipliers

        def spied_join(factored, i):
            events.append(("join", int(i)))
            return join(factored, i)

        def spied_drop(factored, j):
            events.append(("drop", int(factored.kept[j])))
            drop(factored, j)

        def spied_add(factored, i):
            events.append(("add", int(i)))
            add(factored, i)

        def spied_multipliers(factored, w):
            events.append(("stationary", factored.kept[:factored.k].tolist(), w.tolist()))
            return multipliers(factored, w)

        for name, spy in [("_join", spied_join), ("drop", spied_drop), ("add", spied_add),
                          ("multipliers", spied_multipliers)]:
            monkeypatch.setattr(rows, name, spy)
        sol = solve_qp(*self.PARKED)
        assert sol.x == pytest.approx([-1.0, -1.0], abs=1e-12)
        assert events[:8] == [("join", 0), ("join", 1), ("join", 2),
                              ("stationary", [0, 1], [0.0, 0.0]), ("drop", 1),
                              ("add", 2), ("join", 2), ("stationary", [0, 2], [0.0, 0.0])]

    def test_dependent_equality_rows_raise_with_start(self):
        x0 = np.array([0.5, 0.5])
        with pytest.raises(SolverFailureError, match="independent") as err:
            solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0], [2.0, 2.0]]),
                     np.array([1.0, 2.0]), x0=x0)
        assert err.value.best_iterate == pytest.approx(x0)

    def test_optimality_test_scales_with_the_multipliers(self):
        # an l2 phase-1 QP of a real-time window (``_l2_phase_one``): curvature
        # 1e-6 on the dispatch and 1e8 on the two balance slacks; next to multipliers of
        # 6e8 a multiplier of -2e-9 is rounding, not a row to drop, and a
        # solve that drops it can cycle to the iteration cap
        H = np.diag([1e-6] * 4 + [1e8] * 2)
        A = np.array([[1.0, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]])
        b = np.array([2.0, 10.0])
        E = np.eye(6)
        G = _with_negations(np.vstack([E[:4], E[2], E[2] + E[3]]))
        h = np.array([3.0, 0, 3, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        sol = solve_qp(H, np.zeros(6), A, b, G, h, x0=np.array([0.0, 0, 0, 0, 2, 10]))
        assert sol.iterations <= 20
        assert sol.x[[1, 3, 5]] == pytest.approx([3.0, 1.0, 6.0], abs=1e-9)
        assert abs(sol.x[4]) <= 1e-9
        assert np.max(np.abs(A @ sol.x - b)) <= 1e-9 and np.all(G @ sol.x <= h + 1e-9)
        mu = sol.ineq_duals
        scale = np.max(mu)
        assert np.all(mu >= 0) and scale == pytest.approx(6e8)
        grad = H @ sol.x + A.T @ sol.eq_duals + G.T @ mu
        assert np.max(np.abs(grad)) <= 1e-8 * scale
        assert np.max(np.abs(mu * (h - G @ sol.x))) <= 1e-8 * scale


def _with_negations(M):
    """Rows of ``M`` each followed by its negation (upper row, then lower row)."""
    return np.stack([M, -M], axis=1).reshape(2 * M.shape[0], M.shape[1])


def _dense_rows(J, S, T, soc_bounds, finite):
    """The template's inequality rows as one dense matrix, the reference for
    ``_structure``'s signed picks: per variable in x order its upper then
    its lower row where ``finite`` says so, then per storage unit and
    interval the SoC corridor's +cumsum(u) and -cumsum(u) rows."""
    n = (J + S) * T
    G = _with_negations(np.eye(n))[finite]
    if soc_bounds:
        prefix = np.hstack([np.zeros((S * T, J * T)),
                            np.kron(np.eye(S), np.tril(np.ones((T, T))))])
        G = np.vstack([G, _with_negations(prefix)])
    return G


def _problem_rows(prob):
    """``_dense_rows`` of a ``_Problem``, from its limits."""
    finite = np.isfinite(np.stack([np.vstack([prob.g_hi, prob.u_hi]).ravel(),
                                   np.vstack([prob.g_lo, prob.u_lo]).ravel()], axis=1).ravel())
    return _dense_rows(prob.J, prob.S, prob.T, prob.soc_bounds, finite)


def _template_qp(rng, T, P, corridor, duplicates, flat):
    """A dispatch-like QP over P participants and T intervals, with a feasible
    start: balance rows, a box row on each side of every variable, optional
    prefix-sum (SoC corridor) rows on the last participant and optional
    copies of a quarter of the rows.  About 30% of the limits pass through
    the start, so it sits on a degenerate face; ``flat`` makes the curvature
    small next to the linear cost, which drives the optimum toward a vertex."""
    n = P * T
    x0 = rng.uniform(-1.0, 1.0, n)
    A = np.tile(np.eye(T), P)

    def room(size):
        return rng.uniform(0.0, 2.0, size) * (rng.random(size) > 0.3)

    G, h = [np.eye(n), -np.eye(n)], [x0 + room(n), room(n) - x0]
    if corridor:
        prefix = np.hstack([np.zeros((T, n - T)), np.tril(np.ones((T, T)))])
        G += [prefix, -prefix]
        h += [prefix @ x0 + room(T), room(T) - prefix @ x0]
    G, h = np.vstack(G), np.concatenate(h)
    if duplicates:
        copies = rng.choice(G.shape[0], size=G.shape[0] // 4, replace=False)
        G, h = np.vstack([G, G[copies]]), np.concatenate([h, h[copies]])
    F = rng.normal(0.0, 1.0, (n, 2))
    H = (1e-3 if flat else 1.0) * (np.diag(rng.uniform(0.5, 2.0, n)) + 0.1 * F @ F.T)
    return H, rng.normal(0.0, 1.0, n), A, A @ x0, G, h, x0


def _l2_phase_one(prob):
    """The l2 phase-1 QP that once found a market's feasible start: the cold
    start's dispatch (storage at 0, which must meet every row of G) with a
    free slack on each equality row, curvature 1e-6 on the dispatch and 1e8
    on the slacks.  Its 1e14 curvature ratio makes the reduced Hessian
    ill-conditioned.  Returns ``solve_qp``'s arguments."""
    n, m, G = prob.n, prob.A.shape[0], _problem_rows(prob)
    x = np.concatenate([np.clip(0.0, prob.g_lo, prob.g_hi).ravel(), np.zeros(prob.S * prob.T)])
    assert np.all(G @ x <= prob.h)
    H = np.diag(np.concatenate([np.full(n, 1e-6), np.full(m, 1e8)]))
    A = np.hstack([prob.A, np.eye(m)])
    G = np.hstack([G, np.zeros((G.shape[0], m))])
    return H, np.zeros(n + m), A, prob.b, G, prob.h, np.concatenate([x, prob.b - prob.A @ x])


def _factor_error(rows):
    """How far ``T[k:, k:]`` is from an inverse factor of the complement's
    reduced Hessian M = Q[k:] Hz Q[k:]', in backward form, |T^-1 T^-T - M|,
    relative to max(1, |Hz|)."""
    k = rows.k
    U, T_inv = rows.Q[k:], np.linalg.inv(rows.T[k:, k:])
    return (np.max(np.abs(T_inv @ T_inv.T - U @ rows.Hz @ U.T), initial=0.0)
            / max(1.0, np.max(np.abs(rows.Hz), initial=0.0)))


def _parked(rows):
    """The rows in the working mask that the basis does not keep."""
    parked = rows.working.copy()
    parked[rows.kept[:rows.k]] = False
    return parked


class _Audit:
    """Checks the factorization of every ``solve_qp`` iteration while
    installed: ``Q`` is orthogonal, ``GZ[kept] = L Q[:k]`` and ``T``
    factors the complement's reduced Hessian (``_factor_error``).
    Counts parked rows, rows that a drop freed from the working mask and
    that later rejoin the basis through ``add``, rows tested while a drop
    runs, and stationary points at a vertex."""

    def __init__(self, monkeypatch):
        self.worst, self.parked, self.rejoined, self.vertex = 0.0, 0, 0, 0
        self.tested_in_drop, self.freed, dropping = 0, {}, [False]
        rows = qp._WorkingRows
        join, drop, add = rows._join, rows.drop, rows.add
        point, multipliers = rows.point, rows.multipliers

        def audited_join(factored, i):
            self.tested_in_drop += dropping[0]
            joined = join(factored, i)
            self.parked += not joined
            return joined

        def audited_drop(factored, j):
            parked = _parked(factored)
            dropping[0] = True
            drop(factored, j)
            dropping[0] = False
            freed = self.freed.setdefault(factored, set())
            freed.update(np.flatnonzero(parked & ~factored.working).tolist())

        def audited_add(factored, i):
            k = factored.k
            add(factored, i)
            if factored.k > k and i in self.freed.get(factored, ()):
                self.rejoined += 1
                self.freed[factored].discard(i)

        def audited_point(factored):
            self.check(factored)
            return point(factored)

        def audited_multipliers(factored, w):
            self.vertex += factored.k == factored.Q.shape[0]
            return multipliers(factored, w)

        monkeypatch.setattr(rows, "_join", audited_join)
        monkeypatch.setattr(rows, "drop", audited_drop)
        monkeypatch.setattr(rows, "add", audited_add)
        monkeypatch.setattr(rows, "point", audited_point)
        monkeypatch.setattr(rows, "multipliers", audited_multipliers)

    def check(self, factored):
        k, Q = factored.k, factored.Q
        errors = [np.max(np.abs(Q @ Q.T - np.eye(Q.shape[0])), initial=0.0),
                  np.max(np.abs(factored.GZ[factored.kept[:k]] - factored.L[:k, :k] @ Q[:k]),
                         initial=0.0),
                  _factor_error(factored)]
        self.worst = max(self.worst, *errors)


def _assert_certified(sol, H, q, A, b, G, h):
    grad = H @ sol.x + q + A.T @ sol.eq_duals + G.T @ sol.ineq_duals
    assert np.max(np.abs(grad)) <= 1e-8
    assert np.max(np.abs(A @ sol.x - b)) <= 1e-9
    assert np.all(G @ sol.x <= h + 1e-9)
    assert np.all(sol.ineq_duals >= 0)
    assert np.max(np.abs(sol.ineq_duals * (h - G @ sol.x))) <= 1e-8


class TestUpdatedFactorization:
    """The factorization that each add and drop updates stays exact on
    dispatch-like QPs of up to 60 variables."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 20), st.integers(2, 4), st.booleans(), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_random_template_qps_certify(self, T, P, corridor, duplicates, flat, seed):
        qp_data = _template_qp(np.random.default_rng(seed), T, min(P, max(2, 60 // T)),
                               corridor, duplicates, flat)
        with pytest.MonkeyPatch.context() as mp:
            audit = _Audit(mp)
            sol = solve_qp(*qp_data)
        _assert_certified(sol, *qp_data[:6])
        assert audit.worst <= 1e-10

    def test_draws_park_rejoin_and_reach_vertices(self, monkeypatch):
        audit = _Audit(monkeypatch)
        rng = np.random.default_rng(3)
        for draw in range(40):
            T = int(rng.integers(3, 21))
            qp_data = _template_qp(rng, T, min(int(rng.integers(2, 5)), max(2, 60 // T)),
                                   draw % 2 == 0, draw % 4 < 2, draw % 3 == 0)
            _assert_certified(solve_qp(*qp_data), *qp_data[:6])
        assert audit.worst <= 1e-10
        assert audit.parked >= 10 and audit.rejoined >= 10 and audit.vertex >= 10
        assert audit.tested_in_drop == 0


@st.composite
def ill_conditioned_solves(draw):
    """A solve whose reduced Hessians are ill-conditioned: a market of two to
    four storage units, some of equal capacity, whose depth-preserving swaps
    only the 1e-12 ridge pins; or the l2 phase-1 QP (``_l2_phase_one``) of a
    two-unit window whose capped generator breaks the cold start."""
    T = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        S = draw(st.integers(2, 4))
        demand = 60.0 + rng.uniform(5.0, 20.0) * np.sin(2 * np.pi * np.arange(T) / T
                                                         + rng.uniform(0, 2 * np.pi))
        return "market", dict(alphas=[0.05], a_lin=[0.0], betas=1.0 / rng.uniform(0.5, 4.0, S),
                              capacities=rng.choice([20.0, 50.0], S), x0s=rng.uniform(0.2, 0.8, S),
                              demand=demand, g_lo=0.0, g_hi=rng.uniform(55.0, 90.0),
                              u_lo=-rng.uniform(2.0, 10.0, S), u_hi=rng.uniform(2.0, 10.0, S),
                              periodic=draw(st.booleans()), soc_bounds=True)
    demand = 60.0 + rng.uniform(-3.0, 3.0, T)
    demand[0] = 60.0 + rng.uniform(0.2, 2.0)
    return "l2 phase 1", dict(alphas=[0.2], a_lin=[0.0], betas=[1.0, 1.0],
                           capacities=rng.uniform(1.5, 8.0, 2), x0s=rng.uniform(0.1, 0.5, 2),
                           demand=demand, g_lo=0.0, g_hi=60.0, u_lo=-1.0, u_hi=1.0,
                           periodic=False, soc_bounds=True)


class TestIllConditionedPoints:
    """The Newton step stays in the complement of the kept rows, so every
    point meets them, however ill-conditioned the reduced Hessian M is."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ill_conditioned_solves())
    def test_every_point_meets_the_kept_rows(self, drawn):
        kind, template = drawn
        worst = []
        point = qp._WorkingRows.point

        def audited(rows):
            w = point(rows)
            kept = rows.kept[:rows.k]
            want = rows.rhs[kept]
            scale = max(1.0, np.max(np.abs(want), initial=0.0), np.max(np.abs(w)))
            worst.append(np.max(np.abs(rows.GZ[kept] @ w - want), initial=0.0) / scale)
            return w

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qp._WorkingRows, "point", audited)
            try:
                if kind == "l2 phase 1":
                    solve_qp(*_l2_phase_one(qp._Problem(**template)))
                else:
                    solve_market_qp(**template)
            except (InfeasibleError, SolverFailureError):
                pass  # the points before the error are checked all the same
        assert worst and max(worst) <= 1e-12


def _kept_rows(A, G, working):
    A, G = np.asarray(A, float), np.asarray(G, float)
    Z = np.linalg.qr(A.T, mode="complete")[0][:, A.shape[0]:]
    rows = G.shape[0]
    factored = qp._WorkingRows(G @ Z, np.zeros(rows), 1e-9 * np.linalg.norm(G, axis=1))
    factored.carry(np.isin(np.arange(rows), working))
    return factored.kept[:factored.k].tolist()


def _one_generator_one_storage(soc_bounds):
    # x = (g0, g1, u0, u1); box rows per variable, upper then lower:
    # g0 0/1, g1 2/3, u0 4/5, u1 6/7; SoC corridor rows 8/9 (t=0), 10/11 (t=1)
    return qp._Problem([1.0], [0.0], [1.0], [2.0], [0.5], [1.0, 2.0], 0.0, 1.0, -1.0, 1.0,
                       periodic=False, soc_bounds=soc_bounds)


class TestWorkingRowDependence:
    """Which working rows join the KKT solve: in index order, each row must be
    independent of the equalities and of the rows kept before it."""

    def test_duplicated_row_keeps_first_copy(self):
        G = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        assert _kept_rows(np.zeros((0, 3)), G, [0, 1, 2]) == [0, 1]
        assert _kept_rows(np.zeros((0, 3)), G, [1, 2]) == [1, 2]

    def test_box_row_implied_by_balance_and_interval_boxes(self):
        prob = _one_generator_one_storage(soc_bounds=False)
        G = _problem_rows(prob)
        # g0 at its cap and u0 at its floor: the balance row fixes u0 from g0
        assert _kept_rows(prob.A, G, [0, 5]) == [0]
        assert _kept_rows(prob.A, G, [0, 2, 5, 7]) == [0, 2]
        assert _kept_rows(prob.A, G, [0, 7]) == [0, 7]

    def test_first_soc_corridor_row_duplicates_storage_box_row(self):
        prob = _one_generator_one_storage(soc_bounds=True)
        G = _problem_rows(prob)
        assert G[8] == pytest.approx(G[4])
        assert _kept_rows(prob.A, G, [4, 8]) == [4]
        assert _kept_rows(prob.A, G, [8, 10]) == [8, 10]

    def test_carried_rows_stop_at_the_first_that_left(self):
        # rows e0, e1, e2 and e0 + e1, which parks while e0 and e1 are kept
        G = np.vstack([np.eye(3), [[1.0, 1.0, 0.0]]])
        rows = qp._WorkingRows(G, np.arange(4.0), np.full(4, 1e-9))
        rows.carry(np.array([True, True, False, True]))
        assert rows.kept[:rows.k].tolist() == [0, 1]
        # e1 leaves: e0 stays, then e2 and e0 + e1 join in index order
        rows.carry(np.array([True, False, True, True]))
        assert rows.kept[:rows.k].tolist() == [0, 2, 3]
        rows.reduce(np.eye(3), np.zeros(3))
        assert max(_state_errors(rows)) <= 1e-15

    def test_row_whose_part_leads_with_zero_joins_with_a_positive_diagonal(self):
        # Q starts as the identity, so the part of e1 in the complement leads
        # with +0.0, which the reflection must sign as positive
        rows = qp._WorkingRows(np.eye(3), np.zeros(3), np.full(3, 1e-9))
        rows.carry(np.array([False, True, False]))
        assert rows.kept[:rows.k].tolist() == [1]
        assert rows.L[0, 0] > 0
        assert np.max(np.abs(rows.GZ[[1]] - rows.L[:1, :1] @ rows.Q[:1])) <= 1e-15

    def test_more_working_rows_than_variables(self):
        A = [[1.0, 1.0]]
        G = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]]
        assert _kept_rows(A, G, [0, 1, 2, 3]) == [0]
        assert _kept_rows(np.zeros((0, 2)), G, [0, 1, 2, 3]) == [0, 1]


@st.composite
def storage_limits(draw):
    """Storage boxes, SoC corridors and periodicity that admit a dispatch.

    A unit either holds 0 in every box, some lower limits up to 1e-7 above
    it, or gets boxes around a random dispatch, which may exclude 0 and is
    zero-sum where periodic; its corridor then holds that dispatch's prefix
    sums."""
    S, T = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    periodic, soc_bounds = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = np.empty((S, T)), np.empty((S, T))
    E, x0 = rng.uniform(0.5, 10.0, S), rng.uniform(0.0, 1.0, S)
    for s in range(S):
        if rng.random() < 0.4:
            near = rng.random(T) < 0.3
            lo[s] = np.where(near, rng.uniform(0.0, 1e-7, T), -rng.uniform(0.0, 2.0, T))
            hi[s] = rng.uniform(0.0, 2.0, T)
            continue
        u = rng.uniform(-2.0, 2.0, T)
        if periodic:
            u -= u.mean()
        lo[s] = u - rng.uniform(0.0, 1.0, T) * (rng.random(T) < 0.7)
        hi[s] = u + rng.uniform(0.0, 1.0, T) * (rng.random(T) < 0.7)
        level = np.concatenate([[0.0], np.cumsum(u)])
        span = level.max() - level.min()
        E[s] = span + rng.uniform(0.5, 3.0)
        x0[s] = (level.max() + rng.uniform(0.0, E[s] - span)) / E[s]
    return dict(alphas=[1.0], a_lin=[0.0], betas=np.ones(S), capacities=E, x0s=x0,
                demand=np.zeros(T), g_lo=-np.inf, g_hi=np.inf, u_lo=lo, u_hi=hi,
                periodic=periodic, soc_bounds=soc_bounds)


class TestStorageStart:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(storage_limits())
    def test_start_meets_each_units_limits(self, limits):
        u = qp._Problem(**limits).storage_start()
        lo, hi = limits["u_lo"], limits["u_hi"]
        assert np.all(u >= lo - 1e-7) and np.all(u <= hi + 1e-7)
        if limits["soc_bounds"]:
            level = np.cumsum(u, axis=1)
            E, x0 = limits["capacities"][:, None], limits["x0s"][:, None]
            assert np.all(level <= x0 * E + 1e-7) and np.all(level >= (x0 - 1.0) * E - 1e-7)
        if limits["periodic"]:
            assert np.all(np.abs(u.sum(axis=1)) <= 1e-7)
        # a unit whose boxes all hold 0 within the start tolerance starts at 0
        idle = np.all((lo <= 1e-7) & (hi >= -1e-7), axis=1)
        assert np.all(u[idle] == 0.0)


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

    @pytest.mark.parametrize("betas, demand", [([1.0], [0.0, 0.0, 0.0]),
                                               ([1.0, 2.0], [1.0, -1.0, 0.0])],
                             ids=["one-unit", "two-units"])
    def test_storage_only_periodic_market_certifies(self, betas, demand):
        # without generators the balance rows sum to the periodicity rows, so
        # the last unit's row is left out, with a dual of 0; the certificate
        # still checks every unit's net energy
        S = len(betas)
        res = solve_market_qp(alphas=[], a_lin=[], betas=betas, capacities=[2.0] * S,
                              x0s=[0.5] * S, demand=np.array(demand), g_lo=0.0, g_hi=1.0,
                              u_lo=-1.0, u_hi=1.0, periodic=True)
        assert res.kkt_residual <= 1e-8
        assert res.periodicity_duals.shape == (S,) and res.periodicity_duals[-1] == 0.0
        assert np.max(np.abs(res.u.sum(axis=1))) <= 1e-9
        assert res.u.sum(axis=0) == pytest.approx(demand, abs=1e-9)

    def test_storage_only_market_with_net_demand_names_the_intervals(self):
        # no periodic dispatch meets a demand that does not net to 0
        with pytest.raises(InfeasibleError, match="intervals 0, 2,"):
            solve_market_qp(alphas=[], a_lin=[], betas=[1.0, 2.0], capacities=[2.0, 2.0],
                            x0s=[0.5, 0.5], demand=np.array([1.0, -1.0, 0.5]), g_lo=0.0,
                            g_hi=1.0, u_lo=-1.0, u_hi=1.0, periodic=True)

    def test_infeasible_demand_names_interval(self):
        with pytest.raises(InfeasibleError) as err:
            solve_market_qp(alphas=[1.0], a_lin=[0.0], betas=[], capacities=[], x0s=[],
                            demand=np.array([1.0, 5.0]), g_lo=0.0, g_hi=2.0,
                            u_lo=0.0, u_hi=0.0, periodic=False)
        assert err.value.interval == 1

    def test_phase_one_shortfall_below_its_threshold_is_refused(self):
        # the cap is 5e-4 MW short of a 1000 MW demand at every interval:
        # phase 1's penalties stay under its 1e-3 MW threshold, and no
        # generator can take up what they leave
        with pytest.raises(InfeasibleError, match="within the start tolerance"):
            solve_market_qp(alphas=[1.0], a_lin=[0.0], betas=[1.0], capacities=[10.0],
                            x0s=[0.5], demand=np.full(4, 1000.0), g_lo=0.0,
                            g_hi=1000.0 - 5e-4, u_lo=-np.inf, u_hi=np.inf, periodic=True)

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

    def test_round_budget_exhausted_raises_with_best_iterate(self, monkeypatch):
        # from u = 0 the first round moves the map, so one round cannot certify
        monkeypatch.setattr(qp, "_MAX_ROUNDS", 1)
        with pytest.raises(SolverFailureError) as err:
            solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                            x0s=[0.5], demand=np.array([1.0, 3.0, 1.0, 3.0]),
                            g_lo=-np.inf, g_hi=np.inf, u_lo=-10.0, u_hi=10.0,
                            periodic=True)
        g, u = err.value.best_iterate
        assert g.shape == u.shape == (1, 4)
        assert err.value.residual > 1e-8

    def test_stable_assignment_with_stuck_residual_raises(self, monkeypatch):
        # a zero certificate cannot be met, so the stable-assignment exit fires,
        # not the round budget
        monkeypatch.setattr(qp, "_KKT_TOL", 0.0)
        calls = []
        inner = qp._ActiveSet.solve
        monkeypatch.setattr(qp._ActiveSet, "solve",
                            lambda *a, **k: calls.append(1) or inner(*a, **k))
        with pytest.raises(SolverFailureError) as err:
            solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                            x0s=[0.5], demand=np.array([1.0, 3.0, 1.0, 3.0]),
                            g_lo=-np.inf, g_hi=np.inf, u_lo=-10.0, u_hi=10.0,
                            periodic=True)
        assert len(calls) == 2
        g, u = err.value.best_iterate
        assert g.shape == u.shape == (1, 4)
        assert 0.0 < err.value.residual <= 1e-8

    def test_uncertified_kink_below_every_round_is_carried(self, monkeypatch):
        # four units, not periodic and with no corridor: the alternation
        # meets a map tuple again, and the kink bisection's point misses the
        # certificate, but its objective is below every round's, so the
        # failure carries it
        kinks = []
        inner = qp._kink_bisection
        monkeypatch.setattr(qp, "_kink_bisection", lambda *a: kinks.append(inner(*a)) or kinks[-1])
        demand = np.array([56.25, 66.36, 77.73, 108.56, 124.34, 142.43, 146.84, 146.15, 138.83,
                           120.23, 92.21, 73.37, 60.13, 48.03])
        with pytest.raises(SolverFailureError) as err:
            solve_market_qp(alphas=[1 / 35.58], a_lin=[0.0],
                            betas=1 / np.array([1.64, 1.86, 1.76, 5.12]),
                            capacities=[50.0, 150.0, 50.0, 20.0], x0s=[0.23, 0.48, 0.61, 0.57],
                            demand=demand, g_lo=0.0, g_hi=1000.0, u_lo=-40.0, u_hi=40.0,
                            periodic=False)
        (kink, _), = kinks
        g, u = err.value.best_iterate
        assert np.array_equal(g, kink.g) and np.array_equal(u, kink.u)
        assert err.value.residual == kink.kkt_residual > 1e-8

    def test_crossed_limits_name_first_interval(self):
        u_hi = np.full((1, 4), 1.0)
        u_lo = np.full((1, 4), -1.0)
        u_lo[0, 2] = u_hi[0, 2] + 1.0
        with pytest.raises(InfeasibleError) as err:
            solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                            x0s=[0.5], demand=np.array([1.0, 3.0, 1.0, 3.0]),
                            g_lo=-np.inf, g_hi=np.inf, u_lo=u_lo, u_hi=u_hi,
                            periodic=False)
        assert err.value.interval == 2

    @staticmethod
    def _clear(entry, params, demand):
        """One clearing entry point on ``params`` and ``demand``."""
        if entry == "clear_constrained_aware":
            T = np.size(demand)
            return clear_constrained_aware(RealTimeBids(alpha_r=[0.05], beta_r=[0.5]), demand,
                                           np.zeros((1, T)), np.zeros((1, T)), params)
        if entry == "solve_planner":
            return solve_planner(params, demand)
        clear = clear_general if entry == "clear_general" else clear_uniform
        return clear(equilibrium_bids_dayahead(params), demand, params)

    ENTRY_POINTS = ["clear_general", "clear_uniform", "solve_planner", "clear_constrained_aware"]
    DEMAND = 100.0 + 10.0 * np.sin(2 * np.pi * np.arange(24) / 24)

    @staticmethod
    def _market():
        return MarketParams(generators=[GeneratorParams(c=20.0)],
                            storages=[StorageParams(capacity_E=50.0)])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("demand", [
        np.r_[DEMAND[:-1], np.nan], np.r_[np.inf, DEMAND[1:]], DEMAND.reshape(2, 12), np.zeros(0),
    ], ids=["nan", "inf", "2-d", "empty"])
    def test_demand_not_a_finite_vector_raises_invalid_input(self, entry, demand):
        with pytest.raises(InvalidInputError, match="vector of at least one interval"):
            self._clear(entry, self._market(), demand)

    @pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if e != "clear_uniform"])
    @pytest.mark.parametrize("limit", ["u_limits", "g_min"])
    def test_nan_limit_raises_invalid_input(self, entry, limit):
        # the template read a NaN limit as no limit at all: a NaN storage
        # limit let a 50 MWh unit rated 12.5 MW dispatch 199.9 MW.  The
        # limits are set past the parameter checks, which reject NaN too
        params = self._market()
        if limit == "u_limits":
            params.storages[0].u_min = params.storages[0].u_max = np.nan
        else:
            params.generators[0].g_min = np.nan
        with pytest.raises(InvalidInputError, match="NaN"):
            self._clear(entry, params, self.DEMAND)

    def test_storage_box_excluding_zero_starts_inside_it(self):
        d = np.array([1.0, 3.0, 1.0, 3.0])
        res = solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                              x0s=[0.5], demand=d, g_lo=-np.inf, g_hi=np.inf,
                              u_lo=0.5, u_hi=1.0, periodic=False)
        assert res.u[0] == pytest.approx([31 / 33, 1.0, 31 / 33, 1.0], abs=1e-9)
        assert res.g[0] + res.u[0] == pytest.approx(d)
        assert res.kkt_residual <= 1e-8

    def test_periodic_start_shifted_to_zero_sum_inside_box(self):
        # 0 lies outside the box at interval 0 only; u = [0.5, -0.5, 0, 0] is periodic
        d = np.array([1.0, 3.0, 1.0, 3.0])
        u_lo = np.array([[0.5, -1.0, -1.0, -1.0]])
        res = solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                              x0s=[0.5], demand=d, g_lo=-np.inf, g_hi=np.inf,
                              u_lo=u_lo, u_hi=1.0, periodic=True)
        assert abs(res.u[0].sum()) < 1e-9
        assert np.all(res.u[0] >= u_lo[0] - 1e-9) and np.all(res.u[0] <= 1.0 + 1e-9)
        assert res.kkt_residual <= 1e-8

    def test_periodic_start_already_summing_to_zero_untouched(self):
        u_lo = np.array([[0.5, -1.0, -1.0, -1.0]])
        u_hi = np.array([[1.0, -0.5, 1.0, 1.0]])
        prob = qp._Problem([0.5], [0.0], [2.0], [4.0], [0.5], np.array([1.0, 3.0, 1.0, 3.0]),
                           -np.inf, np.inf, u_lo, u_hi, periodic=True, soc_bounds=False)
        assert prob.storage_start().tolist() == [[0.5, -0.5, 0.0, 0.0]]

    @pytest.mark.parametrize("u_lo, u_hi", [([[0.5, 0.5, -0.5, -0.4]], 1.0),
                                            (-1.0, [[-0.5, -0.5, 0.5, 0.4]])])
    def test_periodic_box_without_zero_sum_infeasible(self, u_lo, u_hi):
        with pytest.raises(InfeasibleError, match="no periodic dispatch"):
            solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                            x0s=[0.5], demand=np.array([1.0, 3.0, 1.0, 3.0]),
                            g_lo=-np.inf, g_hi=np.inf, u_lo=u_lo, u_hi=u_hi, periodic=True)

    @pytest.mark.parametrize("alphas, betas, message", [
        ([0.0], [2.0], "positive generator slopes"),
        ([0.5], [0.0], "positive storage slopes"),
        ([0.5], [-1.0], "positive storage slopes"),
    ], ids=["zero-alpha", "zero-beta", "negative-beta"])
    def test_nonpositive_slope_raises_invalid_input(self, alphas, betas, message):
        # the Hessian divides by each slope: these once warned, then failed
        # in the active-set core or the alternation
        with pytest.raises(InvalidInputError, match=message):
            solve_market_qp(alphas=alphas, a_lin=[0.0], betas=betas, capacities=[4.0],
                            x0s=[0.5], demand=np.array([1.0, 3.0, 1.0, 3.0]),
                            g_lo=-np.inf, g_hi=np.inf, u_lo=-10.0, u_hi=10.0)

    def test_bound_of_wrong_shape_raises_invalid_input(self):
        with pytest.raises(InvalidInputError, match="bound must be"):
            solve_market_qp(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0],
                            x0s=[0.5], demand=np.array([1.0, 3.0, 1.0, 3.0]),
                            g_lo=[0.0, 0.0], g_hi=np.inf, u_lo=-10.0, u_hi=10.0)

    @pytest.mark.parametrize("u_lo, periodic, interval", [
        ([[0.5, -1.0, -1.0, -1.0]], True, 0),
        ([[-1.0, -1.0, 0.7, -1.0]], False, 2),
    ])
    def test_corridor_without_dispatch_names_interval(self, u_lo, periodic, interval):
        # the corridor keeps cumsum(u) within +-0.3 MWh; a discharge floor of
        # 0.5 at interval 0, or of 0.7 after at most 0.3 charged, breaks it there
        with pytest.raises(InfeasibleError) as err:
            solve_market_qp([0.05], [0.0], [1.0], [0.6], [0.5], [1.0, 3.0, 1.0, 3.0],
                            0.0, np.inf, u_lo, 1.0, periodic=periodic, soc_bounds=True)
        assert err.value.interval == interval

    def test_start_outside_corridor_finds_feasible_dispatch(self):
        # storage starts at [0, 0.4, 0, 0], discharging more than the corridor's
        # 0.3 MWh from interval 1 on; charging 0.3 at interval 0 makes room
        res = solve_market_qp([0.05], [0.0], [1.0], [0.6], [0.5], [1.0, 3.0, 1.0, 3.0],
                              0.0, np.inf, [[-1.0, 0.4, -1.0, -1.0]], 1.0,
                              periodic=False, soc_bounds=True)
        soc = 0.5 - np.cumsum(res.u[0]) / 0.6
        assert np.all(soc >= -1e-9) and np.all(soc <= 1 + 1e-9)
        assert res.u[0][1] >= 0.4 - 1e-9
        assert res.kkt_residual <= 1e-8

    def test_elastic_start_of_two_unit_window(self):
        # the generator's 60 MW cap binds at interval 0, so storage must
        # discharge there and the cold start is not feasible; on this demand,
        # within 1.4e-6 MW of [61, 60, 60, 60], the l2 phase 1 cycled to the
        # iteration cap
        demand = [61.000000640824425, 59.99999915875877, 59.9999988036579, 60.00000131227435]
        res = solve_market_qp([0.2], [0.0], [1.0, 1.0], [5.0, 2.5], [0.25, 0.25],
                              demand, 0.0, 60.0, -1.0, 1.0, periodic=False, soc_bounds=True)
        assert res.kkt_residual <= 1e-8

    @pytest.mark.parametrize("demand, capacities, x0s", [
        ([61.0, 60.0, 60.0, 60.0], [5.0, 2.5], [0.25, 0.25]),
        ([61.5, 60.0, 60.0, 60.0], [5.0, 2.5], [0.5, 0.5]),
        ([61.714675805126625, 59.39758103535018, 60.15466980047742, 57.58509089781212,
          57.51213697035891], [6.873638531032299, 3.991380859966072],
         [0.38263387288515105, 0.30717324397426615]),
        ([60.999999958652644, 60.0000008410384, 59.999999034717156, 60.000000818884665],
         [5.0, 2.5], [0.25, 0.25]),
    ])
    def test_elastic_start_of_two_unit_windows_certifies(self, demand, capacities, x0s):
        # two-unit windows whose l2 phase 1 cycled to the iteration cap: the
        # first two until a step that moves toward the row just dropped was
        # taken again from M, the last two even with that repair
        res = solve_market_qp([0.2], [0.0], [1.0, 1.0], capacities, x0s, demand, 0.0, 60.0,
                              -1.0, 1.0, periodic=False, soc_bounds=True)
        assert res.kkt_residual <= 1e-8

    def test_step_toward_the_dropped_row_is_taken_again_from_M(self, monkeypatch):
        # in this window's l2 phase-1 QP a step after a drop moves toward the
        # dropped row's limit; the solve refactors T from M (a second
        # ``reduce`` with the same Hz) and takes the point again
        again = []
        reduce = qp._WorkingRows.reduce

        def counted(rows, Hz, grad):
            again.append(Hz is getattr(rows, "Hz", None))
            reduce(rows, Hz, grad)

        monkeypatch.setattr(qp._WorkingRows, "reduce", counted)
        H, q, A, b, G, h, x0 = _l2_phase_one(qp._Problem(
            [0.2], [0.0], [1.0, 1.0], [6.5, 3.6], [0.47, 0.29], [61.8, 59.1, 60.1],
            0.0, 60.0, -1.0, 1.0, periodic=False, soc_bounds=True))
        sol = solve_qp(H, q, A, b, G, h, x0)
        assert any(again)
        # the solve ends on a feasible dispatch: its balance slacks are 0
        assert np.max(np.abs(A @ sol.x - b)) <= 1e-9 and np.all(G @ sol.x <= h + 1e-9)
        assert np.max(np.abs(sol.x[-3:])) <= 1e-9 and np.all(sol.ineq_duals >= 0)

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


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


def _flat(res):
    return np.concatenate([res.g.ravel(), res.u.ravel()])


@st.composite
def seeded_windows(draw):
    """A real-time-like window (no periodicity, SoC corridor on) and a random
    feasible point of it: demand is the point's balance.  Half the draws
    shrink capacity and rate limits so that the limits and the corridor bind."""
    J, S, W = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(3, 8))
    tight = draw(st.booleans())

    def floats(shape, lo, hi):
        return draw(arrays(float, shape, elements=st.floats(lo, hi)))

    c, cap = floats(J, 5.0, 40.0), floats(J, 60.0, 120.0)
    b, x0 = floats(S, 0.5, 4.0), floats(S, 0.1, 0.9)
    E = floats(S, 2.0, 10.0) if tight else floats(S, 20.0, 100.0)
    r = floats(S, 0.5, 2.0) if tight else floats(S, 5.0, 20.0)
    # storage within its rate limits, scaled toward 0 until it fits the corridor
    u = floats((S, W), -1.0, 1.0) * r[:, None]
    level = np.cumsum(u, axis=1)
    room = np.where(level > 0, x0[:, None], 1.0 - x0[:, None]) * E[:, None]
    u *= min(1.0, float(np.min(room / np.maximum(np.abs(level), 1e-300))))
    g = floats((J, W), 0.3, 1.0) * cap[:, None]
    window = dict(alphas=1.0 / c, a_lin=np.zeros(J), betas=1.0 / b, capacities=E, x0s=x0,
                  demand=g.sum(axis=0) + u.sum(axis=0), g_lo=0.0, g_hi=cap, u_lo=-r, u_hi=r,
                  periodic=False, soc_bounds=True)
    return window, (g, u)


class TestSeededStart:
    # the [1, 3, 1, 3] instance as a real-time window: no periodicity, corridor on
    WINDOW = dict(alphas=[0.5], a_lin=[0.0], betas=[2.0], capacities=[4.0], x0s=[0.5],
                  demand=np.array([1.0, 3.0, 1.0, 3.0]), g_lo=0.0, g_hi=10.0,
                  u_lo=-1.0, u_hi=1.0, periodic=False, soc_bounds=True)

    @pytest.mark.parametrize("start", [
        ([[1.0, 3.0, 1.0, 2.0]], [[0.0, 0.0, 0.0, 0.0]]),   # misses the balance: repaired
        ([[0.0, 1.5, 1.0, 3.0]], [[1.0, 1.5, 0.0, 0.0]]),   # breaks the rate limit
        ([[0.0, 2.0, 0.0, 2.0]], [[1.0, 1.0, 1.0, 1.0]]),   # leaves the SoC corridor
        ([[np.nan] * 4], [[np.nan] * 4]),
    ])
    def test_start_breaking_a_constraint_gives_cold_answer(self, start):
        # the repaired balance seed is the cold start itself, so it gives the
        # cold answer bit for bit like the seeds that are ignored
        cold = solve_market_qp(**self.WINDOW)
        res = solve_market_qp(**self.WINDOW, start=start)
        assert np.array_equal(_flat(res), _flat(cold))
        assert np.array_equal(res.price, cold.price)
        assert res.iterations == cold.iterations

    def test_start_of_wrong_size_raises_invalid_input(self):
        for start in (np.zeros(8), (np.zeros((1, 4)), np.zeros((1, 3))),
                      (np.zeros(4), np.zeros(4))):
            with pytest.raises(InvalidInputError, match="pair of shapes"):
                solve_market_qp(**self.WINDOW, start=start)

    def test_start_at_optimum_certifies_without_moving(self):
        cold = solve_market_qp(**self.WINDOW)
        res = solve_market_qp(**self.WINDOW, start=(cold.g, cold.u))
        assert res.iterations == 0
        assert _close(_flat(res), _flat(cold))

    def test_seeded_solve_of_two_equal_units_certifies(self):
        # two storage units of equal slope, each seeded with an even share of
        # what the capped generator leaves; whether the seed's own alternation
        # certifies or the cold retry does rests on rounding, the answer not
        window = dict(alphas=[0.2], a_lin=[0.0], betas=[1.0, 1.0], capacities=[20.0, 20.0],
                      x0s=[0.5, 0.1], demand=np.full(3, 60.0 + 4.0 / 3.0), g_lo=0.0,
                      g_hi=60.0, u_lo=-5.0, u_hi=5.0, periodic=False, soc_bounds=True)
        start = (np.full((1, 3), 60.0), np.full((2, 3), 2.0 / 3.0))
        res = solve_market_qp(**window, start=start)
        assert res.kkt_residual <= 1e-8

    def test_failed_seeded_solve_runs_again_cold(self, monkeypatch):
        cold = solve_market_qp(**self.WINDOW)
        calls = []
        inner = qp._alternate

        def alternate(prob, state):
            calls.append(state.x.copy())
            if len(calls) == 1:
                raise SolverFailureError("seeded alternation stalls")
            return inner(prob, state)

        monkeypatch.setattr(qp, "_alternate", alternate)
        res = solve_market_qp(**self.WINDOW, start=(cold.g, cold.u))
        prob = qp._Problem(**self.WINDOW)
        assert len(calls) == 2
        assert np.array_equal(calls[0], prob.start_from(cold.g, cold.u).x)
        assert np.array_equal(calls[1], prob.cold_start().x)
        assert np.array_equal(_flat(res), _flat(cold))
        assert np.array_equal(res.price, cold.price)
        assert res.iterations == cold.iterations

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seeded_windows())
    def test_random_feasible_start_reaches_cold_optimum(self, drawn):
        """A seed changes where the solve starts, not what it certifies.

        Every draw must give a certified (KKT <= 1e-8), feasible answer with
        and without its seed.  The answers themselves are compared for one
        storage unit only, and only where both solves end on the same maps
        off a kink: the whole-interval cycle cost is convex only on
        dispatch-like profiles, so at a two-map kink, or on other maps, both
        points are certified but can differ by far more than 1e-9.  Two
        units of equal slope share flat directions that only a 1e-12 ridge
        pins, so even their prices can differ by more than 1e-9.
        """
        window, start = drawn
        try:
            cold = solve_market_qp(**window)
        except SolverFailureError:
            return  # no certified answer to reach; a seeded solve may still find one
        seeded = solve_market_qp(**window, start=start)
        for res in (cold, seeded):
            assert res.kkt_residual <= 1e-8
            soc = window["x0s"][:, None] - np.cumsum(res.u, axis=1) / window["capacities"][:, None]
            assert _close(res.g.sum(axis=0) + res.u.sum(axis=0), window["demand"])
            assert np.all(res.g >= -1e-9) and np.all(res.g <= window["g_hi"][:, None] + 1e-9)
            assert np.all(np.abs(res.u) <= window["u_hi"][:, None] + 1e-9)
            assert np.all(soc >= -1e-9) and np.all(soc <= 1.0 + 1e-9)
        if len(window["betas"]) > 1 or len(cold.stationarity_pieces[0]) > 1:
            return
        again = solve_market_qp(**window, start=(cold.g, cold.u))
        assert _close(_flat(again), _flat(cold)) and _close(again.price, cold.price)
        if (len(seeded.stationarity_pieces[0]) == 1
                and seeded.maps[0].signature() == cold.maps[0].signature()):
            assert _close(_flat(seeded), _flat(cold)) and _close(seeded.price, cold.price)


class TestStructureCache:
    """Problems of one constraint structure share read-only A and G with one
    null-space view; the cache changes no result and stays bounded."""

    # a real-time window (corridor on) and a periodic day-ahead template
    TEMPLATES = [
        TestSeededStart.WINDOW,
        dict(alphas=[0.05, 0.1], a_lin=[0.0, 5.0], betas=[1.0], capacities=[2.0], x0s=[0.5],
             demand=np.array([1.0, 3.0, 1.0, 3.0, 2.0, 4.0]), g_lo=0.0, g_hi=[np.inf, 2.0],
             u_lo=-1.0, u_hi=1.0, periodic=True, soc_bounds=True),
    ]

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_cleared_warm_and_per_call_views_agree(self, template, monkeypatch):
        qp._structure.cache_clear()
        views = []
        inner = qp._ActiveSet.__init__

        def recorded(state, view, b, h, x):
            views.append(view)
            inner(state, view, b, h, x)

        monkeypatch.setattr(qp._ActiveSet, "__init__", recorded)
        cleared = solve_market_qp(**template)
        warm = solve_market_qp(**template)
        # a market solve's state runs on its problem's structure
        assert views and all(view is qp._Problem(**template).structure for view in views)
        # a view reduced per call from writeable copies of A and the signed picks
        monkeypatch.setattr(qp._ActiveSet, "__init__", lambda state, view, b, h, x: inner(
            state, qp._NullSpace(np.array(view.A), pick=np.array(view.pick),
                                 sign=np.array(view.sign), prefix=view.prefix), b, h, x))
        per_call = solve_market_qp(**template)
        for res in (warm, per_call):
            for name in ("g", "u", "price", "iterations", "kkt_residual"):
                assert np.array_equal(getattr(res, name), getattr(cleared, name))

    def test_equal_structures_share_read_only_matrices(self):
        first = qp._Problem(**TestSeededStart.WINDOW)
        window = dict(TestSeededStart.WINDOW, demand=np.array([2.0, 1.0, 2.0, 1.0]), g_hi=8.0)
        second = qp._Problem(**window)
        assert second.structure is first.structure
        assert second.A is first.A and second.structure.pick is first.structure.pick
        for matrix in (first.A, second.structure.GZ):
            with pytest.raises(ValueError):
                matrix[0, 0] = 2.0

    def test_evicted_structures_are_freed(self):
        views = [weakref.ref(qp._Problem([1.0], [0.0], [1.0], [2.0], [0.5], np.ones(T), 0.0,
                                         np.inf, -1.0, 1.0, periodic=False,
                                         soc_bounds=True).structure)
                 for T in range(2, qp._STRUCTURES + 5)]
        gc.collect()
        alive = [ref() is not None for ref in views]
        assert alive == [False] * 3 + [True] * qp._STRUCTURES

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2), st.integers(0, 3), st.integers(1, 30), st.booleans(), st.booleans(),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_structured_product_matches_dense_rows(self, J, S, T, periodic, soc_bounds,
                                                    infinite, seed):
        rng = np.random.default_rng(seed)
        n = (J + S) * T
        finite = rng.random(2 * n) >= infinite
        view = qp._structure(J, S, T, periodic, soc_bounds, finite.tobytes())
        G = _dense_rows(J, S, T, soc_bounds, finite)
        assert view.pick.shape == view.sign.shape == (G.shape[0],)
        p = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n)
        got = view.product(p)
        assert got.shape == (G.shape[0],)
        assert np.max(np.abs(got - G @ p), initial=0.0) <= 1e-13 * max(1.0, np.abs(p).sum())
        mu = rng.exponential(10.0 ** rng.uniform(-3, 3), G.shape[0])
        rows = np.flatnonzero(rng.random(G.shape[0]) < rng.random())
        for picked, want in ((view.transpose_product(mu), G.T @ mu),
                             (view.transpose_product(mu[rows], rows), G[rows].T @ mu[rows])):
            assert picked.shape == (n,)
            assert np.max(np.abs(picked - want), initial=0.0) <= 1e-13 * max(1.0, mu.sum())
        if view.independent:
            # each row's null-space part, from a gather or a cumulative sum of
            # at most T entries of Z, and its parking threshold 1e-9 ||G_i||
            assert view.GZ.shape == (G.shape[0], view.Z.shape[1])
            assert np.max(np.abs(view.GZ - G @ view.Z), initial=0.0) <= 1e-13 * T
            assert np.array_equal(view.thresholds, 1e-9 * np.linalg.norm(G, axis=1))
        for arr in (view.pick, view.sign):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("template", TEMPLATES + [dict(
        TEMPLATES[1], demand=100.0 + 40.0 * np.sin(np.arange(168) / 4.0))])
    def test_views_hold_no_matrix_of_the_rows(self, template):
        # neither the rows x n matrix of G nor an n x n factor: the rows are
        # signed picks, and Z is copied out of the complete QR
        prob = qp._Problem(**template)
        view, n, rows = prob.structure, prob.n, prob.h.size
        assert view.G is None
        for name, arr in vars(view).items():
            if isinstance(arr, np.ndarray):
                held = arr if arr.base is None else arr.base  # what a view keeps alive
                assert held.size not in (rows * n, n * n), name

    def test_caller_mutating_its_own_constraints_is_honoured(self):
        # min 0.5 ||x - (2, 2)||^2 under one row of G, then under another
        G, h = np.array([[1.0, 0.0]]), np.array([1.0])
        first = solve_qp(np.eye(2), np.array([-2.0, -2.0]), None, None, G, h, np.zeros(2))
        G[0] = [0.0, 1.0]
        second = solve_qp(np.eye(2), np.array([-2.0, -2.0]), None, None, G, h, np.zeros(2))
        assert first.x == pytest.approx([1.0, 2.0])
        assert second.x == pytest.approx([2.0, 1.0])


def _state_errors(rows):
    """Relative errors of a ``_WorkingRows``' invariants: ``GZ[kept] = L Q[:k]``,
    ``Q`` orthogonal, ``L y = rhs[kept]`` and ``T[k:, k:]`` factoring
    ``Q[k:] Hz Q[k:]'``."""
    k, Q = rows.k, rows.Q
    kept, L = rows.kept[:k], rows.L[:k, :k]

    def rel(got, want):
        scale = max(1.0, np.max(np.abs(want), initial=0.0))
        return np.max(np.abs(got - want), initial=0.0) / scale

    return [rel(L @ Q[:k], rows.GZ[kept]), rel(Q @ Q.T, np.eye(Q.shape[0])),
            rel(L @ rows.y[:k], rows.rhs[kept]), _factor_error(rows)]


def _two_wave_demand(T, a, p, b, q):
    """60 MW plus a sine of amplitude a and period p hours and a cosine of
    amplitude b and period q hours, over T hours, rounded to the kW."""
    t = np.arange(T)
    return np.round(60 + a * np.sin(2 * np.pi * t / p) + b * np.cos(2 * np.pi * t / q), 3)


class TestCarriedState:
    """Every round of a market solve starts from the active-set state the
    last round ended in; each kink probe from a copy of one start."""

    # a real-time window and a periodic day-ahead market: capped generators,
    # binding rate limits and the SoC corridor; 3 and 6 rounds from a cold start
    TEMPLATES = [
        dict(alphas=[0.05, 0.1], a_lin=[0.0, 5.0], betas=[0.5], capacities=[60.0], x0s=[0.5],
             demand=_two_wave_demand(24, 15.0, 6, 16.0, 5), g_lo=0.0, g_hi=[45.0, 60.0],
             u_lo=-5.0, u_hi=5.0, periodic=False, soc_bounds=True),
        dict(alphas=[0.05, 0.1], a_lin=[0.0, 5.0], betas=[0.5], capacities=[40.0], x0s=[0.5],
             demand=_two_wave_demand(48, 21.0, 4, 12.0, 6), g_lo=0.0, g_hi=[55.0, np.inf],
             u_lo=-8.0, u_hi=8.0, periodic=True, soc_bounds=True),
    ]
    # two storage units whose alternation cycles between two maps; the
    # probes add and drop rows on their way from the cycling point
    KINK = dict(alphas=[0.28], a_lin=[0.0], betas=[2.9, 1.4], capacities=[2.0, 4.0],
                x0s=[0.5, 0.5], demand=np.array([2.0, 1.5, 3.9, 2.5, 4.4]), g_lo=0.0,
                g_hi=np.inf, u_lo=-1.0, u_hi=1.0, periodic=False, soc_bounds=True)

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_state_meets_its_invariants_every_round(self, template, monkeypatch):
        worst, rounds = [], []
        reduce, solve = qp._WorkingRows.reduce, qp._ActiveSet.solve

        def audited_reduce(rows, Hz, grad):
            reduce(rows, Hz, grad)
            worst.append(max(_state_errors(rows)))

        def audited_solve(state, H, q):
            sol = solve(state, H, q)
            rounds.append(state.rows.k)
            worst.append(max(_state_errors(state.rows)))
            return sol

        monkeypatch.setattr(qp._WorkingRows, "reduce", audited_reduce)
        monkeypatch.setattr(qp._ActiveSet, "solve", audited_solve)
        assert solve_market_qp(**template).kkt_residual <= 1e-8
        assert len(rounds) >= 3 and min(rounds) > 0
        assert max(worst) <= 1e-12

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_later_rounds_never_join_a_carried_row(self, template, monkeypatch):
        joined, carried = [], []
        carry, join = qp._WorkingRows.carry, qp._WorkingRows._join

        def counted_carry(rows, working):
            carried.append(set(rows.kept[:rows.k].tolist()))
            joined.append([])
            carry(rows, working)
            carried[-1] = (carried[-1], set(rows.kept[:rows.k].tolist()))

        def counted_join(rows, i):
            if joined:
                joined[-1].append(int(i))
            return join(rows, i)

        monkeypatch.setattr(qp._WorkingRows, "carry", counted_carry)
        monkeypatch.setattr(qp._WorkingRows, "_join", counted_join)
        solve_market_qp(**template)
        assert len(carried) >= 3
        # the first round factors its rows from nothing; every later round
        # keeps the rows the last one kept and joins none of them again
        assert carried[0][0] == set() and len(joined[0]) >= len(carried[0][1]) > 0
        for (before, after), rows in zip(carried[1:], joined[1:]):
            assert before and before <= after
            assert not before.intersection(rows)

    def test_parked_rows_are_tested_again_only_after_a_cut(self, monkeypatch):
        # the window parks one row from its second round on
        joined, parked, carried = [], [], []
        carry, join = qp._WorkingRows.carry, qp._WorkingRows._join

        def counted_carry(rows, active):
            parked.append(set(np.flatnonzero(_parked(rows) & active).tolist()))
            joined.append([])
            carried.append(rows)
            carry(rows, active)

        def counted_join(rows, i):
            if joined:
                joined[-1].append(int(i))
            return join(rows, i)

        monkeypatch.setattr(qp._WorkingRows, "carry", counted_carry)
        monkeypatch.setattr(qp._WorkingRows, "_join", counted_join)
        assert solve_market_qp(**self.TEMPLATES[0]).kkt_residual <= 1e-8
        # no round tests again a row that parked in the round before it
        assert len(parked) >= 3 and all(parked[2:])
        for before, rows in zip(parked, joined):
            assert not before.intersection(rows)
        # once the first kept row leaves, every parked row is tested again
        rows = carried[-1]
        before = set(np.flatnonzero(_parked(rows)).tolist())
        active = _parked(rows)
        active[rows.kept[1:rows.k]] = True
        rows.carry(active)
        assert before and before <= set(joined[-1])
        rows.reduce(rows.Hz, rows.grad)
        assert max(_state_errors(rows)) <= 1e-12

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_carried_and_fresh_rounds_agree(self, template, monkeypatch):
        carried = solve_market_qp(**template)
        start = qp._ActiveSet.start

        def fresh_start(state):
            state.rows = qp._WorkingRows(state.view.GZ, state.h - state.Gx_r, state.view.thresholds)
            start(state)

        monkeypatch.setattr(qp._ActiveSet, "start", fresh_start)
        fresh = solve_market_qp(**template)
        for name in ("g", "u", "price", "periodicity_duals"):
            assert _close(getattr(carried, name), getattr(fresh, name))
        assert fresh.kkt_residual <= 1e-8 and carried.kkt_residual <= 1e-8

    def test_kink_result_counts_its_probes(self, monkeypatch):
        counts = []
        solve = qp._ActiveSet.solve

        def counted(state, H, q):
            sol = solve(state, H, q)
            counts.append(sol.iterations)
            return sol

        monkeypatch.setattr(qp._ActiveSet, "solve", counted)
        res = solve_market_qp(**self.KINK)
        assert all(len(pieces) == 2 for pieces in res.stationarity_pieces)
        assert res.kkt_residual <= 1e-8
        assert len(counts) > 40  # the alternation rounds and the bisection's probes
        assert sum(counts) == res.iterations

    def test_probes_leave_the_shared_start_unchanged(self, monkeypatch):
        seen = {}
        bisect = qp._kink_bisection

        def watched(prob, state, maps_a, maps_b, iterations):
            state.start()
            rows = state.rows
            seen["start"] = [arr.copy() for arr in (rows.working, rows.kept, rows.Q, rows.L,
                                                    rows.y)]

            def probe(gamma):
                return state.fork().solve(*prob.hessian(maps_a, maps_b, gamma))

            seen["alone"] = probe(0.3)
            kink = bisect(prob, state, maps_a, maps_b, iterations)
            seen["after"] = [probe(0.7), probe(0.3), probe(0.3)]
            seen["end"] = [rows.working, rows.kept, rows.Q, rows.L, rows.y]
            return kink

        monkeypatch.setattr(qp, "_kink_bisection", watched)
        res = solve_market_qp(**self.KINK)
        assert len(res.stationarity_pieces[0]) == 2
        for before, after in zip(seen["start"], seen["end"]):
            assert np.array_equal(before, after)
        alone, (other, first, second) = seen["alone"], seen["after"]
        assert not np.array_equal(other.x, alone.x)
        for sol in (first, second):
            for name in ("x", "eq_duals", "ineq_duals", "iterations"):
                assert np.array_equal(getattr(sol, name), getattr(alone, name))


class TestBlockedMultipliers:
    """``multipliers`` solves L' mu = -Q[:k] (Hz w + grad) by back
    substitution over blocks of 64 rows; one block where k <= 64."""

    @pytest.mark.parametrize("k", [1, 63, 64, 65, 3 * 64 + 5])
    def test_blocks_match_one_solve(self, k):
        rng = np.random.default_rng(k)
        nz = 3 * 64 + 8
        GZ = np.eye(nz) + rng.normal(0.0, 0.3 / np.sqrt(nz), (nz, nz))
        rows = qp._WorkingRows(GZ, rng.normal(size=nz), np.full(nz, 1e-9))
        rows.carry(np.arange(nz) < k)
        assert rows.k == k
        F = rng.normal(size=(nz, nz))
        rows.reduce(np.eye(nz) + F @ F.T / nz, rng.normal(size=nz))
        w = rng.normal(size=nz)
        want = np.linalg.solve(rows.L[:k, :k].T, -(rows.Q[:k] @ (rows.Hz @ w + rows.grad)))
        got = rows.multipliers(w)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_week_long_clearing_certifies(self, monkeypatch):
        # one unit over 168 hours: stationary points with up to 167 kept rows
        sizes = []
        multipliers = qp._WorkingRows.multipliers

        def counted(rows, w):
            sizes.append(rows.k)
            return multipliers(rows, w)

        monkeypatch.setattr(qp._WorkingRows, "multipliers", counted)
        h = np.arange(168.0)
        forecast = (600 + 200 * np.sin(2 * np.pi * (h - 8) / 24)
                    + 50 * np.sin(4 * np.pi * (h - 2) / 24))
        scenario = DemandScenario(forecast=forecast, actual=forecast[:24])
        params = build_params(default_config(), scenario)
        da = clear_general(equilibrium_bids_dayahead(params), forecast, params,
                           enforce_soc_bounds=True)
        assert max(sizes) > 2 * 64
        assert da.kkt_residual <= 1e-8


class _Reduced(Exception):
    """Stops a solve once its first reduced Hessian is formed."""


def _first_reduction(mp):
    """Installs on ``mp`` a stop at the first reduction of a solve, and
    returns the dict that receives its Z, H blocks and Z'HZ."""
    seen = {}
    solve = qp._ActiveSet.solve

    def recorded_solve(state, H, q):
        seen.update(Z=state.view.Z, H=H)
        return solve(state, H, q)

    def recorded_reduce(rows, Hz, grad):
        seen["Hz"] = Hz
        raise _Reduced

    mp.setattr(qp._ActiveSet, "solve", recorded_solve)
    mp.setattr(qp._WorkingRows, "reduce", recorded_reduce)
    return seen


def _dense_error(seen):
    """How far the Z'HZ of ``_first_reduction`` is from Z' H Z with H
    assembled from its blocks, relative to max(1, max |H|)."""
    H, Z = seen["H"], seen["Z"]
    B, m, _ = H.shape
    dense = np.zeros((B * m, B * m))
    for b in range(B):
        dense[b * m:(b + 1) * m, b * m:(b + 1) * m] = H[b]
    return (np.max(np.abs(seen["Hz"] - Z.T @ dense @ Z), initial=0.0)
            / max(1.0, np.max(np.abs(H))))


class TestBlockReducedHessian:
    """Z'HZ is summed over H's diagonal blocks: T x T for the template,
    one block for ``solve_qp``; it equals the dense product."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 3]), st.integers(1, 24),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_template_blocks_match_dense_product(self, J, S, T, periodic, soc_bounds, seed):
        rng = np.random.default_rng(seed)
        template = dict(alphas=rng.uniform(0.01, 1.0, J), a_lin=rng.uniform(0.0, 10.0, J),
                        betas=rng.uniform(0.1, 5.0, S), capacities=rng.uniform(1.0, 50.0, S),
                        x0s=rng.uniform(0.2, 0.8, S), demand=rng.uniform(1.0, 10.0, T),
                        g_lo=0.0, g_hi=np.inf, u_lo=-1.0, u_hi=1.0, periodic=periodic,
                        soc_bounds=soc_bounds)
        with pytest.MonkeyPatch.context() as mp:
            seen = _first_reduction(mp)
            # without generators the first solve is phase 1's, which adds two
            with pytest.raises(_Reduced):
                solve_market_qp(**template)
        assert seen["H"].shape == (J + S + 2 * (J == 0), T, T)
        assert _dense_error(seen) <= 1e-13

    def test_solve_qp_passes_one_block(self, monkeypatch):
        seen = _first_reduction(monkeypatch)
        rng = np.random.default_rng(5)
        F = rng.normal(size=(12, 12))
        with pytest.raises(_Reduced):
            solve_qp(100.0 * (np.eye(12) + F @ F.T), rng.normal(size=12), rng.normal(size=(3, 12)),
                     np.zeros(3), _with_negations(np.eye(12)), np.ones(24))
        assert seen["H"].shape == (1, 12, 12)
        assert _dense_error(seen) <= 1e-13
