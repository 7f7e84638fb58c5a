"""Dense active-set QP core and the shared dispatch-clearing solve.

Every constrained clearing in the package reduces to the same template:

    min   sum_j [ ||g_j||^2/(2 alpha_j) + a_j * 1'g_j ]
        + sum_s ||N_s u_s||^2 / (2 beta_s)
    s.t.  sum_j g_j + sum_s u_s = d        (per-interval balance, price lambda)
          1'u_s = 0                        (optional periodicity, dual delta_s)
          lo <= g_j, u_s <= hi             (per-interval boxes)
          0 <= x0_s - cumsum(u_s)/E_s <= 1 (optional SoC corridor)

with the half-cycle map N_s piecewise constant in u_s.  The solve alternates:
freeze the maps, solve the resulting convex QP exactly with a primal
active-set method, recompute the maps, and repeat until the assignment is
stable and the KKT residual of the true problem meets tolerance.  A two-map
assignment cycle means the optimum sits on an assignment boundary; a
bisection over the blended-curvature weight lands on it with the matching
convex subgradient weights.  A solve that settles neither way within its
round budget raises ``SolverFailureError`` carrying the best iterate.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, SolverFailureError
from .rainflow import rainflow_map

__all__ = ["QPSolution", "solve_qp", "MarketQPResult", "solve_market_qp", "market_kkt_residual"]

_FEAS_TOL = 1e-9


@dataclass
class QPSolution:
    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray  # one entry per row of G, zero when inactive
    iterations: int


def _kkt_solve(H, A_rows, rhs):
    n = H.shape[0]
    m = A_rows.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    if m:
        K[:n, n:] = A_rows.T
        K[n:, :n] = A_rows
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _independent_working_rows(A, G, working):
    """Subset of ``working`` whose rows stay independent given the rows of A.

    Active rows that are linear combinations of the equalities plus earlier
    working rows pin nothing new (a null-space step cannot violate them) but
    make the KKT system singular and its multipliers meaningless, so they are
    left out of the solve and implicitly carry zero multipliers.
    """
    if not working:
        return working
    basis = []
    for row in A:
        v = row.copy()
        for bvec in basis:
            v -= (v @ bvec) * bvec
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            basis.append(v / norm)
    kept = []
    for i in working:
        v = G[i].copy()
        scale = max(np.linalg.norm(v), 1e-300)
        for bvec in basis:
            v -= (v @ bvec) * bvec
        if np.linalg.norm(v) > 1e-9 * scale:
            basis.append(v / np.linalg.norm(v))
            kept.append(i)
    return kept


def solve_qp(H, q, A=None, b=None, G=None, h=None, x0=None, max_iter=2000):
    """Minimize 0.5 x'Hx + q'x subject to Ax = b and Gx <= h.

    ``x0`` must be feasible; H must be positive definite on the feasible
    subspace (callers add a small ridge to flat directions).  Returns the
    optimum with equality duals ``y`` (stationarity Hx + q + A'y + G'mu = 0)
    and nonnegative inequality duals ``mu``.
    """
    n = H.shape[0]
    A = np.zeros((0, n)) if A is None else np.asarray(A, float)
    b = np.zeros(0) if b is None else np.asarray(b, float)
    G = np.zeros((0, n)) if G is None else np.asarray(G, float)
    h = np.zeros(0) if h is None else np.asarray(h, float)
    x = np.zeros(n) if x0 is None else np.asarray(x0, float).copy()

    if A.shape[0] and np.max(np.abs(A @ x - b)) > 1e-7:
        raise ValueError("solve_qp requires a feasible starting point (equalities)")
    slack0 = h - G @ x if G.shape[0] else np.zeros(0)
    if slack0.size and slack0.min() < -1e-7:
        raise ValueError("solve_qp requires a feasible starting point (inequalities)")

    act_tol = 1e-10 * np.maximum(1.0, np.abs(h)) if h.size else h
    working = [i for i in range(G.shape[0]) if slack0[i] <= act_tol[i]]
    bland_after = max(200, 4 * (n + A.shape[0]))  # degenerate vertices: switch to Bland's rule
    for it in range(max_iter):
        bland = it >= bland_after
        active = _independent_working_rows(A, G, working)
        rows = np.vstack([A, G[active]]) if (A.shape[0] or active) else np.zeros((0, n))
        rhs = np.concatenate([-q, b, h[active]])
        x_new, duals = _kkt_solve(H, rows, rhs)
        p = x_new - x
        step_scale = max(1.0, float(np.max(np.abs(x))))
        if np.max(np.abs(p)) <= 1e-12 * step_scale:
            mu_w = duals[A.shape[0]:]
            if mu_w.size == 0 or mu_w.min() >= -1e-11:
                mu = np.zeros(G.shape[0])
                for k, i in enumerate(active):
                    mu[i] = max(mu_w[k], 0.0)
                return QPSolution(x=x, eq_duals=duals[: A.shape[0]], ineq_duals=mu, iterations=it)
            if bland:
                neg = [k for k in range(len(active)) if mu_w[k] < -1e-11]
                drop_row = min(active[k] for k in neg)
            else:
                drop_row = active[int(np.argmin(mu_w))]
            working.remove(drop_row)
            continue
        # step toward the EQP optimum, blocked by the nearest inactive row;
        # ratios within 1e-9 of a full step saturate to one (the leftover
        # violation is far inside feasibility tolerance and re-adding the row
        # at a degenerate vertex would cycle)
        alpha = 1.0
        blocker = -1
        if G.shape[0]:
            inactive = [i for i in range(G.shape[0]) if i not in working]
            if inactive:
                Gi = G[inactive]
                gp = Gi @ p
                slack = h[inactive] - Gi @ x
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.where(gp > 1e-13 * step_scale, slack / gp, np.inf)
                best_ratio = float(np.min(ratios))
                if best_ratio < 1.0 - 1e-9:
                    near = np.flatnonzero(ratios <= best_ratio + 1e-14 * max(1.0, best_ratio))
                    k = int(near[0]) if bland else int(near[np.argmax(gp[near])])
                    alpha = max(best_ratio, 0.0)
                    blocker = inactive[k]
        x = x + alpha * p
        if blocker >= 0:
            working.append(blocker)
            working.sort()
    raise SolverFailureError("active-set QP exceeded its iteration cap", best_iterate=x)


@dataclass
class MarketQPResult:
    g: np.ndarray  # (J, T)
    u: np.ndarray  # (S, T)
    price: np.ndarray  # balance dual, $/MWh per interval
    periodicity_duals: np.ndarray  # (S,)
    maps: list  # RainflowDecomposition per storage at the solution
    objective: float
    kkt_residual: float
    iterations: int
    fallback_used: bool = False  # no fallback path remains; perfbench's tracing still reads it
    stationarity_pieces: list = field(default_factory=list)  # per storage: [(weight, map)]


class _Problem:
    """Constraint assembly for the dispatch template (variables g then u)."""

    def __init__(self, alphas, a_lin, betas, capacities, x0s, demand,
                 g_lo, g_hi, u_lo, u_hi, periodic, soc_bounds):
        self.alphas = np.asarray(alphas, float)
        self.a_lin = np.asarray(a_lin, float)
        self.betas = np.asarray(betas, float)
        self.capacities = np.asarray(capacities, float)
        self.x0s = np.asarray(x0s, float)
        self.demand = np.asarray(demand, float)
        self.J, self.S, self.T = self.alphas.size, self.betas.size, self.demand.size
        self.g_lo, self.g_hi = self._tile(g_lo, self.J), self._tile(g_hi, self.J)
        self.u_lo, self.u_hi = self._tile(u_lo, self.S), self._tile(u_hi, self.S)
        self.periodic = periodic
        self.soc_bounds = soc_bounds
        self.n = (self.J + self.S) * self.T
        self._assemble()

    def _tile(self, bound, count):
        if count == 0:
            return np.zeros((0, self.T))
        arr = np.asarray(bound, float)
        if arr.ndim == 0:
            return np.full((count, self.T), float(arr))
        if arr.ndim == 1 and arr.size == count:
            return np.repeat(arr[:, None], self.T, axis=1)
        if arr.shape == (count, self.T):
            return arr.copy()
        raise ValueError("bound must be scalar, per-participant, or (count, T)")

    def g_slice(self, j):
        return slice(j * self.T, (j + 1) * self.T)

    def u_slice(self, s):
        return slice((self.J + s) * self.T, (self.J + s + 1) * self.T)

    def _assemble(self):
        J, S, T, n = self.J, self.S, self.T, self.n
        # balance rows, then optional periodicity rows
        A = np.zeros((T + (S if self.periodic else 0), n))
        for j in range(J):
            A[:T, self.g_slice(j)] = np.eye(T)
        for s in range(S):
            A[:T, self.u_slice(s)] = np.eye(T)
        if self.periodic:
            for s in range(S):
                A[T + s, self.u_slice(s)] = 1.0
        self.A = A
        self.b = np.concatenate([self.demand, np.zeros(S)]) if self.periodic else self.demand.copy()

        rows, rhs, tags = [], [], []
        eye = np.eye(n)
        for j in range(J):
            sl = self.g_slice(j)
            for t in range(T):
                if np.isfinite(self.g_hi[j, t]):
                    rows.append(eye[sl][t]); rhs.append(self.g_hi[j, t]); tags.append(("g_hi", j, t))
                if np.isfinite(self.g_lo[j, t]):
                    rows.append(-eye[sl][t]); rhs.append(-self.g_lo[j, t]); tags.append(("g_lo", j, t))
        for s in range(S):
            sl = self.u_slice(s)
            for t in range(T):
                if np.isfinite(self.u_hi[s, t]):
                    rows.append(eye[sl][t]); rhs.append(self.u_hi[s, t]); tags.append(("u_hi", s, t))
                if np.isfinite(self.u_lo[s, t]):
                    rows.append(-eye[sl][t]); rhs.append(-self.u_lo[s, t]); tags.append(("u_lo", s, t))
        if self.soc_bounds:
            for s in range(S):
                E, x0 = self.capacities[s], self.x0s[s]
                prefix = np.tril(np.ones((T, T)))
                block = np.zeros((T, n))
                block[:, self.u_slice(s)] = prefix
                for t in range(T):
                    rows.append(block[t]); rhs.append(x0 * E); tags.append(("soc_lo", s, t))
                    rows.append(-block[t]); rhs.append((1.0 - x0) * E); tags.append(("soc_hi", s, t))
        self.G = np.vstack(rows) if rows else np.zeros((0, n))
        self.h = np.asarray(rhs, float)
        self.tags = tags

    def hessian(self, maps, other=None, gamma=1.0):
        """Fixed-map Hessian; with ``other`` each storage block blends the two
        maps' curvatures with weight ``gamma`` on ``maps``."""
        H = np.zeros((self.n, self.n))
        q = np.zeros(self.n)
        for j in range(self.J):
            sl = self.g_slice(j)
            H[sl, sl] = np.eye(self.T) / self.alphas[j]
            q[sl] = self.a_lin[j]
        # With a single storage the balance coupling makes the reduced Hessian
        # positive definite on its own; two or more storages share flat
        # depth-preserving swap directions that need a tiny ridge to pin.
        ridge_rel = 1e-12 if self.S >= 2 else 0.0
        scale = (1.0 / self.alphas).max() if self.J else 1.0
        for s in range(self.S):
            sl = self.u_slice(s)
            N = maps[s].map
            M = N.T @ N
            if other is not None:
                Nb = other[s].map
                M = gamma * M + (1.0 - gamma) * (Nb.T @ Nb)
            Hu = M / self.betas[s]
            block_scale = max(scale, np.abs(Hu).max() if Hu.size else 0.0, 1e-12)
            H[sl, sl] = Hu + ridge_rel * block_scale * np.eye(self.T)
        return H, q

    def objective(self, g, u, maps=None):
        val = 0.0
        for j in range(self.J):
            val += 0.5 * np.dot(g[j], g[j]) / self.alphas[j] + self.a_lin[j] * g[j].sum()
        for s in range(self.S):
            dec = maps[s] if maps is not None else rainflow_map(u[s], self.capacities[s], self.x0s[s])
            nu = dec.map @ u[s]
            val += 0.5 * np.dot(nu, nu) / self.betas[s]
        return float(val)

    def split(self, x):
        g = np.vstack([x[self.g_slice(j)] for j in range(self.J)]) if self.J else np.zeros((0, self.T))
        u = np.vstack([x[self.u_slice(s)] for s in range(self.S)]) if self.S else np.zeros((0, self.T))
        return g, u

    def feasible_start(self):
        """(g, u=0) with demand split greedily across generators per interval."""
        J, T = self.J, self.T
        g = np.array([np.where(np.isfinite(self.g_lo[j]), self.g_lo[j], 0.0) for j in range(J)]) \
            if J else np.zeros((0, T))
        for t in range(T):
            residual = self.demand[t] - (g[:, t].sum() if J else 0.0)
            if residual < -_FEAS_TOL * max(1.0, abs(self.demand[t])):
                return None  # below the generator minimum; storage may absorb it
            for j in range(J):
                room = self.g_hi[j, t] - g[j, t]
                add = min(residual, room)
                if add > 0:
                    g[j, t] += add
                    residual -= add
            if residual > _FEAS_TOL * max(1.0, abs(self.demand[t])):
                return None  # generators alone cannot cover; try the elastic phase
        x = np.zeros(self.n)
        for j in range(J):
            x[self.g_slice(j)] = g[j]
        return x

    def elastic_start(self):
        """Phase-1: elastic balance slack finds a feasible point when storage
        must participate (for example a binding generator cap at the peak)."""
        n, T = self.n, self.T
        n_el = n + T
        H = np.zeros((n_el, n_el))
        scale = max(1.0, float(np.max(np.abs(self.demand))))
        big = 1e8
        H[:n, :n] = np.eye(n) * 1e-6
        H[n:, n:] = np.eye(T) * big
        q = np.zeros(n_el)
        A = np.zeros((self.A.shape[0], n_el))
        A[:, :n] = self.A
        A[:T, n:] = np.eye(T)  # balance + slack = d
        G = np.zeros((self.G.shape[0], n_el))
        G[:, :n] = self.G
        x0 = np.zeros(n_el)
        lo_start = np.zeros(n)
        for j in range(self.J):
            lo_start[self.g_slice(j)] = np.clip(0.0, self.g_lo[j], self.g_hi[j])
        x0[:n] = lo_start
        x0[n:] = self.demand - self.A[:T, :] @ lo_start
        sol = solve_qp(H, q, A, self.b, G, self.h, x0)
        slack = sol.x[n:]
        worst = int(np.argmax(np.abs(slack)))
        if np.abs(slack[worst]) > 1e-6 * scale:
            raise InfeasibleError(
                f"demand at interval {worst} cannot be met within participant limits "
                f"(shortfall {slack[worst]:.6g} MW)",
                interval=worst,
            )
        x = sol.x[:n].copy()
        # absorb the tiny remaining slack into generators with headroom
        for t in range(T):
            residual = self.demand[t] - float(self.A[t, :] @ x)
            for j in range(self.J):
                idx = j * T + t
                room_hi = self.h_box(j, t, "hi") - x[idx]
                room_lo = x[idx] - self.h_box(j, t, "lo")
                move = np.clip(residual, -room_lo, room_hi)
                x[idx] += move
                residual -= move
            if abs(residual) > 1e-7 * scale:
                raise InfeasibleError(
                    f"demand at interval {t} cannot be met within participant limits", interval=t
                )
        return x

    def h_box(self, j, t, which):
        return self.g_hi[j, t] if which == "hi" else self.g_lo[j, t]


def blended_stationarity_gap(target, pieces, u_s, beta):
    """Distance from ``target`` to the piece-gradient hull {sum_k w_k N_k'N_k u / beta}.

    ``pieces`` is a list of (weight, map) pairs; for exactly two pieces the
    weight is refit by least squares and clamped to [0, 1], since any convex
    combination of adjacent smooth pieces is a valid subgradient.
    """
    vecs = [(N.T @ (N @ u_s)) / beta for _, N in pieces]
    if len(vecs) == 1:
        return target - vecs[0]
    if len(vecs) == 2:
        a, bvec = vecs
        diff = a - bvec
        denom = float(diff @ diff)
        gamma = float(np.clip((target - bvec) @ diff / denom, 0.0, 1.0)) if denom > 0 else 0.5
        return target - (gamma * a + (1 - gamma) * bvec)
    blend = sum(wk * v for (wk, _), v in zip(pieces, vecs))
    return target - blend


def market_kkt_residual(prob, g, u, price, per_duals, maps, mu=None, tags=None, pieces=None):
    """Relative residual of the true stationarity/feasibility system.

    Components are normalized by max(1, scale of the terms entering them) so
    the figure is meaningful across price magnitudes.  ``pieces`` optionally
    lists adjacent smooth pieces per storage for kink-seated optima.
    """
    res = []
    d_scale = max(1.0, float(np.max(np.abs(prob.demand))) if prob.demand.size else 1.0)
    balance = (g.sum(axis=0) if prob.J else 0.0) + (u.sum(axis=0) if prob.S else 0.0) - prob.demand
    res.append(np.max(np.abs(balance)) / d_scale if prob.T else 0.0)
    lam_scale = max(1.0, float(np.max(np.abs(price))))
    # box/soc dual contributions per variable
    grad_extra = np.zeros(prob.n)
    if mu is not None and tags is not None:
        for mu_i, row, tag in zip(mu, prob.G, tags):
            if mu_i > 0:
                grad_extra += mu_i * row
    for j in range(prob.J):
        stat = g[j] / prob.alphas[j] + prob.a_lin[j] - price + grad_extra[prob.g_slice(j)]
        res.append(np.max(np.abs(stat)) / lam_scale)
    for s in range(prob.S):
        target = price - grad_extra[prob.u_slice(s)]
        if prob.periodic:
            target = target - per_duals[s]
        piece_list = pieces[s] if pieces else [(1.0, maps[s].map)]
        gap = blended_stationarity_gap(target, piece_list, u[s], prob.betas[s])
        res.append(np.max(np.abs(gap)) / lam_scale)
        if prob.periodic:
            res.append(abs(u[s].sum()) / max(1.0, float(np.max(np.abs(u[s])))))
    if prob.G.shape[0]:
        viol = prob.G @ np.concatenate([g.ravel(), u.ravel()]) if prob.n else np.zeros(0)
        res.append(max(0.0, float(np.max(viol - prob.h))) / d_scale)
    return float(max(res)) if res else 0.0


def _evaluate(prob, x, sol, pieces=None):
    """Pack one fixed-map QP solution with its true-problem diagnostics."""
    g, u = prob.split(x)
    maps = [rainflow_map(u[s], prob.capacities[s], prob.x0s[s]) for s in range(prob.S)]
    price = -sol.eq_duals[: prob.T]
    per_duals = sol.eq_duals[prob.T:] if prob.periodic else np.zeros(prob.S)
    resid = market_kkt_residual(prob, g, u, price, per_duals, maps, sol.ineq_duals, prob.tags,
                                pieces)
    obj = prob.objective(g, u, maps)
    sig = tuple(m.signature() for m in maps)
    return {"x": x.copy(), "g": g, "u": u, "maps": maps, "price": price,
            "per_duals": per_duals, "resid": resid, "obj": obj, "sig": sig,
            "pieces": pieces or [[(1.0, m.map)] for m in maps]}


def _result_from(state, iterations):
    return MarketQPResult(g=state["g"], u=state["u"], price=state["price"],
                          periodicity_duals=state["per_duals"], maps=state["maps"],
                          objective=state["obj"], kkt_residual=state["resid"],
                          iterations=iterations, stationarity_pieces=state["pieces"])


def _kink_bisection(prob, x, maps_a, maps_b):
    """Resolve a two-map assignment cycle by bisecting the subgradient weight.

    At a kink-seated optimum the stationarity holds with a convex combination
    of the two adjacent pieces' curvatures.  Solving the blended QP and
    bisecting the weight to the region boundary lands on that point exactly.
    """

    def solve_at(gamma):
        H, q = prob.hessian(maps_a, maps_b, gamma)
        sol = solve_qp(H, q, prob.A, prob.b, prob.G, prob.h, x)
        _, u_new = prob.split(sol.x)
        sig = tuple(rainflow_map(u_new[s], prob.capacities[s], prob.x0s[s]).signature()
                    for s in range(prob.S))
        return sol, sig

    sol_hi, sig_ref = solve_at(1.0)
    sol_lo, sig_lo = solve_at(0.0)
    if sig_ref == sig_lo:
        return None  # both endpoints in one region: not a two-piece kink
    lo, hi = 0.0, 1.0
    sol = sol_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        sol, sig = solve_at(mid)
        if sig == sig_ref:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15:
            break
    gamma = 0.5 * (lo + hi)
    pieces = [[(gamma, maps_a[s].map), (1.0 - gamma, maps_b[s].map)] for s in range(prob.S)]
    return _evaluate(prob, sol.x, sol, pieces)


def solve_market_qp(alphas, a_lin, betas, capacities, x0s, demand,
                    g_lo, g_hi, u_lo, u_hi, periodic=True, soc_bounds=False,
                    tol=1e-8, max_outer=200):
    """Alternating fixed-map solve of the dispatch template (see module doc)."""
    prob = _Problem(alphas, a_lin, betas, capacities, x0s, demand,
                    g_lo, g_hi, u_lo, u_hi, periodic, soc_bounds)
    x = prob.feasible_start()
    if x is None:
        x = prob.elastic_start()

    seen = set()
    best = None
    total_iters = 0
    for _ in range(max_outer):
        g_cur, u_cur = prob.split(x)
        maps = [rainflow_map(u_cur[s], prob.capacities[s], prob.x0s[s]) for s in range(prob.S)]
        sig = tuple(m.signature() for m in maps)
        H, q = prob.hessian(maps)
        sol = solve_qp(H, q, prob.A, prob.b, prob.G, prob.h, x)
        total_iters += sol.iterations
        x = sol.x
        state = _evaluate(prob, x, sol)
        if best is None or state["obj"] < best["obj"]:
            best = state
        if state["sig"] == sig:
            if state["resid"] <= tol:
                return _result_from(state, total_iters)
            break  # assignment is stable but the residual is stuck
        if state["sig"] in seen:
            # assignment cycling: the optimum sits on a two-piece kink
            kink = _kink_bisection(prob, x, maps, state["maps"])
            if kink is not None and kink["resid"] <= tol:
                return _result_from(kink, total_iters)
            if kink is not None and kink["obj"] < best["obj"]:
                best = kink
            break
        seen.add(sig)
        seen.add(state["sig"])

    raise SolverFailureError(
        "dispatch solve did not reach tolerance within its alternation rounds",
        best_iterate=(best["g"], best["u"]), residual=best["resid"],
    )
