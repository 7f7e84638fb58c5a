"""Day-ahead clearing under supply-function and energy-cycling bids.

Generators bid an affine supply function g = alpha * lambda; storage bids an
energy-cycling function nu = beta * theta mapping per-cycle prices to cycle
depths.  Both clearings run through the shared dispatch solve
``qp.solve_market_qp``.  ``clear_uniform`` clears one aggregate storage unit
(slopes sum alpha and sum beta, the common capacity) and splits its dispatch
across storage units in proportion to their bid slopes, yielding one shared
per-cycle price vector.  ``clear_general`` clears the full problem with
stage-wise limits.
"""

from dataclasses import dataclass, field

import numpy as np

from .costs import MarketParams
from .errors import InvalidInputError, SolverFailureError
from .qp import (
    blended_stationarity_gap,
    certified,
    demand_vector,
    dispatch_map,
    solve_market_qp,
)
from .rainflow import rainflow_map

__all__ = [
    "DayAheadBids",
    "DayAheadResult",
    "KKTReport",
    "clear_uniform",
    "clear_general",
    "equilibrium_bids_dayahead",
    "verify_kkt_dayahead",
]


@dataclass
class DayAheadBids:
    """Bid slopes, one per generator (alpha) and one per storage (beta)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float)) \
            if np.size(self.beta) else np.zeros(0)
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise InvalidInputError("day-ahead bid slopes must be finite")
        if np.any(self.alpha < 0) or np.any(self.beta < 0):
            raise InvalidInputError("bid slopes must be nonnegative")
        if self.alpha.sum() + self.beta.sum() <= 0:
            raise InvalidInputError("at least one participant must bid a positive slope")


@dataclass
class DayAheadResult:
    """Cleared day-ahead dispatch, prices, and solve diagnostics.

    ``cycle_prices`` holds one per-cycle price vector per storage; under the
    uniform mechanism every entry is the same shared array.  ``maps`` holds
    one half-cycle decomposition per storage, the map of its row of ``u``.
    ``shares`` holds the proportional split coefficients (None for the
    general clearing).
    """

    g: np.ndarray                      # (J, T) generator dispatch
    u: np.ndarray                      # (S, T) storage dispatch
    nu: list                           # per-storage depth vectors
    energy_price: np.ndarray           # (T,) balance dual, $/MWh
    cycle_prices: list                 # per-storage per-cycle price vectors
    periodicity_duals: np.ndarray      # (S,)
    shares: np.ndarray | None          # epsilon, (S,)
    objective: float
    kkt_residual: float
    maps: list = field(default_factory=list)
    stationarity_pieces: list = field(default_factory=list)  # per storage: [(weight, map)]


@dataclass
class KKTReport:
    max_residual: float
    components: dict


def equilibrium_bids_dayahead(params: MarketParams) -> DayAheadBids:
    """Price-taker optimal slopes: alpha = 1/c per generator, beta = 1/b per storage.

    First-order conditions of the participant profit problems: a generator
    maximizing <lambda, alpha*lambda> - C(alpha*lambda) picks alpha = 1/c, and
    storage maximizing <theta, beta*theta> - (b/2)||beta*theta||^2 picks
    beta = 1/b.
    """
    for gen in params.generators:
        if not (gen.c > 0):
            raise InvalidInputError("equilibrium bids need c > 0")
    for st in params.storages:
        if not (st.b > 0):
            raise InvalidInputError("equilibrium bids need b > 0")
    alpha = np.array([1.0 / gen.c for gen in params.generators])
    beta = np.array([1.0 / st.b for st in params.storages])
    return DayAheadBids(alpha=alpha, beta=beta)


def _common_capacity(params):
    caps = [st.capacity_E for st in params.storages]
    if max(caps) - min(caps) > 1e-12 * max(caps):
        raise InvalidInputError(
            "uniform-price clearing requires storage units with a common capacity; "
            "use clear_general for heterogeneous pools"
        )
    return caps[0]


def clear_uniform(bids: DayAheadBids, d_da, params: MarketParams):
    """Uniform-price day-ahead clearing (capacity constraints assumed slack).

    Solves the reduced strictly convex program over the aggregate storage
    profile w,

        min  ||w||^2/(2 sum alpha) - <d, w>/sum alpha + ||N(w) w||^2/(2 sum beta)
        s.t. 1'w = 0,

    as the dispatch template with one aggregate generator and one aggregate
    storage (``qp.solve_market_qp``, no power limits), then splits w across
    storage units by epsilon_s = beta_s / sum beta.  All storage units see
    the same per-cycle price vector theta = N(w) w / sum beta.  A split that
    ``verify_kkt_dayahead`` does not certify raises ``SolverFailureError``;
    demand that is not a finite vector of at least one interval raises
    ``InvalidInputError``, with or without storage.
    """
    d = demand_vector(d_da)
    T = d.size
    J, S = params.n_generators, params.n_storages
    if bids.alpha.size != J or bids.beta.size != S:
        raise InvalidInputError("bid vector sizes must match the participant lists")
    sum_alpha = float(bids.alpha.sum())
    if sum_alpha <= 0:
        raise InvalidInputError("uniform clearing needs sum(alpha) > 0")
    sum_beta = float(bids.beta.sum())

    if S == 0 or sum_beta <= 0:
        # storage-absent market: balance forces the proportional generator split
        lam = d / sum_alpha
        g = np.outer(bids.alpha, lam)
        result = DayAheadResult(
            g=g, u=np.zeros((S, T)), nu=[np.zeros(0)] * S, energy_price=lam,
            cycle_prices=[np.zeros(0)] * S, periodicity_duals=np.zeros(S),
            shares=np.zeros(S), objective=float(np.sum(g * g / (2 * bids.alpha[:, None]))),
            kkt_residual=0.0,
            maps=[rainflow_map(np.zeros(T), st.capacity_E, st.x0) for st in params.storages],
        )
        result.kkt_residual = verify_kkt_dayahead(result, bids, d, params).max_residual
        return result

    res = solve_market_qp(
        alphas=[sum_alpha], a_lin=[0.0], betas=[sum_beta],
        capacities=[_common_capacity(params)], x0s=[params.storages[0].x0],
        demand=d, g_lo=-np.inf, g_hi=np.inf, u_lo=-np.inf, u_hi=np.inf,
        periodic=True, soc_bounds=False,
    )
    w = res.u[0]
    dec = res.maps[0]
    lam = res.price
    theta = (dec.map @ w) / sum_beta  # one shared per-cycle price vector
    eps = bids.beta / sum_beta
    u = np.outer(eps, w)
    nu = [eps_s * (dec.map @ w) for eps_s in eps]
    g = np.outer(bids.alpha, lam)
    objective = float(np.sum(g * g / (2 * bids.alpha[:, None]))) + sum(
        float(nu_s @ nu_s) / (2 * bids.beta[s]) for s, nu_s in enumerate(nu)
    )
    result = DayAheadResult(
        g=g, u=u, nu=nu, energy_price=lam, cycle_prices=[theta] * S,
        periodicity_duals=np.full(S, res.periodicity_duals[0]), shares=eps,
        objective=objective, kkt_residual=0.0, maps=[dec] * S,
        stationarity_pieces=[res.stationarity_pieces[0]] * S,
    )
    report = verify_kkt_dayahead(result, bids, d, params)
    result.kkt_residual = report.max_residual
    if not certified(report.max_residual):
        raise SolverFailureError(
            "uniform clearing stalled above tolerance",
            best_iterate=result, residual=report.max_residual,
        )
    return result


def clear_general(bids: DayAheadBids, d_da, params: MarketParams, enforce_soc_bounds=False):
    """Full day-ahead clearing with stage-wise limits and periodicity.

    Prices come from the balance duals; per-cycle prices are recovered from
    the cleared depths as theta_s = nu_s / beta_s.  SoC corridor enforcement
    is off by default (the cleared constraint set lists power limits and
    periodicity only) and can be switched on for physically tight schedules.
    """
    d = np.asarray(d_da, dtype=float)
    J, S = params.n_generators, params.n_storages
    if bids.alpha.size != J or bids.beta.size != S:
        raise InvalidInputError("bid vector sizes must match the participant lists")
    if np.any(bids.alpha <= 0):
        raise InvalidInputError("general clearing requires positive generator slopes")
    if S and np.any(bids.beta <= 0):
        raise InvalidInputError("general clearing requires positive storage slopes")

    res = solve_market_qp(
        alphas=bids.alpha, a_lin=np.zeros(J), betas=bids.beta,
        capacities=[st.capacity_E for st in params.storages],
        x0s=[st.x0 for st in params.storages],
        demand=d,
        g_lo=[gen.g_min for gen in params.generators],
        g_hi=[gen.g_max for gen in params.generators],
        u_lo=[st.u_min for st in params.storages],
        u_hi=[st.u_max for st in params.storages],
        periodic=True, soc_bounds=enforce_soc_bounds,
    )
    nu = [res.maps[s].map @ res.u[s] for s in range(S)]
    cycle_prices = [nu[s] / bids.beta[s] for s in range(S)]
    return DayAheadResult(
        g=res.g, u=res.u, nu=nu, energy_price=res.price, cycle_prices=cycle_prices,
        periodicity_duals=res.periodicity_duals, shares=None, objective=res.objective,
        kkt_residual=res.kkt_residual, maps=res.maps,
        stationarity_pieces=res.stationarity_pieces,
    )


def verify_kkt_dayahead(result: DayAheadResult, bids: DayAheadBids, d_da, params: MarketParams):
    """Max violation of the slack-limit optimality system of the clearing.

    Checks balance, bid consistency (g = alpha*lambda, nu = beta*theta),
    the depth constraint nu = N(u) u at the reported dispatch, with N(u)
    the ``qp.dispatch_map`` the clearing itself reads, stationarity
    lambda = N'theta + delta*1 per storage, and periodicity.  Components are
    normalized by max(1, magnitude of the terms involved).  Binding power
    limits are outside this system; the general clearing carries a
    bound-aware residual of its own.
    """
    d = np.asarray(d_da, dtype=float)
    comps = {}
    d_scale = max(1.0, float(np.max(np.abs(d)))) if d.size else 1.0
    lam = result.energy_price
    lam_scale = max(1.0, float(np.max(np.abs(lam)))) if lam.size else 1.0

    total = (result.g.sum(axis=0) if result.g.size else np.zeros(d.size)) + (
        result.u.sum(axis=0) if result.u.size else np.zeros(d.size))
    comps["balance"] = float(np.max(np.abs(total - d))) / d_scale if d.size else 0.0

    for j in range(result.g.shape[0]):
        mismatch = result.g[j] - bids.alpha[j] * lam
        comps[f"supply_function_gen{j}"] = float(np.max(np.abs(mismatch))) / max(
            1.0, float(np.max(np.abs(result.g[j]))))

    for s in range(result.u.shape[0]):
        st = params.storages[s]
        dec = dispatch_map(result.u[s], st.capacity_E, st.x0)
        nu_ref = dec.map @ result.u[s]
        nu_s = np.asarray(result.nu[s])
        nu_scale = max(1.0, float(np.max(np.abs(nu_ref))) if nu_ref.size else 0.0)
        if nu_s.shape == nu_ref.shape:
            comps[f"depth_constraint_st{s}"] = float(
                np.max(np.abs(nu_s - nu_ref)) if nu_ref.size else 0.0) / nu_scale
        else:
            comps[f"depth_constraint_st{s}"] = 1.0  # structurally different decomposition
        theta = np.asarray(result.cycle_prices[s])
        if bids.beta.size and bids.beta[s] > 0 and theta.shape == nu_s.shape:
            comps[f"cycling_bid_st{s}"] = float(
                np.max(np.abs(nu_s - bids.beta[s] * theta)) if nu_s.size else 0.0) / nu_scale
        if bids.beta.size and bids.beta[s] > 0:
            # stationarity lambda = sum_k gamma_k N_k'N_k u / beta + delta*1,
            # evaluated against the adjacent-piece hull at kink-seated optima
            pieces = (result.stationarity_pieces[s]
                      if result.stationarity_pieces else [(1.0, dec.map)])
            target = lam - result.periodicity_duals[s]
            gap = blended_stationarity_gap(target, pieces, result.u[s], bids.beta[s])
            comps[f"stationarity_st{s}"] = float(np.max(np.abs(gap))) / lam_scale
        u_scale = max(1.0, float(np.max(np.abs(result.u[s]))))
        comps[f"periodicity_st{s}"] = abs(float(result.u[s].sum())) / u_scale

    return KKTReport(max_residual=float(max(comps.values())) if comps else 0.0, components=comps)
