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
from .qp import certified, demand_vector, dispatch_map, kkt_components, solve_market_qp
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
        if self.alpha.ndim > 1 or self.beta.ndim > 1 or not (
                np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise InvalidInputError("day-ahead bid slopes must be finite vectors")
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
    stationarity_pieces: list = field(default_factory=list)  # per storage: its map, or a kink's two


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


def _bid_cost(bids, g, nu):
    """sum_j ||g_j||^2 / (2 alpha_j) + sum_s ||nu_s||^2 / (2 beta_s) over the
    positive slopes: a zero slope pins its participant at 0."""
    a = bids.alpha > 0
    return float(np.sum(g[a] * g[a] / (2 * bids.alpha[a, None]))) + sum(
        float(nu_s @ nu_s) / (2 * beta) for nu_s, beta in zip(nu, bids.beta) if beta > 0)


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
    bids off the roster (``MarketParams.check_roster``) and demand that is
    not a finite vector (``qp.demand_vector``) raise ``InvalidInputError``,
    with or without storage.
    """
    d = demand_vector(d_da)
    T, S = d.size, params.n_storages
    params.check_roster(bids.alpha, bids.beta)
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
            shares=np.zeros(S), objective=_bid_cost(bids, g, []), kkt_residual=0.0,
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
    # a unit bidding slope 0 holds no share: its depths are its own empty map's
    nu = [eps_s * (dec.map @ w) if eps_s > 0 else np.zeros(0) for eps_s in eps]
    g = np.outer(bids.alpha, lam)
    result = DayAheadResult(
        g=g, u=u, nu=nu, energy_price=lam, cycle_prices=[theta] * S,
        periodicity_duals=np.full(S, res.periodicity_duals[0]), shares=eps,
        objective=_bid_cost(bids, g, nu), kkt_residual=0.0, maps=[dec] * S,
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
    Bids off the roster and slopes that are not positive raise ``InvalidInputError``.
    """
    J, S = params.n_generators, params.n_storages
    params.check_roster(bids.alpha, bids.beta)
    res = solve_market_qp(
        alphas=bids.alpha, a_lin=np.zeros(J), betas=bids.beta,
        capacities=[st.capacity_E for st in params.storages],
        x0s=[st.x0 for st in params.storages],
        demand=d_da,
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
    """The clearing's optimality system at slack limits, by named component.

    The system is ``qp.kkt_components`` at the bids' slopes, no linear cost
    and G'mu = 0, against the result's ``stationarity_pieces`` or else each
    unit's own ``qp.dispatch_map``: ``balance``, ``stationarity_gen{j}``,
    ``stationarity_st{s}`` and ``periodicity_st{s}``.  Two bid-consistency
    checks per unit follow, over max(1, max |N(u) u|) with N(u) its
    ``qp.dispatch_map``: ``depth_constraint_st{s}``, the reported depths nu
    against N(u) u (1.0 where their shapes differ), and, for a positive
    slope, ``cycling_bid_st{s}``, nu against beta * theta.  Binding power
    limits are outside this system; the general clearing carries the
    bound-aware residual of its own solve.
    """
    d = demand_vector(d_da)
    J, S = bids.alpha.size, bids.beta.size
    decs = [dispatch_map(u_s, st.capacity_E, st.x0) for u_s, st in zip(result.u, params.storages)]
    comps = kkt_components(d, bids.alpha, np.zeros(J), bids.beta, result.g, result.u,
                           result.energy_price,
                           result.stationarity_pieces or [[dec.map] for dec in decs],
                           np.zeros((J + S, d.size)), result.periodicity_duals)
    for s, dec in enumerate(decs):
        nu_ref, nu_s = dec.map @ result.u[s], np.asarray(result.nu[s])
        nu_scale = max(1.0, float(np.max(np.abs(nu_ref), initial=0.0)))
        comps[f"depth_constraint_st{s}"] = float(
            np.max(np.abs(nu_s - nu_ref), initial=0.0)) / nu_scale \
            if nu_s.shape == nu_ref.shape else 1.0
        theta = np.asarray(result.cycle_prices[s])
        if bids.beta[s] > 0 and theta.shape == nu_s.shape:
            comps[f"cycling_bid_st{s}"] = float(
                np.max(np.abs(nu_s - bids.beta[s] * theta), initial=0.0)) / nu_scale
    return KKTReport(max_residual=max(comps.values()), components=comps)
