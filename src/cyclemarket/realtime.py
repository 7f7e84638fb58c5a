"""Real-time market mechanisms on top of a cleared day-ahead schedule.

Two bidding styles are provided.  In the first (``unaware``) participants bid
plain affine supply functions g = alpha*price, u = beta*price while folding
their day-ahead position into the slope choice; the competitive equilibrium
exists uniquely and is found either in closed form or by the best-response
iteration the mechanism implies.  In the second (``aware``) the bid itself
subtracts the day-ahead commitment, g = alpha*price - g_da; the equilibrium
slopes are constants and clearing is a single algebraic step.  The rolling
case-study windows use ``clear_constrained_aware``, which re-optimizes total
dispatch subject to power limits and the SoC corridor without periodicity.
"""

from dataclasses import dataclass, field

import numpy as np

from .costs import MarketParams
from .errors import (
    DegenerateDemandError,
    DegeneratePriceError,
    DivergenceError,
    InvalidInputError,
    NonConvergenceError,
)
from .qp import solve_market_qp
from .rainflow import rainflow_map

__all__ = [
    "RealTimeBids",
    "RealTimeResult",
    "equilibrium_unaware",
    "best_response_unaware",
    "equilibrium_aware",
    "clear_constrained_aware",
]


@dataclass
class RealTimeBids:
    alpha_r: np.ndarray  # per generator
    beta_r: np.ndarray   # per storage
    mode: str = "aware"

    def __post_init__(self):
        self.alpha_r = np.atleast_1d(np.asarray(self.alpha_r, dtype=float))
        self.beta_r = np.atleast_1d(np.asarray(self.beta_r, dtype=float)) \
            if np.size(self.beta_r) else np.zeros(0)
        if not (np.all(np.isfinite(self.alpha_r)) and np.all(np.isfinite(self.beta_r))):
            raise InvalidInputError("real-time bid slopes must be finite")
        if self.mode not in ("aware", "unaware"):
            raise InvalidInputError("mode must be 'aware' or 'unaware'")


@dataclass
class RealTimeResult:
    g_r: np.ndarray                 # (J, T) generator adjustments
    u_r: np.ndarray                 # (S, T) storage adjustments
    price: np.ndarray               # (T,) real-time price
    price_coeff: float | None       # proportionality scalar (price = coeff * demand vector)
    iterations: int
    converged: bool
    map_stable: bool = True         # half-cycle map of u_da + u_r unchanged (unaware mode)
    kkt_residual: float | None = None
    trace: list = field(default_factory=list)


def _storage_da_quantities(params, da, d_r):
    """Per-storage day-ahead map, prices, and the projections the slopes need."""
    out = []
    for s, st in enumerate(params.storages):
        dec = rainflow_map(da.u[s], st.capacity_E, st.x0)
        if dec.n_half_cycles == 0:
            raise DegeneratePriceError(
                f"storage {s} has no day-ahead cycling; its real-time slope is unbounded"
            )
        Nd = dec.map @ d_r
        if float(Nd @ Nd) <= 0.0:
            raise DegeneratePriceError(
                f"residual demand produces no cycling through storage {s}'s day-ahead map"
            )
        theta = np.asarray(da.cycle_prices[s], dtype=float)
        out.append((dec, theta, Nd))
    return out


def equilibrium_unaware(params: MarketParams, d_r, da):
    """Closed-form competitive equilibrium with day-ahead-unaware bids.

    The price is proportional to residual demand, price = omega * d_r, and
    omega solves the one-dimensional fixed point of the bid first-order
    conditions combined with the balance requirement:

        omega = (1 + sum_j <g_j_da, d_r>/||d_r||^2
                   + sum_s <theta_s, N_s d_r>/(b_s ||N_s d_r||^2)) / K,
        K = sum_j 1/c_j + sum_s ||d_r||^2 / (b_s ||N_s d_r||^2).

    When the day-ahead dual of periodicity is zero or the residual sums to
    zero this reduces to the price-plus-aggregate-slope form
    omega = <lambda_da, d_r>/||d_r||^2 + 1/K.  The half-cycle map of each
    storage is required to survive the adjustment; a violated map is flagged
    on the result, never silently accepted.
    """
    d_r = np.asarray(d_r, dtype=float)
    norm2 = float(d_r @ d_r)
    if norm2 <= 0.0:
        raise DegenerateDemandError("zero residual demand: proportional price undefined")
    c_inv = np.array([1.0 / gen.c for gen in params.generators])
    storage_terms = _storage_da_quantities(params, da, d_r)

    K = float(c_inv.sum())
    numer = 1.0
    for j in range(params.n_generators):
        numer += float(da.g[j] @ d_r) / norm2
    for s, st in enumerate(params.storages):
        dec, theta, Nd = storage_terms[s]
        D = float(Nd @ Nd)
        K += norm2 / (st.b * D)
        numer += float(theta @ Nd) / (st.b * D)
    omega = numer / K
    price = omega * d_r

    bids, result = _unaware_from_price(params, da, d_r, price, storage_terms)
    result.price_coeff = omega
    result.iterations = 0
    result.converged = True
    return bids, result


def _unaware_slopes(params, da, price, storage_terms):
    """Both bid first-order conditions evaluated at a clearing price."""
    p2 = float(price @ price)
    alpha_r = np.array([
        1.0 / gen.c - float(da.g[j] @ price) / p2
        for j, gen in enumerate(params.generators)
    ])
    beta_r = np.zeros(params.n_storages)
    for s, st in enumerate(params.storages):
        dec, theta, _ = storage_terms[s]
        Np = dec.map @ price
        denom = float(Np @ Np)
        if denom <= 0.0:
            raise DegeneratePriceError(
                f"price vector produces no cycling through storage {s}'s day-ahead map"
            )
        beta_r[s] = (p2 - float(theta @ Np)) / (st.b * denom)
    return alpha_r, beta_r


def _unaware_from_price(params, da, d_r, price, storage_terms):
    """Evaluate the bid first-order conditions at a price and clear."""
    alpha_r, beta_r = _unaware_slopes(params, da, price, storage_terms)
    g_r = np.outer(alpha_r, price)
    u_r = np.outer(beta_r, price)
    map_stable = True
    for s, st in enumerate(params.storages):
        dec = storage_terms[s][0]
        after = rainflow_map(da.u[s] + u_r[s], st.capacity_E, st.x0)
        if after.signature() != dec.signature():
            map_stable = False
    bids = RealTimeBids(alpha_r=alpha_r, beta_r=beta_r, mode="unaware")
    result = RealTimeResult(
        g_r=g_r, u_r=u_r, price=price, price_coeff=None, iterations=0, converged=True,
        map_stable=map_stable,
        kkt_residual=float(np.max(np.abs(g_r.sum(axis=0) + u_r.sum(axis=0) - d_r)))
        / max(1.0, float(np.max(np.abs(d_r)))),
    )
    return bids, result


def best_response_unaware(params: MarketParams, d_r, da, tol=1e-10, max_iter=200,
                          initial_bids=None):
    """Iterated best response: price update, then slope updates, to a fixed point.

    The price clears the affine bids, lambda = d_r / (sum alpha + sum beta);
    each participant then re-solves its slope first-order condition at that
    price.  Successive prices are damped by 0.5-averaging until contraction
    is evident, and once three iterates exist the scalar aggregate slope is
    Aitken-extrapolated (the update is affine in it, so the extrapolation is
    exact and the loop typically certifies convergence within a few rounds).
    """
    d_r = np.asarray(d_r, dtype=float)
    norm2 = float(d_r @ d_r)
    if norm2 <= 0.0:
        raise DegenerateDemandError("zero residual demand: proportional price undefined")
    storage_terms = _storage_da_quantities(params, da, d_r)

    if initial_bids is not None:
        alpha_r = np.atleast_1d(np.asarray(initial_bids.alpha_r, dtype=float)).copy()
        beta_r = np.atleast_1d(np.asarray(initial_bids.beta_r, dtype=float)).copy() \
            if np.size(initial_bids.beta_r) else np.zeros(0)
    else:
        alpha_r = np.array([1.0 / gen.c for gen in params.generators])
        beta_r = np.array([1.0 / st.b for st in params.storages])

    # Every price update lands on the d_r ray, so the loop reduces to the
    # aggregate slope xi: price = d_r/xi, and the re-bid aggregate F(xi) is
    # affine in xi.  One damped step seeds a secant update, which is exact
    # for an affine map, so convergence is certified within a few rounds.
    xi = float(alpha_r.sum() + beta_r.sum())
    trace = []
    prev_point = None
    price_prev = None
    for it in range(1, max_iter + 1):
        if not np.isfinite(xi) or xi <= 0.0:
            raise DivergenceError(
                f"aggregate real-time slope became nonpositive ({xi:.6g}) at iteration {it}"
            )
        price = d_r / xi
        if price_prev is not None:
            trace.append(float(np.max(np.abs(price - price_prev))))
        price_prev = price
        alpha_r, beta_r = _unaware_slopes(params, da, price, storage_terms)
        F = float(alpha_r.sum() + beta_r.sum())
        if abs(F - xi) <= tol * max(1.0, xi) or (
                trace and trace[-1] <= tol * max(1.0, float(np.max(np.abs(price))))):
            bids, result = _unaware_from_price(params, da, d_r, price, storage_terms)
            result.iterations = it
            result.converged = True
            result.price_coeff = 1.0 / xi
            result.trace = trace
            return bids, result
        if prev_point is not None and abs(xi - prev_point[0]) > 0:
            # secant solve of F(xi) = xi; exact for the affine best response
            slope = (F - prev_point[1]) / (xi - prev_point[0])
            denom = 1.0 - slope
            cand = (F - slope * xi) / denom if abs(denom) > 1e-300 else np.inf
            xi_next = cand if np.isfinite(cand) else 0.5 * (xi + F)
        else:
            # probe point near the start seeds the secant without leaving
            # the positive-slope domain; 0.5-damping is the degenerate backup
            xi_next = xi * 1.01 if F > xi else xi * 0.99
        if not np.isfinite(xi_next) or xi_next <= 0.0:
            raise DivergenceError(
                f"aggregate real-time slope became nonpositive ({xi_next:.6g}) at iteration {it}"
            )
        prev_point = (xi, F)
        xi = xi_next
    raise NonConvergenceError(
        f"best response did not converge in {max_iter} iterations",
        trace=trace,
    )


def equilibrium_aware(params: MarketParams, d_total, da):
    """Closed-form equilibrium with day-ahead-aware bids.

    Slopes are constants: alpha_r = 1/c for each generator and
    beta_r = ||d||^2 / (b * ||N(d) d||^2) for each storage (the price is
    proportional to total demand, and the map is scale invariant, so the
    slope can be evaluated on the demand vector directly).  The price is
    lambda_r = phi * d with 1/phi the aggregate slope, which clears the
    market identically: day-ahead commitments cancel out of the balance.
    """
    d = np.asarray(d_total, dtype=float)
    norm2 = float(d @ d)
    if norm2 <= 0.0:
        raise DegenerateDemandError("zero total demand: proportional price undefined")
    alpha_r = np.array([1.0 / gen.c for gen in params.generators])
    beta_r = np.zeros(params.n_storages)
    for s, st in enumerate(params.storages):
        dec = rainflow_map(d, st.capacity_E, st.x0)
        Nd = dec.map @ d
        denom = float(Nd @ Nd)
        if denom <= 0.0:
            raise DegeneratePriceError(
                "total demand produces no cycling content; the storage slope is unbounded"
            )
        beta_r[s] = norm2 / (st.b * denom)
    phi = 1.0 / float(alpha_r.sum() + beta_r.sum())
    price = phi * d
    g_r = np.outer(alpha_r, price) - da.g
    u_r = np.outer(beta_r, price) - da.u if params.n_storages else np.zeros((0, d.size))
    clearing_err = np.max(np.abs(g_r.sum(axis=0) + (u_r.sum(axis=0) if u_r.size else 0.0)
                                 - (d - np.asarray(da.demand, dtype=float)
                                    if da.demand is not None else d)))
    bids = RealTimeBids(alpha_r=alpha_r, beta_r=beta_r, mode="aware")
    result = RealTimeResult(
        g_r=g_r, u_r=u_r, price=price, price_coeff=phi, iterations=0, converged=True,
        kkt_residual=float(clearing_err) / max(1.0, float(np.max(np.abs(d)))),
    )
    return bids, result


def clear_constrained_aware(bids: RealTimeBids, window_demand, g_committed, u_committed,
                            params: MarketParams, x0s=None, tol=1e-8):
    """Constrained real-time window clearing against day-ahead commitments.

    Optimizes total dispatch (commitment plus adjustment) under the costs the
    aware bids imply: ||g_da + g_r||^2/(2 alpha_r) for generators and the
    cycle cost of u_da + u_r scaled by 1/beta_r for storage.  Constraints are
    the per-interval balance, total power limits, the storage adjustment's
    own rate limits, and the SoC corridor from the realized state of charge;
    periodicity is deliberately absent in real time.  Raises an infeasibility
    error naming the binding interval when the window cannot balance.
    """
    w = np.asarray(window_demand, dtype=float)
    W = w.size
    if W < 1:
        raise InvalidInputError("window must contain at least one interval")
    J, S = params.n_generators, params.n_storages
    g_da = np.asarray(g_committed, dtype=float).reshape(J, W) if J else np.zeros((0, W))
    u_da = np.asarray(u_committed, dtype=float).reshape(S, W) if S else np.zeros((0, W))
    if np.any(bids.alpha_r <= 0):
        raise InvalidInputError("constrained clearing needs positive generator slopes")
    if S and np.any(bids.beta_r <= 0):
        raise InvalidInputError("constrained clearing needs positive storage slopes")
    if x0s is None:
        x0s = [st.x0 for st in params.storages]

    g_lo = np.array([[gen.g_min] * W for gen in params.generators], dtype=float) \
        if J else np.zeros((0, W))
    g_hi = np.array([[gen.g_max] * W for gen in params.generators], dtype=float) \
        if J else np.zeros((0, W))
    u_lo = np.zeros((S, W))
    u_hi = np.zeros((S, W))
    for s, st in enumerate(params.storages):
        # total limit intersected with the adjustment's own rate limit
        u_lo[s] = np.maximum(st.u_min, u_da[s] + st.u_min)
        u_hi[s] = np.minimum(st.u_max, u_da[s] + st.u_max)

    res = solve_market_qp(
        alphas=bids.alpha_r, a_lin=np.zeros(J), betas=bids.beta_r,
        capacities=[st.capacity_E for st in params.storages],
        x0s=x0s, demand=w, g_lo=g_lo, g_hi=g_hi, u_lo=u_lo, u_hi=u_hi,
        periodic=False, soc_bounds=True, tol=tol,
    )
    g_r = res.g - g_da
    u_r = res.u - u_da
    return RealTimeResult(
        g_r=g_r, u_r=u_r, price=res.price, price_coeff=None,
        iterations=res.iterations, converged=True, kkt_residual=res.kkt_residual,
    )
