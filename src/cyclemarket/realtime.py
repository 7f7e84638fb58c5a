"""Real-time market mechanisms on top of a cleared day-ahead schedule.

Two bidding styles are provided.  In the first (``unaware``) participants bid
plain affine supply functions g = alpha*price, u = beta*price while folding
their day-ahead position into the slope choice; the competitive equilibrium
exists uniquely and has a closed form (``equilibrium_unaware``), at which
the rolling windows clear.  The best-response iteration the mechanism
implies (``best_response_unaware``) reaches the same point; it stays as the
paper's dynamics and as the closed form's test oracle.  The price
coefficient may be negative (the price then runs opposite to residual
demand), and the iteration reaches it there too.  Every price of the
iteration lies on the residual-demand ray, price = d_r/xi, where each
participant's first-order slope is affine in xi, slope_i = k_i - xi*m_i.
One table of (k_i, m_i) per window (``_unaware_table``) is the only place
those conditions are evaluated: both solvers read its sums, the loop runs
on scalars, and the final bids are k - xi*m.  ``map_stable`` checks, when
called, whether an adjustment keeps each unit's day-ahead half-cycle map.  In the second (``aware``) the bid
itself subtracts the day-ahead commitment, g = alpha*price - g_da; the
equilibrium slopes are constants and clearing is a single algebraic step.  The rolling case-study
windows use ``clear_constrained_aware``, which re-optimizes total dispatch
subject to power limits and the SoC corridor without periodicity.
"""

from dataclasses import dataclass

import numpy as np

from .costs import MarketParams
from .errors import (
    DegenerateDemandError,
    DegeneratePriceError,
    DivergenceError,
    InvalidInputError,
    NonConvergenceError,
)
from .qp import dispatch_map, solve_market_qp
from .rainflow import rainflow_map

__all__ = [
    "MODES",
    "RealTimeBids",
    "RealTimeResult",
    "equilibrium_unaware",
    "best_response_unaware",
    "map_stable",
    "aware_bids",
    "equilibrium_aware",
    "clear_constrained_aware",
]

MODES = ("aware", "unaware")


@dataclass
class RealTimeBids:
    alpha_r: np.ndarray  # per generator
    beta_r: np.ndarray   # per storage

    def __post_init__(self):
        self.alpha_r = np.atleast_1d(np.asarray(self.alpha_r, dtype=float))
        self.beta_r = np.atleast_1d(np.asarray(self.beta_r, dtype=float)) \
            if np.size(self.beta_r) else np.zeros(0)
        if not (np.all(np.isfinite(self.alpha_r)) and np.all(np.isfinite(self.beta_r))):
            raise InvalidInputError("real-time bid slopes must be finite")


@dataclass
class RealTimeResult:
    g_r: np.ndarray                 # (J, T) generator adjustments
    u_r: np.ndarray                 # (S, T) storage adjustments
    price: np.ndarray               # (T,) real-time price
    price_coeff: float | None       # proportionality scalar (price = coeff * demand vector)
    iterations: int
    kkt_residual: float | None = None


def _unaware_table(params, da, d_r):
    """Each unaware participant's first-order slope on the residual-demand ray.

    At price = d_r / xi participant i re-bids k_i - xi * m_i (generators
    first): k_j = 1/c_j and m_j = <g_j, d_r>/||d_r||^2 for a generator, and
    k_s = ||d_r||^2/(b_s D_s), m_s = <theta_s, N_s d_r>/(b_s D_s) with
    D_s = ||N_s d_r||^2 for a storage unit.  Returns (k, m, K, B, numer):
    the slopes sum to F(xi) = K - xi * B, and F(xi) = xi gives
    omega = 1/xi = numer / K with numer = 1 + B, both summed term by term.
    A ``d_r`` that is not a finite vector over the view's horizon raises
    ``InvalidInputError``.
    """
    if d_r.shape != da.g.shape[1:] or not np.isfinite(d_r).all():
        raise InvalidInputError(
            f"residual demand must be a finite vector of {da.g.shape[1]} intervals")
    norm2 = float(d_r @ d_r)
    if norm2 <= 0.0:
        raise DegenerateDemandError("zero residual demand: proportional price undefined")
    J = params.n_generators
    k = np.empty(J + params.n_storages)
    m = np.empty_like(k)
    for j, gen in enumerate(params.generators):
        k[j] = 1.0 / gen.c
        m[j] = float(da.g[j] @ d_r) / norm2
    for s, st in enumerate(params.storages):
        dec = da.maps[s]
        if dec.n_half_cycles == 0:
            raise DegeneratePriceError(
                f"storage {s} has no day-ahead cycling; its real-time slope is unbounded"
            )
        Nd = dec.map @ d_r
        D = float(Nd @ Nd)
        if D <= 0.0:
            raise DegeneratePriceError(
                f"residual demand produces no cycling through storage {s}'s day-ahead map"
            )
        k[J + s] = norm2 / (st.b * D)
        m[J + s] = float(np.asarray(da.cycle_prices[s], dtype=float) @ Nd) / (st.b * D)
    K = float(k[:J].sum())
    for term in k[J:].tolist():
        K += term
    numer, B = 1.0, 0.0
    for term in m.tolist():
        numer += term
        B += term
    return k, m, K, B, numer


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
    storage is required to survive the adjustment; ``map_stable`` reports
    whether it does.
    """
    d_r = np.asarray(d_r, dtype=float)
    k, m, K, _, numer = _unaware_table(params, da, d_r)
    omega = numer / K
    return _unaware_result(params, d_r, k - m / omega, omega * d_r, omega)


def _unaware_result(params, d_r, slopes, price, coeff):
    """Bids ``slopes`` (generators, then storage) cleared at ``price``,
    which is ``coeff * d_r``."""
    J = params.n_generators
    bids = RealTimeBids(alpha_r=slopes[:J], beta_r=slopes[J:])
    g_r = np.outer(bids.alpha_r, price)
    u_r = np.outer(bids.beta_r, price)
    return bids, RealTimeResult(
        g_r=g_r, u_r=u_r, price=price, price_coeff=coeff, iterations=0,
        kkt_residual=float(np.max(np.abs(g_r.sum(axis=0) + u_r.sum(axis=0) - d_r)))
        / max(1.0, float(np.max(np.abs(d_r)))),
    )


def map_stable(params: MarketParams, da, result) -> bool:
    """Whether each storage's ``qp.dispatch_map`` of u_da + u_r equals its
    day-ahead map in ``da``; runs the check on each call."""
    return all(dispatch_map(da.u[s] + result.u_r[s], st.capacity_E, st.x0).signature()
               == da.maps[s].signature() for s, st in enumerate(params.storages))


def best_response_unaware(params: MarketParams, d_r, da, tol=1e-10, max_iter=200,
                          initial_bids=None):
    """Iterated best response: price update, then slope updates, to a fixed point.

    The price clears the affine bids, lambda = d_r / (sum alpha + sum beta);
    each participant then re-solves its slope first-order condition at that
    price.  Every price lies on the d_r ray, so the loop tracks the scalar
    aggregate slope xi, whose re-bid value F(xi) = K - xi * B is affine
    in xi with coefficients summed once per window from the slope table the
    closed form reads (``_unaware_table``); an iteration is a few float
    operations, with no matrix product.  The first step probes 1 % from the
    start toward F; from then on secant steps solve F(xi) = xi, which is
    exact for an affine map, so the loop typically certifies convergence
    within a few rounds, also at a negative fixed point (price opposite to
    residual demand).  Only a zero or non-finite aggregate slope raises
    ``DivergenceError``.  The bids and result are evaluated once, at the
    final xi, as k - xi * m.
    """
    d_r = np.asarray(d_r, dtype=float)
    k, m, K, B, _ = _unaware_table(params, da, d_r)
    d_max = float(np.max(np.abs(d_r)))

    if initial_bids is None:
        xi = float(np.array([1.0 / gen.c for gen in params.generators]).sum()
                   + np.array([1.0 / st.b for st in params.storages]).sum())
    elif (initial_bids.alpha_r.size, initial_bids.beta_r.size) != (
            params.n_generators, params.n_storages):
        raise InvalidInputError("initial bid sizes must match the participant lists")
    else:
        xi = float(initial_bids.alpha_r.sum() + initial_bids.beta_r.sum())
    trace = []
    prev_point = None
    inv_prev = None
    for it in range(1, max_iter + 1):
        if not np.isfinite(xi) or xi == 0.0:
            raise DivergenceError(
                f"aggregate real-time slope is zero or non-finite ({xi:.6g}) at iteration {it}"
            )
        # the price d_r / xi, through its coefficient: max |price - price_prev|
        # and max |price| are d_max times |1/xi - 1/xi_prev| and 1/|xi|
        inv = 1.0 / xi
        if inv_prev is not None:
            trace.append(abs(inv - inv_prev) * d_max)
        inv_prev = inv
        F = K - xi * B
        # relative above 1, absolute below (every negative xi), so a fixed
        # point reached by extrapolating across xi = 0 gets one more secant step
        if abs(F - xi) <= tol * max(1.0, xi) or (
                trace and trace[-1] <= tol * max(1.0, d_max / abs(xi))):
            bids, result = _unaware_result(params, d_r, k - xi * m, d_r / xi, inv)
            result.iterations = it
            return bids, result
        if prev_point is not None and abs(xi - prev_point[0]) > 0:
            # secant solve of F(xi) = xi; exact for the affine best response
            slope = (F - prev_point[1]) / (xi - prev_point[0])
            denom = 1.0 - slope
            cand = (F - slope * xi) / denom if abs(denom) > 1e-300 else np.inf
            xi_next = cand if np.isfinite(cand) else 0.5 * (xi + F)
        else:
            # a probe near the start seeds the secant
            xi_next = xi * 1.01 if F > xi else xi * 0.99
        prev_point = (xi, F)
        xi = xi_next
    raise NonConvergenceError(
        f"best response did not converge in {max_iter} iterations",
        trace=trace,
    )


def aware_bids(params: MarketParams, d_total) -> RealTimeBids:
    """Equilibrium day-ahead-aware slopes for a total demand vector.

    alpha_r = 1/c per generator and beta_r = ||d||^2 / (b * ||N(d) d||^2)
    per storage; raises ``DegeneratePriceError`` when d has no cycling
    content, since the storage slope is then unbounded.
    """
    d = np.asarray(d_total, dtype=float)
    norm2 = float(d @ d)
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
    return RealTimeBids(alpha_r=alpha_r, beta_r=beta_r)


def equilibrium_aware(params: MarketParams, d_total, da):
    """Closed-form equilibrium with day-ahead-aware bids.

    Slopes are the constants of ``aware_bids`` (the price is proportional to
    total demand, and the map is scale invariant, so the storage slope can be
    evaluated on the demand vector directly).  The price is
    lambda_r = phi * d with 1/phi the aggregate slope, which clears the
    market identically: day-ahead commitments cancel out of the balance.
    """
    d = np.asarray(d_total, dtype=float)
    if float(d @ d) <= 0.0:
        raise DegenerateDemandError("zero total demand: proportional price undefined")
    bids = aware_bids(params, d)
    phi = 1.0 / float(bids.alpha_r.sum() + bids.beta_r.sum())
    price = phi * d
    g_r = np.outer(bids.alpha_r, price) - da.g
    u_r = np.outer(bids.beta_r, price) - da.u
    clearing_err = np.max(np.abs(g_r.sum(axis=0) + u_r.sum(axis=0)
                                 - (d - da.g.sum(axis=0) - da.u.sum(axis=0))))
    return bids, RealTimeResult(
        g_r=g_r, u_r=u_r, price=price, price_coeff=phi, iterations=0,
        kkt_residual=float(clearing_err) / max(1.0, float(np.max(np.abs(d)))),
    )


def clear_constrained_aware(bids: RealTimeBids, window_demand, g_committed, u_committed,
                            params: MarketParams, x0s=None, start=None):
    """Constrained real-time window clearing against day-ahead commitments.

    Optimizes total dispatch (commitment plus adjustment) under the costs the
    aware bids imply: ||g_da + g_r||^2/(2 alpha_r) for generators and the
    cycle cost of u_da + u_r scaled by 1/beta_r for storage.  Constraints are
    the per-interval balance, total power limits, the storage adjustment's
    own rate limits, and the SoC corridor from the realized state of charge;
    periodicity is deliberately absent in real time.  Raises an infeasibility
    error naming the binding interval when the window cannot balance.

    ``start`` optionally seeds the solve with a total dispatch (commitment
    plus adjustment) as a pair ``(g, u)`` of shapes (J, W) and (S, W).  The
    generators repair its balance, and a start that still breaks a
    constraint is ignored (see ``solve_market_qp``).
    """
    w = np.asarray(window_demand, dtype=float)
    W = w.size
    if w.ndim != 1 or W < 1:
        raise InvalidInputError("window must be a vector of at least one interval")
    J, S = params.n_generators, params.n_storages
    g_da = np.asarray(g_committed, dtype=float).reshape(J, W) if J else np.zeros((0, W))
    u_da = np.asarray(u_committed, dtype=float).reshape(S, W) if S else np.zeros((0, W))
    if np.any(bids.alpha_r <= 0):
        raise InvalidInputError("constrained clearing needs positive generator slopes")
    if S and np.any(bids.beta_r <= 0):
        raise InvalidInputError("constrained clearing needs positive storage slopes")
    if x0s is None:
        x0s = [st.x0 for st in params.storages]

    u_lo = np.zeros((S, W))
    u_hi = np.zeros((S, W))
    for s, st in enumerate(params.storages):
        # total limit intersected with the adjustment's own rate limit
        u_lo[s] = np.maximum(st.u_min, u_da[s] + st.u_min)
        u_hi[s] = np.minimum(st.u_max, u_da[s] + st.u_max)

    res = solve_market_qp(
        alphas=bids.alpha_r, a_lin=np.zeros(J), betas=bids.beta_r,
        capacities=[st.capacity_E for st in params.storages],
        x0s=x0s, demand=w,
        g_lo=[gen.g_min for gen in params.generators],
        g_hi=[gen.g_max for gen in params.generators],
        u_lo=u_lo, u_hi=u_hi,
        periodic=False, soc_bounds=True, start=start,
    )
    g_r = res.g - g_da
    u_r = res.u - u_da
    return RealTimeResult(
        g_r=g_r, u_r=u_r, price=res.price, price_coeff=None,
        iterations=res.iterations, kkt_residual=res.kkt_residual,
    )
