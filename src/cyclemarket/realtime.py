"""Real-time market mechanisms on top of a cleared day-ahead schedule.

Two bidding styles are provided.  In the first (``unaware``) participants bid
plain affine supply functions g = alpha*price, u = beta*price while folding
their day-ahead position into the slope choice; the competitive equilibrium
exists uniquely and has a closed form (``equilibrium_unaware``).  The
best-response iteration the mechanism implies (``best_response_unaware``)
reaches the same point; it stays as the paper's dynamics and as the closed
form's test oracle.  The price coefficient may be negative (the price then
runs opposite to residual demand), and the iteration reaches it there too.
Every price of the iteration lies on the residual-demand ray,
price = d_r/xi, where each participant's first-order slope is affine in xi,
slope_i = k_i - xi*m_i.  The table of (k_i, m_i) (``_slope_table``) and the
clearing arithmetic (``_clear_unaware``, ``_unaware_results``) take one row
per window: the rolling simulation's unaware windows are independent, so
its day clears all of them in one pass, and both solvers run the same code
on one window (``_unaware_table``); the loop runs on the table's scalars,
and the final bids are k - xi*m.  ``map_stable`` checks, when called,
whether an adjustment keeps each unit's day-ahead half-cycle map.  In the
second (``aware``) the bid itself subtracts the day-ahead commitment,
g = alpha*price - g_da; the equilibrium slopes are constants and clearing
is a single algebraic step.  The rolling case-study windows use
``clear_constrained_aware``, which re-optimizes total dispatch subject to
power limits and the SoC corridor without periodicity.
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


def _dots(rows, v):
    """Each row's dot product with ``v``, as one 1-d product per row: one
    stacked call gives the bits a loop of ``row @ v`` does."""
    return (rows[:, None, :] @ v[:, None])[:, 0, 0]


def _check_residual(d_r, T):
    if d_r.shape != (T,) or not np.isfinite(d_r).all():
        raise InvalidInputError(f"residual demand must be a finite vector of {T} intervals")


def _storage_terms(groups, d_r, S):
    """D_s = ||N_s d_r||^2 and <theta_s, N_s d_r> per storage unit, with
    N d_r formed once per map.

    ``groups`` lists (map, units, thetas) in the order of each group's first
    unit: one half-cycle decomposition, the units that read it, and their
    per-cycle prices, one row per unit.  A map without half-cycles, or one
    that ``d_r`` does not cycle, raises ``DegeneratePriceError`` naming its
    first unit: that unit's real-time slope is unbounded.
    """
    D, tN = np.empty(S), np.empty(S)
    for dec, units, thetas in groups:
        if dec.n_half_cycles == 0:
            raise DegeneratePriceError(
                f"storage {units[0]} has no day-ahead cycling; its real-time slope is unbounded"
            )
        Nd = dec.map @ d_r
        D_map = float(Nd @ Nd)
        if D_map <= 0.0:
            raise DegeneratePriceError(
                f"residual demand produces no cycling through storage {units[0]}'s day-ahead map"
            )
        D[units] = D_map
        tN[units] = _dots(thetas, Nd)
    return D, tN


def _slope_table(params, norm2, gd, D, tN, storage):
    """Each unaware participant's first-order slope on the residual-demand
    ray, one row per window.

    At price = d_r / xi participant i re-bids k_i - xi * m_i (generators
    first): k_j = 1/c_j and m_j = <g_j, d_r>/||d_r||^2 for a generator, and
    k_s = ||d_r||^2/(b_s D_s), m_s = <theta_s, N_s d_r>/(b_s D_s) with
    D_s = ||N_s d_r||^2 for a storage unit.  The inputs hold ||d_r||^2,
    <g_j, d_r>, D_s and <theta_s, N_s d_r> per window.  Returns
    (k, m, K, B, numer): the slopes sum to F(xi) = K - xi * B, and
    F(xi) = xi gives omega = 1/xi = numer / K with numer = 1 + B, each sum
    taken term by term in participant order.  A window whose ``storage``
    is False clears generators only: its storage terms are 0 and its sums
    run over the generators.
    """
    J = params.n_generators
    b = np.array([st.b for st in params.storages])
    k_gen = np.array([1.0 / gen.c for gen in params.generators])
    bD = b * D
    cycles = storage[:, None]
    k = np.concatenate([np.broadcast_to(k_gen, gd.shape),
                        np.divide(norm2[:, None], bD, out=np.zeros_like(bD), where=cycles)], axis=1)
    m = np.concatenate([gd / norm2[:, None],
                        np.divide(tN, bD, out=np.zeros_like(bD), where=cycles)], axis=1)
    K = np.full(norm2.size, float(k_gen.sum()))
    numer, B = np.ones(norm2.size), np.zeros(norm2.size)
    for i in range(k.shape[1]):
        if i >= J:
            K = K + k[:, i]
        numer = numer + m[:, i]
        B = B + m[:, i]
    return k, m, K, B, numer


def _unaware_table(params, da, d_r):
    """One window's row of ``_slope_table``, read from the day-ahead view
    ``da``: returns k and m as vectors and K, B and numer as floats.
    A ``d_r`` that is not a finite vector over the view's horizon raises
    ``InvalidInputError``, a zero one ``DegenerateDemandError``, and a
    storage map it does not cycle ``DegeneratePriceError``.
    """
    _check_residual(d_r, da.g.shape[1])
    norm2 = float(d_r @ d_r)
    if norm2 <= 0.0:
        raise DegenerateDemandError("zero residual demand: proportional price undefined")
    groups = {}
    for s in range(params.n_storages):
        groups.setdefault(id(da.maps[s]), (da.maps[s], []))[1].append(s)
    D, tN = _storage_terms(
        [(dec, units, np.array([da.cycle_prices[s] for s in units], dtype=float))
         for dec, units in groups.values()], d_r, params.n_storages)
    k, m, K, B, numer = _slope_table(params, np.array([norm2]), _dots(da.g, d_r)[None],
                                     D[None], tN[None], np.array([True]))
    return k[0], m[0], float(K[0]), float(B[0]), float(numer[0])


def _unaware_results(params, d_r, slopes, price, coeff):
    """Windows of one length, one row each: bids ``slopes`` (generators,
    then storage) cleared at ``price`` against residual demand ``d_r``, with
    ``coeff`` the price coefficient of each.  Returns one ``RealTimeResult``
    per row; slopes that are not finite raise ``InvalidInputError``."""
    if not np.isfinite(slopes).all():
        raise InvalidInputError("real-time bid slopes must be finite")
    J = params.n_generators
    g_r = slopes[:, :J, None] * price[:, None, :]
    u_r = slopes[:, J:, None] * price[:, None, :]
    residual = np.max(np.abs(g_r.sum(axis=1) + u_r.sum(axis=1) - d_r), axis=1) \
        / np.maximum(1.0, np.max(np.abs(d_r), axis=1))
    return [RealTimeResult(g_r=g_r[i], u_r=u_r[i], price=price[i], price_coeff=coeff[i],
                           iterations=0, kkt_residual=float(residual[i]))
            for i in range(len(coeff))]


def _clear_unaware(params, d_r, k, m, K, numer):
    """The closed form on windows of one length, one row each, from their
    rows of the slope table: omega = numer / K, bids k - m / omega and
    price omega * d_r.  Returns the bids and one ``RealTimeResult`` per
    row."""
    omega = [float(num) / float(den) for num, den in zip(numer, K)]
    col = np.array(omega)[:, None]
    slopes = k - m / col
    return slopes, _unaware_results(params, d_r, slopes, col * d_r, omega)


def _bids(params, slopes):
    J = params.n_generators
    return RealTimeBids(alpha_r=slopes[:J], beta_r=slopes[J:])


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
    whether it does.  This is the rolling day's clearing on one window.
    """
    d_r = np.asarray(d_r, dtype=float)
    k, m, K, _, numer = _unaware_table(params, da, d_r)
    slopes, (result,) = _clear_unaware(params, d_r[None], k[None], m[None], [K], [numer])
    return _bids(params, slopes[0]), result


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
            slopes = k - xi * m
            (result,) = _unaware_results(params, d_r[None], slopes[None], (d_r / xi)[None],
                                         [inv])
            result.iterations = it
            return _bids(params, slopes), result
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
    per storage, with d mapped once per ``(capacity_E, x0)``; raises
    ``DegeneratePriceError`` when d has no cycling content, since the
    storage slope is then unbounded, and ``InvalidInputError`` when d is
    not a vector.
    """
    d = np.asarray(d_total, dtype=float)
    if d.ndim != 1:
        raise InvalidInputError("total demand must be a vector")
    norm2 = float(d @ d)
    alpha_r = np.array([1.0 / gen.c for gen in params.generators])
    beta_r = np.zeros(params.n_storages)
    denoms = {}  # ||N(d) d||^2 per (capacity_E, x0)
    for s, st in enumerate(params.storages):
        key = (st.capacity_E, st.x0)
        if key not in denoms:
            Nd = rainflow_map(d, *key).map @ d
            denoms[key] = float(Nd @ Nd)
        denom = denoms[key]
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
    A ``da`` whose schedule does not cover d's intervals raises
    ``InvalidInputError``.
    """
    d = np.asarray(d_total, dtype=float)
    if d.ndim != 1 or da.g.shape != (params.n_generators, d.size) \
            or da.u.shape != (params.n_storages, d.size):
        raise InvalidInputError("the day-ahead schedule must cover the total demand's intervals")
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

    Bids that do not match the participant lists, commitments not shaped
    (J, W) and (S, W), and ``x0s`` other than one state of charge in
    [0, 1] per unit raise ``InvalidInputError``.
    """
    w = np.asarray(window_demand, dtype=float)
    W = w.size
    if w.ndim != 1 or W < 1:
        raise InvalidInputError("window must be a vector of at least one interval")
    J, S = params.n_generators, params.n_storages
    if bids.alpha_r.size != J or bids.beta_r.size != S:
        raise InvalidInputError("bid vector sizes must match the participant lists")
    g_da, u_da = np.asarray(g_committed, dtype=float), np.asarray(u_committed, dtype=float)
    if g_da.shape != (J, W) or u_da.shape != (S, W):
        raise InvalidInputError(f"commitments must be shaped ({J}, {W}) and ({S}, {W})")
    if np.any(bids.alpha_r <= 0):
        raise InvalidInputError("constrained clearing needs positive generator slopes")
    if np.any(bids.beta_r <= 0):
        raise InvalidInputError("constrained clearing needs positive storage slopes")
    x0s = np.asarray([st.x0 for st in params.storages] if x0s is None else x0s, dtype=float)
    if x0s.shape != (S,) or not np.all((x0s >= 0.0) & (x0s <= 1.0)):
        raise InvalidInputError(f"x0s must hold {S} states of charge in [0, 1]")

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
