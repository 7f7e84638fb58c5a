"""Two-stage case-study engine: two-day day-ahead, hourly rolling real time.

Protocol: the day-ahead market clears once over a 48-hour horizon (Day 1
binding, Day 2 advisory) with equilibrium bids.  Real time then rolls a
24-hour window forward hour by hour; each window sees the realized demand
for its first (binding) interval and the forecast for the rest, re-optimizes
total dispatch without a periodicity requirement, and commits only the
binding interval.  The realized state of charge carries across hours.
Settlement pays day-ahead quantities at day-ahead prices, adjustments at the
binding real-time price, and reports profits net of realized costs.
"""

from dataclasses import dataclass

import numpy as np

from .costs import MarketParams, generator_cost, storage_cost
from .data import DemandScenario
from .dayahead import DayAheadResult, clear_general, clear_uniform, equilibrium_bids_dayahead
from .errors import DegeneratePriceError, InfeasibleError, InvalidInputError
from .qp import idle_dispatch
from .rainflow import rainflow_map
from .realtime import (
    MODES,
    RealTimeResult,
    _clear_unaware,
    _dots,
    _residual_norm2,
    _slope_table,
    _storage_terms,
    aware_bids,
    best_response_unaware,  # unused here: perfbench's tracing hooks it by name
    clear_constrained_aware,
    equilibrium_unaware,  # unused here: perfbench's tracing hooks it by name
)

__all__ = [
    "MechanismConfig",
    "Settlement",
    "SimulationRecord",
    "run_day_ahead",
    "run_real_time",
    "settle",
    "run_two_stage",
]

BINDING_HOURS = 24
WINDOW_HOURS = 24
CLEARINGS = ("general", "uniform")


@dataclass
class MechanismConfig:
    """How the two-stage engine clears day ahead (defaults follow the case study)."""

    clearing: str = "general"          # "general" (with limits) or "uniform"
    enforce_soc_bounds: bool = True    # day-ahead SoC corridor (general clearing)


@dataclass
class Settlement:
    generator_payments: np.ndarray
    storage_payments: np.ndarray
    generator_profits: np.ndarray
    storage_profits: np.ndarray
    social_cost: float
    merchandising_surplus: float
    storage_cycle_payments: np.ndarray  # theta' nu over binding intervals


@dataclass
class SimulationRecord:
    da_result: DayAheadResult
    rt_steps: list                      # one RealTimeResult per binding hour
    settlement: Settlement
    g_rt: np.ndarray                    # (J, 24) committed adjustments
    u_rt: np.ndarray                    # (S, 24)
    rt_prices: np.ndarray               # (24,) binding-interval prices
    realized_soc: np.ndarray            # (S, 25) across the binding day

    @property
    def social_cost(self):
        """The settlement's social cost, the sum of realized costs."""
        return self.settlement.social_cost

    @property
    def soc_outside_corridor(self):
        """How many states of charge after a binding hour leave [0, 1] by over 1e-9."""
        soc = self.realized_soc[:, 1:]
        return int(np.count_nonzero((soc < -1e-9) | (soc > 1.0 + 1e-9)))


def run_day_ahead(scenario: DemandScenario, params: MarketParams,
                  mechanism_config: MechanismConfig | None = None) -> DayAheadResult:
    """Clear the day-ahead market over the full two-day forecast horizon.

    Intervals 0..23 are binding, 24..47 advisory; the advisory tail exists so
    late real-time windows have committed quantities to adjust against, and
    is excluded from settlement.
    """
    cfg = mechanism_config or MechanismConfig()
    if cfg.clearing not in CLEARINGS:
        raise InvalidInputError(f"clearing must be one of {CLEARINGS}, got {cfg.clearing!r}")
    if scenario.horizon < BINDING_HOURS:
        raise InfeasibleError("day-ahead horizon must cover at least the binding day")
    bids = equilibrium_bids_dayahead(params)
    if cfg.clearing == "uniform":
        return clear_uniform(bids, scenario.forecast, params)
    return clear_general(bids, scenario.forecast, params, enforce_soc_bounds=cfg.enforce_soc_bounds)


def _window_demand(scenario, hour):
    """Realized demand for the binding interval, forecast for the rest."""
    end = min(hour + WINDOW_HOURS, scenario.horizon)
    w = scenario.forecast[hour:end].copy()
    w[0] = scenario.actual[hour]
    return w


def _storage_groups(params, da):
    """The storage units that read one half-cycle map in every window, as
    (units, capacity_E, x0, b) in the order of each group's first unit, with
    ``b`` the units' cycle cost coefficients.  Under a uniform result
    (``da.shares`` set) a group holds the units of one ``(capacity_E, x0)``,
    as ``clear_uniform`` maps the aggregate dispatch; a general result keeps
    one map per unit."""
    groups = {}
    for s, st in enumerate(params.storages):
        groups.setdefault(s if da.shares is None else (st.capacity_E, st.x0), []).append(s)
    return [(units, params.storages[units[0]].capacity_E, params.storages[units[0]].x0,
             np.array([params.storages[s].b for s in units])) for units in groups.values()]


def _window_maps(groups, u_idle, hour, end):
    """Per storage group of ``_storage_groups``, the window's half-cycle map
    of the group's total idle dispatch, with each member's depths
    nu_s = N u_s and bid-consistent cycle prices theta_s = b_s nu_s
    (beta = 1/b), one row per member: yields (map, units, nu, theta)."""
    for units, capacity_E, x0, b in groups:
        U = u_idle[units, hour:end]
        dec = rainflow_map(U.sum(axis=0), capacity_E, x0)
        nu = (dec.map @ U[:, :, None])[:, :, 0]
        yield dec, units, nu, b[:, None] * nu


def _window_da_view(da, params, hour, end, u_idle):
    """Day-ahead quantities restricted to a window, with window-local
    cycle structure (maps, depths, prices) so the unaware-bid formulas stay
    self-consistent.  The maps and depths read ``u_idle``, the day-ahead
    storage dispatch with its rounding-level entries over the whole horizon
    idle (``qp.idle_dispatch``), so they do not follow the sign of those
    entries.

    The units of one storage group (``_storage_groups``) share one map
    object, the map of the group's total idle dispatch over the window;
    where a unit's own map would break an exact SoC tie another way, the
    unit reads the group's.  Depths and prices stay per unit
    (``_window_maps``)."""
    S = params.n_storages
    view = DayAheadResult(
        g=da.g[:, hour:end], u=da.u[:, hour:end], nu=[None] * S,
        energy_price=da.energy_price[hour:end], cycle_prices=[None] * S,
        periodicity_duals=da.periodicity_duals, shares=da.shares,
        objective=0.0, kkt_residual=da.kkt_residual, maps=[None] * S,
    )
    for dec, units, nu, theta in _window_maps(_storage_groups(params, da), u_idle, hour, end):
        for i, s in enumerate(units):
            view.maps[s], view.nu[s], view.cycle_prices[s] = dec, nu[i], theta[i]
    return view


def _check_mode(mode):
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")


def run_real_time(scenario: DemandScenario, params: MarketParams, da: DayAheadResult,
                  mode: str = "aware"):
    """Roll 24-hour windows across the binding day, committing one hour each.

    Both modes step through one loop over the binding hours.  The realized
    state of charge lives in the returned ``soc`` (S, 25) alone: hour h
    reads column h clamped to [0, 1], and column h + 1 is that value less
    the hour's total storage dispatch over E, recorded unclamped.  The
    commitments ``g_rt`` (J, 24), ``u_rt`` (S, 24) and ``prices`` (24,)
    are the steps' first entries.
    ``aware`` mode re-optimizes total dispatch under the constant equilibrium
    slopes with power limits and the SoC corridor (no periodicity).  Each
    window is seeded near its optimum with one (g, u) pair: window 0 with the
    day-ahead schedule over its intervals, and each later window with the
    previous window's total dispatch shifted by one hour, at 0 in the hour
    it appends (a window cut short by the horizon appends none).  The
    window's solve repairs the seed's balance, the generators taking up what
    is left within their limits; a seed that then breaks a limit or the SoC
    corridor is ignored and the window starts cold.  On the bundled fixture
    every window then agrees with a cold start to 1e-11; where the cycle
    cost has several certified points (a rainflow tie, a two-map kink) a
    seed may select another of them.
    ``unaware`` mode clears each window at the balance-only equilibrium in
    closed form, the simplified setting its theory covers; power limits are
    not imposed on those adjustments.  No unaware window reads the state of
    charge, so the windows are independent and the day clears in one pass
    (``_unaware_day``) before the loop; ``equilibrium_unaware`` is the same
    code on one window.  After uniform clearing each window builds one
    half-cycle map per storage group, units of one capacity and initial
    state of charge, rather than one per unit (``_storage_groups``).  Any
    other mode raises ``InvalidInputError``.
    """
    _check_mode(mode)
    if scenario.n_realized < BINDING_HOURS:
        raise InfeasibleError(
            f"need {BINDING_HOURS} realized hours, have {scenario.n_realized}"
        )
    J, S = params.n_generators, params.n_storages
    E = np.array([st.capacity_E for st in params.storages])
    soc = np.empty((S, BINDING_HOURS + 1))
    soc[:, 0] = [st.x0 for st in params.storages]
    steps = _unaware_day(scenario, params, da) if mode == "unaware" else []
    seed = da.g[:, :WINDOW_HOURS], da.u[:, :WINDOW_HOURS]
    for hour in range(BINDING_HOURS):
        x0 = np.clip(soc[:, hour], 0.0, 1.0)  # binding-solve noise can overshoot by ~1e-14
        if mode == "aware":
            end = min(hour + WINDOW_HOURS, scenario.horizon)
            res = _aware_window(_window_demand(scenario, hour), da, params, hour, end, x0, seed)
            steps.append(res)
            tail = np.zeros((J + S, min(end + 1, scenario.horizon) - end))
            seed = (np.hstack([(da.g[:, hour:end] + res.g_r)[:, 1:], tail[:J]]),
                    np.hstack([(da.u[:, hour:end] + res.u_r)[:, 1:], tail[J:]]))
        soc[:, hour + 1] = x0 - (da.u[:, hour] + steps[hour].u_r[:, 0]) / E
    g_rt = np.stack([res.g_r[:, 0] for res in steps], axis=1)
    u_rt = np.stack([res.u_r[:, 0] for res in steps], axis=1)
    prices = np.array([res.price[0] for res in steps])
    return steps, g_rt, u_rt, prices, soc


def _aware_window(w, da, params, hour, end, x0s, start):
    # constant slopes; the storage slope tracks the window's total demand
    try:
        bids = aware_bids(params, w)
    except DegeneratePriceError as exc:
        raise DegeneratePriceError(f"window at hour {hour} has no cycling content") from exc
    try:
        return clear_constrained_aware(
            bids, w, da.g[:, hour:end], da.u[:, hour:end], params, x0s=x0s, start=start,
        )
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"real-time window at hour {hour} infeasible: {exc}", interval=hour
        ) from exc


def _unaware_day(scenario, params, da):
    """Every binding hour's unaware window, cleared in one pass.

    No window reads the state of charge, so the windows are independent.
    Per window only what reads its maps is formed: one map per storage
    group (``_window_maps``), and N d_r once per map with the dot products
    on it (``realtime._storage_terms``), collected as one record per
    window that clears.  The slope table, omega, the bids, prices,
    adjustments and residuals of all windows are then formed as arrays, by
    the code ``equilibrium_unaware`` runs on one window.  A residual that
    breaks ``realtime._residual_norm2`` raises ``InvalidInputError`` naming
    its hour; a window without residual demand adjusts nothing; one whose
    maps the residual does not cycle clears with generators only, on the
    generator terms of the same table, and raises ``DegeneratePriceError``
    naming its hour where there are none.
    """
    J, S = params.n_generators, params.n_storages
    u_idle = idle_dispatch(da.u)
    groups = _storage_groups(params, da)
    steps = [None] * BINDING_HOURS
    windows = []  # per clearing window: hour, d_r, ||d_r||^2, <g, d_r>, D, <theta, N d_r>, cycles
    for hour in range(BINDING_HOURS):
        end = min(hour + WINDOW_HOURS, scenario.horizon)
        w = _window_demand(scenario, hour)
        d_r = w - scenario.forecast[hour:end]
        W = w.size
        n2 = _residual_norm2(d_r, W, f"residual demand at hour {hour}")
        if n2 <= 1e-24 * max(1.0, float(w @ w)):
            steps[hour] = RealTimeResult(
                g_r=np.zeros((J, W)), u_r=np.zeros((S, W)), price=np.zeros(W),
                price_coeff=0.0, iterations=0,
            )
            continue
        maps = [(dec, units, theta) for dec, units, _, theta
                in _window_maps(groups, u_idle, hour, end)]
        try:
            D, tN = _storage_terms(maps, d_r, S)
            cycles = True
        except DegeneratePriceError as exc:
            if not J:
                raise DegeneratePriceError(f"unaware window at hour {hour} has no generator, "
                                           "and its residual cycles no storage") from exc
            # storage schedule is flat inside this window: generators only
            D, tN, cycles = np.zeros(S), np.zeros(S), False
        windows.append((hour, d_r, n2, _dots(da.g[:, hour:end], d_r), D, tN, cycles))
    if not windows:
        return steps
    hours, d_rs, norm2, gd, D, tN, storage = zip(*windows)
    k, m, K, _, numer = _slope_table(params, *map(np.array, (norm2, gd, D, tN, storage)))
    by_length = {}  # a horizon that cuts windows short gives them fewer hours
    for i, d_r in enumerate(d_rs):
        by_length.setdefault(d_r.size, []).append(i)
    for rows in by_length.values():
        _, results = _clear_unaware(params, np.array([d_rs[i] for i in rows]),
                                    k[rows], m[rows], K[rows], numer[rows])
        for i, res in zip(rows, results):
            if not storage[i]:
                res.u_r = np.zeros((S, d_rs[i].size))
            steps[hours[i]] = res
    return steps


def settle(da: DayAheadResult, rt_prices, g_rt, u_rt, scenario: DemandScenario,
           params: MarketParams) -> Settlement:
    """Payments and profits over the binding day.

    Day-ahead quantities settle at the day-ahead energy price for every
    participant; adjustments settle at the binding-interval real-time price.
    For storage, the energy settlement decomposes exactly into the per-cycle
    payment theta' nu plus power-limit rents plus the periodicity dual times
    net energy (zero), so with slack limits it coincides with the per-cycle
    payment; the pure cycle component is reported alongside
    (``storage_cycle_payments``).  Settling energy keeps the three
    strategies' storage profits on one scale when the rate limits bind.
    Profit nets the realized cost of total dispatch; social cost is the sum
    of realized costs.
    """
    J, S = params.n_generators, params.n_storages
    B = BINDING_HOURS
    lam_da = da.energy_price[:B]
    gen_cost = [generator_cost(da.g[j, :B] + g_rt[j], gen)
                for j, gen in enumerate(params.generators)]
    st_cost = [storage_cost(da.u[s, :B] + u_rt[s], st) for s, st in enumerate(params.storages)]
    gen_pay = np.array([float(lam_da @ da.g[j, :B]) + float(rt_prices @ g_rt[j])
                        for j in range(J)])
    st_pay = np.array([float(lam_da @ da.u[s, :B]) + float(rt_prices @ u_rt[s])
                       for s in range(S)])
    st_cycle_pay = np.array([float(da.cycle_prices[s] @ (da.maps[s].map[:, :B] @ da.u[s, :B]))
                             for s in range(S)])
    load_paid = float(lam_da @ scenario.forecast[:B]) + float(rt_prices @ scenario.residual[:B])
    surplus = load_paid - float(gen_pay.sum() + st_pay.sum())
    return Settlement(
        generator_payments=gen_pay, storage_payments=st_pay,
        generator_profits=gen_pay - gen_cost, storage_profits=st_pay - st_cost,
        social_cost=float(sum(gen_cost) + sum(st_cost)), merchandising_surplus=surplus,
        storage_cycle_payments=st_cycle_pay,
    )


def run_two_stage(scenario: DemandScenario, params: MarketParams, mode: str = "aware",
                  mechanism_config: MechanismConfig | None = None) -> SimulationRecord:
    """Full protocol: clear day ahead, roll real time, settle; a ``mode``
    that ``run_real_time`` rejects raises before the day-ahead clearing."""
    _check_mode(mode)
    cfg = mechanism_config or MechanismConfig()
    da = run_day_ahead(scenario, params, cfg)
    steps, g_rt, u_rt, prices, soc = run_real_time(scenario, params, da, mode=mode)
    settlement = settle(da, prices, g_rt, u_rt, scenario, params)
    return SimulationRecord(da_result=da, rt_steps=steps, settlement=settlement,
                            g_rt=g_rt, u_rt=u_rt, rt_prices=prices, realized_soc=soc)
