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
    aware_bids,
    best_response_unaware,  # unused here: perfbench's tracing hooks it by this name
    clear_constrained_aware,
    equilibrium_unaware,
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


def _window_da_view(da, params, hour, end, u_idle):
    """Day-ahead quantities restricted to a window, with window-local
    cycle structure (maps, depths, prices) so the unaware-bid formulas stay
    self-consistent.  The maps and depths read ``u_idle``, the day-ahead
    storage dispatch with its rounding-level entries over the whole horizon
    idle (``qp.idle_dispatch``), so they do not follow the sign of those
    entries.

    Under a uniform result (``da.shares`` set) the units of one
    ``(capacity_E, x0)`` form a storage group that shares one map object,
    the map of the group's total idle dispatch over the window, as
    ``clear_uniform`` maps the aggregate dispatch; where a unit's own map
    would break an exact SoC tie another way, the unit reads the group's.
    A general result keeps one map per unit.  Depths and prices stay per
    unit: nu_s = N u_s and theta_s = b_s nu_s."""
    view = DayAheadResult(
        g=da.g[:, hour:end], u=da.u[:, hour:end], nu=[], energy_price=da.energy_price[hour:end],
        cycle_prices=[], periodicity_duals=da.periodicity_duals, shares=da.shares,
        objective=0.0, kkt_residual=da.kkt_residual,
    )
    group_maps = {}
    for s, st in enumerate(params.storages):
        u_s = u_idle[s, hour:end]
        if da.shares is None:
            dec = rainflow_map(u_s, st.capacity_E, st.x0)
        else:
            key = (st.capacity_E, st.x0)
            if key not in group_maps:
                members = [i for i, o in enumerate(params.storages)
                           if (o.capacity_E, o.x0) == key]
                group_maps[key] = rainflow_map(u_idle[members, hour:end].sum(axis=0), *key)
            dec = group_maps[key]
        nu = dec.map @ u_s
        view.maps.append(dec)
        view.nu.append(nu)
        view.cycle_prices.append(st.b * nu)  # bid-consistent local prices (beta = 1/b)
    return view


def run_real_time(scenario: DemandScenario, params: MarketParams, da: DayAheadResult,
                  mode: str = "aware"):
    """Roll 24-hour windows across the binding day, committing one hour each.

    ``aware`` mode re-optimizes total dispatch under the constant equilibrium
    slopes with power limits and the SoC corridor (no periodicity).  Each
    window is seeded near its optimum with a (g, u) pair: window 0 with the
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
    closed form (``equilibrium_unaware``), the simplified setting its theory
    covers; power limits are not imposed on those adjustments.  After
    uniform clearing each window builds one half-cycle map per storage
    group, units of one capacity and initial state of charge, rather than
    one per unit (``_window_da_view``).  Any other mode raises
    ``InvalidInputError``.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    if scenario.n_realized < BINDING_HOURS:
        raise InfeasibleError(
            f"need {BINDING_HOURS} realized hours, have {scenario.n_realized}"
        )
    J, S = params.n_generators, params.n_storages
    steps = []
    g_rt = np.zeros((J, BINDING_HOURS))
    u_rt = np.zeros((S, BINDING_HOURS))
    prices = np.zeros(BINDING_HOURS)
    soc = np.zeros((S, BINDING_HOURS + 1))
    for s, st in enumerate(params.storages):
        soc[s, 0] = st.x0
    x0_run = [st.x0 for st in params.storages]
    prev_g, prev_u = da.g, da.u  # the seed's source, from the window's first hour on
    u_idle = idle_dispatch(da.u)  # what the unaware windows read

    for hour in range(BINDING_HOURS):
        end = min(hour + WINDOW_HOURS, scenario.horizon)
        w = _window_demand(scenario, hour)
        if mode == "aware":
            start = _window_seed(w.size, prev_g, prev_u)
            res = _aware_window(w, da, params, hour, end, x0_run, start)
            prev_g = (da.g[:, hour:end] + res.g_r)[:, 1:]
            prev_u = (da.u[:, hour:end] + res.u_r)[:, 1:]
        else:
            res = _unaware_window(w, scenario.forecast[hour:end], da, params, hour, end, u_idle)
        steps.append(res)
        for j in range(J):
            g_rt[j, hour] = res.g_r[j, 0]
        for s in range(S):
            u_rt[s, hour] = res.u_r[s, 0]
        prices[hour] = res.price[0]
        for s, st in enumerate(params.storages):
            total = da.u[s, hour] + u_rt[s, hour]
            x_next = x0_run[s] - total / st.capacity_E
            # binding-solve noise can overshoot the corridor by ~1e-14
            x0_run[s] = min(max(float(x_next), 0.0), 1.0)
            soc[s, hour + 1] = x_next
    return steps, g_rt, u_rt, prices, soc


def _window_seed(W, prev_g, prev_u):
    """The (g, u) seed for a ``W``-hour window: the leading intervals of
    ``prev_g`` and ``prev_u``, zero past their end."""
    seed = []
    for prev in (prev_g, prev_u):
        part = np.zeros((prev.shape[0], W))
        k = min(W, prev.shape[1])
        part[:, :k] = prev[:, :k]
        seed.append(part)
    return tuple(seed)


def _aware_window(w, da, params, hour, end, x0_run, start):
    # constant slopes; the storage slope tracks the window's total demand
    try:
        bids = aware_bids(params, w)
    except DegeneratePriceError as exc:
        raise DegeneratePriceError(f"window at hour {hour} has no cycling content") from exc
    try:
        return clear_constrained_aware(
            bids, w, da.g[:, hour:end], da.u[:, hour:end], params, x0s=list(x0_run), start=start,
        )
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"real-time window at hour {hour} infeasible: {exc}", interval=hour
        ) from exc


def _unaware_window(w, forecast, da, params, hour, end, u_idle):
    d_r = w - forecast
    J, S = params.n_generators, params.n_storages
    W = w.size
    if float(d_r @ d_r) <= 1e-24 * max(1.0, float(w @ w)):
        return RealTimeResult(
            g_r=np.zeros((J, W)), u_r=np.zeros((S, W)), price=np.zeros(W),
            price_coeff=0.0, iterations=0,
        )
    view = _window_da_view(da, params, hour, end, u_idle)
    try:
        return equilibrium_unaware(params, d_r, view)[1]
    except DegeneratePriceError:
        # storage schedule is flat inside this window: clear with generators
        # only, in closed form; without storage units the bids read only view.g
        res = equilibrium_unaware(MarketParams(generators=params.generators), d_r, view)[1]
        res.u_r = np.zeros((S, W))
        return res


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
    """Full protocol: clear day ahead, roll real time, settle."""
    cfg = mechanism_config or MechanismConfig()
    da = run_day_ahead(scenario, params, cfg)
    steps, g_rt, u_rt, prices, soc = run_real_time(scenario, params, da, mode=mode)
    settlement = settle(da, prices, g_rt, u_rt, scenario, params)
    return SimulationRecord(da_result=da, rt_steps=steps, settlement=settlement,
                            g_rt=g_rt, u_rt=u_rt, rt_prices=prices, realized_soc=soc)
