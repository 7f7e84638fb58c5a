"""Tests for the two-stage rolling simulation and settlement."""

import dataclasses

import numpy as np
import pytest

from cyclemarket import GeneratorParams, MarketParams, StorageParams, qp
from cyclemarket.data import (
    DemandScenario,
    MarketConfig,
    build_params,
    bundled_demand_path,
    default_config,
    load_demand_csv,
    synthetic_scenario,
)
from cyclemarket.dayahead import DayAheadResult
from cyclemarket.errors import DegeneratePriceError, InfeasibleError, InvalidInputError
from cyclemarket.planner import solve_planner
from cyclemarket.rainflow import rainflow_map
from cyclemarket.realtime import (
    aware_bids,
    best_response_unaware,
    clear_constrained_aware,
    equilibrium_aware,
    equilibrium_unaware,
)
from cyclemarket.simulation import (
    BINDING_HOURS,
    MechanismConfig,
    _window_da_view,
    run_day_ahead,
    run_real_time,
    run_two_stage,
    settle,
)


@pytest.fixture(scope="module")
def fixture_setup():
    scn = synthetic_scenario()
    params = build_params(default_config(), scn)
    return scn, params


@pytest.fixture(scope="module")
def aware_record(fixture_setup):
    scn, params = fixture_setup
    return run_two_stage(scn, params, mode="aware")


def assert_windows_match_cold(scn, params, da, steps, soc):
    """Every aware window against an unseeded clearing from the same realized
    state of charge, within 1e-9 of each quantity's scale."""
    for hour, step in enumerate(steps):
        end = min(hour + 24, scn.horizon)
        w = scn.forecast[hour:end].copy()
        w[0] = scn.actual[hour]
        cold = clear_constrained_aware(aware_bids(params, w), w, da.g[:, hour:end],
                                       da.u[:, hour:end], params,
                                       x0s=list(np.clip(soc[:, hour], 0.0, 1.0)))
        for got, want in ((step.g_r, cold.g_r), (step.u_r, cold.u_r), (step.price, cold.price)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


@pytest.fixture()
def cold_starts(monkeypatch):
    """Sizes T of the solves that started without a usable seed."""
    calls = []
    inner = qp._Problem.cold_start
    monkeypatch.setattr(qp._Problem, "cold_start",
                        lambda self: calls.append(self.T) or inner(self))
    return calls


class TestRunDayAhead:
    def test_constant_forecast_flat_prices_no_cycling(self):
        scn = DemandScenario(forecast=np.full(48, 500.0), actual=np.full(24, 500.0))
        params = build_params(default_config(), scn)
        da = run_day_ahead(scn, params)
        assert np.max(da.energy_price) - np.min(da.energy_price) < 1e-6
        assert np.max(np.abs(da.u)) < 1e-6

    def test_two_peak_forecast_cycles_storage(self, fixture_setup):
        scn, params = fixture_setup
        da = run_day_ahead(scn, params)
        assert np.max(da.u[0]) > 1.0          # discharges somewhere
        assert np.min(da.u[0]) < -1.0         # charges somewhere
        assert np.asarray(da.nu[0]).sum() > 0
        # charge happens in the valley, discharge near the peak
        peak = int(np.argmax(scn.forecast[:24]))
        valley = int(np.argmin(scn.forecast[:24]))
        assert da.u[0][peak] > 0 > da.u[0][valley]

    def test_full_horizon_cleared(self, fixture_setup):
        scn, params = fixture_setup
        da = run_day_ahead(scn, params)
        assert da.g.shape[1] == 48
        assert abs(float(da.u[0].sum())) < 1e-7  # periodic over the two days

    def test_uniform_clearing_runs_two_stage(self, fixture_setup):
        # uniform clearing ignores rate limits, so real time runs unaware
        scn, params = fixture_setup
        rec = run_two_stage(scn, params, mode="unaware",
                            mechanism_config=MechanismConfig(clearing="uniform"))
        assert rec.da_result.shares is not None
        assert rec.da_result.shares == pytest.approx([1.0])
        assert rec.da_result.kkt_residual <= 1e-8
        total = (rec.da_result.g[:, :BINDING_HOURS] + rec.g_rt).sum(axis=0) \
            + (rec.da_result.u[:, :BINDING_HOURS] + rec.u_rt).sum(axis=0)
        assert total == pytest.approx(scn.actual, abs=1e-6)

    def test_uniform_clearing_then_aware_real_time_is_infeasible(self, fixture_setup):
        # the uniform schedule breaks the rate limits, so the first window's limits cross
        scn, params = fixture_setup
        with pytest.raises(InfeasibleError) as err:
            run_two_stage(scn, params, mode="aware",
                          mechanism_config=MechanismConfig(clearing="uniform"))
        assert err.value.interval == 0
        assert "participant limits cross at interval 0" in str(err.value)

    def test_phase_one_names_every_short_hour_and_the_total(self, fixture_setup):
        # an 805 MW cap with one 50 MWh unit leaves hours 15 and 39 short by
        # 0.685165 MW each; the error sits at the first of the two
        scn = fixture_setup[0]
        config = MarketConfig(generators=[{"c": 20, "g_max": 805}],
                              storages=[{"capacity_E": 50}])
        with pytest.raises(InfeasibleError, match="cannot be met") as err:
            run_day_ahead(scn, build_params(config, scn))
        assert err.value.interval == 15
        assert "at intervals 15, 39, off by 1.37033 MW in all" in str(err.value)
        assert "interval 15 (shortfall 0.685165 MW)" in str(err.value)

    def test_unknown_clearing_raises_invalid_input(self, fixture_setup):
        scn, params = fixture_setup
        with pytest.raises(InvalidInputError, match="'general', 'uniform'"):
            run_day_ahead(scn, params, MechanismConfig(clearing="uniformm"))

    def test_horizon_shorter_than_the_binding_day_is_infeasible(self, fixture_setup):
        _, params = fixture_setup
        short = DemandScenario(forecast=np.full(BINDING_HOURS - 1, 500.0), actual=[])
        with pytest.raises(InfeasibleError, match="cover at least the binding day"):
            run_day_ahead(short, params)


class TestRunRealTime:
    @pytest.mark.parametrize("run", [run_two_stage, run_real_time])
    def test_unknown_mode_raises_invalid_input(self, fixture_setup, run):
        scn, params = fixture_setup
        args = (scn, params) if run is run_two_stage else (scn, params, run_day_ahead(scn, params))
        with pytest.raises(InvalidInputError, match="'aware', 'unaware'"):
            run(*args, mode="Aware")

    def test_24_steps_produced(self, aware_record):
        assert len(aware_record.rt_steps) == BINDING_HOURS
        assert aware_record.g_rt.shape == (1, BINDING_HOURS)

    def test_soc_continuity_and_bounds(self, fixture_setup, aware_record):
        scn, params = fixture_setup
        rec = aware_record
        E = params.storages[0].capacity_E
        x = params.storages[0].x0
        for h in range(BINDING_HOURS):
            total = rec.da_result.u[0, h] + rec.u_rt[0, h]
            x = x - total / E
            assert rec.realized_soc[0, h + 1] == pytest.approx(x, abs=1e-9)
        assert np.all(rec.realized_soc >= -1e-8)
        assert np.all(rec.realized_soc <= 1 + 1e-8)

    def test_balance_every_binding_hour(self, fixture_setup, aware_record):
        scn, params = fixture_setup
        rec = aware_record
        total = (rec.da_result.g[:, :BINDING_HOURS] + rec.g_rt).sum(axis=0) \
            + (rec.da_result.u[:, :BINDING_HOURS] + rec.u_rt).sum(axis=0)
        assert total == pytest.approx(scn.actual, abs=1e-6)

    def test_perfect_forecast_unaware_zero_adjustments(self):
        scn0 = synthetic_scenario()
        scn = DemandScenario(forecast=scn0.forecast, actual=scn0.forecast[:24].copy(),
                             timestamps=scn0.timestamps)
        params = build_params(default_config(), scn)
        rec = run_two_stage(scn, params, mode="unaware")
        assert np.max(np.abs(rec.g_rt)) == 0.0
        assert np.max(np.abs(rec.u_rt)) == 0.0
        assert np.max(np.abs(rec.rt_prices)) == 0.0

    def test_unaware_mode_runs_and_records_iterations(self, fixture_setup):
        scn, params = fixture_setup
        rec = run_two_stage(scn, params, mode="unaware")
        assert len(rec.rt_steps) == BINDING_HOURS
        assert all(s.iterations >= 0 for s in rec.rt_steps)
        # per-interval balance still holds: adjustments meet the residual
        total = (rec.da_result.g[:, :BINDING_HOURS] + rec.g_rt).sum(axis=0) \
            + (rec.da_result.u[:, :BINDING_HOURS] + rec.u_rt).sum(axis=0)
        assert total == pytest.approx(scn.actual, abs=1e-6)

    FOUR_UNITS = MarketConfig(generators=[{"c": 20.0}, {"c": 35.0, "a": 5.0}],
                              storages=[{"capacity_E": 50.0, "capital_cost_B": b}
                                        for b in (100.0, 150.0, 250.0, 400.0)])

    @pytest.mark.parametrize("config, clearing, hours, with_storage", [
        (default_config(), "general", 48, 7),
        (FOUR_UNITS, "general", 48, 7),
        (FOUR_UNITS, "uniform", 48, 22),
        (default_config(), "general", 30, 7),
        (FOUR_UNITS, "uniform", 30, 22),
    ], ids=["fixture", "four-units", "four-units-uniform", "fixture-30h", "four-units-uniform-30h"])
    def test_unaware_windows_clear_in_closed_form(self, config, clearing, hours, with_storage):
        # each window is, bit for bit, the closed form on its view, or its
        # generator-only form where the view does not cycle; none iterates.
        # Uniform clearing gives the units one map per window, and a 30-hour
        # forecast cuts the windows from hour 7 on short
        fixture = load_demand_csv(bundled_demand_path())
        scn = DemandScenario(forecast=fixture.forecast[:hours], actual=fixture.actual)
        params = build_params(config, scn)
        rec = run_two_stage(scn, params, mode="unaware",
                            mechanism_config=MechanismConfig(clearing=clearing))
        u_idle = qp.idle_dispatch(rec.da_result.u)
        found = 0
        for hour, step in enumerate(rec.rt_steps):
            end = min(hour + 24, scn.horizon)
            d_r = np.r_[scn.actual[hour], scn.forecast[hour + 1:end]] - scn.forecast[hour:end]
            assert step.iterations == 0
            if not d_r.any():  # no news: the window adjusts nothing
                assert not (step.g_r.any() or step.u_r.any() or step.price.any())
                continue
            view = _window_da_view(rec.da_result, params, hour, end, u_idle)
            try:
                want = equilibrium_unaware(params, d_r, view)[1]
                found += 1
            except DegeneratePriceError:
                want = equilibrium_unaware(MarketParams(generators=params.generators),
                                           d_r, view)[1]
                want.u_r = np.zeros_like(step.u_r)
            for name in ("g_r", "u_r", "price", "price_coeff", "kkt_residual"):
                got, expected = getattr(step, name), getattr(want, name)
                assert np.array_equal(got, expected), (hour, name)
                assert np.shape(got) == np.shape(expected), (hour, name)
        assert found == with_storage  # the others adjust nothing or no storage

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_realized_hour_raises_from_an_unaware_run(self, fixture_setup, value):
        # an infinite hour, or one whose squared residual overflows, once
        # read as no news: zero adjustments at a zero price
        scn, params = fixture_setup
        da = run_day_ahead(scn, params)
        actual = scn.actual.copy()
        actual[5] = value
        bad = DemandScenario(forecast=scn.forecast, actual=actual, timestamps=scn.timestamps)
        with pytest.raises(InvalidInputError, match="finite vector"):
            run_real_time(bad, params, da, mode="unaware")

    def test_demand_spike_only_nearby_windows_adjust(self, fixture_setup):
        scn0, params = fixture_setup
        actual = scn0.forecast[:24].copy()
        actual[6] += 25.0  # a single-hour spike
        scn = DemandScenario(forecast=scn0.forecast, actual=actual,
                             timestamps=scn0.timestamps)
        rec = run_two_stage(scn, params, mode="aware")
        # hours after the spike see no news relative to forecast except the
        # SoC carried forward; the committed adjustment at the spike hour is
        # the largest one
        adj = np.abs(rec.g_rt[0] + rec.u_rt[0])
        assert np.argmax(adj) == 6


    def test_flat_day_ahead_storage_clears_unaware_with_generators_only(self, fixture_setup):
        scn, params = fixture_setup
        da = run_day_ahead(scn, params)
        # the generator takes over the storage dispatch, so no window cycles
        flat = dataclasses.replace(da, g=da.g + da.u.sum(axis=0), u=np.zeros_like(da.u))
        steps, g_rt, u_rt, _, _ = run_real_time(scn, params, flat, mode="unaware")
        assert np.all(u_rt == 0.0)
        assert g_rt.sum(axis=0) == pytest.approx(scn.residual, abs=1e-8)
        assert steps[0].kkt_residual <= 1e-8

    def test_unaware_prices_ignore_the_sign_of_rounding_level_dispatch(self, fixture_setup):
        scn, params = fixture_setup
        da = run_day_ahead(scn, params)
        tiny = np.abs(da.u) <= 1e-9 * np.maximum(1.0, np.abs(da.u).max(axis=1, keepdims=True))
        assert np.count_nonzero(da.u[tiny])
        flipped = dataclasses.replace(da, u=np.where(tiny, -da.u, da.u))
        prices = run_real_time(scn, params, da, mode="unaware")[3]
        moved = run_real_time(scn, params, flipped, mode="unaware")[3]
        assert np.max(np.abs(moved - prices)) <= 1e-9 * np.max(np.abs(prices))

    def test_aware_equilibrium_certifies_on_a_window_view(self, fixture_setup, aware_record):
        # the clearing identity reads the day-ahead schedule, which a window
        # view keeps, so an exact clearing certifies on the view too
        scn, params = fixture_setup
        da = aware_record.da_result
        view = _window_da_view(da, params, 0, scn.horizon, qp.idle_dispatch(da.u))
        d = np.concatenate([scn.actual, scn.forecast[scn.n_realized:]])
        for schedule in (da, view):
            assert equilibrium_aware(params, d, schedule)[1].kkt_residual <= 1e-8

    @pytest.mark.parametrize("mode, outside", [("aware", 0), ("unaware", 7)])
    def test_states_of_charge_outside_the_corridor_are_counted(self, mode, outside):
        # unaware windows clear balance only, so on the bundled fixture 7 of
        # the 24 states of charge after a binding hour leave [0, 1]
        scn = load_demand_csv(bundled_demand_path())
        rec = run_two_stage(scn, build_params(default_config(), scn), mode=mode)
        soc = rec.realized_soc[:, 1:]
        assert rec.soc_outside_corridor == outside
        assert np.count_nonzero((soc < -1e-6) | (soc > 1.0 + 1e-6)) == outside

    def test_infeasible_window_names_its_hour(self, fixture_setup):
        scn0, params = fixture_setup
        da = run_day_ahead(scn0, params)
        actual = scn0.actual.copy()
        actual[5] = params.generators[0].g_max + params.storages[0].u_max + 100.0
        scn = DemandScenario(forecast=scn0.forecast, actual=actual,
                             timestamps=scn0.timestamps)
        with pytest.raises(InfeasibleError) as err:
            run_real_time(scn, params, da, mode="aware")
        assert err.value.interval == 5

    def test_zero_demand_stops_aware_windows_but_not_unaware(self):
        # an all-zero day has no cycling content: the aware storage slope is
        # unbounded, and the error names the window; unaware real time sees no
        # residual and adjusts nothing
        scn = DemandScenario(forecast=np.zeros(48), actual=np.zeros(BINDING_HOURS))
        params = build_params(default_config(), scn)
        da = run_day_ahead(scn, params)
        with pytest.raises(DegeneratePriceError, match="window at hour 0 has no cycling content"):
            run_real_time(scn, params, da, mode="aware")
        rec = run_two_stage(scn, params, mode="unaware")
        assert not rec.u_rt.any() and not rec.rt_prices.any()
        assert rec.social_cost == 0.0

    STORAGE_FREE = MarketConfig(generators=[{"c": 20.0}, {"c": 35.0, "a": 5.0}], storages=[])

    @pytest.mark.parametrize("mode", ["aware", "unaware"])
    @pytest.mark.parametrize("config", [default_config(), STORAGE_FREE],
                             ids=["fixture", "storage-free"])
    def test_commits_and_states_of_charge_are_read_from_the_steps(self, config, mode):
        # bit for bit: each hour commits its window's first entries, and the
        # state of charge after it is the clamped one before it less the
        # hour's total storage dispatch over E
        scn = load_demand_csv(bundled_demand_path())
        params = build_params(config, scn)
        da = run_day_ahead(scn, params)
        steps, g_rt, u_rt, prices, soc = run_real_time(scn, params, da, mode=mode)
        J, S = params.n_generators, params.n_storages
        assert (g_rt.shape, u_rt.shape, prices.shape) == ((J, 24), (S, 24), (24,))
        assert soc.shape == (S, 25)
        assert np.array_equal(soc[:, 0], [st.x0 for st in params.storages])
        E = np.array([st.capacity_E for st in params.storages])
        for h, step in enumerate(steps):
            assert np.array_equal(g_rt[:, h], step.g_r[:, 0])
            assert np.array_equal(u_rt[:, h], step.u_r[:, 0])
            assert prices[h] == step.price[0]
            want = np.clip(soc[:, h], 0.0, 1.0) - (da.u[:, h] + step.u_r[:, 0]) / E
            assert np.array_equal(soc[:, h + 1], want)

    def test_unaware_window_without_generators_or_cycling_names_its_hour(self):
        # one unit, no generator, and a schedule idle over the first window:
        # nothing takes up the residual, which once divided by a zero slope sum
        scn = load_demand_csv(bundled_demand_path())
        params = build_params(MarketConfig(generators=[], storages=[{"capacity_E": 50.0}]), scn)
        T = scn.horizon
        idle = DayAheadResult(g=np.zeros((0, T)), u=np.zeros((1, T)), nu=[np.zeros(0)],
                              energy_price=np.zeros(T), cycle_prices=[np.zeros(0)],
                              periodicity_duals=np.zeros(1), shares=None, objective=0.0,
                              kkt_residual=0.0)
        with pytest.raises(DegeneratePriceError, match="window at hour 0 has no generator"):
            run_real_time(scn, params, idle, mode="unaware")

    @pytest.mark.parametrize("mode", ["aware", "unaware"])
    def test_storage_only_roster_runs_two_stage(self, mode):
        # without generators the day-ahead balance implies the unit's
        # periodicity, which the clearing leaves out of its equality rows
        forecast = 2.0 * np.sin(2 * np.pi * np.arange(48.0) / 24)
        scn = DemandScenario(forecast=forecast, actual=forecast[:24])
        params = build_params(MarketConfig(generators=[], storages=[{"capacity_E": 50.0}]), scn)
        rec = run_two_stage(scn, params, mode=mode)
        assert rec.da_result.kkt_residual <= 1e-8
        assert rec.g_rt.shape == (0, 24) and rec.u_rt.shape == (1, 24)
        assert rec.da_result.u.sum(axis=0) == pytest.approx(forecast, abs=1e-9)
        assert (rec.da_result.u[:, :24] + rec.u_rt).sum(axis=0) == pytest.approx(scn.actual,
                                                                                   abs=1e-9)
        assert rec.soc_outside_corridor == 0


class TestSeededWindows:
    def test_every_window_matches_cold_solve(self, fixture_setup, cold_starts):
        scn, params = fixture_setup
        da = run_day_ahead(scn, params)
        cold_starts.clear()
        steps, _, _, _, soc = run_real_time(scn, params, da, mode="aware")
        assert cold_starts == []  # every window started from its seed
        assert_windows_match_cold(scn, params, da, steps, soc)

    def test_short_horizon_windows_shrink_and_match_cold_solve(self, fixture_setup):
        # a 36-hour horizon cuts the windows from hour 13 on: the last is 13 hours
        scn0, params = fixture_setup
        scn = DemandScenario(forecast=scn0.forecast[:36], actual=scn0.actual,
                             timestamps=scn0.timestamps[:36])
        da = run_day_ahead(scn, params)
        steps, _, _, _, soc = run_real_time(scn, params, da, mode="aware")
        assert [s.price.size for s in steps[11:]] == [24, 24, 23] + list(range(22, 12, -1))
        assert_windows_match_cold(scn, params, da, steps, soc)

    def test_window_zero_falls_back_when_schedule_leaves_corridor(self, fixture_setup,
                                                                  cold_starts):
        # without the day-ahead corridor the schedule takes the state of charge
        # outside [0, 1], so window 0's seed breaks the real-time corridor
        scn, params = fixture_setup
        st = params.storages[0]
        da = run_day_ahead(scn, params, MechanismConfig(enforce_soc_bounds=False))
        soc = st.x0 - np.cumsum(da.u[0, :24]) / st.capacity_E
        assert soc.min() < -0.1 or soc.max() > 1.1
        cold_starts.clear()
        steps, _, _, _, realized = run_real_time(scn, params, da, mode="aware")
        assert cold_starts == [24]
        assert_windows_match_cold(scn, params, da, steps, realized)


class TestSeveralStorageUnits:
    """Markets with more than one storage unit on the synthetic two-peak demand.

    Rounding-level dispatch at idle hours once opened half-cycles of its own
    and kept these clearings from certifying."""

    def test_four_units_clear_day_ahead(self):
        scn = synthetic_scenario()
        config = MarketConfig(
            generators=[{"c": 20.0}, {"c": 35.0, "a": 5.0}],
            storages=[{"capacity_E": 50.0, "capital_cost_B": b}
                      for b in (100.0, 150.0, 250.0, 400.0)],
        )
        da = run_day_ahead(scn, build_params(config, scn))
        assert da.u.shape == (4, scn.horizon)
        assert da.kkt_residual <= 1e-8

    def test_two_units_clear_every_aware_window(self):
        scn = synthetic_scenario()
        config = MarketConfig(
            generators=default_config().generators,
            storages=[{"capacity_E": 50.0, "capital_cost_B": 100.0},
                      {"capacity_E": 30.0, "capital_cost_B": 250.0}],
        )
        rec = run_two_stage(scn, build_params(config, scn), mode="aware")
        assert rec.da_result.kkt_residual <= 1e-8
        assert len(rec.rt_steps) == BINDING_HOURS
        assert max(step.kkt_residual for step in rec.rt_steps) <= 1e-8


class TestUniformUnawareWindows:
    """Unaware windows after uniform clearing: the units of one (E, x0)
    share the half-cycle map of their total idle dispatch."""

    @pytest.fixture(scope="class")
    def pool(self):
        # the two-peak shape with seeded forecast noise and a slow forecast error
        rng = np.random.default_rng(7)
        h = np.arange(48.0)
        forecast = (600 + 200 * np.sin(2 * np.pi * (h - 8) / 24)
                    + 50 * np.sin(4 * np.pi * (h - 2) / 24) + rng.normal(0.0, 3.0, 48))
        error = 0.04 * np.sin(2 * np.pi * (h[:24] + rng.uniform(0.0, 24.0)) / 24)
        scn = DemandScenario(forecast=forecast, actual=forecast[:24] * (1 + error))
        config = MarketConfig(
            generators=[{"c": 20.0}, {"c": 35.0, "a": 5.0}],
            storages=[{"capacity_E": 50.0, "capital_cost_B": b}
                      for b in (100.0, 150.0, 250.0, 400.0)],
        )
        params = build_params(config, scn)
        da = run_day_ahead(scn, params, MechanismConfig(clearing="uniform"))
        return scn, params, da

    def test_units_of_one_group_share_the_map_of_their_total(self, pool):
        scn, params, da = pool
        u_idle = qp.idle_dispatch(da.u)
        for hour in range(BINDING_HOURS):
            end = hour + 24
            view = _window_da_view(da, params, hour, end, u_idle)
            group = view.maps[0]
            assert all(dec is group for dec in view.maps)
            for s, st in enumerate(params.storages):
                own = rainflow_map(u_idle[s, hour:end], st.capacity_E, st.x0)
                assert own.signature() == group.signature()
                assert np.array_equal(view.nu[s], own.map @ u_idle[s, hour:end])

    def test_group_map_gives_the_per_unit_answers(self, pool):
        scn, params, da = pool
        u_idle = qp.idle_dispatch(da.u)
        per_unit = dataclasses.replace(da, shares=None)
        for hour in range(BINDING_HOURS):
            end = hour + 24
            d_r = np.zeros(24)  # the window's residual demand: its binding hour only
            d_r[0] = scn.actual[hour] - scn.forecast[hour]
            got, want = (best_response_unaware(
                params, d_r, _window_da_view(result, params, hour, end, u_idle))[1]
                for result in (da, per_unit))
            for a, b in ((got.price, want.price), (got.g_r, want.g_r), (got.u_r, want.u_r)):
                assert np.array_equal(a, b)

    def test_exact_soc_tie_reads_the_total_map(self):
        # unit 0's own map breaks an SoC tie of this profile another way than
        # units 1 and 2 and the total do; every unit reads the total's map
        w = np.array([3.0, 2.0, 2.0, -2.0, -1.0, 3.0, 0.0, -3.0])
        shares = np.array([0.33190192432907056, 0.04816737123427453, 0.6199307044366549])
        u = qp.idle_dispatch(np.outer(shares, w))
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=-1e9, g_max=1e9)],
            storages=[StorageParams(capacity_E=50.0, b=2.0 / eps, u_min=-1e9, u_max=1e9)
                      for eps in shares],
        )
        demand = 10.0 + w
        da = DayAheadResult(
            g=(demand - u.sum(axis=0))[None, :], u=u, nu=[], energy_price=np.zeros(8),
            cycle_prices=[], periodicity_duals=np.zeros(3), shares=shares,
            objective=0.0, kkt_residual=0.0,
        )
        total = rainflow_map(u.sum(axis=0), 50.0, 0.5)
        own = [rainflow_map(u[s], 50.0, 0.5).signature() for s in range(3)]
        assert own[0] != total.signature()
        assert own[1] == own[2] == total.signature()
        view = _window_da_view(da, params, 0, 8, u)
        assert view.maps[0] is view.maps[1] is view.maps[2]
        assert view.maps[0].signature() == total.signature()
        result = best_response_unaware(params, np.sin(np.arange(8.0)), view)[1]
        assert result.kkt_residual <= 1e-8


class TestSettlement:
    def test_social_cost_identity(self, fixture_setup, aware_record):
        scn, params = fixture_setup
        rec = aware_record
        from cyclemarket.costs import generator_cost, storage_cost

        g_total = rec.da_result.g[:, :BINDING_HOURS] + rec.g_rt
        u_total = rec.da_result.u[:, :BINDING_HOURS] + rec.u_rt
        expected = generator_cost(g_total[0], params.generators[0]) \
            + storage_cost(u_total[0], params.storages[0])
        assert rec.social_cost == pytest.approx(expected)

    def test_zero_deviation_settlement_is_day_ahead_only(self):
        scn0 = synthetic_scenario()
        scn = DemandScenario(forecast=scn0.forecast, actual=scn0.forecast[:24].copy(),
                             timestamps=scn0.timestamps)
        params = build_params(default_config(), scn)
        rec = run_two_stage(scn, params, mode="unaware")
        da = rec.da_result
        st = rec.settlement
        lam = da.energy_price[:BINDING_HOURS]
        assert st.generator_payments[0] == pytest.approx(float(lam @ da.g[0, :BINDING_HOURS]))
        assert st.storage_payments[0] == pytest.approx(float(lam @ da.u[0, :BINDING_HOURS]))

    def test_merchandising_surplus_accounting_identity(self, fixture_setup, aware_record):
        # load pays forecast at DA prices plus residual at RT prices; with both
        # stages clearing, collected and disbursed amounts match
        scn, params = fixture_setup
        assert aware_record.settlement.merchandising_surplus == pytest.approx(0.0, abs=1e-4)

    def test_storage_cycle_payment_reported(self, aware_record):
        st = aware_record.settlement
        assert st.storage_cycle_payments is not None
        assert st.storage_cycle_payments[0] >= 0.0

    def test_cycle_payment_decomposition_when_limits_slack(self):
        # wide limits: capacity rents vanish and the energy settlement equals
        # the per-cycle payment plus the periodicity dual times net energy,
        # columnwise over any interval set (here the binding day)
        T = 48
        h = np.arange(T)
        forecast = 20 + 6 * np.sin(2 * np.pi * (h - 8) / 24)
        scn = DemandScenario(forecast=forecast, actual=forecast[:24].copy())
        params = MarketParams(
            generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6)],
            storages=[StorageParams(capacity_E=2000.0, b=2.0, u_min=-1e6, u_max=1e6)],
        )
        rec = run_two_stage(scn, params, mode="unaware")
        da = rec.da_result
        lam = da.energy_price[:BINDING_HOURS]
        energy_pay = float(lam @ da.u[0, :BINDING_HOURS])
        cycle_pay = rec.settlement.storage_cycle_payments[0]
        dual_term = float(da.periodicity_duals[0] * da.u[0, :BINDING_HOURS].sum())
        assert cycle_pay + dual_term == pytest.approx(energy_pay, rel=1e-6, abs=1e-6)
        # over the full horizon net energy is zero and the identity is direct
        full_energy = float(da.energy_price @ da.u[0])
        from cyclemarket.rainflow import rainflow_map

        dec = rainflow_map(da.u[0], params.storages[0].capacity_E, 0.5)
        full_cycle = float(np.asarray(da.cycle_prices[0]) @ (dec.map @ da.u[0]))
        assert full_cycle == pytest.approx(full_energy, rel=1e-6, abs=1e-6)


class TestSandwichAndDeterminism:
    def test_cost_and_profit_sandwich(self, fixture_setup, aware_record):
        scn, params = fixture_setup
        rec = aware_record
        pl_n = solve_planner(params, scn.actual[:BINDING_HOURS], periodic=False)
        pl_p = solve_planner(params, scn.actual[:BINDING_HOURS], periodic=True)
        assert pl_n.objective <= rec.social_cost + 1e-6
        assert rec.social_cost <= pl_p.objective + 1e-6

    def test_bitwise_determinism(self, fixture_setup, aware_record):
        scn, params = fixture_setup
        again = run_two_stage(scn, params, mode="aware")
        assert np.array_equal(again.g_rt, aware_record.g_rt)
        assert np.array_equal(again.u_rt, aware_record.u_rt)
        assert np.array_equal(again.rt_prices, aware_record.rt_prices)
        assert again.social_cost == aware_record.social_cost
        assert np.array_equal(again.da_result.u, aware_record.da_result.u)
