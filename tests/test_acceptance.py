"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import csv
import json
import time

import numpy as np
import pytest

from cyclemarket import GeneratorParams, MarketParams, StorageParams
from cyclemarket.cli import main as cli_main
from cyclemarket.data import build_params, default_config, synthetic_scenario
from cyclemarket.dayahead import (
    clear_general,
    clear_uniform,
    equilibrium_bids_dayahead,
    verify_kkt_dayahead,
)
from cyclemarket.planner import participant_profit, solve_planner
from cyclemarket.rainflow import rainflow_map
from cyclemarket.realtime import (
    RealTimeBids,
    best_response_unaware,
    clear_constrained_aware,
    equilibrium_aware,
    equilibrium_unaware,
)
from cyclemarket.simulation import BINDING_HOURS, run_two_stage


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_rainflow_property_suite():
    rng = np.random.default_rng(2024)
    start = time.time()
    for _ in range(1000):
        T = int(rng.integers(1, 49))
        u = rng.normal(0.0, 1.0, T)
        u[rng.random(T) < 0.15] = 0.0
        E = float(rng.uniform(0.5, 40.0))
        dec = rainflow_map(u, E)
        tv = float(np.abs(u).sum()) / E
        assert abs(float(dec.depths.sum()) - tv) <= 1e-12 * max(tv, 1e-300)
        nz = np.count_nonzero(dec.map, axis=0)
        assert np.all(nz[u != 0.0] == 1) and np.all(nz[u == 0.0] == 0)
        assert set(np.unique(dec.map)).issubset({0.0, 1.0 / E, -1.0 / E})
        assert np.all(dec.depths >= 0.0)
        for eps in (0.5, 2.0, 10.0):
            scaled = rainflow_map(eps * u, E)
            assert np.array_equal(scaled.map, dec.map)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"1000 random profiles, TV/scale/partition exact in {elapsed:.1f}s")


def test_criterion_2_equilibrium_bids_align_with_planner():
    start = time.time()
    # bundled fixture: constrained clearing with equilibrium bids versus the
    # periodic planner (identical constraint sets, identical objectives)
    scn = synthetic_scenario()
    params = build_params(default_config(), scn)
    bids = equilibrium_bids_dayahead(params)
    da = clear_general(bids, scn.forecast, params, enforce_soc_bounds=True)
    pl = solve_planner(params, scn.forecast, periodic=True)
    u_scale = max(1.0, float(np.max(np.abs(pl.u))))
    g_scale = max(1.0, float(np.max(np.abs(pl.g))))
    assert np.max(np.abs(da.u - pl.u)) / u_scale < 1e-5
    assert np.max(np.abs(da.g - pl.g)) / g_scale < 1e-5

    # 50 random slack-limit instances: uniform clearing versus the planner
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = int(rng.integers(4, 17))
        J = int(rng.integers(1, 4))
        p = MarketParams(
            generators=[GeneratorParams(c=float(rng.uniform(5, 50)), g_min=-1e7, g_max=1e7)
                        for _ in range(J)],
            storages=[StorageParams(capacity_E=1e4, b=float(rng.uniform(0.5, 5.0)),
                                    u_min=-1e7, u_max=1e7)],
        )
        d = 10 + 4 * np.sin(2 * np.pi * (np.arange(T) + rng.uniform(0, T)) / T) \
            + rng.normal(0, 0.4, T)
        uni = clear_uniform(equilibrium_bids_dayahead(p), d, p)
        plan = solve_planner(p, d, periodic=True)
        us = max(1.0, float(np.max(np.abs(plan.u))))
        gs = max(1.0, float(np.max(np.abs(plan.g))))
        assert np.max(np.abs(uni.u - plan.u)) / us < 1e-5
        assert np.max(np.abs(uni.g - plan.g)) / gs < 1e-5
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(2, f"fixture + 50 random instances align with the periodic planner "
               f"(1e-5) in {elapsed:.1f}s")


def test_criterion_3_uniform_cycle_prices():
    rng = np.random.default_rng(11)
    for trial in range(10):
        betas = sorted(rng.uniform(0.2, 3.0, size=int(rng.integers(2, 4))), reverse=True)
        p = MarketParams(
            generators=[GeneratorParams(c=float(rng.uniform(5, 40)))],
            storages=[StorageParams(capacity_E=150.0, b=1.0 / b_s) for b_s in betas],
        )
        bids = equilibrium_bids_dayahead(p)
        T = int(rng.integers(6, 13))
        d = 8 + 3 * np.sin(2 * np.pi * (np.arange(T) + rng.uniform(0, T)) / T) \
            + rng.normal(0, 0.3, T)
        res = clear_uniform(bids, d, p)
        for s in range(1, len(betas)):
            assert res.cycle_prices[s] is res.cycle_prices[0]  # one shared vector
            cross = res.u[0] * bids.beta[s] - res.u[s] * bids.beta[0]
            scale = max(1.0, float(np.max(np.abs(res.u[0]))))
            assert np.max(np.abs(cross)) / scale < 1e-8
    _report(3, "shared per-cycle price vector and beta-proportional dispatch (1e-8)")


def test_criterion_4_unaware_closed_form_equals_best_response():
    rng = np.random.default_rng(23)
    for done in range(50):
        T = int(rng.integers(4, 25))
        J = int(rng.integers(1, 4))
        S = int(rng.integers(1, 3))
        p = MarketParams(
            generators=[GeneratorParams(c=float(rng.uniform(5, 40)), g_min=-1e9, g_max=1e9)
                        for _ in range(J)],
            storages=[StorageParams(capacity_E=400.0, b=float(rng.uniform(0.5, 4.0)),
                                    u_min=-1e9, u_max=1e9) for _ in range(S)],
        )
        d_da = 10 + 4 * np.sin(2 * np.pi * (np.arange(T) + rng.uniform(0, T)) / T) \
            + rng.normal(0, 0.3, T)
        da = clear_uniform(equilibrium_bids_dayahead(p), d_da, p)
        d_r = 0.25 * np.abs(d_da) * rng.uniform(0.4, 1.2, T)
        b_eq, r_eq = equilibrium_unaware(p, d_r, da)
        b_br, r_br = best_response_unaware(p, d_r, da, tol=1e-12)
        assert r_br.kkt_residual <= 1e-8
        assert np.max(np.abs(r_br.price - r_eq.price)) < 1e-6
        assert np.max(np.abs(b_br.alpha_r - b_eq.alpha_r)) < 1e-6
        assert np.max(np.abs(b_br.beta_r - b_eq.beta_r)) < 1e-6
        if done < 5:  # uniqueness probe on the first instances
            base = None
            for _ in range(5):
                init = RealTimeBids(alpha_r=rng.uniform(0.01, 1.0, J),
                                    beta_r=rng.uniform(0.01, 1.0, S))
                _, rr = best_response_unaware(p, d_r, da, tol=1e-12, initial_bids=init)
                if base is None:
                    base = rr.price
                assert np.max(np.abs(rr.price - base)) < 1e-6
    _report(4, "closed form == best response on 50 instances (1e-6), uniqueness probes agree")


def test_criterion_5_aware_equilibrium_exactness():
    rng = np.random.default_rng(31)
    for _ in range(20):
        T = int(rng.integers(3, 13))
        J = int(rng.integers(1, 3))
        S = int(rng.integers(1, 3))
        E_common = float(rng.uniform(50, 400))
        p = MarketParams(
            generators=[GeneratorParams(c=float(rng.uniform(5, 40)), g_min=-1e9, g_max=1e9)
                        for _ in range(J)],
            storages=[StorageParams(capacity_E=E_common, b=float(rng.uniform(0.5, 4.0)),
                                    u_min=-1e9, u_max=1e9) for _ in range(S)],
        )
        d_da = 10 + 4 * np.sin(2 * np.pi * (np.arange(T) + rng.uniform(0, T)) / T) \
            + rng.normal(0, 0.3, T)
        da = clear_uniform(equilibrium_bids_dayahead(p), d_da, p)
        d = d_da * rng.uniform(0.9, 1.1, T)
        bids, res = equilibrium_aware(p, d, da)
        for j, gen in enumerate(p.generators):
            assert bids.alpha_r[j] == 1.0 / gen.c  # exact equality
        adj = res.g_r.sum(axis=0) + (res.u_r.sum(axis=0) if res.u_r.size else 0.0)
        scale = max(1.0, float(np.max(np.abs(d))))
        assert np.max(np.abs(adj - (d - d_da))) / scale < 1e-13

    # T=4 brute-force fixed point for the price coefficient
    p = MarketParams(
        generators=[GeneratorParams(c=7.0, g_min=-1e9, g_max=1e9)],
        storages=[StorageParams(capacity_E=4.0, b=1.3, u_min=-1e9, u_max=1e9)],
    )
    d_da = np.array([9.0, 12.0, 8.0, 11.0])
    da = clear_uniform(equilibrium_bids_dayahead(p), d_da, p)
    d = d_da * np.array([1.05, 0.97, 1.08, 0.94])
    lam = d + rng.normal(0, 1, 4)
    for _ in range(300):
        dec = rainflow_map(lam, 4.0, 0.5)
        Nl = dec.map @ lam
        beta = float(lam @ lam) / (1.3 * float(Nl @ Nl))
        lam_new = d / (1.0 / 7.0 + beta)
        if np.max(np.abs(lam_new - lam)) < 1e-15 * max(1.0, float(np.max(np.abs(lam)))):
            lam = lam_new
            break
        lam = lam_new
    phi_oracle = float(lam @ d) / float(d @ d)
    _, res = equilibrium_aware(p, d, da)
    assert abs(res.price_coeff - phi_oracle) < 1e-8
    _report(5, "exact clearing at machine precision, alpha = 1/c exact, "
               "phi matches the brute-force fixed point (1e-8)")


def test_criterion_6_kkt_residuals_and_detection():
    scn = synthetic_scenario()
    params = build_params(default_config(), scn)
    bids = equilibrium_bids_dayahead(params)

    da_gen = clear_general(bids, scn.forecast, params, enforce_soc_bounds=True)
    assert da_gen.kkt_residual <= 1e-8
    pl_p = solve_planner(params, scn.actual[:BINDING_HOURS], periodic=True)
    pl_n = solve_planner(params, scn.actual[:BINDING_HOURS], periodic=False)
    assert pl_p.kkt_residual <= 1e-8
    assert pl_n.kkt_residual <= 1e-8

    rng = np.random.default_rng(41)
    p = MarketParams(generators=[GeneratorParams(c=20.0, g_min=-1e7, g_max=1e7)],
                     storages=[StorageParams(capacity_E=500.0, b=2.0, u_min=-1e7, u_max=1e7)])
    d = 10 + 4 * np.sin(2 * np.pi * np.arange(12) / 12) + rng.normal(0, 0.3, 12)
    da_uni = clear_uniform(equilibrium_bids_dayahead(p), d, p)
    assert da_uni.kkt_residual <= 1e-8
    b_aw, _ = equilibrium_aware(p, d * 1.03, da_uni)
    rt = clear_constrained_aware(b_aw, d * 1.03, da_uni.g, da_uni.u, p)
    assert rt.kkt_residual <= 1e-8

    # perturbation test: a non-solution is flagged
    import copy

    bad = copy.deepcopy(da_uni)
    bad.u = bad.u + 0.1
    report = verify_kkt_dayahead(bad, equilibrium_bids_dayahead(p), d, p)
    assert report.max_residual > 1e-8
    good = verify_kkt_dayahead(da_uni, equilibrium_bids_dayahead(p), d, p)
    assert good.max_residual <= 1e-8
    _report(6, "all clearing/planner solves report residual <= 1e-8; "
               "perturbed dispatch detected")


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweeps")
    spec_b = base / "spec_b.json"
    spec_b.write_text(json.dumps({
        "axis": "B", "values": [100, 150, 200, 250, 300, 350, 400], "fixed": {"E": 50.0},
    }), encoding="utf-8")
    spec_e = base / "spec_e.json"
    spec_e.write_text(json.dumps({
        "axis": "E", "values": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        "fixed": {"B": 150.0},
    }), encoding="utf-8")
    t0 = time.time()
    out_b = base / "out_b"
    out_e = base / "out_e"
    assert cli_main(["sweep", "--spec", str(spec_b), "--out", str(out_b)]) == 0
    assert cli_main(["sweep", "--spec", str(spec_e), "--out", str(out_e)]) == 0
    elapsed = time.time() - t0
    return out_b, out_e, elapsed


def _sweep_table(path):
    with open(path / "sweep.csv", "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = {}
    for r in rows:
        assert r["status"] == "ok", r
        table[(float(r["axis_value"]), r["strategy"])] = (
            float(r["social_cost"]), float(r["storage_profit"]))
    values = sorted({float(r["axis_value"]) for r in rows})
    return table, values


def test_criterion_7_qualitative_sweeps(sweep_outputs):
    out_b, out_e, elapsed = sweep_outputs
    assert elapsed < 600.0

    for out, axis in ((out_b, "B"), (out_e, "E")):
        table, values = _sweep_table(out)
        for v in values:
            cost_m, profit_m = table[(v, "mechanism")]
            cost_p, profit_p = table[(v, "planner_periodic")]
            cost_n, profit_n = table[(v, "planner_nonperiodic")]
            assert cost_n <= cost_m <= cost_p, (axis, v)
            lo, hi = min(profit_p, profit_n), max(profit_p, profit_n)
            assert lo <= profit_m <= hi, (axis, v)
        assert (out / f"social_cost_vs_{axis}.svg").exists()
        assert (out / f"storage_profit_vs_{axis}.svg").exists()

    # gap monotonicity; comparisons within the accuracy the 1e-8 KKT
    # tolerance certifies on objectives of this size
    table_b, values_b = _sweep_table(out_b)
    slack = 2e-8 * max(c for c, _ in table_b.values())
    gaps = [table_b[(v, "mechanism")][0] - table_b[(v, "planner_nonperiodic")][0]
            for v in values_b]
    for k in range(len(values_b) - 1):  # values ascending: gap falls as B rises
        assert gaps[k] >= gaps[k + 1] - slack
    table_e, values_e = _sweep_table(out_e)
    slack_e = 2e-8 * max(c for c, _ in table_e.values())
    gaps_e = [table_e[(v, "mechanism")][0] - table_e[(v, "planner_nonperiodic")][0]
              for v in values_e]
    for k in range(len(values_e) - 1):  # gap grows with E
        assert gaps_e[k + 1] >= gaps_e[k] - slack_e
    _report(7, f"bounds hold at all 17 grid points, gap trends hold "
               f"(B within solver-accuracy slack, E first-order); "
               f"sweeps took {elapsed:.0f}s")


def test_criterion_8_end_to_end_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", "--out", str(out1)]) == 0
    assert cli_main(["run", "--out", str(out2)]) == 0
    for name in ("run_summary.csv", "trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"axis": "E", "values": [30.0, 60.0],
                                "fixed": {"B": 150.0}}), encoding="utf-8")
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["sweep", "--spec", str(spec), "--out", str(s1)]) == 0
    assert cli_main(["sweep", "--spec", str(spec), "--out", str(s2), "--parallel", "2"]) == 0
    assert (s1 / "sweep.csv").read_bytes() == (s2 / "sweep.csv").read_bytes()
    for metric in ("social_cost", "storage_profit"):
        assert (s1 / f"{metric}_vs_E.svg").read_bytes() == \
            (s2 / f"{metric}_vs_E.svg").read_bytes()
    _report(8, "repeated run and sweep invocations are byte-identical "
               "(including a parallel worker pool)")
