"""Command-line driver: single case-study runs and parameter sweeps.

``cyclemarket run`` executes one two-stage simulation and writes
``run_summary.csv`` (scalar results and per-participant payments/profits)
plus ``trace.csv`` (hourly demand, prices, dispatch, state of charge).

``cyclemarket sweep`` evaluates a grid over storage capital cost or capacity
for the mechanism and both social-planner benchmarks, writing ``sweep.csv``
and one SVG chart per metric rendered straight from those CSV rows.

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .data import (
    MarketConfig,
    build_params,
    bundled_demand_path,
    default_config,
    load_demand_csv,
)
from .errors import ConfigError, CycleMarketError
from .planner import participant_profit, solve_planner
from .plotting import line_chart
from .simulation import BINDING_HOURS, MechanismConfig, run_two_stage

__all__ = ["main", "cmd_run", "cmd_sweep"]

STRATEGIES = ("mechanism", "planner_periodic", "planner_nonperiodic")
METRICS = ("social_cost", "storage_profit")


def _fmt(x):
    return f"{float(x):.10g}"


def _load_inputs(args):
    config = MarketConfig.from_json(args.config) if args.config else default_config()
    demand_path = args.demand or bundled_demand_path()
    scenario = load_demand_csv(demand_path)
    return config, scenario


def cmd_run(args):
    config, scenario = _load_inputs(args)
    params = build_params(config, scenario)
    mech = MechanismConfig(enforce_soc_bounds=config.enforce_soc_bounds, tol=config.tol)
    record = run_two_stage(scenario, params, mode=args.mode, mechanism_config=mech)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    st = record.settlement
    with open(out / "run_summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "participant", "value"])
        writer.writerow(["social_cost", "", _fmt(st.social_cost)])
        writer.writerow(["merchandising_surplus", "", _fmt(st.merchandising_surplus)])
        writer.writerow(["da_objective", "", _fmt(record.da_result.objective)])
        writer.writerow(["da_kkt_residual", "", _fmt(record.da_result.kkt_residual)])
        writer.writerow(["rt_iterations_total", "",
                         _fmt(sum(s.iterations for s in record.rt_steps))])
        for j in range(params.n_generators):
            writer.writerow(["generator_payment", f"g{j}", _fmt(st.generator_payments[j])])
            writer.writerow(["generator_profit", f"g{j}", _fmt(st.generator_profits[j])])
        for s in range(params.n_storages):
            writer.writerow(["storage_payment", f"s{s}", _fmt(st.storage_payments[s])])
            writer.writerow(["storage_cycle_payment", f"s{s}",
                             _fmt(st.storage_cycle_payments[s])])
            writer.writerow(["storage_profit", f"s{s}", _fmt(st.storage_profits[s])])

    da = record.da_result
    with open(out / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["hour", "forecast_mw", "actual_mw", "da_price", "rt_price"]
        header += [f"g_da_{j}" for j in range(params.n_generators)]
        header += [f"g_rt_{j}" for j in range(params.n_generators)]
        header += [f"u_da_{s}" for s in range(params.n_storages)]
        header += [f"u_rt_{s}" for s in range(params.n_storages)]
        header += [f"soc_{s}" for s in range(params.n_storages)]
        writer.writerow(header)
        for h in range(BINDING_HOURS):
            row = [str(h), _fmt(scenario.forecast[h]), _fmt(scenario.actual[h]),
                   _fmt(da.energy_price[h]), _fmt(record.rt_prices[h])]
            row += [_fmt(da.g[j, h]) for j in range(params.n_generators)]
            row += [_fmt(record.g_rt[j, h]) for j in range(params.n_generators)]
            row += [_fmt(da.u[s, h]) for s in range(params.n_storages)]
            row += [_fmt(record.u_rt[s, h]) for s in range(params.n_storages)]
            row += [_fmt(record.realized_soc[s, h + 1]) for s in range(params.n_storages)]
            writer.writerow(row)
    return 0


def _sweep_point(task):
    """One (axis value, strategy) evaluation; runs in its own worker."""
    config = MarketConfig.from_dict(task["config_doc"])
    scenario = load_demand_csv(task["demand_path"])
    axis, value = task["axis"], task["value"]
    store = dict(config.storages[0])
    if axis == "B":
        store["capital_cost_B"] = value
    else:
        store["capacity_E"] = value
    config.storages[0] = store
    params = build_params(config, scenario)
    strategy = task["strategy"]
    try:
        if strategy == "mechanism":
            mech = MechanismConfig(enforce_soc_bounds=config.enforce_soc_bounds, tol=config.tol)
            rec = run_two_stage(scenario, params, mode=task["mode"], mechanism_config=mech)
            cost = rec.social_cost
            profit = float(rec.settlement.storage_profits.sum())
        else:
            periodic = strategy == "planner_periodic"
            res = solve_planner(params, scenario.actual[:BINDING_HOURS], periodic=periodic,
                                tol=config.tol)
            _, storage_profits = participant_profit(res, params)
            cost = res.objective
            profit = float(storage_profits.sum())
        return {"axis": axis, "axis_value": value, "strategy": strategy,
                "social_cost": cost, "storage_profit": profit, "status": "ok"}
    except CycleMarketError as exc:
        return {"axis": axis, "axis_value": value, "strategy": strategy,
                "social_cost": "", "storage_profit": "", "status": f"error: {exc}"}


def _load_sweep_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    axis = doc.get("axis")
    if axis not in ("B", "E"):
        problems.append("axis must be 'B' or 'E'")
    values = doc.get("values", [])
    if not values or any(not (float(v) > 0) for v in values):
        problems.append("values must be a non-empty list of positive numbers")
    strategies = doc.get("strategies", list(STRATEGIES))
    if not set(strategies) <= set(STRATEGIES):
        problems.append(f"strategies must be a subset of {STRATEGIES}")
    metrics = doc.get("metrics", list(METRICS))
    if not set(metrics) <= set(METRICS):
        problems.append(f"metrics must be a subset of {METRICS}")
    unknown = set(doc) - {"axis", "values", "fixed", "strategies", "metrics"}
    if unknown:
        problems.append(f"unknown keys: {sorted(unknown)}")
    if problems:
        raise ConfigError(problems)
    return {"axis": axis, "values": [float(v) for v in values],
            "fixed": doc.get("fixed", {}), "strategies": list(strategies),
            "metrics": list(metrics)}


def cmd_sweep(args):
    spec = _load_sweep_spec(args.spec)
    config = MarketConfig.from_json(args.config) if args.config else default_config()
    if not config.storages:
        raise ConfigError("sweeps need at least one storage unit in the config")
    store = dict(config.storages[0])
    fixed = spec["fixed"]
    if spec["axis"] == "B" and "E" in fixed:
        store["capacity_E"] = float(fixed["E"])
    if spec["axis"] == "E" and "B" in fixed:
        store["capital_cost_B"] = float(fixed["B"])
    config.storages[0] = store
    demand_path = args.demand or bundled_demand_path()
    config_doc = {
        "generators": config.generators, "storages": config.storages,
        "horizon": config.horizon, "tolerances": {"tol": config.tol},
        "mode": {"enforce_soc_bounds": config.enforce_soc_bounds,
                 "realtime": config.realtime_mode},
    }
    tasks = [
        {"axis": spec["axis"], "value": v, "strategy": strat, "config_doc": config_doc,
         "demand_path": demand_path, "mode": args.mode}
        for v in spec["values"] for strat in spec["strategies"]
    ]
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep_csv = out / "sweep.csv"
    with open(sweep_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "axis_value", "strategy", "social_cost",
                         "storage_profit", "status"])
        for row in rows:
            writer.writerow([
                row["axis"], _fmt(row["axis_value"]), row["strategy"],
                _fmt(row["social_cost"]) if row["status"] == "ok" else "",
                _fmt(row["storage_profit"]) if row["status"] == "ok" else "",
                row["status"],
            ])
    _plot_sweep(sweep_csv, spec["metrics"], out)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _plot_sweep(sweep_csv, metrics, out_dir):
    """Charts are regenerated from the CSV rows so they are pure views."""
    with open(sweep_csv, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return
    axis = rows[0]["axis"]
    xlabel = "storage capital cost ($/kWh)" if axis == "B" else "storage capacity (MWh)"
    for metric in metrics:
        series = []
        for strat in STRATEGIES:
            pts = [(float(r["axis_value"]), float(r[metric]))
                   for r in rows if r["strategy"] == strat and r["status"] == "ok"]
            if pts:
                pts.sort()
                series.append((strat, [p[0] for p in pts], [p[1] for p in pts]))
        if series:
            title = {"social_cost": "Two-stage social cost",
                     "storage_profit": "Storage profit"}[metric]
            ylabel = {"social_cost": "social cost ($)",
                      "storage_profit": "storage profit ($)"}[metric]
            line_chart(series, title, xlabel, ylabel, out_dir / f"{metric}_vs_{axis}.svg")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cyclemarket",
        description="Two-stage electricity market with cycle-depth storage bidding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single two-stage simulation")
    p_run.add_argument("--config", help="market config JSON (default: built-in case study)")
    p_run.add_argument("--demand", help="demand CSV (default: bundled fixture)")
    p_run.add_argument("--mode", choices=["aware", "unaware"], default="aware")
    p_run.add_argument("--out", default="out", help="output directory")

    p_sweep = sub.add_parser("sweep", help="parameter sweep over B or E")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--config", help="market config JSON")
    p_sweep.add_argument("--demand", help="demand CSV (default: bundled fixture)")
    p_sweep.add_argument("--mode", choices=["aware", "unaware"], default="aware")
    p_sweep.add_argument("--out", default="out", help="output directory")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker count")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_sweep(args)
    except ConfigError as exc:
        print(f"cyclemarket: invalid input: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cyclemarket: {exc}", file=sys.stderr)
        return 1
    except CycleMarketError as exc:
        print(f"cyclemarket: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
