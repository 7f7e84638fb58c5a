"""The three benchmark workloads and the checks on every answer they produce.

Each workload builds its inputs from the seed in ``setup``, runs one
operation per call of ``op`` through the public API of ``cyclemarket``, and
verifies the result in ``check``, which raises ``CheckFailure`` on a wrong
answer and otherwise returns a digest of the outputs.  Operation ``k`` uses
input ``k % len(cycle)``.

- ``case_sweep``: the paper's case study as users run it, one
  ``cyclemarket sweep`` at a single storage capital cost B per operation.
  Many small chained QPs (day-ahead at T=48, 24 constrained windows, two
  planners at T=24), plus the CSV and SVG outputs.
- ``dayahead_week``: one equilibrium-bid ``clear_general`` over a 168-hour
  forecast with the SoC corridor on; a single large dense QP.
- ``pool_uniform``: uniform-price day-ahead clearing plus unaware real time
  for four storage units over eight seeded scenarios; no QP at all, so
  rainflow and best-response cost dominate.
"""

import csv
import hashlib
import shutil
from pathlib import Path

import numpy as np

from cyclemarket import cli, simulation
from cyclemarket import build_params, equilibrium_bids_dayahead, verify_kkt_dayahead
from cyclemarket.data import default_config
from cyclemarket.simulation import BINDING_HOURS, MechanismConfig

from inputs import pool_config, write_and_reload

KKT_TOL = 1e-8
# Feasibility of a cleared schedule, relative to the largest demand; the QP
# core accepts rows within 1e-9 absolute, so this leaves room for rounding only.
FEAS_TOL = 1e-9


class CheckFailure(Exception):
    """An operation returned, but its answer is wrong."""


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(" ".join(f"{x:.10g}" for x in np.ravel(arr)).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _require(ok, message):
    if not ok:
        raise CheckFailure(message)


class Workload:
    """One pass runs operation k over ``cycle[k % len(cycle)]``."""

    name = ""
    cycle = (None,)
    demands = ()  # GeneratedDemand of every input the workload generated

    def prepare(self, k):
        """Untimed work before operation ``k``."""

    def input_record(self):
        return [{"seed": d.seed, "hours": d.hours, "csv_sha256": d.csv_sha256}
                for d in self.demands]


class CaseSweep(Workload):
    name = "case_sweep"
    hours = 48
    b_values = (100.0, 250.0, 400.0)

    def __init__(self, quick=False):
        self.cycle = self.b_values[:1] if quick else self.b_values

    def setup(self, seed, workdir):
        self.workdir = Path(workdir)
        self.demand = write_and_reload(seed, self.hours, self.workdir / "demand.csv")
        self.demands = [self.demand]
        self.specs = []
        for k, b in enumerate(self.cycle):
            spec = self.workdir / f"spec_{k}.json"
            spec.write_text(f'{{"axis": "B", "values": [{b!r}]}}\n', encoding="utf-8")
            self.specs.append(spec)

    def _out(self, k):
        return self.workdir / f"sweep_{k % len(self.cycle)}"

    def prepare(self, k):
        # a stale file from an earlier operation must not pass the check
        shutil.rmtree(self._out(k), ignore_errors=True)

    def op(self, k):
        argv = ["sweep", "--spec", str(self.specs[k % len(self.cycle)]),
                "--demand", self.demand.csv_path, "--out", str(self._out(k)), "--parallel", "1"]
        return cli.main(argv), self._out(k)

    def check(self, k, result):
        code, out = result
        _require(code == 0, f"cyclemarket sweep exited with {code}")
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == 3, f"sweep.csv has {len(rows)} rows, expected 3")
        _require(all(r["status"] == "ok" for r in rows),
                 f"sweep status {[r['status'] for r in rows]}")
        cost = {r["strategy"]: float(r["social_cost"]) for r in rows}
        _require(set(cost) == {"mechanism", "planner_periodic", "planner_nonperiodic"},
                 f"sweep strategies {sorted(cost)}")
        # dropping periodicity relaxes the planner, so its optimum cannot cost more;
        # the slack covers the CSV's ten significant digits
        _require(cost["planner_nonperiodic"]
                 <= cost["planner_periodic"] + 1e-9 * abs(cost["planner_periodic"]),
                 f"non-periodic planner cost {cost['planner_nonperiodic']} exceeds "
                 f"periodic {cost['planner_periodic']}")
        for svg in ("social_cost_vs_B.svg", "storage_profit_vs_B.svg"):
            path = out / svg
            _require(path.is_file() and path.stat().st_size > 0, f"missing chart {svg}")
        return hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()[:16]


def check_schedule(g, u, demand, params, periodic):
    """Balance, power limits, periodicity and the SoC corridor, from g and u alone."""
    scale = max(1.0, float(np.max(np.abs(demand))))
    tol = FEAS_TOL * scale
    imbalance = np.max(np.abs(g.sum(axis=0) + u.sum(axis=0) - demand))
    _require(imbalance <= tol, f"balance violated by {imbalance:.3g} MW")
    for j, gen in enumerate(params.generators):
        _require(np.all(g[j] >= gen.g_min - tol) and np.all(g[j] <= gen.g_max + tol),
                 f"generator {j} outside [{gen.g_min}, {gen.g_max}]")
    for s, st in enumerate(params.storages):
        _require(np.all(u[s] >= st.u_min - tol) and np.all(u[s] <= st.u_max + tol),
                 f"storage {s} outside its power limits")
        if periodic:
            _require(abs(u[s].sum()) <= tol, f"storage {s} net energy {u[s].sum():.3g}")
        soc = st.x0 - np.cumsum(u[s]) / st.capacity_E
        _require(soc.min() >= -tol / st.capacity_E and soc.max() <= 1 + tol / st.capacity_E,
                 f"storage {s} state of charge leaves [0, 1]")


class DayAheadWeek(Workload):
    name = "dayahead_week"

    def __init__(self, quick=False):
        self.hours = 48 if quick else 168

    def setup(self, seed, workdir):
        self.demand = write_and_reload(seed, self.hours, Path(workdir) / "demand.csv")
        self.demands = [self.demand]
        self.params = build_params(default_config(), self.demand.scenario)
        self.mech = MechanismConfig(clearing="general", enforce_soc_bounds=True)

    def op(self, k):
        return simulation.run_day_ahead(self.demand.scenario, self.params, self.mech)

    def check(self, k, da):
        # the result's own bound-aware residual; verify_kkt_dayahead covers only
        # slack limits and misreads clearings whose limits bind
        _require(da.kkt_residual <= KKT_TOL, f"day-ahead KKT residual {da.kkt_residual:.3g}")
        check_schedule(da.g, da.u, self.demand.scenario.forecast, self.params, periodic=True)
        return _digest(da.g, da.u, da.energy_price)


class PoolUniform(Workload):
    name = "pool_uniform"
    hours = 48
    # several scenarios per seed, so a run's median does not hang on one
    # scenario's share of best-response fallbacks
    scenarios = 8

    def __init__(self, quick=False):
        self.cycle = tuple(range(1 if quick else self.scenarios))

    def setup(self, seed, workdir):
        self.mech = MechanismConfig(clearing="uniform")
        self.demands = [write_and_reload((seed, i), self.hours, Path(workdir) / f"demand_{i}.csv")
                        for i in self.cycle]
        self.inputs = []
        for demand in self.demands:
            params = build_params(pool_config(), demand.scenario)
            self.inputs.append((demand.scenario, params, equilibrium_bids_dayahead(params)))

    def op(self, k):
        scenario, params, _ = self.inputs[k % len(self.cycle)]
        return simulation.run_two_stage(scenario, params, mode="unaware",
                                        mechanism_config=self.mech)

    def check(self, k, rec):
        scenario, params, bids = self.inputs[k % len(self.cycle)]
        da = rec.da_result
        report = verify_kkt_dayahead(da, bids, scenario.forecast, params)
        _require(report.max_residual <= KKT_TOL,
                 f"uniform clearing KKT residual {report.max_residual:.3g}")
        theta = da.cycle_prices[0]
        _require(all(np.array_equal(t, theta) for t in da.cycle_prices),
                 "storage units see different cycle prices")
        total = da.u.sum(axis=0)
        shares = bids.beta / bids.beta.sum()
        split = np.max(np.abs(da.u - np.outer(shares, total)))
        _require(split <= KKT_TOL * max(1.0, float(np.max(np.abs(total)))),
                 f"dispatch not split by bid slope (off by {split:.3g} MW)")
        residual = scenario.residual[:BINDING_HOURS]
        rt_total = rec.g_rt.sum(axis=0) + rec.u_rt.sum(axis=0)
        gap = np.max(np.abs(rt_total - residual))
        _require(gap <= KKT_TOL * max(1.0, float(np.max(np.abs(scenario.actual)))),
                 f"real-time adjustments miss residual demand by {gap:.3g} MW")
        return _digest(da.g, da.u, da.energy_price, rec.g_rt, rec.u_rt, rec.rt_prices)


WORKLOADS = {w.name: w for w in (CaseSweep, DayAheadWeek, PoolUniform)}
