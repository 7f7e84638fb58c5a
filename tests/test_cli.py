"""Tests for the command-line driver and its output artifacts."""

import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclemarket
from cyclemarket.cli import main
from cyclemarket.data import DemandScenario, synthetic_scenario, write_demand_csv
from cyclemarket.plotting import line_chart


def read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_at_threads(args, threads):
    """Run ``python args`` in a fresh process with ``threads`` BLAS threads and
    return its standard output."""
    path = os.pathsep.join([str(Path(cyclemarket.__file__).resolve().parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, check=True, timeout=600,
                          capture_output=True, text=True).stdout


def run_cli_at_threads(args, out, threads):
    """Run the CLI in a fresh process with ``threads`` BLAS threads."""
    run_at_threads(["-m", "cyclemarket.cli", *args, "--out", str(out)], threads)


# the four-unit roster's day-ahead on the bundled fixture's demand; prints
# the clearing's KKT residual and objective as JSON
FOUR_UNIT_DAY_AHEAD = """
import json
from cyclemarket import MarketConfig, build_params, run_day_ahead
from cyclemarket.data import synthetic_scenario
scenario = synthetic_scenario()
config = MarketConfig(
    generators=[{"c": 20.0}, {"c": 35.0, "a": 5.0}],
    storages=[{"capacity_E": 50.0, "capital_cost_B": b} for b in (100.0, 150.0, 250.0, 400.0)])
da = run_day_ahead(scenario, build_params(config, scenario))
print(json.dumps([da.kkt_residual, da.objective]))
"""


class TestRun:
    @pytest.mark.parametrize("mode", ["aware", "unaware"])
    def test_output_bytes_independent_of_blas_threads(self, tmp_path, mode):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            run_cli_at_threads(["run", "--mode", mode], out, threads)
            outputs.append([(out / name).read_bytes()
                            for name in ("trace.csv", "run_summary.csv")])
        assert outputs[0] == outputs[1]

    def test_sweep_bytes_independent_of_blas_threads(self, tmp_path):
        # later sweep points reuse the null-space views the first point built
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"axis": "B", "values": [100.0, 250.0, 400.0]}),
                        encoding="utf-8")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            run_cli_at_threads(["sweep", "--spec", str(spec)], out, threads)
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_four_unit_day_ahead_objective_independent_of_blas_threads(self):
        # only a 1e-12 ridge pins the units' split, which can follow the
        # thread count's rounding (ROADMAP item 4); the objective must not
        cleared = [json.loads(run_at_threads(["-c", FOUR_UNIT_DAY_AHEAD], threads))
                   for threads in ("1", "2")]
        for residual, _ in cleared:
            assert residual <= 1e-8
        (_, first), (_, second) = cleared
        assert abs(first - second) <= 1e-9 * abs(first)

    def test_bundled_fixture_produces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--out", str(out)])
        assert code == 0
        assert (out / "run_summary.csv").exists()
        assert (out / "trace.csv").exists()
        rows = read_rows(out / "run_summary.csv")
        metrics = {r["metric"] for r in rows}
        assert {"social_cost", "storage_profit", "generator_profit",
                "merchandising_surplus"} <= metrics
        trace = read_rows(out / "trace.csv")
        assert len(trace) == 24
        assert {"hour", "da_price", "rt_price", "soc_0"} <= set(trace[0])

    @pytest.mark.parametrize("mode", ["aware", "unaware"])
    def test_trace_writes_idle_dispatch_as_idle(self, tmp_path, mode):
        # a solve leaves rounding-level storage entries, |u| <= 1e-9 max(1, max|u_s|),
        # which the certificates read as idle (qp.idle_dispatch); the trace does too
        out = tmp_path / "o"
        assert main(["run", "--mode", mode, "--out", str(out)]) == 0
        trace = read_rows(out / "trace.csv")
        columns = [name for name in trace[0] if name.startswith(("u_da_", "u_rt_"))]
        assert columns
        for name in columns:
            u = [abs(float(row[name])) for row in trace]
            scale = max(1.0, max(u))
            assert not [x for x in u if 0.0 < x <= 1e-9 * scale], name

    def test_aware_real_time_windows_start_near_their_optimum(self, tmp_path):
        # each window is seeded from the one before; started cold they took 1,316
        out = tmp_path / "o"
        assert main(["run", "--mode", "aware", "--out", str(out)]) == 0
        rows = {r["metric"]: r["value"] for r in read_rows(out / "run_summary.csv")}
        assert 0 < float(rows["rt_iterations_total"]) <= 300

    def test_missing_demand_file_exits_one(self, tmp_path, capsys):
        code = main(["run", "--demand", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("content", [
        b"timestamp,forecast_mw,actual_mw\n2023-08-25T00:00:00,\xff,\n",
        b"time,forecast,actual\n",
    ], ids=["not-utf8", "bad-header"])
    def test_malformed_demand_exits_two(self, tmp_path, capsys, command, content):
        demand = tmp_path / "demand.csv"
        demand.write_bytes(content)
        args = ["--demand", str(demand), "--out", str(tmp_path / "o")]
        if command == "sweep":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"axis": "B", "values": [150.0]}), encoding="utf-8")
            args = ["--spec", str(spec)] + args
        assert main([command] + args) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_missing_demand_file_exits_one_from_sweep(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"axis": "B", "values": [150.0]}), encoding="utf-8")
        code = main(["sweep", "--spec", str(spec), "--demand", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_zero_demand_exits_one_aware_and_clears_unaware(self, tmp_path, capsys):
        demand = tmp_path / "zero.csv"
        write_demand_csv(DemandScenario(forecast=[0.0] * 48, actual=[0.0] * 24), demand)
        args = ["run", "--demand", str(demand), "--out", str(tmp_path / "o")]
        assert main(args + ["--mode", "aware"]) == 1
        assert capsys.readouterr().err == \
            "cyclemarket: window at hour 0 has no cycling content\n"
        assert main(args + ["--mode", "unaware"]) == 0

    def test_unaware_mode_flag(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--mode", "unaware", "--out", str(out)])
        assert code == 0
        rows = {r["metric"]: r["value"] for r in read_rows(out / "run_summary.csv")}
        assert float(rows["rt_iterations_total"]) == 0  # every window clears in closed form
        assert rows["soc_outside_corridor"] == "7"  # unaware mode leaves the corridor

    def test_custom_config(self, tmp_path):
        cfg = {"generators": [{"c": 25.0}], "storages": [{"capacity_E": 30.0}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_wide_generator_limits_certify(self, tmp_path):
        # generators at +-1e9 start at 0, as unbounded ones do
        gens = [{"c": c, "g_min": -1e9, "g_max": 1e9} for c in (27.397, 21.354, 17.968)]
        cfg = {"generators": gens, "storages": [{"capacity_E": 300}, {"capacity_E": 150}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = {r["metric"]: r["value"] for r in read_rows(out / "run_summary.csv")}
        assert float(rows["da_kkt_residual"]) <= 1e-8

    @pytest.mark.parametrize("g_min, g_max, message", [
        (1e9, 2e9, "cannot be met"),  # phase 1 names the surplus
        (3e9, 2e11, "phase 1's start"),  # phase 1's own start misses its balance by rounding
    ])
    def test_must_run_generators_far_from_zero_exit_one(self, tmp_path, capsys, g_min, g_max,
                                                        message):
        gens = [{"c": c, "g_min": g_min, "g_max": g_max} for c in (20, 30)]
        cfg = {"generators": gens, "storages": [{"capacity_E": 300}, {"capacity_E": 150}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cyclemarket: ") and message in err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"generators": [{"c": -3}]}), encoding="utf-8")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("content", [
        b'{"generators": [{"c": "abc"}]}',
        b'{"generators": [1]}',
        b'{"generators": [{"c": 20}',
        b'{"generators": [{"c": "\xff"}]}',
        b'[{"c": 20}]',
        b'{"generators": [{"c": 20}], "tolerances": {"tol": 1e-8}}',
        b'{"generators": [{"c": 20, "a": NaN}]}',
        b'{"generators": [{"c": 20, "g_min": NaN}]}',
        b'{"generators": [{"c": Infinity}]}',
        b'{"generators": [{"c": 20}], "storages": [{"capacity_E": Infinity}]}',
        b'{"generators": [{"c": 20}],'
        b' "storages": [{"capacity_E": 50, "capital_cost_B": Infinity}]}',
    ], ids=["non-numeric", "non-object-entry", "truncated", "not-utf8", "top-level-list",
            "tolerances", "nan-a", "nan-g_min", "infinite-c", "infinite-E", "infinite-B"])
    def test_malformed_config_exits_two(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("removed", [{"horizon": 48}, {"mode": {"realtime": "unaware"}}])
    def test_unread_config_keys_exit_two(self, tmp_path, capsys, removed):
        # the horizon comes from the demand file and the mode from --mode
        cfg = {"generators": [{"c": 25.0}], "storages": [{"capacity_E": 30.0}], **removed}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(out1)]) == 0
        assert main(["run", "--out", str(out2)]) == 0
        for name in ("run_summary.csv", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_import_leaves_the_process_pool_unloaded():
    # only a sweep with two or more workers starts a process pool, so a run
    # does not import multiprocessing
    probe = "import sys, cyclemarket.cli; print('concurrent.futures.process' in sys.modules)"
    assert run_at_threads(["-c", probe], "1").strip() == "False"


class TestSweep:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"axis": "E", "values": [40.0, 60.0],
                                    "fixed": {"B": 150.0}}), encoding="utf-8")
        return path

    def test_grid_rows_and_plots(self, tmp_path, spec_path):
        out = tmp_path / "out"
        code = main(["sweep", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2 * 3  # two values x three strategies
        assert all(r["status"] == "ok" for r in rows)
        assert (out / "social_cost_vs_E.svg").exists()
        assert (out / "storage_profit_vs_E.svg").exists()

    def test_single_point_matches_run(self, tmp_path):
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"axis": "E", "values": [50.0], "fixed": {"B": 150.0},
                                    "strategies": ["mechanism"]}), encoding="utf-8")
        out_run, out_sweep = tmp_path / "r", tmp_path / "s"
        assert main(["run", "--out", str(out_run)]) == 0
        assert main(["sweep", "--spec", str(spec), "--out", str(out_sweep)]) == 0
        summary = {r["metric"]: r["value"] for r in read_rows(out_run / "run_summary.csv")}
        row = read_rows(out_sweep / "sweep.csv")[0]
        assert float(row["social_cost"]) == pytest.approx(float(summary["social_cost"]))

    def test_parallel_matches_serial(self, tmp_path, spec_path):
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out1)]) == 0
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out2),
                     "--parallel", "2"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "social_cost_vs_E.svg").read_bytes() == \
            (out2 / "social_cost_vs_E.svg").read_bytes()

    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of every process pool the sweep starts; the
        stand-in pool maps in this process."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return sizes

    def test_workers_capped_at_task_count(self, tmp_path, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"axis": "B", "values": [150.0]}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "--out", str(out), "--parallel", "64"]) == 0
        assert pool_sizes == [3]  # one value, three strategies
        assert [r["status"] for r in read_rows(out / "sweep.csv")] == ["ok"] * 3

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, []), (None, [])])
    def test_workers_capped_at_cpu_count(self, tmp_path, pool_sizes, monkeypatch, cpus, sizes):
        # one CPU, or a count the system cannot tell, runs the tasks serially
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"axis": "B", "values": [150.0]}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "--out", str(out), "--parallel", "64"]) == 0
        assert pool_sizes == sizes
        assert [r["status"] for r in read_rows(out / "sweep.csv")] == ["ok"] * 3

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exits_two(self, tmp_path, capsys, pool_sizes, parallel):
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"axis": "B", "values": [150.0]}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["sweep", "--spec", str(spec), "--out", str(out), "--parallel", parallel])
        assert code == 2
        assert "--parallel must be at least 1" in capsys.readouterr().err
        assert pool_sizes == [] and not out.exists()

    def test_short_realized_day_fails_only_the_mechanism(self, tmp_path):
        demand = tmp_path / "short.csv"
        write_demand_csv(synthetic_scenario(n_realized=12), demand)
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"axis": "B", "values": [150.0]}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["sweep", "--spec", str(spec), "--demand", str(demand), "--out", str(out)])
        assert code == 1
        status = {r["strategy"]: r["status"] for r in read_rows(out / "sweep.csv")}
        assert status == {"mechanism": "error: need 24 realized hours, have 12",
                          "planner_periodic": "ok", "planner_nonperiodic": "ok"}

    def test_one_large_axis_value_plots(self, tmp_path):
        # a flat x range widens relative to its level, so 1e17 + step != 1e17
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"axis": "E", "values": [1e17]}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert [r["status"] for r in read_rows(out / "sweep.csv")] == ["ok"] * 3
        for metric in ("social_cost", "storage_profit"):
            assert (out / f"{metric}_vs_E.svg").read_text(encoding="utf-8").count("<polyline") == 3

    def test_sweep_without_storage_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"axis": "B", "values": [150.0]}), encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"generators": [{"c": 20.0}]}), encoding="utf-8")
        code = main(["sweep", "--spec", str(spec), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "at least one storage unit" in capsys.readouterr().err

    def test_line_chart_needs_data(self, tmp_path):
        with pytest.raises(ValueError, match="no data to plot"):
            line_chart([], "t", "x", "y", tmp_path / "empty.svg")

    def test_invalid_spec_exits_two(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"axis": "Q", "values": []}), encoding="utf-8")
        code = main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("content", [
        b'{"values": ["x"]}',
        b'{"axis": "B", "values": 100}',
        b'{"axis": "B", "values": [100], "fixed": {"E": "x"}}',
        b'{"axis": "B", "values": [100], "strategies": [["mechanism"]]}',
        b'[{"axis": "B", "values": [100]}]',
        b'{"axis": "B", "values": [100]',
        b'{"axis": "B", "values": [100, Infinity]}',
        b'{"axis": "E", "values": [NaN]}',
        b'{"axis": "B", "values": [100], "fixed": {"E": Infinity}}',
        b'{"axis": "B", "values": [100], "strategies": []}',
        b'{"axis": "B", "values": [true]}',
        b'{"axis": "B", "values": [100], "fixed": {"E": true}}',
    ], ids=["non-numeric-value", "values-not-list", "non-numeric-fixed", "unhashable-strategy",
            "top-level-list", "truncated", "infinite-value", "nan-value", "infinite-fixed",
            "empty-strategies", "boolean-value", "boolean-fixed"])
    def test_malformed_spec_exits_two(self, tmp_path, capsys, content):
        spec = tmp_path / "bad.json"
        spec.write_bytes(content)
        code = main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "invalid input" in capsys.readouterr().err

    def test_plots_are_views_of_csv_rows(self, tmp_path, spec_path):
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        svg = (out / "social_cost_vs_E.svg").read_text(encoding="utf-8")
        # every plotted series point corresponds to a CSV row's value
        for r in rows:
            assert r["status"] == "ok"
        assert svg.count("<polyline") == 3
