"""Self-test of the benchmark: its checks catch wrong answers, quick mode runs.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import CheckFailure, DayAheadWeek, PoolUniform  # noqa: E402


class _Corrupted:
    """A workload whose operation returns its real answer after ``corrupt``."""

    def __init__(self, workload, corrupt):
        self.workload, self.corrupt = workload, corrupt
        self.cycle = workload.cycle

    def prepare(self, k):
        return self.workload.prepare(k)

    def op(self, k):
        result = self.workload.op(k)
        self.corrupt(result)
        return result

    def check(self, k, result):
        return self.workload.check(k, result)


def _ready(cls, tmp_path):
    workload = cls(quick=True)
    workload.setup(7, tmp_path)
    return workload


def _shift_generator(da):
    da.g[0, 5] += 1.0


def _shift_storage(rec):
    rec.da_result.u[0, 5] += 1.0


@pytest.mark.parametrize("cls, corrupt", [(DayAheadWeek, _shift_generator),
                                          (PoolUniform, _shift_storage)])
def test_dispatch_moved_by_one_mw_counts_as_failed(cls, corrupt, tmp_path):
    workload = _ready(cls, tmp_path)
    digests, errors = {}, {}
    assert run._run_op(workload, 0, digests, errors)[2]
    assert errors == {}
    assert not run._run_op(_Corrupted(workload, corrupt), 1, digests, errors)[2]
    assert errors == {"CheckFailure": 1}


def test_raising_operation_counts_as_failed(tmp_path):
    workload = _ready(PoolUniform, tmp_path)

    def boom(rec):
        raise ZeroDivisionError("injected")

    errors = {}
    assert not run._run_op(_Corrupted(workload, boom), 0, {}, errors)[2]
    assert errors == {"ZeroDivisionError": 1}


def test_day_ahead_check_catches_a_broken_power_limit(tmp_path):
    workload = _ready(DayAheadWeek, tmp_path)
    da = workload.op(0)
    workload.check(0, da)
    # shift energy between two hours: balance and periodicity still hold,
    # but the battery discharges 1 MW beyond its rate limit
    up, down = int(np.argmax(da.u[0])), int(np.argmin(da.u[0]))
    delta = workload.params.storages[0].u_max + 1.0 - da.u[0, up]
    da.u[0, [up, down]] += [delta, -delta]
    da.g[0, [up, down]] -= [delta, -delta]
    with pytest.raises(CheckFailure, match="power limits"):
        workload.check(0, da)


def test_missing_hook_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install([("cyclemarket.qp", "no_such_function", tracing.SOLVE_QP, None),
                    ("cyclemarket.no_such_module", "rainflow_map", tracing.RAINFLOW, None)])
    tracer.uninstall()
    assert tracer.absent == ["cyclemarket.qp.no_such_function",
                             "cyclemarket.no_such_module.rainflow_map"]
    metrics = tracing.layer_metrics([], 1, tracer.lost)
    assert "qp.solve_qp.iterations" not in metrics
    assert "rainflow.calls" not in metrics
    assert "realtime.window.calls" in metrics


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["pool_uniform", "dayahead_week", "case_sweep"])
def test_quick_mode(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "pool_uniform", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
