#!/usr/bin/env python3
"""cyclemarket benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload case_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` of this
checkout and nowhere else.  Operations run back to back (closed loop, one
caller), each is checked, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--quick`` runs each workload once at small sizes.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import os

# BLAS thread pools are sized when numpy loads, so pin them first: iteration
# counts of the active-set solver depend on the thread count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("case_sweep", "dayahead_week", "pool_uniform")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import ``cyclemarket`` from this checkout's ``src/``, or exit with code 2."""
    if not (SRC / "cyclemarket" / "__init__.py").is_file():
        _fail(f"no cyclemarket package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import cyclemarket
    if Path(cyclemarket.__file__).resolve().parent.parent != SRC:
        _fail(f"imported cyclemarket from {cyclemarket.__file__}, not from {SRC}")
    return cyclemarket


def _setup(name, seed, quick, workdir):
    from workloads import WORKLOADS
    workload = WORKLOADS[name](quick=quick)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(seed, workdir)
    return workload


def _setup_run(args):
    """(start, end) of a fresh process importing ``cyclemarket``, generating the
    inputs and building the parameters."""
    workdir = OUT_DIR / f"setup-{os.getpid()}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    if args.quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def _machine():
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = ""
    try:
        blas_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name', '')} {blas_cfg.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _count(errors, exc):
    errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1


def _run_op(workload, k, digests, errors, tracer=None):
    """One checked operation, traced when ``tracer`` is given; returns (start, end, passed)."""
    workload.prepare(k)
    if tracer is None:
        call = lambda: workload.op(k)  # noqa: E731
    else:
        call = lambda: tracer.traced_op(k, lambda: workload.op(k))  # noqa: E731
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an operation that raises is counted, and the run goes on
        end = time.perf_counter()
        _count(errors, exc)
        traceback.print_exc(file=sys.stderr)
        return start, end, False
    end = time.perf_counter()
    try:
        digest = workload.check(k, result)
    except Exception as exc:
        _count(errors, exc)
        print(f"perfbench: operation {k} failed its check: {exc!r}", file=sys.stderr)
        return start, end, False
    digests.setdefault(k % len(workload.cycle), set()).add(digest)
    return start, end, True


def _measure(workload, seconds, tracer=None):
    """Closed loop: the next operation starts when the previous one returns.

    Operations run in whole passes over the workload's inputs, so every run
    weighs its inputs alike and per-operation counts repeat exactly.  A new
    pass starts only if the last one's duration still fits in the time left,
    so a run lasts about ``seconds``; the first pass always runs.  With a
    ``tracer`` each input runs twice, traced and untraced, alternating which
    goes first so slow drift of the machine falls on both sides.  Returns the
    (start, end, traced) of each operation, pass flags, digests and failure
    counts by exception type.
    """
    runs, ok, digests, errors = [], [], {}, {}
    begin = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        for _ in workload.cycle:
            if tracer is None:
                sides = (None,)
            else:
                sides = (tracer, None) if k % 2 == 0 else (None, tracer)
            for side in sides:
                start, end, passed = _run_op(workload, k, digests, errors, side)
                runs.append((start, end, side is not None))
                ok.append(passed)
            k += 1
        now = time.perf_counter()
        if now - begin + (now - pass_start) > seconds:
            return runs, ok, digests, errors


def _end_to_end(args, workload):
    """End-to-end metrics; times are in reference seconds (see ``refspeed``)."""
    from refspeed import SpeedTrack
    with SpeedTrack() as track:
        runs, ok, digests, errors = _measure(workload, 0.0 if args.quick else args.seconds)
        setups = [_setup_run(args) for _ in range(SETUP_REPEATS)]
    wall = [end - start for start, end, _ in runs]
    ref = [(end - start) * track.scale(start, end) for start, end, _ in runs]
    setup = [(end - start) * track.scale(start, end) for start, end in setups]
    metrics = {
        "ops_per_s": (sum(ok) / sum(ref), "op/s"),
        "op_p50_s": (statistics.median(ref), "s"),
        "ok_frac": (sum(ok) / len(ok), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    summary = {"ops": len(wall), "wall_op_s": wall, "ref_op_s": ref,
               "wall_setup_s": [end - start for start, end in setups], "ref_setup_s": setup,
               "kernel_median_s": track.median(), "kernel_samples": len(track.seconds)}
    if len(ref) >= 100:
        # the highest percentile with at least ten samples beyond it
        summary["op_p90_s"] = statistics.quantiles(ref, n=10)[-1]
    return ok, digests, errors, metrics, summary


def _per_layer(args, workload):
    """Per-layer metrics in wall seconds; the overhead compares reference seconds."""
    from refspeed import SpeedTrack
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    with SpeedTrack() as track:
        runs, ok, digests, errors = _measure(workload, 0.0 if args.quick else args.seconds,
                                             tracer)
    p50 = {side: statistics.median((end - start) * track.scale(start, end)
                                   for start, end, traced in runs if traced == side)
           for side in (True, False)}
    metrics = layer_metrics(tracer.spans, len(runs) // 2, tracer.lost)
    metrics["trace.op_p50_s"] = (p50[True], "s")
    metrics["trace.untraced_op_p50_s"] = (p50[False], "s")
    metrics["trace.overhead_frac"] = (p50[True] / p50[False] - 1.0, "ratio")
    summary = {"paired_ops": len(runs) // 2, "spans": len(tracer.spans),
               "absent_hooks": tracer.absent}
    return ok, digests, errors, metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, each workload input run once")
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    _import_package()
    if args.setup_only:
        _setup(args.workload, args.seed, args.quick, Path(args.setup_only))
        print(json.dumps([start, time.perf_counter()]))
        return 0
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        workload = _setup(args.workload, args.seed, args.quick, workdir)
        measure = _per_layer if args.trace else _end_to_end
        ok, digests, errors, metrics, summary = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:  # another run still uses it
            pass

    summary.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   inputs=workload.input_record(), errors=errors,
                   digests={k: sorted(v) for k, v in digests.items()}, machine=_machine())
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": all(ok), "attempted": len(ok), "failed": len(ok) - sum(ok),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
