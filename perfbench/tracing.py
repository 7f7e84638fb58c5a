"""Spans around the calls into each ``cyclemarket`` module.

A hook replaces a function at one module that imported it by name, so every
call made through that module opens a span: name, start, end, parent span
and operation id.  Spans stay in memory; ``layer_metrics`` reduces them once
the run ends.  A hook whose target no longer exists is reported as absent,
and the metrics that need it are left out rather than failing the run.
"""

import functools
import importlib
import statistics
import time

RAINFLOW = "rainflow.rainflow_map"
SOLVE_QP = "qp.solve_qp"
MARKET_QP = "qp.solve_market_qp"
CLEAR_GENERAL = "dayahead.clear_general"
CLEAR_UNIFORM = "dayahead.clear_uniform"
WINDOW = "realtime.window"
BEST_RESPONSE = "realtime.best_response"
CLOSED_FORM = "realtime.equilibrium_unaware"
RUN_TWO_STAGE = "simulation.run_two_stage"
RUN_DAY_AHEAD = "simulation.run_day_ahead"
RUN_REAL_TIME = "simulation.run_real_time"
SETTLE = "simulation.settle"
PLANNER = "planner.solve_planner"
LINE_CHART = "plotting.line_chart"
LOAD_CSV = "data.load_demand_csv"
CLI_MAIN = "cli.main"
OP = "op"

LAYERS = ("rainflow", "qp", "dayahead", "realtime", "simulation", "planner", "data",
          "plotting", "cli")


def _qp_info(args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    n = H.shape[0]
    rows = 0
    for k, name in ((2, "A"), (4, "G")):
        mat = args[k] if len(args) > k else kwargs.get(name)
        if mat is not None:
            rows += mat.shape[0]
    # computed, not measured: the dense Hessian plus the constraint matrices
    return {"iterations": result.iterations, "dense_bytes": 8 * (n * n + rows * n)}


def _market_info(args, kwargs, result):
    return {"kink": any(len(p) == 2 for p in result.stationarity_pieces),
            "fallback": bool(result.fallback_used)}


def _rt_info(args, kwargs, result):
    return {"iterations": result[1].iterations if isinstance(result, tuple)
            else result.iterations}


# (module, attribute, span name, counts read from the call or its result)
HOOKS = (
    [("cyclemarket." + m, "rainflow_map", RAINFLOW, None)
     for m in ("rainflow", "qp", "dayahead", "realtime", "simulation", "costs")]
    + [("cyclemarket.qp", "solve_qp", SOLVE_QP, _qp_info)]
    + [("cyclemarket." + m, "solve_market_qp", MARKET_QP, _market_info)
       for m in ("dayahead", "realtime", "planner")]
    + [("cyclemarket.simulation", attr, name, info) for attr, name, info in (
        ("clear_general", CLEAR_GENERAL, None),
        ("clear_uniform", CLEAR_UNIFORM, None),
        ("clear_constrained_aware", WINDOW, _rt_info),
        ("best_response_unaware", BEST_RESPONSE, _rt_info),
        ("equilibrium_unaware", CLOSED_FORM, None),
        ("run_day_ahead", RUN_DAY_AHEAD, None),
        ("run_real_time", RUN_REAL_TIME, None),
        ("settle", SETTLE, None),
        ("run_two_stage", RUN_TWO_STAGE, None),
    )]
    + [("cyclemarket.cli", attr, name, None) for attr, name in (
        ("run_two_stage", RUN_TWO_STAGE),
        ("solve_planner", PLANNER),
        ("line_chart", LINE_CHART),
        ("load_demand_csv", LOAD_CSV),
        ("main", CLI_MAIN),
    )]
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.info = parent, op, {}


class Tracer:
    """In-memory span recorder; one caller, so one stack."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []
        self.absent = []   # "module.attribute" of hooks whose target is gone
        self.lost = set()  # span names that lost a hook or whose counts are unreadable
        self.op = -1

    def open(self, name):
        span = Span(name=name, start=time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function changed shape; its counts are reported absent
                    self.lost.add(name)
            return result
        return traced

    def install(self, hooks=HOOKS):
        for module_name, attr, name, info in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                self.lost.add(name)
                continue
            setattr(module, attr, self.wrap(fn, name, info))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def traced_op(self, op_id, fn):
        """Run ``fn`` under the hooks as operation ``op_id`` and return its result."""
        self.op = op_id
        self.install()
        try:
            span = self.open(OP)
            try:
                return fn()
            finally:
                self.close(span)
        finally:
            self.uninstall()


def _p(values, q):
    """Percentile ``q`` (0-100) by the inclusive method; 0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, n_ops, lost=frozenset()):
    """Per-operation layer metrics from the spans of ``n_ops`` traced operations.

    Self time is a span's duration minus that of its direct children; the
    recorder is single-threaded, so children never overlap.  A metric is left
    out when a span it reads is in ``lost``.  Returns
    ``{name: (value, unit)}``.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    calls, busy, self_time, durations, infos = {}, {}, {}, {}, {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + dur
        self_time[s.name] = self_time.get(s.name, 0.0) + dur - child_time[i]
        durations.setdefault(s.name, []).append(dur)
        infos.setdefault(s.name, []).append(s.info)

    def info_sum(name, key):
        return sum(i.get(key, 0) for i in infos.get(name, ()))

    def info_values(name, key):
        return [i[key] for i in infos.get(name, ()) if key in i]

    per = 1.0 / n_ops
    outer_rounds = sum(1 for s in spans if s.name == SOLVE_QP and s.parent >= 0
                       and spans[s.parent].name == MARKET_QP)
    qp_iters = info_sum(SOLVE_QP, "iterations")
    qp_busy = busy.get(SOLVE_QP, 0.0)
    br_calls = calls.get(BEST_RESPONSE, 0)

    # (metric, unit, spans it reads, value)
    table = [
        ("rainflow.calls", "count", (RAINFLOW,), calls.get(RAINFLOW, 0) * per),
        ("rainflow.busy_s", "s", (RAINFLOW,), busy.get(RAINFLOW, 0.0) * per),
        ("rainflow.call_p50_us", "us", (RAINFLOW,), _p(durations.get(RAINFLOW), 50) * 1e6),
        ("qp.solve_qp.calls", "count", (SOLVE_QP,), calls.get(SOLVE_QP, 0) * per),
        ("qp.solve_qp.iterations", "count", (SOLVE_QP,), qp_iters * per),
        ("qp.solve_qp.busy_s", "s", (SOLVE_QP,), qp_busy * per),
        ("qp.solve_qp.iter_us", "us", (SOLVE_QP,), qp_busy / qp_iters * 1e6 if qp_iters else 0.0),
        ("qp.solve_qp.dense_mb", "MB", (SOLVE_QP,), info_sum(SOLVE_QP, "dense_bytes") * per / 1e6),
        ("qp.solve_market_qp.calls", "count", (MARKET_QP,), calls.get(MARKET_QP, 0) * per),
        ("qp.solve_market_qp.outer_rounds", "count", (MARKET_QP, SOLVE_QP), outer_rounds * per),
        ("qp.solve_market_qp.self_s", "s", (MARKET_QP, SOLVE_QP, RAINFLOW),
         self_time.get(MARKET_QP, 0.0) * per),
        ("qp.solve_market_qp.kink", "count", (MARKET_QP,), info_sum(MARKET_QP, "kink") * per),
        ("qp.solve_market_qp.fallback", "count", (MARKET_QP,),
         info_sum(MARKET_QP, "fallback") * per),
    ]
    for name in (CLEAR_GENERAL, CLEAR_UNIFORM):
        table += [(f"{name}.busy_s", "s", (name,), busy.get(name, 0.0) * per),
                  (f"{name}.self_s", "s", (name, MARKET_QP, RAINFLOW),
                   self_time.get(name, 0.0) * per)]
    table += [
        ("realtime.window.calls", "count", (WINDOW,), calls.get(WINDOW, 0) * per),
        ("realtime.window.p50_s", "s", (WINDOW,), _p(durations.get(WINDOW), 50)),
        ("realtime.window.p90_s", "s", (WINDOW,), _p(durations.get(WINDOW), 90)),
        ("realtime.window.iterations_p50", "count", (WINDOW,),
         _p(info_values(WINDOW, "iterations"), 50)),
        ("realtime.best_response.calls", "count", (BEST_RESPONSE,), br_calls * per),
        ("realtime.best_response.busy_s", "s", (BEST_RESPONSE,),
         busy.get(BEST_RESPONSE, 0.0) * per),
        ("realtime.best_response.iterations", "count", (BEST_RESPONSE,),
         info_sum(BEST_RESPONSE, "iterations") * per),
        ("realtime.best_response.success_ratio", "ratio", (BEST_RESPONSE, CLOSED_FORM),
         1.0 - calls.get(CLOSED_FORM, 0) / br_calls if br_calls else 0.0),
        ("planner.calls", "count", (PLANNER,), calls.get(PLANNER, 0) * per),
        ("planner.busy_s", "s", (PLANNER,), busy.get(PLANNER, 0.0) * per),
        ("planner.self_s", "s", (PLANNER, MARKET_QP), self_time.get(PLANNER, 0.0) * per),
        ("simulation.run_day_ahead.busy_s", "s", (RUN_DAY_AHEAD,),
         busy.get(RUN_DAY_AHEAD, 0.0) * per),
        ("simulation.run_real_time.self_s", "s", (RUN_REAL_TIME, WINDOW, BEST_RESPONSE,
                                                  CLOSED_FORM, RAINFLOW),
         self_time.get(RUN_REAL_TIME, 0.0) * per),
        ("simulation.settle.busy_s", "s", (SETTLE,), busy.get(SETTLE, 0.0) * per),
        ("data.load_demand_csv.busy_s", "s", (LOAD_CSV,), busy.get(LOAD_CSV, 0.0) * per),
        ("plotting.line_chart.busy_s", "s", (LINE_CHART,), busy.get(LINE_CHART, 0.0) * per),
        ("cli.self_s", "s", (CLI_MAIN, RUN_TWO_STAGE, PLANNER, LINE_CHART, LOAD_CSV),
         self_time.get(CLI_MAIN, 0.0) * per),
    ]
    # every span's self time lands in exactly one layer, and the operation's own
    # self time is what no hook covers, so these sum to the traced operation time
    for layer in LAYERS:
        table.append((f"layer.{layer}.self_s", "s", (),
                      sum(t for name, t in self_time.items()
                          if name.split(".")[0] == layer) * per))
    table += [
        ("layer.untraced.self_s", "s", (), self_time.get(OP, 0.0) * per),
        ("trace.op_busy_s", "s", (), busy.get(OP, 0.0) * per),
    ]
    return {metric: (value, unit) for metric, unit, needs, value in table
            if not lost.intersection(needs)}
