"""Demand-data ingestion, market configuration, and the bundled fixture.

The CSV contract: header ``timestamp,forecast_mw,actual_mw``, hourly ISO-8601
timestamps with no gaps, all naive or all with an offset, RFC-4180 quoting,
UTF-8 (BOM allowed).  ``actual_mw`` may be blank on advisory-only rows;
realized values must form a contiguous prefix.  Negative demand is accepted
with a warning (net load behind large renewable infeed can be negative).
"""

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from importlib import resources

import numpy as np

from .costs import GeneratorParams, MarketParams, StorageParams
from .errors import ConfigError, DemandCSVError

__all__ = [
    "DemandScenario",
    "MarketConfig",
    "load_json",
    "load_demand_csv",
    "write_demand_csv",
    "build_params",
    "synthetic_scenario",
    "bundled_demand_path",
]


@dataclass
class DemandScenario:
    """Forecast over the optimization horizon plus realized actuals.

    ``residual`` is actual minus forecast over the realized prefix; the total
    demand seen in real time is forecast + residual by construction.
    """

    forecast: np.ndarray
    actual: np.ndarray
    timestamps: list = field(default_factory=list)

    def __post_init__(self):
        self.forecast = np.asarray(self.forecast, dtype=float)
        self.actual = np.asarray(self.actual, dtype=float)
        if self.actual.size > self.forecast.size:
            raise DemandCSVError("more realized values than forecast intervals")

    @property
    def horizon(self):
        return self.forecast.size

    @property
    def n_realized(self):
        return self.actual.size

    @property
    def residual(self):
        return self.actual - self.forecast[: self.actual.size]


def load_demand_csv(path):
    """Parse and validate a demand file into a scenario; text that is not UTF-8
    raises ``DemandCSVError`` like any other malformed content."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            return _parse_demand(fh, str(path))
        except UnicodeDecodeError as exc:
            raise DemandCSVError(f"{path}: not UTF-8 text ({exc})") from None


def _parse_demand(fh, name):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DemandCSVError(f"{name}: empty file", row=1)
    cols = [c.strip().lower() for c in header]
    if cols != ["timestamp", "forecast_mw", "actual_mw"]:
        raise DemandCSVError(
            f"{name}: header must be 'timestamp,forecast_mw,actual_mw', got {header!r}", row=1
        )
    timestamps, forecast, actual = [], [], []
    actuals_done = False
    prev_ts = None
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise DemandCSVError(f"{name}: expected 3 columns at row {lineno}", row=lineno)
        raw_ts, raw_fc, raw_ac = (c.strip() for c in row)
        try:
            ts = datetime.fromisoformat(raw_ts)
        except ValueError:
            raise DemandCSVError(f"{name}: bad timestamp {raw_ts!r} at row {lineno}", row=lineno)
        if prev_ts is not None:
            if (ts.tzinfo is None) != (prev_ts.tzinfo is None):
                raise DemandCSVError(f"{name}: naive and UTC-offset timestamps mixed at row "
                                     f"{lineno} ({raw_ts})", row=lineno)
            if ts <= prev_ts:
                raise DemandCSVError(
                    f"{name}: timestamps not increasing at row {lineno} ({raw_ts})", row=lineno
                )
            if ts - prev_ts != timedelta(hours=1):
                raise DemandCSVError(
                    f"{name}: gap in hourly sequence at row {lineno} ({raw_ts})", row=lineno
                )
        prev_ts = ts
        timestamps.append(ts)
        forecast.append(_mw_cell(raw_fc, "forecast", name, lineno))
        if raw_ac == "":
            actuals_done = True
            continue
        if actuals_done:
            raise DemandCSVError(
                f"{name}: realized value after a blank at row {lineno}; actuals must be a "
                "contiguous prefix", row=lineno,
            )
        actual.append(_mw_cell(raw_ac, "actual", name, lineno))
    if not forecast:
        raise DemandCSVError(f"{name}: no data rows", row=2)
    return DemandScenario(forecast=np.array(forecast), actual=np.array(actual),
                          timestamps=timestamps)


def _mw_cell(raw, column, name, lineno):
    """One MW cell of ``column`` ("forecast" or "actual") as a finite float; a
    negative value is accepted with a warning that points at the caller of
    ``load_demand_csv``."""
    try:
        mw = float(raw)
    except ValueError:
        raise DemandCSVError(f"{name}: bad {column} {raw!r} at row {lineno}", row=lineno)
    if not np.isfinite(mw):
        raise DemandCSVError(f"{name}: non-finite {column} at row {lineno}", row=lineno)
    if mw < 0:
        warnings.warn(f"{name}: negative {column} at row {lineno} (net load)", stacklevel=4)
    return mw


def write_demand_csv(scenario, path):
    """Serialize a scenario back to the CSV contract (ISO-8601 timestamps)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(scenario_to_csv_text(scenario))


_GENERATOR_KEYS = {"c", "a", "g_min", "g_max"}
_STORAGE_KEYS = {"capacity_E", "capital_cost_B", "rho", "x0", "duration_hours"}
_CONFIG_KEYS = {"generators", "storages", "mode"}
_MODE_KEYS = {"enforce_soc_bounds"}
_NO_LIMIT = {"g_min": -np.inf, "g_max": np.inf}  # the only infinities a config may give


def load_json(path):
    """The UTF-8 JSON document at ``path``, BOM or not; anything else raises ``ConfigError``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"{path}: not a JSON document ({exc})") from None


def _number(value):
    """``value`` as a float; None if not a number or numeric string (JSON booleans are not)."""
    try:
        return None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        return None


def _entry_violations(where, entry, keys, required):
    """What is wrong with one participant entry of a config document."""
    if not isinstance(entry, dict):
        return [f"{where} must be a JSON object"]
    unknown = set(entry) - keys
    found = [f"{where}: unknown keys {sorted(unknown)}"] if unknown else []
    if required not in entry:
        found.append(f"{where}: missing '{required}'")
    nums = {}
    for key in sorted(keys & set(entry)):
        x = _number(entry[key])
        if x is None:
            found.append(f"{where}: {key} must be a number")
        elif np.isfinite(x) or _NO_LIMIT.get(key) == x:
            nums[key] = x
        else:
            no_limit = f" or {_NO_LIMIT[key]}" if key in _NO_LIMIT else ""
            found.append(f"{where}: {key} must be finite{no_limit}")
    for key in ("c", "capacity_E", "capital_cost_B", "rho", "duration_hours"):
        if not nums.get(key, 1.0) > 0:
            found.append(f"{where}: {key} must be positive")
    if not 0.0 <= nums.get("x0", 0.5) <= 1.0:
        found.append(f"{where}: x0 must lie in [0, 1]")
    if nums.get("g_min", -np.inf) > nums.get("g_max", np.inf):
        found.append(f"{where}: g_min exceeds g_max")
    return found


@dataclass
class MarketConfig:
    """Validated participant roster plus the day-ahead SoC corridor switch."""

    generators: list
    storages: list
    enforce_soc_bounds: bool = True

    @classmethod
    def from_dict(cls, doc):
        violations = []
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            violations.append(f"unknown top-level keys: {sorted(unknown)}")
        gens = doc.get("generators", [])
        stores = doc.get("storages", [])
        if not gens:
            violations.append("at least one generator is required")
        for kind, entries, keys, required in (("generator", gens, _GENERATOR_KEYS, "c"),
                                              ("storage", stores, _STORAGE_KEYS, "capacity_E")):
            if not isinstance(entries, list):
                violations.append(f"{kind}s must be a list")
                continue
            for i, entry in enumerate(entries):
                violations += _entry_violations(f"{kind} {i}", entry, keys, required)
        mode_doc = doc.get("mode", {})
        if not isinstance(mode_doc, dict):
            violations.append("mode must be a JSON object")
        elif set(mode_doc) - _MODE_KEYS:
            violations.append(f"mode: unknown keys {sorted(set(mode_doc) - _MODE_KEYS)}")
        elif not isinstance(mode_doc.get("enforce_soc_bounds", True), bool):
            violations.append("mode: enforce_soc_bounds must be true or false")
        if violations:
            raise ConfigError(violations)
        return cls(
            generators=[dict(g) for g in gens],
            storages=[dict(s) for s in stores],
            enforce_soc_bounds=mode_doc.get("enforce_soc_bounds", True),
        )

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(load_json(path))


def default_config():
    """One aggregate generator plus one 4-hour 50 MWh battery."""
    return MarketConfig(
        generators=[{"c": 20.0, "a": 0.0, "g_min": 0.0}],
        storages=[{"capacity_E": 50.0, "capital_cost_B": 150.0}],
    )


def build_params(config: MarketConfig, scenario: DemandScenario) -> MarketParams:
    """Materialize participant parameters; defaults follow the case study.

    Keys an entry leaves out take the ``GeneratorParams`` and ``StorageParams``
    defaults (b = rho * B * E, rate limits +/- E / duration_hours); a missing
    generator cap defaults to the scenario demand peak.
    """
    peak = float(max(scenario.forecast.max(initial=0.0),
                     scenario.actual.max(initial=0.0)))
    cap = {"g_max": peak if peak > 0 else np.inf}
    return MarketParams(
        generators=[GeneratorParams(**(cap | {k: float(v) for k, v in g.items()}))
                    for g in config.generators],
        storages=[StorageParams(**{k: float(v) for k, v in s.items()}) for s in config.storages],
    )


def synthetic_scenario(n_realized=24):
    """Deterministic two-day, two-peak demand fixture.

    forecast(h) = 600 + 200*sin(2*pi*(h-8)/24) + 50*sin(4*pi*(h-2)/24)   [MW]
    actual(h)   = forecast(h) * (1 + 0.05*sin(2*pi*(h+2)/24))            [h < 24]

    The base-plus-sine shape gives a morning shoulder and an evening peak.
    The fixed +/-5 percent error follows one slow daily swing, the way real
    zonal forecast bias drifts, so residuals change sign once across the day
    rather than oscillating hour to hour.
    """
    h = np.arange(48, dtype=float)
    forecast = 600.0 + 200.0 * np.sin(2 * np.pi * (h - 8.0) / 24.0) \
        + 50.0 * np.sin(4 * np.pi * (h - 2.0) / 24.0)
    hr = np.arange(n_realized, dtype=float)
    actual = forecast[:n_realized] * (1.0 + 0.05 * np.sin(2 * np.pi * (hr + 2.0) / 24.0))
    start = datetime(2023, 8, 25, 0)
    stamps = [start + timedelta(hours=int(k)) for k in range(48)]
    return DemandScenario(forecast=forecast, actual=actual, timestamps=stamps)


def bundled_demand_path():
    """Filesystem path of the shipped demand fixture CSV."""
    return str(resources.files("cyclemarket").joinpath("fixtures/demand_fixture.csv"))


def scenario_to_csv_text(scenario):
    """CSV text of a scenario (used by round-trip checks and fixture builds)."""
    buf = io.StringIO()
    start = scenario.timestamps[0] if scenario.timestamps else datetime(2023, 8, 25, 0)
    writer = csv.writer(buf)
    writer.writerow(["timestamp", "forecast_mw", "actual_mw"])
    for h in range(scenario.horizon):
        ts = scenario.timestamps[h] if scenario.timestamps else start + timedelta(hours=h)
        ac = f"{scenario.actual[h]:.6f}" if h < scenario.n_realized else ""
        writer.writerow([ts.isoformat(), f"{scenario.forecast[h]:.6f}", ac])
    return buf.getvalue()
