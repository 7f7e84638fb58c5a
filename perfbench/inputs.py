"""Seeded inputs for the benchmark workloads.

The demand shape is the two-peak profile of ``cyclemarket.data.synthetic_scenario``
(a daily sine plus a half-day harmonic around 600 MW).  The seed draws

- one amplitude per day for the daily swing (200 MW +/- 15 %),
- independent hourly forecast noise (0.5 % of load), and
- a slow forecast error on the realized hours: one daily sine whose size
  (3-6 %) and phase are drawn, so residuals drift rather than jump.

Values are rounded to the CSV's six decimals before use, so the scenario
written to disk and the one read back are the same numbers.
"""

import hashlib
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from cyclemarket import DemandScenario, MarketConfig, load_demand_csv, write_demand_csv

REALIZED_HOURS = 24
START = datetime(2023, 8, 25, 0)


@dataclass
class GeneratedDemand:
    seed: object
    hours: int
    scenario: DemandScenario
    csv_path: str
    csv_sha256: str


def demand_scenario(seed, hours):
    """Forecast over ``hours`` plus 24 realized hours, drawn from ``seed``.

    ``seed`` is an int or a tuple of ints, as ``numpy.random.default_rng`` takes.
    """
    rng = np.random.default_rng(seed)
    h = np.arange(hours, dtype=float)
    n_days = -(-hours // 24)
    amplitude = 200.0 * rng.uniform(0.85, 1.15, size=n_days)
    shape = 600.0 + amplitude[(h // 24).astype(int)] * np.sin(2 * np.pi * (h - 8.0) / 24.0) \
        + 50.0 * np.sin(4 * np.pi * (h - 2.0) / 24.0)
    forecast = shape * (1.0 + 0.005 * rng.standard_normal(hours))
    hr = np.arange(REALIZED_HOURS, dtype=float)
    size = rng.uniform(0.03, 0.06)
    phase = rng.uniform(0.0, 24.0)
    actual = forecast[:REALIZED_HOURS] * (1.0 + size * np.sin(2 * np.pi * (hr + phase) / 24.0))
    stamps = [START + timedelta(hours=k) for k in range(hours)]
    return DemandScenario(forecast=np.round(forecast, 6), actual=np.round(actual, 6),
                          timestamps=stamps)


def write_and_reload(seed, hours, path):
    """Write the seeded scenario as a demand CSV and return it as read back.

    Raises ``ValueError`` if the file does not reproduce the generated
    numbers exactly, so a workload never runs on inputs it did not intend.
    """
    generated = demand_scenario(seed, hours)
    write_demand_csv(generated, path)
    loaded = load_demand_csv(path)
    if not (np.array_equal(loaded.forecast, generated.forecast)
            and np.array_equal(loaded.actual, generated.actual)
            and loaded.timestamps == generated.timestamps):
        raise ValueError(f"demand CSV {path} does not round-trip the seed-{seed} scenario")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return GeneratedDemand(seed=seed, hours=hours, scenario=loaded, csv_path=str(path),
                           csv_sha256=digest)


def pool_config():
    """Two generators and four 50 MWh units at B = 100, 150, 250, 400 $/kWh."""
    return MarketConfig(
        generators=[{"c": 20.0}, {"c": 35.0, "a": 5.0}],
        storages=[{"capacity_E": 50.0, "capital_cost_B": b} for b in (100.0, 150.0, 250.0, 400.0)],
    )
