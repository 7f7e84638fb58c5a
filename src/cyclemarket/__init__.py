"""Two-stage electricity market clearing with cycle-depth storage bidding.

Library layout:

- ``rainflow``:   dispatch -> SoC -> half-cycle decomposition (the depth map)
- ``costs``:      generator quadratic cost, storage cycle cost + subgradients
- ``dayahead``:   supply-function / energy-cycling-bid clearing, uniform prices
- ``realtime``:   both real-time mechanisms and the constrained window clearing
- ``planner``:    social planner benchmarks (periodic and non-periodic)
- ``simulation``: two-day day-ahead + rolling-window real-time protocol
- ``data``:       demand CSV ingestion, market configuration, bundled fixture
- ``cli``:        ``cyclemarket run`` and ``cyclemarket sweep`` drivers
"""

__version__ = "0.1.0"

from .rainflow import (
    RainflowDecomposition,
    soc_from_dispatch,
    turning_points,
    rainflow_map,
    cycle_depths,
)
from .costs import (
    GeneratorParams,
    StorageParams,
    MarketParams,
    SubgradientInfo,
    generator_cost,
    generator_marginal_cost,
    storage_cost,
    storage_cost_subgradient,
)
from .dayahead import (
    DayAheadBids,
    DayAheadResult,
    clear_uniform,
    clear_general,
    equilibrium_bids_dayahead,
    verify_kkt_dayahead,
)
from .realtime import (
    RealTimeBids,
    RealTimeResult,
    equilibrium_unaware,
    best_response_unaware,
    map_stable,
    aware_bids,
    equilibrium_aware,
    clear_constrained_aware,
)
from .planner import PlannerResult, solve_planner, participant_profit
from .data import (
    DemandScenario,
    MarketConfig,
    load_demand_csv,
    write_demand_csv,
    build_params,
    synthetic_scenario,
    bundled_demand_path,
)
from .simulation import (
    MechanismConfig,
    Settlement,
    SimulationRecord,
    run_day_ahead,
    run_real_time,
    settle,
    run_two_stage,
)

__all__ = [
    "__version__",
    "RainflowDecomposition",
    "soc_from_dispatch",
    "turning_points",
    "rainflow_map",
    "cycle_depths",
    "GeneratorParams",
    "StorageParams",
    "MarketParams",
    "SubgradientInfo",
    "generator_cost",
    "generator_marginal_cost",
    "storage_cost",
    "storage_cost_subgradient",
    "DayAheadBids",
    "DayAheadResult",
    "clear_uniform",
    "clear_general",
    "equilibrium_bids_dayahead",
    "verify_kkt_dayahead",
    "RealTimeBids",
    "RealTimeResult",
    "equilibrium_unaware",
    "best_response_unaware",
    "map_stable",
    "aware_bids",
    "equilibrium_aware",
    "clear_constrained_aware",
    "PlannerResult",
    "solve_planner",
    "participant_profit",
    "DemandScenario",
    "MarketConfig",
    "load_demand_csv",
    "write_demand_csv",
    "build_params",
    "synthetic_scenario",
    "bundled_demand_path",
    "MechanismConfig",
    "Settlement",
    "SimulationRecord",
    "run_day_ahead",
    "run_real_time",
    "settle",
    "run_two_stage",
]
