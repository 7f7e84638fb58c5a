"""Social-planner benchmarks: least total cost under perfect foresight.

Two variants bracket the two-stage mechanism: with the end-of-horizon SoC
restored to its initial value (periodic) and without that restriction.
Settlement for profit reporting uses the balance dual as a uniform
marginal price; that convention is a package choice, stated here and in the
README, since the benchmark itself defines no payments.
"""

from dataclasses import dataclass

import numpy as np

from .costs import MarketParams, generator_cost, storage_cost
from .qp import solve_market_qp

__all__ = ["PlannerResult", "solve_planner", "participant_profit"]


@dataclass
class PlannerResult:
    g: np.ndarray                  # (J, T)
    u: np.ndarray                  # (S, T)
    price: np.ndarray              # (T,) balance dual, $/MWh
    objective: float               # total social cost, $
    kkt_residual: float


def solve_planner(params: MarketParams, d, periodic=True):
    """Minimize total generation plus cycle-degradation cost meeting demand.

    Constraints: per-interval balance, total power limits per participant,
    the SoC corridor [0, 1], which a benchmark always keeps, and (when
    ``periodic``) zero net storage energy over the horizon.
    """
    d = np.asarray(d, dtype=float)
    res = solve_market_qp(
        alphas=[1.0 / gen.c for gen in params.generators],
        a_lin=[gen.a for gen in params.generators],
        betas=[1.0 / st.b for st in params.storages],
        capacities=[st.capacity_E for st in params.storages],
        x0s=[st.x0 for st in params.storages],
        demand=d,
        g_lo=[gen.g_min for gen in params.generators],
        g_hi=[gen.g_max for gen in params.generators],
        u_lo=[st.u_min for st in params.storages],
        u_hi=[st.u_max for st in params.storages],
        periodic=periodic, soc_bounds=True,
    )
    return PlannerResult(g=res.g, u=res.u, price=res.price, objective=res.objective,
                         kkt_residual=res.kkt_residual)


def participant_profit(result: PlannerResult, params: MarketParams):
    """Per-participant profit at the balance-dual settlement price.

    profit_j = <price, g_j> - C_j(g_j) for generators and
    profit_s = <price, u_s> - C_s(u_s) for storage units.
    """
    lam = result.price
    gen_profits = np.array([
        float(lam @ result.g[j]) - generator_cost(result.g[j], params.generators[j])
        for j in range(params.n_generators)
    ])
    storage_profits = np.array([
        float(lam @ result.u[s]) - storage_cost(result.u[s], params.storages[s])
        for s in range(params.n_storages)
    ])
    return gen_profits, storage_profits
