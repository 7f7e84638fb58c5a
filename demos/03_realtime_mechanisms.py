# %% Real-time mechanisms: two ways to fold in the day-ahead position
#
# After the day-ahead market clears, realized demand deviates from forecast
# and a faster market settles the difference.  Storage can either keep
# bidding a plain supply function and absorb its day-ahead position into the
# slope (day-ahead-unaware bidding), or subtract the commitment inside the
# bid itself (day-ahead-aware bidding).  Both admit a unique competitive
# equilibrium; the aware one has constant slopes and clears in one step.

import numpy as np

from cyclemarket import (
    GeneratorParams,
    MarketParams,
    StorageParams,
    best_response_unaware,
    clear_constrained_aware,
    clear_uniform,
    equilibrium_aware,
    equilibrium_bids_dayahead,
    equilibrium_unaware,
    map_stable,
)

rng = np.random.default_rng(9)
T = 8
forecast = 10 + 4 * np.sin(2 * np.pi * np.arange(T) / T) + rng.normal(0, 0.3, T)
params = MarketParams(
    generators=[GeneratorParams(c=20.0, g_min=-1e6, g_max=1e6)],
    storages=[StorageParams(capacity_E=200.0, b=2.0, u_min=-1e6, u_max=1e6)],
)
da = clear_uniform(equilibrium_bids_dayahead(params), forecast, params)
residual = 0.2 * np.abs(forecast) * rng.uniform(0.5, 1.3, T)

# %% Unaware bidding: closed form and iterated best response agree
bids_eq, res_eq = equilibrium_unaware(params, residual, da)
print("price coefficient:", res_eq.price_coeff)
print("slopes: alpha_r =", bids_eq.alpha_r, " beta_r =", bids_eq.beta_r)
print("half-cycle map preserved by the adjustment:", map_stable(params, da, res_eq))

bids_br, res_br = best_response_unaware(params, residual, da, tol=1e-12)
print("best response converged in", res_br.iterations, "rounds;",
      "max price difference vs closed form:",
      float(np.max(np.abs(res_br.price - res_eq.price))))

# %% Aware bidding: constant slopes, one-step clearing
total = forecast + residual
bids_aw, res_aw = equilibrium_aware(params, total, da)
print("alpha_r = 1/c exactly:", bids_aw.alpha_r[0] == 1 / 20.0)
print("price = coefficient * total demand; coefficient =", res_aw.price_coeff)
adj = res_aw.g_r.sum(axis=0) + res_aw.u_r.sum(axis=0)
print("clearing identity max error:", float(np.max(np.abs(adj - residual))))

# %% Constrained window clearing, the operational form
# The rolling case-study windows re-optimize total dispatch under the aware
# bids with power limits and the SoC corridor (no periodicity in real time).
# With slack limits it reproduces the closed form up to the solve tolerance
# propagated through the (nearly flat) bid-implied storage curvature.
res_win = clear_constrained_aware(bids_aw, total, da.g, da.u, params)
print("window clears with residual", res_win.kkt_residual)
print("storage adjustment:", np.round(res_win.u_r[0], 3))
rel = float(np.max(np.abs(res_win.u_r - res_aw.u_r))) / float(np.max(np.abs(res_aw.u_r)))
print(f"relative gap to the closed form under wide limits: {rel:.2e}")
