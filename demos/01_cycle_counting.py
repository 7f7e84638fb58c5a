# %% Half-cycle counting: from a dispatch profile to a depth map
#
# A battery schedule is a vector of hourly power values, discharge positive.
# Integrating it gives the state-of-charge trajectory; decomposing that
# trajectory into charge/discharge half-cycles gives the depth vector that
# the degradation cost penalizes.  The decomposition is a sparse linear map
# N with entries in {0, +1/E, -1/E}: depths = N @ u, and every interval with
# nonzero dispatch belongs to exactly one half-cycle.

import numpy as np

from cyclemarket import (
    StorageParams,
    cycle_depths,
    rainflow_map,
    soc_from_dispatch,
    storage_cost,
    storage_cost_subgradient,
    turning_points,
)

E = 2.0  # MWh
u = np.array([-0.8, 0.5, -0.2, 0.45, -0.85, 0.9])  # MW per hour

soc = soc_from_dispatch(u, E, x0=0.5)
print("dispatch:       ", u)
print("state of charge:", np.round(soc, 3))
print("turning points: ", turning_points(soc))

# %% The decomposition itself
dec = rainflow_map(u, E, x0=0.5)
print("half-cycle depths:", np.round(dec.depths, 4))
print("map (rows = half-cycles, columns = hours):")
print(dec.map * E)  # scaled to +/-1 for readability
print("interval -> (half-cycle, sign):", dec.assignment)
print("matched full-cycle pairs:", dec.pairs)

# %% Invariants worth knowing
# Total variation is conserved: the depths always sum to sum(|u|)/E.
print("sum depths:", dec.depths.sum(), " vs TV:", np.abs(u).sum() / E)

# The map depends only on the shape of the profile, never its scale, which
# is what makes cycle-depth bids well defined.
dec2 = rainflow_map(3.0 * u, E, x0=0.5)
print("map unchanged under scaling:", np.array_equal(dec.map, dec2.map))
print("depths scale linearly:", np.allclose(dec2.depths, 3.0 * dec.depths))

# %% Degradation cost and its subgradient
params = StorageParams(capacity_E=E, b=2.0)
print("cycle cost:", storage_cost(u, params))
info = storage_cost_subgradient(u, params)
print("gradient:", np.round(info.gradient, 4))
print("convex weights over detected pieces:", info.gamma)

# A profile whose middle sample ties a neighboring extremum sits on a kink:
# perturbation probing finds several adjacent assignment pieces there.
u_kink = np.array([-0.4, 0.3, -0.3, 0.4])
print("pieces at a kink:", storage_cost_subgradient(u_kink, StorageParams(1.0, b=2.0)).gamma)

# %% Depth vector shortcut
print("cycle_depths:", cycle_depths(u, E))
