"""Half-cycle extraction from storage dispatch profiles.

A dispatch profile (MW per interval, discharge positive) induces a state of
charge trajectory.  The counting scheme below decomposes that trajectory into
charge/discharge half-cycles and materializes the decomposition as a sparse
linear map ``N`` with entries in {0, +1/E, -1/E}, so the depth vector is
``nu = N @ u`` exactly.  Every interval with nonzero dispatch belongs to
exactly one half-cycle, depths are nonnegative, total variation is conserved
(``sum(nu) == sum(|u|)/E``) and the map depends only on the shape of the
profile, never on its scale.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "RainflowDecomposition",
    "soc_from_dispatch",
    "turning_points",
    "rainflow_map",
    "cycle_depths",
]


@dataclass
class RainflowDecomposition:
    """Half-cycle depths, the linear depth map, and interval bookkeeping.

    depths:     length-K nonnegative vector of half-cycle depths.
    map:        K x T matrix with entries in {0, +1/E, -1/E}; depths = map @ u.
    assignment: interval index -> (half-cycle index, sign of the map entry)
                for every interval with nonzero dispatch.
    pairs:      (k_down, k_up) index pairs for extracted full cycles; the
                second member is None when no matching interval fit.
    """

    depths: np.ndarray
    map: np.ndarray
    assignment: dict
    pairs: list = field(default_factory=list)

    @property
    def n_half_cycles(self):
        return self.depths.size

    def signature(self):
        """Hashable identity of the map; equal signatures mean equal maps."""
        return (self.map.shape, self.map.tobytes())


def _vector(u):
    """(float array, its entries as Python floats) of a finite 1-d dispatch profile."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError("dispatch profile must be a 1-d vector of length >= 1")
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        raise InvalidInputError("dispatch profile contains non-finite entries")
    return arr, vals


def _checked(u, capacity_E, x0):
    """(dispatch array, its entries as floats) after every input check, made once."""
    arr, vals = _vector(u)
    if not (capacity_E > 0) or not math.isfinite(capacity_E):
        raise InvalidInputError("capacity_E must be positive and finite")
    if not (0.0 <= x0 <= 1.0):
        raise InvalidInputError("x0 must lie in [0, 1]")
    return arr, vals


def _soc(vals, E, x0):
    """x_t = x0 + sum_{s<=t} (-u_s/E), accumulated in order as ``np.cumsum`` does."""
    x = [x0]
    acc = -0.0  # the additive identity, so the first partial sum is -u_0/E exactly
    for v in vals:
        acc += -v / E
        x.append(acc + x0)
    return x


def soc_from_dispatch(u, capacity_E, x0=0.5):
    """Integrate dispatch into a normalized SoC trajectory: a float array
    of T + 1 states, ``x0`` first.

    Discharge (positive u) lowers the state of charge: x_t = x_{t-1} - u_t/E.
    Bounds [0, 1] are not enforced here; constraint handling belongs to the
    clearing and planner layers.
    """
    _, vals = _checked(u, capacity_E, x0)
    return np.array(_soc(vals, float(capacity_E), float(x0)))


def _turning_points(x):
    pts = [(0, x[0])]
    up = None  # direction of the current run; None before the first change
    prev = x[0]
    for i, xi in enumerate(x[1:], 1):
        dx = xi - prev
        prev = xi
        if dx > 0:
            if up:
                pts[-1] = (i, xi)  # same run keeps extending
            else:
                pts.append((i, xi))
                up = True
        elif dx != 0.0:
            if up is False:
                pts[-1] = (i, xi)
            else:
                pts.append((i, xi))
                up = False
    return pts


def turning_points(x):
    """Collapse an SoC trajectory to its alternating extrema.

    Plateaus merge into a single point (earliest index kept for interior
    plateaus, the last reached index while a run keeps extending), endpoints
    are always represented, and the output values strictly alternate.
    Applying the function to an already alternating sequence is the identity.
    """
    return _turning_points(np.asarray(x, dtype=float).tolist())


def _match_forward(seg, depth, target):
    """Split ``seg`` at the front so the taken depth lands closest to ``target``.

    ``seg`` lists interval indices in chronological order and ``depth[i]`` is
    interval i's depth |u_i|/E.  Whole intervals only: keep taking while doing
    so moves the accumulated depth closer to the target (ties include,
    deterministically).  On profiles whose granularity lines up with the
    extraction depth the taken part equals ``target`` exactly, which is what
    makes a full cycle come out as two half-cycles of equal depth.  The rule
    compares scale-covariant quantities only, so scaling the profile never
    changes the split.
    """
    cum = 0.0
    k = 0
    for i in seg:
        step = depth[i]
        if abs(cum + step - target) > abs(target - cum) * (1.0 + 1e-12):
            break
        cum += step
        k += 1
    return seg[:k], seg[k:]


def rainflow_map(u, capacity_E, x0=0.5):
    """Decompose a dispatch profile into half-cycles with interval assignment.

    Counting runs on the turning points of the SoC trajectory with the
    standard four-point rule: whenever the inner range of four consecutive
    extrema is no larger than both of its neighbors, the inner excursion is
    extracted as a full cycle (earliest candidate first).  The
    excursion's own intervals form one half-cycle; intervals from the return
    swing are matched against its depth, whole intervals only, to form the
    partner half-cycle.  Whatever remains after all extractions contributes
    residual half-cycles run by run.  The inputs are checked once and the
    counting runs on the dispatch as Python floats.
    """
    arr, vals = _checked(u, capacity_E, x0)
    E = float(capacity_E)
    T = len(vals)
    pts = _turning_points(_soc(vals, E, float(x0)))

    half_cycles = []  # interval index lists, chronological within each
    pairs = []
    if len(pts) > 1:
        depth = [abs(v) / E for v in vals]
        # each stack entry: [SoC value, not-yet-assigned intervals of the run into it]
        stack = [[pts[0][1], []]]
        prev_idx = 0
        for idx, value in pts[1:]:
            stack.append([value, [i for i in range(prev_idx, idx) if vals[i] != 0.0]])
            prev_idx = idx
            while len(stack) >= 4:
                (v0, _), (v1, seg1), (v2, seg2), (v3, seg3) = stack[-4:]
                r2 = abs(v2 - v1)
                if not (r2 <= abs(v1 - v0) and r2 <= abs(v3 - v2)):
                    break
                target = 0.0
                for i in seg2:
                    target += depth[i]
                half_cycles.append(seg2)
                k_inner = len(half_cycles) - 1
                matched, rest = _match_forward(seg3, depth, target)
                if matched:
                    half_cycles.append(matched)
                    pairs.append((k_inner, k_inner + 1))
                else:
                    pairs.append((k_inner, None))
                stack[-1][1] = seg1 + rest
                del stack[-3:-1]
        half_cycles += [seg for _, seg in stack if seg]

    K = len(half_cycles)
    pos = 1 / capacity_E  # capacity_E, not E: its scalar type sets the entries' rounding
    neg = -1 / capacity_E
    flat, entries = [], []
    assignment = {}
    for k, seg in enumerate(half_cycles):
        for i in seg:
            if vals[i] > 0:
                entries.append(pos)
                assignment[i] = (k, 1)
            else:
                entries.append(neg)
                assignment[i] = (k, -1)
            flat.append(k * T + i)
    N = np.zeros(K * T)
    N[flat] = entries
    N = N.reshape(K, T)
    return RainflowDecomposition(depths=N @ arr, map=N, assignment=assignment, pairs=pairs)


def cycle_depths(u, capacity_E, x0=0.5):
    """Half-cycle depth vector of a dispatch profile (``map @ u``)."""
    return rainflow_map(u, capacity_E, x0).depths
