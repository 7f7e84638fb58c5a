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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "DispatchProfile",
    "SoCProfile",
    "RainflowDecomposition",
    "soc_from_dispatch",
    "turning_points",
    "rainflow_map",
    "cycle_depths",
]


@dataclass
class DispatchProfile:
    """Per-interval power schedule for one participant, discharge positive."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise InvalidInputError("dispatch profile must be a 1-d vector of length >= 1")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("dispatch profile contains non-finite entries")

    def __len__(self):
        return self.values.size


@dataclass
class SoCProfile:
    """Normalized state-of-charge samples, one more entry than intervals."""

    values: np.ndarray
    initial: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


@dataclass
class RainflowDecomposition:
    """Half-cycle depths, the linear depth map, and interval bookkeeping.

    depths:     length-K nonnegative vector of half-cycle depths.
    map:        K x T matrix with entries in {0, +1/E, -1/E}; depths = map @ u.
    assignment: interval index -> (half-cycle index, sign of the map entry)
                for every interval with nonzero dispatch.
    pairs:      (k_down, k_up) index pairs for extracted full cycles; the
                second member is None when no matching interval fit.
    capacity:   energy capacity E used to normalize depths.
    """

    depths: np.ndarray
    map: np.ndarray
    assignment: dict
    pairs: list = field(default_factory=list)
    capacity: float = 1.0

    @property
    def n_half_cycles(self):
        return self.depths.size

    def signature(self):
        """Hashable identity of the map; equal signatures mean equal maps."""
        return (self.map.shape, self.map.tobytes())


def _dispatch_values(u):
    if isinstance(u, DispatchProfile):
        return u.values
    return DispatchProfile(np.asarray(u, dtype=float)).values


def soc_from_dispatch(u, capacity_E, x0=0.5):
    """Integrate dispatch into a normalized SoC trajectory.

    Discharge (positive u) lowers the state of charge: x_t = x_{t-1} - u_t/E.
    Bounds [0, 1] are not enforced here; constraint handling belongs to the
    clearing and planner layers.
    """
    vals = _dispatch_values(u)
    if not (capacity_E > 0) or not np.isfinite(capacity_E):
        raise InvalidInputError("capacity_E must be positive and finite")
    if not (0.0 <= x0 <= 1.0):
        raise InvalidInputError("x0 must lie in [0, 1]")
    x = np.empty(vals.size + 1)
    x[0] = x0
    np.cumsum(-vals / capacity_E, out=x[1:])
    x[1:] += x0
    return SoCProfile(values=x, initial=x0)


def turning_points(x):
    """Collapse an SoC trajectory to its alternating extrema.

    Plateaus merge into a single point (earliest index kept for interior
    plateaus, the last reached index while a run keeps extending), endpoints
    are always represented, and the output values strictly alternate.
    Applying the function to an already alternating sequence is the identity.
    """
    if isinstance(x, SoCProfile):
        vals = x.values
    else:
        vals = np.asarray(x, dtype=float)
    pts = [(0, float(vals[0]))]
    direction = 0
    for i in range(1, vals.size):
        dx = vals[i] - vals[i - 1]
        if dx == 0.0:
            continue
        d = 1 if dx > 0 else -1
        if d == direction:
            pts[-1] = (i, float(vals[i]))  # same run keeps extending
        else:
            pts.append((i, float(vals[i])))
            direction = d
    return pts


class _Node:
    """Turning point plus the not-yet-assigned intervals of the run into it."""

    __slots__ = ("idx", "value", "seg")

    def __init__(self, idx, value, seg):
        self.idx = idx
        self.value = value
        self.seg = seg  # list of (interval index, |u_t|/E), chronological


def _match_forward(seg, target):
    """Split ``seg`` at the front so the taken depth lands closest to ``target``.

    Whole intervals only: keep taking while doing so moves the accumulated
    depth closer to the target (ties include, deterministically).  On profiles
    whose granularity lines up with the extraction depth the taken part equals
    ``target`` exactly, which is what makes a full cycle come out as two
    half-cycles of equal depth.  The rule compares scale-covariant quantities
    only, so scaling the profile never changes the split.
    """
    taken = []
    cum = 0.0
    k = 0
    while k < len(seg):
        step = seg[k][1]
        if abs(cum + step - target) > abs(target - cum) * (1.0 + 1e-12):
            break
        cum += step
        taken.append(seg[k])
        k += 1
    return taken, seg[k:]


def rainflow_map(u, capacity_E, x0=0.5):
    """Decompose a dispatch profile into half-cycles with interval assignment.

    Counting runs on the turning points of the SoC trajectory with the
    standard four-point rule: whenever the inner range of four consecutive
    extrema is no larger than both of its neighbors, the inner excursion is
    extracted as a full cycle (earliest candidate first).  The
    excursion's own intervals form one half-cycle; intervals from the return
    swing are matched against its depth, whole intervals only, to form the
    partner half-cycle.  Whatever remains after all extractions contributes
    residual half-cycles run by run.
    """
    vals = _dispatch_values(u)
    if not (capacity_E > 0) or not np.isfinite(capacity_E):
        raise InvalidInputError("capacity_E must be positive and finite")
    T = vals.size
    x = soc_from_dispatch(vals, capacity_E, x0)
    pts = turning_points(x)

    half_cycles = []  # list of interval lists
    pairs = []

    def emit(seg):
        half_cycles.append(seg)
        return len(half_cycles) - 1

    if len(pts) > 1:
        depth_of = np.abs(vals) / capacity_E
        stack = []
        prev_idx = pts[0][0]
        stack.append(_Node(pts[0][0], pts[0][1], []))
        for idx, value in pts[1:]:
            seg = [(i, depth_of[i]) for i in range(prev_idx, idx) if vals[i] != 0.0]
            stack.append(_Node(idx, value, seg))
            prev_idx = idx
            while len(stack) >= 4:
                n0, n1, n2, n3 = stack[-4], stack[-3], stack[-2], stack[-1]
                r1 = abs(n1.value - n0.value)
                r2 = abs(n2.value - n1.value)
                r3 = abs(n3.value - n2.value)
                if r2 <= r1 and r2 <= r3:
                    target = sum(d for _, d in n2.seg)
                    k_inner = emit(n2.seg)
                    matched, rest = _match_forward(n3.seg, target)
                    if matched:
                        k_match = emit(matched)
                        pairs.append((k_inner, k_match))
                    else:
                        pairs.append((k_inner, None))
                    n3.seg = n1.seg + rest
                    del stack[-3:-1]
                else:
                    break
        for node in stack:
            if node.seg:
                emit(node.seg)

    K = len(half_cycles)
    N = np.zeros((K, T))
    assignment = {}
    for k, seg in enumerate(half_cycles):
        for i, _ in seg:
            sign = 1 if vals[i] > 0 else -1
            N[k, i] = sign / capacity_E
            assignment[i] = (k, sign)
    depths = N @ vals
    return RainflowDecomposition(
        depths=depths, map=N, assignment=assignment, pairs=pairs, capacity=capacity_E
    )


def cycle_depths(u, capacity_E, x0=0.5):
    """Half-cycle depth vector of a dispatch profile (``map @ u``)."""
    decomp = rainflow_map(u, capacity_E, x0)
    return decomp.map @ _dispatch_values(u)
