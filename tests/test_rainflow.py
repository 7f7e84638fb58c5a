"""Unit and property tests for the half-cycle decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemarket import (
    cycle_depths,
    rainflow_map,
    soc_from_dispatch,
    turning_points,
)
from cyclemarket.errors import InvalidInputError


def random_profile(rng, max_T=48):
    T = int(rng.integers(1, max_T + 1))
    u = rng.normal(0.0, 1.0, T)
    u[rng.random(T) < 0.15] = 0.0  # rest intervals happen in practice
    return u


class TestSocFromDispatch:
    def test_zero_dispatch_constant_soc(self):
        x = soc_from_dispatch([0.0, 0.0, 0.0], 1.0, 0.5)
        assert x == pytest.approx([0.5, 0.5, 0.5, 0.5])

    def test_charge_then_discharge_returns_to_start(self):
        x = soc_from_dispatch([-0.5, 0.5], 1.0, 0.0)
        assert x == pytest.approx([0.0, 0.5, 0.0])

    def test_per_step_arithmetic(self):
        # x_t = x_{t-1} - u_t / E, computed by hand
        x = soc_from_dispatch([-1.0, -1.0, 2.0], 4.0, 0.25)
        assert x == pytest.approx([0.25, 0.5, 0.75, 0.25])

    def test_non_finite_input_rejected(self):
        with pytest.raises(InvalidInputError):
            soc_from_dispatch([np.nan, 0.0], 1.0, 0.5)
        with pytest.raises(InvalidInputError):
            soc_from_dispatch([1.0], 0.0, 0.5)
        with pytest.raises(InvalidInputError):
            soc_from_dispatch([1.0], 1.0, 1.5)

    def test_accepts_dispatch_profile(self):
        # a plain sequence of any numeric dtype in, a float array out
        x = soc_from_dispatch(np.array([1, -1]), 2.0, 0.5)
        assert isinstance(x, np.ndarray) and x.dtype == np.float64
        assert x == pytest.approx([0.5, 0.0, 0.5])
        # a 0-d dispatch is one interval
        assert soc_from_dispatch(np.float64(1.0), 2.0, 0.5) == pytest.approx([0.5, 0.0])
        assert rainflow_map(1.0, 2.0, 0.5).map.shape == (1, 1)


class TestTurningPoints:
    def test_single_triangle(self):
        assert turning_points([0.0, 0.5, 0.0]) == [(0, 0.0), (1, 0.5), (2, 0.0)]

    def test_plateau_collapse(self):
        assert turning_points([0.5, 0.5, 0.5]) == [(0, 0.5)]

    def test_alternating_sequence_fully_retained(self):
        pts = turning_points([0.0, 0.3, 0.1, 0.4, 0.0])
        assert [v for _, v in pts] == pytest.approx([0.0, 0.3, 0.1, 0.4, 0.0])
        assert [i for i, _ in pts] == [0, 1, 2, 3, 4]

    def test_idempotent_on_alternating_input(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = random_profile(rng, 24)
            x = soc_from_dispatch(u, 1.5, 0.5)
            pts = turning_points(x)
            vals = [v for _, v in pts]
            again = turning_points(vals)
            assert [v for _, v in again] == pytest.approx(vals)

    def test_interior_plateau_merged(self):
        pts = turning_points([0.0, 0.5, 0.5, 0.0])
        assert [v for _, v in pts] == pytest.approx([0.0, 0.5, 0.0])


class TestRainflowMap:
    def test_single_full_cycle(self):
        dec = rainflow_map([-0.5, 0.5], 1.0, 0.0)
        assert dec.depths == pytest.approx([0.5, 0.5])
        # charge interval carries -1/E, discharge +1/E
        assert dec.map == pytest.approx(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        assert dec.assignment == {0: (0, -1), 1: (1, 1)}

    def test_zero_profile_empty(self):
        dec = rainflow_map(np.zeros(6), 3.0)
        assert dec.depths.size == 0
        assert dec.map.shape == (0, 6)
        assert dec.assignment == {}

    def test_scaling_leaves_map_unchanged(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = random_profile(rng, 30)
            base = rainflow_map(u, 2.0)
            for eps in (0.5, 2.0, 10.0):
                scaled = rainflow_map(eps * u, 2.0)
                assert np.array_equal(scaled.map, base.map)
                assert scaled.depths == pytest.approx(eps * base.depths)

    def test_depth_is_map_times_dispatch(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = random_profile(rng)
            E = float(rng.uniform(0.5, 30.0))
            dec = rainflow_map(u, E)
            assert dec.depths == pytest.approx(dec.map @ u, abs=1e-15)

    def test_total_variation_conserved(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            u = random_profile(rng)
            E = float(rng.uniform(0.5, 30.0))
            dec = rainflow_map(u, E)
            tv = np.abs(u).sum() / E
            assert dec.depths.sum() == pytest.approx(tv, rel=1e-12, abs=1e-15)

    def test_partition_property(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            u = random_profile(rng)
            E = float(rng.uniform(0.5, 30.0))
            dec = rainflow_map(u, E)
            nonzero_per_col = np.count_nonzero(dec.map, axis=0)
            assert np.all(nonzero_per_col[u != 0.0] == 1)
            assert np.all(nonzero_per_col[u == 0.0] == 0)
            entries = set(np.unique(dec.map))
            assert entries.issubset({0.0, 1.0 / E, -1.0 / E})
            assert np.all(dec.depths >= 0.0)

    def test_nested_cycle_extracted_before_outer(self):
        # inner dip extracted first: earliest candidate wins
        u = np.array([-0.8, 0.5, -0.2, 0.4, -0.8, 0.9])
        dec = rainflow_map(u, 1.0, 0.1)
        assert len(dec.pairs) >= 1
        assert dec.depths.sum() == pytest.approx(np.abs(u).sum())

    def test_full_cycle_halves_equal_on_aligned_profile(self):
        # symmetric interior excursion whose return swing lines up exactly
        u = np.array([-0.6, 0.2, -0.2, 0.6])
        dec = rainflow_map(u, 1.0, 0.0)
        for k_a, k_b in dec.pairs:
            if k_b is not None:
                assert dec.depths[k_a] == pytest.approx(dec.depths[k_b])


class TestCycleDepths:
    def test_matches_rainflow_map(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = random_profile(rng, 24)
            E = float(rng.uniform(0.5, 5.0))
            dec = rainflow_map(u, E)
            assert cycle_depths(u, E) == pytest.approx(dec.map @ u)

    def test_triangle(self):
        assert cycle_depths([-0.5, 0.5], 1.0) == pytest.approx([0.5, 0.5])

    def test_zeros(self):
        assert cycle_depths(np.zeros(4), 1.0).size == 0


# Reference oracle: the element-by-element decomposition on numpy scalars that
# the one-pass kernel replaced, frozen here as written.  The kernel must agree
# with it bit for bit.

def _reference_values(u):
    vals = np.atleast_1d(np.asarray(u, dtype=float))
    if vals.ndim != 1 or vals.size < 1:
        raise InvalidInputError("dispatch profile must be a 1-d vector of length >= 1")
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError("dispatch profile contains non-finite entries")
    return vals


def _reference_soc(u, capacity_E, x0):
    vals = _reference_values(u)
    if not (capacity_E > 0) or not np.isfinite(capacity_E):
        raise InvalidInputError("capacity_E must be positive and finite")
    if not (0.0 <= x0 <= 1.0):
        raise InvalidInputError("x0 must lie in [0, 1]")
    x = np.empty(vals.size + 1)
    x[0] = x0
    np.cumsum(-vals / capacity_E, out=x[1:])
    x[1:] += x0
    return x


def _reference_turning_points(vals):
    pts = [(0, float(vals[0]))]
    direction = 0
    for i in range(1, vals.size):
        dx = vals[i] - vals[i - 1]
        if dx == 0.0:
            continue
        d = 1 if dx > 0 else -1
        if d == direction:
            pts[-1] = (i, float(vals[i]))
        else:
            pts.append((i, float(vals[i])))
            direction = d
    return pts


class _RefNode:
    def __init__(self, idx, value, seg):
        self.idx = idx
        self.value = value
        self.seg = seg


def _reference_match_forward(seg, target):
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


def _reference_rainflow_map(u, capacity_E, x0=0.5):
    """(map, depths, pairs, assignment) as the element-by-element kernel built them."""
    vals = _reference_values(u)
    if not (capacity_E > 0) or not np.isfinite(capacity_E):
        raise InvalidInputError("capacity_E must be positive and finite")
    T = vals.size
    pts = _reference_turning_points(_reference_soc(vals, capacity_E, x0))
    half_cycles = []
    pairs = []

    def emit(seg):
        half_cycles.append(seg)
        return len(half_cycles) - 1

    if len(pts) > 1:
        depth_of = np.abs(vals) / capacity_E
        stack = [_RefNode(pts[0][0], pts[0][1], [])]
        prev_idx = pts[0][0]
        for idx, value in pts[1:]:
            seg = [(i, depth_of[i]) for i in range(prev_idx, idx) if vals[i] != 0.0]
            stack.append(_RefNode(idx, value, seg))
            prev_idx = idx
            while len(stack) >= 4:
                n0, n1, n2, n3 = stack[-4], stack[-3], stack[-2], stack[-1]
                r1 = abs(n1.value - n0.value)
                r2 = abs(n2.value - n1.value)
                r3 = abs(n3.value - n2.value)
                if r2 <= r1 and r2 <= r3:
                    target = sum(d for _, d in n2.seg)
                    k_inner = emit(n2.seg)
                    matched, rest = _reference_match_forward(n3.seg, target)
                    if matched:
                        pairs.append((k_inner, emit(matched)))
                    else:
                        pairs.append((k_inner, None))
                    n3.seg = n1.seg + rest
                    del stack[-3:-1]
                else:
                    break
        for node in stack:
            if node.seg:
                emit(node.seg)

    N = np.zeros((len(half_cycles), T))
    assignment = {}
    for k, seg in enumerate(half_cycles):
        for i, _ in seg:
            sign = 1 if vals[i] > 0 else -1
            N[k, i] = sign / capacity_E
            assignment[i] = (k, sign)
    return N, N @ vals, pairs, assignment


@st.composite
def dispatch_cases(draw):
    """(u, E, x0): random or 0.5-grid profiles, scaled, with runs of zeros."""
    T = draw(st.integers(1, 48))
    if draw(st.booleans()):
        # exact ranges, so four-point ``<=`` ties and matching ties occur exactly
        steps = draw(st.lists(st.integers(-4, 4), min_size=T, max_size=T))
        u = 0.5 * np.array(steps, dtype=float)
        scale = 2.0 ** draw(st.integers(-40, 9))
    else:
        u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=T, max_size=T)))
        scale = 10.0 ** draw(st.floats(-12.0, 3.0))
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, T - 1))
        u[start:start + draw(st.integers(1, T))] = 0.0
    E = draw(st.sampled_from([0.3, 1.0, 1.5, 4.0, 50.0]))
    x0 = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, -0.0]))
    return scale * u, E, x0


class TestReferenceOracle:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(dispatch_cases())
    def test_kernel_matches_reference_bit_for_bit(self, case):
        u, E, x0 = case
        ref_map, ref_depths, ref_pairs, ref_assignment = _reference_rainflow_map(u, E, x0)
        dec = rainflow_map(u, E, x0)
        assert dec.map.shape == ref_map.shape
        assert dec.map.tobytes() == ref_map.tobytes()
        assert dec.depths.tobytes() == ref_depths.tobytes()
        assert dec.pairs == ref_pairs
        assert dec.assignment == ref_assignment
        assert cycle_depths(u, E, x0).tobytes() == ref_depths.tobytes()
        soc = soc_from_dispatch(u, E, x0)
        ref_soc = _reference_soc(u, E, x0)
        assert soc.tobytes() == ref_soc.tobytes()
        assert turning_points(soc) == _reference_turning_points(ref_soc)

    @pytest.mark.parametrize("u, E, x0", [
        ([0.5, np.nan], 1.0, 0.5),
        ([np.inf, 0.5], 1.0, 0.5),
        ([-np.inf], 1.0, 0.5),
        ([[0.5, -0.5], [0.5, -0.5]], 1.0, 0.5),
        ([], 1.0, 0.5),
        ([0.5, -0.5], 0.0, 0.5),
        ([0.5, -0.5], -2.0, 0.5),
        ([0.5, -0.5], np.inf, 0.5),
        ([0.5, -0.5], np.nan, 0.5),
        ([0.5, -0.5], 1.0, -0.1),
        ([0.5, -0.5], 1.0, 1.5),
        ([0.5, -0.5], 1.0, np.nan),
    ], ids=["nan", "inf", "minus-inf", "2-d", "empty", "zero-E", "negative-E", "inf-E",
            "nan-E", "x0-below", "x0-above", "nan-x0"])
    def test_invalid_input_rejected_as_before(self, u, E, x0):
        with pytest.raises(InvalidInputError):
            _reference_rainflow_map(u, E, x0)
        for fn in (rainflow_map, cycle_depths, soc_from_dispatch):
            with pytest.raises(InvalidInputError):
                fn(u, E, x0)
