"""Tests for participant cost models and the cycle-cost subgradient."""

import numpy as np
import pytest

from cyclemarket import (
    GeneratorParams,
    StorageParams,
    generator_cost,
    generator_marginal_cost,
    storage_cost,
    storage_cost_subgradient,
)


def smooth_profile(rng, T=24):
    """Dispatch shapes like the ones market solves produce: slow daily swings."""
    h = np.arange(T)
    u = (
        rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * (h + rng.uniform(0, 24)) / 24)
        + rng.uniform(0.1, 0.5) * np.sin(4 * np.pi * (h + rng.uniform(0, 24)) / 24)
        + rng.normal(0.0, 0.05, T)
    )
    return u - u.mean()


def classical_range_depths(u, E):
    """Reference oracle: four-point counting on turning-point ranges.

    Depths come straight from the extrema values (full cycles counted twice,
    residual ranges once); no interval bookkeeping.  This is the idealized
    fractional counting whose quadratic cost is exactly convex.
    """
    x = np.concatenate([[0.0], -np.cumsum(np.asarray(u, float)) / E])
    pts = [x[0]]
    direction = 0
    for i in range(1, x.size):
        dx = x[i] - x[i - 1]
        if dx == 0:
            continue
        d = 1 if dx > 0 else -1
        if d == direction:
            pts[-1] = x[i]
        else:
            pts.append(x[i])
            direction = d
    stack, depths = [], []
    for val in pts:
        stack.append(val)
        while len(stack) >= 4:
            r1 = abs(stack[-3] - stack[-4])
            r2 = abs(stack[-2] - stack[-3])
            r3 = abs(stack[-1] - stack[-2])
            if r2 <= r1 and r2 <= r3:
                depths += [r2, r2]
                del stack[-3:-1]
            else:
                break
    for a, b in zip(stack, stack[1:]):
        depths.append(abs(b - a))
    return np.array(depths)


class TestGeneratorCost:
    def test_flat_dispatch(self):
        p = GeneratorParams(c=20.0)
        assert generator_cost([1.0, 1.0], p) == pytest.approx(20.0)

    def test_zero_dispatch(self):
        p = GeneratorParams(c=20.0, a=3.0)
        assert generator_cost(np.zeros(5), p) == 0.0

    def test_hand_arithmetic(self):
        # (4/2) * (4 + 1 + 9) + 1 * (2 - 1 + 3) = 28 + 4 = 32
        p = GeneratorParams(c=4.0, a=1.0)
        assert generator_cost([2.0, -1.0, 3.0], p) == pytest.approx(32.0)

    def test_gradient_exact(self):
        rng = np.random.default_rng(0)
        p = GeneratorParams(c=7.0, a=2.5)
        g = rng.normal(0, 3, 12)
        assert generator_marginal_cost(g, p) == pytest.approx(p.c * g + p.a)


class TestStorageCost:
    def test_zero(self):
        p = StorageParams(capacity_E=1.0, b=2.0)
        assert storage_cost(np.zeros(4), p) == 0.0

    def test_triangle(self):
        # nu = [0.5, 0.5], cost = (2/2)(0.25 + 0.25) = 0.5
        p = StorageParams(capacity_E=1.0, b=2.0)
        assert storage_cost([-0.5, 0.5], p) == pytest.approx(0.5)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(1)
        p = StorageParams(capacity_E=2.0, b=3.0)
        for _ in range(50):
            u = rng.normal(0, 1, int(rng.integers(2, 30)))
            base = storage_cost(u, p)
            for eps in (0.5, 2.0, 7.0):
                assert storage_cost(eps * u, p) == pytest.approx(eps**2 * base, rel=1e-12)

    def test_convexity_on_dispatch_like_profiles(self):
        rng = np.random.default_rng(2)
        p = StorageParams(capacity_E=2.0, b=2.0)
        for _ in range(300):
            u, v = smooth_profile(rng), smooth_profile(rng)
            t = float(rng.random())
            lhs = storage_cost(t * u + (1 - t) * v, p)
            rhs = t * storage_cost(u, p) + (1 - t) * storage_cost(v, p)
            assert lhs <= rhs + 1e-9

    def test_classical_range_counting_is_convex(self):
        # the idealized fractional counting the cycle cost approximates
        rng = np.random.default_rng(3)
        for _ in range(500):
            T = int(rng.integers(2, 25))
            u, v = rng.normal(0, 1, T), rng.normal(0, 1, T)
            t = float(rng.random())

            def f(w):
                nu = classical_range_depths(w, 2.0)
                return float(nu @ nu)

            assert f(t * u + (1 - t) * v) <= t * f(u) + (1 - t) * f(v) + 1e-9

    def test_matches_classical_counting_on_aligned_profiles(self):
        # symmetric excursions line up with interval boundaries, so the
        # whole-interval assignment reproduces the range-based depths
        p = StorageParams(capacity_E=1.0, b=2.0)
        for u in ([-0.5, 0.5], [-0.6, 0.2, -0.2, 0.6], [0.3, -0.3, 0.4, -0.4]):
            nu_ref = classical_range_depths(u, 1.0)
            ref = 0.5 * p.b * float(nu_ref @ nu_ref)
            assert storage_cost(u, p) == pytest.approx(ref)


class TestStorageCostSubgradient:
    def test_zero_profile_gradient_zero(self):
        p = StorageParams(capacity_E=1.0, b=2.0)
        info = storage_cost_subgradient(np.zeros(6), p)
        assert info.gradient == pytest.approx(np.zeros(6))

    def test_matches_finite_differences_at_smooth_points(self):
        rng = np.random.default_rng(4)
        p = StorageParams(capacity_E=2.0, b=2.0)
        checked = 0
        for _ in range(60):
            u = smooth_profile(rng)
            info = storage_cost_subgradient(u, p)
            if info.gamma.size != 1:
                continue  # kink: finite differences straddle pieces
            step = 1e-6 * max(1.0, float(np.linalg.norm(u)))
            fd = np.empty(u.size)
            for t in range(u.size):
                up, dn = u.copy(), u.copy()
                up[t] += step
                dn[t] -= step
                fd[t] = (storage_cost(up, p) - storage_cost(dn, p)) / (2 * step)
            scale = max(1.0, float(np.max(np.abs(info.gradient))))
            assert np.max(np.abs(fd - info.gradient)) / scale < 1e-6
            checked += 1
        assert checked >= 30

    def test_kink_detected_when_extrema_tie(self):
        # middle SoC sample equals a neighboring extremum: x = [0, .4, .1, .4, 0]
        p = StorageParams(capacity_E=1.0, b=2.0)
        info = storage_cost_subgradient(np.array([-0.4, 0.3, -0.3, 0.4]), p)
        assert info.gamma.size >= 2
        assert info.gamma.sum() == pytest.approx(1.0)
        assert np.all(info.gamma >= 0)

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(5)
        p = StorageParams(capacity_E=2.0, b=2.0)
        for _ in range(300):
            u, v = smooth_profile(rng), smooth_profile(rng)
            fu, fv = storage_cost(u, p), storage_cost(v, p)
            g = storage_cost_subgradient(u, p).gradient
            assert fv >= fu + float(g @ (v - u)) - 1e-9


class TestParams:
    def test_storage_coefficient_from_capital_cost(self):
        s = StorageParams(capacity_E=50.0, capital_cost_B=150.0)
        assert s.b == pytest.approx(3.93)
        assert s.u_max == pytest.approx(12.5)
        assert s.u_min == pytest.approx(-12.5)

    def test_one_hour_duration_bounds(self):
        s = StorageParams(capacity_E=20.0, duration_hours=1.0)
        assert (s.u_min, s.u_max) == (-20.0, 20.0)

    def test_validation(self):
        from cyclemarket.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            GeneratorParams(c=0.0)
        with pytest.raises(InvalidInputError):
            StorageParams(capacity_E=-1.0)
        with pytest.raises(InvalidInputError):
            StorageParams(capacity_E=1.0, x0=2.0)
        with pytest.raises(InvalidInputError, match="g_min <= g_max"):
            GeneratorParams(c=1.0, g_min=2.0, g_max=1.0)
        with pytest.raises(InvalidInputError, match="cycle cost coefficient"):
            StorageParams(capacity_E=1.0, b=0.0)
        with pytest.raises(InvalidInputError, match="u_min <= u_max"):
            StorageParams(capacity_E=1.0, u_min=1.0, u_max=-1.0)
        # a NaN limit fails the order check, which no NaN comparison passes
        with pytest.raises(InvalidInputError, match="g_min <= g_max"):
            GeneratorParams(c=1.0, g_min=np.nan)
        with pytest.raises(InvalidInputError, match="u_min <= u_max"):
            StorageParams(capacity_E=50.0, u_min=np.nan, u_max=np.nan)
