"""Participant cost models: quadratic generation and cycle-depth degradation."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .rainflow import _vector, cycle_depths, rainflow_map

__all__ = [
    "GeneratorParams",
    "StorageParams",
    "MarketParams",
    "SubgradientInfo",
    "generator_cost",
    "generator_marginal_cost",
    "storage_cost",
    "storage_cost_subgradient",
]

# Empirical scaling between capital cost and the quadratic cycle-cost
# coefficient, b = rho * B * E with B in $/kWh and E in MWh.
DEFAULT_RHO = 5.24e-4


@dataclass
class GeneratorParams:
    """Quadratic generator cost (c/2)*sum(g^2) + a*sum(g) with power limits."""

    c: float
    a: float = 0.0
    g_min: float = 0.0
    g_max: float = np.inf

    def __post_init__(self):
        if not (self.c > 0):
            raise InvalidInputError("generator cost coefficient c must be positive")
        if self.g_min > self.g_max:
            raise InvalidInputError("generator limits must satisfy g_min <= g_max")


@dataclass
class StorageParams:
    """Physical and cost parameters of one storage unit.

    The cycle cost coefficient defaults to rho * B * E; rate limits default
    to +/- E / duration_hours (a 4-hour battery unless stated otherwise).
    """

    capacity_E: float
    capital_cost_B: float = 150.0
    rho: float = DEFAULT_RHO
    b: float = None
    duration_hours: float = 4.0
    u_min: float = None
    u_max: float = None
    x0: float = 0.5

    def __post_init__(self):
        if not (self.capacity_E > 0):
            raise InvalidInputError("storage capacity must be positive")
        if self.b is None:
            self.b = self.rho * self.capital_cost_B * self.capacity_E
        if not (self.b > 0):
            raise InvalidInputError("storage cycle cost coefficient must be positive")
        if self.u_max is None:
            self.u_max = self.capacity_E / self.duration_hours
        if self.u_min is None:
            self.u_min = -self.u_max
        if self.u_min > self.u_max:
            raise InvalidInputError("storage limits must satisfy u_min <= u_max")
        if not (0.0 <= self.x0 <= 1.0):
            raise InvalidInputError("initial SoC must lie in [0, 1]")


@dataclass
class MarketParams:
    """All participants of one market session."""

    generators: list = field(default_factory=list)
    storages: list = field(default_factory=list)

    @property
    def n_generators(self):
        return len(self.generators)

    @property
    def n_storages(self):
        return len(self.storages)


@dataclass
class SubgradientInfo:
    """A subgradient of the cycle cost plus the convex weights behind it.

    At points where the half-cycle assignment is stable under perturbation
    ``gamma`` is [1.0]; at kinks it holds one weight per detected smooth piece
    (uniform weights, any convex combination being a valid subgradient).
    """

    gradient: np.ndarray
    gamma: np.ndarray


def generator_cost(g, params):
    """Dollar cost of a generator dispatch profile."""
    vals = _vector(g)[0]
    return float(0.5 * params.c * np.dot(vals, vals) + params.a * vals.sum())


def generator_marginal_cost(g, params):
    """Exact gradient of the quadratic generator cost: c*g + a."""
    vals = _vector(g)[0]
    return params.c * vals + params.a


def storage_cost(u, params):
    """Cycle-depth degradation cost (b/2) * nu' nu of a dispatch profile."""
    nu = cycle_depths(u, params.capacity_E, params.x0)
    return float(0.5 * params.b * np.dot(nu, nu))


def _piece_gradient(N, vals, b):
    return b * (N.T @ (N @ vals))


def storage_cost_subgradient(u, params):
    """Subgradient of the cycle cost with kink detection by probing.

    The cost is piecewise quadratic in the dispatch: within a region of
    stable half-cycle assignment the gradient is b * N' N u.  Coordinate
    perturbations of size ~1e-7 reveal neighboring assignment regions; when
    more than one distinct map shows up the result averages the adjacent
    pieces' gradients with uniform convex weights.
    """
    vals = _vector(u)[0]
    E, x0, b = params.capacity_E, params.x0, params.b
    probe_step = 1e-7 * max(1.0, float(np.max(np.abs(vals))))

    base = rainflow_map(vals, E, x0)
    maps = {base.signature(): base.map}
    for t in range(vals.size):
        for sign in (1.0, -1.0):
            probe = vals.copy()
            probe[t] += sign * probe_step
            decomp = rainflow_map(probe, E, x0)
            maps.setdefault(decomp.signature(), decomp.map)

    pieces = [_piece_gradient(N, vals, b) for N in maps.values()]
    gamma = np.full(len(pieces), 1.0 / len(pieces))
    gradient = sum(g * w for g, w in zip(pieces, gamma))
    return SubgradientInfo(gradient=np.asarray(gradient), gamma=gamma)
