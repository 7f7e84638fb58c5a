"""Exception types shared across the package."""


class CycleMarketError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CycleMarketError, ValueError):
    """Raised on malformed numeric input (non-finite values, bad shapes)."""


class InfeasibleError(CycleMarketError, RuntimeError):
    """Demand cannot be covered within the participant limits.

    ``interval`` names the first offending interval (0-based) when known.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class SolverFailureError(CycleMarketError, RuntimeError):
    """A clearing/planner solve did not reach its certificate or tolerance.

    Carries the best iterate found and its residual so callers can inspect
    how close the solve got.
    """

    def __init__(self, message, best_iterate=None, residual=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual = residual


class NonConvergenceError(SolverFailureError):
    """An iterative scheme hit its iteration cap; ``trace`` holds iterates."""

    def __init__(self, message, trace=None, best_iterate=None, residual=None):
        super().__init__(message, best_iterate=best_iterate, residual=residual)
        self.trace = trace or []


class DivergenceError(CycleMarketError, RuntimeError):
    """An iterative scheme left the region where the update is defined."""


class DegenerateDemandError(CycleMarketError, ValueError):
    """Zero demand vector: proportional prices are undefined."""


class DegeneratePriceError(CycleMarketError, ValueError):
    """A bid denominator vanished (no cycling content in the price vector)."""


class DemandCSVError(CycleMarketError, ValueError):
    """Demand file failed validation; ``row`` is the 1-based offending row."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConfigError(CycleMarketError, ValueError):
    """Market configuration failed validation; lists every violation."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
