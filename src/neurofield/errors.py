"""Exception types used across the toolkit."""


class NeurofieldError(Exception):
    """Base class for all toolkit errors."""


class NotDifferentiable(NeurofieldError):
    """Derivative requested from a firing rate that does not have one."""


class InfeasibleModel(NeurofieldError):
    """The kernel mass on [0, 2a] does not exceed h + tau: no bump regime exists.

    Carries the assumption report that detected the failure in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BracketFailure(NeurofieldError):
    """Bisection target level lies outside the reachable range of the cumulative integral."""


class NoSuchD(NeurofieldError):
    """The upper bounding profile never falls back to the threshold h."""


class EpsilonNotFound(NeurofieldError):
    """No strictly positive margin survived the halving ladder."""


class NoConvergence(NeurofieldError):
    """Iteration exhausted its budget without meeting the tolerance."""


class NewtonDivergence(NeurofieldError):
    """Damped Newton could not reduce the residual any further."""


class DegenerateFixedPoint(NeurofieldError):
    """Newton converged onto one of the bounding profiles instead of an interior point."""


class GridMisaligned(NeurofieldError):
    """Two grids that must share nodes do not."""


class NonFinite(NeurofieldError):
    """Time integration produced a non-finite state.

    Carries the partial trajectory recorded so far in ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class PerturbationTooLarge(NeurofieldError, ValueError):
    """The escape experiment's delta is not below epsilon_ball / 10, leaving no
    linear growth window inside the epsilon ball."""


class NoEscape(NeurofieldError):
    """Perturbed trajectory never left the epsilon ball despite a positive growth margin."""


class PowerIterationStall(NeurofieldError):
    """Dominant-eigenvalue iteration failed to settle (near-degenerate dominant pair)."""


class StageDependencyError(NeurofieldError):
    """A pipeline command is missing the cached artifacts of an earlier stage."""


class ConfigError(NeurofieldError):
    """Run configuration failed to parse or validate."""
