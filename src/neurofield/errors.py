"""Exception types used across the toolkit."""


class NeurofieldError(Exception):
    """Base class for all toolkit errors."""


class NotDifferentiable(NeurofieldError):
    """Derivative requested from a firing rate that does not have one."""


class InfeasibleModel(NeurofieldError):
    """The assumption check did not pass, so no bump is built: raised by the
    first stage after the check, naming the conditions that did not pass."""


class BracketFailure(NeurofieldError):
    """Bisection target level lies outside the reachable range of the cumulative integral."""


class NoSuchD(NeurofieldError):
    """The upper bounding profile never falls back to the threshold h."""


class EpsilonNotFound(NeurofieldError):
    """No strictly positive margin survived the halving ladder."""


class NoConvergence(NeurofieldError):
    """An iteration or an eigenpair did not meet its tolerance."""


class NewtonDivergence(NeurofieldError):
    """Damped Newton could not reduce the residual any further."""


class DegenerateFixedPoint(NeurofieldError):
    """Newton converged onto one of the bounding profiles or outside the order
    interval between them instead of an interior point."""


class NonFinite(NeurofieldError):
    """Time integration produced a non-finite state.

    Carries the partial trajectory recorded so far in ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ConfigError(NeurofieldError):
    """Run configuration failed to parse or validate."""
