"""Exception types: one per failure that a caller tells apart or that carries data."""


class NeurofieldError(Exception):
    """Base class for all toolkit errors."""


class InfeasibleModel(NeurofieldError):
    """The assumption check did not pass, so no bump is built: raised by the
    first stage after the check, naming the conditions that did not pass."""


class BracketFailure(NeurofieldError):
    """A bisection has no bracket: its target level lies outside the reachable
    range, or the upper bounding profile never falls back to the threshold h."""


class NoConvergence(NeurofieldError):
    """An iteration or an eigenpair did not meet its tolerance, or no sandwich
    margin or interior Newton limit was found."""


class NonFinite(NeurofieldError):
    """Time integration produced a non-finite state.

    Carries the partial trajectory recorded so far in ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ConfigError(NeurofieldError):
    """Run configuration failed to parse or validate."""
