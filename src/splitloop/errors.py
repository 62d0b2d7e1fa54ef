"""Exception hierarchy shared by every module in the package."""


class SplitLoopError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(SplitLoopError, ValueError):
    """A numeric argument lies outside its permitted interval."""


class NormalizationError(SplitLoopError, ValueError):
    """Construction input violates a norm or sum invariant beyond tolerance."""

    def __init__(self, violation):
        super().__init__(violation.message)
        self.violation = violation


class ModeMismatchError(SplitLoopError, TypeError):
    """A state representation does not match the interaction mode using it."""


class ScheduleConflictError(SplitLoopError, ValueError):
    """Topology switch steps are not strictly increasing or exceed the run length."""


class InvalidStepError(SplitLoopError, ValueError):
    """A closed form got a step index that is not an integer >= 1."""


class NumericDomainError(SplitLoopError, ArithmeticError):
    """An internal numeric guard fired (degenerate denominator or the like)."""


class UnsupportedModeError(SplitLoopError, ValueError):
    """The stochastic sampler only models the movable-splitter mode."""


class DegenerateInitialError(SplitLoopError, ValueError):
    """A comparison was requested from a pure initial state that never relaxes."""


class LengthMismatchError(SplitLoopError, ValueError):
    """Two per-step series that must align have different lengths."""
