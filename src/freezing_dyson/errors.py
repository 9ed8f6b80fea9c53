"""Exception types shared across the library."""


class FreezingDysonError(Exception):
    """Base class for all library errors."""


class InvalidParameter(FreezingDysonError):
    """A parameter is outside its documented domain."""


class DimensionMismatch(FreezingDysonError):
    """Two tuples/polynomials that must share a size do not."""


class NotRealRooted(FreezingDysonError):
    """A polynomial expected to be real-rooted is not (within tolerance)."""


class NoConvergence(FreezingDysonError):
    """An iterative solver failed to converge after its retry policy."""


class StepUnstable(FreezingDysonError):
    """An SDE integration step produced coordinates beyond the stability bound."""


class NonFiniteOutput(FreezingDysonError):
    """A value the CLI was about to write is NaN or infinite."""
