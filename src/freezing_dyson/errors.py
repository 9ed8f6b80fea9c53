"""Exception types shared across the library, and the parameter domain checks."""

import math
import sys


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
    """A computed value is NaN or infinite."""


def _is_numpy(value, *names) -> bool:
    """Whether ``value`` is an instance of one of the named numpy types.  No
    numpy value exists before numpy is loaded, so this loads no numpy."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, tuple(getattr(np, name) for name in names))


def check_int(name: str, value, low: int) -> None:
    """Raise InvalidParameter unless ``value`` is an integer, not bool, >= ``low``."""
    integral = isinstance(value, int) or _is_numpy(value, "integer")
    if isinstance(value, bool) or not integral or value < low:
        raise InvalidParameter(f"{name} must be an integer >= {low} (got {value!r})")


def check_real(name: str, value, low: float, inclusive: bool = False) -> None:
    """Raise InvalidParameter unless ``value`` is a finite real, not bool, > ``low``
    (>= when ``inclusive``)."""
    real = isinstance(value, (int, float)) or _is_numpy(value, "integer", "floating")
    real = real and -math.inf < value < math.inf
    if isinstance(value, bool) or not real or value < low or (value == low and not inclusive):
        op = ">=" if inclusive else ">"
        raise InvalidParameter(f"{name} must be finite and {op} {low:g} (got {value!r})")
