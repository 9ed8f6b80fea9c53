"""Exception types shared across the library, the parameter domain checks, and
``np``, the one binding through which the exact-side modules reach numpy."""

import importlib
import math
import sys

__all__ = [
    "DimensionMismatch", "FreezingDysonError", "InvalidParameter", "NoConvergence",
    "NonFiniteOutput", "NotRealRooted", "StepUnstable",
]


class _Numpy:
    """numpy, imported on the first attribute lookup and read afresh on each:
    binding ``np`` loads no numpy, and a patched numpy attribute is seen."""

    def __getattr__(self, name):
        return getattr(sys.modules.get("numpy") or importlib.import_module("numpy"), name)


np = _Numpy()


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


def is_numpy(value, *names) -> bool:
    """Whether ``value`` is an instance of one of the named numpy types.  No
    numpy value exists before numpy is loaded, so this loads no numpy."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, tuple(getattr(numpy, n) for n in names))


def check_int(name: str, value, low: int) -> None:
    """Raise InvalidParameter unless ``value`` is an integer, not bool, >= ``low``."""
    integral = isinstance(value, int) or is_numpy(value, "integer")
    if isinstance(value, bool) or not integral or value < low:
        raise InvalidParameter(f"{name} must be an integer >= {low} (got {value!r})")


def check_real(name: str, value, low: float, inclusive: bool = False) -> None:
    """Raise InvalidParameter unless ``value`` is a finite real, not bool, > ``low``
    (>= when ``inclusive``)."""
    real = isinstance(value, (int, float)) or is_numpy(value, "integer", "floating")
    real = real and -math.inf < value < math.inf
    if isinstance(value, bool) or not real or value < low or (value == low and not inclusive):
        op = ">=" if inclusive else ">"
        raise InvalidParameter(f"{name} must be finite and {op} {low:g} (got {value!r})")
