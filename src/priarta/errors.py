"""Exception types shared across the package, and the one rule per value
type that every constructor applies to a value from a file, a frame or a
caller: require_int, require_float, require_str and require_bool raise
ParameterError on a value of the wrong type instead of converting it. An
object the package builds from values it has just made, or has checked, is
made by _trusted(cls, ...) instead, which applies none of those rules. It is
the one path that skips a constructor: each module's docstring lists what
the values it passes must already satisfy. A frozen dataclass with array
fields takes its __eq__ and __hash__ from _fields_equal and _unhashable."""

import dataclasses
import math

import numpy as np

__all__ = [
    "ConfigError", "ConvergenceError", "EmptyInputError", "FileFormatError",
    "FrameError", "InsufficientSamplesError", "NoCandidatesError",
    "NotPSDError", "NumericInputError", "ParameterError", "PriartaError",
    "ProtocolFailure", "ShapeError",
]


class PriartaError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(PriartaError, ValueError):
    """A scalar parameter is outside its legal range."""


class NumericInputError(PriartaError, ValueError):
    """An array input contains NaN or infinite entries."""


class ShapeError(PriartaError, ValueError):
    """Array dimensions are inconsistent with each other or with a spec."""


class NotPSDError(PriartaError, ValueError):
    """A matrix required to be positive semidefinite is not, beyond tolerance."""

    def __init__(self, message: str, offending_eigenvalue: float):
        super().__init__(message)
        self.offending_eigenvalue = offending_eigenvalue


class ConvergenceError(PriartaError, RuntimeError):
    """An iterative matrix decomposition failed to converge."""


class EmptyInputError(ParameterError):
    """An operation received no data."""


class InsufficientSamplesError(ParameterError):
    """Fewer samples available than the operation requires."""


class FrameError(PriartaError, ValueError):
    """A wire frame could not be encoded or decoded.

    ``code`` is one of FRAME_TRUNCATED, FRAME_TOO_LARGE, FRAME_TRAILING,
    UNKNOWN_MESSAGE, BAD_PAYLOAD; ``message`` is the text after it, which an
    ERROR frame carries beside the code.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ProtocolFailure(PriartaError, RuntimeError):
    """A session-level failure reported by a peer or the transport."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class ConfigError(PriartaError, ValueError):
    """A configuration document failed validation.

    ``problems`` lists every offending field, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


class FileFormatError(PriartaError, ValueError):
    """An on-disk artifact (embedding, raw dataset, report) is malformed."""


class NoCandidatesError(PriartaError, RuntimeError):
    """Every seller failed; there is nothing to rank."""


def require_int(value, field: str, minimum: int = 0) -> int:
    """value, when it is an int (not a bool) of at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{field} must be an integer >= {minimum}")
    return value


def require_float(value, field: str) -> float:
    """value as a float, when it is a finite int or float (not a bool). An
    int past the float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{field} must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise ParameterError(f"{field} must be finite") from None
    if not math.isfinite(value):
        raise ParameterError(f"{field} must be finite")
    return value


def require_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"{field} must be a string")
    return value


def require_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"{field} must be a boolean")
    return value


def _fields_equal(self, other):
    """__eq__ of a frozen dataclass with array fields: the same class and
    np.array_equal field by field. The generated __eq__ would take the truth
    value of an array comparison."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in dataclasses.fields(self))


def _unhashable(self):
    """__hash__ of a dataclass compared by _fields_equal: its arrays are not
    hashable, so neither is it."""
    raise TypeError(f"unhashable type: {type(self).__name__!r}")


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls over values its caller
    guarantees, built without __post_init__: each array is made read-only,
    nothing is copied or checked."""
    out = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(out, name, value)
    return out
