"""Exception types shared across the package, and the one rule per value
type that every constructor applies to a value from a file, a frame or a
caller: require_int, require_float, require_str and require_bool raise
ParameterError on a value of the wrong type instead of converting it."""

import math

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
    UNKNOWN_MESSAGE, BAD_PAYLOAD.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


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
    int past the float range raises OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{field} must be a number")
    value = float(value)
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
