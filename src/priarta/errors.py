"""Exception types shared across the package."""


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
