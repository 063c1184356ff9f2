"""Clipping and Gaussian summarization of embedding sets (the seller-side
"compute mean and covariance" step).

A set is checked once, by the public EmbeddingSet constructor or as
clip_to_ball's input. clip_to_ball and the Gaussian mechanism build theirs
with errors._trusted, which neither copies nor scans: a finite float64 matrix
of n >= 2 rows and d >= 1 columns, a checked radius and a clipped flag that
holds by construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    InsufficientSamplesError,
    NumericInputError,
    ParameterError,
    ShapeError,
    _fields_equal,
    _trusted,
    _unhashable,
    require_bool,
    require_float,
)
from .gaussian_geometry import GaussianSummary, _check_finite, symmetrize

__all__ = [
    "EmbeddingSet", "clip_to_ball", "sample_covariance", "sample_mean", "summarize",
]

# Slack on the row-norm invariant of clipped sets: x * (R / ||x||) can land a
# hair above R in floating point.
CLIP_SLACK = 1e-12


def _check_radius(radius) -> float:
    """The clip radius as a float: a finite number above 0."""
    radius = require_float(radius, "clip radius")
    if radius <= 0.0:
        raise ParameterError(f"clip radius must be positive, got {radius}")
    return radius


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of a real 2-D array: bit for bit what
    np.linalg.norm(v, axis=1) computes, without its dispatch."""
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        return np.sqrt(np.add.reduce(v * v, axis=1))


def _check_shape(v: np.ndarray):
    """Reject v unless it is a 2-D matrix of n >= 2 rows and d >= 1 columns."""
    if v.ndim != 2:
        raise ShapeError(f"vectors must be a 2-D matrix, got shape {v.shape}")
    n, d = v.shape
    if n == 0:
        raise EmptyInputError("embedding set has no rows")
    if n < 2:
        raise InsufficientSamplesError(f"embedding set needs >= 2 rows, got {n}")
    if d < 1:
        raise ShapeError("embedding dimension must be >= 1")


@dataclass(frozen=True)
class EmbeddingSet:
    """n row vectors in d dimensions with a declared l2 clip radius.

    ``clipped`` records whether every row is inside the radius-R ball; the
    Gaussian mechanism clears it because noising pushes rows back out.
    """

    vectors: np.ndarray
    clip_radius: float
    clipped: bool

    __eq__ = _fields_equal
    __hash__ = _unhashable

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        _check_shape(v)
        if not np.isfinite(v).all():
            raise NumericInputError("embedding vectors contain non-finite entries")
        r = _check_radius(self.clip_radius)
        if require_bool(self.clipped, "clipped"):
            worst = float(_row_norms(v).max())
            if worst > r * (1.0 + CLIP_SLACK):
                raise ParameterError(
                    f"set is flagged clipped but a row has norm {worst} > {r}"
                )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "clip_radius", r)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def clip_to_ball(vectors, radius: float) -> EmbeddingSet:
    """Scale every row with ||x|| > R back onto the radius-R sphere.

    Rows already inside the ball are carried over bit-identically, so the
    operation is idempotent and direction-preserving.
    """
    radius = _check_radius(radius)
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise ShapeError(f"vectors must be a 2-D matrix, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NumericInputError("vectors contain non-finite entries")
    _check_shape(v)
    norms = _row_norms(v)
    # x * 1.0 is x bit for bit, so one pass scales the rows outside the ball
    # and carries the others over.
    scale = np.divide(radius, norms, out=np.ones_like(norms), where=norms > radius)
    out = v * scale[:, None]
    big = np.isinf(norms)
    if big.any():  # v * v overflowed: take these rows' norms at max |x| = 1
        unit = v[big] / np.abs(v[big]).max(axis=1)[:, None]
        out[big] = unit * (radius / _row_norms(unit))[:, None]
    return _trusted(EmbeddingSet, vectors=out, clip_radius=radius, clipped=True)


def sample_mean(embeddings: EmbeddingSet) -> np.ndarray:
    """Arithmetic mean of the rows."""
    return embeddings.vectors.mean(axis=0)


def sample_covariance(embeddings: EmbeddingSet) -> np.ndarray:
    """Unbiased sample covariance with the 1/(n-1) normalizer."""
    return symmetrize(_covariance_about(embeddings, embeddings.vectors.mean(axis=0)))


def _covariance_about(embeddings: EmbeddingSet, mean: np.ndarray) -> np.ndarray:
    """sample_covariance before its symmetrize, centered on the rows' mean
    computed by the caller. An entry past the float range reads inf, for the
    caller's symmetrize to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        centered = embeddings.vectors - mean
        return centered.T @ centered / (embeddings.count - 1)


def summarize(embeddings: EmbeddingSet) -> GaussianSummary:
    """Package mean, covariance, and count into a GaussianSummary.

    The set was checked when it was made, and the moments are made here: the
    summary is checked for finiteness and symmetrized, not PSD-checked or
    clamped, since a Gram matrix is PSD up to rounding. Where the public
    constructor would rebuild it (an eigenvalue between -PSD_TOL * lambda_max
    and -d * eps * lambda_max), the covariance is kept as computed; the buyer
    clamps what it scores: buyer_summary passes these moments to the public
    constructor, and each received reply is checked as it arrives."""
    mean = _check_finite(sample_mean(embeddings), "mean")
    covariance = symmetrize(_covariance_about(embeddings, mean))
    return _trusted(GaussianSummary, mean=mean, covariance=covariance, count=embeddings.count)
