"""Clipping and Gaussian summarization of embedding sets (the seller-side
"compute mean and covariance" step)."""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    InsufficientSamplesError,
    NumericInputError,
    ParameterError,
    ShapeError,
    require_bool,
    require_float,
)
from .gaussian_geometry import GaussianSummary, _clamp_reconstruct, symmetrize

__all__ = [
    "EmbeddingSet", "clip_to_ball", "debias_covariance", "sample_covariance",
    "sample_mean", "summarize",
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
    return np.sqrt(np.add.reduce(v * v, axis=1))


@dataclass(frozen=True)
class EmbeddingSet:
    """n row vectors in d dimensions with a declared l2 clip radius.

    ``clipped`` records whether every row is inside the radius-R ball; the
    Gaussian mechanism clears it because noising pushes rows back out.
    """

    vectors: np.ndarray
    clip_radius: float
    clipped: bool

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2:
            raise ShapeError(f"vectors must be a 2-D matrix, got shape {v.shape}")
        n, d = v.shape
        if n == 0:
            raise EmptyInputError("embedding set has no rows")
        if n < 2:
            raise InsufficientSamplesError(f"embedding set needs >= 2 rows, got {n}")
        if d < 1:
            raise ShapeError("embedding dimension must be >= 1")
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
    norms = _row_norms(v)
    out = v.copy()
    mask = norms > radius
    if mask.any():
        out[mask] *= (radius / norms[mask])[:, None]
    return EmbeddingSet(out, radius, clipped=True)


def sample_mean(embeddings: EmbeddingSet) -> np.ndarray:
    """Arithmetic mean of the rows."""
    if embeddings.count < 1:
        raise EmptyInputError("cannot average an empty embedding set")
    return embeddings.vectors.mean(axis=0)


def sample_covariance(embeddings: EmbeddingSet) -> np.ndarray:
    """Unbiased sample covariance with the 1/(n-1) normalizer."""
    return _covariance_about(embeddings, embeddings.vectors.mean(axis=0))


def _covariance_about(embeddings: EmbeddingSet, mean: np.ndarray) -> np.ndarray:
    """sample_covariance, centered on the rows' mean computed by the caller."""
    n = embeddings.count
    if n < 2:
        raise InsufficientSamplesError(f"covariance needs >= 2 rows, got {n}")
    centered = embeddings.vectors - mean
    return symmetrize(centered.T @ centered / (n - 1))


def summarize(embeddings: EmbeddingSet) -> GaussianSummary:
    """Package mean, covariance, and count into a GaussianSummary."""
    mean = sample_mean(embeddings)
    return GaussianSummary(
        mean=mean,
        covariance=_covariance_about(embeddings, mean),
        count=embeddings.count,
    )


def debias_covariance(summary: GaussianSummary, sigma: float) -> GaussianSummary:
    """Remove the systematic sigma^2 * I inflation a noisy covariance carries.

    The result is clamped back onto the PSD cone (every negative eigenvalue
    goes to 0, none is rejected); mean and count pass through.
    Off by default in the pipeline: the noisy covariance is normally used
    as-is, this correction exists for buyers who want the inflation removed.
    """
    sigma = require_float(sigma, "sigma")
    if sigma < 0.0:
        raise ParameterError(f"sigma must be a nonnegative real, got {sigma}")
    if sigma == 0.0:
        return summary
    try:
        variance = sigma**2
    except OverflowError as exc:
        raise ParameterError(f"sigma^2 is not finite for sigma = {sigma!r}") from exc
    shifted = summary.covariance - variance * np.eye(summary.dim)
    w, q = np.linalg.eigh(shifted)
    return GaussianSummary(summary.mean, _clamp_reconstruct(w, q), summary.count)
