"""Symmetric-matrix numerics and the closed-form 2-Wasserstein distance.

For two Gaussians N(mu_a, Sigma_a) and N(mu_b, Sigma_b) the squared distance is

    ||mu_a - mu_b||^2 + tr(Sigma_a) + tr(Sigma_b)
        - 2 tr((Sigma_a^{1/2} Sigma_b Sigma_a^{1/2})^{1/2})

For any factor Sigma_a = F F^T the matrix F^T Sigma_b F is similar to
Sigma_b Sigma_a, so the cross term is sum_i sqrt(lambda_i(F^T Sigma_b F))
(Dowson & Landau 1982; Olkin & Pukelsheim 1982). Scoring therefore factors
its left argument once, keeps F on that summary, and runs one symmetric
eigenvalue solve per call. F is the Cholesky factor, or Q sqrt(max(w, 0))
from an eigendecomposition when Cholesky fails on a singular covariance.

PSD validation likewise tries Cholesky first and eigendecomposes only what it
cannot factor. Wherever eigenvalues are computed they are clamped:
floating-point noise routinely produces eigenvalues around -1e-16 on
matrices that are PSD in exact arithmetic.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import (
    ConvergenceError,
    NotPSDError,
    NumericInputError,
    ShapeError,
    require_int,
)

__all__ = ["GaussianSummary", "psd_clamp", "symmetrize", "wasserstein2_gaussian"]

Array = np.ndarray

# Relative tolerance below which negative eigenvalues are treated as noise
# and clamped to zero (threshold: -PSD_TOL * lambda_max).
PSD_TOL = 1e-10
# Relative residual budget for linear-algebra identities in double precision.
LIN_TOL = 1e-8


def _check_finite(a: Array, name: str) -> Array:
    a = np.asarray(a, dtype=float)
    if a.size and not np.isfinite(a).all():
        raise NumericInputError(f"{name} contains non-finite entries")
    return a


def symmetrize(a) -> Array:
    """Return (A + A^T) / 2 as a fresh array.

    Bit-identical to the input when the input is already exactly symmetric.
    Raises NumericInputError when the result is not finite: for non-finite
    input, and when a sum A_ij + A_ji overflows (entries above about 9e307).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ShapeError("matrix dimension must be >= 1")
    out = (a + a.T) / 2.0
    if not np.isfinite(out).all():
        _check_finite(a, "matrix")
        raise NumericInputError("matrix entries overflow when symmetrized")
    return out


def _sym_eig(a, name: str = "matrix"):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvector columns orthonormal, so that Q @ diag(w) @ Q.T reconstructs A.
    """
    a = symmetrize(a)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition of {name} did not converge: {exc}") from exc
    return w[::-1].copy(), q[:, ::-1].copy()


def _require_psd(lam_min: float, lam_max: float, name: str):
    """Eigenvalues in [-PSD_TOL * lambda_max, 0) are floating-point noise for
    the caller to clamp; anything below that threshold raises NotPSDError."""
    floor = -PSD_TOL * max(lam_max, 0.0)
    if lam_min < floor:
        raise NotPSDError(
            f"{name} is not PSD within tolerance: eigenvalue {lam_min:.6e} "
            f"is below {floor:.6e}",
            offending_eigenvalue=lam_min,
        )


def _clamped_eigh(a: Array, name: str):
    """Eigendecomposition that rejects genuinely negative eigenvalues."""
    w, q = _sym_eig(a, name=name)
    _require_psd(float(w[-1]), float(w[0]), name)
    return w, q


def _clamped_eigvalsh(a: Array, name: str) -> Array:
    """Eigenvalues of a symmetric PSD matrix, noise negatives clamped to 0."""
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition of {name} did not converge: {exc}") from exc
    _require_psd(float(w[0]), float(w[-1]), name)
    return np.maximum(w, 0.0)


def _clamp_reconstruct(w: Array, q: Array) -> Array:
    """Q diag(max(w, 0)) Q^T, symmetrized: the eigenvalue projection onto
    the PSD cone."""
    return symmetrize((q * np.maximum(w, 0.0)) @ q.T)


def _cholesky(sym: Array):
    """Lower Cholesky factor of a symmetric matrix, or None when it is not
    numerically positive definite."""
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return None


def psd_clamp(a, name: str = "matrix") -> Array:
    """Project a nearly-PSD symmetric matrix onto the PSD cone.

    Rejects matrices whose most negative eigenvalue exceeds the noise
    tolerance rather than silently repairing them.  Already-PSD input (one
    that Cholesky factors, or whose eigenvalues are all >= 0) is returned
    symmetrized but not eigen-reconstructed, so clamping is idempotent at
    the bit level and summaries survive wire round-trips unchanged.
    """
    sym = symmetrize(a)
    if _cholesky(sym) is not None:
        return sym
    w, q = _clamped_eigh(sym, name)
    if float(w[-1]) >= 0.0:
        return sym
    return _clamp_reconstruct(w, q)


@dataclass(frozen=True)
class GaussianSummary:
    """A (mean, covariance, count) triple summarizing one embedded dataset.

    The covariance is symmetrized and PSD-clamped on construction; both
    arrays are frozen against later mutation.
    """

    mean: Array
    covariance: Array
    count: int

    def __post_init__(self):
        mean = _check_finite(self.mean, "mean")
        if mean.ndim != 1 or mean.shape[0] < 1:
            raise ShapeError(f"mean must be a 1-D vector, got shape {mean.shape}")
        cov = psd_clamp(self.covariance, name="covariance")
        if cov.shape[0] != mean.shape[0]:
            raise ShapeError(
                f"mean length {mean.shape[0]} != covariance dimension {cov.shape[0]}"
            )
        require_int(self.count, "summary count", 2)
        mean = mean.copy()
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def _covariance_factor(self) -> Array:
        """F with covariance ~= F @ F.T, made on first use as the left
        argument of W2 scoring; only the buyer's summary ever holds one."""
        factor = _cholesky(self.covariance)
        if factor is None:
            w, q = _clamped_eigh(self.covariance, "covariance of a")
            factor = q * np.sqrt(np.maximum(w, 0.0))
        factor.flags.writeable = False
        return factor


def wasserstein2_gaussian(a: GaussianSummary, b: GaussianSummary) -> float:
    """Closed-form 2-Wasserstein distance between two Gaussian summaries.

    The cross term is the sum of square roots of the eigenvalues of
    F^T Sigma_b F, with F the cached factor of Sigma_a. That matrix is
    re-symmetrized before its eigenvalue solve, its noise eigenvalues are
    clamped, and the scalar under the outer root is clamped at 0: all are
    nonnegative/symmetric analytically but not numerically.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if np.array_equal(a.mean, b.mean) and np.array_equal(a.covariance, b.covariance):
        # identical summaries are exactly at distance 0; the formula's
        # cancellation noise under the outer root would exceed the identity
        # tolerance otherwise
        return 0.0
    factor = a._covariance_factor
    inner = symmetrize(factor.T @ b.covariance @ factor)
    eigenvalues = _clamped_eigvalsh(inner, "cross-covariance term")
    diff = a.mean - b.mean
    squared = (
        float(diff @ diff)
        + float(np.trace(a.covariance))
        + float(np.trace(b.covariance))
        - 2.0 * float(np.sqrt(eigenvalues).sum())
    )
    if not math.isfinite(squared):
        raise NumericInputError("non-finite intermediate in Wasserstein computation")
    return math.sqrt(max(squared, 0.0))
