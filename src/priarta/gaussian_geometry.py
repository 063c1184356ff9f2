"""Symmetric-matrix numerics and the closed-form 2-Wasserstein distance.

For two Gaussians N(mu_a, Sigma_a) and N(mu_b, Sigma_b) the squared distance is

    ||mu_a - mu_b||^2 + tr(Sigma_a) + tr(Sigma_b)
        - 2 tr((Sigma_a^{1/2} Sigma_b Sigma_a^{1/2})^{1/2})

For any factor Sigma_a = F F^T the matrix F^T Sigma_b F is similar to
Sigma_b Sigma_a, so the cross term is sum_i sqrt(lambda_i(F^T Sigma_b F))
(Dowson & Landau 1982; Olkin & Pukelsheim 1982). Scoring therefore factors
its left argument once, keeps F on that summary, and runs one symmetric
eigenvalue solve per call.

Every eigendecomposition runs through one private routine: numpy's eigh
(or eigvalsh), in its ascending order, raising ConvergenceError when it
fails. debias_covariance clamps every negative eigenvalue, since those are
real. Every other covariance the package keeps is settled by one step
(_settled): Cholesky, else one keep-or-rebuild rule that keeps the matrix as
sent when eigh's or eigvalsh's eigenvalues all lie in the rounding band
>= -d * eps * lambda_max, else rebuilds it from eigh with its eigenvalues
clamped at 0 (the projection onto the PSD cone, Higham 1988), and refuses it
when a solver finds one below -PSD_TOL * lambda_max. The other solver is
asked only when the first puts an eigenvalue below the band. The W2 factor F
comes from the factorization that ran: the Cholesky factor, else
Q sqrt(max(w, 0)) from that eigh, for a kept and a rebuilt matrix alike.

A covariance is checked once, where it enters the package, and every path
ends at the covariance psd_clamp would give. The paths:
- the public GaussianSummary constructor (the caller's arrays): finiteness,
  symmetrize and the step, eigh first, on a copy of the mean. It keeps the
  W2 factor of a covariance it rebuilt, which the rebuild cannot give back;
  any other summary makes its factor on first use by the step;
- a seller's STATS_RESPONSE: decoding rejects non-finite entries and
  expand_covariance is exactly symmetric, so the buyer checks only the
  entries' range and PSD, once (_checked_against). Where the buyer's W2
  factor is a Cholesky factor and the reply has more rows than d, the cross
  term's eigenvalue solve is the check, and W2 reuses its eigenvalues (see
  below). Every other reply takes the step, eigvalsh first, and with no
  Cholesky when its count is at most d (it is singular);
- summarize: the moments of an EmbeddingSet that was checked when it was
  made are trusted: checked for finiteness and symmetrized, with no
  factorization and no clamp, as a seller sends them. The buyer's own
  summary takes the step, eigh first, once per dataset (_factored), and is
  kept on the dataset for the rounds that follow;
- debias_covariance: its clamped rebuild is symmetric and PSD by
  construction, a fixed point of psd_clamp.
Every path but the public constructor ends in errors._trusted, which neither
copies nor scans: a finite 1-D float64 mean, an exactly symmetric finite
covariance of its size, PSD up to rounding, and a count >= 2.

The cross term certifies a reply. Let F be the buyer's Cholesky factor,
S_b = ||F||_F^2 ||Sigma_b||_F, gamma = d * eps, and M = F^T Sigma_b F. F is
nonsingular, so M is congruent to Sigma_b (Sylvester's law of inertia), and
lambda_min(Sigma_b) >= lambda_min(M) / sigma_max(F)^2 >= lambda_min(M) / ||F||_F^2.
The computed product fl(fl(F^T Sigma_b) F) is within gamma (2 + gamma) S_b of
M in the Frobenius norm (each product is within gamma |A||B| entrywise,
Higham, Accuracy and Stability, section 3.5), and symmetrizing plus the
eigensolver's backward error add at most gamma S_b more (LAPACK's p(d) eps,
taken as d eps). So by Weyl's inequality a smallest computed eigenvalue
w_0 >= (2 + K) gamma S_b gives lambda_min(M) >= (K - 1 - gamma) gamma S_b,
hence lambda_min(Sigma_b) >= ~(K - 1) d eps ||Sigma_b||_F
>= (K - 1) d eps lambda_max(Sigma_b). With K = 16 that is 15 times the width
of the rounding band, where Cholesky or the eigenvalues psd_clamp looks at
would keep Sigma_b as sent: the certified reply is kept as sent, with no
factorization of its own. ||F||_F^2 is computed once, beside the factor.
Those error bounds hold without underflow. Gradual underflow adds at most
eps * tiny / 2 to each product in the two matrix products, so at most
d^2 (1 + ||F||_F) eps * tiny / 2 to the Frobenius error, and the threshold
adds d^2 (1 + ||F||_F) tiny (tiny the smallest normal float), well above
that. A reply whose first term underflows, one with subnormal entries say,
is certified only when its cross term clears that underflow term, and
otherwise takes the check every other reply takes.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import (
    ConvergenceError,
    NotPSDError,
    NumericInputError,
    ParameterError,
    ShapeError,
    _fields_equal,
    _trusted,
    _unhashable,
    require_float,
    require_int,
)

__all__ = [
    "GaussianSummary", "debias_covariance", "psd_clamp", "symmetrize", "wasserstein2_gaussian",
]

Array = np.ndarray

# Relative tolerance below which negative eigenvalues are treated as noise
# and clamped to zero (threshold: -PSD_TOL * lambda_max).
PSD_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_HALF_MAX = float(np.finfo(float).max) / 2.0
# K of the cross-term certificate (see the module docstring).
_CERTIFY_MARGIN = 16.0


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
    if np.abs(a).max() <= _HALF_MAX:  # no sum A_ij + A_ji can overflow
        return (a + a.T) / 2.0
    _check_finite(a, "matrix")
    with np.errstate(over="ignore"):  # an overflowed sum is rejected below
        out = (a + a.T) / 2.0
    if not np.isfinite(out).all():
        raise NumericInputError("matrix entries overflow when symmetrized")
    return out


def _eigh(sym: Array, name: str, vectors: bool = True, psd: bool = True):
    """Eigenvalues w of a symmetric matrix, ascending as numpy returns them;
    with vectors, the pair (w, Q) such that Q @ diag(w) @ Q.T reconstructs it.

    A LinAlgError is raised as ConvergenceError. With psd, eigenvalues in
    [-PSD_TOL * lambda_max, 0) are noise for the caller to clamp, and a lower
    one raises NotPSDError.
    """
    try:
        out = np.linalg.eigh(sym) if vectors else np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition of {name} did not converge: {exc}") from exc
    if psd:
        _psd_floor(out[0] if vectors else out, name)
    return out


def _psd_floor(w: Array, name: str):
    """Raise NotPSDError when the lowest of ascending eigenvalues w is below
    -PSD_TOL * lambda_max."""
    floor = -PSD_TOL * max(float(w[-1]), 0.0)
    if float(w[0]) < floor:
        raise NotPSDError(
            f"{name} is not PSD within tolerance: eigenvalue {float(w[0]):.6e} "
            f"is below {floor:.6e}",
            offending_eigenvalue=float(w[0]),
        )


def _clamp_reconstruct(w: Array, q: Array) -> Array:
    """Q diag(max(w, 0)) Q^T, symmetrized: the eigenvalue projection onto
    the PSD cone."""
    return symmetrize((q * np.maximum(w, 0.0)) @ q.T)


def _in_rounding_band(w: Array) -> bool:
    """Whether ascending eigenvalues, eigh's or eigvalsh's, are all >=
    -d * eps * lambda_max: the rounding band _settled alone reads."""
    return float(w[0]) >= -w.shape[0] * _EPS * float(w[-1])


def _settled(sym: Array, name: str, cholesky: bool = True, solvers=(True, False)):
    """(C, F, by_cholesky) for a symmetric matrix by the one step (see the
    module docstring): Cholesky unless cholesky is false, else the
    keep-or-rebuild rule asking solvers in order (True asks eigh, False
    eigvalsh). C is sym as sent, kept by Cholesky or by the first solver that
    puts every eigenvalue in the rounding band, else its rebuild from eigh.
    F is the read-only W2 factor from the factorization that ran: sym's
    Cholesky factor (by_cholesky), else Q sqrt(max(w, 0)) from eigh's (w, Q)
    of sym, else None when only eigvalsh ran."""
    if cholesky:
        try:
            factor = np.linalg.cholesky(sym)
            factor.flags.writeable = False
            return sym, factor, True
        except np.linalg.LinAlgError:
            pass
    eig = None
    for vectors in solvers:
        out = _eigh(sym, name, vectors)
        if vectors:
            eig = out
        if _in_rounding_band(out[0] if vectors else out):
            break
    else:
        sym = _clamp_reconstruct(*eig)
    if eig is None:
        return sym, None, False
    factor = eig[1] * np.sqrt(np.maximum(eig[0], 0.0))
    factor.flags.writeable = False
    return sym, factor, False


def psd_clamp(a, name: str = "matrix") -> Array:
    """Project a nearly-PSD symmetric matrix onto the PSD cone.

    Rejects matrices whose most negative eigenvalue exceeds the noise
    tolerance rather than silently repairing them. Input that Cholesky
    factors, or whose eigenvalues from eigh or else eigvalsh are all
    >= -d * eps * lambda_max (the solvers' rounding), is returned symmetrized
    but not rebuilt; lower noise negatives are clamped to 0 and the matrix
    rebuilt. Clamping is idempotent at the bit level, so summaries survive
    wire round-trips unchanged.
    """
    return _settled(symmetrize(a), name)[0]


@dataclass(frozen=True)
class GaussianSummary:
    """A (mean, covariance, count) triple summarizing one embedded dataset.

    The public constructor symmetrizes and PSD-clamps the covariance; both
    arrays are frozen against later mutation. Summaries the package makes
    itself, debias_covariance's too, are built by errors._trusted and checked
    where they are made (see the module docstring).
    """

    mean: Array
    covariance: Array
    count: int

    __eq__ = _fields_equal
    __hash__ = _unhashable
    # Not fields, so eq, repr, asdict and replace ignore them. _factored sets
    # ||F||_F^2 when its W2 factor F is a Cholesky factor; _checked_against
    # sets (buyer, eigenvalues of the cross term) on a reply it checked
    # against that buyer's factor.
    _cholesky_norm2 = None
    _cross = None

    def __post_init__(self):
        mean = _check_finite(self.mean, "mean")
        if mean.ndim != 1 or mean.shape[0] < 1:
            raise ShapeError(f"mean must be a 1-D vector, got shape {mean.shape}")
        sym = symmetrize(self.covariance)
        cov, factor, _ = _settled(sym, "covariance")
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
        if cov is not sym:  # rebuilt: its factor comes from the eigh that rebuilt it
            object.__setattr__(self, "_covariance_factor", factor)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def _covariance_factor(self) -> Array:
        """F with covariance ~= F @ F.T, made on first use as the left
        argument of W2 scoring; the buyer's summary, and a public one whose
        covariance was rebuilt, hold it from the start. Only F is read, so the step asks eigh alone after Cholesky: eigvalsh
        would cost more than the rebuild it might save."""
        return _settled(self.covariance, "covariance of a", solvers=(True,))[1]


def _checked_against(buyer, mean: Array, sym: Array, count: int) -> GaussianSummary:
    """The trusted summary of a seller's reply: a finite mean, and a finite,
    exactly symmetric covariance of count rows, checked as psd_clamp would
    clamp it (NumericInputError for an entry past half the float range,
    NotPSDError unless PSD within tolerance).

    buyer is the round's summary, made by _factored. When count > d and the
    buyer's W2 factor is a Cholesky factor, the eigenvalues of the cross term
    W2 solves certify the covariance (see the module docstring) and are kept
    for W2. An uncertified covariance takes the _settled step, with no
    Cholesky when count <= d (its rank is then below d) and eigvalsh first,
    and keeps them only if it comes back unchanged. The check does not depend
    on how the reply is scored: a debiased round checks it as sent too."""
    dim, norm2, cross = sym.shape[0], buyer._cholesky_norm2, None
    # An overflow here makes the norm infinite or leaves the reply uncertified,
    # and W2's own solve warns and fails as it would have.
    with np.errstate(over="ignore", invalid="ignore"):
        frobenius = math.sqrt(float(np.vdot(sym, sym)))
        # a Frobenius norm in range bounds every entry; else look at them
        if not frobenius <= _HALF_MAX and not np.abs(sym).max() <= _HALF_MAX:
            raise NumericInputError("matrix entries overflow when symmetrized")
        if norm2 is not None and count > dim:
            try:
                cross = _cross_eigenvalues(buyer._covariance_factor, sym)
            except (ConvergenceError, NumericInputError):
                pass
    # A bound that overflowed to inf, or is NaN, certifies nothing.
    certified = cross is not None and float(cross[0]) >= (
        (2.0 + _CERTIFY_MARGIN) * dim * _EPS * norm2 * frobenius
        + dim * dim * (1.0 + math.sqrt(norm2)) * _TINY)
    covariance = sym if certified else _settled(sym, "covariance", cholesky=count > dim,
                                                solvers=(False, True))[0]
    if cross is None or covariance is not sym:
        return _trusted(GaussianSummary, mean=mean, covariance=covariance, count=count)
    cross.flags.writeable = False
    return _trusted(GaussianSummary, mean=mean, covariance=sym, count=count,
                    _cross=(buyer, cross))


def _factored(summary: GaussianSummary) -> GaussianSummary:
    """A summary made by summarize, with its covariance as the public
    constructor would clamp it and its W2 factor cached, both from one step."""
    covariance, factor, by_cholesky = _settled(summary.covariance, "covariance of a")
    norm2 = float(np.vdot(factor, factor)) if by_cholesky else None
    return _trusted(GaussianSummary, mean=summary.mean, covariance=covariance,
                    count=summary.count, _covariance_factor=factor, _cholesky_norm2=norm2)


def debias_covariance(summary: GaussianSummary, sigma: float) -> GaussianSummary:
    """Remove the systematic sigma^2 * I inflation a noisy covariance carries.

    The result is clamped back onto the PSD cone (every negative eigenvalue
    goes to 0, none is rejected) by one eigh, and trusted as made: it is not
    checked or clamped again. Mean and count pass through.
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
    w, q = _eigh(shifted, "debiased covariance", psd=False)
    return _trusted(GaussianSummary, mean=summary.mean, covariance=_clamp_reconstruct(w, q),
                    count=summary.count)


def _cross_eigenvalues(factor: Array, covariance: Array) -> Array:
    """Ascending eigenvalues of F^T Sigma_b F, re-symmetrized, with no PSD
    floor applied."""
    return _eigh(symmetrize(factor.T @ covariance @ factor), "cross-covariance term",
                 vectors=False, psd=False)


def wasserstein2_gaussian(a: GaussianSummary, b: GaussianSummary) -> float:
    """Closed-form 2-Wasserstein distance between two Gaussian summaries.

    The cross term is the sum of square roots of the eigenvalues of
    F^T Sigma_b F, with F the cached factor of Sigma_a. That matrix is
    re-symmetrized before its eigenvalue solve, its noise eigenvalues are
    clamped, and the scalar under the outer root is clamped at 0: all are
    nonnegative/symmetric analytically but not numerically. A reply that
    _checked_against certified against a itself brings those eigenvalues
    with it, and they are not solved again.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if np.array_equal(a.mean, b.mean) and np.array_equal(a.covariance, b.covariance):
        # identical summaries are exactly at distance 0; the formula's
        # cancellation noise under the outer root would exceed the identity
        # tolerance otherwise
        return 0.0
    if b._cross is not None and b._cross[0] is a:
        w = b._cross[1]
    else:
        w = _cross_eigenvalues(a._covariance_factor, b.covariance)
    _psd_floor(w, "cross-covariance term")
    eigenvalues = np.maximum(w, 0.0)
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
