"""Symmetric-matrix numerics and the closed-form 2-Wasserstein distance.

For two Gaussians N(mu_a, Sigma_a) and N(mu_b, Sigma_b) the squared distance is

    ||mu_a - mu_b||^2 + tr(Sigma_a) + tr(Sigma_b)
        - 2 tr((Sigma_a^{1/2} Sigma_b Sigma_a^{1/2})^{1/2})

For any factor Sigma_a = F F^T the matrix F^T Sigma_b F is similar to
Sigma_b Sigma_a, so the cross term is sum_i sqrt(lambda_i(F^T Sigma_b F))
(Dowson & Landau 1982; Olkin & Pukelsheim 1982). Scoring therefore factors
its left argument once, keeps F on that summary, and runs one symmetric
eigenvalue solve per pair. One private evaluator (_closed_form) writes the
formula, for a stack of pairs with one left argument: W2 calls it on a stack
of one, and a window of seller replies on its stack (see below).

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
- the public GaussianSummary constructor (the caller's arrays, and the
  buyer's own summary): finiteness, symmetrize and the step, eigh first, on
  a copy of the mean. It keeps the W2 factor the step made, and ||F||_F^2
  beside a Cholesky factor; a summary the package trusts makes its factor
  on first use by the step;
- a seller's STATS_RESPONSE: decoding rejects non-finite entries and
  expand_covariance is exactly symmetric, so the buyer checks only the
  entries' range and PSD, once, with the window of replies it arrives in
  (_checked_window). Where the buyer's W2 factor is a Cholesky factor and
  the reply has more rows than d, the cross term's eigenvalue solve is the
  check, and W2 reuses its eigenvalues (see below). Every other reply takes
  the step, eigvalsh first, and with no Cholesky when its count is at most d
  (it is singular);
- summarize: the moments of an EmbeddingSet that was checked when it was
  made are trusted: checked for finiteness and symmetrized, with no
  factorization and no clamp, as a seller sends them;
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
that. ||Sigma_b||_F is computed from the entries scaled by the largest when
their squares underflow: unscaled, a reply of entries below about 1e-154
would have a norm of 0, and a bound without its rounding term. A reply whose
first term underflows, one with subnormal entries say, is certified only
when its cross term clears that underflow term, and otherwise takes the
check every other reply takes.

The buyer certifies a window of replies at once (_checked_window), a
window of any size, one reply included: the cross terms of the replies it
can certify (count > d, a Cholesky factor) take one stacked product
F^T Sigma_b F, one stacked symmetrize and one stacked eigvalsh through
_eigh, the one solve of a received reply's cross term. numpy runs the same
BLAS product and the same LAPACK solver (syevd) on each matrix of a stack as
on that matrix alone, so each row of eigenvalues has the bits W2's own solve
would give, and the certificate and W2 read it as they would read that. A
product with an entry past half the float range or not finite is not
solved, and its reply takes the step uncertified. When the stacked solve
fails, each symmetrized product of the stack is solved alone, so one
hostile reply fails no other. The protocol decides how many replies a
window holds (protocol._WINDOW_BYTES).

The window also scores, in its stack, each reply it keeps as sent with its
cross term: their certificate norms ||Sigma_b||_F^2 come from one stacked
dot product, and their distances from one call of _closed_form, which takes
the buyer's mean and trace once and every reply's trace from the stack the
product was made from. Each term has the bits of that pair alone: numpy
runs the same BLAS dot on each row of a stack (||mu_a - mu_b||^2 and the
norms) and the same pairwise sums (the traces and the cross sum) as on that
row alone, and the terms are added in W2's order, ((dd + tr_a) + tr_b) -
2 s, elementwise. The distance is kept beside the cross term, and W2
returns it for that buyer. A row W2 refuses (its cross term below the PSD
floor, or a sum that is not finite) keeps no distance, and W2 refuses it
again on a stack of one, as it refuses that pair alone. A debiased copy of
a reply keeps no cross term, so W2 solves and scores it alone.
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
    PriartaError,
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
    # Not fields, so eq, repr, asdict and replace ignore them. The constructor
    # sets ||F||_F^2 when its W2 factor F is a Cholesky factor;
    # _checked_window sets (buyer, eigenvalues of the cross term, W2 distance
    # or None) on a reply it kept as sent after checking it against that
    # buyer's factor.
    _cholesky_norm2 = None
    _cross = None

    def __post_init__(self):
        mean = _check_finite(self.mean, "mean")
        if mean.ndim != 1 or mean.shape[0] < 1:
            raise ShapeError(f"mean must be a 1-D vector, got shape {mean.shape}")
        cov, factor, by_cholesky = _settled(symmetrize(self.covariance), "covariance")
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
        object.__setattr__(self, "_covariance_factor", factor)
        if by_cholesky:
            object.__setattr__(self, "_cholesky_norm2", float(np.vdot(factor, factor)))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def _covariance_factor(self) -> Array:
        """F with covariance ~= F @ F.T. The public constructor keeps the
        factor its step made; a trusted summary makes it here on first use
        as W2's left argument. Only F is read, so the step asks eigh alone
        after Cholesky: eigvalsh would cost more than the rebuild it might
        save."""
        return _settled(self.covariance, "covariance of a", solvers=(True,))[1]


def _squared_norms(stack: Array) -> Array:
    """||S||_F^2 of each matrix S of a stack, as np.vdot(S, S) gives it: numpy
    runs the same BLAS dot on each flattened row of a stack as on that row."""
    flat = stack.reshape(len(stack), 1, -1)
    return np.matmul(flat, flat.reshape(len(stack), -1, 1))[:, 0, 0]


def _checked_window(buyer, replies) -> list:
    """Each seller reply (mean, sym, count) of a window, in order, as its
    trusted summary or the PriartaError its check raised: a finite mean, and
    a finite, exactly symmetric covariance of count rows, checked as
    psd_clamp would clamp it (NumericInputError for an entry past half the
    float range, NotPSDError unless PSD within tolerance).

    buyer is the round's summary, made by the public constructor. When
    count > d and the buyer's W2 factor is a Cholesky factor, the reply's
    cross term is solved in the window's one stack (see the module
    docstring), and its eigenvalues certify the covariance. An uncertified
    covariance takes the _settled step, with no Cholesky when count <= d (its
    rank is then below d) and eigvalsh first. A reply whose covariance comes
    back as sent keeps its cross term for W2, beside its distance from the
    buyer, which _closed_form computes for all such replies at once (None
    when W2 refuses it). The check does not depend on how the reply is
    scored: a debiased round checks it as sent too."""
    dim, norm2, solved, stacked_squares = buyer.dim, buyer._cholesky_norm2, {}, {}
    stacked = [] if norm2 is None else [i for i, r in enumerate(replies) if r[2] > dim]
    # An overflow makes a product or a norm infinite: such a product is not
    # solved, and W2's own solve of an uncertified reply fails as it would have.
    with np.errstate(over="ignore", invalid="ignore"):
        if stacked:
            factor = buyer._covariance_factor
            covariances = np.array([replies[i][1] for i in stacked])
            stacked_squares = dict(zip(stacked, _squared_norms(covariances).tolist()))
            products = factor.T @ covariances @ factor
            in_range = np.abs(products).max(axis=(1, 2)) <= _HALF_MAX
            solvable = stacked
            if not in_range.all():
                solvable = [i for i, kept in zip(stacked, in_range) if kept]
                products = products[in_range]
            products = (products + products.swapaxes(1, 2)) / 2.0
            try:
                solved = dict(zip(solvable, _eigh(products, "cross-covariance term",
                                                  vectors=False, psd=False)))
            except ConvergenceError:  # each alone, so one hostile reply fails no other
                for i, product in zip(solvable, products):
                    try:
                        solved[i] = _eigh(product, "cross-covariance term", vectors=False,
                                          psd=False)
                    except ConvergenceError:
                        pass
        squares = [stacked_squares[i] if i in stacked_squares
                   else float(_squared_norms(sym[None])[0])
                   for i, (_, sym, _) in enumerate(replies)]
    out, scored = [], []
    for i, (mean, sym, count) in enumerate(replies):
        cross = solved.get(i)
        try:
            frobenius = math.sqrt(squares[i])
            # a Frobenius norm in range bounds every entry; else look at them
            if not frobenius <= _HALF_MAX and not np.abs(sym).max() <= _HALF_MAX:
                raise NumericInputError("matrix entries overflow when symmetrized")
            if frobenius * frobenius < _TINY:  # its squares underflow: scale first
                peak = float(np.abs(sym).max()) or 1.0
                frobenius = peak * math.sqrt(float(_squared_norms((sym / peak)[None])[0]))
            # A bound that overflowed to inf, or is NaN, certifies nothing.
            certified = cross is not None and float(cross[0]) >= (
                (2.0 + _CERTIFY_MARGIN) * dim * _EPS * norm2 * frobenius
                + dim * dim * (1.0 + math.sqrt(norm2)) * _TINY)
            covariance = sym if certified else _settled(
                sym, "covariance", cholesky=count > dim, solvers=(False, True))[0]
            if cross is None or covariance is not sym:
                out.append(_trusted(GaussianSummary, mean=mean, covariance=covariance,
                                    count=count))
            else:
                out.append(None)  # scored below
                scored.append(i)
        except PriartaError as exc:
            out.append(exc)
    if scored:
        if len(scored) < len(stacked):
            covariances = covariances[np.isin(stacked, scored)]
        cross = np.array([solved[i] for i in scored])
        distances = _closed_form(buyer, np.array([replies[i][0] for i in scored]),
                                 covariances, cross)
        for i, w, distance in zip(scored, cross, distances):
            mean, sym, count = replies[i]
            w.flags.writeable = False
            out[i] = _trusted(GaussianSummary, mean=mean, covariance=sym, count=count,
                              _cross=(buyer, w, distance if isinstance(distance, float)
                                      else None))
    return out


def _equal_to(a: GaussianSummary, means: Array, covariances: Array) -> Array:
    """Which summaries of a stack, by their means (k, d) and covariances
    (k, d, d), equal a exactly: W2 puts them at distance 0.0, where the
    formula's cancellation noise under the outer root would exceed the
    identity tolerance."""
    equal = (means == a.mean).all(axis=1)
    for i in np.flatnonzero(equal):
        equal[i] = np.array_equal(covariances[i], a.covariance)
    return equal


def _closed_form(a: GaussianSummary, means: Array, covariances: Array, cross: Array) -> list:
    """The closed-form W2 distance from a to each summary of a stack, by
    their means (k, d), their covariances (k, d, d) and the ascending
    eigenvalues of their cross terms F^T Sigma_b F (k, d): for each, its
    distance, or the PriartaError W2 raises for it. The one evaluator of the
    formula: W2 calls it on a stack of one, and a window of replies on its
    stack. Each row has the bits of that pair alone: numpy runs the same BLAS
    dot, and the same sums, on each row of a stack as on that row.

    A summary equal to a is at 0.0. Otherwise the cross term's noise
    eigenvalues are clamped (NotPSDError below -PSD_TOL * lambda_max), and so
    is the scalar under the outer root (NumericInputError when it is not
    finite): all are nonnegative analytically but not numerically."""
    equal = _equal_to(a, means, covariances)
    # A summary near the float range may overflow here: the finiteness check
    # below refuses it, so numpy's warning would only repeat the refusal.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a.mean - means
        eigenvalues = np.maximum(cross, 0.0)
        squared = (np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
                   + np.trace(a.covariance)
                   + np.trace(covariances, axis1=1, axis2=2)
                   - 2.0 * np.sqrt(eigenvalues).sum(axis=1))
        clamped = np.maximum(squared, 0.0)
        distances = np.sqrt(clamped).tolist()
    rows = zip(equal.tolist(), (cross[:, 0] < 0.0).tolist(), np.isfinite(squared).tolist(),
               distances)
    out = []
    for i, (same, negative, finite, distance) in enumerate(rows):
        try:
            if not same:
                if negative:  # only a negative eigenvalue can lie below the floor
                    _psd_floor(cross[i], "cross-covariance term")
                if not finite:
                    raise NumericInputError("non-finite intermediate in Wasserstein computation")
            out.append(0.0 if same else distance)
        except PriartaError as exc:
            out.append(exc)
    return out


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


def wasserstein2_gaussian(a: GaussianSummary, b: GaussianSummary) -> float:
    """Closed-form 2-Wasserstein distance between two Gaussian summaries.

    The cross term is the sum of square roots of the eigenvalues of
    F^T Sigma_b F, with F the cached factor of Sigma_a. That matrix is
    re-symmetrized before its eigenvalue solve; the formula itself is
    _closed_form's, on a stack of one. A reply that _checked_window kept
    against a itself brings those eigenvalues with it, and the distance its
    window computed from them: they are not solved or computed again.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    kept = b._cross
    if kept is not None and kept[0] is a:
        if kept[2] is not None:
            return kept[2]
        w = kept[1]  # its window refused it: refuse it again, as alone
    elif _equal_to(a, b.mean[None], b.covariance[None])[0]:
        return 0.0
    else:
        factor = a._covariance_factor
        # symmetrize refuses a product that overflowed, so numpy's warning
        # would only repeat the refusal
        with np.errstate(over="ignore", invalid="ignore"):
            w = _eigh(symmetrize(factor.T @ b.covariance @ factor), "cross-covariance term",
                      vectors=False, psd=False)
    (distance,) = _closed_form(a, b.mean[None], b.covariance[None], w[None])
    if isinstance(distance, PriartaError):
        raise distance
    return distance
