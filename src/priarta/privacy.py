"""Sensitivity formulas, Gaussian-mechanism calibration, and noise application.

The mechanism perturbs the representation vectors themselves (output
perturbation), not the aggregated statistics: sigma is calibrated from the
covariance sensitivity

    delta_mu    = 2R/n
    delta_sigma = 4R^2/n + 8R^2/n^2
    sigma       = (delta_sigma / epsilon) * sqrt(2 ln(1.25/delta))

for vectors clipped to the l2 ball of radius R. For R >= 1/2 the covariance
sensitivity dominates the mean sensitivity; when it does not, calibration
emits a warning instead of silently changing the formula. A budget whose
sigma is not a positive finite float, or so large that the noised covariance
of the subset overflows at all but a 2^-40 share of draws, is refused when it
is made. A budget calibrates its sigma once, and calibrate_sigma returns that
calibration to the buyer and to every seller alike.

Determinism note: fixed seeds exist for tests and replay and VOID the privacy
guarantee in deployment; secure mode draws seeds from OS entropy instead.
"""

from dataclasses import dataclass
import hashlib
import math
import secrets
import sys
import warnings

import numpy as np

from .errors import NumericInputError, ParameterError, _trusted, require_float, require_int
from .stats import EmbeddingSet, _check_radius

__all__ = [
    "GAUSSIAN_SAMPLER", "NoiseCalibration", "PrivacyBudget",
    "apply_gaussian_mechanism", "calibrate_sigma", "covariance_sensitivity",
    "derive_seed", "mean_sensitivity", "secure_seed",
]

# Gaussian sampling method behind apply_gaussian_mechanism: numpy Generator's
# ziggurat normal over the PCG64 stream. Recorded in run metadata so another
# implementation with the same PRNG stream can reproduce draws bit-exactly.
GAUSSIAN_SAMPLER = "pcg64-ziggurat"
_SQRT_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) target plus the clip radius and subset size they bind to."""

    epsilon: float
    delta: float
    clip_radius: float
    subset_size: int

    def __post_init__(self):
        eps = require_float(self.epsilon, "epsilon")
        delta = require_float(self.delta, "delta")
        if not (0.0 < eps < 1.0):
            raise ParameterError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (0.0 < delta < 1.0):
            raise ParameterError(f"delta must be in (0, 1), got {self.delta}")
        radius = _check_radius(self.clip_radius)
        require_int(self.subset_size, "subset size", 2)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "clip_radius", radius)
        # Computed once, as a plain attribute: eq, hash, repr and asdict ignore it.
        try:  # R^2 can underflow to 0, or overflow
            object.__setattr__(self, "_calibration", _calibrate(self))
            sigma = self._calibration.sigma
        except OverflowError:
            sigma = math.inf
        if not 0.0 < sigma < math.inf:
            raise ParameterError(
                f"no positive finite sigma at clip radius {radius!r}, epsilon {eps!r}")
        if sigma > _overflow_sigma(radius, self.subset_size):
            raise ParameterError(
                f"sigma {sigma!r} at clip radius {radius!r}, epsilon {eps!r} overflows "
                f"the noised covariance of {self.subset_size} rows")


def _overflow_sigma(radius: float, count: int) -> float:
    """The noise scale past which the noised covariance of count clipped rows
    overflows at all but a 2^-40 share of noise draws.

    In one coordinate the rows are x + z, |x_i| <= R, z ~ N(0, sigma^2 I).
    The covariance entry before its 1/(n-1) is ||P(x + z)||^2, P the
    centering projector, and ||P(x + z)|| >= ||P z|| - R sqrt(n), where
    ||P z||^2 / sigma^2 is chi-squared with k = n - 1 degrees of freedom. The
    Chernoff bound P(chi2_k <= t) <= (e t / k)^(k/2) is 2^-40 at
    t = (k / e) 2^(-80/k); past the returned scale even that t leaves the
    entry above the float range."""
    k = count - 1
    low = k / math.e * 2.0 ** (-80.0 / k)
    return (_SQRT_MAX + radius * math.sqrt(count)) / math.sqrt(low)


@dataclass(frozen=True)
class NoiseCalibration:
    """Derived sensitivities and the resulting noise scale."""

    delta_mu: float
    delta_sigma: float
    c: float
    sigma: float


def mean_sensitivity(radius: float, count: int) -> float:
    """Worst-case l2 change of the mean under one vector swap: 2R/n."""
    return 2.0 * _check_radius(radius) / require_int(count, "count", 2)


def covariance_sensitivity(radius: float, count: int) -> float:
    """Frobenius bound on the covariance change under one vector swap:
    4R^2/n + 8R^2/n^2."""
    r2 = _check_radius(radius) ** 2
    n = require_int(count, "count", 2)
    return 4.0 * r2 / n + 8.0 * r2 / n**2


def _calibrate(budget: PrivacyBudget) -> NoiseCalibration:
    """The budget's calibration, which its constructor computes once."""
    d_sigma = covariance_sensitivity(budget.clip_radius, budget.subset_size)
    c = math.sqrt(2.0 * math.log(1.25 / budget.delta))
    return NoiseCalibration(delta_mu=mean_sensitivity(budget.clip_radius, budget.subset_size),
                            delta_sigma=d_sigma, c=c, sigma=c * d_sigma / budget.epsilon)


def calibrate_sigma(budget: PrivacyBudget) -> NoiseCalibration:
    """Noise scale covering mean and covariance release at (epsilon, delta)."""
    calibration = budget._calibration
    if calibration.delta_mu > calibration.delta_sigma:
        warnings.warn(f"mean sensitivity {calibration.delta_mu:.6g} exceeds covariance "
                      f"sensitivity {calibration.delta_sigma:.6g} (clip radius "
                      f"{budget.clip_radius} < ~1/2); sigma calibrated from the covariance "
                      "sensitivity does not cover the mean release", stacklevel=2)
    return calibration


def _log_phi(x: float) -> float:
    """log Phi(x) of the standard normal CDF, for x <= 0, without underflow:
    through erfc above -30, and below it by the Mills-ratio tail series
    Phi(x) = phi(x) / |x| * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...), whose
    twelfth term is below 1e-24 there."""
    if x > -30.0:
        return math.log(0.5 * math.erfc(-x / math.sqrt(2.0)))
    series, term = 1.0, 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) / (x * x)
        series += term
    return -0.5 * x * x - math.log(-x) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def _mean_epsilon(budget: PrivacyBudget) -> float:
    """The epsilon, at delta = budget.delta, that the released mean alone
    achieves: a lower bound on the summary's, which the mean post-processes.
    The mean's noise std is s = sigma/sqrt(n) and its l2 sensitivity D = 2R/n,
    so by the analytic Gaussian mechanism (Balle & Wang, ICML 2018) it is the
    least epsilon with, for u = D/s,

        Phi(u/2 - epsilon/u) - e^epsilon Phi(-u/2 - epsilon/u) <= delta,

    found by bisection. The subtracted term is compared in log space,
    log(Phi(u/2 - epsilon/u) - delta) <= epsilon + log Phi(-u/2 - epsilon/u),
    so neither e^epsilon nor the tail Phi leaves the float range."""
    u = budget._calibration.delta_mu * math.sqrt(budget.subset_size) / budget._calibration.sigma

    def holds(eps: float) -> bool:
        excess = 0.5 * math.erfc((eps / u - u / 2) / math.sqrt(2.0)) - budget.delta
        if excess <= 0.0:  # the term subtracted is not negative
            return True
        return math.log(excess) <= eps + _log_phi(-u / 2 - eps / u)

    if holds(0.0):
        return 0.0
    low, high = 0.0, 1.0
    while not holds(high):
        low, high = high, 2.0 * high
    while low < (mid := (low + high) / 2) < high:
        low, high = (low, mid) if holds(mid) else (mid, high)
    return high


def apply_gaussian_mechanism(
    embeddings: EmbeddingSet, sigma: float, rng_seed: int
) -> EmbeddingSet:
    """Add i.i.d. N(0, sigma^2) noise to every entry of a clipped set.

    The output is NOT re-clipped (the sensitivity argument covers the
    pre-noise data; post-noise clipping would bias the summary) and its
    clipped flag is cleared. Deterministic given ``rng_seed``.
    """
    sigma = require_float(sigma, "sigma")
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be a positive real, got {sigma}")
    if not embeddings.clipped:
        raise ParameterError("the Gaussian mechanism requires a clipped embedding set")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    noisy = embeddings.vectors + rng.normal(0.0, sigma, size=embeddings.vectors.shape)
    if not np.isfinite(noisy).all():
        raise NumericInputError("embedding vectors contain non-finite entries")
    return _trusted(EmbeddingSet, vectors=noisy, clip_radius=embeddings.clip_radius,
                    clipped=False)


def derive_seed(master_seed: int, node_id: str, purpose: str) -> int:
    """Mix a master seed with a node id and purpose tag into a 63-bit seed.

    SHA-256 over "{master_seed}|{node_id}|{purpose}"; the first 8 bytes,
    big-endian, masked to 63 bits. Gives every (seller, purpose) pair an
    independent deterministic stream in seeded mode.
    """
    master_seed = require_int(master_seed, "master seed")
    digest = hashlib.sha256(f"{master_seed}|{node_id}|{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def secure_seed() -> int:
    """A 63-bit seed from OS entropy, for deployment mode."""
    return secrets.randbits(63)
