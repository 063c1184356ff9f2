"""Sensitivity formulas, Gaussian-mechanism calibration, and noise application.

The mechanism perturbs the representation vectors themselves (output
perturbation), not the aggregated statistics: sigma is calibrated from the
covariance sensitivity

    delta_mu    = 2R/n
    delta_sigma = 4R^2/n + 8R^2/n^2
    sigma       = (delta_sigma / epsilon) * sqrt(2 ln(1.25/delta))

for vectors clipped to the l2 ball of radius R. For R >= 1/2 the covariance
sensitivity dominates the mean sensitivity; when it does not, calibration
emits a warning instead of silently changing the formula.

Determinism note: fixed seeds exist for tests and replay and VOID the privacy
guarantee in deployment; secure mode draws seeds from OS entropy instead.
"""

from dataclasses import dataclass
import hashlib
import math
import secrets
import warnings

import numpy as np

from .errors import NumericInputError, ParameterError, require_float, require_int
from .stats import EmbeddingSet, _check_radius, _trusted_set

__all__ = [
    "GAUSSIAN_SAMPLER", "NoiseCalibration", "PrivacyBudget",
    "apply_gaussian_mechanism", "calibrate_sigma", "covariance_sensitivity",
    "derive_seed", "mean_sensitivity", "secure_seed",
]

# Gaussian sampling method behind apply_gaussian_mechanism: numpy Generator's
# ziggurat normal over the PCG64 stream. Recorded in run metadata so another
# implementation with the same PRNG stream can reproduce draws bit-exactly.
GAUSSIAN_SAMPLER = "pcg64-ziggurat"


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


def calibrate_sigma(budget: PrivacyBudget) -> NoiseCalibration:
    """Noise scale covering mean and covariance release at (epsilon, delta)."""
    d_mu = mean_sensitivity(budget.clip_radius, budget.subset_size)
    d_sigma = covariance_sensitivity(budget.clip_radius, budget.subset_size)
    if d_mu > d_sigma:
        warnings.warn(
            f"mean sensitivity {d_mu:.6g} exceeds covariance sensitivity {d_sigma:.6g} "
            f"(clip radius {budget.clip_radius} < ~1/2); sigma calibrated from the "
            "covariance sensitivity does not cover the mean release",
            stacklevel=2,
        )
    c = math.sqrt(2.0 * math.log(1.25 / budget.delta))
    sigma = c * d_sigma / budget.epsilon
    return NoiseCalibration(delta_mu=d_mu, delta_sigma=d_sigma, c=c, sigma=sigma)


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
    return _trusted_set(noisy, embeddings.clip_radius, clipped=False)


def derive_seed(master_seed: int, node_id: str, purpose: str) -> int:
    """Mix a master seed with a node id and purpose tag into a 63-bit seed.

    SHA-256 over "{master_seed}|{node_id}|{purpose}"; the first 8 bytes,
    big-endian, masked to 63 bits. Gives every (seller, purpose) pair an
    independent deterministic stream in seeded mode.
    """
    digest = hashlib.sha256(f"{int(master_seed)}|{node_id}|{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def secure_seed() -> int:
    """A 63-bit seed from OS entropy, for deployment mode."""
    return secrets.randbits(63)
