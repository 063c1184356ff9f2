"""The pluggable mapping function: a deterministic toy encoder with a
controllable signal/nuisance split, plus the augmentation simulator and the
Gaussian-mixture scenario sampler.

Input points have ``input_dim`` coordinates: the first ``signal_dims`` carry
class structure, the rest are nuisance (the abstract analog of information a
good representation discards). The toy encoder projects
``[signal | alpha * nuisance]`` through a seeded random matrix, so
``leakage_alpha = 0`` gives exact augmentation invariance by construction,
and augmentations act only on the nuisance block.
"""

from dataclasses import dataclass, fields
import hashlib
import json
import math
import warnings

import numpy as np

from .errors import NumericInputError, ParameterError, ShapeError

__all__ = [
    "AugmentationSpec", "EncoderSpec", "RawDataset", "augment", "encode",
    "gen_mixture_dataset",
]

ENCODER_KINDS = ("toy_projection", "external")


@dataclass(frozen=True)
class EncoderSpec:
    """Serializable description of the shared mapping function."""

    kind: str
    seed: int
    input_dim: int
    latent_dim: int
    signal_dims: int
    leakage_alpha: float

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ParameterError(f"unknown encoder kind {self.kind!r}")
        for field in ("input_dim", "latent_dim", "signal_dims"):
            value = getattr(self, field)
            if int(value) != value or int(value) < 1:
                raise ParameterError(f"{field} must be a positive integer, got {value}")
        if self.signal_dims > self.input_dim:
            raise ParameterError(
                f"signal_dims {self.signal_dims} exceeds input_dim {self.input_dim}"
            )
        alpha = float(self.leakage_alpha)
        if not (0.0 <= alpha <= 1.0):
            raise ParameterError(f"leakage_alpha must be in [0, 1], got {self.leakage_alpha}")
        if self.latent_dim > self.signal_dims:
            warnings.warn(
                f"latent_dim {self.latent_dim} > signal_dims {self.signal_dims}: "
                "the projection cannot be signal-faithful",
                stacklevel=2,
            )
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "latent_dim", int(self.latent_dim))
        object.__setattr__(self, "signal_dims", int(self.signal_dims))
        object.__setattr__(self, "leakage_alpha", alpha)
        # The spec is frozen, so its digest is computed once. A plain
        # attribute, not a field: eq, hash, repr and to_dict ignore it.
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        object.__setattr__(self, "_fingerprint", hashlib.sha256(payload.encode()).hexdigest())

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderSpec":
        if not isinstance(data, dict):
            raise ParameterError("encoder spec must be a mapping")
        expected = {f.name for f in fields(cls)}
        if set(data) != expected:
            raise ParameterError(
                f"encoder spec fields must be exactly {sorted(expected)}, got {sorted(data)}"
            )
        return cls(**data)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical serialized form."""
        return self._fingerprint


@dataclass(frozen=True)
class RawDataset:
    """m points in input space with integer class labels (metadata only)."""

    points: np.ndarray
    labels: np.ndarray
    class_probs: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        probs = np.asarray(self.class_probs, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ShapeError(f"points must be a nonempty 2-D matrix, got shape {points.shape}")
        if not np.all(np.isfinite(points)):
            raise NumericInputError("points contain non-finite entries")
        if labels.shape != (points.shape[0],):
            raise ShapeError("labels must align with points, one per row")
        _check_probs(probs)
        if labels.size and (labels.min() < 0 or labels.max() >= probs.shape[0]):
            raise ParameterError("labels must lie in [0, num_classes)")
        points = points.copy()
        labels = labels.copy()
        probs = probs.copy()
        for arr in (points, labels, probs):
            arr.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_probs", probs)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class AugmentationSpec:
    """Random nuisance-block perturbation applied pointwise."""

    nuisance_noise_scale: float
    nuisance_permute: bool
    apply_prob: float
    seed: int

    def __post_init__(self):
        scale = float(self.nuisance_noise_scale)
        prob = float(self.apply_prob)
        if not (scale >= 0.0 and math.isfinite(scale)):
            raise ParameterError(f"nuisance_noise_scale must be >= 0, got {scale}")
        if not (0.0 <= prob <= 1.0):
            raise ParameterError(f"apply_prob must be in [0, 1], got {prob}")
        object.__setattr__(self, "nuisance_noise_scale", scale)
        object.__setattr__(self, "nuisance_permute", bool(self.nuisance_permute))
        object.__setattr__(self, "apply_prob", prob)
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "AugmentationSpec":
        if not isinstance(data, dict):
            raise ParameterError("augmentation spec must be a mapping")
        expected = {f.name for f in fields(cls)}
        if set(data) != expected:
            raise ParameterError(
                f"augmentation spec fields must be exactly {sorted(expected)}, got {sorted(data)}"
            )
        return cls(**data)


def _check_probs(probs: np.ndarray):
    if probs.ndim != 1 or probs.shape[0] < 1:
        raise ParameterError("class probabilities must be a nonempty vector")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ParameterError("class probabilities must be finite and nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ParameterError(f"class probabilities sum to {probs.sum()!r}, expected 1")


def gen_mixture_dataset(
    class_probs,
    class_means,
    class_scale: float,
    m: int,
    seed: int,
    signal_dims: int,
) -> RawDataset:
    """Sample an imbalanced Gaussian-mixture dataset.

    Each point draws a class from ``class_probs``, then its signal block from
    N(class_mean[:signal_dims], class_scale^2 I) and its nuisance block from
    N(0, I). ``class_means`` is k x p; columns past the signal block are
    ignored (nuisance coordinates carry no class information).
    """
    probs = np.asarray(class_probs, dtype=float)
    _check_probs(probs)
    means = np.asarray(class_means, dtype=float)
    if means.ndim != 2 or means.shape[0] != probs.shape[0]:
        raise ShapeError(
            f"class_means must be k x p with k == len(class_probs), got shape {means.shape}"
        )
    if not np.all(np.isfinite(means)):
        raise NumericInputError("class_means contain non-finite entries")
    p = means.shape[1]
    s = int(signal_dims)
    if not (1 <= s <= p):
        raise ParameterError(f"signal_dims must be in [1, {p}], got {signal_dims}")
    scale = float(class_scale)
    if not (scale >= 0.0 and math.isfinite(scale)):
        raise ParameterError(f"class_scale must be >= 0, got {class_scale}")
    if int(m) < 1:
        raise ParameterError(f"m must be >= 1, got {m}")

    rng = np.random.Generator(np.random.PCG64(int(seed)))
    labels = rng.choice(probs.shape[0], size=int(m), p=probs)
    points = np.empty((int(m), p))
    points[:, :s] = means[labels, :s] + scale * rng.standard_normal((int(m), s))
    points[:, s:] = rng.standard_normal((int(m), p - s))
    return RawDataset(points, labels, probs)


def projection_matrix(spec: EncoderSpec) -> np.ndarray:
    """The frozen p x d random projection for a toy encoder spec.

    Entries are i.i.d. N(0, 1/latent_dim), drawn deterministically from
    ``spec.seed``.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return rng.standard_normal((spec.input_dim, spec.latent_dim)) / math.sqrt(spec.latent_dim)


def encode(spec: EncoderSpec, data: RawDataset) -> np.ndarray:
    """Map raw points to latent vectors: [signal | alpha * nuisance] @ P.

    Deterministic given the spec; with leakage_alpha = 0 the nuisance block is
    zeroed exactly, so points differing only in nuisance coordinates encode
    bit-identically.
    """
    if spec.kind != "toy_projection":
        raise ParameterError(
            "only toy_projection encoders run in-process; external encoders "
            "supply embeddings through the embedding file format"
        )
    if data.dim != spec.input_dim:
        raise ShapeError(f"data has {data.dim} coordinates, spec expects {spec.input_dim}")
    scaled = data.points.copy()
    if spec.leakage_alpha == 0.0:
        scaled[:, spec.signal_dims :] = 0.0
    else:
        scaled[:, spec.signal_dims :] *= spec.leakage_alpha
    return scaled @ projection_matrix(spec)


def augment(data: RawDataset, aug: AugmentationSpec, signal_dims: int) -> RawDataset:
    """Perturb the nuisance block of each point independently.

    With probability ``apply_prob`` a point gets N(0, scale^2) noise added to
    its nuisance coordinates and (optionally) those coordinates permuted; the
    signal block and labels are never touched. Deterministic given
    ``aug.seed``; rows stay aligned with the source dataset.
    """
    s = int(signal_dims)
    if not (1 <= s <= data.dim):
        raise ParameterError(f"signal_dims must be in [1, {data.dim}], got {signal_dims}")
    n_nuis = data.dim - s
    rng = np.random.Generator(np.random.PCG64(aug.seed))
    selected = rng.random(data.count) < aug.apply_prob
    points = data.points.copy()
    if n_nuis > 0:
        noise = rng.normal(0.0, aug.nuisance_noise_scale, size=(data.count, n_nuis))
        points[selected, s:] += noise[selected]
        if aug.nuisance_permute:
            # Draws the same per-row shuffles, in row order, as one
            # rng.permutation(n_nuis) per selected row.
            points[selected, s:] = rng.permuted(points[selected, s:], axis=1)
    return RawDataset(points, data.labels, data.class_probs)
