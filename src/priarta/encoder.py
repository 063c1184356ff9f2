"""The pluggable mapping function: a deterministic toy encoder with a
controllable signal/nuisance split, plus the augmentation simulator and the
Gaussian-mixture scenario sampler.

Input points have ``input_dim`` coordinates: the first ``signal_dims`` carry
class structure, the rest are nuisance (the abstract analog of information a
good representation discards). The toy encoder projects
``[signal | alpha * nuisance]`` through a seeded random matrix, so
``leakage_alpha = 0`` gives exact augmentation invariance by construction,
and augmentations act only on the nuisance block.

A dataset is checked once, where it enters the package. The public RawDataset
constructor, which files and callers go through, checks shapes, finiteness,
labels and class probabilities, and copies every array. gen_mixture_dataset
and augment build their points in place from draws they make and from a
RawDataset that was checked when it was made. Each keeps one finiteness check
on the points it makes, since a large scale can overflow. Each dataset ends
in errors._trusted, which neither copies nor scans: finite float64 points,
int64 labels in range and a checked probability vector.
"""

from dataclasses import dataclass, fields
import functools
import hashlib
import json
import math
import warnings

import numpy as np

from .errors import (
    NumericInputError,
    ParameterError,
    ShapeError,
    _fields_equal,
    _trusted,
    _unhashable,
    require_bool,
    require_float,
    require_int,
)

__all__ = [
    "AugmentationSpec", "EncoderSpec", "RawDataset", "augment", "encode",
    "gen_mixture_dataset",
]

ENCODER_KINDS = ("toy_projection", "external")


def _from_exact_fields(cls, data, noun: str):
    """cls(**data) for a mapping whose keys are exactly cls's fields."""
    if not isinstance(data, dict):
        raise ParameterError(f"{noun} must be a mapping")
    expected = {f.name for f in fields(cls)}
    if set(data) != expected:
        raise ParameterError(
            f"{noun} fields must be exactly {sorted(expected)}, got {sorted(data)}"
        )
    return cls(**data)


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
        require_int(self.seed, "seed")
        for field in ("input_dim", "latent_dim", "signal_dims"):
            require_int(getattr(self, field), field, 1)
        if self.signal_dims > self.input_dim:
            raise ParameterError(
                f"signal_dims {self.signal_dims} exceeds input_dim {self.input_dim}"
            )
        alpha = require_float(self.leakage_alpha, "leakage_alpha")
        if not (0.0 <= alpha <= 1.0):
            raise ParameterError(f"leakage_alpha must be in [0, 1], got {self.leakage_alpha}")
        if self.latent_dim > self.signal_dims:
            warnings.warn(
                f"latent_dim {self.latent_dim} > signal_dims {self.signal_dims}: "
                "the projection cannot be signal-faithful",
                stacklevel=2,
            )
        object.__setattr__(self, "leakage_alpha", alpha)
        # The spec is frozen, so its digest is computed once. A plain
        # attribute, not a field: eq, hash, repr and to_dict ignore it.
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        object.__setattr__(self, "_fingerprint", hashlib.sha256(payload.encode()).hexdigest())

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderSpec":
        return _from_exact_fields(cls, data, "encoder spec")

    def fingerprint(self) -> str:
        """SHA-256 over the canonical serialized form."""
        return self._fingerprint


@dataclass(frozen=True)
class RawDataset:
    """m points in input space with integer class labels (metadata only)."""

    points: np.ndarray
    labels: np.ndarray
    class_probs: np.ndarray

    __eq__ = _fields_equal
    __hash__ = _unhashable

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ShapeError(f"points must be a nonempty 2-D matrix, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise NumericInputError("points contain non-finite entries")
        if labels.shape != (points.shape[0],):
            raise ShapeError("labels must align with points, one per row")
        # Labels are checked by type, never truncated: 1.7 is not class 1.
        if labels.dtype.kind not in "iu":
            raise ParameterError(f"labels must be integers, got dtype {labels.dtype}")
        probs = require_probs(self.class_probs)
        if labels.min() < 0 or labels.max() >= probs.shape[0]:
            raise ParameterError("labels must lie in [0, num_classes)")
        points = points.copy()
        labels = labels.astype(np.int64)
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
        scale = require_float(self.nuisance_noise_scale, "nuisance_noise_scale")
        prob = require_float(self.apply_prob, "apply_prob")
        if scale < 0.0:
            raise ParameterError(f"nuisance_noise_scale must be >= 0, got {scale}")
        if not (0.0 <= prob <= 1.0):
            raise ParameterError(f"apply_prob must be in [0, 1], got {prob}")
        require_bool(self.nuisance_permute, "nuisance_permute")
        require_int(self.seed, "seed")
        object.__setattr__(self, "nuisance_noise_scale", scale)
        object.__setattr__(self, "apply_prob", prob)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "AugmentationSpec":
        return _from_exact_fields(cls, data, "augmentation spec")


def require_probs(values, field: str = "class probabilities") -> np.ndarray:
    """values as a float64 probability vector: nonempty, nonnegative and
    summing to 1 within 1e-9. Each entry of a list or tuple must pass
    require_float; any other sequence must be an array."""
    if isinstance(values, (list, tuple)):
        values = [require_float(v, field) for v in values]
    elif not isinstance(values, np.ndarray):
        raise ParameterError(f"{field} must be a list of numbers")
    probs = np.asarray(values, dtype=float)
    if probs.ndim != 1 or probs.shape[0] < 1:
        raise ParameterError(f"{field} must be a nonempty vector")
    if not np.isfinite(probs).all() or (probs < 0).any():
        raise ParameterError(f"{field} must be finite and nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ParameterError(f"{field} sum to {probs.sum()!r}, expected 1")
    return probs


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
    probs = require_probs(class_probs)
    means = np.asarray(class_means, dtype=float)
    if means.ndim != 2 or means.shape[0] != probs.shape[0]:
        raise ShapeError(
            f"class_means must be k x p with k == len(class_probs), got shape {means.shape}"
        )
    if not np.isfinite(means).all():
        raise NumericInputError("class_means contain non-finite entries")
    p = means.shape[1]
    s = require_int(signal_dims, "signal_dims", 1)
    if s > p:
        raise ParameterError(f"signal_dims must be in [1, {p}], got {signal_dims}")
    scale = require_float(class_scale, "class_scale")
    if scale < 0.0:
        raise ParameterError(f"class_scale must be >= 0, got {class_scale}")
    m = require_int(m, "m", 1)

    rng = np.random.Generator(np.random.PCG64(require_int(seed, "seed")))
    labels = rng.choice(probs.shape[0], size=m, p=probs)
    # scale * z + mean, bit for bit, scaled and shifted in place.
    signal = rng.standard_normal((m, s))
    with np.errstate(over="ignore"):  # an overflowed point is rejected below
        signal *= scale
        signal += means[labels, :s]
    if not np.isfinite(signal).all():
        raise NumericInputError("points contain non-finite entries")
    points = np.empty((m, p))
    points[:, :s] = signal
    points[:, s:] = rng.standard_normal((m, p - s))
    # probs may be the caller's own array: the dataset keeps a copy.
    return _trusted(RawDataset, points=points, labels=labels, class_probs=probs.copy())


@functools.lru_cache(maxsize=8)
def projection_matrix(spec: EncoderSpec) -> np.ndarray:
    """The frozen p x d random projection for a toy encoder spec.

    Entries are i.i.d. N(0, 1/latent_dim), drawn deterministically from
    ``spec.seed``. Drawn once per spec and shared by every caller, so the
    array is read-only.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    p = rng.standard_normal((spec.input_dim, spec.latent_dim)) / math.sqrt(spec.latent_dim)
    p.flags.writeable = False
    return p


def _project(spec: EncoderSpec, points: np.ndarray) -> np.ndarray:
    """The toy projection of fresh float64 rows that fit spec, scaled in place."""
    if spec.leakage_alpha == 0.0:
        points[:, spec.signal_dims :] = 0.0
    else:
        points[:, spec.signal_dims :] *= spec.leakage_alpha
    return points @ projection_matrix(spec)


def _encoder(spec: EncoderSpec, data):
    """What spec does to a party's data, one rule for every party: a function
    from rows (an index array, or None for all) of a RawDataset or EmbeddingSet
    to their encoded vectors. Raw rows need a toy_projection spec of their
    width and are projected; embeddings, encoded already, need its latent_dim."""
    if isinstance(data, RawDataset):
        if spec.kind != "toy_projection":
            raise ParameterError(f"raw data needs a toy_projection spec, not {spec.kind!r}")
        if data.dim != spec.input_dim:
            raise ShapeError(f"raw data has {data.dim} coordinates, input_dim is {spec.input_dim}")
        # _project scales in place: a fresh copy or a gather, never a view.
        return lambda rows: _project(spec, data.points.copy() if rows is None
                                     else data.points[rows])
    if data.dim != spec.latent_dim:
        raise ShapeError(f"embeddings have {data.dim} coordinates, latent_dim is {spec.latent_dim}")
    return lambda rows: data.vectors if rows is None else data.vectors[rows]


def encode(spec: EncoderSpec, data: RawDataset) -> np.ndarray:
    """Map raw points to latent vectors: [signal | alpha * nuisance] @ P.

    Deterministic given the spec; with leakage_alpha = 0 the nuisance block is
    zeroed exactly, so points differing only in nuisance coordinates encode
    bit-identically.
    """
    if not isinstance(data, RawDataset):
        raise ParameterError(f"encode takes raw data, not {type(data).__name__}")
    return _encoder(spec, data)(None)


def augment(data: RawDataset, aug: AugmentationSpec, signal_dims: int) -> RawDataset:
    """Perturb the nuisance block of each point independently.

    With probability ``apply_prob`` a point gets N(0, scale^2) noise added to
    its nuisance coordinates and (optionally) those coordinates permuted; the
    signal block and labels are never touched. Deterministic given
    ``aug.seed``; rows stay aligned with the source dataset.
    """
    s = require_int(signal_dims, "signal_dims", 1)
    if s > data.dim:
        raise ParameterError(f"signal_dims must be in [1, {data.dim}], got {signal_dims}")
    n_nuis = data.dim - s
    rng = np.random.Generator(np.random.PCG64(aug.seed))
    selected = rng.random(data.count) < aug.apply_prob
    points = data.points.copy()
    if n_nuis > 0:
        noise = rng.normal(0.0, aug.nuisance_noise_scale, size=(data.count, n_nuis))
        every = bool(selected.all())
        # The selected rows' nuisance block: a view when every row is
        # selected, else one gather, scattered back once below.
        block = points[:, s:] if every else points[selected, s:]
        with np.errstate(over="ignore"):  # an overflowed point is rejected below
            block += noise if every else noise[selected]
        if not np.isfinite(block).all():
            raise NumericInputError("points contain non-finite entries")
        if aug.nuisance_permute:
            # Draws the same per-row shuffles, in row order, as one
            # rng.permutation(n_nuis) per selected row.
            rng.permuted(block, axis=1, out=block)
        if not every:
            points[selected, s:] = block
    return _trusted(RawDataset, points=points, labels=data.labels, class_probs=data.class_probs)
