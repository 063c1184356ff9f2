"""Scenario configuration: an imbalanced buyer profile plus a roster of
sellers (fresh mixtures or augmented copies), with every seed either given
explicitly or derived from the master seed at load time.

The shipped default scenario has one buyer concentrated on classes 0-4, a
disjoint seller on classes 5-9, an overlapping seller with shifted weights,
an augmented copy of that seller, and four augmented copies of the buyer.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import AugmentationSpec, EncoderSpec, augment, gen_mixture_dataset, require_probs
from .errors import ConfigError, ParameterError, require_float, require_int
from .privacy import PrivacyBudget, derive_seed

__all__ = ["ScenarioConfig", "build_datasets", "default_scenario"]

BUYER_ID = "buyer"


@dataclass(frozen=True)
class SellerDef:
    """One seller: either a fresh mixture draw or a perturbed copy."""

    node_id: str
    kind: str
    class_probs: tuple = None
    m: int = None
    seed: int = None
    source_id: str = None
    augmentation: AugmentationSpec = None

    def to_dict(self) -> dict:
        if self.kind == "fresh":
            return {
                "node_id": self.node_id,
                "kind": "fresh",
                "class_probs": list(self.class_probs),
                "m": self.m,
                "seed": self.seed,
            }
        return {
            "node_id": self.node_id,
            "kind": "augmented_copy",
            "source_id": self.source_id,
            "augmentation": self.augmentation.to_dict(),
        }


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: loading materializes generated class means
    and fills every derived seed, so to_dict() round-trips exactly."""

    num_classes: int
    input_dim: int
    signal_dims: int
    class_means: np.ndarray
    class_scale: float
    buyer_probs: tuple
    buyer_m: int
    buyer_seed: int
    sellers: tuple
    encoder: EncoderSpec
    epsilon: float
    delta: float
    clip_radius: float
    subset_size: int
    master_seed: int

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=float)
        means = means.copy()
        means.flags.writeable = False
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "buyer_probs", tuple(float(p) for p in self.buyer_probs))
        object.__setattr__(self, "sellers", tuple(self.sellers))

    @property
    def budget(self) -> PrivacyBudget:
        return PrivacyBudget(self.epsilon, self.delta, self.clip_radius, self.subset_size)

    def seller_ids(self) -> list:
        return [s.node_id for s in self.sellers]

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "input_dim": self.input_dim,
            "signal_dims": self.signal_dims,
            "class_means": [[float(v) for v in row] for row in self.class_means],
            "class_scale": self.class_scale,
            "buyer": {
                "class_probs": list(self.buyer_probs),
                "m": self.buyer_m,
                "seed": self.buyer_seed,
            },
            "sellers": [s.to_dict() for s in self.sellers],
            "encoder": self.encoder.to_dict(),
            "privacy": {
                "epsilon": self.epsilon,
                "delta": self.delta,
                "clip_radius": self.clip_radius,
            },
            "subset_size": self.subset_size,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return _parse_config(data)


def _check(problems: list, rule, value, field: str, *args):
    """rule(value, field, *args), or None with the failure added to problems."""
    try:
        return rule(value, field, *args)
    except ParameterError as exc:
        problems.append(str(exc))
    return None


def _mixture_fields(block: dict, label: str, node_id: str, k, master_seed,
                    problems: list) -> tuple:
    """(class_probs, m, seed) of a buyer or fresh-seller block, each None when
    it fails; a seed the block leaves out is derived from the master seed."""
    probs = _check(problems, require_probs, block.get("class_probs"), f"{label}.class_probs")
    # k is None when num_classes itself failed validation; the length check
    # is skipped then so the remaining problems still surface
    if probs is not None and k is not None and len(probs) != k:
        problems.append(f"{label}.class_probs: must have {k} entries, got {len(probs)}")
        probs = None
    m = _check(problems, require_int, block.get("m"), f"{label}.m", 2)
    seed = block.get("seed")
    if seed is not None:
        seed = _check(problems, require_int, seed, f"{label}.seed")
    elif master_seed is not None:
        seed = derive_seed(master_seed, node_id, "raw-data")
    return None if probs is None else tuple(probs.tolist()), m, seed


def _parse_config(data: dict) -> ScenarioConfig:
    problems = []
    if not isinstance(data, dict):
        raise ConfigError(["config must be a mapping"])
    expected = {
        "num_classes", "input_dim", "signal_dims", "class_means", "class_scale",
        "buyer", "sellers", "encoder", "privacy", "subset_size", "master_seed",
    }
    for key in sorted(set(data) - expected):
        problems.append(f"{key}: unknown field")
    for key in sorted(expected - set(data)):
        problems.append(f"{key}: missing")
    get = data.get

    k = _check(problems, require_int, get("num_classes"), "num_classes", 1)
    p = _check(problems, require_int, get("input_dim"), "input_dim", 1)
    s = _check(problems, require_int, get("signal_dims"), "signal_dims", 1)
    if s is not None and p is not None and s > p:
        problems.append("signal_dims: exceeds input_dim")
        s = None
    master_seed = _check(problems, require_int, get("master_seed"), "master_seed")

    class_scale = _check(problems, require_float, get("class_scale"), "class_scale")
    if class_scale is not None and class_scale < 0:
        problems.append("class_scale: must be >= 0")

    class_means = _parse_class_means(get("class_means"), k, s, p, problems)

    buyer_probs = buyer_m = buyer_seed = None
    buyer = get("buyer")
    if not isinstance(buyer, dict) or not {"class_probs", "m"} <= set(buyer) or not (
        set(buyer) <= {"class_probs", "m", "seed"}
    ):
        problems.append("buyer: must be a mapping with class_probs, m, and optional seed")
    else:
        buyer_probs, buyer_m, buyer_seed = _mixture_fields(
            buyer, "buyer", BUYER_ID, k, master_seed, problems)

    sellers = _parse_sellers(get("sellers"), k, master_seed, problems)

    enc = None
    try:
        enc = EncoderSpec.from_dict(get("encoder"))
    except (ParameterError, TypeError) as exc:
        problems.append(f"encoder: {exc}")
    if enc is not None:
        if p is not None and enc.input_dim != p:
            problems.append(f"encoder.input_dim: {enc.input_dim} != input_dim {p}")
        if s is not None and enc.signal_dims != s:
            problems.append(f"encoder.signal_dims: {enc.signal_dims} != signal_dims {s}")

    epsilon = delta = clip_radius = None
    privacy = get("privacy")
    if not isinstance(privacy, dict) or set(privacy) != {"epsilon", "delta", "clip_radius"}:
        problems.append("privacy: must be a mapping with exactly epsilon, delta, clip_radius")
    else:
        epsilon, delta, clip_radius = (
            _check(problems, require_float, privacy[field], f"privacy.{field}")
            for field in ("epsilon", "delta", "clip_radius")
        )
        if epsilon is not None and not (0.0 < epsilon < 1.0):
            problems.append("privacy.epsilon: must be in (0, 1)")
        if delta is not None and not (0.0 < delta < 1.0):
            problems.append("privacy.delta: must be in (0, 1)")
        if clip_radius is not None and clip_radius <= 0:
            problems.append("privacy.clip_radius: must be > 0")

    subset_size = _check(problems, require_int, get("subset_size"), "subset_size", 2)

    if problems:
        raise ConfigError(problems)

    return ScenarioConfig(
        num_classes=k,
        input_dim=p,
        signal_dims=s,
        class_means=class_means,
        class_scale=class_scale,
        buyer_probs=buyer_probs,
        buyer_m=buyer_m,
        buyer_seed=buyer_seed,
        sellers=tuple(sellers),
        encoder=enc,
        epsilon=epsilon,
        delta=delta,
        clip_radius=clip_radius,
        subset_size=subset_size,
        master_seed=master_seed,
    )


def _parse_class_means(value, k, s, p, problems):
    """Either an explicit k x s (or k x p) matrix or {seed, norm}: rows drawn
    standard normal in the signal block and rescaled to the requested norm."""
    if k is None or s is None or p is None:
        return None
    if isinstance(value, dict):
        if set(value) != {"seed", "norm"}:
            problems.append("class_means: generator must be {seed: int, norm: number > 0}")
            return None
        seed = _check(problems, require_int, value["seed"], "class_means.seed")
        norm = _check(problems, require_float, value["norm"], "class_means.norm")
        if norm is not None and norm <= 0:
            problems.append("class_means.norm: must be > 0")
            return None
        if seed is None or norm is None:
            return None
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = rng.standard_normal((k, s))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return rows * norm
    if isinstance(value, list):
        try:
            means = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            problems.append("class_means: rows must be numeric lists")
            return None
        if means.ndim != 2 or means.shape[0] != k or means.shape[1] not in (s, p):
            problems.append(
                f"class_means: must be {k} rows of {s} (signal) or {p} (full) numbers"
            )
            return None
        if not np.all(np.isfinite(means)):
            problems.append("class_means: entries must be finite")
            return None
        return means[:, :s]
    problems.append("class_means: must be a matrix or a {seed, norm} generator")
    return None


def _parse_sellers(value, k, master_seed, problems):
    if not isinstance(value, list) or not value:
        problems.append("sellers: must be a nonempty list")
        return []
    sellers = []
    seen = {BUYER_ID}
    for idx, item in enumerate(value):
        label = f"sellers[{idx}]"
        if not isinstance(item, dict):
            problems.append(f"{label}: must be a mapping")
            continue
        node_id = item.get("node_id")
        if not isinstance(node_id, str) or not node_id:
            problems.append(f"{label}.node_id: must be a nonempty string")
            continue
        label = f"sellers[{idx}] ({node_id})"
        if node_id in seen:
            problems.append(f"{label}: duplicate or reserved node_id")
            continue
        # register the id up front: a seller with invalid fields is still a
        # defined name, so later source_id references do not cascade
        seen.add(node_id)
        kind = item.get("kind")
        if kind == "fresh":
            extra = set(item) - {"node_id", "kind", "class_probs", "m", "seed"}
            if extra:
                problems.append(f"{label}: unknown fields {sorted(extra)}")
            probs, m, seed = _mixture_fields(item, label, node_id, k, master_seed, problems)
            if probs is not None and m is not None:
                sellers.append(SellerDef(node_id, "fresh", class_probs=probs, m=m, seed=seed))
        elif kind == "augmented_copy":
            extra = set(item) - {"node_id", "kind", "source_id", "augmentation"}
            if extra:
                problems.append(f"{label}: unknown fields {sorted(extra)}")
            source_id = item.get("source_id")
            if source_id == node_id or source_id not in seen:
                problems.append(
                    f"{label}.source_id: {source_id!r} must name the buyer "
                    "or a previously defined seller"
                )
                continue
            aug_dict = item.get("augmentation")
            if isinstance(aug_dict, dict) and "seed" not in aug_dict and master_seed is not None:
                aug_dict = dict(aug_dict, seed=derive_seed(master_seed, node_id, "augment"))
            try:
                aug = AugmentationSpec.from_dict(aug_dict)
            except (ParameterError, TypeError) as exc:
                problems.append(f"{label}.augmentation: {exc}")
                continue
            sellers.append(
                SellerDef(node_id, "augmented_copy", source_id=source_id, augmentation=aug)
            )
        else:
            problems.append(f"{label}.kind: must be 'fresh' or 'augmented_copy'")
    return sellers


def build_datasets(config: ScenarioConfig):
    """Materialize the buyer dataset and every seller dataset, in declaration
    order so augmented copies can reference earlier datasets."""
    full_means = np.zeros((config.num_classes, config.input_dim))
    full_means[:, : config.signal_dims] = config.class_means

    def mixture(probs, m, seed):
        return gen_mixture_dataset(probs, full_means, config.class_scale, m, seed,
                                   config.signal_dims)

    datasets = {BUYER_ID: mixture(config.buyer_probs, config.buyer_m, config.buyer_seed)}
    for seller in config.sellers:
        if seller.kind == "fresh":
            datasets[seller.node_id] = mixture(seller.class_probs, seller.m, seller.seed)
        else:
            source = datasets[seller.source_id]
            datasets[seller.node_id] = augment(
                source, seller.augmentation, config.signal_dims
            )
    return datasets


def default_scenario(master_seed: int = 1000) -> ScenarioConfig:
    """Seven-seller marketplace: disjoint seller-1, reweighted seller-2, an
    augmented copy of seller-2, and four augmented copies of the buyer.

    Class geometry and the encoder are fixed configuration; the master seed
    moves only the data draws, subset sampling, and privacy noise.
    """
    aug = {"nuisance_noise_scale": 1.0, "nuisance_permute": True, "apply_prob": 1.0}
    sellers = [
        {
            "node_id": "seller-1",
            "kind": "fresh",
            "class_probs": [0, 0, 0, 0, 0, 0.3, 0.3, 0.2, 0.1, 0.1],
            "m": 4096,
        },
        {
            "node_id": "seller-2",
            "kind": "fresh",
            "class_probs": [0.15, 0.15, 0.2, 0.25, 0.25, 0, 0, 0, 0, 0],
            "m": 4096,
        },
        {
            "node_id": "seller-3",
            "kind": "augmented_copy",
            "source_id": "seller-2",
            "augmentation": dict(aug),
        },
    ]
    for i in range(4, 8):
        sellers.append(
            {
                "node_id": f"seller-{i}",
                "kind": "augmented_copy",
                "source_id": BUYER_ID,
                "augmentation": dict(aug),
            }
        )
    return ScenarioConfig.from_dict(
        {
            "num_classes": 10,
            "input_dim": 16,
            "signal_dims": 8,
            "class_means": {"seed": 1797, "norm": 0.55},
            "class_scale": 0.12,
            "buyer": {"class_probs": [0.3, 0.3, 0.2, 0.1, 0.1, 0, 0, 0, 0, 0], "m": 4096},
            "sellers": sellers,
            "encoder": {
                "kind": "toy_projection",
                "seed": 271828,
                "input_dim": 16,
                "latent_dim": 4,
                "signal_dims": 8,
                "leakage_alpha": 0.0,
            },
            "privacy": {"epsilon": 0.8, "delta": 1e-5, "clip_radius": 1.0},
            "subset_size": 512,
            "master_seed": int(master_seed),
        }
    )
