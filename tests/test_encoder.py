"""Toy projection encoder, mixture scenario data, and augmentation."""

import hashlib
import json

import numpy as np
import pytest

from priarta import (
    AugmentationSpec,
    EncoderSpec,
    ParameterError,
    RawDataset,
    ShapeError,
    augment,
    encode,
    gen_mixture_dataset,
)
from priarta.encoder import projection_matrix


SPEC = EncoderSpec("toy_projection", 271828, 16, 4, 8, 0.0)


def small_dataset(rng, m=40, p=16, k=3):
    points = rng.standard_normal((m, p))
    labels = rng.integers(0, k, m)
    probs = np.full(k, 1.0 / k)
    return RawDataset(points, labels, probs)


# -------------------------------------------------------------- EncoderSpec


def test_spec_round_trip_and_fingerprint():
    again = EncoderSpec.from_dict(SPEC.to_dict())
    assert again == SPEC
    assert again.fingerprint() == SPEC.fingerprint()
    assert len(SPEC.fingerprint()) == 64


def test_fingerprint_is_sha256_of_canonical_json():
    fields = {"kind": "toy_projection", "seed": 271828, "input_dim": 16,
              "latent_dim": 4, "signal_dims": 8, "leakage_alpha": 0.0}
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
    assert SPEC.fingerprint() == hashlib.sha256(payload).hexdigest()
    # the stored digest is not part of the spec's value
    assert SPEC.to_dict() == fields
    assert repr(SPEC) == (
        "EncoderSpec(kind='toy_projection', seed=271828, input_dim=16, "
        "latent_dim=4, signal_dims=8, leakage_alpha=0.0)"
    )
    again = EncoderSpec(**fields)
    assert again == SPEC and hash(again) == hash(SPEC)
    # the digest is taken after leakage_alpha is stored as a float; an
    # integer field given as a float is rejected, never truncated
    assert EncoderSpec(**dict(fields, leakage_alpha=0)).fingerprint() == SPEC.fingerprint()
    with pytest.raises(ParameterError, match="^seed must be an integer >= 0$"):
        EncoderSpec(**dict(fields, seed=271828.0))


def test_fingerprint_changes_with_any_field():
    base = SPEC.fingerprint()
    variants = [
        EncoderSpec("toy_projection", 271829, 16, 4, 8, 0.0),
        EncoderSpec("toy_projection", 271828, 16, 4, 8, 0.5),
        EncoderSpec("toy_projection", 271828, 16, 8, 8, 0.0),
    ]
    assert all(v.fingerprint() != base for v in variants)


def test_spec_validation():
    with pytest.raises(ParameterError):
        EncoderSpec("mystery", 1, 16, 4, 8, 0.0)
    with pytest.raises(ParameterError):
        EncoderSpec("toy_projection", 1, 16, 4, 8, 1.5)
    with pytest.raises(ParameterError):
        EncoderSpec("toy_projection", 1, 16, 4, 20, 0.0)  # signal > input
    with pytest.raises(ParameterError):
        EncoderSpec.from_dict({"kind": "toy_projection"})


def test_spec_warns_when_latent_exceeds_signal():
    with pytest.warns(UserWarning):
        EncoderSpec("toy_projection", 1, 16, 12, 8, 0.0)


# --------------------------------------------------------------- RawDataset


def test_raw_dataset_validates():
    with pytest.raises(ParameterError):
        RawDataset(np.zeros((3, 2)), [0, 1, 5], [0.5, 0.5])  # label out of range
    with pytest.raises(ParameterError):
        RawDataset(np.zeros((3, 2)), [0, 1, 0], [0.5, 0.6])  # probs do not sum to 1
    with pytest.raises(ShapeError):
        RawDataset(np.zeros((3, 2)), [0, 1], [0.5, 0.5])  # label count mismatch


# -------------------------------------------------------------- gen_mixture


def test_gen_mixture_deterministic():
    means = np.arange(6, dtype=float).reshape(3, 2)
    a = gen_mixture_dataset([0.2, 0.3, 0.5], means, 0.1, 200, 11, 2)
    b = gen_mixture_dataset([0.2, 0.3, 0.5], means, 0.1, 200, 11, 2)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_gen_mixture_label_frequencies():
    probs = [0.6, 0.3, 0.1]
    data = gen_mixture_dataset(probs, np.zeros((3, 4)), 0.1, 20_000, 5, 2)
    freq = np.bincount(data.labels, minlength=3) / data.count
    np.testing.assert_allclose(freq, probs, atol=0.02)


def test_gen_mixture_zero_mass_class_never_drawn():
    data = gen_mixture_dataset([0.5, 0.0, 0.5], np.zeros((3, 4)), 0.1, 5000, 5, 2)
    assert not np.any(data.labels == 1)


def test_gen_mixture_zero_scale_pins_signal_block():
    means = np.array([[1.0, -2.0, 9.0], [3.0, 4.0, 9.0]])
    data = gen_mixture_dataset([0.5, 0.5], means, 0.0, 100, 3, 2)
    np.testing.assert_array_equal(data.points[:, :2], means[data.labels, :2])
    # nuisance block ignores the mean columns past the signal block
    assert not np.allclose(data.points[:, 2], 9.0)


def test_gen_mixture_rejects_bad_probs():
    with pytest.raises(ParameterError):
        gen_mixture_dataset([0.5, 0.6], np.zeros((2, 3)), 0.1, 10, 1, 2)


# ------------------------------------------------------------------- encode


def test_projection_matrix_shape_and_determinism():
    p1 = projection_matrix(SPEC)
    p2 = projection_matrix(SPEC)
    assert p1.shape == (16, 4)
    np.testing.assert_array_equal(p1, p2)


def test_projection_matrix_variance(rng):
    spec = EncoderSpec("toy_projection", 7, 400, 50, 400, 1.0)
    p = projection_matrix(spec)
    # entries are N(0, 1/latent_dim)
    assert abs(p.var() - 1.0 / 50) < 0.002


def test_encode_deterministic(rng):
    data = small_dataset(rng)
    np.testing.assert_array_equal(encode(SPEC, data), encode(SPEC, data))


def test_encode_alpha_zero_uses_signal_only(rng):
    # equal up to summation order: the full matmul still adds exact zeros
    data = small_dataset(rng)
    z = encode(SPEC, data)
    p = projection_matrix(SPEC)
    expected = data.points[:, :8] @ p[:8]
    np.testing.assert_allclose(z, expected, rtol=1e-14, atol=1e-15)


def test_encode_alpha_zero_ignores_nuisance(rng):
    data = small_dataset(rng)
    twisted = RawDataset(
        np.concatenate([data.points[:, :8], rng.standard_normal((40, 8)) * 50], axis=1),
        data.labels,
        data.class_probs,
    )
    np.testing.assert_array_equal(encode(SPEC, data), encode(SPEC, twisted))


def test_encode_alpha_positive_leaks_nuisance(rng):
    data = small_dataset(rng)
    leaky = EncoderSpec("toy_projection", 271828, 16, 4, 8, 0.3)
    z0 = encode(SPEC, data)
    z1 = encode(leaky, data)
    assert np.any(z0 != z1)


def test_encode_rejects_external_kind(rng):
    spec = EncoderSpec("external", 1, 16, 4, 8, 0.0)
    with pytest.raises(ParameterError):
        encode(spec, small_dataset(rng))


def test_encode_rejects_dim_mismatch(rng):
    data = small_dataset(rng, p=10)
    with pytest.raises(ShapeError):
        encode(SPEC, data)


# ------------------------------------------------------------------ augment


def test_augment_identity_at_zero_prob(rng):
    data = small_dataset(rng)
    aug = AugmentationSpec(1.0, True, 0.0, 99)
    out = augment(data, aug, 8)
    np.testing.assert_array_equal(out.points, data.points)


def test_augment_preserves_signal_and_labels(rng):
    data = small_dataset(rng)
    aug = AugmentationSpec(2.0, True, 1.0, 99)
    out = augment(data, aug, 8)
    np.testing.assert_array_equal(out.points[:, :8], data.points[:, :8])
    np.testing.assert_array_equal(out.labels, data.labels)
    assert np.any(out.points[:, 8:] != data.points[:, 8:])


def test_augment_deterministic(rng):
    data = small_dataset(rng)
    aug = AugmentationSpec(1.0, True, 0.7, 42)
    a = augment(data, aug, 8)
    b = augment(data, aug, 8)
    np.testing.assert_array_equal(a.points, b.points)


def test_augment_permute_only_preserves_multiset(rng):
    data = small_dataset(rng)
    aug = AugmentationSpec(0.0, True, 1.0, 7)
    out = augment(data, aug, 8)
    for before, after in zip(data.points, out.points):
        np.testing.assert_allclose(np.sort(before[8:]), np.sort(after[8:]), rtol=0, atol=0)


def test_augment_rows_stay_aligned(rng):
    # partial application leaves unselected rows bit-identical
    data = small_dataset(rng, m=200)
    aug = AugmentationSpec(1.0, False, 0.5, 13)
    out = augment(data, aug, 8)
    untouched = np.all(out.points == data.points, axis=1)
    assert 0 < untouched.sum() < 200


def _augment_row_loop(data, aug, signal_dims):
    """Reference: augment with one rng.permutation per selected row."""
    s = signal_dims
    n_nuis = data.dim - s
    rng = np.random.Generator(np.random.PCG64(aug.seed))
    selected = rng.random(data.count) < aug.apply_prob
    points = data.points.copy()
    if n_nuis > 0:
        noise = rng.normal(0.0, aug.nuisance_noise_scale, size=(data.count, n_nuis))
        points[selected, s:] += noise[selected]
        if aug.nuisance_permute:
            for i in np.flatnonzero(selected):
                points[i, s:] = points[i, s:][rng.permutation(n_nuis)]
    return points


@pytest.mark.parametrize("n_nuis", [0, 1, 2, 12])
@pytest.mark.parametrize("apply_prob", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("permute", [False, True])
def test_augment_matches_row_loop_reference(rng, n_nuis, apply_prob, permute):
    data = small_dataset(rng, m=60, p=5 + n_nuis)
    for seed in (0, 7, 13, 2**40 + 3):
        aug = AugmentationSpec(0.5, permute, apply_prob, seed)
        out = augment(data, aug, 5)
        expected = _augment_row_loop(data, aug, 5)
        assert out.points.tobytes() == expected.tobytes()
