"""Clipping and Gaussian summarization of embedding sets."""

import warnings

import numpy as np
import pytest

from priarta import (
    EmbeddingSet,
    EmptyInputError,
    GaussianSummary,
    InsufficientSamplesError,
    NumericInputError,
    ParameterError,
    ShapeError,
    clip_to_ball,
    debias_covariance,
    psd_clamp,
    sample_covariance,
    sample_mean,
    summarize,
)
from priarta import stats
from priarta.stats import CLIP_SLACK, _row_norms


# -------------------------------------------------------------- EmbeddingSet


def test_embedding_set_validates():
    with pytest.raises(EmptyInputError):
        EmbeddingSet(np.empty((0, 3)), 1.0, False)
    with pytest.raises(InsufficientSamplesError):
        EmbeddingSet([[1.0, 0.0]], 1.0, False)
    with pytest.raises(NumericInputError):
        EmbeddingSet([[np.nan, 0.0], [0.0, 0.0]], 1.0, False)
    with pytest.raises(ParameterError):
        EmbeddingSet([[0.0], [1.0]], -1.0, False)
    # flag inconsistent with the data
    with pytest.raises(ParameterError):
        EmbeddingSet([[3.0, 4.0], [0.0, 0.0]], 1.0, True)


def test_embedding_set_freezes_vectors():
    e = EmbeddingSet([[1.0, 0.0], [0.0, 1.0]], 2.0, False)
    assert e.count == 2 and e.dim == 2
    with pytest.raises(ValueError):
        e.vectors[0, 0] = 5.0


# -------------------------------------------------------------- clip_to_ball


def test_clip_inside_rows_unchanged():
    e = clip_to_ball([[3.0, 4.0], [0.1, 0.2]], 10.0)
    np.testing.assert_array_equal(e.vectors[0], [3.0, 4.0])
    assert e.clipped


def test_clip_projects_onto_sphere():
    # norm 5, scale by 1/5
    e = clip_to_ball([[3.0, 4.0], [0.0, 0.0]], 1.0)
    np.testing.assert_allclose(e.vectors[0], [0.6, 0.8], rtol=1e-12)
    np.testing.assert_array_equal(e.vectors[1], [0.0, 0.0])


def test_clip_enforces_radius(rng):
    v = rng.standard_normal((200, 6)) * 3.0
    e = clip_to_ball(v, 1.0)
    norms = np.linalg.norm(e.vectors, axis=1)
    assert norms.max() <= 1.0 * (1.0 + CLIP_SLACK)


def test_clip_preserves_direction(rng):
    v = rng.standard_normal((50, 4)) * 5.0
    e = clip_to_ball(v, 1.0)
    for before, after in zip(v, e.vectors):
        cos = before @ after / (np.linalg.norm(before) * np.linalg.norm(after))
        assert cos == pytest.approx(1.0, abs=1e-12)


def test_clip_idempotent(rng):
    # a row can land one ulp above R and get rescaled by one ulp again,
    # so idempotence holds to rounding, not bitwise
    v = rng.standard_normal((50, 4)) * 5.0
    once = clip_to_ball(v, 1.0)
    twice = clip_to_ball(once.vectors, 1.0)
    np.testing.assert_allclose(twice.vectors, once.vectors, rtol=5e-16, atol=0)


def test_clip_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        clip_to_ball([[1.0], [2.0]], 0.0)
    with pytest.raises(NumericInputError):
        clip_to_ball([[np.inf], [2.0]], 1.0)


CLIP_INPUTS = {
    "mixed": lambda rng: rng.standard_normal((300, 7)) * 2.0,
    "all_inside": lambda rng: rng.standard_normal((40, 3)) * 0.01,
    "all_outside": lambda rng: rng.standard_normal((40, 3)) * 50.0 + 10.0,
    "zero_rows": lambda rng: np.vstack([np.zeros((3, 5)), rng.standard_normal((4, 5)) * 3.0]),
    "negative_zero": lambda rng: np.array([[-0.0, 0.5], [-0.0, -0.0], [3.0, -4.0]]),
    "one_column": lambda rng: rng.standard_normal((9, 1)) * 2.0,
}


@pytest.mark.parametrize("name", sorted(CLIP_INPUTS))
def test_clip_is_bitwise_the_masked_scale_oracle(rng, name):
    v = CLIP_INPUTS[name](rng)
    before = v.copy()
    n = np.linalg.norm(v, axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.where(n > 1.0, v * (1.0 / n), v)
    e = clip_to_ball(v, 1.0)
    assert e.vectors.dtype == np.float64 and e.vectors.tobytes() == expected.tobytes()
    assert not e.vectors.flags.writeable
    assert not np.shares_memory(e.vectors, v)
    assert v.tobytes() == before.tobytes()
    assert e.clipped and e.clip_radius == 1.0


def test_clip_takes_one_row_norm_pass(monkeypatch, rng):
    # The set it returns is made from its own checked rows, so nothing
    # takes the norms of the clipped rows a second time.
    calls = []

    def counted(v):
        calls.append(v.shape)
        return _row_norms(v)

    monkeypatch.setattr(stats, "_row_norms", counted)
    clip_to_ball(rng.standard_normal((50, 4)) * 3.0, 1.0)
    assert calls == [(50, 4)]


def test_clip_of_zero_rows_raises_no_warning():
    # Only rows outside the ball are divided by their norm.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = clip_to_ball(np.zeros((4, 3)), 1.0)
    assert e.vectors.tobytes() == np.zeros((4, 3)).tobytes()


def test_clip_puts_a_row_whose_norm_overflows_on_the_sphere():
    # 1e200 squared overflows, so its row norm reads inf; the row must still
    # land on the sphere with its direction kept, not collapse to zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = clip_to_ball([[1e200, 0.0], [0.0, 0.5]], 1.0)
        big = clip_to_ball([[1e308, -1e308, 3.0], [0.1, 0.2, 0.3]], 2.0)
    np.testing.assert_allclose(e.vectors, [[1.0, 0.0], [0.0, 0.5]], rtol=0.0, atol=CLIP_SLACK)
    assert e.vectors[1].tobytes() == np.array([0.0, 0.5]).tobytes()
    root = 2.0 / np.sqrt(2.0)
    np.testing.assert_allclose(big.vectors[0], [root, -root, 0.0], rtol=0.0, atol=2 * CLIP_SLACK)
    assert big.vectors[1].tobytes() == np.array([0.1, 0.2, 0.3]).tobytes()


@pytest.mark.parametrize("vectors, error, text", [
    (np.empty((0, 3)), EmptyInputError, "embedding set has no rows"),
    ([[1.0, 2.0]], InsufficientSamplesError, "embedding set needs >= 2 rows, got 1"),
    (np.empty((3, 0)), ShapeError, "embedding dimension must be >= 1"),
    ([1.0, 2.0, 3.0], ShapeError, "vectors must be a 2-D matrix, got shape (3,)"),
    ([[np.nan, 1.0], [0.0, 0.0]], NumericInputError, "vectors contain non-finite entries"),
    ([[np.inf]], NumericInputError, "vectors contain non-finite entries"),
], ids=["n0", "n1", "d0", "1d", "nan", "inf_before_count"])
def test_clip_rejects_what_a_set_rejects(vectors, error, text):
    with pytest.raises(error) as info:
        clip_to_ball(vectors, 1.0)
    assert type(info.value) is error and str(info.value) == text


ROW_NORM_INPUTS = {
    "random": lambda rng: rng.standard_normal((257, 13)),
    "wide": lambda rng: rng.standard_normal((64, 256)) * 3.0,
    "zero_rows": lambda rng: np.vstack([np.zeros((3, 5)), rng.standard_normal((2, 5))]),
    "norm_overflows_to_inf": lambda rng: np.full((4, 3), 1e200),
    "subnormal": lambda rng: rng.standard_normal((6, 4)) * 1e-315,
    "one_column": lambda rng: rng.standard_normal((9, 1)),
}


@pytest.mark.parametrize("name", sorted(ROW_NORM_INPUTS))
def test_row_norms_are_bitwise_numpy_norm(rng, name):
    v = ROW_NORM_INPUTS[name](rng)
    with np.errstate(over="ignore"):
        expected = np.linalg.norm(v, axis=1)
        got = _row_norms(v)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# ------------------------------------------------------------------ moments


def test_sample_mean_example():
    e = EmbeddingSet([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]], 10.0, False)
    np.testing.assert_allclose(sample_mean(e), [1.0, 1.0], rtol=1e-15)


def test_sample_covariance_scalar_example():
    # {0, 2}: mean 1, squared deviations 1 + 1 over n - 1 = 1
    e = EmbeddingSet([[0.0], [2.0]], 10.0, False)
    np.testing.assert_allclose(sample_covariance(e), [[2.0]], rtol=1e-15)


def test_sample_covariance_rank_deficient_example():
    e = EmbeddingSet([[1.0, 0.0], [-1.0, 0.0]], 10.0, False)
    np.testing.assert_allclose(sample_covariance(e), [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_sample_covariance_matches_numpy(rng):
    v = rng.standard_normal((100, 5))
    e = EmbeddingSet(v, 100.0, False)
    np.testing.assert_allclose(sample_covariance(e), np.cov(v, rowvar=False), rtol=1e-12)


def test_sample_covariance_symmetric_psd(rng):
    v = rng.standard_normal((30, 7))
    c = sample_covariance(EmbeddingSet(v, 100.0, False))
    np.testing.assert_array_equal(c, c.T)
    assert np.linalg.eigvalsh(c).min() >= -1e-12


def test_summarize_composes_moments(rng):
    v = rng.standard_normal((64, 4))
    e = EmbeddingSet(v, 100.0, False)
    s = summarize(e)
    assert isinstance(s, GaussianSummary)
    assert s.count == 64
    np.testing.assert_allclose(s.mean, sample_mean(e), rtol=1e-15)
    np.testing.assert_allclose(s.covariance, sample_covariance(e), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d", [1, 4, 64, 256])
def test_summarize_is_bitwise_its_moments(rng, d):
    e = EmbeddingSet(rng.standard_normal((300, d)), 100.0, False)
    s = summarize(e)
    assert s.mean.tobytes() == sample_mean(e).tobytes()
    assert s.covariance.tobytes() == sample_covariance(e).tobytes()


def test_summarize_large_sample_consistency(rng):
    # summary of a big i.i.d. draw lands near the true parameters
    d = 4
    true_mean = np.arange(d, dtype=float)
    v = true_mean + rng.standard_normal((100_000, d))
    s = summarize(EmbeddingSet(v, 1e9, False))
    assert np.linalg.norm(s.mean - true_mean) < 0.05
    assert np.linalg.norm(s.covariance - np.eye(d)) < 0.05 * d


# ------------------------------------------------------------------- debias


def test_debias_zero_sigma_is_identity(rng):
    s = summarize(EmbeddingSet(rng.standard_normal((20, 3)), 100.0, False))
    out = debias_covariance(s, 0.0)
    np.testing.assert_array_equal(out.covariance, s.covariance)
    np.testing.assert_array_equal(out.mean, s.mean)
    assert out.count == s.count


def test_debias_subtracts_noise_floor():
    s = GaussianSummary([0.0, 0.0], 3.0 * np.eye(2), 10)
    out = debias_covariance(s, 1.0)
    np.testing.assert_allclose(out.covariance, 2.0 * np.eye(2), rtol=1e-12)


def test_debias_clamps_at_zero():
    # sigma^2 exceeds every eigenvalue, result collapses to 0
    s = GaussianSummary([0.0, 0.0], 0.5 * np.eye(2), 10)
    out = debias_covariance(s, 1.0)
    np.testing.assert_allclose(out.covariance, np.zeros((2, 2)), atol=1e-15)


def test_debias_spectral_oracle(rng):
    # eigenvalues shift by exactly sigma^2, clamped at 0
    s = summarize(EmbeddingSet(rng.standard_normal((50, 4)), 100.0, False))
    sigma = 0.8
    out = debias_covariance(s, sigma)
    before = np.linalg.eigvalsh(s.covariance)
    after = np.linalg.eigvalsh(out.covariance)
    np.testing.assert_allclose(after, np.maximum(before - sigma**2, 0.0), atol=1e-10)


def test_debias_rejects_negative_sigma(rng):
    s = summarize(EmbeddingSet(rng.standard_normal((20, 3)), 100.0, False))
    with pytest.raises(ParameterError):
        debias_covariance(s, -1.0)


def test_debias_bit_equal_to_eigh_clamp_formula(rng):
    # the formula debias used before it shared psd_clamp's rebuild step:
    # ascending eigh of the shifted covariance, every negative clamped to 0
    for dim, sigma in ((3, 0.5), (8, 0.9), (24, 1.1), (24, 0.05)):
        v = rng.standard_normal((40, dim)) + sigma * rng.standard_normal((40, dim))
        s = summarize(EmbeddingSet(v, 100.0, False))
        shifted = s.covariance - sigma**2 * np.eye(dim)
        w, q = np.linalg.eigh(shifted)
        rebuilt = (q * np.maximum(w, 0.0)) @ q.T
        expected = GaussianSummary(s.mean, (rebuilt + rebuilt.T) / 2.0, s.count)
        out = debias_covariance(s, sigma)
        assert out.covariance.tobytes() == expected.covariance.tobytes()
        assert out.mean.tobytes() == s.mean.tobytes() and out.count == s.count


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_debias_of_a_rank_deficient_covariance_is_trusted_as_rebuilt(rng, dim):
    # n < d rows: the shift turns the null space and the smaller eigenvalues
    # negative, and debias clamps them all. Its covariance is the rebuild bit
    # for bit, and psd_clamp returns that rebuild unchanged: a check of the
    # result could only give back the same bits.
    sigma = 1.0
    s = summarize(EmbeddingSet(rng.standard_normal((dim // 2, dim)), 100.0, False))
    w, q = np.linalg.eigh(s.covariance - sigma**2 * np.eye(dim))
    assert (w < 0.0).sum() > dim // 2 and w[-1] > 0.0
    rebuilt = (q * np.maximum(w, 0.0)) @ q.T
    out = debias_covariance(s, sigma)
    assert out.covariance.tobytes() == ((rebuilt + rebuilt.T) / 2.0).tobytes()
    assert psd_clamp(out.covariance).tobytes() == out.covariance.tobytes()
