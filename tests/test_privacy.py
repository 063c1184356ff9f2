"""Gaussian-mechanism calibration, sensitivities, and seed derivation."""

import math

import numpy as np
import pytest

from priarta import (
    GAUSSIAN_SAMPLER,
    EmbeddingSet,
    NumericInputError,
    ParameterError,
    PrivacyBudget,
    apply_gaussian_mechanism,
    calibrate_sigma,
    clip_to_ball,
    covariance_sensitivity,
    derive_seed,
    mean_sensitivity,
    secure_seed,
)


# ------------------------------------------------------------ PrivacyBudget


def test_budget_validates_ranges():
    PrivacyBudget(0.8, 1e-5, 1.0, 4)  # valid
    for eps in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            PrivacyBudget(eps, 1e-5, 1.0, 4)
    for delta in (0.0, 1.0, -1e-5):
        with pytest.raises(ParameterError):
            PrivacyBudget(0.8, delta, 1.0, 4)
    with pytest.raises(ParameterError):
        PrivacyBudget(0.8, 1e-5, 0.0, 4)
    with pytest.raises(ParameterError):
        PrivacyBudget(0.8, 1e-5, 1.0, 1)


# ------------------------------------------------------------- sensitivity


def test_mean_sensitivity_examples():
    assert mean_sensitivity(1.0, 4) == pytest.approx(0.5, rel=1e-15)
    assert mean_sensitivity(2.5, 10) == pytest.approx(0.5, rel=1e-15)


def test_covariance_sensitivity_examples():
    assert covariance_sensitivity(1.0, 4) == pytest.approx(1.5, rel=1e-15)
    assert covariance_sensitivity(1.0, 2) == pytest.approx(4.0, rel=1e-15)
    assert covariance_sensitivity(0.5, 100) == pytest.approx(0.0102, rel=1e-12)


def test_sensitivities_decay_with_count():
    for r in (0.5, 1.0, 3.0):
        mus = [mean_sensitivity(r, n) for n in range(2, 50)]
        sigmas = [covariance_sensitivity(r, n) for n in range(2, 50)]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def test_sensitivity_rejects_bad_args():
    with pytest.raises(ParameterError):
        mean_sensitivity(0.0, 4)
    with pytest.raises(ParameterError):
        covariance_sensitivity(1.0, 1)


# -------------------------------------------------------------- calibration


def test_calibrate_reference_point():
    # frozen from an independent high-precision evaluation of
    # c = sqrt(2 ln(1.25/delta)), sigma = c * (4R^2/n + 8R^2/n^2) / eps
    cal = calibrate_sigma(PrivacyBudget(0.8, 1e-5, 1.0, 4))
    assert cal.c == pytest.approx(4.844805262605389, abs=1e-12)
    assert cal.sigma == pytest.approx(9.084009867385104, abs=1e-12)
    assert cal.delta_mu == pytest.approx(0.5, rel=1e-15)
    assert cal.delta_sigma == pytest.approx(1.5, rel=1e-15)


def test_calibrate_scales_inversely_with_epsilon():
    lo = calibrate_sigma(PrivacyBudget(0.4, 1e-5, 1.0, 4))
    hi = calibrate_sigma(PrivacyBudget(0.8, 1e-5, 1.0, 4))
    assert lo.sigma == pytest.approx(2.0 * hi.sigma, rel=1e-15)


def test_calibrate_warns_when_mean_budget_dominates():
    # 2R/n > 4R^2/n + 8R^2/n^2 whenever R < n/(2n+4)
    with pytest.warns(UserWarning):
        calibrate_sigma(PrivacyBudget(0.8, 1e-5, 0.1, 4))


# ---------------------------------------------------------------- mechanism


def test_mechanism_requires_clipped_input(rng):
    raw = EmbeddingSet(rng.standard_normal((10, 3)), 10.0, False)
    with pytest.raises(ParameterError):
        apply_gaussian_mechanism(raw, 1.0, 42)


def test_mechanism_requires_positive_sigma(rng):
    e = clip_to_ball(rng.standard_normal((10, 3)), 1.0)
    with pytest.raises(ParameterError):
        apply_gaussian_mechanism(e, 0.0, 42)


def test_mechanism_is_seed_deterministic(rng):
    e = clip_to_ball(rng.standard_normal((20, 4)), 1.0)
    a = apply_gaussian_mechanism(e, 2.0, 12345)
    b = apply_gaussian_mechanism(e, 2.0, 12345)
    c = apply_gaussian_mechanism(e, 2.0, 54321)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert np.any(a.vectors != c.vectors)


def test_mechanism_clears_clipped_flag(rng):
    e = clip_to_ball(rng.standard_normal((20, 4)), 1.0)
    out = apply_gaussian_mechanism(e, 2.0, 7)
    assert not out.clipped
    assert out.clip_radius == e.clip_radius


def test_mechanism_returns_its_own_read_only_noisy_rows(rng):
    e = clip_to_ball(rng.standard_normal((20, 4)), 1.0)
    out = apply_gaussian_mechanism(e, 2.0, 7)
    noise = np.random.Generator(np.random.PCG64(7)).normal(0.0, 2.0, size=(20, 4))
    assert out.vectors.tobytes() == (e.vectors + noise).tobytes()
    assert not out.vectors.flags.writeable
    assert not np.shares_memory(out.vectors, e.vectors)


def test_mechanism_rejects_noise_that_overflows(rng):
    # With sigma = 1e308 some of 800 draws leave the float range.
    e = clip_to_ball(np.full((200, 4), 0.5), 1.0)
    with pytest.raises(NumericInputError) as info:
        apply_gaussian_mechanism(e, 1e308, 7)
    assert str(info.value) == "embedding vectors contain non-finite entries"


def test_mechanism_noise_statistics(rng):
    # lighter version of the acceptance check: 1e5 scalar draws
    e = clip_to_ball(rng.standard_normal((25_000, 4)), 1.0)
    sigma = 2.0
    out = apply_gaussian_mechanism(e, sigma, 99)
    noise = (out.vectors - e.vectors).ravel()
    assert abs(noise.mean()) < 4.0 * sigma / math.sqrt(noise.size)
    assert abs(noise.std(ddof=1) - sigma) < 0.03 * sigma


# -------------------------------------------------------------------- seeds


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(1000, "seller-1", "subset")
    assert a == derive_seed(1000, "seller-1", "subset")
    others = {
        derive_seed(1000, "seller-1", "noise"),
        derive_seed(1000, "seller-2", "subset"),
        derive_seed(1001, "seller-1", "subset"),
    }
    assert a not in others
    assert len(others) == 3


def test_derive_seed_range():
    for master in (0, 1, 2**40):
        for node in ("a", "buyer", "seller-7"):
            s = derive_seed(master, node, "subset")
            assert 0 <= s < 2**63


def test_secure_seed_range_and_variation():
    draws = {secure_seed() for _ in range(8)}
    assert len(draws) > 1
    assert all(0 <= s < 2**63 for s in draws)


def test_sampler_constant():
    assert GAUSSIAN_SAMPLER == "pcg64-ziggurat"
