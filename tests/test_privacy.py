"""Gaussian-mechanism calibration, sensitivities, and seed derivation."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

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
from priarta.privacy import _mean_epsilon, _subsampled


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


def test_budget_refuses_a_sigma_that_is_not_a_positive_finite_float():
    # R^2 underflows to 0 at R = 1e-200, overflows as a power at R = 1e200,
    # and 4R^2 reaches inf at R = 1e154; none of these calibrates a noise
    # scale, and checking that emits no calibration warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radius in (1e-200, 1e154, 1e200):
            with pytest.raises(ParameterError, match="positive finite sigma"):
                PrivacyBudget(0.8, 1e-5, radius, 512)
        PrivacyBudget(0.8, 1e-5, 0.1, 4)  # warned about only when calibrated


def _refusal_radii(n):
    """(accepted, refused): the clip radii either side of the smallest one
    PrivacyBudget(0.8, 1e-5, R, n) refuses, by bisection on log R."""
    accepted, refused = 1.0, 1e150
    for _ in range(100):
        mid = math.sqrt(accepted * refused)
        try:
            PrivacyBudget(0.8, 1e-5, mid, n)
            accepted = mid
        except ParameterError:
            refused = mid
    return accepted, refused


@pytest.mark.parametrize("n", [2, 3, 16, 512])
def test_a_budget_refused_for_overflow_never_had_a_finite_summary(n):
    # Just past the refusal, the second moments of n noised rows clipped to
    # the ball overflow in every coordinate at every seed tried; so the
    # refusal turns away no budget that yields a summary. Oracle: sigma from
    # the closed form and numpy's own draw, centering and product.
    accepted, refused = _refusal_radii(n)
    assert refused / accepted < 1.0 + 1e-12
    with pytest.raises(ParameterError, match="overflows the noised covariance"):
        PrivacyBudget(0.8, 1e-5, refused, n)
    c = math.sqrt(2.0 * math.log(1.25 / 1e-5))
    sigma = c * (4.0 * refused**2 / n + 8.0 * refused**2 / n**2) / 0.8
    rows = np.random.default_rng(n).standard_normal((n, 4))
    rows *= refused / np.linalg.norm(rows, axis=1)[:, None]
    for seed in range(50):
        noisy = rows + np.random.Generator(np.random.PCG64(seed)).normal(0.0, sigma, rows.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            centered = noisy - noisy.mean(axis=0)
            second = centered.T @ centered
        assert not np.isfinite(np.diag(second)).any()


def test_the_default_budget_at_clip_radius_1e100_is_refused():
    # sigma ~ 4.7e198: its square alone is past the float range
    with pytest.raises(ParameterError, match="overflows the noised covariance of 512 rows"):
        PrivacyBudget(0.8, 1e-5, 1e100, 512)


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


@pytest.mark.parametrize("epsilon, delta, radius, count", [
    (0.8, 1e-5, 1.0, 512), (0.8, 1e-5, 1.0, 4096), (0.8, 1e-5, 1.0, 100_000),
    (0.8, 1e-9, 0.5, 1024), (0.5, 1e-200, 1.0, 512),
], ids=["defaults", "n-4096", "n-100000", "delta-1e-9", "delta-1e-200"])
def test_mean_epsilon_solves_the_analytic_gaussian_condition(epsilon, delta, radius, count):
    # Balle & Wang's condition on the released mean (noise std sigma/sqrt(n),
    # sensitivity 2R/n), through scipy's normal CDF, solved by brentq up to
    # the epsilon where its first term alone is delta
    budget = PrivacyBudget(epsilon, delta, radius, count)
    u = mean_sensitivity(radius, count) * math.sqrt(count) / budget._calibration.sigma

    def excess(eps):
        return norm.cdf(u / 2 - eps / u) - math.exp(eps) * norm.cdf(-u / 2 - eps / u) - delta

    want = brentq(excess, 0.0, u * (u / 2 - norm.ppf(delta)), xtol=1e-300, rtol=1e-14)
    assert _mean_epsilon(budget) == pytest.approx(want, rel=1e-9)


def test_mean_epsilon_at_the_quoted_budgets():
    # the figures the README quotes: the defaults, and a subset of 4096
    assert round(_mean_epsilon(PrivacyBudget(0.8, 1e-5, 1.0, 512)), 3) == 9.151
    assert round(_mean_epsilon(PrivacyBudget(0.8, 1e-5, 1.0, 4096)), 2) == 35.74
    # noise this large against the sensitivity meets delta at epsilon = 0
    assert _mean_epsilon(PrivacyBudget(0.8, 0.5, 1.0, 2)) == 0.0


def mean_epsilon_oracle(budget):
    """Balle & Wang's condition solved in 50-digit arithmetic, for the same
    float u as the package: bisection to far below double precision."""
    with mpmath.workdps(50):
        u = mpmath.mpf(mean_sensitivity(budget.clip_radius, budget.subset_size)
                       * math.sqrt(budget.subset_size) / budget._calibration.sigma)

        def excess(eps):
            return (mpmath.ncdf(u / 2 - eps / u)
                    - mpmath.exp(eps) * mpmath.ncdf(-u / 2 - eps / u) - mpmath.mpf(budget.delta))

        low, high = mpmath.mpf(0), mpmath.mpf(1)
        while excess(high) > 0:
            low, high = high, 2 * high
        for _ in range(200):
            mid = (low + high) / 2
            low, high = (low, mid) if excess(mid) <= 0 else (mid, high)
        return float(high)


@pytest.mark.parametrize("radius", [1.0, 0.01], ids=["R-1", "R-0.01"])
@pytest.mark.parametrize("delta", [1e-5, 1e-12])
@pytest.mark.parametrize("count", [512, 4096, 100_000])
def test_mean_epsilon_matches_a_50_digit_oracle(count, delta, radius):
    # At R = 0.01 the mean's sensitivity is 120 to 2600 noise stds:
    # Phi(-u/2 - epsilon/u) underflows and e^epsilon overflows in floats, and
    # the condition is compared in log space
    budget = PrivacyBudget(0.8, delta, radius, count)
    got = _mean_epsilon(budget)
    assert math.isfinite(got)
    dps = mpmath.mp.dps
    assert abs(got - mean_epsilon_oracle(budget)) <= 1e-13 * got
    assert mpmath.mp.dps == dps  # the oracle's precision is its own


def test_subsampling_amplifies_the_quoted_mean_epsilon():
    # A seller of 4096 or 1024 rows draws the default subset of 512.
    epsilon = _mean_epsilon(PrivacyBudget(0.8, 1e-5, 1.0, 512))
    eps, delta = _subsampled(epsilon, 1e-5, 512 / 4096)
    assert (round(eps, 3), delta) == (7.072, 1.25e-6)
    eps, delta = _subsampled(epsilon, 1e-5, 512 / 1024)
    assert (round(eps, 3), delta) == (8.458, 5e-6)
    assert _subsampled(epsilon, 1e-5, 1.0) == (epsilon, 1e-5)


def subsampled_oracle(epsilon, q):
    """log(1 + q(e^epsilon - 1)) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        return float(mpmath.log(1 + mpmath.mpf(q) * mpmath.expm1(mpmath.mpf(epsilon))))


@pytest.mark.parametrize("q", [1.0, 0.5, 0.125, 1e-3, 1e-9])
@pytest.mark.parametrize("budget", [
    PrivacyBudget(0.8, 1e-5, 1.0, 512),
    PrivacyBudget(0.8, 1e-12, 1.0, 4096),
    PrivacyBudget(0.8, 1e-5, 0.01, 512),  # its epsilon is past 709
    PrivacyBudget(0.8, 1e-12, 0.01, 100_000),
], ids=["defaults", "4096", "R-0.01", "R-0.01-100000"])
def test_subsampled_matches_a_50_digit_oracle(budget, q):
    epsilon = _mean_epsilon(budget)
    dps = mpmath.mp.dps
    for eps in (epsilon, 1e-12, 709.0, 710.0):
        got, delta = _subsampled(eps, budget.delta, q)
        assert math.isfinite(got) and delta == q * budget.delta
        want = subsampled_oracle(eps, q)
        assert abs(got - want) <= 1e-15 * want
    assert mpmath.mp.dps == dps


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


@pytest.mark.parametrize("seed", [7.9, 7.0, True, -1, "7"])
def test_derive_seed_refuses_a_master_seed_that_is_not_an_integer(seed):
    # Checked by type, never truncated: 7.9 would share seed 7's streams.
    with pytest.raises(ParameterError, match="master seed must be an integer >= 0"):
        derive_seed(seed, "seller-1", "subset")


def test_secure_seed_range_and_variation():
    draws = {secure_seed() for _ in range(8)}
    assert len(draws) > 1
    assert all(0 <= s < 2**63 for s in draws)


def test_sampler_constant():
    assert GAUSSIAN_SAMPLER == "pcg64-ziggurat"
