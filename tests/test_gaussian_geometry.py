"""Symmetric-matrix numerics and the closed-form Gaussian W2 distance."""

import math

import numpy as np
import pytest
import scipy.linalg

from priarta import (
    ConvergenceError,
    GaussianSummary,
    NotPSDError,
    NumericInputError,
    ShapeError,
    psd_clamp,
    symmetrize,
    wasserstein2_gaussian,
)
from priarta.gaussian_geometry import _eigh

from conftest import random_psd, random_summary

# Relative residual budget for linear-algebra identities in double precision.
LIN_TOL = 1e-8


# ---------------------------------------------------------------- symmetrize


def test_symmetrize_averages_off_diagonal():
    a = np.array([[1.0, 2.0], [4.0, 5.0]])
    out = symmetrize(a)
    np.testing.assert_array_equal(out, [[1.0, 3.0], [3.0, 5.0]])
    np.testing.assert_array_equal(out, out.T)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ShapeError):
        symmetrize(np.ones((2, 3)))


BIG = np.finfo(float).max
# Matrices near the float64 limit, some of whose sums A_ij + A_ji overflow.
SYMMETRIZE_EDGES = {
    "1e308-diagonal": 1e308 * np.eye(2),
    "8.9e307-diagonal": 8.9e307 * np.eye(3),
    "max-pair": np.array([[0.0, BIG], [BIG, 0.0]]),
    "half-max-pair": np.array([[0.0, BIG / 2.0], [BIG / 2.0, 0.0]]),
    "above-half-max-pair": np.array([[0.0, np.nextafter(BIG / 2.0, BIG)], [BIG / 2.0, 0.0]]),
    "max-opposite-signs": np.array([[0.0, BIG], [-BIG, 0.0]]),
    "max-one-side": np.array([[1.0, BIG], [0.0, 1.0]]),
    "1e308-pair": np.array([[1.0, 1e308], [1e308, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIZE_EDGES))
def test_symmetrize_raises_exactly_when_the_result_overflows(name):
    a = SYMMETRIZE_EDGES[name]
    with np.errstate(over="ignore"):
        oracle = (a + a.T) / 2.0
    if np.isfinite(oracle).all():
        assert symmetrize(a).tobytes() == oracle.tobytes()
    else:
        with pytest.raises(NumericInputError, match="overflow"):
            symmetrize(a)


def test_summary_rejects_a_covariance_that_overflows():
    with pytest.raises(NumericInputError):
        GaussianSummary(np.zeros(2), 1e308 * np.eye(2), 8)


# ---------------------------------------------------------------------- eigh


def test_eigh_identity():
    values, vectors = _eigh(np.eye(2), "matrix")
    np.testing.assert_allclose(values, [1.0, 1.0])
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(2), atol=1e-14)


def test_eigh_diagonal():
    values, vectors = _eigh(np.diag([4.0, 1.0]), "matrix")
    np.testing.assert_allclose(values, [1.0, 4.0])
    # axis-aligned eigenvectors up to sign
    np.testing.assert_allclose(np.abs(vectors), np.eye(2)[:, ::-1], atol=1e-14)


def test_eigh_hand_case():
    # characteristic polynomial x^2 - 4x + 3 has roots 1 and 3
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    values, vectors = _eigh(a, "matrix")
    np.testing.assert_allclose(values, [1.0, 3.0], rtol=1e-12)
    recon = (vectors * values) @ vectors.T
    assert np.linalg.norm(recon - a) <= LIN_TOL * max(1.0, np.linalg.norm(a))


def test_eigh_ascending_and_orthonormal(rng):
    for dim in (1, 3, 8, 32):
        a = symmetrize(rng.standard_normal((dim, dim)))
        values, vectors = _eigh(a, "matrix", psd=False)
        assert np.all(np.diff(values) >= 0)
        gram = vectors.T @ vectors
        assert np.linalg.norm(gram - np.eye(dim)) <= LIN_TOL
        recon = (vectors * values) @ vectors.T
        assert np.linalg.norm(recon - a) <= LIN_TOL * max(1.0, np.linalg.norm(a))


def test_eigh_failure_is_a_convergence_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(ConvergenceError, match="eigendecomposition of covariance did not"):
        psd_clamp(np.diag([1.0, -1e-14]), name="covariance")
    a = GaussianSummary(np.zeros(2), np.eye(2), 5)
    b = GaussianSummary(np.ones(2), np.eye(2), 5)
    with pytest.raises(ConvergenceError, match="of cross-covariance term did not"):
        wasserstein2_gaussian(a, b)


# ----------------------------------------------------------------- psd_clamp


def test_psd_clamp_zeroes_tiny_negatives():
    a = np.diag([1.0, -1e-14])
    out = psd_clamp(a)
    assert np.all(np.linalg.eigvalsh(out) >= 0.0)


def test_psd_clamp_rejects_genuine_negatives():
    with pytest.raises(NotPSDError) as info:
        psd_clamp(np.diag([1.0, -0.5]))
    assert info.value.offending_eigenvalue == pytest.approx(-0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_clamp_and_summary_reject_nonfinite(bad):
    a = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericInputError):
        psd_clamp(a)
    with pytest.raises(NumericInputError):
        GaussianSummary(np.zeros(2), a, 5)


# ----------------------------------------------------------- GaussianSummary


def test_summary_validates_and_freezes():
    s = GaussianSummary([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]], 10)
    assert s.dim == 2
    assert s.count == 10
    np.testing.assert_array_equal(s.covariance, s.covariance.T)
    with pytest.raises(ValueError):
        s.mean[0] = 99.0
    with pytest.raises(ValueError):
        s.covariance[0, 0] = 99.0


def test_summary_symmetrizes_covariance():
    s = GaussianSummary([0.0, 0.0], [[1.0, 0.2], [0.4, 1.0]], 5)
    assert s.covariance[0, 1] == s.covariance[1, 0] == pytest.approx(0.3)


def test_summary_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        GaussianSummary([0.0, 1.0], [[1.0]], 5)
    with pytest.raises(NumericInputError):
        GaussianSummary([np.nan], [[1.0]], 5)
    with pytest.raises(Exception):
        GaussianSummary([0.0], [[1.0]], 1)  # count below 2
    with pytest.raises(NotPSDError):
        GaussianSummary([0.0, 0.0], np.diag([1.0, -1.0]), 5)


# ------------------------------------------------------------------------ W2


def test_w2_identical_is_zero(rng):
    a = random_summary(rng, 4)
    w = wasserstein2_gaussian(a, a)
    assert 0.0 <= w <= 1e-9 * (1.0 + np.trace(a.covariance))


def test_w2_one_dimensional():
    # (0-3)^2 + (1-2)^2 = 10 for N(0,1) vs N(3,4)
    a = GaussianSummary([0.0], [[1.0]], 10)
    b = GaussianSummary([3.0], [[4.0]], 10)
    w = wasserstein2_gaussian(a, b)
    assert abs(w - math.sqrt(10.0)) <= 1e-9 * math.sqrt(10.0)


def test_w2_two_dimensional_diagonal():
    a = GaussianSummary([0.0, 0.0], np.diag([1.0, 4.0]), 10)
    b = GaussianSummary([0.0, 0.0], np.diag([4.0, 1.0]), 10)
    w = wasserstein2_gaussian(a, b)
    assert abs(w - math.sqrt(2.0)) <= 1e-9 * math.sqrt(2.0)


def test_w2_commuting_reduction(rng):
    # diagonal covariances reduce to a per-axis formula
    for dim in (1, 3, 8):
        mu_a = rng.standard_normal(dim)
        mu_b = rng.standard_normal(dim)
        la = rng.random(dim) + 0.1
        lb = rng.random(dim) + 0.1
        a = GaussianSummary(mu_a, np.diag(la), 10)
        b = GaussianSummary(mu_b, np.diag(lb), 10)
        expected = math.sqrt(
            float(np.sum((mu_a - mu_b) ** 2) + np.sum((np.sqrt(la) - np.sqrt(lb)) ** 2))
        )
        assert abs(wasserstein2_gaussian(a, b) - expected) <= 1e-9 * expected


def test_w2_symmetry_and_triangle(rng):
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        a = random_summary(rng, dim)
        b = random_summary(rng, dim)
        c = random_summary(rng, dim)
        ab = wasserstein2_gaussian(a, b)
        ba = wasserstein2_gaussian(b, a)
        assert abs(ab - ba) <= 1e-9 * (1.0 + ab)
        ac = wasserstein2_gaussian(a, c)
        bc = wasserstein2_gaussian(b, c)
        assert ac <= ab + bc + 1e-8 * (1.0 + ab + bc)


def test_w2_translation_invariance(rng):
    a = random_summary(rng, 5)
    b = random_summary(rng, 5)
    t = rng.standard_normal(5) * 10.0
    w0 = wasserstein2_gaussian(a, b)
    w1 = wasserstein2_gaussian(
        GaussianSummary(a.mean + t, a.covariance, a.count),
        GaussianSummary(b.mean + t, b.covariance, b.count),
    )
    assert abs(w0 - w1) <= 1e-9 * (1.0 + w0)


def test_w2_orthogonal_equivariance(rng):
    a = random_summary(rng, 6)
    b = random_summary(rng, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    w0 = wasserstein2_gaussian(a, b)
    w1 = wasserstein2_gaussian(
        GaussianSummary(q @ a.mean, q @ a.covariance @ q.T, a.count),
        GaussianSummary(q @ b.mean, q @ b.covariance @ q.T, b.count),
    )
    assert abs(w0 - w1) <= 1e-8 * (1.0 + w0)


def test_w2_homogeneity(rng):
    a = random_summary(rng, 4)
    b = random_summary(rng, 4)
    w0 = wasserstein2_gaussian(a, b)
    for s in (0.5, 2.0, 7.25):
        w1 = wasserstein2_gaussian(
            GaussianSummary(s * a.mean, s * s * a.covariance, a.count),
            GaussianSummary(s * b.mean, s * s * b.covariance, b.count),
        )
        assert abs(w1 - s * w0) <= 1e-9 * s * w0


def test_w2_dim_mismatch():
    a = GaussianSummary([0.0], [[1.0]], 5)
    b = GaussianSummary([0.0, 0.0], np.eye(2), 5)
    with pytest.raises(ShapeError):
        wasserstein2_gaussian(a, b)


# ------------------------------------------- psd_clamp against the eigen path


def eigen_path_psd_clamp(a, name="matrix"):
    """psd_clamp as it was before Cholesky-first validation: every input is
    eigendecomposed (ascending order), noise negatives are clamped and the
    matrix rebuilt, anything below -1e-10 * lambda_max is rejected."""
    sym = (a + a.T) / 2.0
    w, q = np.linalg.eigh(sym)
    floor = -1e-10 * max(float(w[-1]), 0.0)
    lam_min = float(w[0])
    if lam_min < floor:
        raise NotPSDError(
            f"{name} is not PSD within tolerance: eigenvalue {lam_min:.6e} "
            f"is below {floor:.6e}",
            offending_eigenvalue=lam_min,
        )
    if lam_min >= 0.0:
        return sym
    rebuilt = (q * np.maximum(w, 0.0)) @ q.T
    return (rebuilt + rebuilt.T) / 2.0


def with_spectrum(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    return (q * np.asarray(eigenvalues)) @ q.T


def test_psd_clamp_bit_equal_to_eigen_path(rng):
    positive_definite = [random_psd(rng, dim, scale=3.0) for dim in (1, 3, 16, 64)]
    positive_definite.append(with_spectrum(rng, np.logspace(0.0, -11.0, 24)))
    positive_definite.append(random_psd(rng, 8) + 1e-9 * rng.standard_normal((8, 8)))
    tiny_negative = [
        np.diag([1.0, -1e-14]),
        with_spectrum(rng, np.r_[np.linspace(1.0, 0.1, 11), -1e-12]),
        with_spectrum(rng, np.r_[np.linspace(2.0, 0.5, 30), -1e-13, -5e-12]),
    ]
    for a in positive_definite + tiny_negative:
        expected = eigen_path_psd_clamp(a)
        got = psd_clamp(a)
        assert got.tobytes() == expected.tobytes()
        assert psd_clamp(got).tobytes() == got.tobytes()  # idempotent
    # the tiny-negative inputs really took the clamp-and-rebuild branch
    for a in tiny_negative:
        assert psd_clamp(a).tobytes() != ((a + a.T) / 2.0).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64])
def test_psd_clamp_of_a_clamped_matrix_is_the_same_bits(rng, dim):
    # A rebuilt matrix is singular; eigh of it reports negatives of rounding
    # size, and those must not send it through a second rebuild.
    for _ in range(40):
        k = int(rng.integers(1, dim))
        positive = rng.uniform(0.01, 3.0, dim - k) * 10.0 ** rng.uniform(-3.0, 3.0)
        negative = -rng.uniform(0.1, 1.0, k) * 10.0 ** rng.uniform(-13.0, -10.5) * positive.max()
        a = with_spectrum(rng, np.r_[positive, negative])
        got = psd_clamp(a)
        assert got.tobytes() != ((a + a.T) / 2.0).tobytes()  # rebuilt
        assert psd_clamp(got).tobytes() == got.tobytes()


def test_psd_clamp_rejects_like_eigen_path(rng):
    rejected = [
        np.diag([1.0, -0.5]),
        with_spectrum(rng, np.r_[np.linspace(1.0, 0.2, 9), -1e-3]),
        -random_psd(rng, 5),
    ]
    for a in rejected:
        with pytest.raises(NotPSDError) as want:
            eigen_path_psd_clamp(a, name="covariance")
        with pytest.raises(NotPSDError) as got:
            psd_clamp(a, name="covariance")
        assert str(got.value) == str(want.value)
        assert got.value.offending_eigenvalue == want.value.offending_eigenvalue


def test_psd_clamp_eigendecomposes_only_what_cholesky_rejects(rng, monkeypatch):
    calls = []
    for name in ("cholesky", "eigh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _n=name, _o=original: calls.append(_n) or _o(a))
    GaussianSummary(np.zeros(16), random_psd(rng, 16), 10)
    assert calls == ["cholesky"]
    calls.clear()
    GaussianSummary(np.zeros(2), np.diag([1.0, -1e-14]), 10)
    assert calls == ["cholesky", "eigh"]


# ------------------------------------------------- W2 against the scipy oracle


def w2_squared_oracle(a, b):
    """(W2^2, scale) through scipy's Schur-based square root, as the
    benchmark's output check computes it."""
    root_a = np.real(scipy.linalg.sqrtm(a.covariance))
    cross = np.real(scipy.linalg.sqrtm(root_a @ b.covariance @ root_a))
    diff = a.mean - b.mean
    scale = float(diff @ diff) + float(np.trace(a.covariance)) + float(np.trace(b.covariance))
    return scale - 2.0 * float(np.trace(cross)), scale


def assert_w2_matches_oracle(a, b):
    expected, scale = w2_squared_oracle(a, b)
    got = wasserstein2_gaussian(a, b)
    assert abs(got * got - expected) <= 1e-9 * scale


def test_w2_ill_conditioned_buyer_takes_cholesky(rng):
    dim = 32
    buyer_cov = with_spectrum(rng, np.logspace(0.0, -10.5, dim))
    buyer = GaussianSummary(rng.standard_normal(dim), buyer_cov, 64)
    assert np.linalg.cond(buyer.covariance) >= 1e10
    np.linalg.cholesky(buyer.covariance)  # the factor is the Cholesky one
    for _ in range(3):
        assert_w2_matches_oracle(buyer, random_summary(rng, dim))


def test_w2_rank_deficient_buyer_takes_eigen_fallback(rng):
    # 32 rows in d = 64 whose last 33 coordinates are constant: the sample
    # covariance has rank 31 and an exactly zero null block, so the true W2
    # is well defined to double precision and the oracle can be scipy's
    # square root of the live 31 x 31 block.
    dim, rows, live = 64, 32, 31
    x = rng.standard_normal((rows, dim))
    x[:, live:] = 0.25
    centered = x - x.mean(axis=0)
    buyer = GaussianSummary(x.mean(axis=0), centered.T @ centered / (rows - 1), rows)
    assert np.linalg.matrix_rank(buyer.covariance) == live
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(buyer.covariance)
    for _ in range(3):
        seller = random_summary(rng, dim)
        root = np.real(scipy.linalg.sqrtm(buyer.covariance[:live, :live]))
        cross = np.real(scipy.linalg.sqrtm(root @ seller.covariance[:live, :live] @ root))
        diff = buyer.mean - seller.mean
        scale = float(diff @ diff) + float(np.trace(buyer.covariance)) + float(
            np.trace(seller.covariance))
        expected = scale - 2.0 * float(np.trace(cross))
        got = wasserstein2_gaussian(buyer, seller)
        assert abs(got * got - expected) <= 1e-9 * scale


def test_w2_generic_rank_deficient_buyer(rng):
    # 32 generic rows in d = 64: the stored covariance carries eigenvalues of
    # rounding size (~1e-17) on its 33-dimensional null space, and sqrt is not
    # Lipschitz at 0, so every double-precision evaluation of the cross term
    # (scipy's included) scatters by ~(d - rank) * sqrt(eps * ||Sigma||); the
    # bound here is 1e-8 of the scale. The oracle is scipy's square root of
    # the 32 x 32 matrix Y Sigma_s Y^T, which shares the nonzero spectrum of
    # Sigma_b^{1/2} Sigma_s Sigma_b^{1/2} for Sigma_b = Y^T Y.
    dim, rows = 64, 32
    x = rng.standard_normal((rows, dim))
    y = (x - x.mean(axis=0)) / math.sqrt(rows - 1)
    buyer = GaussianSummary(x.mean(axis=0), y.T @ y, rows)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(buyer.covariance)
    for _ in range(3):
        seller = random_summary(rng, dim)
        cross = np.real(scipy.linalg.sqrtm(y @ seller.covariance @ y.T))
        diff = buyer.mean - seller.mean
        scale = float(diff @ diff) + float(np.trace(buyer.covariance)) + float(
            np.trace(seller.covariance))
        expected = scale - 2.0 * float(np.trace(cross))
        got = wasserstein2_gaussian(buyer, seller)
        assert abs(got * got - expected) <= 1e-8 * scale


def test_w2_matches_oracle_at_d768(rng):
    dim = 768
    buyer = random_summary(rng, dim, cov_scale=0.01)
    seller = random_summary(rng, dim, cov_scale=0.02)
    assert_w2_matches_oracle(buyer, seller)
