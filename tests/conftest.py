"""Shared helpers for the test suite."""

import os
import sys

# One BLAS thread: with the default of one per core, the timed acceptance
# criteria slow several-fold when any other process competes for the cores.
# OpenBLAS reads this only when numpy is first imported, so it must be set
# here, before any import of numpy.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from priarta import GaussianSummary


def random_psd(rng, dim, scale=1.0):
    """Random PSD matrix with eigenvalues in (0, scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eig = rng.random(dim) * scale + 1e-6
    return (q * eig) @ q.T


def random_summary(rng, dim, mean_scale=1.0, cov_scale=1.0, count=64):
    mean = rng.standard_normal(dim) * mean_scale
    return GaussianSummary(mean, random_psd(rng, dim, cov_scale), count)


# Dataset files the readers must reject as FileFormatError naming path:line,
# with that line: a label outside int64 (either sign) and a header width no
# row can have.
HOSTILE_INPUTS = {
    "big-label.raw": ("PRIARTA-RAW 1\n2 2 1\n1.0\n0 1.0 2.0\n99999999999999999999 3.0 4.0\n", 5),
    "neg-label.raw": ("PRIARTA-RAW 1\n2 2 1\n1.0\n-99999999999999999999 1.0 2.0\n0 3.0 4.0\n", 4),
    "wide-p.raw": ("PRIARTA-RAW 1\n1 100000000000000000000 1\n1.0\n0 1.0 2.0\n", 2),
    "wide-d.emb": ("PRIARTA-EMB 1\n2 100000000000000000000 1.0\n0.1 0.2\n0.3 0.4\n", 2),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
