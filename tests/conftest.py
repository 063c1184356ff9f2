"""Shared helpers for the test suite."""

import json
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

from priarta import GaussianSummary, default_scenario


def random_psd(rng, dim, scale=1.0):
    """Random PSD matrix with eigenvalues in (0, scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eig = rng.random(dim) * scale + 1e-6
    return (q * eig) @ q.T


def random_summary(rng, dim, mean_scale=1.0, cov_scale=1.0, count=64):
    mean = rng.standard_normal(dim) * mean_scale
    return GaussianSummary(mean, random_psd(rng, dim, cov_scale), count)


# Dataset files (their bytes) the readers must reject as FileFormatError
# naming path:line, with that line: a label outside int64 (either sign), a
# header width no row can have, and bytes that are not UTF-8 (a UTF-16
# byte-order mark, or one stray byte in a row past the header).
HOSTILE_INPUTS = {
    "big-label.raw": (b"PRIARTA-RAW 1\n2 2 1\n1.0\n0 1.0 2.0\n99999999999999999999 3.0 4.0\n", 5),
    "neg-label.raw": (b"PRIARTA-RAW 1\n2 2 1\n1.0\n-99999999999999999999 1.0 2.0\n0 3.0 4.0\n", 4),
    "wide-p.raw": (b"PRIARTA-RAW 1\n1 100000000000000000000 1\n1.0\n0 1.0 2.0\n", 2),
    "wide-d.emb": (b"PRIARTA-EMB 1\n2 100000000000000000000 1.0\n0.1 0.2\n0.3 0.4\n", 2),
    "utf16-bom.raw": (b"\xff\xfeP\x00R\x00I\x00\n\x00", 1),
    "stray-byte.emb": (b"PRIARTA-EMB 1\n2 2 1.0\n0.1 0.2\n0.3 \xe90.4\n", 4),
}

# JSON files (configs, specs, reports) every command that reads one must
# reject with exit code 1: bytes that are not UTF-8, nesting deeper than the
# parser's recursion limit, and an integer past Python's digit limit.
HOSTILE_JSON = {
    "utf16-bom.json": b"\xff\xfe{\x00}\x00",
    "deep.json": b"[" * 100_000,
    "long-int.json": b"1" * 5000,
}


def _negative_seed_config(where: str) -> bytes:
    config = default_scenario(7).to_dict()
    if where == "augmentation":
        config["sellers"][2]["augmentation"]["seed"] = -5
    else:
        config["class_means"] = {"seed": -5, "norm": 0.55}
    return json.dumps(config).encode()


# Well-formed JSON with a value no rule allows: a negative seed in an encoder
# spec, and in a scenario config's augmentation and class-means generator.
# Every command that reads one must exit 1 with one "error:" line.
HOSTILE_VALUES = {
    "negative-seed.spec.json": json.dumps({
        "kind": "toy_projection", "seed": -5, "input_dim": 16, "latent_dim": 4,
        "signal_dims": 8, "leakage_alpha": 0.0,
    }).encode(),
    "negative-augmentation-seed.config.json": _negative_seed_config("augmentation"),
    "negative-class-means-seed.config.json": _negative_seed_config("class_means"),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
