"""Shared helpers for the test suite."""

import json
import os
from pathlib import Path
import sys

# One BLAS thread: with the default of one per core, the timed acceptance
# criteria slow several-fold when any other process competes for the cores.
# OpenBLAS reads this only when numpy is first imported, so it must be set
# here, before any import of numpy.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

import priarta
from priarta import GaussianSummary, default_scenario


def package_env():
    """The environment for a child process that imports the same package as
    the tests, installed or not."""
    package_root = str(Path(priarta.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


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
# header width no row can have, a header radius that is not finite, and bytes
# that are not UTF-8 (a UTF-16 byte-order mark, or one stray byte in a row
# past the header).
HOSTILE_INPUTS = {
    "big-label.raw": (b"PRIARTA-RAW 1\n2 2 1\n1.0\n0 1.0 2.0\n99999999999999999999 3.0 4.0\n", 5),
    "neg-label.raw": (b"PRIARTA-RAW 1\n2 2 1\n1.0\n-99999999999999999999 1.0 2.0\n0 3.0 4.0\n", 4),
    "wide-p.raw": (b"PRIARTA-RAW 1\n1 100000000000000000000 1\n1.0\n0 1.0 2.0\n", 2),
    "wide-d.emb": (b"PRIARTA-EMB 1\n2 100000000000000000000 1.0\n0.1 0.2\n0.3 0.4\n", 2),
    "nan-radius.emb": (b"PRIARTA-EMB 1\n2 2 nan\n0.1 0.2\n0.3 0.4\n", 2),
    "inf-radius.emb": (b"PRIARTA-EMB 1\n2 2 inf\n0.1 0.2\n0.3 0.4\n", 2),
    "utf16-bom.raw": (b"\xff\xfeP\x00R\x00I\x00\n\x00", 1),
    "stray-byte.emb": (b"PRIARTA-EMB 1\n2 2 1.0\n0.1 0.2\n0.3 \xe90.4\n", 4),
}


def _negative_seed_config(where: str) -> bytes:
    config = default_scenario(7).to_dict()
    if where == "augmentation":
        config["sellers"][2]["augmentation"]["seed"] = -5
    else:
        config["class_means"] = {"seed": -5, "norm": 0.55}
    return json.dumps(config).encode()


def _spec(**over) -> bytes:
    spec = {"kind": "toy_projection", "seed": 7, "input_dim": 16, "latent_dim": 4,
            "signal_dims": 8, "leakage_alpha": 0.0}
    return json.dumps(dict(spec, **over)).encode()


def _privacy_config(field: str, value) -> bytes:
    config = default_scenario(7).to_dict()
    config["privacy"][field] = value
    return json.dumps(config).encode()


def _class_means_config(value) -> bytes:
    """The seed-7 config, whose class_means is its matrix, with value as the
    first entry."""
    config = default_scenario(7).to_dict()
    config["class_means"][0][0] = value
    return json.dumps(config).encode()


def _report(**over) -> bytes:
    """A two-seller valuation report, with over applied to its second entry
    (keys of SellerScore) or to the report itself."""
    entries = [
        {"node_id": "a", "raw_w2": 0.5, "normalized": 1.0, "failed": False,
         "failure_reason": None},
        {"node_id": "b", "raw_w2": 0.25, "normalized": 0.0, "failed": False,
         "failure_reason": None},
    ]
    report = {"entries": entries, "objective": "diversify", "ranking": ["a", "b"],
              "params_echo": {}, "degenerate_normalization": False, "robustness": None}
    for key, value in over.items():
        (entries[1] if key in entries[1] else report)[key] = value
    return json.dumps(report).encode()


def _robustness(node_id: str, deviation: float = 0.25) -> dict:
    """A robustness entry of baseline 0.5 and augmented 0.25."""
    return {"node_id": node_id, "baseline_w2": 0.5, "augmented_w2": 0.25,
            "deviation": deviation}


# JSON files (configs, specs, reports) every command that reads one must
# reject with exit code 1: bytes that are not UTF-8, nesting deeper than the
# parser's recursion limit, an integer past Python's digit limit, and the
# numbers canonical JSON never holds: NaN in a report's params_echo (which
# renders, and which a robustness append could not write back), and a float
# literal past the float range as a score.
HOSTILE_JSON = {
    "utf16-bom.json": b"\xff\xfe{\x00}\x00",
    "deep.json": b"[" * 100_000,
    "long-int.json": b"1" * 5000,
    "nan-echo.report.json": _report(params_echo={"epsilon": float("nan")}),
    "huge-score.report.json": _report().replace(b"0.25", b"1e400"),
}


# Well-formed JSON with a value no rule allows: a negative seed in an encoder
# spec, and in a scenario config's augmentation and class-means generator;
# an integer past the float range (1 and 400 zeros) as a spec's leakage_alpha
# and as a config's privacy.epsilon; a config's privacy.clip_radius of 1e100,
# whose noise overflows the covariance, and of 1e-200, which gives no positive
# finite sigma; a class-means matrix with an entry that is a numeric string
# or a boolean; a report whose boolean is a string, whose score is a string,
# whose ranking is a string of one-letter node ids, whose ranking leaves out a
# seller that did not fail, or where such a seller has no score; and a report
# whose values do not follow from its raw scores: its ranking reversed, a
# normalized score or degenerate_normalization its scores do not give, a
# robustness deviation other than |baseline - augmented|, a robustness entry
# for a node id it does not score, two for one seller, and one whose
# augmented score is not the seller's raw score.
# Every command that reads one must exit 1 with one "error:" line.
HOSTILE_VALUES = {
    "negative-seed.spec.json": _spec(seed=-5),
    "negative-augmentation-seed.config.json": _negative_seed_config("augmentation"),
    "negative-class-means-seed.config.json": _negative_seed_config("class_means"),
    "huge-alpha.spec.json": _spec(leakage_alpha=10**400),
    "huge-epsilon.config.json": _privacy_config("epsilon", 10**400),
    "huge-clip-radius.config.json": _privacy_config("clip_radius", 1e100),
    "tiny-clip-radius.config.json": _privacy_config("clip_radius", 1e-200),
    "string-class-means.config.json": _class_means_config("0.25"),
    "bool-class-means.config.json": _class_means_config(True),
    "string-degenerate.report.json": _report(degenerate_normalization="false"),
    "string-score.report.json": _report(raw_w2="x"),
    "string-ranking.report.json": _report(ranking="ab"),
    "unranked-seller.report.json": _report(ranking=["a"]),
    "unscored-seller.report.json": _report(raw_w2=None),
    "reversed-ranking.report.json": _report(ranking=["b", "a"]),
    "wrong-normalized.report.json": _report(normalized=0.5),
    "wrong-degenerate.report.json": _report(degenerate_normalization=True),
    "wrong-deviation.report.json": _report(robustness=[_robustness("a", 0.5)]),
    "unknown-robustness-seller.report.json": _report(robustness=[_robustness("c")]),
    "repeated-robustness-seller.report.json": _report(
        robustness=[_robustness("a"), _robustness("a")]),
    "unheld-robustness-score.report.json": _report(robustness=[_robustness("a")]),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
