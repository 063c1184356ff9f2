"""The committed measurement scripts under tools/ still run."""

import hashlib
import json
import math
from pathlib import Path
import subprocess
import sys

from conftest import package_env
from priarta import default_scenario
from priarta.fileio import dumps_json
from priarta.valuation import dumps_report, robustness_for_config, run_valuation_for_config

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_corner_script_at_a_tiny_dimension():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "corner.py"), "--dim", "24", "--subset", "16",
         "--rounds", "2"],
        env=package_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert (out["dim"], out["subset"], out["sellers"]) == (24, 16, 4)
    assert len(out["round_s"]) == 2 and all(t > 0 for t in out["round_s"])
    sellers = [f"seller-{i}" for i in range(1, 5)]
    assert sorted(out["raw_w2"]) == sorted(out["ranking"]) == sellers
    assert all(math.isfinite(w) and w > 0 for w in out["raw_w2"].values())
    # A 16-row subset in d = 24 leaves every seller covariance singular: the
    # buyer checks each one's eigenvalues alone, with no Cholesky, then scores
    # it with one more eigvalsh. Its own 4096 rows factor by Cholesky in the
    # first round on that dataset only, and no eigh runs anywhere.
    first, later = out["decompositions"]
    assert first == {"cholesky": 1, "eigh": 0, "eigvalsh": 4 + 4}
    assert later == {"cholesky": 0, "eigh": 0, "eigvalsh": 4 + 4}


def test_identity_script_prints_the_digest_of_a_seeded_report():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "identity.py"), "--seeds", "7"],
        env=package_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    report = dumps_report(run_valuation_for_config(default_scenario(7)))
    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    entries = dumps_json([e.to_dict() for e in robustness_for_config(default_scenario(7))])
    robust = hashlib.sha256(entries.encode("utf-8")).hexdigest()
    assert out == {"sha256": {"7": digest}, "prefix": {"7": digest[:16]},
                   "robustness_sha256": {"7": robust}, "robustness_prefix": {"7": robust[:16]}}


def test_buyer_time_script_replays_a_round_to_the_live_report():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "buyer_time.py"), "--sellers", "3", "--dim", "4",
         "--rounds", "2"],
        env=package_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert (out["dim"], out["sellers"], out["reports_match"]) == (4, 3, True)
    assert len(out["live_round_s"]) == len(out["replay_round_s"]) == 2
    assert out["best_replay_round_s"] == min(out["replay_round_s"]) > 0
    assert out["buyer_us_per_seller"] == out["best_replay_round_s"] / 3 * 1e6
