"""Print the sha256 of the seeded default-scenario reports and robustness
entries as JSON.

Each report is the canonical bytes ``priarta value --offline --seed S``
writes for the default scenario of seed S (``run_valuation_for_config`` then
``dumps_report``): a change that keeps these digests keeps every seeded
report byte for byte. The robustness entries are those ``priarta robustness
--seed S`` appends (``robustness_for_config``), as canonical JSON. The output
maps each seed to its full digests and the 16-hex-digit prefixes quoted in
change notes.

    PYTHONPATH=src python tools/identity.py [--seeds 7 1003]
"""

import argparse
import hashlib
import json
import os
import sys

# OpenBLAS reads its thread count once, when numpy is first imported: one
# thread, as the tests run, unless the environment sets another.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from priarta import default_scenario  # noqa: E402
from priarta.fileio import dumps_json  # noqa: E402
from priarta.valuation import (  # noqa: E402
    dumps_report, robustness_for_config, run_valuation_for_config)

SEEDS = (7, 1003)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(seed: int) -> str:
    return _sha256(dumps_report(run_valuation_for_config(default_scenario(seed))))


def robustness_digest(seed: int) -> str:
    entries = robustness_for_config(default_scenario(seed))
    return _sha256(dumps_json([e.to_dict() for e in entries]))


def _prefixes(digests: dict) -> dict:
    return {seed: digest[:16] for seed, digest in digests.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    reports = {str(seed): report_digest(seed) for seed in args.seeds}
    robustness = {str(seed): robustness_digest(seed) for seed in args.seeds}
    json.dump({"sha256": reports, "prefix": _prefixes(reports),
               "robustness_sha256": robustness, "robustness_prefix": _prefixes(robustness)},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
