"""Print the sha256 of the seeded default-scenario reports as JSON.

Each report is the canonical bytes ``priarta value --offline --seed S``
writes for the default scenario of seed S (``run_valuation_for_config`` then
``dumps_report``): a change that keeps these digests keeps every seeded
report byte for byte. The output maps each seed to its full digest and the
16-hex-digit prefix quoted in change notes.

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
from priarta.valuation import dumps_report, run_valuation_for_config  # noqa: E402

SEEDS = (7, 1003)


def report_digest(seed: int) -> str:
    report = run_valuation_for_config(default_scenario(seed))
    return hashlib.sha256(dumps_report(report).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    digests = {str(seed): report_digest(seed) for seed in args.seeds}
    json.dump({"sha256": digests,
               "prefix": {seed: digest[:16] for seed, digest in digests.items()}},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
