"""Time seeded valuation rounds at the d = 768 corner and print them as JSON.

The set-up: a buyer and four sellers, each holding 4096 random pre-encoded
rows in d = 768 (row norms near 0.9, so clipping to R = 1 touches some), a
subset of 512 rows per seller, master seed 7, in-process sellers and one BLAS
thread. The subset is smaller than d, so every seller covariance is singular
and the buyer checks it by its eigenvalues alone. Each round is one
``run_valuation`` on the same buyer dataset, whose summary is made once per
dataset: the first round clips, summarizes and factors the buyer's rows, and
the later rounds reuse that summary. The output holds each round's wall time,
the numpy.linalg decompositions it made, the peak RSS and the report's raw_w2
per seller.

    PYTHONPATH=src python tools/corner.py [--dim 768] [--subset 512] [--rounds 3]
"""

import argparse
import json
import math
import os
import resource
import sys
import time

# OpenBLAS reads its thread count once, when numpy is first imported. A count
# already set in the environment is kept, and the output records it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from priarta import EmbeddingSet, EncoderSpec, PrivacyBudget, SellerNode  # noqa: E402
from priarta.protocol import in_process_endpoints  # noqa: E402
from priarta.valuation import run_valuation  # noqa: E402

DECOMPOSITIONS = ("cholesky", "eigh", "eigvalsh")
ROWS, SELLERS, MASTER_SEED, DATA_SEED = 4096, 4, 7, 2024


def party(rng, rows: int, dim: int) -> EmbeddingSet:
    mean = rng.normal(0.0, 0.3 / np.sqrt(dim), dim)
    mix = rng.standard_normal((dim, dim)) * (rng.uniform(0.6, 1.2) / dim)
    return EmbeddingSet(mean + rng.standard_normal((rows, dim)) @ mix, 1.0, clipped=False)


def counting(counts: dict):
    """Wrap the numpy.linalg decompositions so that each matrix one
    decomposes is counted, k for a stack of k; returns the originals to
    restore."""
    originals = {name: getattr(np.linalg, name) for name in DECOMPOSITIONS}
    for name, original in originals.items():
        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += math.prod(np.shape(args[0])[:-2])
            return _original(*args, **kwargs)
        setattr(np.linalg, name, counted)
    return originals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dim", type=int, default=768)
    parser.add_argument("--subset", type=int, default=512)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(DATA_SEED)
    buyer = party(rng, ROWS, args.dim)
    nodes = [SellerNode(f"seller-{i}", embeddings=party(rng, ROWS, args.dim))
             for i in range(1, SELLERS + 1)]
    spec = EncoderSpec("external", DATA_SEED, args.dim, args.dim, args.dim, 0.0)
    budget = PrivacyBudget(0.8, 1e-5, 1.0, args.subset)

    round_s, decompositions, report = [], [], None
    for _ in range(args.rounds):
        counts = dict.fromkeys(DECOMPOSITIONS, 0)
        originals = counting(counts)
        try:
            start = time.perf_counter()
            report = run_valuation(buyer, in_process_endpoints(nodes), spec, budget,
                                   master_seed=MASTER_SEED)
            round_s.append(time.perf_counter() - start)
        finally:
            for name, original in originals.items():
                setattr(np.linalg, name, original)
        decompositions.append(counts)

    json.dump({
        "dim": args.dim, "rows": ROWS, "sellers": SELLERS, "subset": args.subset,
        "master_seed": MASTER_SEED, "data_seed": DATA_SEED,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "round_s": round_s,
        "decompositions": decompositions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_w2": {e.node_id: e.raw_w2 for e in report.entries},
        "ranking": list(report.ranking),
    }, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
