"""Time the buyer's side of seeded valuation rounds apart from the sellers it
simulates, and print the times as JSON.

An in-process round runs every seller's pipeline on the buyer's thread, when
its reply is read. This script first runs one live round through channels
that record each seller's reply frames, then alternates live rounds with
replayed ones, whose channels return the recorded frames in order: a replayed
round is the buyer alone (reading, decoding, checking and scoring the replies,
and the report). Each replayed report must be byte-identical to the live one,
or the script exits with an error.

The set-up is that of the many-sellers benchmark at d = 4: a buyer of 4096
rows and sellers of 1024 rows each, drawn from the default scenario's class
mixture and encoded by its toy projection, a subset of 512 rows per seller,
master seed 7 and one BLAS thread. At another --dim the input is max(16, d)
wide with max(8, d) signal coordinates (the extra ones centred at 0), so the
buyer's covariance stays full rank. The first round makes the buyer's own
summary and is not timed. The output holds each round's wall time, the best
of each kind, and the buyer's microseconds per seller in the best replayed
round.

    PYTHONPATH=src python tools/buyer_time.py [--sellers 250] [--dim 4] [--rounds 15]
"""

import argparse
import json
import os
import sys
import time

# OpenBLAS reads its thread count once, when numpy is first imported. A count
# already set in the environment is kept, and the output records it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from priarta import EncoderSpec, SellerNode, default_scenario  # noqa: E402
from priarta.encoder import gen_mixture_dataset  # noqa: E402
from priarta.protocol import InProcessChannel, _Channel  # noqa: E402
from priarta.valuation import dumps_report, run_valuation  # noqa: E402

ROWS, MASTER_SEED, DATA_SEED = 1024, 7, 2024


class RecordingChannel(InProcessChannel):
    """An in-process channel that keeps every reply frame its seller sends,
    in order, under the seller's node id in recorded."""

    def __init__(self, node: SellerNode, recorded: dict):
        super().__init__(node)
        self._frames = recorded.setdefault(node.node_id, [])

    def _received(self, frame: bytes) -> object:
        self._frames.append(frame)
        return super()._received(frame)


class ReplayChannel(_Channel):
    """A channel that counts what it is sent and answers with recorded reply
    frames, in order."""

    def __init__(self, frames: list):
        super().__init__()
        self._replies = iter(frames)

    def send(self, *msgs):
        for msg in msgs:
            self._sent(self._frame(msg))

    def receive(self) -> object:
        return self._received(next(self._replies))


def setup(sellers: int, dim: int) -> tuple:
    """(buyer dataset, seller nodes, encoder spec, budget)."""
    config = default_scenario()
    width, signal = max(config.input_dim, dim), max(config.signal_dims, dim)
    means = np.zeros((config.num_classes, width))
    means[:, :config.signal_dims] = config.class_means
    buyer = gen_mixture_dataset(config.buyer_probs, means, config.class_scale, config.buyer_m,
                                config.buyer_seed, signal)
    rng = np.random.default_rng(DATA_SEED)
    nodes = []
    for i in range(1, sellers + 1):
        probs = rng.dirichlet(np.full(config.num_classes, 0.5))
        data = gen_mixture_dataset(probs / probs.sum(), means, config.class_scale, ROWS,
                                   DATA_SEED + i, signal)
        nodes.append(SellerNode(f"seller-{i:04d}", raw=data))
    spec = EncoderSpec("toy_projection", config.encoder.seed, width, dim, signal, 0.0)
    return buyer, nodes, spec, config.budget


def timed_round(buyer, endpoints, spec, budget) -> tuple:
    """(wall seconds, report bytes) of one seeded round."""
    start = time.perf_counter()
    report = run_valuation(buyer, endpoints, spec, budget, master_seed=MASTER_SEED)
    return time.perf_counter() - start, dumps_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sellers", type=int, default=250)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)

    buyer, nodes, spec, budget = setup(args.sellers, args.dim)
    recorded = {}
    _, live_report = timed_round(
        buyer, [(n.node_id, lambda n=n: RecordingChannel(n, recorded)) for n in nodes],
        spec, budget)
    live_s, replay_s = [], []
    for _ in range(args.rounds):
        seconds, report = timed_round(
            buyer, [(n.node_id, lambda n=n: InProcessChannel(n)) for n in nodes], spec, budget)
        live_s.append(seconds)
        if report != live_report:
            sys.exit("a live round wrote another report than the recorded round")
        seconds, report = timed_round(
            buyer, [(n.node_id, lambda n=n: ReplayChannel(recorded[n.node_id])) for n in nodes],
            spec, budget)
        replay_s.append(seconds)
        if report != live_report:
            sys.exit("a replayed round wrote another report than the live round")

    json.dump({
        "dim": args.dim, "sellers": args.sellers, "rows": ROWS, "subset": budget.subset_size,
        "master_seed": MASTER_SEED, "data_seed": DATA_SEED,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "live_round_s": live_s, "replay_round_s": replay_s,
        "best_live_round_s": min(live_s), "best_replay_round_s": min(replay_s),
        "buyer_us_per_seller": min(replay_s) / args.sellers * 1e6,
        "reports_match": True,
    }, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
