"""The benchmark's four workloads.

Each is a closed loop with one client: a round is one buyer valuation of every
seller, and the next round starts when the previous one has finished. Every
round gets a fresh master seed; every data seed derives from the benchmark's
seed argument, so the same seed gives the same inputs.

The package is always reached through module attributes at call time
(``protocol.orchestrate_valuation(...)``), never through names bound at
import, so that the traced run sees the wrappers it installs.
"""

import contextlib
from dataclasses import dataclass
import hashlib
import io
import json
import math
import os
from pathlib import Path
import select
import shutil
import subprocess
import sys
import time

import numpy as np

import priarta
from priarta import cli, encoder, fileio, protocol, scenario, stats, valuation
from priarta.privacy import PrivacyBudget

# The seller servers import the same package source as the benchmark.
SRC_DIR = Path(priarta.__file__).resolve().parent.parent

SELLER_START_TIMEOUT_S = 60.0
# W2 tolerance against the scipy oracle, on the squared distance and relative
# to its scale ||dmu||^2 + tr(A) + tr(B): both sides are double precision but
# take different square-root algorithms (eigh here, Schur in scipy).
ORACLE_RTOL = 1e-9
ORACLE_SAMPLE = 3


class BenchError(RuntimeError):
    """Set-up or a round could not run at all."""


def bench_seed(seed, *parts) -> int:
    """31-bit seed from SHA-256 over "seed|part|...": the benchmark's only
    source of master and data seeds."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") & 0x7FFFFFFF


@dataclass
class RoundResult:
    report: bytes
    attempted: int          # seller queries, plus one CLI run where there is one
    failed: int             # failed seller queries, plus nonzero CLI exits
    valued: int             # sellers with a score in the report
    wire_bytes: int = None  # bytes sent + received over all sellers, when known


def report_failures(report_bytes: bytes) -> tuple:
    entries = json.loads(report_bytes)["entries"]
    return len(entries), sum(1 for e in entries if e["failed"])


def w2_oracle(a, b) -> tuple:
    """Closed-form W2 through scipy.linalg.sqrtm; returns (W2, scale of W2^2)."""
    import scipy.linalg

    root_a = np.real(scipy.linalg.sqrtm(np.asarray(a.covariance)))
    cross = np.real(scipy.linalg.sqrtm(root_a @ np.asarray(b.covariance) @ root_a))
    diff = np.asarray(a.mean) - np.asarray(b.mean)
    scale = float(diff @ diff) + float(np.trace(a.covariance)) + float(np.trace(b.covariance))
    squared = scale - 2.0 * float(np.trace(cross))
    return math.sqrt(max(squared, 0.0)), scale


def oracle_check(report_bytes: bytes, buyer, outcomes, seed) -> dict:
    """Compare a sample of the report's raw_w2 values with the scipy oracle
    evaluated on the same summaries."""
    raw = {e["node_id"]: e["raw_w2"] for e in json.loads(report_bytes)["entries"]}
    scored = [o for o in outcomes if o.summary is not None]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(scored), size=min(ORACLE_SAMPLE, len(scored)), replace=False)
    worst = 0.0
    for i in sorted(picks):
        outcome = scored[i]
        oracle, scale = w2_oracle(buyer, outcome.summary)
        got = raw.get(outcome.node_id)
        if got is None:
            return {"name": "w2_oracle", "ok": False,
                    "detail": f"{outcome.node_id} has no score in the report"}
        worst = max(worst, abs(got * got - oracle * oracle) / scale)
    return {
        "name": "w2_oracle",
        "ok": worst <= ORACLE_RTOL,
        "detail": f"{len(picks)} sellers, worst |W2^2 - oracle^2| / scale = {worst:.2e} "
                  f"(tolerance {ORACLE_RTOL:g}, oracle scipy.linalg.sqrtm)",
    }


def identity_check(name: str, first: bytes, *others: bytes) -> dict:
    same = all(o == first for o in others)
    return {"name": name, "ok": same,
            "detail": f"{len(others) + 1} reports of {len(first)} bytes, "
                      + ("byte-identical" if same else "DIFFER")}


def outcome_wire_bytes(outcomes) -> int:
    return sum(o.bytes_sent + o.bytes_received for o in outcomes)


class Workload:
    name = ""
    why = ""
    # round_s.tail is this nearest-rank percentile of the round times. It is
    # fixed per workload, so every commit is judged at the same percentile;
    # it was chosen so that a run of about 20 s holds at least ten rounds
    # beyond it, and a run measures at least that many rounds.
    TAIL_PERCENTILE = 90
    # Parts of the machine-speed reference pass that resemble this
    # workload's rounds (see speed.py).
    REFERENCE = ("interpreter",)

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.data_seed = bench_seed(seed, self.name, "data")
        self.replay_wire = None  # (bytes, sellers) from the checks, when rounds cannot see them

    def setup(self):
        """Build this workload's inputs, replacing any earlier set-up."""

    def round(self, master_seed: int):
        """One timed round; returns what ``finish`` needs."""
        raise NotImplementedError

    def finish(self, raw) -> RoundResult:
        """Untimed accounting of one round."""
        raise NotImplementedError

    def checks(self, first_seed: int, first: RoundResult) -> list:
        raise NotImplementedError

    def server_pids(self) -> list:
        return []

    def close(self):
        """Release everything set-up made. Safe to call more than once."""


class _InProcess(Workload):
    """Shared round for workloads whose sellers are in-process nodes."""

    def _params(self, master_seed):
        return {"master_seed": master_seed, "workload": self.name}

    def round(self, master_seed):
        buyer, outcomes = protocol.orchestrate_valuation(
            self.buyer, protocol.in_process_endpoints(self.nodes), self.spec, self.budget,
            master_seed=master_seed,
        )
        report = valuation.build_report(buyer, outcomes, "diversify", self._params(master_seed))
        return valuation.dumps_report(report).encode(), buyer, outcomes

    def finish(self, raw):
        report, _, outcomes = raw
        failed = sum(1 for o in outcomes if o.failed)
        return RoundResult(report, len(outcomes), failed, len(outcomes) - failed,
                           outcome_wire_bytes(outcomes))

    def checks(self, first_seed, first):
        again = [self.round(first_seed) for _ in range(2)]
        _, buyer, outcomes = again[0]
        return [
            identity_check("same_seed_same_report", first.report, *(r[0] for r in again)),
            oracle_check(first.report, buyer, outcomes, first_seed),
        ]


class ScenarioSweep(Workload):
    name = "scenario-sweep"
    why = ("reproduction traffic: the default 7-seller scenario per seed, the only "
           "workload with dataset generation and augmentation on the round path")

    def round(self, master_seed):
        report = cli.run_valuation_for_config(scenario.default_scenario(master_seed))
        return valuation.dumps_report(report).encode()

    def finish(self, raw):
        attempted, failed = report_failures(raw)
        return RoundResult(raw, attempted, failed, attempted - failed)

    def checks(self, first_seed, first):
        again = [self.round(first_seed) for _ in range(2)]
        # The same round through its public parts, to reach the summaries
        # the report was scored from.
        config = scenario.default_scenario(first_seed)
        datasets = scenario.build_datasets(config)
        nodes = [protocol.SellerNode(nid, raw=datasets[nid]) for nid in config.seller_ids()]
        buyer, outcomes = protocol.orchestrate_valuation(
            datasets[scenario.BUYER_ID], protocol.in_process_endpoints(nodes),
            config.encoder, config.budget, master_seed=config.master_seed,
        )
        self.replay_wire = (outcome_wire_bytes(outcomes), len(outcomes))
        return [
            identity_check("same_seed_same_report", first.report, *again),
            oracle_check(first.report, buyer, outcomes, first_seed),
        ]


class WideD256(_InProcess):
    name = "wide-d256"
    why = ("pre-encoded d=256 embeddings, no encoder work: frames and linear algebra "
           "are bound by bytes and flops, where the scoring and wire items act")
    DIM, ROWS, SELLERS = 256, 4096, 4
    TAIL_PERCENTILE = 60
    REFERENCE = ("interpreter", "blas")
    TINY = (16, 600, 2)

    def setup(self):
        dim, rows, sellers = self.TINY if self.tiny else (self.DIM, self.ROWS, self.SELLERS)
        rng = np.random.default_rng(self.data_seed)

        def party():
            # Row norms near 0.9, so clipping to R = 1 touches some rows.
            mean = rng.normal(0.0, 0.3 / math.sqrt(dim), dim)
            mix = rng.standard_normal((dim, dim)) * (rng.uniform(0.6, 1.2) / dim)
            vectors = mean + rng.standard_normal((rows, dim)) @ mix
            return stats.EmbeddingSet(vectors, 1.0, clipped=False)

        self.buyer = party()
        self.nodes = [protocol.SellerNode(f"seller-{i:02d}", embeddings=party())
                      for i in range(1, sellers + 1)]
        self.spec = encoder.EncoderSpec("external", self.data_seed, dim, dim, dim, 0.0)
        self.budget = PrivacyBudget(0.8, 1e-5, 1.0, 512)


class ManySellers(_InProcess):
    name = "many-sellers"
    why = ("many small d=4 sellers in process: fixed per-call work (validation, "
           "fingerprints, small eigendecompositions, ranking) dominates, the "
           "opposite regime to wide-d256")
    SELLERS, ROWS = 250, 1024
    TAIL_PERCENTILE = 75
    TINY = (10, 1024)

    def setup(self):
        sellers, rows = self.TINY if self.tiny else (self.SELLERS, self.ROWS)
        config = scenario.default_scenario(self.data_seed)
        means = np.zeros((config.num_classes, config.input_dim))
        means[:, : config.signal_dims] = config.class_means
        self.buyer = encoder.gen_mixture_dataset(
            config.buyer_probs, means, config.class_scale, config.buyer_m,
            config.buyer_seed, config.signal_dims,
        )
        rng = np.random.default_rng(self.data_seed)
        nodes = []
        for i in range(1, sellers + 1):
            probs = rng.dirichlet(np.full(config.num_classes, 0.5))
            data = encoder.gen_mixture_dataset(
                probs / probs.sum(), means, config.class_scale, rows,
                bench_seed(self.data_seed, "seller", i), config.signal_dims,
            )
            nodes.append(protocol.SellerNode(f"seller-{i:04d}", raw=data))
        self.nodes = nodes
        self.spec = config.encoder
        self.budget = config.budget


class SellerFleet:
    """``priarta serve`` processes on 127.0.0.1:0, one BLAS thread each."""

    def __init__(self):
        self.procs = []

    def start(self, inputs, cwd: Path) -> list:
        """Start one server per (node_id, path); returns (node_id, host, port)."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
        started = []
        for node_id, path in inputs:
            proc = subprocess.Popen(
                [sys.executable, "-m", "priarta.cli", "serve", "--input", str(path),
                 "--listen", "127.0.0.1:0", "--node-id", node_id],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=cwd, env=env,
            )
            self.procs.append(proc)
            started.append((node_id, proc))
        deadline = time.monotonic() + SELLER_START_TIMEOUT_S
        return [(node_id, *self._address(proc, deadline)) for node_id, proc in started]

    @staticmethod
    def _address(proc, deadline) -> tuple:
        """Parse "node <id> listening on <host>:<port>" from the first line."""
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("a seller server did not report its port in time")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(f"a seller server exited with code {proc.wait()}")
                buf += chunk
        host, _, port = buf.split(b"\n", 1)[0].decode().rsplit(" ", 1)[1].rpartition(":")
        return host, int(port)

    def pids(self) -> list:
        return [p.pid for p in self.procs]

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []


class CliNetwork(Workload):
    name = "cli-network"
    why = ("the README network walkthrough: priarta value over TCP to seven priarta "
           "serve processes, the only workload with transport, server sessions and "
           "file parsing and writing on every round")

    def __init__(self, seed, work_dir, tiny=False):
        super().__init__(seed, work_dir, tiny)
        self.fleet = SellerFleet()
        self.dir = work_dir / "net"
        self._sink = io.StringIO()

    def setup(self):
        self.fleet.stop()
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scenario", "--out-dir", str(self.dir),
                             "--seed", str(self.data_seed)])
        if code != 0:
            raise BenchError(f"priarta scenario exited with {code}")
        sellers = sorted((self.dir / "sellers").glob("*.raw"))
        self.addresses = self.fleet.start([(p.stem, p) for p in sellers], self.dir)
        self.endpoints = ",".join(f"{nid}={host}:{port}" for nid, host, port in self.addresses)

    def _value(self, master_seed, output, *extra):
        with contextlib.redirect_stdout(self._sink):
            return cli.main(["value", "--seed", str(master_seed),
                             "--input", str(self.dir / "buyer.raw"),
                             "--spec", str(self.dir / "encoder.json"),
                             "--output", str(output), *extra])

    def round(self, master_seed):
        return self._value(master_seed, self.dir / "report.json",
                           "--sellers", self.endpoints)

    def finish(self, code):
        self._sink.seek(0)
        self._sink.truncate()
        path = self.dir / "report.json"
        sellers = len(self.addresses)
        if not path.exists():
            return RoundResult(b"", sellers + 1, sellers + 1, 0)
        report = path.read_bytes()
        path.unlink()
        queried, failed = report_failures(report)
        return RoundResult(report, queried + 1, failed + (code != 0), queried - failed)

    def checks(self, first_seed, first):
        again = [self.finish(self.round(first_seed)).report for _ in range(2)]
        offline = self.dir / "report.offline.json"
        code = self._value(first_seed, offline, "--offline",
                           "--sellers", str(self.dir / "sellers"))
        offline_bytes = offline.read_bytes() if code == 0 else b""
        # The same query through the library over the same sockets, to reach
        # the summaries and the byte counts that the CLI does not expose.
        defaults = scenario.default_scenario(self.data_seed)
        buyer, outcomes = protocol.orchestrate_valuation(
            fileio.read_dataset_any(self.dir / "buyer.raw"),
            protocol.socket_endpoints(self.addresses),
            encoder.EncoderSpec.from_dict(fileio.load_json(self.dir / "encoder.json")),
            defaults.budget, master_seed=first_seed,
        )
        self.replay_wire = (outcome_wire_bytes(outcomes), len(outcomes))
        return [
            identity_check("same_seed_same_report", first.report, *again),
            identity_check("network_equals_offline", first.report, offline_bytes),
            oracle_check(first.report, buyer, outcomes, first_seed),
        ]

    def server_pids(self):
        return self.fleet.pids()

    def close(self):
        self.fleet.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ScenarioSweep, WideD256, ManySellers, CliNetwork)}
