"""Valuation-round benchmark for priarta.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from its
``src`` directory. ``--trace 0`` measures the end-to-end metrics with no
wrappers installed. ``--trace 1`` measures untraced rounds for the first
third of the time and traced rounds for the rest, and reports the per-layer
metrics and the tracing overhead. Human-readable lines go to stdout first;
the last stdout line is one JSON object. Full results, with the seeds, the
environment and (traced) every span, go to ``.perfbench_out/``.
"""

import argparse
import json
import math
import os
from pathlib import Path
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

from speed import Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUPS = 5          # set-up repetitions per untraced run; setup_s is their median
TAIL_BEYOND = 10    # rounds a run holds beyond its tail percentile, at least
TRACED_SHARE = 2 / 3

END_TO_END = (
    ("round_s.p50", "s"),
    ("round_s.tail", "s"),
    ("sellers_per_s", "1/s"),
    ("wire_bytes.per_seller", "B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Self time per round of each span below; the grouping follows the
# end-to-end metric and workload each one is expected to move.
BUSY = (
    # round_s.p50 on scenario-sweep
    "encoder.augment", "encoder.gen_mixture_dataset", "scenario.build_datasets",
    # round_s.p50 on many-sellers (one call per seller)
    "encoder.encode", "protocol.sample_subset", "stats.clip_to_ball",
    "privacy.apply_gaussian_mechanism", "stats.summarize", "protocol.seller_pipeline",
    # round_s.p50 on wide-d256; wire_bytes.per_seller everywhere
    "protocol.encode_frame", "protocol.decode_frame", "protocol.pack_covariance",
    "protocol.expand_covariance",
    # round_s.p50 on wide-d256 (per flop) and many-sellers (per call)
    "gaussian_geometry.GaussianSummary", "gaussian_geometry.wasserstein2_gaussian",
    # round_s.p50 on cli-network
    "protocol.connect", "fileio.read_dataset_any", "fileio.read_raw_dataset",
    "valuation.save_report",
    # round_s.p50 on many-sellers and cli-network
    "valuation.build_report", "valuation.dumps_report", "cli.main",
)
CALLS = (
    "encoder.encode", "protocol.sample_subset", "stats.clip_to_ball",
    "privacy.apply_gaussian_mechanism", "stats.summarize", "protocol.seller_pipeline",
    "gaussian_geometry.GaussianSummary", "gaussian_geometry.wasserstein2_gaussian",
)
PER_CALL = ("gaussian_geometry.GaussianSummary", "gaussian_geometry.wasserstein2_gaussian")
PER_LAYER = (
    tuple((f"{name}.busy_s", "s") for name in BUSY)
    + tuple((f"{name}.calls", "count") for name in CALLS)
    + tuple((f"{name}.per_call_s", "s") for name in PER_CALL)
    + (
        ("protocol.frame_bytes", "B"),
        ("gaussian_geometry.factorizations", "count"),
        ("protocol.channel.wait_s", "s"),
        ("protocol.server.cpu_s", "s"),
        ("trace.untraced_round_s.p50", "s"),
        ("trace.round_s.p50", "s"),
        ("trace.overhead_s", "s"),
    )
)
UNITS_NOTE = ("busy_s, calls, channel.wait_s and server.cpu_s are per round; frame_bytes "
              "and factorizations are per seller query; per_call_s is self time per call")
SERVER_NOTE = ("work inside the priarta serve processes is not traced; it is seen only "
               "from outside, as protocol.server.cpu_s read from /proc/<pid>/stat")

# Re-anchor baselines from ROADMAP.md, recorded next to what this run measures.
BASELINES = {
    "scenario-sweep": [("default round", "round_s.p50",
                        "ROADMAP ~0.1 s; ~0.14 s when the benchmark was defined")],
    "wide-d256": [
        ("W2 at d = 256", "gaussian_geometry.wasserstein2_gaussian.per_call_s", "ROADMAP ~24 ms"),
        ("GaussianSummary at d = 256", "gaussian_geometry.GaussianSummary.per_call_s",
         "ROADMAP ~11 ms"),
    ],
}


def _on_signal(signum, _frame):
    # Turn termination into an exception so every finally block (seller
    # servers, work directory) runs.
    raise SystemExit(128 + signum)


def tail_rounds(percentile) -> int:
    """Fewest rounds with TAIL_BEYOND of them beyond the percentile."""
    return math.ceil(TAIL_BEYOND * 100 / (100 - percentile))


def tail(times, percentile) -> tuple:
    """(value, rounds beyond it): the nearest-rank percentile of the times."""
    ordered = sorted(times)
    k = max(math.ceil(percentile * len(ordered) / 100) - 1, 0)
    return ordered[k], len(ordered) - k - 1


def proc_cpu_seconds(pids) -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {
            "benchmark_process": {v: os.environ.get(v) for v in thread_vars},
            "benchmark_process_note": "run.py sets OPENBLAS_NUM_THREADS=1; unset would mean "
                                      "one BLAS thread per core",
            "seller_servers": {"OPENBLAS_NUM_THREADS": "1"},
        },
    }


class Phase:
    """Closed-loop rounds for at least ``seconds`` and ``min_rounds``."""

    def __init__(self, reference):
        self.reference = reference
        self.indices = []
        self.seeds = []
        self.walls = []
        self.scales = []
        self.results = []
        self.first = None

    def run(self, workload, seed, start_index, seconds, min_rounds, tracer=None):
        from workloads import bench_seed

        began = time.perf_counter()
        i = start_index
        while True:
            master_seed = bench_seed(seed, workload.name, "round", i)
            if tracer is None:
                raw, wall, scale = self.reference.bracket(workload.round, master_seed)
            else:
                raw, wall, scale = self.reference.bracket(
                    tracer.run_round, i, workload.round, master_seed)
            result = workload.finish(raw)
            if self.first is None:
                self.first = result
            else:
                result.report = b""
            self.indices.append(i)
            self.seeds.append(master_seed)
            self.walls.append(wall)
            self.scales.append(scale)
            self.results.append(result)
            i += 1
            if time.perf_counter() - began >= seconds and len(self.walls) >= min_rounds:
                return i

    @property
    def times(self) -> list:
        """Round times at the nominal reference speed."""
        return [w * s for w, s in zip(self.walls, self.scales)]

    def total(self, field) -> int:
        return sum(getattr(r, field) for r in self.results)


def execute(name, seed, seconds, trace, tiny=False) -> dict:
    """Set up, measure and check one workload; always releases what it set up."""
    import tracing
    from workloads import WORKLOADS, bench_seed

    work_dir = WORK_DIR / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work_dir, tiny=tiny)
    run = {"workload": name, "why": workload.why, "seed": seed, "trace": trace,
           "data_seed": workload.data_seed, "tiny": tiny, "checks": []}

    def set_up(k):
        workload.setup()
        workload.finish(workload.round(bench_seed(seed, name, "warmup", k)))

    reference = Reference(workload.REFERENCE)
    untraced, traced = Phase(reference), None
    try:
        before = tracing.snapshot()
        setups = [reference.bracket(set_up, k)[1:] for k in range(1 if trace else SETUPS)]
        min_rounds = 1 if tiny else (3 if trace else tail_rounds(workload.TAIL_PERCENTILE))
        untraced_s = seconds * (1 - TRACED_SHARE) if trace else seconds
        next_index = untraced.run(workload, seed, 0, untraced_s, min_rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run["checks"].append({"name": "untraced_run_installs_no_wrappers",
                              "ok": tracing.snapshot() == before,
                              "detail": "package bindings identical before and after"})
        if trace:
            traced = Phase(reference)
            tracer = tracing.Tracer()
            pids = workload.server_pids()
            cpu0 = proc_cpu_seconds(pids)
            undo = tracing.install(tracer)
            try:
                traced.run(workload, seed, next_index, seconds * TRACED_SHARE, min_rounds, tracer)
            finally:
                tracing.uninstall(undo)
            cpu1 = proc_cpu_seconds(pids)
            run["checks"].append({"name": "uninstall_restores_bindings",
                                  "ok": tracing.snapshot() == before,
                                  "detail": "package bindings identical after the traced phase"})
        try:
            run["checks"].extend(workload.checks(untraced.seeds[0], untraced.first))
        except Exception:  # a check that cannot run is a failed check
            run["checks"].append({"name": "checks", "ok": False,
                                  "detail": traceback.format_exc()})
    finally:
        workload.close()
        try:
            work_dir.rmdir()
        except OSError:
            pass

    phases = [untraced] + ([traced] if traced else [])
    attempted = sum(p.total("attempted") for p in phases)
    failed = sum(p.total("failed") for p in phases)
    run.update(
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        rounds=len(untraced.walls),
        round_seed_rule=f"sha256('{seed}|{name}|round|<i>')[:4] & 0x7fffffff",
        round_seeds_first=untraced.seeds[:5],
        wall_s=untraced.walls,
        speed_scale=untraced.scales,
        reference={
            "parts": reference.parts,
            "nominal_s": reference.nominal_s,
            # Above 1 when the program's leftover state slows the pass
            # that follows a step.
            "after_over_before.p50": statistics.median(
                sum(a) / sum(b) for b, a in reference.passes),
            "passes_s": reference.passes,
        },
    )
    if not trace:
        run["metrics"] = end_to_end(untraced, workload, setups, peak_rss_mb, run)
    else:
        run["metrics"] = per_layer(untraced, traced, tracer, cpu1 - cpu0, run)
    run["correct"] = all(c["ok"] for c in run["checks"])
    return run


def end_to_end(phase, workload, setups, peak_rss_mb, run) -> dict:
    times = phase.times
    percentile = workload.TAIL_PERCENTILE
    value, beyond = tail(times, percentile)
    run["tail"] = {"percentile": percentile, "rounds": len(times), "rounds_beyond": beyond}
    wire = [r.wire_bytes for r in phase.results]
    if None in wire:
        wire_bytes, queries = workload.replay_wire
        run["wire_source"] = "replay of the first round's seed through the library"
    else:
        wire_bytes, queries = sum(wire), phase.total("attempted")
        run["wire_source"] = "SellerOutcome byte counts of every timed round"
    run["setup_wall_s"] = [wall for wall, _ in setups]
    run["wall"] = {
        "round_s.p50": statistics.median(phase.walls),
        "round_s.tail": tail(phase.walls, percentile)[0],
        "setup_s": statistics.median(run["setup_wall_s"]),
        "speed_scale.p50": statistics.median(phase.scales),
    }
    values = {
        "round_s.p50": statistics.median(times),
        "round_s.tail": value,
        "sellers_per_s": phase.total("valued") / sum(times),
        "wire_bytes.per_seller": wire_bytes / queries,
        "setup_s": statistics.median(wall * scale for wall, scale in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced, traced, tracer, server_cpu, run) -> dict:
    import tracing

    stats, wait, per_trace = tracing.aggregate(
        tracer.spans, dict(zip(traced.indices, traced.scales)))
    rounds = len(traced.times)
    queries = traced.total("attempted")
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    values = {}
    for name in BUSY:
        values[f"{name}.busy_s"] = stats.get(name, empty)["self_s"] / rounds
    for name in CALLS:
        values[f"{name}.calls"] = stats.get(name, empty)["calls"] / rounds
    for name in PER_CALL:
        entry = stats.get(name, empty)
        values[f"{name}.per_call_s"] = entry["self_s"] / entry["calls"] if entry["calls"] else 0.0
    untraced_p50 = statistics.median(untraced.times)
    traced_p50 = statistics.median(traced.times)
    values.update({
        "protocol.frame_bytes": tracer.counts["protocol.frame_bytes"] / queries,
        "gaussian_geometry.factorizations":
            tracer.counts["gaussian_geometry.factorizations"] / queries,
        "protocol.channel.wait_s": wait / rounds,
        "protocol.server.cpu_s": server_cpu / rounds,
        "trace.untraced_round_s.p50": untraced_p50,
        "trace.round_s.p50": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
    })
    run.update(
        traced_rounds=rounds,
        traced_times=traced.times,
        units_note=UNITS_NOTE,
        server_note=SERVER_NOTE,
        spans_by_name={k: v for k, v in sorted(stats.items(),
                                               key=lambda kv: -kv[1]["self_s"])},
        per_trace=per_trace,
    )
    run["_tracer"] = tracer
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def baselines(run) -> list:
    out = []
    for what, metric, reference in BASELINES.get(run["workload"], ()):
        if metric in run["metrics"]:
            out.append({"what": what, "reference": reference, "metric": metric,
                        "measured": run["metrics"][metric]["value"]})
    return out


def report(run, out_dir):
    for name, metric in run["metrics"].items():
        print(f"{run['workload']}  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{run['workload']}  failed_ratio = {run['failed_ratio']:.6g} "
          f"({run['failed']} of {run['attempted']} attempted)")
    if "tail" in run:
        t = run["tail"]
        print(f"{run['workload']}  round_s.tail is p{t['percentile']} of {t['rounds']} rounds "
              f"({t['rounds_beyond']} rounds beyond it)")
        wall = run["wall"]
        print(f"{run['workload']}  times above are at the nominal reference speed; wall clock: "
              f"round_s.p50 {wall['round_s.p50']:.6g} s, round_s.tail {wall['round_s.tail']:.6g} s, "
              f"setup_s {wall['setup_s']:.6g} s, speed scale {wall['speed_scale.p50']:.4g}")
    if run["trace"]:
        for name, entry in list(run["spans_by_name"].items())[:12]:
            print(f"{run['workload']}  span {name}: self {entry['self_s'] / run['traced_rounds']:.6g}"
                  f" s/round, {entry['calls'] / run['traced_rounds']:.6g} calls/round")
        print(f"{run['workload']}  note: {run['server_note']}")
    for check in run["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"{run['workload']}  check {check['name']}: {status} ({check['detail']})")
    run["baselines"] = baselines(run)
    for b in run["baselines"]:
        print(f"{run['workload']}  baseline {b['what']}: {b['reference']}; "
              f"measured {b['metric']} = {b['measured']:.6g} s")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{run['trace']}"
    tracer = run.pop("_tracer", None)
    if tracer is not None:
        spans_path = out_dir / f"{run['workload']}-seed{run['seed']}-spans.jsonl"
        tracer.write(spans_path)
        run["spans_file"] = spans_path.name
    run["environment"] = environment()
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def import_package():
    """Import priarta from this checkout's src/, or explain why not."""
    if not (SRC / "priarta" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'priarta'}; run from a "
                         "priarta checkout")
    sys.path.insert(0, str(SRC))
    import priarta

    if Path(priarta.__file__).resolve().parent != (SRC / "priarta").resolve():
        raise SystemExit(f"error: imported priarta from {priarta.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload once at a tiny size and check the harness")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _on_signal)
    # One BLAS thread: on a 2-core shared machine a second BLAS thread gave
    # no speed-up at d = 256 and stalls of several seconds when the other
    # core was busy. Must be set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_package()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.self_test:
        import selftest

        return selftest.main(execute)
    run = execute(args.workload, args.seed, args.seconds, args.trace)
    report(run, OUT_DIR)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
