"""Command-line surface: argument parsing and file I/O for scenario
generation, encoding, seller serving, buyer valuation, report rendering, and
the robustness harness. The valuation round itself is
``valuation.run_valuation``.

Exit codes: 0 success, 1 validation error, 2 runtime or protocol error,
3 all sellers failed. Set PRIARTA_LOG=INFO (or DEBUG) for progress logs.
"""

import argparse
import functools
import logging
import os
from pathlib import Path
import sys

from .encoder import EncoderSpec, RawDataset, encode
from .errors import (
    ConfigError,
    FileFormatError,
    NumericInputError,
    ParameterError,
    PriartaError,
    ShapeError,
)
from .fileio import (
    load_json,
    read_dataset_any,
    read_raw_dataset,
    save_json,
    write_embeddings,
    write_raw_dataset,
)
from .privacy import PrivacyBudget
from .protocol import (BUYER_ID, SellerNode, SellerServer, _spec_problem, in_process_endpoints,
                       socket_endpoints)
from .scenario import ScenarioConfig, build_datasets, default_scenario
from .stats import EmbeddingSet
# run_valuation_for_config is re-exported for library callers
from .valuation import (  # noqa: F401
    OBJECTIVES,
    load_report,
    render_csv,
    render_table,
    robustness_for_config,
    run_valuation,
    run_valuation_for_config,
    save_report,
    with_robustness,
)


def _load_scenario(config_path, seed) -> ScenarioConfig:
    if config_path is None:
        return default_scenario() if seed is None else default_scenario(seed)
    raw = load_json(config_path)
    if seed is not None and isinstance(raw, dict):
        raw = dict(raw, master_seed=seed)
    return ScenarioConfig.from_dict(raw)


def _node(node_id: str, data, pinned: str = None) -> SellerNode:
    """A seller node over a raw dataset or over pre-encoded embeddings."""
    if isinstance(data, RawDataset):
        return SellerNode(node_id, raw=data, pinned_fingerprint=pinned)
    return SellerNode(node_id, embeddings=data, pinned_fingerprint=pinned)


def _parse_hostport(text: str) -> tuple:
    host, sep, port = text.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ParameterError(f"address {text!r} must be host:port")
    return host or "127.0.0.1", int(port)


def _seller_endpoints(arg: str, offline: bool) -> list:
    path = Path(arg)
    if path.is_dir():
        files = sorted(
            (p for p in path.iterdir() if p.is_file() and p.suffix in (".raw", ".emb")),
            key=lambda p: p.name,
        )
        if not files:
            raise ParameterError(f"no .raw or .emb seller files in {arg}")
        return in_process_endpoints([_node(p.stem, read_dataset_any(p)) for p in files])
    if offline:
        raise ParameterError(f"--offline requires --sellers to be a directory, got {arg!r}")
    addresses = []
    for part in arg.split(","):
        part = part.strip()
        if not part:
            continue
        node_id, sep, addr = part.partition("=")
        if not sep or not node_id:
            raise ParameterError(f"endpoint {part!r} must be id=host:port")
        host, port = _parse_hostport(addr)
        addresses.append((node_id, host, port))
    if not addresses:
        raise ParameterError("no seller endpoints given")
    return socket_endpoints(addresses)


def cmd_scenario(args) -> int:
    config = _load_scenario(args.config, args.seed)
    datasets = build_datasets(config)
    out = Path(args.out_dir)
    (out / "sellers").mkdir(parents=True, exist_ok=True)
    write_raw_dataset(out / "buyer.raw", datasets[BUYER_ID])
    for node_id in config.seller_ids():
        write_raw_dataset(out / "sellers" / f"{node_id}.raw", datasets[node_id])
    save_json(out / "scenario.resolved.json", config.to_dict())
    save_json(out / "encoder.json", config.encoder.to_dict())
    print(
        f"wrote buyer.raw, {len(config.sellers)} seller datasets, "
        f"scenario.resolved.json, encoder.json to {args.out_dir}"
    )
    return 0


def cmd_encode(args) -> int:
    spec = EncoderSpec.from_dict(load_json(args.spec))
    data = read_raw_dataset(args.input)
    vectors = encode(spec, data)
    write_embeddings(args.output, EmbeddingSet(vectors, args.clip_radius, clipped=False))
    print(f"encoded {data.count} points into {args.output}")
    return 0


def cmd_serve(args) -> int:
    host, port = _parse_hostport(args.listen)
    data = read_dataset_any(args.input)
    node_id = args.node_id or Path(args.input).stem
    spec = None if args.spec is None else EncoderSpec.from_dict(load_json(args.spec))
    node = _node(node_id, data, None if spec is None else spec.fingerprint())
    if spec is not None and (problem := _spec_problem(node, spec)) is not None:
        raise ParameterError(f"{args.input} cannot serve the spec in {args.spec}: {problem}")
    try:
        server = SellerServer((host, port), node)
    except OSError as exc:
        print(f"error: cannot bind {args.listen}: {exc}", file=sys.stderr)
        return 2
    with server:
        bound = server.server_address
        print(f"node {node_id} listening on {bound[0]}:{bound[1]}")
        sys.stdout.flush()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def cmd_value(args) -> int:
    spec = EncoderSpec.from_dict(load_json(args.spec))
    budget = PrivacyBudget(args.epsilon, args.delta, args.clip_radius, args.subset_size)
    endpoints = _seller_endpoints(args.sellers, args.offline)
    # The buyer's file is parsed once the first sellers are asked, while they compute.
    buyer_data = functools.partial(read_dataset_any, args.input)
    report = run_valuation(buyer_data, endpoints, spec, budget, master_seed=args.seed,
                           objective=args.objective, debias=args.debias,
                           noisy_buyer=args.noisy_buyer)
    save_report(report, args.output)
    for entry_ in report.entries:
        if entry_.failed:
            print(f"seller {entry_.node_id} failed: {entry_.failure_reason}", file=sys.stderr)
    if not report.ranking:
        print("error: all sellers failed", file=sys.stderr)
        return 3
    print(f"wrote {args.output}")
    return 0


def cmd_report(args) -> int:
    report = load_report(args.input)
    text = render_table(report) if args.format == "table" else render_csv(report)
    sys.stdout.write(text)
    return 0


def cmd_robustness(args) -> int:
    config = _load_scenario(args.config, args.seed)
    report = load_report(args.output)
    entries = robustness_for_config(config)
    if not entries:
        print("no augmented-copy sellers in the scenario; nothing to do")
        return 0
    try:
        report = with_robustness(report, entries)
    except ParameterError as exc:
        raise ParameterError(f"{args.output} is not the report of the scenario's round: {exc}")
    save_report(report, args.output)
    print(f"appended robustness entries for {len(entries)} sellers to {args.output}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="priarta",
        description="Privacy-preserving data valuation over Gaussian summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("scenario", help="generate buyer and seller datasets")
    sp.add_argument("--config", help="scenario config JSON (omit for the built-in default)")
    sp.add_argument("--out-dir", required=True, help="output directory")
    sp.add_argument("--seed", type=int, help="override the master seed")
    sp.set_defaults(func=cmd_scenario)

    se = sub.add_parser("encode", help="encode a raw dataset into embeddings")
    se.add_argument("--spec", required=True, help="encoder spec JSON")
    se.add_argument("--input", required=True, help="raw dataset file")
    se.add_argument("--output", required=True, help="embedding file to write")
    se.add_argument("--clip-radius", type=float, default=1.0,
                    help="declared radius recorded in the embedding header")
    se.set_defaults(func=cmd_encode)

    sv = sub.add_parser("serve", help="run a seller node")
    sv.add_argument("--input", required=True, help="raw dataset or embedding file")
    sv.add_argument("--listen", required=True, help="host:port to bind")
    sv.add_argument("--spec", help="pin the only encoder spec this node accepts")
    sv.add_argument("--node-id", help="defaults to the input filename stem")
    sv.set_defaults(func=cmd_serve)

    va = sub.add_parser("value", help="run a valuation round and write a report")
    va.add_argument("--input", required=True, help="buyer dataset (raw or embeddings)")
    va.add_argument("--sellers", required=True,
                    help="directory of seller files, or comma-separated id=host:port")
    va.add_argument("--spec", required=True, help="encoder spec JSON")
    va.add_argument("--output", default="report.json", help="report file to write")
    va.add_argument("--epsilon", type=float, default=0.8)
    va.add_argument("--delta", type=float, default=1e-5)
    va.add_argument("--clip-radius", type=float, default=1.0)
    va.add_argument("--subset-size", type=int, default=512)
    va.add_argument("--seed", type=int,
                    help="master seed; omit to draw from OS entropy (not reproducible)")
    va.add_argument("--objective", choices=OBJECTIVES, default="diversify")
    va.add_argument("--debias", action="store_true",
                    help="subtract sigma^2 I from seller covariances before scoring")
    va.add_argument("--offline", action="store_true",
                    help="require in-process sellers (--sellers must be a directory)")
    va.add_argument("--noisy-buyer", action="store_true",
                    help="noise the buyer summary too (ablation)")
    va.set_defaults(func=cmd_value)

    rp = sub.add_parser("report", help="render a report file")
    rp.add_argument("--input", required=True, help="report JSON file")
    rp.add_argument("--format", choices=["table", "csv"], default="table")
    rp.set_defaults(func=cmd_report)

    ro = sub.add_parser("robustness", help="append robustness deviations to a report")
    ro.add_argument("--config", help="scenario config JSON (omit for the built-in default)")
    ro.add_argument("--seed", type=int, help="override the master seed")
    ro.add_argument("--output", required=True, help="existing report file to update")
    ro.set_defaults(func=cmd_robustness)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PRIARTA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileFormatError, ParameterError, ShapeError, NumericInputError,
            FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PriartaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
