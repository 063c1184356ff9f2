"""End-to-end command-line flows."""

import json
import shutil
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from priarta import (
    EmbeddingSet,
    ParameterError,
    ScenarioConfig,
    SellerNode,
    SellerServer,
    default_scenario,
    load_report,
)
from priarta import cli
from priarta.cli import _parse_hostport, main, run_valuation_for_config
from priarta.fileio import read_raw_dataset, save_json, write_embeddings
from priarta.protocol import ErrorMessage, InProcessChannel, encode_frame
from priarta.valuation import dumps_report, robustness_for_config

from conftest import HOSTILE_INPUTS, HOSTILE_JSON, HOSTILE_VALUES, package_env


def run_cli(*argv):
    return main(list(argv))


def dir_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scn") / "run"
    assert run_cli("scenario", "--out-dir", str(out), "--seed", "7") == 0
    return out


# ----------------------------------------------------------------- scenario


def test_scenario_writes_roster(scenario_dir):
    names = set(dir_bytes(scenario_dir))
    assert "buyer.raw" in names
    assert "scenario.resolved.json" in names
    assert "encoder.json" in names
    assert sum(n.startswith("sellers/") for n in names) == 7


def test_scenario_is_deterministic(tmp_path, scenario_dir):
    again = tmp_path / "again"
    assert run_cli("scenario", "--out-dir", str(again), "--seed", "7") == 0
    assert dir_bytes(again) == dir_bytes(scenario_dir)


def test_scenario_resolved_config_reloads(scenario_dir, tmp_path):
    # the resolved echo is a valid config that regenerates the same data
    resolved = scenario_dir / "scenario.resolved.json"
    out = tmp_path / "reload"
    assert run_cli("scenario", "--config", str(resolved), "--out-dir", str(out)) == 0
    ours = dir_bytes(out)
    theirs = dir_bytes(scenario_dir)
    assert ours == theirs


def test_scenario_rejects_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cfg = default_scenario(7).to_dict()
    cfg["sellers"] = []
    bad.write_text(json.dumps(cfg))
    code = run_cli("scenario", "--config", str(bad), "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert "sellers" in capsys.readouterr().err


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as info:
        run_cli("scenario", "--wat")
    assert info.value.code == 1


# ------------------------------------------------------------------- encode


def test_encode_round_trip(scenario_dir, tmp_path):
    out = tmp_path / "buyer.emb"
    code = run_cli(
        "encode",
        "--spec", str(scenario_dir / "encoder.json"),
        "--input", str(scenario_dir / "buyer.raw"),
        "--output", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("PRIARTA-EMB 1\n")
    assert text.splitlines()[1].startswith("4096 4 ")


def test_encode_alpha_zero_invariant_through_files(scenario_dir, tmp_path):
    # seller-4 is a nuisance-only augmented copy of the buyer
    a, b = tmp_path / "a.emb", tmp_path / "b.emb"
    spec = str(scenario_dir / "encoder.json")
    assert run_cli("encode", "--spec", spec,
                   "--input", str(scenario_dir / "buyer.raw"), "--output", str(a)) == 0
    assert run_cli("encode", "--spec", spec,
                   "--input", str(scenario_dir / "sellers" / "seller-4.raw"),
                   "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------------- value


def value_args(scenario_dir, output):
    return (
        "value",
        "--input", str(scenario_dir / "buyer.raw"),
        "--sellers", str(scenario_dir / "sellers"),
        "--spec", str(scenario_dir / "encoder.json"),
        "--output", str(output),
        "--offline",
        "--seed", "7",
    )


def test_value_offline_writes_report(scenario_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    report = load_report(out)
    assert len(report.entries) == 7
    assert len(report.ranking) == 7
    assert report.params_echo["epsilon"] == 0.8
    assert report.params_echo["delta"] == 1e-5
    assert report.params_echo["master_seed"] == 7
    assert report.params_echo["mode"] == "seeded"
    assert not any(e.failed for e in report.entries)


def test_value_seeded_reruns_byte_identical(scenario_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*value_args(scenario_dir, a)) == 0
    assert run_cli(*value_args(scenario_dir, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_value_disjoint_seller_ranks_first(scenario_dir, tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    report = load_report(out)
    assert report.ranking[0] == "seller-1"


def test_value_enrich_reverses_extremes(scenario_dir, tmp_path):
    out = tmp_path / "enrich.json"
    assert run_cli(*value_args(scenario_dir, out), "--objective", "enrich") == 0
    report = load_report(out)
    assert report.ranking[-1] == "seller-1"


def test_value_all_failed_exits_3(scenario_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    # subset larger than any seller dataset
    code = run_cli(*value_args(scenario_dir, out), "--subset-size", "5000")
    assert code == 3
    err = capsys.readouterr().err
    assert "all sellers failed" in err
    report = load_report(out)  # failure report still written
    assert all(e.failed for e in report.entries)


def test_value_debias_changes_scores(scenario_dir, tmp_path):
    plain, debiased = tmp_path / "p.json", tmp_path / "d.json"
    assert run_cli(*value_args(scenario_dir, plain)) == 0
    assert run_cli(*value_args(scenario_dir, debiased), "--debias") == 0
    a = load_report(plain)
    b = load_report(debiased)
    assert b.params_echo["debias"] is True
    assert any(
        x.raw_w2 != y.raw_w2 for x, y in zip(a.entries, b.entries)
    )


@pytest.mark.parametrize("flags, options", [
    ((), {}),
    (("--debias",), {"debias": True}),
    (("--noisy-buyer", "--objective", "enrich"), {"noisy_buyer": True, "objective": "enrich"}),
], ids=["plain", "debias", "noisy-buyer-enrich"])
def test_value_offline_matches_library_round(scenario_dir, tmp_path, flags, options):
    # the files of `priarta scenario --seed 7`, valued from disk, give the
    # report of the same round run on the in-memory scenario
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out), *flags) == 0
    expected = dumps_report(run_valuation_for_config(default_scenario(7), **options))
    assert out.read_text(encoding="utf-8") == expected


def test_value_requires_directory_for_offline(scenario_dir, tmp_path, capsys):
    code = run_cli(
        "value",
        "--input", str(scenario_dir / "buyer.raw"),
        "--sellers", "s1=127.0.0.1:9",
        "--spec", str(scenario_dir / "encoder.json"),
        "--output", str(tmp_path / "r.json"),
        "--offline",
    )
    assert code == 1


def test_value_refuses_a_seller_file_named_buyer(scenario_dir, tmp_path, capsys):
    # buyer.raw among the sellers would share the buyer's seeds
    sellers = tmp_path / "sellers"
    shutil.copytree(scenario_dir / "sellers", sellers)
    shutil.copy(scenario_dir / "buyer.raw", sellers)
    out = tmp_path / "r.json"
    args = list(value_args(scenario_dir, out))
    args[args.index("--sellers") + 1] = str(sellers)
    assert run_cli(*args, "--noisy-buyer") == 1
    err = capsys.readouterr().err
    assert err == "error: seller node id 'buyer' is reserved for the buyer\n"
    assert not out.exists()


def test_value_refuses_two_seller_files_with_one_node_id(scenario_dir, tmp_path, capsys):
    # seller-1.raw and seller-1.emb would both be node seller-1
    sellers = tmp_path / "sellers"
    shutil.copytree(scenario_dir / "sellers", sellers)
    (sellers / "seller-1.emb").write_text("PRIARTA-EMB 1\n2 2 1.0\n0.1 0.2\n0.3 0.4\n")
    out = tmp_path / "r.json"
    args = list(value_args(scenario_dir, out))
    args[args.index("--sellers") + 1] = str(sellers)
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == "error: duplicate seller node id 'seller-1'\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    (0, "12", "labels must lie in [0, num_classes)"),  # k = 10
    (1, "1e400", "points contain non-finite entries"),
])
def test_a_seller_file_with_a_value_its_dataset_refuses_is_named(scenario_dir, tmp_path, capsys,
                                                                  field, value, message):
    sellers = tmp_path / "sellers"
    shutil.copytree(scenario_dir / "sellers", sellers)
    bad = sellers / "seller-3.raw"
    lines = bad.read_text().split("\n")
    row = lines[3].split(" ")
    row[field] = value
    lines[3] = " ".join(row)
    bad.write_text("\n".join(lines))
    out = tmp_path / "r.json"
    args = list(value_args(scenario_dir, out))
    args[args.index("--sellers") + 1] = str(sellers)
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()
    # serve and encode read their input alike
    assert run_cli("serve", "--input", str(bad), "--listen", "127.0.0.1:0") == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert run_cli("encode", "--spec", str(scenario_dir / "encoder.json"), "--input", str(bad),
                   "--output", str(tmp_path / "e.emb")) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_value_refuses_two_endpoints_with_one_node_id(scenario_dir, tmp_path, capsys):
    # refused before any connect: nothing listens on port 9
    out = tmp_path / "r.json"
    args = list(value_args(scenario_dir, out))
    args[args.index("--sellers") + 1] = "s1=127.0.0.1:9,s2=127.0.0.1:9,s1=127.0.0.1:9"
    args.remove("--offline")
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == "error: duplicate seller node id 's1'\n"
    assert not out.exists()


def test_value_refuses_a_negative_seed(scenario_dir, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(*value_args(scenario_dir, out)[:-1], "-1") == 1
    assert capsys.readouterr().err == "error: master seed must be an integer >= 0\n"
    assert not out.exists()


# ------------------------------------------------------------------- report


def test_report_table_and_csv(scenario_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    capsys.readouterr()

    assert run_cli("report", "--input", str(out), "--format", "table") == 0
    table = capsys.readouterr().out
    assert "node_id" in table
    assert "seller-1" in table

    assert run_cli("report", "--input", str(out), "--format", "csv") == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("node_id,raw_w2,normalized,rank,failed,failure_reason")
    assert csv_text.count("\n") == 8  # header + 7 sellers


def test_report_with_a_repeated_node_id_exits_1(scenario_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    # two scored seller-1 entries, each ranked once: only the entries repeat
    report["entries"][1] = dict(report["entries"][0])
    report["ranking"] = [node_id for node_id in report["ranking"] if node_id != "seller-2"]
    report["ranking"].append("seller-1")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert run_cli("report", "--input", str(bad)) == 1
    assert "two entries share a node id" in capsys.readouterr().err


def test_report_corrupt_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("report", "--input", str(bad)) == 1
    assert "byte" in capsys.readouterr().err


# A seller's failure text that would forge a line of the CLI's own output and
# clear the terminal, with a C1 control and a bidi override besides.
FORGED = "boom\nseller seller-2 failed: forged line\x1b[2J\x9b‮"
FORGED_SHOWN = "boom\\nseller seller-2 failed: forged line\\x1b[2J\\x9b\\u202e"


class ForgingChannel(InProcessChannel):
    """An in-process seller that answers every request with an INTERNAL
    ERROR carrying FORGED."""

    def _received(self, frame):
        return super()._received(encode_frame(ErrorMessage("INTERNAL", FORGED, "sess-0")))


def test_a_sellers_failure_text_prints_escaped_on_one_line(scenario_dir, tmp_path, capsys,
                                                          monkeypatch):
    def endpoints(nodes):
        return [(n.node_id, lambda n=n: (ForgingChannel if n.node_id == "seller-1"
                                         else InProcessChannel)(n)) for n in nodes]

    monkeypatch.setattr(cli, "in_process_endpoints", endpoints)
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    assert capsys.readouterr().err == f"seller seller-1 failed: INTERNAL: {FORGED_SHOWN}\n"
    assert load_report(out).entry("seller-1").failure_reason == f"INTERNAL: {FORGED}"

    assert run_cli("report", "--input", str(out)) == 0
    table = capsys.readouterr().out
    assert all(line.isprintable() for line in table.splitlines())
    failed = [line for line in table.splitlines() if "failed" in line]
    assert failed == [f"failed: seller-1: INTERNAL: {FORGED_SHOWN}"]
    # the csv module quotes the newline and passes the controls through
    assert run_cli("report", "--input", str(out), "--format", "csv") == 0
    assert f'"INTERNAL: {FORGED}"' in capsys.readouterr().out


@pytest.mark.parametrize("value", ["basic_format", "nonsense", "debug"])
def test_priarta_log_takes_only_a_level_name(tmp_path, value):
    # In a child process: under pytest the root logger has handlers already,
    # so basicConfig would ignore the level here.
    env = dict(package_env(), PRIARTA_LOG=value)
    proc = subprocess.run([sys.executable, "-m", "priarta.cli", "report", "--input",
                           str(tmp_path / "missing.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "No such file" in proc.stderr, proc.stderr
    assert len(proc.stderr.splitlines()) == 1


# --------------------------------------------------------------- robustness


def test_robustness_appends_zero_deviations(scenario_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    assert run_cli("robustness", "--seed", "7", "--output", str(out)) == 0
    report = load_report(out)
    assert report.robustness is not None
    ids = [r.node_id for r in report.robustness]
    assert ids == [f"seller-{i}" for i in range(3, 8)]
    for entry in report.robustness:
        assert entry.deviation == 0.0


def test_robustness_baselines_match_report_scores(scenario_dir, tmp_path):
    # the augmented sellers' own raw scores ARE the augmented distances;
    # their sources' raw scores are the baselines
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    assert run_cli("robustness", "--seed", "7", "--output", str(out)) == 0
    report = load_report(out)
    by_id = {e.node_id: e for e in report.entries}
    for r in report.robustness:
        assert r.augmented_w2 == by_id[r.node_id].raw_w2


def refusal_of(path, report, config):
    """The one error line with which robustness refuses the report at path
    for the scenario config: its first entry that the report does not hold."""
    held = {e.node_id: e.raw_w2 for e in report.entries}
    first = next(r for r in robustness_for_config(config) if held.get(r.node_id) != r.augmented_w2)
    score = "no score" if held.get(first.node_id) is None else repr(held[first.node_id])
    return (f"error: {path} is not the report of the scenario's round: seller {first.node_id} "
            f"scores {first.augmented_w2!r} in the scenario's round and {score} in the report\n")


@pytest.mark.parametrize("over", [("--seed", "8"), ("--config", "{tmp}/cfg.json")],
                         ids=["seed", "budget"])
def test_robustness_refuses_the_report_of_another_scenario(scenario_dir, tmp_path, capsys,
                                                           over):
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out)) == 0
    before = out.read_bytes()
    cfg = default_scenario(7).to_dict()
    cfg["subset_size"] = 256
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    argv = [arg.format(tmp=tmp_path) for arg in over]
    assert run_cli("robustness", *argv, "--output", str(out)) == 1
    config = default_scenario(8) if over[0] == "--seed" else ScenarioConfig.from_dict(cfg)
    assert capsys.readouterr().err == refusal_of(out, load_report(out), config)
    assert out.read_bytes() == before


@pytest.mark.parametrize("flags, missing", [
    (("--debias",), None), (("--noisy-buyer",), None), ((), "seller-5.raw"),
], ids=["debias", "noisy-buyer", "missing-copy"])
def test_robustness_refuses_a_report_that_scores_the_copies_otherwise(
        scenario_dir, tmp_path, capsys, flags, missing):
    # a debiased or noised-buyer round, or one without a copy, holds other
    # scores than the augmented round appends
    run = tmp_path / "run"
    shutil.copytree(scenario_dir, run)
    if missing is not None:
        (run / "sellers" / missing).unlink()
    out = tmp_path / "report.json"
    assert run_cli(*value_args(run, out), *flags) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert run_cli("robustness", "--seed", "7", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err == refusal_of(out, load_report(out), default_scenario(7))
    assert len(err.splitlines()) == 1
    assert ("no score" in err) == (missing is not None)
    assert out.read_bytes() == before


def test_report_refuses_robustness_entries_of_other_scores(scenario_dir, tmp_path, capsys):
    # A debiased report with the scenario's robustness entries written in, as
    # an older robustness command appended them: seller-3's augmented_w2 is
    # not its debiased raw_w2, so reading the report refuses it
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out), "--debias") == 0
    data = json.loads(out.read_text())
    entries = robustness_for_config(default_scenario(7))
    data["robustness"] = [e.to_dict() for e in entries]
    out.write_text(json.dumps(data))
    held = {e["node_id"]: e["raw_w2"] for e in data["entries"]}
    first = next(r for r in entries if held[r.node_id] != r.augmented_w2)
    assert first.node_id == "seller-3"
    capsys.readouterr()
    assert run_cli("report", "--input", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: malformed valuation report: seller {first.node_id} scores "
        f"{first.augmented_w2!r} in the scenario's round and {held[first.node_id]!r} "
        "in the report\n")


def test_robustness_accepts_a_report_of_either_objective(scenario_dir, tmp_path):
    # the objective ranks the scores but does not change them
    out = tmp_path / "report.json"
    assert run_cli(*value_args(scenario_dir, out), "--objective", "enrich") == 0
    assert run_cli("robustness", "--seed", "7", "--output", str(out)) == 0
    report = load_report(out)
    assert report.objective == "enrich"
    assert [r.augmented_w2 for r in report.robustness] == [
        report.entry(f"seller-{i}").raw_w2 for i in range(3, 8)]


def test_robustness_without_augmented_sellers_notices(tmp_path, capsys):
    cfg = default_scenario(7).to_dict()
    cfg["sellers"] = cfg["sellers"][:2]  # fresh sellers only
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg))
    report_path = tmp_path / "r.json"
    report_path.write_text(
        '{"degenerate_normalization":false,"entries":[],"objective":"diversify",'
        '"params_echo":{},"ranking":[],"robustness":null}\n'
    )
    assert run_cli("robustness", "--config", str(config_path),
                   "--output", str(report_path)) == 0
    assert "nothing to do" in capsys.readouterr().out


def test_robustness_with_a_subset_past_a_sellers_rows_exits_1(tmp_path):
    cfg = default_scenario(7).to_dict()
    cfg["subset_size"] = 1_000_000
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg))
    report_path = tmp_path / "r.json"
    report = ('{"degenerate_normalization":false,"entries":[],"objective":"diversify",'
              '"params_echo":{},"ranking":[],"robustness":null}\n')
    report_path.write_text(report)
    env = package_env()
    done = subprocess.run(
        [sys.executable, "-m", "priarta.cli", "robustness", "--config", str(config_path),
         "--output", str(report_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: ")
    assert "subset of 1000000 requested" in lines[0]
    assert report_path.read_text() == report


# ------------------------------------------------------------------ network


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_a_port_is_ascii_digits_up_to_65535():
    assert _parse_hostport("127.0.0.1:65535") == ("127.0.0.1", 65535)
    assert _parse_hostport(":0") == ("127.0.0.1", 0)
    for text in ("127.0.0.1:65536", "127.0.0.1:70000", "127.0.0.1:\uff18\uff10",
                 "127.0.0.1:+80", "127.0.0.1:", "127.0.0.1"):
        with pytest.raises(ParameterError, match="must be host:port"):
            _parse_hostport(text)


# 70000 wrapped modulo 65536 is port 4464; U+FF18 U+FF10 are full-width "80"
@pytest.mark.parametrize("port", ["70000", "65536", "\uff18\uff10"])
def test_value_refuses_a_port_past_65535_or_not_ascii(scenario_dir, tmp_path, capsys, port):
    out = tmp_path / "r.json"
    code = run_cli("value", "--input", str(scenario_dir / "buyer.raw"),
                   "--sellers", f"a=127.0.0.1:{port}",
                   "--spec", str(scenario_dir / "encoder.json"), "--output", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: address '127.0.0.1:{port}' must be host:port\n"
    assert not out.exists()


# U+FF17 U+FF10 U+FF10 U+FF10 U+FF10 are full-width "70000"
@pytest.mark.parametrize("port", ["70000", "65536", "\uff17\uff10\uff10\uff10\uff10"])
def test_serve_refuses_a_port_past_65535_or_not_ascii(scenario_dir, capsys, port):
    code = run_cli("serve", "--input", str(scenario_dir / "buyer.raw"),
                   "--listen", f"127.0.0.1:{port}")
    assert code == 1
    assert capsys.readouterr().err == f"error: address '127.0.0.1:{port}' must be host:port\n"


def test_serve_and_value_over_sockets(scenario_dir, tmp_path):
    # spawn two real seller processes, value against them, and compare with
    # the offline route over the same two sellers. Each binds a port of its
    # own choosing and reports it.
    ports = []
    procs = []
    env = package_env()
    spec = str(scenario_dir / "encoder.json")
    try:
        for i in (1, 2):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "priarta.cli", "serve",
                 "--input", str(scenario_dir / "sellers" / f"seller-{i}.raw"),
                 "--listen", "127.0.0.1:0",
                 "--node-id", f"seller-{i}"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            ))
        for i, proc in enumerate(procs, start=1):
            line = proc.stdout.readline()
            assert line.startswith(f"node seller-{i} listening on 127.0.0.1:"), line
            ports.append(int(line.rsplit(":", 1)[1]))

        net_out = tmp_path / "net.json"
        code = run_cli(
            "value",
            "--input", str(scenario_dir / "buyer.raw"),
            "--sellers", ",".join(
                f"seller-{i}=127.0.0.1:{port}" for i, port in enumerate(ports, start=1)
            ),
            "--spec", spec,
            "--output", str(net_out),
            "--seed", "7",
        )
        assert code == 0
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    # offline pass over only those two sellers
    two = tmp_path / "two"
    two.mkdir()
    for i in (1, 2):
        (two / f"seller-{i}.raw").write_bytes(
            (scenario_dir / "sellers" / f"seller-{i}.raw").read_bytes()
        )
    off_out = tmp_path / "off.json"
    code = run_cli(
        "value",
        "--input", str(scenario_dir / "buyer.raw"),
        "--sellers", str(two),
        "--spec", spec,
        "--output", str(off_out),
        "--offline",
        "--seed", "7",
    )
    assert code == 0
    assert net_out.read_bytes() == off_out.read_bytes()


def test_value_against_dead_seller_exits_3(scenario_dir, tmp_path, capsys):
    port = free_port()  # nothing listens here
    code = run_cli(
        "value",
        "--input", str(scenario_dir / "buyer.raw"),
        "--sellers", f"ghost=127.0.0.1:{port}",
        "--spec", str(scenario_dir / "encoder.json"),
        "--output", str(tmp_path / "r.json"),
        "--seed", "7",
    )
    assert code == 3


@pytest.mark.parametrize("flags", [(), ("--noisy-buyer",)], ids=["plain", "noisy-buyer"])
@pytest.mark.parametrize("radius", ["1e-200", "1e200"])
def test_value_refuses_a_budget_without_a_finite_positive_sigma(scenario_dir, tmp_path, capsys,
                                                                radius, flags):
    # R^2 underflows to 0 or overflows: the budget is refused before any
    # seller is asked, so the dead seller here is never reached (asking it
    # would exit 3)
    out = tmp_path / "r.json"
    code = run_cli(
        "value",
        "--input", str(scenario_dir / "buyer.raw"),
        "--sellers", f"ghost=127.0.0.1:{free_port()}",
        "--spec", str(scenario_dir / "encoder.json"),
        "--output", str(out),
        "--seed", "7",
        "--clip-radius", radius,
        *flags,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_value_refuses_a_budget_whose_noised_covariance_overflows(scenario_dir, tmp_path,
                                                                 capsys):
    # R = 1e100 gives sigma ~ 4.7e198 on 512-row subsets, so every seller's
    # noised second moments would overflow: refused before any seller is asked
    out = tmp_path / "r.json"
    code = run_cli(
        "value", "--offline",
        "--input", str(scenario_dir / "buyer.raw"),
        "--sellers", str(scenario_dir / "sellers"),
        "--spec", str(scenario_dir / "encoder.json"),
        "--output", str(out),
        "--seed", "7",
        "--clip-radius", "1e100",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "overflows the noised covariance of 512 rows" in err
    assert not out.exists()


def test_value_with_malformed_input_exits_1_and_the_seller_serves_on(scenario_dir, tmp_path,
                                                                      capsys):
    # The seller is asked before the buyer's file is read; the bad file still
    # exits 1 with one error line, and the seller serves the next round.
    seller = scenario_dir / "sellers" / "seller-1.raw"
    server = SellerServer(("127.0.0.1", 0), SellerNode("seller-1", raw=read_raw_dataset(seller)))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    bad = tmp_path / "big-label.raw"
    content, line = HOSTILE_INPUTS["big-label.raw"]
    bad.write_bytes(content)
    endpoint = "seller-1=127.0.0.1:%d" % server.server_address[1]
    argv = ["value", "--sellers", endpoint, "--spec", str(scenario_dir / "encoder.json"),
            "--output", str(tmp_path / "r.json"), "--seed", "7"]
    try:
        assert run_cli(*argv, "--input", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "r.json").exists()
        assert run_cli(*argv, "--input", str(scenario_dir / "buyer.raw")) == 0
    finally:
        server.shutdown()
        server.server_close()
    assert not any(entry.failed for entry in load_report(tmp_path / "r.json").entries)


@pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
def test_serve_hostile_input_exits_1(tmp_path, capsys, name):
    # the input is read before any bind, so no server starts
    bad = tmp_path / name
    content, line = HOSTILE_INPUTS[name]
    bad.write_bytes(content)
    assert run_cli("serve", "--input", str(bad), "--listen", "127.0.0.1:0") == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: ")


def external_spec(latent_dim: int) -> dict:
    return {"kind": "external", "seed": 5, "input_dim": 16, "latent_dim": latent_dim,
            "signal_dims": 8, "leakage_alpha": 0.0}


def write_rows(path, d: int, seed: int, rows: int = 64):
    vectors = np.random.default_rng(seed).standard_normal((rows, d))
    write_embeddings(path, EmbeddingSet(vectors, 1.0, False))


def test_value_refuses_a_buyer_file_the_spec_does_not_fit(tmp_path, capsys):
    # an 8-wide buyer.emb, 4-wide sellers and an external spec of latent_dim 4
    sellers = tmp_path / "sellers"
    sellers.mkdir()
    write_rows(tmp_path / "buyer.emb", 8, 1)
    for seed in (2, 3):
        write_rows(sellers / f"seller-{seed}.emb", 4, seed)
    save_json(tmp_path / "spec.json", external_spec(4))
    out = tmp_path / "r.json"
    code = run_cli("value", "--offline", "--input", str(tmp_path / "buyer.emb"),
                   "--sellers", str(sellers), "--spec", str(tmp_path / "spec.json"),
                   "--output", str(out), "--seed", "7", "--subset-size", "32")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: embeddings have 8 coordinates, latent_dim is 4\n")
    assert not out.exists()


# A seller file and a spec to pin, from the scenario ({scn}) or made here
# ({tmp}), and the problem the node would answer every MODEL_SPEC with, or
# None when the spec fits.
SERVE_PINS = {
    "embeddings-toy": ("{tmp}/seller.emb", "{scn}/encoder.json",
                       "pre-encoded node serves only external encoder specs"),
    "embeddings-latent-8": ("{tmp}/seller.emb", "{tmp}/external8.json",
                            "embeddings have 4 coordinates, latent_dim is 8"),
    "raw-external": ("{scn}/sellers/seller-1.raw", "{tmp}/external4.json",
                     "raw data needs a toy_projection spec, not 'external'"),
    "raw-toy": ("{scn}/sellers/seller-1.raw", "{scn}/encoder.json", None),
    "embeddings-external": ("{tmp}/seller.emb", "{tmp}/external4.json", None),
}


@pytest.mark.parametrize("name", sorted(SERVE_PINS))
def test_serve_refuses_a_pinned_spec_its_data_cannot_serve(scenario_dir, tmp_path, capsys,
                                                           monkeypatch, name):
    # refused before the bind: a fitting spec reaches it, and the bind fails
    def bind(address, node):
        raise OSError("no bind in this test")

    monkeypatch.setattr(cli, "SellerServer", bind)
    write_rows(tmp_path / "seller.emb", 4, 2)
    save_json(tmp_path / "external4.json", external_spec(4))
    save_json(tmp_path / "external8.json", external_spec(8))
    data, spec, problem = (arg and arg.format(scn=scenario_dir, tmp=tmp_path)
                           for arg in SERVE_PINS[name])
    code = run_cli("serve", "--input", data, "--spec", spec, "--listen", "127.0.0.1:0")
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    if problem is None:
        assert code == 2 and err.startswith("error: cannot bind ")
    else:
        assert code == 1 and err.startswith(f"error: {data} cannot serve the spec in {spec}: ")
        assert problem in err


# Every command that reads a JSON file, with {bad} in that file's place; the
# bad file is read before anything else that could fail.
JSON_READING_COMMANDS = {
    "scenario-config": ("scenario", "--config", "{bad}", "--out-dir", "{tmp}/out"),
    "robustness-config": ("robustness", "--config", "{bad}", "--output", "{tmp}/r.json"),
    "robustness-report": ("robustness", "--seed", "7", "--output", "{bad}"),
    "report-input": ("report", "--input", "{bad}"),
    "encode-spec": ("encode", "--spec", "{bad}", "--input", "{raw}", "--output", "{tmp}/e.emb"),
    "serve-spec": ("serve", "--input", "{raw}", "--spec", "{bad}", "--listen", "127.0.0.1:0"),
    "value-spec": ("value", "--spec", "{bad}", "--input", "{raw}", "--sellers", "{tmp}",
                   "--offline", "--output", "{tmp}/r.json"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("command", sorted(JSON_READING_COMMANDS))
def test_hostile_json_file_exits_1(tmp_path, capsys, command, name):
    bad = tmp_path / name
    bad.write_bytes(HOSTILE_JSON[name])
    raw = tmp_path / "d.raw"
    raw.write_text("PRIARTA-RAW 1\n2 2 1\n1.0\n0 1.0 2.0\n0 3.0 4.0\n")
    argv = [arg.format(bad=bad, raw=raw, tmp=tmp_path) for arg in JSON_READING_COMMANDS[command]]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:")


# The commands that read each kind of HOSTILE_VALUES file, with {bad} in its place.
VALUE_READING_COMMANDS = {
    "spec": (
        ("value", "--spec", "{bad}", "--input", "{scn}/buyer.raw", "--sellers", "{scn}/sellers",
         "--offline", "--seed", "7", "--output", "{tmp}/r.json"),
        ("encode", "--spec", "{bad}", "--input", "{scn}/buyer.raw", "--output", "{tmp}/e.emb"),
    ),
    "config": (("scenario", "--config", "{bad}", "--out-dir", "{tmp}/out"),),
    "report": (
        ("report", "--input", "{bad}"),
        ("report", "--input", "{bad}", "--format", "csv"),
        ("robustness", "--seed", "7", "--output", "{bad}"),
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_VALUES))
def test_hostile_value_file_exits_1(scenario_dir, tmp_path, name):
    # a separate process, so that a seller's logged traceback would show too
    bad = tmp_path / name
    bad.write_bytes(HOSTILE_VALUES[name])
    env = package_env()
    kind = name.rsplit(".", 2)[1]
    for command in VALUE_READING_COMMANDS[kind]:
        argv = [arg.format(bad=bad, scn=scenario_dir, tmp=tmp_path) for arg in command]
        proc = subprocess.run([sys.executable, "-m", "priarta.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, (command[0], proc.stderr)
        # one error line; a config error goes on to list its problems
        first, *rest = proc.stderr.splitlines()
        assert first.startswith("error: "), proc.stderr
        assert all(line.startswith("  - ") for line in rest), proc.stderr


def test_serve_bind_conflict_exits_2(scenario_dir):
    port = free_port()
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", port))
        blocker.listen(1)
        code = run_cli(
            "serve",
            "--input", str(scenario_dir / "sellers" / "seller-1.raw"),
            "--listen", f"127.0.0.1:{port}",
        )
    assert code == 2


@pytest.mark.parametrize("named", ["by-file", "by-option"])
def test_serve_refuses_the_buyers_id_before_it_binds(scenario_dir, capsys, named):
    # The port is taken, so a node that tried to bind would exit 2.
    port = free_port()
    argv = (["--input", str(scenario_dir / "buyer.raw")] if named == "by-file" else
            ["--input", str(scenario_dir / "sellers" / "seller-1.raw"), "--node-id", "buyer"])
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", port))
        blocker.listen(1)
        code = run_cli("serve", *argv, "--listen", f"127.0.0.1:{port}")
    assert code == 1
    assert capsys.readouterr().err == "error: seller node id 'buyer' is reserved for the buyer\n"
