"""End-to-end command-line flows."""

import json
import os
from pathlib import Path
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import priarta
from priarta import SellerNode, SellerServer, default_scenario, load_report
from priarta.cli import main, run_valuation_for_config
from priarta.fileio import read_raw_dataset
from priarta.valuation import dumps_report

from conftest import HOSTILE_INPUTS, HOSTILE_JSON, HOSTILE_VALUES


def run_cli(*argv):
    return main(list(argv))


def package_env():
    """The environment for a child process that imports the same package as
    the tests, installed or not."""
    package_root = str(Path(priarta.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


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


def test_report_corrupt_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("report", "--input", str(bad)) == 1
    assert "byte" in capsys.readouterr().err


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


def test_serve_and_value_over_sockets(scenario_dir, tmp_path):
    # spawn two real seller processes, value against them, and compare with
    # the offline route over the same two sellers
    ports = [free_port(), free_port()]
    procs = []
    env = package_env()
    spec = str(scenario_dir / "encoder.json")
    try:
        for i, port in enumerate(ports, start=1):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "priarta.cli", "serve",
                 "--input", str(scenario_dir / "sellers" / f"seller-{i}.raw"),
                 "--listen", f"127.0.0.1:{port}",
                 "--node-id", f"seller-{i}"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            ))
        for proc in procs:
            line = proc.stdout.readline()
            assert "listening" in line

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
            "--input", str(scenario_dir / "buyer.raw"),
            "--listen", f"127.0.0.1:{port}",
        )
    assert code == 2
