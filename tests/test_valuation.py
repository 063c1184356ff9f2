"""Scoring, normalization, ranking, reports, and rendering."""

import numpy as np
import pytest

from priarta import (
    EmptyInputError,
    FileFormatError,
    GaussianSummary,
    NoCandidatesError,
    NumericInputError,
    RobustnessEntry,
    SellerScore,
    ValuationReport,
    build_report,
    load_report,
    minmax_normalize,
    rank_sellers,
    render_csv,
    render_table,
    robustness_report,
    save_report,
)
from priarta.protocol import (
    SellerNode,
    SellerOutcome,
    in_process_endpoints,
    orchestrate_valuation,
)
from priarta.scenario import BUYER_ID, build_datasets, default_scenario
from priarta.valuation import dumps_report, with_robustness

from conftest import random_summary


PARAMS = {"epsilon": 0.8, "delta": 1e-5, "objective": "diversify"}


def outcome(node_id, summary=None, failure=None):
    return SellerOutcome(node_id=node_id, summary=summary, sigma_used=9.0, failure=failure)


# ---------------------------------------------------------------- normalize


def test_minmax_example():
    values, degenerate = minmax_normalize([2.0, 5.0, 8.0])
    assert values == [0.0, 0.5, 1.0]
    assert not degenerate


def test_minmax_constant_input_degenerates():
    values, degenerate = minmax_normalize([7.0, 7.0, 7.0])
    assert values == [0.0, 0.0, 0.0]
    assert degenerate


def test_minmax_singleton_degenerates():
    values, degenerate = minmax_normalize([4.2])
    assert values == [0.0]
    assert degenerate


def test_minmax_preserves_order(rng):
    raw = list(rng.random(20) * 10)
    values, _ = minmax_normalize(raw)
    assert np.argsort(values).tolist() == np.argsort(raw).tolist()
    assert min(values) == 0.0 and max(values) == 1.0


def test_minmax_rejects_bad_input():
    with pytest.raises(EmptyInputError):
        minmax_normalize([])
    with pytest.raises(NumericInputError):
        minmax_normalize([1.0, float("nan")])


# ------------------------------------------------------------------ ranking


def rank_input():
    return [
        SellerScore("A", raw_w2=3.0, normalized=1.0),
        SellerScore("B", raw_w2=1.0, normalized=0.0),
        SellerScore("C", raw_w2=2.0, normalized=0.5),
    ]


def test_rank_diversify_descends():
    assert rank_sellers(rank_input(), "diversify") == ["A", "C", "B"]


def test_rank_enrich_ascends():
    assert rank_sellers(rank_input(), "enrich") == ["B", "C", "A"]


def test_rank_breaks_ties_by_node_id():
    entries = [
        SellerScore("B", raw_w2=2.0, normalized=0.0),
        SellerScore("A", raw_w2=2.0, normalized=0.0),
    ]
    assert rank_sellers(entries, "diversify") == ["A", "B"]


def test_rank_skips_failed_sellers():
    entries = rank_input() + [SellerScore("D", failed=True, failure_reason="boom")]
    assert rank_sellers(entries, "diversify") == ["A", "C", "B"]


def test_rank_rejects_all_failed():
    entries = [SellerScore("D", failed=True, failure_reason="boom")]
    with pytest.raises(NoCandidatesError):
        rank_sellers(entries, "diversify")


def test_rank_rejects_unknown_objective():
    with pytest.raises(Exception):
        rank_sellers(rank_input(), "amuse")


def test_rank_affine_invariance(rng):
    # rescaling raw scores never reorders sellers
    raws = list(rng.random(10) * 5 + 0.1)
    entries = [SellerScore(f"s{i:02d}", raw_w2=r, normalized=0.0) for i, r in enumerate(raws)]
    scaled = [
        SellerScore(f"s{i:02d}", raw_w2=3.0 * r + 2.0, normalized=0.0)
        for i, r in enumerate(raws)
    ]
    assert rank_sellers(entries, "diversify") == rank_sellers(scaled, "diversify")


# --------------------------------------------------------------- robustness


def test_robustness_identical_summaries(rng):
    buyer = random_summary(rng, 4)
    seller = random_summary(rng, 4)
    out = robustness_report(buyer, seller, seller)
    assert out["deviation"] == 0.0
    assert out["baseline_w2"] == out["augmented_w2"]


def test_robustness_deviation_is_absolute(rng):
    buyer = random_summary(rng, 4)
    base = random_summary(rng, 4)
    aug = random_summary(rng, 4)
    out = robustness_report(buyer, base, aug)
    assert out["deviation"] == abs(out["baseline_w2"] - out["augmented_w2"])


# ------------------------------------------------------------ build_report


def make_outcomes(rng):
    buyer = random_summary(rng, 4)
    return buyer, [
        outcome("seller-2", random_summary(rng, 4)),
        outcome("seller-1", random_summary(rng, 4)),
        outcome("seller-3", failure="ProtocolFailure: INSUFFICIENT_DATA: too few rows"),
    ]


def test_build_report_structure(rng):
    buyer, outcomes = make_outcomes(rng)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    assert [e.node_id for e in report.entries] == ["seller-1", "seller-2", "seller-3"]
    ok = [e for e in report.entries if not e.failed]
    assert {e.normalized for e in ok} == {0.0, 1.0}
    assert report.entry("seller-3").failed
    assert report.entry("seller-3").failure_reason
    assert set(report.ranking) == {"seller-1", "seller-2"}
    assert report.params_echo == PARAMS
    assert not report.degenerate_normalization


def test_build_report_all_failed_keeps_empty_ranking(rng):
    buyer = random_summary(rng, 4)
    report = build_report(buyer, [outcome("x", failure="boom")], "diversify", PARAMS)
    assert report.ranking == ()
    assert report.entry("x").failed


def test_build_report_flags_degenerate(rng):
    buyer = random_summary(rng, 4)
    s = random_summary(rng, 4)
    report = build_report(buyer, [outcome("a", s), outcome("b", s)], "diversify", PARAMS)
    assert report.degenerate_normalization


# ------------------------------------------------------------ serialization


def test_report_round_trip(tmp_path, rng):
    buyer, outcomes = make_outcomes(rng)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    path = tmp_path / "report.json"
    save_report(report, path)
    again = load_report(path)
    assert dumps_report(again) == dumps_report(report)
    assert again.to_dict() == report.to_dict()


def test_report_with_robustness_round_trip(tmp_path, rng):
    buyer, outcomes = make_outcomes(rng)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    report = with_robustness(
        report, [RobustnessEntry("seller-1", 1.25, 1.25, 0.0)]
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    again = load_report(path)
    assert again.robustness == report.robustness
    assert dumps_report(again) == dumps_report(report)


def test_load_report_names_byte_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"entries": [')
    with pytest.raises(FileFormatError) as info:
        load_report(path)
    assert "byte" in str(info.value)


def test_load_report_rejects_wrong_shape(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"other": 1}')
    with pytest.raises(FileFormatError):
        load_report(path)


# ---------------------------------------------------------------- rendering


def test_render_table_rows(rng):
    buyer, outcomes = make_outcomes(rng)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    text = render_table(report)
    lines = text.splitlines()
    assert "node_id" in lines[0]
    assert sum("seller-" in line for line in lines) >= 3
    assert any("failed: seller-3" in line for line in lines)


def test_render_table_degenerate_footnote(rng):
    buyer = random_summary(rng, 4)
    s = random_summary(rng, 4)
    report = build_report(buyer, [outcome("a", s), outcome("b", s)], "diversify", PARAMS)
    assert "degenerate" in render_table(report)


def test_render_csv_reparses_identically(rng):
    import csv
    import io

    buyer, outcomes = make_outcomes(rng)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    text = render_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    by_id = {r["node_id"]: r for r in rows}
    for entry in report.entries:
        row = by_id[entry.node_id]
        if entry.failed:
            assert row["failed"] == "true"
            assert row["raw_w2"] == ""
        else:
            # repr floats re-parse exactly
            assert float(row["raw_w2"]) == entry.raw_w2
            assert float(row["normalized"]) == entry.normalized


def test_report_from_dict_rejects_bad_objective(rng):
    buyer, outcomes = make_outcomes(rng)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    data = report.to_dict()
    data["objective"] = "amuse"
    with pytest.raises(FileFormatError):
        ValuationReport.from_dict(data)


# ------------------------------------------------------- factor-once scoring


def counting(monkeypatch, names):
    """Replace np.linalg functions by call-counting wrappers."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return counts


DECOMPOSITIONS = ("cholesky", "eigh", "eigvalsh", "eig", "eigvals", "svd")


@pytest.mark.parametrize("singular_buyer", [False, True])
def test_build_report_factors_buyer_once(monkeypatch, rng, singular_buyer):
    dim, k = 12, 5
    if singular_buyer:
        # 6 rows in 12 dimensions: Cholesky fails, the factor comes from eigh
        x = rng.standard_normal((6, dim))
        centered = x - x.mean(axis=0)
        buyer = GaussianSummary(x.mean(axis=0), centered.T @ centered / 5, 6)
    else:
        buyer = random_summary(rng, dim)
    sellers = [outcome(f"seller-{i}", random_summary(rng, dim)) for i in range(k)]
    counts = counting(monkeypatch, DECOMPOSITIONS)
    report = build_report(buyer, sellers, "diversify", PARAMS)
    assert len(report.ranking) == k
    expected = dict.fromkeys(DECOMPOSITIONS, 0)
    expected.update(cholesky=1, eigvalsh=k, eigh=1 if singular_buyer else 0)
    assert counts == expected
    # a second report reuses the buyer's cached factor
    counts.update(dict.fromkeys(DECOMPOSITIONS, 0))
    build_report(buyer, sellers, "diversify", PARAMS)
    assert counts == dict(expected, cholesky=0, eigh=0)


def test_round_caches_factor_on_buyer_only():
    config = default_scenario(1000)
    datasets = build_datasets(config)
    nodes = [SellerNode(nid, raw=datasets[nid]) for nid in config.seller_ids()]
    buyer, outcomes = orchestrate_valuation(
        datasets[BUYER_ID], in_process_endpoints(nodes), config.encoder, config.budget,
        master_seed=config.master_seed,
    )
    build_report(buyer, outcomes, "diversify", PARAMS)
    assert "_covariance_factor" in vars(buyer)
    summaries = [o.summary for o in outcomes if o.summary is not None]
    assert len(summaries) == len(config.sellers)
    assert not any("_covariance_factor" in vars(s) for s in summaries)
