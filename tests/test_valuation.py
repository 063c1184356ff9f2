"""Scoring, normalization, ranking, reports, and rendering."""

import dataclasses
import math
import tracemalloc
import warnings

from hypothesis import given, settings, strategies as st
import mpmath
import numpy as np
import pytest
import scipy.linalg

from priarta import (
    ConvergenceError,
    EmbeddingSet,
    EmptyInputError,
    EncoderSpec,
    FileFormatError,
    GaussianSummary,
    NoCandidatesError,
    NotPSDError,
    NumericInputError,
    ParameterError,
    PrivacyBudget,
    RobustnessEntry,
    SellerScore,
    ValuationReport,
    build_report,
    calibrate_sigma,
    debias_covariance,
    gaussian_geometry,
    load_report,
    minmax_normalize,
    protocol,
    psd_clamp,
    rank_sellers,
    render_csv,
    render_table,
    save_report,
    stats,
    wasserstein2_gaussian,
)
from priarta.errors import PriartaError, _trusted
from priarta.protocol import (
    PROTOCOL_VERSION,
    Hello,
    InProcessChannel,
    SellerNode,
    SellerOutcome,
    SellerSession,
    StatsRequest,
    StatsResponse,
    decode_frame,
    encode_frame,
    in_process_endpoints,
    orchestrate_valuation,
    pack_covariance,
)
from priarta.scenario import BUYER_ID, ScenarioConfig, build_datasets, default_scenario
from priarta.valuation import (
    dumps_report,
    robustness_for_config,
    run_valuation,
    run_valuation_for_config,
    with_robustness,
)

from conftest import random_psd, random_summary


PARAMS = {"epsilon": 0.8, "delta": 1e-5, "objective": "diversify"}


def outcome(node_id, summary=None, failure=None):
    return SellerOutcome(node_id=node_id, summary=summary, failure=failure)


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


def test_robustness_entries_are_the_copies_scores_in_the_scenarios_round():
    # leakage_alpha > 0: augmenting the nuisance block moves every copy's
    # distance, and the augmented round scores each copy bit for bit as the
    # scenario's own round does
    cfg = default_scenario(7).to_dict()
    cfg["encoder"]["leakage_alpha"] = 0.5
    config = ScenarioConfig.from_dict(cfg)
    entries = robustness_for_config(config)
    report = run_valuation_for_config(config)
    assert [e.node_id for e in entries] == [f"seller-{i}" for i in range(3, 8)]
    for e in entries:
        assert e.deviation > 0.0
        assert e.deviation == abs(e.baseline_w2 - e.augmented_w2)
        assert e.augmented_w2 == report.entry(e.node_id).raw_w2


def test_robustness_entries_follow_config_order():
    # node ids sort as seller-10 < seller-3 < seller-9; entries keep the
    # order of config.sellers
    cfg = default_scenario(7).to_dict()
    aug = cfg["sellers"][2]["augmentation"]
    cfg["sellers"] += [
        {"node_id": "seller-9", "kind": "augmented_copy", "source_id": "seller-1",
         "augmentation": dict(aug)},
        {"node_id": "seller-10", "kind": "augmented_copy", "source_id": BUYER_ID,
         "augmentation": dict(aug)},
    ]
    entries = robustness_for_config(ScenarioConfig.from_dict(cfg))
    assert [e.node_id for e in entries] == [f"seller-{i}" for i in (3, 4, 5, 6, 7, 9, 10)]
    # leakage_alpha = 0: augmenting the nuisance block moves no distance
    assert all(e.deviation == 0.0 for e in entries)


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
    held = report.entry("seller-1").raw_w2
    report = with_robustness(
        report, [RobustnessEntry("seller-1", 1.25, held, abs(1.25 - held))]
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    again = load_report(path)
    assert again.robustness == report.robustness
    assert dumps_report(again) == dumps_report(report)


def test_with_robustness_refuses_a_score_the_report_does_not_hold(rng):
    # seller-3 failed and seller-9 is not in the report: neither has a score
    buyer, outcomes = make_outcomes(rng)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    held = report.entry("seller-1").raw_w2
    for node_id, augmented, words in [("seller-1", held + 1.0, repr(held)),
                                      ("seller-3", held, "no score"),
                                      ("seller-9", held, "no score")]:
        entry = RobustnessEntry(node_id, held, augmented, abs(held - augmented))
        with pytest.raises(ParameterError) as info:
            with_robustness(report, [entry])
        assert str(info.value) == (f"seller {node_id} scores {augmented!r} in the scenario's "
                                   f"round and {words} in the report")


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
    """Replace np.linalg functions by wrappers that count the matrices each
    call decomposes: one for a matrix, k for a stack of k."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += math.prod(np.shape(args[0])[:-2])
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return counts


DECOMPOSITIONS = ("cholesky", "eigh", "eigvalsh", "eig", "eigvals", "svd")


@pytest.mark.parametrize("singular_buyer", [False, True])
def test_build_report_factors_buyer_once(monkeypatch, rng, singular_buyer):
    dim, k = 12, 5
    sellers = [outcome(f"seller-{i}", random_summary(rng, dim)) for i in range(k)]
    counts = counting(monkeypatch, DECOMPOSITIONS)
    if singular_buyer:
        # 6 rows in 12 dimensions: Cholesky fails, the factor comes from eigh
        x = rng.standard_normal((6, dim))
        centered = x - x.mean(axis=0)
        buyer = GaussianSummary(x.mean(axis=0), centered.T @ centered / 5, 6)
    else:
        buyer = random_summary(rng, dim)
    # the constructor keeps the factor its Cholesky or eigh made
    assert counts == dict.fromkeys(DECOMPOSITIONS, 0) | {
        "cholesky": 1, "eigh": int(singular_buyer)}
    for _ in range(2):  # so each report makes only the sellers' cross-term solves
        counts.update(dict.fromkeys(DECOMPOSITIONS, 0))
        report = build_report(buyer, sellers, "diversify", PARAMS)
        assert len(report.ranking) == k
        assert counts == dict.fromkeys(DECOMPOSITIONS, 0) | {"eigvalsh": k}


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


@pytest.mark.parametrize("rows", [40, 4], ids=["cholesky", "at-most-d-rows"])
def test_a_trusted_summary_makes_its_w2_factor_as_its_public_twin_does(rng, rows):
    # summarize's trusted summary makes its factor on first use as W2's left
    # argument; the public constructor makes it when the twin is built.
    dim = 8
    trusted = stats.summarize(EmbeddingSet(rng.standard_normal((rows, dim)), 10.0, clipped=False))
    twin = GaussianSummary(trusted.mean, trusted.covariance, trusted.count)
    assert np.array_equal(twin.covariance, trusted.covariance)  # kept as sent
    assert (twin._cholesky_norm2 is not None) == (rows > dim)
    sellers = [random_summary(rng, dim, count=50) for _ in range(3)]
    assert "_covariance_factor" not in vars(trusted)
    assert [wasserstein2_gaussian(trusted, b).hex() for b in sellers] == [
        wasserstein2_gaussian(twin, b).hex() for b in sellers]
    assert "_covariance_factor" in vars(trusted)
    np.testing.assert_array_equal(trusted._covariance_factor, twin._covariance_factor)
    outcomes = [outcome(f"s{i}", b) for i, b in enumerate(sellers)]
    lazy = stats.summarize(EmbeddingSet(rng.standard_normal((rows, dim)), 10.0, clipped=False))
    public = GaussianSummary(lazy.mean, lazy.covariance, lazy.count)
    assert dumps_report(build_report(lazy, outcomes, "diversify", PARAMS)) == dumps_report(
        build_report(public, outcomes, "diversify", PARAMS))


def test_a_second_round_on_the_same_buyer_reuses_its_summary(monkeypatch):
    config = default_scenario(7)
    datasets = build_datasets(config)
    nodes = [SellerNode(nid, raw=datasets[nid]) for nid in config.seller_ids()]
    rows = []
    covariance_about = stats._covariance_about

    def summarized(embeddings, mean):
        rows.append(embeddings.count)
        return covariance_about(embeddings, mean)

    def counted_round(data):
        rows.clear()
        counts = counting(monkeypatch, DECOMPOSITIONS)
        monkeypatch.setattr(stats, "_covariance_about", summarized)
        report = run_valuation(data, in_process_endpoints(nodes), config.encoder,
                               config.budget, master_seed=7)
        monkeypatch.undo()
        return dumps_report(report), list(rows), counts

    buyer = datasets[BUYER_ID]
    first, first_rows, first_counts = counted_round(buyer)
    second, second_rows, second_counts = counted_round(buyer)
    fresh, _, _ = counted_round(build_datasets(config)[BUYER_ID])
    # Each seller summarizes its 512-row subset, which the buyer checks and
    # scores by one eigvalsh, the W2 cross term's. The buyer's own 4096 rows
    # are summarized and factored in the first round on that dataset only.
    sellers = dict.fromkeys(DECOMPOSITIONS, 0) | {"eigvalsh": len(nodes)}
    assert sorted(first_rows) == [config.budget.subset_size] * len(nodes) + [buyer.count]
    assert first_counts == dict(sellers, cholesky=1)
    assert second_rows == [config.budget.subset_size] * len(nodes)
    assert second_counts == sellers
    assert second == first == fresh


# ---------------------------------------------------------- hostile sellers


# The sigma of every budget the scenarios below use.
DEFAULT_SIGMA = calibrate_sigma(default_scenario(7).budget).sigma


class _ForgingSession:
    """Stands in for a seller session: acknowledges HELLO and MODEL_SPEC, and
    answers STATS_REQUEST with a forged summary that carries the requested
    count and session id and the spec's fingerprint."""

    def __init__(self, spec, extra_dim=0, cov_scale=1.0, sigma_used=DEFAULT_SIGMA,
                 last_eigenvalue=None):
        self.spec = spec
        self.dim = spec.latent_dim + extra_dim
        self.diagonal = np.full(self.dim, cov_scale)
        if last_eigenvalue is not None:
            self.diagonal[-1] = last_eigenvalue
        self.sigma_used = sigma_used

    def handle_bytes(self, frame):
        msg = decode_frame(frame)
        if not isinstance(msg, StatsRequest):
            return encode_frame(Hello(PROTOCOL_VERSION))
        return encode_frame(StatsResponse(
            np.zeros(self.dim), pack_covariance(np.diag(self.diagonal)),
            msg.subset_size, msg.session_id, self.sigma_used, self.spec.fingerprint(),
        ))


# forged reply, whether the round debiases, and the start of the failure reason
FORGED_REPLIES = {
    "mean-too-long": (dict(extra_dim=1), False, "mean has 5 entries"),
    "covariance-1e308": (dict(cov_scale=1e308), False, "NumericInputError: matrix entries"),
    "covariance-1e308-debias": (dict(cov_scale=1e308), True, "NumericInputError: matrix entries"),
    "negative-sigma-debias": (dict(sigma_used=-1.0), True, "sigma_used -1.0 is not"),
    # Cholesky fails, and the eigenvalue -1e-6 is below the floor -1e-10
    "not-psd": (dict(last_eigenvalue=-1e-6), False, "NotPSDError: covariance is not PSD"),
    "not-psd-debias": (dict(last_eigenvalue=-1e-6), True, "NotPSDError: covariance is not PSD"),
    "sigma-1e160-debias": (dict(sigma_used=1e160), True, "sigma_used 1e+160 is not"),
}


@pytest.mark.parametrize("name", sorted(FORGED_REPLIES))
def test_one_hostile_seller_fails_alone(name):
    forged, debias, reason = FORGED_REPLIES[name]
    config = default_scenario(7)
    datasets = build_datasets(config)
    nodes = [SellerNode(nid, raw=datasets[nid]) for nid in config.seller_ids()]

    def mallory():
        channel = InProcessChannel(nodes[0])
        channel.session = _ForgingSession(config.encoder, **forged)
        return channel

    def valuation_round(endpoints):
        return run_valuation(datasets[BUYER_ID], endpoints, config.encoder, config.budget,
                             master_seed=7, debias=debias)

    honest = valuation_round(in_process_endpoints(nodes))
    report = valuation_round(in_process_endpoints(nodes) + [("mallory", mallory)])
    assert report.entry("mallory").failed
    assert report.entry("mallory").failure_reason.startswith(reason)
    assert tuple(e for e in report.entries if e.node_id != "mallory") == honest.entries
    assert report.ranking == honest.ranking


class _RewritingSession(SellerSession):
    """An honest seller session whose STATS_RESPONSE goes out as
    rewrite(reply)."""

    def __init__(self, node, rewrite):
        super().__init__(node)
        self.rewrite = rewrite

    def handle_bytes(self, frame):
        reply = decode_frame(super().handle_bytes(frame))
        if isinstance(reply, StatsResponse):
            reply = self.rewrite(reply)
        return encode_frame(reply)


def rewriting_endpoint(node, rewrite):
    """An endpoint of node whose STATS_RESPONSE goes out as rewrite(reply)."""

    def connect():
        channel = InProcessChannel(node)
        channel.session = _RewritingSession(node, rewrite)
        return channel

    return connect


def _claiming_round(factor, debias):
    """A seed-7 round, without and with mallory: an honest seller over
    seller-1's data whose reply claims factor times its sigma."""
    config = default_scenario(7)
    datasets = build_datasets(config)
    nodes = [SellerNode(nid, raw=datasets[nid]) for nid in config.seller_ids()]
    liar = SellerNode("mallory", raw=datasets["seller-1"])
    mallory = rewriting_endpoint(
        liar, lambda reply: dataclasses.replace(reply, sigma_used=reply.sigma_used * factor))

    def valuation_round(endpoints):
        return run_valuation(datasets[BUYER_ID], endpoints, config.encoder, config.budget,
                             master_seed=7, debias=debias)

    return (valuation_round(in_process_endpoints(nodes)),
            valuation_round(in_process_endpoints(nodes) + [("mallory", mallory)]),
            valuation_round(in_process_endpoints(nodes + [liar])))


@pytest.mark.parametrize("debias", [False, True], ids=["plain", "debias"])
def test_a_reply_near_the_float_range_fails_alone_and_warns_nothing(rng, debias):
    # A PSD covariance of entries about 5e307 passes the check, and its W2
    # cross term against a buyer at clip radius 30 overflows.
    dim = 4
    spec = EncoderSpec("external", 5, dim, dim, dim, 0.0)
    budget = PrivacyBudget(0.8, 1e-5, 30.0, 128)
    buyer = EmbeddingSet(rng.normal(0.0, 8.0, (600, dim)), 30.0, clipped=False)
    nodes = [SellerNode(f"seller-{i}", embeddings=EmbeddingSet(
        rng.normal(0.0, 8.0, (300, dim)), 30.0, clipped=False)) for i in range(3)]
    huge = random_psd(rng, dim) * 5e307
    mallory = rewriting_endpoint(
        nodes[1], lambda reply: dataclasses.replace(reply, covariance=pack_covariance(huge)))

    def valuation_round(endpoints):
        return run_valuation(buyer, endpoints, spec, budget, master_seed=3, debias=debias)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        without = valuation_round(in_process_endpoints(nodes))
        report = valuation_round(in_process_endpoints(nodes) + [("mallory", mallory)])
        if debias:
            rebuilt = debias_covariance(GaussianSummary(np.zeros(dim), huge, 128),
                                        calibrate_sigma(budget).sigma)
    assert report.entry("mallory").failure_reason == (
        "scoring failed: NumericInputError: matrix contains non-finite entries")
    assert [e.raw_w2.hex() for e in report.entries if e.node_id != "mallory"] == [
        e.raw_w2.hex() for e in without.entries]
    if debias:  # the rebuild stays finite: W2's cross term is what overflows
        assert np.isfinite(rebuilt.covariance).all()


@pytest.mark.parametrize("debias", [False, True], ids=["plain", "debias"])
@pytest.mark.parametrize("factor", [4.0, 1 + 1e-8, 1 - 1e-8])
def test_a_seller_that_claims_another_sigma_fails_alone(debias, factor):
    # The summary is honest; its sigma_used is off by more than 1e-9 relative.
    without, report, _ = _claiming_round(factor, debias)
    reason = report.entry("mallory").failure_reason
    assert reason.startswith(f"sigma_used {DEFAULT_SIGMA * factor!r} is not"), reason
    assert tuple(e for e in report.entries if e.node_id != "mallory") == without.entries
    assert report.ranking == without.ranking


@pytest.mark.parametrize("debias", [False, True], ids=["plain", "debias"])
@pytest.mark.parametrize("factor", [1 + 1e-12, 1 - 1e-12])
def test_a_sigma_used_within_1e_9_relative_is_the_honest_round(debias, factor):
    _, report, honest = _claiming_round(factor, debias)
    assert dumps_report(report) == dumps_report(honest)


def test_a_reply_in_the_clamp_band_is_scored_as_the_public_constructor_clamps_it():
    # Cholesky fails on the eigenvalue -1e-13, which lies below the rounding
    # band -d * eps * lambda_max but above the floor -1e-10: the buyer
    # rebuilds the covariance, as the public constructor does
    config = default_scenario(7)
    datasets = build_datasets(config)
    forged = _ForgingSession(config.encoder, last_eigenvalue=-1e-13)

    def mallory():
        channel = InProcessChannel(SellerNode("mallory", raw=datasets[config.seller_ids()[0]]))
        channel.session = forged
        return channel

    sent = np.diag(forged.diagonal)
    clamped = GaussianSummary(np.zeros(forged.dim), sent, config.budget.subset_size)
    assert clamped.covariance.tobytes() != sent.tobytes()
    buyer, (outcome,) = orchestrate_valuation(datasets[BUYER_ID], [("mallory", mallory)],
                                              config.encoder, config.budget, master_seed=7)
    assert outcome.summary.covariance.tobytes() == clamped.covariance.tobytes()
    report = run_valuation(datasets[BUYER_ID], [("mallory", mallory)], config.encoder,
                           config.budget, master_seed=7)
    assert report.entry("mallory").raw_w2 == wasserstein2_gaussian(buyer, clamped)


# ------------------------------------------------------- a round's own inputs


def _never_called():
    raise AssertionError("the round asked a seller or read the buyer's data")


ROUNDS = {"run_valuation": run_valuation, "orchestrate_valuation": orchestrate_valuation}


@pytest.mark.parametrize("call", sorted(ROUNDS))
def test_a_seller_endpoint_named_buyer_is_refused_before_any_connect(call):
    config = default_scenario(7)
    endpoints = [("seller-1", _never_called), (BUYER_ID, _never_called)]
    with pytest.raises(ParameterError, match="'buyer' is reserved for the buyer"):
        ROUNDS[call](_never_called, endpoints, config.encoder, config.budget, master_seed=7)


@pytest.mark.parametrize("call", sorted(ROUNDS))
def test_two_seller_endpoints_with_one_node_id_are_refused_before_any_connect(call):
    config = default_scenario(7)
    endpoints = [("seller-1", _never_called), ("seller-2", _never_called),
                 ("seller-1", _never_called)]
    with pytest.raises(ParameterError, match="^duplicate seller node id 'seller-1'$"):
        ROUNDS[call](_never_called, endpoints, config.encoder, config.budget, master_seed=7)


def test_a_report_whose_entries_repeat_a_node_id_is_malformed(rng):
    buyer, outcomes = make_outcomes(rng)
    data = build_report(buyer, outcomes, "diversify", PARAMS).to_dict()
    data["entries"] = [data["entries"][0], dict(data["entries"][0])]
    data["ranking"] = [data["entries"][0]["node_id"]]
    with pytest.raises(FileFormatError, match="two entries share a node id"):
        ValuationReport.from_dict(data)


# Each argument of a round, the words its refusal starts with, and values it
# refuses: an objective not in OBJECTIVES, a master seed that is not an
# integer >= 0, and flags that are not booleans.
BAD_ROUND_ARGUMENTS = {
    "objective": ("objective must be one of", ["spread", "Enrich", None]),
    "master_seed": ("master seed must be an integer >= 0", [7.9, 7.0, -1, True, "7"]),
    "debias": ("debias must be a boolean", ["no", 1, None]),
    "noisy_buyer": ("noisy_buyer must be a boolean", ["no", 1, None]),
}
ROUND_CASES = [(call, argument, value) for argument, (_, values) in BAD_ROUND_ARGUMENTS.items()
               for value in values for call in sorted(ROUNDS)
               if call == "run_valuation" or argument in ("master_seed", "noisy_buyer")]


@pytest.mark.parametrize("call, argument, value", ROUND_CASES)
def test_a_bad_round_argument_is_refused_before_any_connect(call, argument, value):
    config = default_scenario(7)
    options = dict({"master_seed": 7}, **{argument: value})
    with pytest.raises(ParameterError) as info:
        ROUNDS[call](_never_called, [("seller-1", _never_called)], config.encoder,
                     config.budget, **options)
    assert str(info.value).startswith(BAD_ROUND_ARGUMENTS[argument][0])


# ------------------------------------------------------ rank-deficient rounds


def rank_deficient_round(rng, dim=64, subset=32, buyer_rows=48, seller_rows=96, sellers=4):
    """A buyer and sellers of pre-encoded rows whose summaries are all
    singular: 48 buyer rows and 32-row seller subsets in d = 64."""

    def party(rows):
        mean = rng.normal(0.0, 0.3 / np.sqrt(dim), dim)
        mix = rng.standard_normal((dim, dim)) * (rng.uniform(0.6, 1.2) / dim)
        return EmbeddingSet(mean + rng.standard_normal((rows, dim)) @ mix, 1.0, clipped=False)

    buyer = party(buyer_rows)
    nodes = [SellerNode(f"seller-{i}", embeddings=party(seller_rows)) for i in range(sellers)]
    spec = EncoderSpec("external", 5, dim, dim, dim, 0.0)
    return buyer, nodes, spec, PrivacyBudget(0.8, 1e-5, 1.0, subset)


def w2_squared_sqrtm(buyer_cov, buyer_mean, cov, mean):
    """(W2^2, scale) through scipy's Schur-based matrix square root."""
    root = np.real(scipy.linalg.sqrtm(buyer_cov))
    cross = np.real(scipy.linalg.sqrtm(root @ cov @ root))
    diff = buyer_mean - mean
    scale = float(diff @ diff) + float(np.trace(buyer_cov)) + float(np.trace(cov))
    return scale - 2.0 * float(np.trace(cross)), scale


@pytest.mark.parametrize("debias", [False, True])
def test_rank_deficient_round_matches_the_scipy_oracle(monkeypatch, rng, debias):
    buyer_data, nodes, spec, budget = rank_deficient_round(rng)
    rounds = []
    for name in ("cholesky", "eigh", "eigvalsh"):

        def recorded(a, _name=name, _original=getattr(np.linalg, name)):
            call = [_name, a.tobytes(), None, None]
            rounds[-1].append(call)
            out = _original(a)
            if _name != "cholesky":
                w = out[0] if _name == "eigh" else out
                call[2:] = float(w[0]), float(w[-1])
            return out

        monkeypatch.setattr(np.linalg, name, recorded)
    rounds.append([])
    buyer, outcomes = orchestrate_valuation(buyer_data, in_process_endpoints(nodes), spec,
                                            budget, master_seed=3)
    rounds.append([])
    report = run_valuation(buyer_data, in_process_endpoints(nodes), spec, budget,
                           master_seed=3, debias=debias)
    monkeypatch.undo()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(buyer.covariance)
    # The buyer's 48 rows in d = 64 fail Cholesky, and its covariance is
    # eigendecomposed once, for its W2 factor, in the first round on that
    # dataset only. A seller trusts the summary it has just made; the buyer
    # takes each seller covariance's eigenvalues alone, once, after decoding,
    # with no Cholesky, since 32 rows in d = 64 make it singular. Their
    # negative eigenvalues are rounding, inside psd_clamp's band of d * eps *
    # lambda_max, so psd_clamp would not rebuild them either. Scoring adds one
    # eigvalsh per seller, and debias the eigh of each shifted covariance; its
    # clamped rebuild is trusted as made.
    first, later = rounds
    assert [name for name, *_ in first].count("cholesky") == 1
    assert [name for name, *_ in later].count("cholesky") == 0
    assert [name for name, *_ in first].count("eigh") == 1
    assert [name for name, *_ in later].count("eigh") == (len(nodes) if debias else 0)
    assert [name for name, *_ in later].count("eigvalsh") == 2 * len(nodes)
    expected = [(buyer.covariance, ["cholesky", "eigh"], [])] + [
        (o.summary.covariance, ["eigvalsh"], ["eigvalsh"]) for o in outcomes]
    for cov, *kinds in expected:
        for calls, kind in zip(rounds, kinds):
            calls = [(name, low, high) for name, bits, low, high in calls
                     if bits == cov.tobytes()]
            assert [name for name, _, _ in calls] == kind
            for name, low, high in calls:
                if name != "cholesky":
                    assert -len(cov) * np.finfo(float).eps * high <= low < 0.0
    assert not report.degenerate_normalization and len(report.ranking) == len(nodes)
    for o in outcomes:
        cov = o.summary.covariance
        if debias:
            w, q = scipy.linalg.eigh(cov - calibrate_sigma(budget).sigma**2 * np.eye(len(cov)))
            cov = (q * np.maximum(w, 0.0)) @ q.T
        expected, scale = w2_squared_sqrtm(buyer.covariance, buyer.mean, cov, o.summary.mean)
        assert abs(report.entry(o.node_id).raw_w2**2 - expected) <= 1e-8 * scale
    again = run_valuation(buyer_data, in_process_endpoints(nodes), spec, budget,
                          master_seed=3, debias=debias)
    assert dumps_report(again) == dumps_report(report)


def test_a_debias_decomposition_that_fails_fails_only_its_seller(monkeypatch):
    config = default_scenario(7)
    datasets = build_datasets(config)
    nodes = [SellerNode(nid, raw=datasets[nid]) for nid in config.seller_ids()]

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    report = run_valuation(datasets[BUYER_ID], in_process_endpoints(nodes), config.encoder,
                           config.budget, master_seed=7, debias=True)
    assert len(report.entries) == len(nodes) and report.ranking == ()
    for entry in report.entries:
        assert entry.failed
        assert entry.failure_reason.startswith("debias failed: ConvergenceError")


# ------------------------------------------------ replies checked by the W2 solve


def wide_round(rng, subset=512, buyer_rows=600):
    """perfbench's wide-d256 at its tiny size: a buyer and two sellers of 600
    pre-encoded rows in d = 16, asked for 512-row subsets."""
    return rank_deficient_round(rng, dim=16, subset=subset, buyer_rows=buyer_rows,
                                seller_rows=600, sellers=2)


def test_a_wide_round_checks_each_reply_by_its_w2_cross_term(monkeypatch, rng):
    buyer_data, nodes, spec, budget = wide_round(rng)
    orchestrate_valuation(buyer_data, in_process_endpoints(nodes), spec, budget, master_seed=2)
    counts = counting(monkeypatch, DECOMPOSITIONS)
    buyer, outcomes = orchestrate_valuation(buyer_data, in_process_endpoints(nodes), spec,
                                            budget, master_seed=3)
    collected = dict(counts)
    report = build_report(buyer, outcomes, "diversify", PARAMS)
    monkeypatch.undo()
    # The buyer's summary was made in the first round. Each reply takes one
    # eigvalsh, its cross term's, which is its PSD check and its W2 solve.
    assert collected == dict.fromkeys(DECOMPOSITIONS, 0) | {"eigvalsh": len(nodes)}
    assert counts == collected
    for o in outcomes:
        assert o.summary._cross[0] is buyer
        # kept as sent, as the public constructor keeps it, and scored with
        # the bits of a fresh solve
        public = GaussianSummary(o.summary.mean, o.summary.covariance, o.summary.count)
        assert public.covariance.tobytes() == o.summary.covariance.tobytes()
        assert public._cross is None
        assert report.entry(o.node_id).raw_w2 == wasserstein2_gaussian(buyer, public)
        expected, scale = w2_squared_sqrtm(buyer.covariance, buyer.mean,
                                           o.summary.covariance, o.summary.mean)
        assert abs(report.entry(o.node_id).raw_w2**2 - expected) <= 1e-8 * scale


def checked_alone(buyer, mean, sym, count):
    """A seller reply checked in a window of one: its trusted summary, or
    the PriartaError the check refused it with, raised."""
    (checked,) = gaussian_geometry._checked_window(buyer, [(mean, sym, count)])
    if isinstance(checked, PriartaError):
        raise checked
    return checked


CERTIFY_FACTOR = 2.0 + 16.0  # (2 + K) of the certificate, K = 16


def certificate_case(rng, dim, ratio):
    """A Cholesky-factored buyer and an exactly symmetric covariance whose
    cross term F^T Sigma F has a smallest eigenvalue of about ratio times the
    certificate's bound (2 + K) d eps ||F||_F^2 ||Sigma||_F, and that bound,
    and that eigenvalue as scipy computes it."""
    buyer = GaussianSummary(np.zeros(dim), random_psd(rng, dim) + np.eye(dim), 1000)
    factor = buyer._covariance_factor
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))

    def covariance(smallest):
        cross = (q * np.r_[smallest, np.linspace(1.0, 2.0, dim - 1)]) @ q.T
        inverse_t = scipy.linalg.solve_triangular(factor, np.eye(dim), lower=True).T
        sigma = inverse_t @ cross @ inverse_t.T
        return (sigma + sigma.T) / 2.0

    def bound(sigma):
        return (CERTIFY_FACTOR * dim * np.finfo(float).eps * float((factor**2).sum())
                * float(np.sqrt((sigma**2).sum())))

    sigma = covariance(ratio * bound(covariance(0.0)))
    cross = factor.T @ sigma @ factor
    oracle = scipy.linalg.eigvalsh((cross + cross.T) / 2.0)[0]
    return buyer, sigma, bound(sigma), oracle


@pytest.mark.parametrize("ratio, certified", [(4.0, True), (0.25, False)])
def test_a_reply_is_kept_as_sent_when_its_cross_term_clears_the_bound(monkeypatch, rng,
                                                                      ratio, certified):
    buyer, sigma, bound, oracle = certificate_case(rng, 8, ratio)
    assert (oracle >= 2.0 * bound) if certified else (0.0 < oracle <= bound / 2.0)
    counts = counting(monkeypatch, DECOMPOSITIONS)
    summary = checked_alone(buyer, np.zeros(8), sigma, 1000)
    # Below the bound the reply takes its own Cholesky, which succeeds:
    # it is kept as sent, and so are the cross term's eigenvalues.
    assert counts == dict.fromkeys(DECOMPOSITIONS, 0) | {"eigvalsh": 1,
                                                         "cholesky": 0 if certified else 1}
    assert summary.covariance is sigma
    assert summary._cross[0] is buyer
    assert abs(summary._cross[1][0] - oracle) <= 1e-3 * bound


@pytest.mark.parametrize("widened", [False, True])
def test_a_certified_reply_meets_the_derived_bound_in_exact_arithmetic(monkeypatch, rng,
                                                                       widened):
    # The module docstring derives that a certified reply has
    # lambda_min(Sigma) >= (K - 1) d eps lambda_max(Sigma). mpmath's eigsy at
    # 40 digits on the exact float64 entries of each certified Sigma checks
    # it, for ratios from just above the certificate's bound upward. Widened
    # draws also take ratios below the bound, and scale the reply down as far
    # as subnormal entries, where its squared entries underflow.
    eps = mpmath.mpf(np.finfo(float).eps)
    counts = counting(monkeypatch, ["cholesky"])
    certified = 0
    for _ in range(120):
        dim = int(rng.integers(2, 9))
        buyer, sigma, _, _ = certificate_case(
            rng, dim, 10.0 ** rng.uniform(-3.0 if widened else 0.0, 3.0))
        if widened:
            sigma = sigma * 10.0 ** rng.uniform(-320.0, 0.0)
        before = counts["cholesky"]
        summary = checked_alone(buyer, np.zeros(dim), sigma, 1000)
        if counts["cholesky"] > before or summary._cross is None:
            continue  # not certified: the reply took its own check
        certified += 1
        with mpmath.workdps(40):
            w = mpmath.eigsy(mpmath.matrix(sigma.tolist()), eigvals_only=True)
            assert w[0] >= (gaussian_geometry._CERTIFY_MARGIN - 1.0) * dim * eps * w[dim - 1]
    assert certified >= (40 if widened else 100)


def test_a_reply_that_is_not_psd_fails_after_its_cross_term(monkeypatch, rng):
    buyer, sigma, _, oracle = certificate_case(rng, 8, -1e9)
    assert oracle < 0.0
    counts = counting(monkeypatch, DECOMPOSITIONS)
    with pytest.raises(NotPSDError, match="^covariance is not PSD"):
        checked_alone(buyer, np.zeros(8), sigma, 1000)
    assert counts == dict.fromkeys(DECOMPOSITIONS, 0) | {"eigvalsh": 2, "cholesky": 1}


def test_a_reply_checked_against_one_buyer_is_solved_afresh_for_another(monkeypatch, rng):
    buyer, sigma, _, _ = certificate_case(rng, 8, 4.0)
    summary = checked_alone(buyer, np.ones(8), sigma, 1000)
    twin = GaussianSummary(buyer.mean, buyer.covariance, 1000)
    assert twin == buyer and twin is not buyer
    counts = counting(monkeypatch, DECOMPOSITIONS)
    reused = wasserstein2_gaussian(buyer, summary)
    assert counts["eigvalsh"] == 0
    assert wasserstein2_gaussian(twin, summary) == reused
    assert counts["eigvalsh"] == 1


def test_kept_cross_term_eigenvalues_meet_the_psd_floor_of_a_fresh_solve(monkeypatch):
    # The reply's eigenvalue -4 eps lies inside the rounding band, so it is
    # kept as sent. The buyer's factor stretches it by 1e4 and shrinks the
    # others by 1e-4: the cross term's -1e4 * 4 eps is below its floor
    # -1e-10 * 1e-4, on reuse as on a fresh solve.
    buyer = GaussianSummary(np.zeros(8), np.diag([1e4] + [1e-4] * 7), 1000)
    sent = np.diag([-4.0 * np.finfo(float).eps] + [1.0] * 7)
    summary = checked_alone(buyer, np.ones(8), sent, 1000)
    assert summary.covariance is sent and summary._cross[0] is buyer
    counts = counting(monkeypatch, DECOMPOSITIONS)
    with pytest.raises(NotPSDError, match="^cross-covariance term is not PSD") as reused:
        wasserstein2_gaussian(buyer, summary)
    assert counts["eigvalsh"] == 0
    public = GaussianSummary(np.ones(8), sent, 1000)
    with pytest.raises(NotPSDError, match="^cross-covariance term is not PSD") as fresh:
        wasserstein2_gaussian(buyer, public)
    assert counts["eigvalsh"] == 1
    assert str(reused.value) == str(fresh.value)


@pytest.mark.parametrize("case", ["reply-of-at-most-d-rows", "eigen-factored-buyer"])
def test_a_reply_the_cross_term_cannot_check_keeps_its_own_check(monkeypatch, rng, case):
    # A reply of at most d rows is singular, and a buyer factored by eigh
    # gives no congruence: neither takes a cross-term solve before it is scored.
    subset, buyer_rows = {"reply-of-at-most-d-rows": (12, 600),
                          "eigen-factored-buyer": (512, 12)}[case]
    buyer_data, nodes, spec, budget = wide_round(rng, subset, buyer_rows)
    orchestrate_valuation(buyer_data, in_process_endpoints(nodes), spec, budget, master_seed=2)
    counts = counting(monkeypatch, DECOMPOSITIONS)
    buyer, outcomes = orchestrate_valuation(buyer_data, in_process_endpoints(nodes), spec,
                                            budget, master_seed=3)
    assert (buyer._cholesky_norm2 is None) == (case == "eigen-factored-buyer")
    assert all(o.summary._cross is None for o in outcomes)
    expected = ({"eigvalsh": len(nodes)} if case == "reply-of-at-most-d-rows"
                else {"cholesky": len(nodes)})
    assert counts == dict.fromkeys(DECOMPOSITIONS, 0) | expected


def test_a_debiased_round_checks_each_reply_as_sent_and_scores_it_afresh(monkeypatch, rng):
    # The check depends only on the covariance sent and the buyer's factor,
    # so a debiased round checks each reply by its cross term too; the
    # debiased covariance it scores is another matrix, solved afresh.
    buyer_data, nodes, spec, budget = wide_round(rng)
    buyer, outcomes = orchestrate_valuation(buyer_data, in_process_endpoints(nodes), spec,
                                            budget, master_seed=3)
    counts = counting(monkeypatch, DECOMPOSITIONS)
    report = run_valuation(buyer_data, in_process_endpoints(nodes), spec, budget,
                           master_seed=3, debias=True)
    # per reply: the cross-term check, the debiasing eigh and W2's solve
    assert counts == dict.fromkeys(DECOMPOSITIONS, 0) | {"eigh": len(nodes),
                                                         "eigvalsh": 2 * len(nodes)}
    monkeypatch.undo()
    sigma = calibrate_sigma(budget).sigma
    for o in outcomes:
        public = GaussianSummary(o.summary.mean, o.summary.covariance, o.summary.count)
        assert report.entry(o.node_id).raw_w2 == wasserstein2_gaussian(
            buyer, debias_covariance(public, sigma))


@pytest.mark.parametrize("smallest, outcome", [(-1e-318, "not-psd"), (-1e-322, "rebuilt")])
def test_a_subnormal_reply_is_checked_as_the_public_constructor_checks_it(smallest, outcome):
    # The cross term of diag(1e-310, smallest) against a buyer of covariance
    # 1e-8 I underflows to -0.0, and the GEMM error term of the bound to 0:
    # only the bound's underflow term keeps the reply from being certified.
    buyer = GaussianSummary(np.zeros(2), 1e-8 * np.eye(2), 1000)
    sent = np.diag([1e-310, smallest])
    if outcome == "not-psd":
        with pytest.raises(NotPSDError, match="^covariance is not PSD"):
            checked_alone(buyer, np.zeros(2), sent, 1000)
        with pytest.raises(NotPSDError, match="^covariance is not PSD"):
            GaussianSummary(np.zeros(2), sent, 1000)
    else:
        summary = checked_alone(buyer, np.zeros(2), sent, 1000)
        public = GaussianSummary(np.zeros(2), sent, 1000)
        assert summary.covariance is not sent and summary._cross is None
        assert summary.covariance.tobytes() == public.covariance.tobytes()


@pytest.mark.parametrize("entry", [5e307, 1e308])
def test_a_reply_near_the_end_of_the_float_range_is_checked_entry_by_entry(entry):
    # At 5e307 every entry is within half the float range but the Frobenius
    # norm overflows: the entries are looked at, and the reply is kept as
    # sent. At 1e308 an entry is past half the float range.
    buyer = GaussianSummary(np.zeros(4), np.eye(4), 1000)
    sent = entry * np.eye(4)
    if entry > np.finfo(float).max / 2.0:
        with pytest.raises(NumericInputError, match="^matrix entries overflow when symmetrized"):
            checked_alone(buyer, np.zeros(4), sent, 1000)
    else:
        assert checked_alone(buyer, np.zeros(4), sent, 1000).covariance is sent


def test_a_certified_reply_is_what_the_cholesky_else_eigenvalues_check_gives(monkeypatch,
                                                                            rng):
    # Buyers and replies from 1e-300 to 1e300, some indefinite or nearly
    # singular, many whose cross term underflows or overflows: the certified
    # check ends where the check it replaces ends, kept, rebuilt or refused.
    certified = 0
    for _ in range(1500):
        dim = int(rng.integers(1, 7))
        scale = 10.0 ** rng.uniform(-300, 300)
        buyer = GaussianSummary(
            np.zeros(dim), (random_psd(rng, dim) + 1e-3 * np.eye(dim)) * scale, 1000)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        w = rng.uniform(0.0, 1.0, dim)
        w[0] = rng.choice([w[0], -w[0] * 10.0 ** rng.uniform(-20, 0),
                           10.0 ** rng.uniform(-20, -8)])
        sent = (q * w) @ q.T * 10.0 ** rng.uniform(-323, 300)
        sent = (sent + sent.T) / 2.0

        def ends(check):
            try:
                return check().tobytes()
            except NotPSDError:
                return "not-psd"

        counts = counting(monkeypatch, ["cholesky", "eigvalsh"])
        checked = ends(lambda: checked_alone(buyer, np.zeros(dim), sent, 1000).covariance)
        certified += counts == {"cholesky": 0, "eigvalsh": 1}
        monkeypatch.undo()
        assert checked == ends(lambda: psd_clamp(sent, "covariance"))
    assert certified > 300


# ------------------------------------------------------------ reply windows

REPLY_KINDS = ("psd", "few-rows", "not-psd", "band", "past-half-range", "huge", "subnormal")


def window_reply(rng, dim, kind):
    """A reply (mean, exactly symmetric covariance, count) of one kind: PSD,
    of at most d rows, not PSD, with an eigenvalue at the rounding band's
    edge, with an entry past half the float range, near the float range (its
    cross term overflows against a buyer of scale 1e3), or subnormal."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = rng.uniform(0.1, 1.0, dim)
    count = 1000
    if kind == "few-rows":
        count = int(rng.integers(2, dim + 1)) if dim > 1 else 2
    elif kind == "not-psd":
        w[0] = -1.0
    elif kind == "band":
        w[0] = -rng.uniform(0.5, 1.5) * dim * np.finfo(float).eps
    elif kind == "past-half-range":
        return rng.standard_normal(dim), np.diag(np.r_[w[1:], 1.0] * 1e308), count
    sent = (q * w) @ q.T * {"huge": 5e307, "subnormal": 1e-310}.get(kind, 1.0)
    return rng.standard_normal(dim), (sent + sent.T) / 2.0, count


def checked_and_scored(buyer, checked):
    """A check's result as bits: the failure string, or the summary's
    covariance and kept cross term and its W2 score against buyer (or the
    scoring failure)."""
    if isinstance(checked, Exception):
        return f"{type(checked).__name__}: {checked}"
    cross = None if checked._cross is None else checked._cross[1].tobytes()
    try:
        score = wasserstein2_gaussian(buyer, checked).hex()
    except (NumericInputError, NotPSDError, ConvergenceError) as exc:
        score = f"scoring failed: {type(exc).__name__}: {exc}"
    return checked.covariance.tobytes(), cross, score


def scalar_score(a, b):
    """W2 of one pair in Python floats, as checked_and_scored gives a score:
    the closed form written out here, apart from gaussian_geometry's one
    evaluator, so that a window's stack and W2's stack of one cannot share a
    fault unseen."""
    try:
        if np.array_equal(a.mean, b.mean) and np.array_equal(a.covariance, b.covariance):
            return (0.0).hex()
        factor = a._covariance_factor
        with np.errstate(over="ignore", invalid="ignore"):
            w = gaussian_geometry._eigh(gaussian_geometry.symmetrize(
                factor.T @ b.covariance @ factor), "cross-covariance term", vectors=False,
                psd=False)
            gaussian_geometry._psd_floor(w, "cross-covariance term")
            diff = a.mean - b.mean
            squared = (float(diff @ diff) + float(np.trace(a.covariance))
                       + float(np.trace(b.covariance))
                       - 2.0 * float(np.sqrt(np.maximum(w, 0.0)).sum()))
        if not math.isfinite(squared):
            raise NumericInputError("non-finite intermediate in Wasserstein computation")
        return math.sqrt(max(squared, 0.0)).hex()
    except (NumericInputError, NotPSDError, ConvergenceError) as exc:
        return f"scoring failed: {type(exc).__name__}: {exc}"


def alone(buyer, reply):
    """A reply's check and score by the one-pair public path, as
    checked_and_scored gives them: psd_clamp's refusal (its symmetrize is the
    entry check), or its covariance, no cross term, and the W2 score against
    buyer of a summary that keeps none, so that W2 solves its own. That
    score is scalar_score's too."""
    mean, sym, count = reply
    try:
        covariance = psd_clamp(sym, "covariance")
    except PriartaError as exc:
        return f"{type(exc).__name__}: {exc}"
    summary = _trusted(GaussianSummary, mean=mean, covariance=covariance, count=count)
    got = checked_and_scored(buyer, summary)
    assert got[2] == scalar_score(buyer, summary)
    return got


def assert_checked_as_alone(buyer, replies, stack_fails):
    """Every reply of a window ends, bit for bit, where the one-pair public
    path takes it, kept with the same score or refused with the same failure,
    and each cross term the window keeps is numpy's eigvalsh of the reply's
    own symmetrized product F^T Sigma F. With stack_fails, a ConvergenceError
    is forced into every stacked solve, so each reply takes its own. Returns
    the window's outcomes."""
    want = [alone(buyer, reply) for reply in replies]
    eigvalsh = np.linalg.eigvalsh

    def failing(a, *args, **kwargs):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        if stack_fails:
            patch.setattr(np.linalg, "eigvalsh", failing)
        window = gaussian_geometry._checked_window(buyer, replies)
    factor = buyer._covariance_factor
    for checked, (_, sym, _), expected in zip(window, replies, want):
        got = checked_and_scored(buyer, checked)
        if isinstance(got, tuple) and got[1] is not None:
            assert checked._cross[0] is buyer
            product = factor.T @ sym @ factor
            assert got[1] == eigvalsh((product + product.T) / 2.0).tobytes()
            got = (got[0], None, got[2])
        assert got == expected
    return window


def window_buyer(rng, dim, scale, singular=False):
    """The buyer's summary, of covariance scale (A + I) for a random PSD A,
    with its first coordinate zeroed when singular (then factored by eigh)."""
    covariance = random_psd(rng, dim) + np.eye(dim)
    if singular and dim > 1:
        covariance[0, :] = covariance[:, 0] = 0.0
    return GaussianSummary(rng.standard_normal(dim), covariance * scale, 1000)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(dim=st.sampled_from([1, 2, 4, 16]),
       kinds=st.lists(st.sampled_from(REPLY_KINDS), min_size=1, max_size=64),
       buyer_scale=st.sampled_from([1e-3, 1.0, 1e3]),
       singular_buyer=st.booleans(), stack_fails=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_window_checks_and_scores_each_reply_as_one_reply_alone(
        dim, kinds, buyer_scale, singular_buyer, stack_fails, seed):
    rng = np.random.default_rng(seed)
    buyer = window_buyer(rng, dim, buyer_scale, singular_buyer)
    assert_checked_as_alone(buyer, [window_reply(rng, dim, kind) for kind in kinds],
                            stack_fails)


@pytest.mark.parametrize("dim", [96, 256])
def test_a_wide_window_of_one_checks_and_scores_its_reply_as_one_reply_alone(rng, dim):
    # From d = 91 on a window holds one reply, whose cross term is solved
    # as a stack of one.
    buyer = window_buyer(rng, dim, 1e3)
    for kind in REPLY_KINDS:
        reply = window_reply(rng, dim, kind)
        for stack_fails in (False, True):
            (checked,) = assert_checked_as_alone(buyer, [reply], stack_fails)
            if kind == "psd":  # certified by its cross term, which is kept
                assert checked._cross is not None


def test_a_window_keeps_each_distance_w2_gives_and_none_where_it_refuses(rng):
    # A window keeps, beside each cross term, the distance W2 gives: 0.0 for
    # the buyer's own summary sent back (where the formula's rounding is
    # positive for about a third of these buyers), and none for a reply
    # whose trace overflows (kept as sent by its Cholesky, refused by W2 as
    # non-finite), which W2 then refuses as it refuses the reply alone.
    for scale in (1e-3, 1.0, 1e3) * 4:
        buyer = window_buyer(rng, 4, scale)
        replies = [window_reply(rng, 4, "psd"), (buyer.mean, buyer.covariance, 1000)]
        if scale == 1e-3:  # its cross term stays in range
            replies.append((rng.standard_normal(4), np.diag([8e307] * 4), 1000))
        for stack_fails in (False, True):
            window = assert_checked_as_alone(buyer, replies, stack_fails)
            assert all(checked._cross[0] is buyer for checked in window)
            kept = [checked._cross[2] for checked in window]
            assert kept[0] > 0.0 and kept[1] == 0.0
            if scale == 1e-3:
                assert kept[2] is None
                with pytest.raises(NumericInputError, match="non-finite intermediate"):
                    wasserstein2_gaussian(buyer, window[2])


class TamperedChannel(InProcessChannel):
    """An in-process seller whose STATS_RESPONSE carries another covariance."""

    def __init__(self, node, covariance):
        super().__init__(node)
        handle = self.session.handle_bytes

        def tampered(frame):
            reply = decode_frame(handle(frame))
            if isinstance(reply, StatsResponse):
                reply = dataclasses.replace(reply, covariance=pack_covariance(covariance))
            return encode_frame(reply)

        self.session.handle_bytes = tampered


def test_a_round_past_the_in_flight_cap_equals_the_round_checked_reply_by_reply(
        monkeypatch, rng):
    # 70 sellers cross _IN_FLIGHT = 64, so the round asks and reads two
    # batches; of three tampered sellers (not PSD, an entry past half the
    # float range, a subnormal eigenvalue) the first two fail, alone. With a window of one
    # reply every reply is checked alone, and the outcomes and report are
    # the same, kept in the order the sellers were asked.
    buyer_data, nodes, spec, budget = rank_deficient_round(
        rng, dim=4, subset=64, buyer_rows=600, seller_rows=100, sellers=70)
    tampered = {"seller-7": np.diag([-1.0, 1.0, 1.0, 1.0]),
                "seller-40": np.diag([1e308, 1.0, 1.0, 1.0]),
                "seller-66": np.diag([1e-310, 1.0, 1.0, 1.0])}
    endpoints = [(node.node_id, (lambda n=node: TamperedChannel(n, tampered[n.node_id]))
                  if node.node_id in tampered else (lambda n=node: InProcessChannel(n)))
                 for node in nodes]

    def round_of(window_bytes):
        monkeypatch.setattr(protocol, "_WINDOW_BYTES", window_bytes)
        asked = []
        buyer, kept = protocol._round(buyer_data, endpoints, spec, budget, 11, False,
                                      lambda buyer, sigma, o: asked.append(o.node_id) or o)
        report = build_report(buyer, kept, "diversify", PARAMS)
        return asked, [checked_and_scored(buyer, o.summary) if o.summary is not None
                       else o.failure for o in kept], dumps_report(report)

    windowed, alone = round_of(protocol._WINDOW_BYTES), round_of(1)
    assert windowed == alone
    asked, outcomes, _ = windowed
    assert asked == [node.node_id for node in nodes]
    failures = {node_id: o for node_id, o in zip(asked, outcomes) if isinstance(o, str)}
    assert sorted(failures) == ["seller-40", "seller-7"]
    assert failures["seller-7"].startswith("NotPSDError: covariance is not PSD")
    assert failures["seller-40"] == ("NumericInputError: matrix entries overflow when "
                                     "symmetrized")


def band_edge_matrix(rng, dim):
    """An exactly symmetric matrix of largest eigenvalue 1 whose smallest lies
    at 0.5 to 1.5 times the rounding band's edge -d eps lambda_max: eigh and
    eigvalsh, which round differently, may put it on either side."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    edge = -rng.uniform(0.5, 1.5) * dim * np.finfo(float).eps
    sent = (q * np.r_[edge, rng.uniform(0.1, 1.0, dim - 2), 1.0]) @ q.T
    return (sent + sent.T) / 2.0


def covariance_or_refusal(make):
    try:
        return make().covariance.tobytes()
    except NotPSDError as exc:
        return str(exc)


@pytest.mark.parametrize("case", ["reply-of-d-rows", "eigen-factored-buyer", "buyer"])
def test_a_covariance_at_the_band_edge_ends_where_the_public_constructor_does(rng, case):
    # A reply's check asks eigvalsh first, the constructor and the buyer's
    # summary eigh first; by the one keep-or-rebuild rule every path keeps,
    # rebuilds or refuses the same matrices, and rebuilds them to the same bits.
    rebuilt = 0
    for _ in range(300):
        dim = int(rng.integers(2, 40))
        sent = band_edge_matrix(rng, dim)
        mean = np.zeros(dim)
        public = covariance_or_refusal(lambda: GaussianSummary(mean, sent, dim))
        if case == "buyer":  # as buyer_summary makes it from its moments
            moments = _trusted(GaussianSummary, mean=mean, covariance=sent, count=dim)
            got = covariance_or_refusal(lambda: GaussianSummary(
                moments.mean, moments.covariance, moments.count))
        else:
            singular = np.diag(np.r_[0.0, np.ones(dim - 1)])
            buyer = GaussianSummary(
                mean, singular if case == "eigen-factored-buyer" else np.eye(dim), 1000)
            count = dim if case == "reply-of-d-rows" else 1000
            got = covariance_or_refusal(lambda: checked_alone(buyer, mean, sent, count))
        assert got == public
        rebuilt += public != sent.tobytes()
    assert 30 <= rebuilt <= 270


def test_a_rebuilt_buyer_takes_its_factor_from_the_eigh_that_rebuilt_it(monkeypatch, rng):
    # diag(1, 0.5, -1e-14) lies below the rounding band and above the floor,
    # as do the seeded matrices of smallest eigenvalue -1e-14 to -1e-11; the
    # band-edge ones are kept or rebuilt. A rebuilt buyer makes one Cholesky
    # (which fails), one eigh and one eigvalsh, and its W2 factor is
    # Q sqrt(max(w, 0)) from that eigh: no second Cholesky or eigh.
    #
    # The oracle is scipy's eigh by QR iteration (LAPACK syev, not numpy's
    # divide and conquer) projected onto the PSD cone. Each side is within
    # (4 + sqrt(d)) d eps ||A||_F of the exact projection: the eigensolver's
    # backward error, taken as d eps ||A||_F, passes through the projection,
    # which is nonexpansive in the Frobenius norm; Q's departure from
    # orthogonality, d eps, enters on both sides of diag(max(w, 0)); and
    # forming F and the product F F^T rounds each entry by d eps |F| |F|^T,
    # whose norm is at most tr = sum(max(w, 0)) <= sqrt(d) ||A||_F.
    eps = np.finfo(float).eps
    cases = [np.diag([1.0, 0.5, -1e-14])]
    for k in range(24):
        dim = int(rng.integers(3, 40))
        if k % 2:
            cases.append(band_edge_matrix(rng, dim))
        else:
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            sent = (q * np.r_[-(10.0 ** rng.uniform(-14, -11)),
                              rng.uniform(0.1, 1.0, dim - 2), 1.0]) @ q.T
            cases.append((sent + sent.T) / 2.0)
    rebuilt = 0
    for sent in cases:
        dim = sent.shape[0]
        counts = counting(monkeypatch, DECOMPOSITIONS)
        buyer = GaussianSummary(np.zeros(dim), sent, dim)
        monkeypatch.undo()
        w, v = scipy.linalg.eigh(sent, driver="ev")
        oracle = (v * np.maximum(w, 0.0)) @ v.T
        bound = 2.0 * (4.0 + np.sqrt(dim)) * dim * eps * np.linalg.norm(sent)
        factor = buyer._covariance_factor
        assert np.linalg.norm(factor @ factor.T - oracle) <= bound
        assert np.linalg.norm(buyer.covariance - oracle) <= bound
        if not np.array_equal(buyer.covariance, sent):
            rebuilt += 1
            assert counts == dict.fromkeys(DECOMPOSITIONS, 0) | {
                "cholesky": 1, "eigh": 1, "eigvalsh": 1}
            assert buyer._cholesky_norm2 is None
    assert rebuilt >= 13


def exact_psd_projection(a):
    """P(A) = V diag(max(lambda, 0)) V^T of a float64 matrix, from mpmath's
    Jacobi eigsy at 40 digits on its exact entries, as an mpmath matrix."""
    with mpmath.workdps(40):
        w, v = mpmath.eigsy(mpmath.matrix(a.tolist()))
        return v * mpmath.diag([max(x, 0) for x in w]) * v.T


def distance_to(exact, a):
    """||A - exact||_F at 40 digits, A's float64 entries taken exactly."""
    with mpmath.workdps(40):
        return float(mpmath.mnorm(mpmath.matrix(a.tolist()) - exact, "F"))


def test_a_rebuilt_buyer_factor_is_within_the_one_sided_bound_of_the_exact_projection(rng):
    # Against the exact projection the scipy oracle's share of the bound
    # above goes: F F^T and the covariance are each within
    # (4 + sqrt(d)) d eps ||A||_F of P(A), for band-edge matrices (kept or
    # rebuilt) and matrices below the band (rebuilt), d = 2..8. Over 560 such
    # matrices the largest ratio to the bound was 0.53.
    eps = np.finfo(float).eps
    cases = [np.diag([1.0, 0.5, -1e-14])]
    for dim in range(2, 9):
        for _ in range(2):
            cases.append(band_edge_matrix(rng, dim))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            sent = (q * np.r_[-(10.0 ** rng.uniform(-14, -11)),
                              rng.uniform(0.1, 1.0, dim - 2), 1.0]) @ q.T
            cases.append((sent + sent.T) / 2.0)
    rebuilt = 0
    for sent in cases:
        dim = sent.shape[0]
        buyer = GaussianSummary(np.zeros(dim), sent, dim)
        exact = exact_psd_projection(sent)
        bound = (4.0 + np.sqrt(dim)) * dim * eps * np.linalg.norm(sent)
        factor = buyer._covariance_factor
        assert distance_to(exact, factor @ factor.T) <= bound
        assert distance_to(exact, buyer.covariance) <= bound
        rebuilt += not np.array_equal(buyer.covariance, sent)
    assert rebuilt >= 14


# ------------------------------------------------------- score as you go


def _unreachable():
    raise ConnectionRefusedError("nobody listens")


@pytest.mark.parametrize("options", [
    {}, {"debias": True}, {"noisy_buyer": True, "objective": "enrich"},
], ids=["plain", "debias", "noisy-buyer-enrich"])
def test_run_valuation_is_build_report_over_orchestrate_valuation(options):
    # Scoring each reply as it arrives gives the report of scoring them all
    # after the round: byte for byte, a failed seller included.
    config = default_scenario(1003)
    datasets = build_datasets(config)
    nodes = [SellerNode(nid, raw=datasets[nid]) for nid in config.seller_ids()]

    def endpoints():
        return in_process_endpoints(nodes) + [("seller-0", _unreachable)]

    report = run_valuation(datasets[BUYER_ID], endpoints(), config.encoder, config.budget,
                           master_seed=1003, **options)
    buyer, outcomes = orchestrate_valuation(
        datasets[BUYER_ID], endpoints(), config.encoder, config.budget, master_seed=1003,
        noisy_buyer=options.get("noisy_buyer", False),
    )
    if options.get("debias"):
        outcomes = [o if o.failed else
                    dataclasses.replace(o, summary=debias_covariance(
                        o.summary, calibrate_sigma(config.budget).sigma))
                    for o in outcomes]
    expected = build_report(buyer, outcomes, options.get("objective", "diversify"),
                            report.params_echo)
    assert report.entry("seller-0").failed and len(report.ranking) == len(nodes)
    assert dumps_report(report) == dumps_report(expected)


def test_a_buyer_without_a_factor_aborts_the_round_and_closes_every_channel(monkeypatch,
                                                                              rng):
    # The buyer's singular covariance needs eigh for its W2 factor; when that
    # fails, the round raises instead of failing every seller.
    buyer_data, nodes, spec, budget = rank_deficient_round(rng)
    channels = []

    class Recorded(InProcessChannel):
        def __init__(self, node):
            super().__init__(node)
            self.closed = False
            channels.append(self)

        def close(self):
            self.closed = True

    eigh = gaussian_geometry._eigh

    def no_factor(sym, name, *args, **kwargs):
        if name == "covariance":
            raise ConvergenceError(f"eigendecomposition of {name} did not converge")
        return eigh(sym, name, *args, **kwargs)

    monkeypatch.setattr(gaussian_geometry, "_eigh", no_factor)
    endpoints = [(node.node_id, lambda n=node: Recorded(n)) for node in nodes]
    with pytest.raises(ConvergenceError, match="^eigendecomposition of covariance did not"):
        run_valuation(buyer_data, endpoints, spec, budget, master_seed=3)
    assert len(channels) == len(nodes) and all(c.closed for c in channels)


def test_buyer_memory_does_not_grow_with_the_seller_count():
    # A d = 256 summary is 0.5 MB; a round that keeps each until the end
    # peaks about that much higher for every further seller.
    dim = 256
    rng = np.random.default_rng(5)
    spec = EncoderSpec("external", 5, dim, dim, dim, 0.0)
    budget = PrivacyBudget(0.8, 1e-5, 1.0, 512)

    def party():
        return EmbeddingSet(rng.standard_normal((600, dim)) / np.sqrt(dim), 1.0, clipped=False)

    buyer = party()
    nodes = [SellerNode(f"seller-{i:02d}", embeddings=party()) for i in range(16)]

    def peak(sellers):
        tracemalloc.start()
        try:
            report = run_valuation(buyer, in_process_endpoints(nodes[:sellers]), spec, budget,
                                   master_seed=7)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.ranking) == sellers
        return used

    peak(1)  # first-use allocations (caches, imports) are not a seller's
    assert peak(16) - peak(4) < 1_000_000
