"""Scoring, normalization, ranking, reports, and rendering."""

import numpy as np
import pytest
import scipy.linalg

from priarta import (
    EmbeddingSet,
    EmptyInputError,
    EncoderSpec,
    FileFormatError,
    GaussianSummary,
    NoCandidatesError,
    NumericInputError,
    PrivacyBudget,
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
    PROTOCOL_VERSION,
    Hello,
    InProcessChannel,
    SellerNode,
    SellerOutcome,
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
    with_robustness,
)

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


# ---------------------------------------------------------- hostile sellers


class _ForgingSession:
    """Stands in for a seller session: acknowledges HELLO and MODEL_SPEC, and
    answers STATS_REQUEST with a forged summary that carries the requested
    count and session id and the spec's fingerprint."""

    def __init__(self, spec, extra_dim=0, cov_scale=1.0, sigma_used=0.5):
        self.spec = spec
        self.dim = spec.latent_dim + extra_dim
        self.cov_scale = cov_scale
        self.sigma_used = sigma_used

    def handle_bytes(self, frame):
        msg = decode_frame(frame)
        if not isinstance(msg, StatsRequest):
            return encode_frame(Hello(PROTOCOL_VERSION))
        return encode_frame(StatsResponse(
            np.zeros(self.dim), pack_covariance(self.cov_scale * np.eye(self.dim)),
            msg.subset_size, msg.session_id, self.sigma_used, self.spec.fingerprint(),
        ))


# forged reply, whether the round debiases, and the start of the failure reason
FORGED_REPLIES = {
    "mean-too-long": (dict(extra_dim=1), False, "mean has 5 entries"),
    "covariance-1e308": (dict(cov_scale=1e308), False, "NumericInputError: matrix entries"),
    "covariance-1e308-debias": (dict(cov_scale=1e308), True, "NumericInputError: matrix entries"),
    "negative-sigma-debias": (dict(sigma_used=-1.0), True, "negative sigma_used"),
    "sigma-1e160-debias": (dict(sigma_used=1e160), True, "debias failed: ParameterError"),
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
    buyer, outcomes = orchestrate_valuation(buyer_data, in_process_endpoints(nodes), spec,
                                            budget, master_seed=3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(buyer.covariance)
    seen = []
    eigh = np.linalg.eigh

    def recorded(a):
        w, q = eigh(a)
        seen.append((a.tobytes(), float(w[0]), float(w[-1])))
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    report = run_valuation(buyer_data, in_process_endpoints(nodes), spec, budget,
                           master_seed=3, debias=debias)
    monkeypatch.undo()
    # Each seller covariance is eigendecomposed on the seller and again, with
    # the same bits, after decoding; the buyer's in its summary and for its W2
    # factor. Their negative eigenvalues are rounding, inside psd_clamp's band
    # of d * eps * lambda_max, so none is rebuilt. Debias adds the eigh of
    # each shifted covariance and the clamp of its result.
    per_seller = 4 if debias else 2
    assert len(seen) == 2 + per_seller * len(nodes)
    for cov in [buyer.covariance] + [o.summary.covariance for o in outcomes]:
        calls = [(low, high) for bits, low, high in seen if bits == cov.tobytes()]
        assert len(calls) == 2
        low, high = calls[0]
        assert -len(cov) * np.finfo(float).eps * high <= low < 0.0
    assert not report.degenerate_normalization and len(report.ranking) == len(nodes)
    for o in outcomes:
        cov = o.summary.covariance
        if debias:
            w, q = scipy.linalg.eigh(cov - o.sigma_used**2 * np.eye(len(cov)))
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
