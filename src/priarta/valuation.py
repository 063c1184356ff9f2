"""Buyer-side decision layer: run a valuation round, score sellers by the
closed-form W2 distance, min-max normalize, rank under the chosen objective,
and report augmentation-robustness deviations, for a pair of summaries or for
every augmented copy in a seeded scenario."""

import csv
from dataclasses import dataclass, fields, replace
import io
import math

from .encoder import EncoderSpec
from .errors import (
    ConvergenceError,
    EmptyInputError,
    FileFormatError,
    NoCandidatesError,
    NotPSDError,
    NumericInputError,
    ParameterError,
    PriartaError,
    require_bool,
    require_float,
    require_str,
)
from .fileio import dumps_json, load_json, save_json
from .gaussian_geometry import GaussianSummary, debias_covariance, wasserstein2_gaussian
from .privacy import GAUSSIAN_SAMPLER, PrivacyBudget
from .protocol import PROTOCOL_VERSION, SellerNode, in_process_endpoints, orchestrate_valuation
from .scenario import BUYER_ID, ScenarioConfig, build_datasets

__all__ = [
    "RobustnessEntry", "SellerScore", "ValuationReport", "build_report",
    "load_report", "minmax_normalize", "rank_sellers", "render_csv",
    "render_table", "robustness_report", "run_valuation", "save_report",
]

OBJECTIVES = ("diversify", "enrich")


def minmax_normalize(raw) -> tuple:
    """Affine map of the scores onto [0, 1].

    Returns (values, degenerate). When max == min every output is 0 and the
    degenerate flag is set, so downstream ranking still works via tie-break.
    """
    values = list(raw)
    if not values:
        raise EmptyInputError("nothing to normalize")
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        raise NumericInputError("scores must be finite")
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values), True
    return [(v - lo) / (hi - lo) for v in values], False


@dataclass(frozen=True)
class SellerScore:
    node_id: str
    raw_w2: float = None
    normalized: float = None
    failed: bool = False
    failure_reason: str = None

    def __post_init__(self):
        require_str(self.node_id, "node_id")
        for field in ("raw_w2", "normalized"):
            if getattr(self, field) is not None:
                object.__setattr__(self, field, require_float(getattr(self, field), field))
        require_bool(self.failed, "failed")
        if self.failure_reason is not None:
            require_str(self.failure_reason, "failure_reason")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class RobustnessEntry:
    node_id: str
    baseline_w2: float
    augmented_w2: float
    deviation: float

    def __post_init__(self):
        require_str(self.node_id, "node_id")
        for field in ("baseline_w2", "augmented_w2", "deviation"):
            object.__setattr__(self, field, require_float(getattr(self, field), field))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def rank_sellers(entries, objective: str) -> list:
    """diversify: highest raw score first; enrich: lowest first. Ties break
    by node_id ascending either way."""
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    candidates = [e for e in entries if not e.failed]
    if not candidates:
        raise NoCandidatesError("every seller failed; nothing to rank")
    if objective == "diversify":
        candidates.sort(key=lambda e: (-e.raw_w2, e.node_id))
    else:
        candidates.sort(key=lambda e: (e.raw_w2, e.node_id))
    return [e.node_id for e in candidates]


def robustness_report(buyer: GaussianSummary, seller_baseline: GaussianSummary,
                      seller_augmented: GaussianSummary) -> dict:
    """Distance shift caused by augmenting one seller's data, with the buyer
    summary held fixed."""
    baseline = wasserstein2_gaussian(buyer, seller_baseline)
    augmented = wasserstein2_gaussian(buyer, seller_augmented)
    return {
        "baseline_w2": baseline,
        "augmented_w2": augmented,
        "deviation": abs(baseline - augmented),
    }


@dataclass(frozen=True)
class ValuationReport:
    """Entries are sorted by node_id; ranking covers non-failed sellers."""

    entries: tuple
    objective: str
    ranking: tuple
    params_echo: dict
    degenerate_normalization: bool = False
    robustness: tuple = None

    def entry(self, node_id: str) -> SellerScore:
        for e in self.entries:
            if e.node_id == node_id:
                return e
        raise KeyError(node_id)

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "objective": self.objective,
            "ranking": list(self.ranking),
            "params_echo": self.params_echo,
            "degenerate_normalization": self.degenerate_normalization,
            "robustness": (
                None if self.robustness is None else [r.to_dict() for r in self.robustness]
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValuationReport":
        """The report a JSON object holds. Every value is checked by type,
        never coerced, and the ranking must list each scored seller once."""
        try:
            if not isinstance(data, dict):
                raise ParameterError("a report is a JSON object")
            robustness = data.get("robustness")
            report = cls(
                entries=tuple(SellerScore(**e) for e in _json_list(data["entries"], "entries")),
                objective=data["objective"],
                ranking=tuple(require_str(node_id, "ranking entry")
                              for node_id in _json_list(data["ranking"], "ranking")),
                params_echo=data["params_echo"],
                degenerate_normalization=require_bool(data["degenerate_normalization"],
                                                      "degenerate_normalization"),
                robustness=None if robustness is None else tuple(
                    RobustnessEntry(**r) for r in _json_list(robustness, "robustness")),
            )
            if not isinstance(report.params_echo, dict):
                raise ParameterError("params_echo must be an object")
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed valuation report: {exc}") from exc
        if report.objective not in OBJECTIVES:
            raise FileFormatError(f"malformed valuation report: objective {report.objective!r}")
        scored = [e for e in report.entries if not e.failed]
        if sorted(report.ranking) != sorted(e.node_id for e in scored):
            raise FileFormatError("malformed valuation report: ranking must list each "
                                  "seller that did not fail, once")
        if any(e.raw_w2 is None or e.normalized is None for e in scored):
            raise FileFormatError("malformed valuation report: a seller that did not fail "
                                  "needs raw_w2 and normalized")
        return report


def _json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ParameterError(f"{field} must be a list")
    return value


def build_report(buyer: GaussianSummary, outcomes, objective: str,
                 params_echo: dict) -> ValuationReport:
    """Assemble scores, normalization, and ranking from protocol outcomes.

    outcomes: objects with node_id, summary (None when failed), failure.
    All-failed rounds still produce a report (empty ranking) so the failures
    can be written out and inspected.
    """
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    ordered = sorted(outcomes, key=lambda o: o.node_id)
    buyer._covariance_factor  # a fault in the buyer's own summary raises here
    raw, failures = {}, {}
    for o in ordered:
        if o.summary is None:
            failures[o.node_id] = o.failure or "unknown failure"
            continue
        try:
            raw[o.node_id] = wasserstein2_gaussian(buyer, o.summary)
        except (NumericInputError, NotPSDError, ConvergenceError) as exc:
            failures[o.node_id] = f"scoring failed: {type(exc).__name__}: {exc}"
    degenerate = False
    normalized = {}
    if raw:
        values, degenerate = minmax_normalize([raw[nid] for nid in sorted(raw)])
        normalized = dict(zip(sorted(raw), values))
    entries = []
    for o in ordered:
        if o.node_id in failures:
            entries.append(SellerScore(o.node_id, failed=True,
                                       failure_reason=failures[o.node_id]))
        else:
            entries.append(SellerScore(o.node_id, raw_w2=raw[o.node_id],
                                       normalized=normalized[o.node_id]))
    ranking = tuple(rank_sellers(entries, objective)) if raw else ()
    return ValuationReport(
        entries=tuple(entries),
        objective=objective,
        ranking=ranking,
        params_echo=dict(params_echo),
        degenerate_normalization=degenerate,
    )


def run_valuation(buyer_data, sellers, spec: EncoderSpec, budget: PrivacyBudget,
                  master_seed: int = None, objective: str = "diversify",
                  debias: bool = False, noisy_buyer: bool = False) -> ValuationReport:
    """One valuation round: query every seller endpoint, optionally subtract
    each seller's sigma^2 I from its covariance, then score and rank.

    buyer_data and sellers are as for orchestrate_valuation: buyer_data may
    be a function that loads the dataset while the first sellers compute. The
    report's params_echo records every setting that shaped it.
    """
    buyer, outcomes = orchestrate_valuation(
        buyer_data, sellers, spec, budget, master_seed=master_seed, noisy_buyer=noisy_buyer,
    )
    if debias:
        for outcome in outcomes:
            if outcome.summary is not None:
                try:
                    outcome.summary = debias_covariance(outcome.summary, outcome.sigma_used)
                except PriartaError as exc:  # a hostile reply fails only its seller
                    outcome.summary = None
                    outcome.failure = f"debias failed: {type(exc).__name__}: {exc}"
    params = {
        "epsilon": budget.epsilon,
        "delta": budget.delta,
        "clip_radius": budget.clip_radius,
        "subset_size": budget.subset_size,
        "master_seed": master_seed,
        "mode": "seeded" if master_seed is not None else "secure",
        "objective": objective,
        "debias": debias,
        "noisy_buyer": noisy_buyer,
        "encoder_fingerprint": spec.fingerprint(),
        "gaussian_sampler": GAUSSIAN_SAMPLER,
        "protocol_version": PROTOCOL_VERSION,
    }
    return build_report(buyer, outcomes, objective, params)


def run_valuation_for_config(config: ScenarioConfig, objective: str = "diversify",
                             debias: bool = False, noisy_buyer: bool = False) -> ValuationReport:
    """Offline end-to-end valuation of a scenario, seeded by its master seed."""
    datasets = build_datasets(config)
    nodes = [SellerNode(node_id, raw=datasets[node_id]) for node_id in config.seller_ids()]
    return run_valuation(datasets[BUYER_ID], in_process_endpoints(nodes), config.encoder,
                         config.budget, master_seed=config.master_seed, objective=objective,
                         debias=debias, noisy_buyer=noisy_buyer)


def robustness_for_config(config: ScenarioConfig) -> list:
    """Baseline-vs-augmented distance deviations for every augmented-copy
    seller, in config order. Two seeded in-process rounds serve the copies'
    node ids, one over each copy's data and one over its source's, so the
    buyer summary and each copy's seeds are the same in both. A seller that
    fails either round raises ParameterError."""
    copies = [s for s in config.sellers if s.kind == "augmented_copy"]
    if not copies:
        return []
    datasets = build_datasets(config)

    def summaries(data_id):
        nodes = [SellerNode(s.node_id, raw=datasets[data_id(s)]) for s in copies]
        buyer, outcomes = orchestrate_valuation(datasets[BUYER_ID], in_process_endpoints(nodes),
                                                config.encoder, config.budget,
                                                master_seed=config.master_seed)
        for o in outcomes:
            if o.failed:
                raise ParameterError(f"seller {o.node_id} failed: {o.failure}")
        return buyer, {o.node_id: o.summary for o in outcomes}

    buyer, augmented = summaries(lambda s: s.node_id)
    _, baseline = summaries(lambda s: s.source_id)
    return [RobustnessEntry(s.node_id, **robustness_report(buyer, baseline[s.node_id],
                                                          augmented[s.node_id]))
            for s in copies]


def with_robustness(report: ValuationReport, entries) -> ValuationReport:
    return replace(report, robustness=tuple(entries))


def dumps_report(report: ValuationReport) -> str:
    """Canonical serialized form: sorted keys, compact separators."""
    return dumps_json(report.to_dict())


def save_report(report: ValuationReport, path):
    save_json(path, report.to_dict())


def load_report(path) -> ValuationReport:
    return ValuationReport.from_dict(load_json(path))


def _rank_map(report: ValuationReport) -> dict:
    return {node_id: i + 1 for i, node_id in enumerate(report.ranking)}


def render_table(report: ValuationReport) -> str:
    """Aligned columns: node_id | raw_w2 | normalized | rank."""
    ranks = _rank_map(report)
    ordered = sorted(
        report.entries,
        key=lambda e: (ranks.get(e.node_id, len(ranks) + 1), e.node_id),
    )
    rows = [("node_id", "raw_w2", "normalized", "rank")]
    for e in ordered:
        if e.failed:
            rows.append((e.node_id, "-", "-", "-"))
        else:
            rows.append((e.node_id, f"{e.raw_w2:.6f}", f"{e.normalized:.6f}",
                         str(ranks[e.node_id])))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for e in ordered:
        if e.failed:
            lines.append(f"failed: {e.node_id}: {e.failure_reason}")
    if report.degenerate_normalization:
        lines.append("note: all raw scores identical; normalized scores degenerate to 0")
    if report.robustness is not None:
        lines.append("")
        lines.append("robustness (|baseline_w2 - augmented_w2|):")
        for r in report.robustness:
            lines.append(f"  {r.node_id}: baseline {r.baseline_w2!r}, "
                         f"augmented {r.augmented_w2!r}, deviation {r.deviation!r}")
    return "\n".join(lines) + "\n"


def render_csv(report: ValuationReport) -> str:
    """One row per seller; floats as shortest round-trip decimals so the
    file re-parses to identical values."""
    ranks = _rank_map(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node_id", "raw_w2", "normalized", "rank", "failed", "failure_reason"])
    for e in report.entries:
        writer.writerow([
            e.node_id,
            "" if e.raw_w2 is None else repr(float(e.raw_w2)),
            "" if e.normalized is None else repr(float(e.normalized)),
            "" if e.node_id not in ranks else ranks[e.node_id],
            "true" if e.failed else "false",
            e.failure_reason or "",
        ])
    return buf.getvalue()
