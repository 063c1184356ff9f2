"""Buyer-side decision layer: run a valuation round that scores each seller by
the closed-form W2 distance as its reply arrives, min-max normalize, rank under
the chosen objective, and report augmentation-robustness deviations for every
augmented copy in a seeded scenario, scored by the same round."""

import csv
from dataclasses import asdict, dataclass, fields, replace
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
from .protocol import (BUYER_ID, MODE_SECURE, MODE_SEEDED, PROTOCOL_VERSION, SellerNode,
                       _round, in_process_endpoints)
from .scenario import ScenarioConfig, build_datasets

__all__ = [
    "RobustnessEntry", "SellerScore", "ValuationReport", "build_report",
    "load_report", "minmax_normalize", "rank_sellers", "render_csv",
    "render_table", "run_valuation", "save_report",
]

OBJECTIVES = ("diversify", "enrich")


def _require_objective(objective: str):
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


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
    _require_objective(objective)
    candidates = [e for e in entries if not e.failed]
    if not candidates:
        raise NoCandidatesError("every seller failed; nothing to rank")
    if objective == "diversify":
        candidates.sort(key=lambda e: (-e.raw_w2, e.node_id))
    else:
        candidates.sort(key=lambda e: (e.raw_w2, e.node_id))
    return [e.node_id for e in candidates]


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
        never coerced, and must be what the package would have written (see
        _report_problem)."""
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
        problem = _report_problem(report)
        if problem is not None:
            raise FileFormatError(f"malformed valuation report: {problem}")
        return report


def _report_problem(report: ValuationReport):
    """Why a loaded report is not one the package could have written, or
    None. Its entries, ranking and degenerate_normalization must be those
    _assemble rebuilds from its node ids, raw scores and failures; its
    robustness entries must name distinct sellers of the report, carry
    |baseline_w2 - augmented_w2|, and hold the report's own scores as their
    augmented_w2 (_unheld_score, with_robustness's rule)."""
    if report.objective not in OBJECTIVES:
        return f"objective {report.objective!r}"
    node_ids = [e.node_id for e in report.entries]
    if len(set(node_ids)) != len(node_ids):
        return "two entries share a node id"
    if node_ids != sorted(node_ids):
        return "entries must be sorted by node_id"
    if any(e.raw_w2 is None for e in report.entries if not e.failed):
        return "a seller that did not fail needs raw_w2"
    rebuilt = _assemble([(e.node_id, e.raw_w2, (e.failure_reason or "") if e.failed else None)
                         for e in report.entries], report.objective, report.params_echo)
    for got, want in zip(report.entries, rebuilt.entries):
        if got != want:
            return f"entry {got.node_id!r} is not what its raw score gives"
    for field in ("ranking", "degenerate_normalization"):
        if getattr(report, field) != getattr(rebuilt, field):
            return f"{field} is not what the raw scores give"
    robustness = report.robustness or ()
    robust = [r.node_id for r in robustness]
    if len(set(robust)) != len(robust) or not set(robust) <= set(node_ids):
        return "robustness entries must name distinct sellers of the report"
    if any(r.deviation != abs(r.baseline_w2 - r.augmented_w2) for r in robustness):
        return "a robustness deviation is not |baseline_w2 - augmented_w2|"
    return _unheld_score(report, robustness)


def _unheld_score(report: ValuationReport, robustness):
    """Why a robustness entry does not describe the report's own round, or
    None: each augmented_w2 must be the raw_w2 the report holds for its
    seller, as robustness_for_config gives it for the scenario's round."""
    held = {e.node_id: e.raw_w2 for e in report.entries}
    for r in robustness:
        score = held.get(r.node_id)
        if score != r.augmented_w2:
            score = "no score" if score is None else repr(score)
            return (f"seller {r.node_id} scores {r.augmented_w2!r} in the scenario's round "
                    f"and {score} in the report")
    return None


def _json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ParameterError(f"{field} must be a list")
    return value


def _score(buyer: GaussianSummary, outcome, debias_sigma: float = None) -> tuple:
    """One seller's (node_id, raw_w2, failure), exactly one of the last two
    None: its summary, less debias_sigma^2 I unless that is None, scored by W2."""
    buyer._covariance_factor  # a fault in the buyer's own summary raises, first
    summary = outcome.summary
    if summary is None:
        return outcome.node_id, None, outcome.failure or "unknown failure"
    try:
        summary = summary if debias_sigma is None else debias_covariance(summary, debias_sigma)
    except PriartaError as exc:  # a hostile reply fails only its seller
        return outcome.node_id, None, f"debias failed: {type(exc).__name__}: {exc}"
    try:
        return outcome.node_id, wasserstein2_gaussian(buyer, summary), None
    except (NumericInputError, NotPSDError, ConvergenceError) as exc:
        return outcome.node_id, None, f"scoring failed: {type(exc).__name__}: {exc}"


def _assemble(scores, objective: str, params_echo: dict) -> ValuationReport:
    """The report over _score triples: entries sorted by node_id, the scored
    ones normalized and ranked. Its callers check the objective."""
    scores = sorted(scores, key=lambda s: s[0])
    raw = [w2 for _, w2, failure in scores if failure is None]
    values, degenerate = minmax_normalize(raw) if raw else ((), False)
    normalized = iter(values)
    entries = tuple(
        SellerScore(node_id, failed=True, failure_reason=failure) if failure is not None
        else SellerScore(node_id, raw_w2=w2, normalized=next(normalized))
        for node_id, w2, failure in scores
    )
    ranking = tuple(rank_sellers(entries, objective)) if raw else ()
    return ValuationReport(entries=entries, objective=objective, ranking=ranking,
                           params_echo=dict(params_echo), degenerate_normalization=degenerate)


def build_report(buyer: GaussianSummary, outcomes, objective: str,
                 params_echo: dict) -> ValuationReport:
    """Score protocol outcomes (objects with node_id, summary, None when
    failed, and failure) against the buyer, then normalize and rank. An
    all-failed round still gets a report, with an empty ranking."""
    _require_objective(objective)
    return _assemble((_score(buyer, o) for o in outcomes), objective, params_echo)


def run_valuation(buyer_data, sellers, spec: EncoderSpec, budget: PrivacyBudget,
                  master_seed: int = None, objective: str = "diversify",
                  debias: bool = False, noisy_buyer: bool = False) -> ValuationReport:
    """One valuation round: query every seller endpoint and score each reply
    as its window is checked (optionally less the budget's sigma^2 I), so the
    buyer holds at most one window of replies, bounded in bytes
    (protocol._WINDOW_BYTES); then normalize and rank.

    buyer_data and sellers are as for orchestrate_valuation: buyer_data may
    be a function that loads the dataset while the first sellers compute. The
    report's params_echo records every setting that shaped it.
    """
    _require_objective(objective)
    require_bool(debias, "debias")
    _, scores = _round(buyer_data, sellers, spec, budget, master_seed, noisy_buyer,
                       lambda buyer, sigma, o: _score(buyer, o, sigma if debias else None))
    params = {
        **asdict(budget),
        "master_seed": master_seed,
        "mode": MODE_SEEDED if master_seed is not None else MODE_SECURE,
        "objective": objective,
        "debias": debias,
        "noisy_buyer": noisy_buyer,
        "encoder_fingerprint": spec.fingerprint(),
        "gaussian_sampler": GAUSSIAN_SAMPLER,
        "protocol_version": PROTOCOL_VERSION,
    }
    return _assemble(scores, objective, params)


def _scenario_round(config: ScenarioConfig, datasets: dict, sellers, **options) -> ValuationReport:
    """The scenario's seeded in-process round; sellers are (node id, data id)
    pairs, each node serving the dataset of its data id."""
    nodes = [SellerNode(node_id, raw=datasets[data_id]) for node_id, data_id in sellers]
    return run_valuation(datasets[BUYER_ID], in_process_endpoints(nodes), config.encoder,
                         config.budget, master_seed=config.master_seed, **options)


def run_valuation_for_config(config: ScenarioConfig, objective: str = "diversify",
                             debias: bool = False, noisy_buyer: bool = False) -> ValuationReport:
    """Offline end-to-end valuation of a scenario, seeded by its master seed."""
    return _scenario_round(config, build_datasets(config),
                           [(node_id, node_id) for node_id in config.seller_ids()],
                           objective=objective, debias=debias, noisy_buyer=noisy_buyer)


def robustness_for_config(config: ScenarioConfig) -> list:
    """Baseline-vs-augmented distance deviations for every augmented-copy
    seller, in config order. Two of the scenario's rounds serve the copies'
    node ids, one over each copy's own data and one over its source's. A
    node's seeds derive from the master seed and its id, so the first round
    scores each copy as the scenario's full round does. A seller that fails
    either round raises ParameterError."""
    copies = [s for s in config.sellers if s.kind == "augmented_copy"]
    if not copies:
        return []
    datasets = build_datasets(config)

    def scores(data_id) -> dict:
        report = _scenario_round(config, datasets, [(s.node_id, data_id(s)) for s in copies])
        for e in report.entries:
            if e.failed:
                raise ParameterError(f"seller {e.node_id} failed: {e.failure_reason}")
        return {e.node_id: e.raw_w2 for e in report.entries}

    augmented, baseline = scores(lambda s: s.node_id), scores(lambda s: s.source_id)
    return [RobustnessEntry(s.node_id, baseline[s.node_id], augmented[s.node_id],
                            abs(baseline[s.node_id] - augmented[s.node_id])) for s in copies]


def with_robustness(report: ValuationReport, entries) -> ValuationReport:
    """The report with these robustness entries. Each augmented_w2 must be the
    raw_w2 the report holds for its seller, as robustness_for_config gives it
    for a report of the scenario's round; else ParameterError."""
    entries = tuple(entries)
    problem = _unheld_score(report, entries)
    if problem is not None:
        raise ParameterError(problem)
    return replace(report, robustness=entries)


def dumps_report(report: ValuationReport) -> str:
    """Canonical serialized form: sorted keys, compact separators."""
    return dumps_json(report.to_dict())


def save_report(report: ValuationReport, path):
    save_json(path, report.to_dict())


def load_report(path) -> ValuationReport:
    return ValuationReport.from_dict(load_json(path))


def _rank_map(report: ValuationReport) -> dict:
    return {node_id: i + 1 for i, node_id in enumerate(report.ranking)}


def _printable(text: str) -> str:
    """text for a terminal: each character str.isprintable rejects (a newline,
    ESC and the other controls, a bidi override) written as its repr escape,
    so a seller's failure text cannot start a line or send a control."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def render_table(report: ValuationReport) -> str:
    """Aligned columns: node_id | raw_w2 | normalized | rank. Node ids and
    failure reasons are printed by _printable, one line each."""
    ranks = _rank_map(report)
    ordered = sorted(
        report.entries,
        key=lambda e: (ranks.get(e.node_id, len(ranks) + 1), e.node_id),
    )
    rows = [("node_id", "raw_w2", "normalized", "rank")]
    for e in ordered:
        if e.failed:
            rows.append((_printable(e.node_id), "-", "-", "-"))
        else:
            rows.append((_printable(e.node_id), f"{e.raw_w2:.6f}", f"{e.normalized:.6f}",
                         str(ranks[e.node_id])))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for e in ordered:
        if e.failed:
            lines.append(f"failed: {_printable(e.node_id)}: {_printable(e.failure_reason)}")
    if report.degenerate_normalization:
        lines.append("note: all raw scores identical; normalized scores degenerate to 0")
    if report.robustness is not None:
        lines.append("")
        lines.append("robustness (|baseline_w2 - augmented_w2|):")
        for r in report.robustness:
            lines.append(f"  {_printable(r.node_id)}: baseline {r.baseline_w2!r}, "
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
