"""Offline link-prediction scoring over embedding tables.

A fraction of edges is withheld from the training graph and replayed as
queries: for a held-out pair (u, v), the table row of u is matched
against every node that is not u itself or one of u's training
neighbors, and the rank of v drives recall and reciprocal-rank metrics.
Reports break queries into an overall cohort and a cold-start cohort of
low-degree query nodes, and serialize as versioned deterministic JSON.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError, ValidationError, require_integer_fields, require_seed
from .graph import GraphStore
from .index import EmbeddingTable, export_embeddings
from .index import exact_topk  # noqa: F401  (benchmarks/workloads.py traces this name)

REPORT_VERSION = "1"

# Score-matrix entries per evaluation block: 4 MiB of float64.
_SCAN_ENTRIES = 1 << 19


@dataclass(frozen=True)
class EvalSettings:
    """Scoring knobs; every field feeds the config fingerprint."""

    k_values: tuple[int, ...] = (1, 5, 10, 20)
    cold_start_threshold: int = 2
    mrr_cap: int = 100

    def __post_init__(self):
        require_integer_fields(self, "eval settings")
        ks = self.k_values
        if not ks or ks[0] < 1 or list(ks) != sorted(set(ks)):
            raise ValidationError(
                "eval settings: k_values must be strictly increasing positive integers"
            )
        if self.cold_start_threshold < 0:
            raise ValidationError("eval settings: cold_start_threshold must be >= 0")
        if self.mrr_cap < 1:
            raise ValidationError("eval settings: mrr_cap must be >= 1")

    def to_dict(self) -> dict:
        return {
            "k_values": list(self.k_values),
            "cold_start_threshold": self.cold_start_threshold,
            "mrr_cap": self.mrr_cap,
        }


@dataclass(frozen=True)
class CohortMetrics:
    """Recall and MRR aggregates over one query cohort."""

    num_queries: int
    recall: dict
    mrr: float

    def __post_init__(self):
        recall = {int(k): float(v) for k, v in self.recall.items()}
        object.__setattr__(self, "num_queries", int(self.num_queries))
        object.__setattr__(self, "recall", recall)
        object.__setattr__(self, "mrr", float(self.mrr))
        if self.num_queries < 0:
            raise ValidationError("cohort: num_queries must be >= 0")
        if not recall:
            raise ValidationError("cohort: recall must cover at least one cutoff")
        values = [recall[k] for k in sorted(recall)]
        if any(not 0.0 <= v <= 1.0 for v in values + [self.mrr]):
            raise ValidationError("cohort: metrics must lie in [0, 1]")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValidationError("cohort: recall must be non-decreasing in k")

    def to_dict(self) -> dict:
        return {
            "num_queries": self.num_queries,
            "recall": {str(k): self.recall[k] for k in sorted(self.recall)},
            "mrr": self.mrr,
        }


@dataclass(frozen=True)
class EvalReport:
    """Versioned evaluation summary.

    The `all` cohort covers every query; `cold_start` is its subset of
    queries whose training degree does not exceed the configured
    threshold. Top-level metrics mirror the `all` cohort.
    """

    config_fingerprint: str
    cohorts: dict
    version: str = REPORT_VERSION

    def __post_init__(self):
        if self.version != REPORT_VERSION:
            raise ValidationError(f"eval report: unsupported version {self.version!r}")
        if not isinstance(self.config_fingerprint, str) or not self.config_fingerprint:
            raise ValidationError("eval report: config_fingerprint must be a non-empty string")
        if set(self.cohorts) != {"all", "cold_start"}:
            raise ValidationError("eval report: cohorts must be exactly 'all' and 'cold_start'")
        for cohort in self.cohorts.values():
            if not isinstance(cohort, CohortMetrics):
                raise ValidationError("eval report: cohort entries must be CohortMetrics")
        overall, cold = self.cohorts["all"], self.cohorts["cold_start"]
        if cold.num_queries > overall.num_queries:
            raise ValidationError("eval report: cold-start cohort exceeds the query set")
        if set(cold.recall) != set(overall.recall):
            raise ValidationError("eval report: cohorts disagree on recall cutoffs")

    @property
    def num_queries(self) -> int:
        return self.cohorts["all"].num_queries

    @property
    def recall(self) -> dict:
        return self.cohorts["all"].recall

    @property
    def mrr(self) -> float:
        return self.cohorts["all"].mrr

    def to_dict(self) -> dict:
        overall = self.cohorts["all"].to_dict()
        return {
            "version": self.version,
            "config_fingerprint": self.config_fingerprint,
            "num_queries": overall["num_queries"],
            "recall": overall["recall"],
            "mrr": overall["mrr"],
            "cohorts": {name: c.to_dict() for name, c in sorted(self.cohorts.items())},
        }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def report_from_dict(raw) -> EvalReport:
    """Parse and validate a report document; tampered files are rejected."""
    if not isinstance(raw, dict):
        raise ValidationError("eval report: expected a JSON object")
    required = {"version", "config_fingerprint", "num_queries", "recall", "mrr", "cohorts"}
    if set(raw) != required:
        missing, extra = sorted(required - set(raw)), sorted(set(raw) - required)
        raise ValidationError(f"eval report: missing fields {missing}, unexpected fields {extra}")
    if raw["version"] != REPORT_VERSION:
        raise ValidationError(f"eval report: unsupported version {raw['version']!r}")
    try:
        cohorts = {
            str(name): CohortMetrics(c["num_queries"], c["recall"], c["mrr"])
            for name, c in raw["cohorts"].items()
        }
        report = EvalReport(config_fingerprint=raw["config_fingerprint"], cohorts=cohorts)
        echo = CohortMetrics(raw["num_queries"], raw["recall"], raw["mrr"])
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"eval report: malformed document ({exc})") from exc
    if echo.to_dict() != report.cohorts["all"].to_dict():
        raise ValidationError("eval report: top-level metrics disagree with the 'all' cohort")
    return report


def save_report(report: EvalReport, path) -> None:
    Path(path).write_text(report_to_json(report) + "\n", encoding="ascii")


def load_report(path) -> EvalReport:
    try:
        raw = json.loads(Path(path).read_text(encoding="ascii"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"eval report: {path} is not valid JSON ({exc})") from exc
    return report_from_dict(raw)


def split_edges(graph: GraphStore, holdout_fraction: float, rng_seed):
    """Withhold a uniform sample of edges for later scoring.

    Holds out floor(fraction * num_edges) edges, but always at least one.
    Returns the training graph (original features, remaining edges) and
    the held-out pairs with u < v.
    """
    if not 0.0 < holdout_fraction < 0.5:
        raise ValidationError("split: holdout_fraction must lie in (0, 0.5)")
    require_seed(rng_seed, "split")
    pairs = graph.undirected_edges()
    if len(pairs) == 0:
        raise ValidationError("split: graph has no edges to hold out")
    count = max(1, int(np.floor(holdout_fraction * len(pairs))))
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(len(pairs), size=count, replace=False)
    mask = np.zeros(len(pairs), dtype=bool)
    mask[chosen] = True
    train = GraphStore(graph.features, pairs[~mask])
    return train, pairs[mask]


def _check_heldout(heldout, num_nodes) -> np.ndarray:
    pairs = np.ascontiguousarray(np.asarray(heldout, dtype=np.int64))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ShapeError("heldout: expected an array of node-id pairs")
    if len(pairs) == 0:
        raise ValidationError("heldout: need at least one edge to score")
    if pairs.min() < 0 or pairs.max() >= num_nodes:
        raise ValidationError("heldout: node id out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValidationError("heldout: self loops are not scoreable")
    return pairs


def config_fingerprint(train_graph: GraphStore, heldout, settings: EvalSettings) -> str:
    """Digest of everything the scores depend on besides the embeddings."""
    pairs = _check_heldout(heldout, train_graph.num_nodes)
    h = hashlib.sha256()
    h.update(train_graph.fingerprint().encode("ascii"))
    h.update(pairs.tobytes())
    h.update(json.dumps(settings.to_dict(), sort_keys=True).encode("ascii"))
    return h.hexdigest()


def _aggregate(ranks, settings: EvalSettings) -> CohortMetrics:
    n = len(ranks)
    if n == 0:
        return CohortMetrics(0, {k: 0.0 for k in settings.k_values}, 0.0)
    recall = {k: sum(1 for r in ranks if r <= k) / n for k in settings.k_values}
    mrr = sum(1.0 / r for r in ranks if r <= settings.mrr_cap) / n
    return CohortMetrics(n, recall, mrr)


def evaluate_table(
    table: EmbeddingTable,
    train_graph: GraphStore,
    heldout,
    settings: EvalSettings = EvalSettings(),
) -> EvalReport:
    """Score held-out edges against a prebuilt embedding table.

    Each pair (u, v) contributes exactly one query in stored order. The
    candidates are every node but u and u's training neighbours, and v's
    rank is 1 plus the number of candidates that score higher than v, or
    the same with a smaller id: v's position in `exact_topk` order. Queries
    are scored in blocks of max(1, _SCAN_ENTRIES // num_nodes) rows, so a
    block's score matrix takes about 4 MiB, or one row if that is more.
    Ranks past the MRR cap contribute zero reciprocal rank.
    """
    if table.num_nodes != train_graph.num_nodes:
        raise ValidationError(
            f"evaluate: table has {table.num_nodes} rows for a graph with "
            f"{train_graph.num_nodes} nodes"
        )
    pairs = _check_heldout(heldout, train_graph.num_nodes)
    vectors, ids = table.vectors, np.arange(table.num_nodes)
    rows = max(1, _SCAN_ENTRIES // table.num_nodes)
    ranks, is_cold = [], []
    for start in range(0, len(pairs), rows):
        block = pairs[start : start + rows]
        scores = vectors[block[:, 0]] @ vectors.T
        for row, (u, v) in enumerate(block.tolist()):
            nbrs = train_graph.neighbors(u)
            if train_graph.has_edge(u, v):
                raise ValidationError(
                    f"evaluate: held-out pair ({u}, {v}) is still a training edge"
                )
            # NaN compares false, so excluded nodes never count; every
            # other score is finite, since the table's squared norms are
            scores[row, u] = np.nan
            scores[row, nbrs] = np.nan
            is_cold.append(len(nbrs) <= settings.cold_start_threshold)
        target = scores[np.arange(len(block)), block[:, 1]][:, None]
        better = (scores > target) | ((scores == target) & (ids < block[:, 1:]))
        ranks += (np.count_nonzero(better, axis=1) + 1).tolist()
    cohorts = {
        "all": _aggregate(ranks, settings),
        "cold_start": _aggregate([r for r, c in zip(ranks, is_cold) if c], settings),
    }
    return EvalReport(
        config_fingerprint=config_fingerprint(train_graph, pairs, settings),
        cohorts=cohorts,
    )


def evaluate(
    result,
    train_graph: GraphStore,
    heldout,
    settings: EvalSettings = EvalSettings(),
) -> EvalReport:
    """Export embeddings with the training-time context settings, then score."""
    cfg = getattr(result, "config", None)
    if cfg is None:
        raise ValidationError(
            "evaluate: expected a train result with its config; "
            "use evaluate_table for a prebuilt embedding table"
        )
    table = export_embeddings(result.params, train_graph, k=cfg.k, fanout=cfg.fanout)
    return evaluate_table(table, train_graph, heldout, settings)


def _relative_delta(base: float, new: float):
    return None if base == 0.0 else (new - base) / base


def compare_runs(baseline: EvalReport, candidate: EvalReport, margin: float = 0.01) -> dict:
    """Relative metric deltas of a candidate run over a baseline run.

    Deltas are (candidate - baseline) / baseline per cohort, or None
    where the baseline value is zero. The negative-transfer flag fires
    when any defined delta falls below -margin.
    """
    margin = float(margin)
    if not np.isfinite(margin) or margin < 0.0:
        raise ValidationError("compare: margin must be a finite value >= 0")
    if baseline.config_fingerprint != candidate.config_fingerprint:
        raise ValidationError("compare: reports come from different evaluation configurations")
    flagged = False
    cohorts = {}
    for name in sorted(baseline.cohorts):
        base, cand = baseline.cohorts[name], candidate.cohorts[name]
        if set(base.recall) != set(cand.recall):
            raise ValidationError("compare: reports disagree on recall cutoffs")
        if base.num_queries != cand.num_queries:
            raise ValidationError("compare: cohort sizes disagree despite matching fingerprints")
        deltas = {"recall": {}, "mrr": _relative_delta(base.mrr, cand.mrr)}
        for k in sorted(base.recall):
            deltas["recall"][str(k)] = _relative_delta(base.recall[k], cand.recall[k])
        for d in [deltas["mrr"], *deltas["recall"].values()]:
            flagged = flagged or (d is not None and d < -margin)
        cohorts[name] = deltas
    return {
        "version": REPORT_VERSION,
        "config_fingerprint": baseline.config_fingerprint,
        "margin": margin,
        "negative_transfer": flagged,
        "cohorts": cohorts,
    }
