"""Command-line interface.

Subcommands cover the full workflow: `synth` writes a synthetic graph,
`train` runs an experiment described by a JSON run config, `embed`
exports an embedding table from a checkpoint, `index` builds the
approximate-search structure, `retrieve` answers queries from a file
of node ids, one per line (read by `graph.read_rows`, as every text file),
`eval` scores held-out edges, `compare` diffs two evaluation reports,
and `gradcheck` runs the finite-difference suite.

Exit codes: 0 on success, 1 for validation or numeric failures (one
`error: ...` line on stderr), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .autodiff import primitive_gradient_suite
from .errors import ValidationError
from .evaluation import (
    EvalSettings,
    compare_runs,
    evaluate,
    load_report,
    report_to_json,
    save_report,
    split_edges,
)
from .graph import GraphStore, generate_synthetic_graph, load_graph, read_rows, save_graph
from .index import (
    ann_topk,
    build_ann_index,
    exact_topk_block,
    export_embeddings,
    load_index,
    load_table,
    save_index,
    save_table,
)
from .training import (
    TrainConfig,
    load_checkpoint,
    load_dataclass,
    loss_gradient_cases,
    train,
)

GRADCHECK_TOLERANCE = 1e-4

@dataclass(frozen=True)
class SyntheticGraph:
    """Parameters of `generate_synthetic_graph`, named like the run config's
    `synthetic` keys."""

    num_nodes: int
    p_in: float
    p_out: float
    feature_dim: int
    num_communities: int = 2
    cold_start_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("run config: synthetic.seed must be non-negative")


@dataclass(frozen=True)
class RunConfig:
    """One experiment: graph source, trainer settings, split, and scoring.

    The graph comes either from `edges_path`/`features_path` or from a
    `synthetic` parameter block, never both. `split_seed` drives the
    held-out edge split independently of the training seed, so runs that
    differ only in model settings score against identical splits.
    """

    train: TrainConfig
    output_dir: str
    edges_path: str | None = None
    features_path: str | None = None
    synthetic: SyntheticGraph | None = None
    holdout_fraction: float = 0.1
    split_seed: int = 0
    eval: EvalSettings = field(default_factory=EvalSettings)

    def __post_init__(self):
        if not self.output_dir:
            raise ValidationError("run config: output_dir must be a non-empty string")
        from_files = self.edges_path is not None or self.features_path is not None
        if self.synthetic is not None and from_files:
            raise ValidationError(
                "run config: give either graph files or synthetic parameters, not both"
            )
        if self.synthetic is None and not (self.edges_path and self.features_path):
            raise ValidationError(
                "run config: need edges_path and features_path, or a synthetic block"
            )
        if not 0.0 < self.holdout_fraction < 0.5:
            raise ValidationError("run config: holdout_fraction must lie in (0, 0.5)")
        if self.split_seed < 0:
            raise ValidationError("run config: split_seed must be non-negative")


def run_config_from_dict(raw) -> RunConfig:
    return load_dataclass(RunConfig, raw, "run config")


def load_run_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"run config: {path} is not valid JSON ({exc})") from exc
    return run_config_from_dict(raw)


def _resolve_graph(cfg: RunConfig) -> GraphStore:
    synth = cfg.synthetic
    if synth is not None:
        return generate_synthetic_graph(
            num_nodes=synth.num_nodes,
            num_communities=synth.num_communities,
            p_in=synth.p_in,
            p_out=synth.p_out,
            feature_dim=synth.feature_dim,
            cold_start_fraction=synth.cold_start_fraction,
            rng_seed=synth.seed,
        )
    for path in (cfg.edges_path, cfg.features_path):
        if not os.path.exists(path):
            raise ValidationError(f"run config: referenced path does not exist: {path}")
    return load_graph(cfg.edges_path, cfg.features_path)


def _ensure_parent(path) -> None:
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _emit(text: str, output) -> None:
    if output:
        _ensure_parent(output)
        Path(output).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _read_queries(path) -> list:
    ids = read_rows(path, Path(path).read_bytes(), np.int64, 1).ravel().tolist()
    if not ids:
        raise ValidationError(f"{path}: no query ids found")
    return ids


def _cmd_synth(args) -> int:
    graph = generate_synthetic_graph(
        args.nodes, args.communities, args.p_in, args.p_out,
        args.feature_dim, args.cold_fraction, args.seed,
    )
    _ensure_parent(args.edges_out)
    _ensure_parent(args.features_out)
    save_graph(graph, args.edges_out, args.features_out)
    summary = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "edges": args.edges_out,
        "features": args.features_out,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    graph = _resolve_graph(cfg)
    train_graph, _ = split_edges(graph, cfg.holdout_fraction, cfg.split_seed)
    os.makedirs(cfg.output_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.output_dir, "metrics.jsonl")
    # appending on resume keeps the stream identical to an uninterrupted run
    with open(metrics_path, "a" if args.resume else "w", encoding="ascii") as stream:
        result = train(
            train_graph, cfg.train,
            checkpoint_dir=cfg.output_dir,
            metrics_stream=stream,
            resume_from=args.resume,
        )
    summary = {
        "checkpoint": os.path.join(cfg.output_dir, "checkpoint_final.npz"),
        "executed_steps": len(result.history),
        "skipped_steps": result.skipped_steps,
        "metrics": metrics_path,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_embed(args) -> int:
    graph = load_graph(args.edges, args.features)
    params, _, saved_cfg, _ = load_checkpoint(args.checkpoint)
    table = export_embeddings(params, graph, k=saved_cfg.k, fanout=saved_cfg.fanout)
    _ensure_parent(args.output)
    save_table(table, args.output, binary=args.binary)
    summary = {"num_nodes": table.num_nodes, "dim": table.dim, "path": args.output}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_index(args) -> int:
    table = load_table(args.table)
    index = build_ann_index(
        table, m_conn=args.m_conn, ef_construction=args.ef_construction, rng_seed=args.seed
    )
    _ensure_parent(args.output)
    save_index(index, args.output)
    summary = {"num_nodes": table.num_nodes, "layers": len(index.layers), "path": args.output}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_retrieve(args) -> int:
    queries = _read_queries(args.queries)
    index = None if args.table else load_index(args.index)
    table = load_table(args.table) if args.table else index.table
    bad = [q for q in queries if not 0 <= q < table.num_nodes]
    if bad:
        raise ValidationError(f"retrieve: query ids out of range: {bad[:5]}")
    if index is None:
        # each query excludes itself
        ids = np.array(queries, dtype=np.int64)
        results = exact_topk_block(table, table.vectors[ids], args.k, (np.ones(len(ids), dtype=np.int64), ids))
    else:
        results = [
            ann_topk(index, table.vectors[q], k=args.k, ef_search=max(args.ef_search, args.k), exclude={q})
            for q in queries
        ]
    lines = []
    for q, result in zip(queries, results):
        for rank, (cand, score) in enumerate(zip(result.ids, result.scores), start=1):
            lines.append(f"{q} {int(cand)} {rank} {float(score):.17g}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    graph = _resolve_graph(cfg)
    train_graph, heldout = split_edges(graph, cfg.holdout_fraction, cfg.split_seed)
    checkpoint = args.checkpoint or os.path.join(cfg.output_dir, "checkpoint_final.npz")
    params, _, saved_cfg, _ = load_checkpoint(checkpoint)
    model = SimpleNamespace(params=params, config=saved_cfg)
    report = evaluate(model, train_graph, heldout, cfg.eval)
    output = args.output or os.path.join(cfg.output_dir, "report.json")
    _ensure_parent(output)
    save_report(report, output)
    sys.stdout.write(report_to_json(report) + "\n")
    return 0


def _cmd_compare(args) -> int:
    delta = compare_runs(
        load_report(args.baseline), load_report(args.candidate), margin=args.margin
    )
    text = json.dumps(delta, sort_keys=True)
    if args.output:
        _emit(text + "\n", args.output)
    sys.stdout.write(text + "\n")
    return 0


def _cmd_gradcheck(args) -> int:
    checks = list(primitive_gradient_suite(args.seed)) + list(loss_gradient_cases(args.seed))
    failures = []
    for name, err in checks:
        sys.stdout.write(f"{name} {err:.3e}\n")
        if not err < args.tolerance:
            failures.append(name)
    if failures:
        sys.stderr.write(
            _error_line(
                f"gradcheck: {len(failures)} checks at or above {args.tolerance}: "
                + ", ".join(failures)
            ) + "\n"
        )
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphebr",
        description="Graph embeddings for retrieval: train, index, query, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic community graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--communities", type=int, default=2)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--feature-dim", type=int, required=True)
    p.add_argument("--cold-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edges-out", required=True)
    p.add_argument("--features-out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="run a training experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint file to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("embed", help="export an embedding table from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("index", help="build the approximate-search index over a table")
    p.add_argument("--table", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--m-conn", type=int, default=16)
    p.add_argument("--ef-construction", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("retrieve", help="answer node-id queries from a file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--table")
    source.add_argument("--index")
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ef-search", type=int, default=64)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("eval", help="score held-out edges for a finished run")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="relative metric deltas between two reports")
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument("--margin", type=float, default=0.01)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=GRADCHECK_TOLERANCE)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _error_line(message) -> str:
    return "error: " + " ".join(str(message).split())


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, zipfile.BadZipFile) as err:
        sys.stderr.write(_error_line(err) + "\n")
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
