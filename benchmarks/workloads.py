"""The benchmark workloads: inputs made from the seed, the timed closed
loop, the output checks, and the metrics each run reports.

Every call into the program goes through a module attribute
(`gt.train_step`, `gi.exact_topk`, ...), so the traced run can rebind those
attributes to timing wrappers; the untraced run installs none.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import graphebr.autodiff as gad
import graphebr.evaluation as gev
import graphebr.graph as gg
import graphebr.index as gi
import graphebr.sampling as gs
import graphebr.training as gt
from graphebr.errors import NumericError, ValidationError

from harness import OpTally, Patches, Recorder, peak_rss_mb, repeat_timed, self_times, summarize

# A step or query that raises one of these counts as a failed operation;
# anything else is a crash of the benchmark itself.
PROGRAM_ERRORS = (ValidationError, NumericError)

# Set-up runs 3 times first. On a train workload it runs twice more after
# each training slice while it has taken under 2 s in all, so a cheap
# set-up is sampled across the run, not in one burst. The median is reported.
SETUP_FIRST = 3
SETUP_PER_SLICE = 2
SETUP_SECONDS = 2.0
# Training runs in slices; export and eval follow a slice while they have
# taken under FIXED_SECONDS, so the 2k workload times several pairs spread
# over the run and the 20k one a single pair. The host's speed changes
# every second or so; samples spread over the run average those phases.
TRAIN_SLICES = 8
FIXED_SECONDS = 8.0
# Enough timed steps for ten samples beyond the 90th percentile.
MIN_STEPS = 100
EVAL_SAMPLE_CHECKS = 20
ORACLE_EVERY = 20
INDEX_PARITY_QUERIES = 50

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
    ("op_ms_p90", "ms"),
    ("scan_ms_per_query", "ms"),
)

PER_LAYER = (
    ("graph.generate_s", "s"),
    ("graph.split_s", "s"),
    ("sampling.example_ms_per_step", "ms"),
    ("sampling.khop_ms_per_step", "ms"),
    ("sampling.khop_calls_per_step", "count"),
    ("sampling.merge_ms_per_step", "ms"),
    ("sampling.skip_ratio", "frac"),
    ("sampling.augment_ms_per_step", "ms"),
    ("sampling.batch_rows", "count"),
    ("sampling.batch_edges", "count"),
    ("sampling.batch_unique_ratio", "frac"),
    ("gat.encode_ms_per_step", "ms"),
    ("gat.encode_calls_per_step", "count"),
    ("gat.heads_ms_per_step", "ms"),
    ("gat.export_encode_s", "s"),
    ("losses.retrieval_ms_per_step", "ms"),
    ("losses.cca_ms_per_step", "ms"),
    ("losses.mae_ms_per_step", "ms"),
    ("autodiff.backward_ms_per_step", "ms"),
    ("autodiff.tape_records_per_step", "count"),
    ("training.clip_ms_per_step", "ms"),
    ("training.adam_ms_per_step", "ms"),
    ("training.step_self_ms", "ms"),
    ("training.skipped_steps", "count"),
    ("index.export_khop_s", "s"),
    ("index.export_self_s", "s"),
    ("index.exact_topk_ms", "ms"),
    ("index.ann_insert_s", "s"),
    ("index.ann_save_s", "s"),
    ("index.ann_load_s", "s"),
    ("index.ann_file_bytes", "bytes"),
    ("index.ann_query_ms_p50.hubs", "ms"),
    ("index.ann_query_ms_p50.rest", "ms"),
    ("index.ann_truncated.hubs", "count"),
    ("index.ann_truncated.rest", "count"),
    ("index.ann_recall_at_10.hubs", "frac"),
    ("index.ann_recall_at_10.rest", "frac"),
    ("evaluation.evaluate_table_s", "s"),
    ("evaluation.exact_topk_share", "frac"),
    ("evaluation.recall_at_10", "frac"),
    ("ops_failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

UNITS = dict(END_TO_END + PER_LAYER)


@dataclass(frozen=True)
class TrainSpec:
    """A synthetic SBM graph, its 10% held-out split and the training config."""

    num_nodes: int
    num_communities: int
    p_in: float
    p_out: float
    feature_dim: int
    tasks: tuple
    eval_pairs: int | None  # prefix of the held-out pairs to score; None scores all
    cold_fraction: float = 0.1
    holdout: float = 0.1
    batch_size: int = 8
    fanout: int = 5
    num_negatives: int = 7
    k: int = 2
    hidden_dims: tuple = (32,)
    embedding_dim: int = 32


@dataclass(frozen=True)
class ServeSpec:
    """Unit vectors near latent points; friends are the nearest latent points,
    with a lognormal count so a few percent of users are hubs."""

    num_users: int = 10_000
    dim: int = 32
    noise: float = 0.05
    friends_median: float = 12.0
    friends_sigma: float = 1.0
    friends_cap: int = 300
    hub_min: int = 64
    num_queries: int = 2000
    k: int = 10
    ef_search: int = 64
    m_conn: int = 16
    ef_construction: int = 100


WORKLOADS = {
    "train-2k-multitask": TrainSpec(2000, 2, 0.02, 0.002, 16, gt.TASKS, None),
    "train-20k-retrieval": TrainSpec(20_000, 20, 0.01, 0.0002, 32, ("retrieval",), 2000),
    "serve-10k-hubs": ServeSpec(),
}


def derive_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class TrainInputs:
    graph: object
    heldout: np.ndarray
    config: object


def make_train_inputs(spec: TrainSpec, seed: int) -> TrainInputs:
    graph_seed, split_seed, train_seed = derive_seeds(seed, 3)
    graph = gg.generate_synthetic_graph(
        spec.num_nodes, spec.num_communities, spec.p_in, spec.p_out,
        spec.feature_dim, spec.cold_fraction, graph_seed,
    )
    train_graph, heldout = gev.split_edges(graph, spec.holdout, split_seed)
    if spec.eval_pairs is not None:
        heldout = heldout[: spec.eval_pairs]
    config = gt.TrainConfig(
        batch_size=spec.batch_size, fanout=spec.fanout, num_negatives=spec.num_negatives,
        k=spec.k, hidden_dims=spec.hidden_dims, embedding_dim=spec.embedding_dim,
        projection_dim=spec.embedding_dim, enabled_tasks=spec.tasks, seed=train_seed,
    )
    return TrainInputs(train_graph, heldout, config)


@dataclass
class ServeInputs:
    table: object
    friends: list
    stream: np.ndarray
    hubs: np.ndarray  # bool per user
    build_seed: int


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_serve_inputs(spec: ServeSpec, seed: int) -> ServeInputs:
    data_seed, build_seed = derive_seeds(seed, 2)
    rng = np.random.default_rng(data_seed)
    n = spec.num_users
    latent = _unit_rows(rng.normal(size=(n, spec.dim)))
    vectors = _unit_rows(latent + rng.normal(scale=spec.noise, size=(n, spec.dim)))
    cap = min(spec.friends_cap, n - 1)
    counts = np.rint(rng.lognormal(np.log(spec.friends_median), spec.friends_sigma, n))
    counts = np.clip(counts, 1, cap).astype(np.int64)
    friends = []
    for start in range(0, n, 500):
        rows = np.arange(start, min(start + 500, n))
        sims = latent[rows] @ latent.T
        sims[np.arange(len(rows)), rows] = -np.inf
        near = np.argpartition(-sims, cap - 1, axis=1)[:, :cap]
        order = np.lexsort((near, -np.take_along_axis(sims, near, 1)), axis=1)
        near = np.take_along_axis(near, order, 1)
        friends.extend(near[i, : counts[u]].copy() for i, u in enumerate(rows))
    stream = rng.choice(n, size=spec.num_queries, p=counts / counts.sum())
    return ServeInputs(gi.EmbeddingTable(vectors), friends, stream, counts >= spec.hub_min, build_seed)


class Outcome:
    """Metrics by name with unit, sample count and a note, plus failed checks."""

    def __init__(self):
        self.metrics = {}
        self.failures = []
        self.tally = OpTally(PROGRAM_ERRORS)

    def put(self, name, value, unit, n=1, note=""):
        self.metrics[name] = {"value": float(value), "unit": unit, "n": int(n), "note": note}

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok


def check_answer(out: Outcome, what: str, result, vectors, q, exclude):
    """No excluded id, scores true and ordered by score then ascending id."""
    ids, scores = result.ids, result.scores
    if not out.check(not any(int(i) in exclude for i in ids), f"{what}: answer holds an excluded id"):
        return
    out.check(np.allclose(scores, vectors[ids] @ q, rtol=1e-12, atol=1e-12), f"{what}: wrong scores")
    ordered = (scores[:-1] > scores[1:]) | ((scores[:-1] == scores[1:]) & (ids[:-1] < ids[1:]))
    out.check(bool(ordered.all()), f"{what}: answer not ordered by score, then id")


def oracle_topk(vectors, q, k, exclude):
    """Brute force in plain Python ordering: best score first, then lower id."""
    scores = vectors @ q
    ranked = sorted((-scores[i], i) for i in range(len(vectors)) if i not in exclude)
    return np.array([i for _, i in ranked[:k]], dtype=np.int64)


def oracle_ranks(table, graph, pairs) -> np.ndarray:
    """Rank of v among all nodes but u and u's training neighbours, by
    score then id, for every held-out pair (u, v)."""
    vectors = table.vectors
    ids = np.arange(len(vectors))
    ranks = []
    for start in range(0, len(pairs), 128):
        chunk = pairs[start : start + 128]
        sims = vectors[chunk[:, 0]] @ vectors.T
        target = sims[np.arange(len(chunk)), chunk[:, 1]][:, None]
        for row, u in enumerate(chunk[:, 0]):
            sims[row, u] = -np.inf
            sims[row, graph.neighbors(u)] = -np.inf
        better = (sims > target) | ((sims == target) & (ids < chunk[:, 1:2]))
        ranks.extend((better.sum(axis=1) + 1).tolist())
    return np.asarray(ranks)


def check_eval_report(out, report, table, graph, pairs, settings):
    """The report validates, and matches ranks computed by brute force."""
    try:
        echo = gev.report_from_dict(json.loads(gev.report_to_json(report)))
        out.check(echo.to_dict() == report.to_dict(), "eval: report does not round-trip")
    except ValidationError as err:
        out.check(False, f"eval: report does not validate ({err})")
    ranks = oracle_ranks(table, graph, pairs)
    cold = np.array([len(graph.neighbors(u)) <= settings.cold_start_threshold for u in pairs[:, 0]])
    for name, mask in (("all", np.ones(len(pairs), bool)), ("cold_start", cold)):
        cohort, r = report.cohorts[name], ranks[mask].tolist()
        out.check(cohort.num_queries == len(r), f"eval: {name} cohort has the wrong size")
        for k in settings.k_values:
            want = sum(1 for x in r if x <= k) / len(r) if r else 0.0
            out.check(cohort.recall[k] == want, f"eval: {name} recall@{k} disagrees with brute force")
        mrr = sum(1.0 / x for x in r if x <= settings.mrr_cap) / len(r) if r else 0.0
        out.check(np.isclose(cohort.mrr, mrr, rtol=1e-12, atol=0), f"eval: {name} MRR disagrees with brute force")


# ---------------------------------------------------------------------------
# tracing


def _batch_shape(batch):
    rows = batch.num_nodes
    unique = len(np.unique(batch.global_ids)) / rows if rows else 0.0
    return (rows, len(batch.local_edges), unique)


def trace_targets() -> list:
    """(module, attribute, span name, before, after) for every layer call the
    program looks up at call time."""
    targets = [
        (gg, "generate_synthetic_graph", "graph.generate"),
        (gev, "split_edges", "graph.split"),
        (gt, "sample_retrieval_example", "sampling.example"),
        (gs, "khop_subgraph", "sampling.khop"),
        (gt, "augment_edge_drop", "sampling.augment"),
        (gt, "augment_feature_drop", "sampling.augment"),
        (gt, "mask_query_features", "sampling.augment"),
        (gt, "encode", "gat.encode"),
        (gt, "cca_head", "gat.heads"),
        (gt, "mae_reconstruct", "gat.heads"),
        (gt, "mean_retrieval_loss", "losses.retrieval"),
        (gt, "cca_loss", "losses.cca"),
        (gt, "mae_loss", "losses.mae"),
        (gt, "clip_gradients", "training.clip"),
        (gt, "adam_update", "training.adam"),
        (gi, "export_embeddings", "index.export"),
        (gi, "khop_subgraph", "index.export_khop"),
        (gi, "encode", "gat.export_encode"),
        (gi, "exact_topk", "index.exact_topk"),
        (gev, "exact_topk", "index.exact_topk"),
        (gev, "evaluate_table", "evaluation.evaluate_table"),
        (gi, "build_ann_index", "index.ann_insert"),
        (gi, "save_index", "index.ann_save"),
        (gi, "load_index", "index.ann_load"),
        (gi, "ann_topk", "index.ann_topk"),
    ]
    return [(m, a, n, None, None) for m, a, n in targets] + [
        (gt, "train_step", "training.step", None, lambda r: "skipped" if r[2] is None else None),
        (gt, "merge_examples", "sampling.merge", None, _batch_shape),
        (gad, "backward", "autodiff.backward", lambda loss: len(gad.active_tape()), None),
    ]


def layer_metrics(spans, cohort_of=None) -> dict:
    """Per-layer (value, sample count) from the spans; a layer without
    spans reads 0.

    Per-step values divide by the traced train steps, export values by the
    traced export calls.
    """
    selfs = self_times(spans)
    dur, infos, own, idx = (defaultdict(list) for _ in range(4))
    for i, (s, own_time) in enumerate(zip(spans, selfs)):
        dur[s.name].append(s.end - s.start)
        infos[s.name].append(s.info)
        own[s.name].append(own_time)
        idx[s.name].append(i)
    steps = len(dur["training.step"])
    exports = len(dur["index.export"])

    def per(name, count, scale=1.0):
        return (scale * sum(dur[name]) / count if count else 0.0, count)

    def calls_per_step(name):
        return (len(dur[name]) / steps if steps else 0.0, steps)

    def mean(values, scale=1.0):
        return (scale * float(np.mean(values)) if len(values) else 0.0, len(values))

    def median(values, scale=1.0):
        return (scale * float(np.median(values)) if len(values) else 0.0, len(values))

    examples = infos["sampling.example"]
    shapes = np.array(infos["sampling.merge"], dtype=np.float64).reshape(-1, 3)
    evals = set(idx["evaluation.evaluate_table"])
    in_eval = sum(
        spans[i].end - spans[i].start for i in idx["index.exact_topk"] if spans[i].parent in evals
    )
    m = {
        "graph.generate_s": median(dur["graph.generate"]),
        "graph.split_s": median(dur["graph.split"]),
        "sampling.example_ms_per_step": per("sampling.example", steps, 1e3),
        "sampling.khop_ms_per_step": per("sampling.khop", steps, 1e3),
        "sampling.khop_calls_per_step": calls_per_step("sampling.khop"),
        "sampling.merge_ms_per_step": per("sampling.merge", steps, 1e3),
        "sampling.skip_ratio": (
            examples.count("SkipExample") / len(examples) if examples else 0.0, len(examples)
        ),
        "sampling.augment_ms_per_step": per("sampling.augment", steps, 1e3),
        "sampling.batch_rows": mean(shapes[:, 0]),
        "sampling.batch_edges": mean(shapes[:, 1]),
        "sampling.batch_unique_ratio": mean(shapes[:, 2]),
        "gat.encode_ms_per_step": per("gat.encode", steps, 1e3),
        "gat.encode_calls_per_step": calls_per_step("gat.encode"),
        "gat.heads_ms_per_step": per("gat.heads", steps, 1e3),
        "gat.export_encode_s": per("gat.export_encode", exports),
        "losses.retrieval_ms_per_step": per("losses.retrieval", steps, 1e3),
        "losses.cca_ms_per_step": per("losses.cca", steps, 1e3),
        "losses.mae_ms_per_step": per("losses.mae", steps, 1e3),
        "autodiff.backward_ms_per_step": per("autodiff.backward", steps, 1e3),
        "autodiff.tape_records_per_step": mean(infos["autodiff.backward"]),
        "training.clip_ms_per_step": per("training.clip", steps, 1e3),
        "training.adam_ms_per_step": per("training.adam", steps, 1e3),
        "training.step_self_ms": mean(own["training.step"], 1e3),
        "training.skipped_steps": (infos["training.step"].count("skipped"), steps),
        "index.export_khop_s": per("index.export_khop", exports),
        "index.export_self_s": mean(own["index.export"]),
        "index.exact_topk_ms": mean(dur["index.exact_topk"], 1e3),
        "index.ann_insert_s": median(dur["index.ann_insert"]),
        "index.ann_save_s": median(dur["index.ann_save"]),
        "index.ann_load_s": median(dur["index.ann_load"]),
        "evaluation.evaluate_table_s": mean(dur["evaluation.evaluate_table"]),
        "evaluation.exact_topk_share": (
            in_eval / sum(dur["evaluation.evaluate_table"]) if evals else 0.0, len(evals)
        ),
    }
    for cohort in ("hubs", "rest"):
        times = [
            spans[i].end - spans[i].start
            for i in idx["index.ann_topk"]
            if cohort_of is not None and cohort_of(spans[i].op) == cohort
        ]
        m[f"index.ann_query_ms_p50.{cohort}"] = median(times, 1e3)
    return m


# ---------------------------------------------------------------------------
# runs


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir):
    """Run one workload; returns (Outcome, Recorder or None).

    With trace off no wrapper is installed. With trace on, the time-boxed
    loop runs first untraced for half the time, then the same operations
    again traced, so the two give the tracing overhead.
    """
    recorder = Recorder() if trace else None
    spec = WORKLOADS[name]
    run = _run_train if isinstance(spec, TrainSpec) else _run_serve
    return run(spec, seed, seconds, recorder, out_dir), recorder


def _tracing(recorder):
    return Patches(recorder, trace_targets()) if recorder is not None else contextlib.nullcontext()


def _setup(make, trace):
    return repeat_timed(make, 1 if trace else SETUP_FIRST)


class _Trainer:
    """Closed loop over train_step from fresh parameters. Step i draws its
    batch from (config seed, i) alone, so a second trainer replays the
    same work."""

    def __init__(self, out, inputs, recorder=None):
        self.out, self.inputs, self.recorder = out, inputs, recorder
        self.params = gt.init_model(inputs.config, inputs.graph.feature_dim)
        self.opt = gt.init_optimizer(self.params)
        self.times = []
        self.executed = 0
        self.busy = 0.0

    def run(self, seconds=0.0, min_steps=0, count=None):
        """Steps for `seconds` and at least min_steps, or exactly `count`."""
        cfg, graph = self.inputs.config, self.inputs.graph
        stop = len(self.times) + count if count is not None else None
        begun = time.perf_counter()
        done = 0
        while (
            len(self.times) < stop
            if stop is not None
            else done < min_steps or time.perf_counter() - begun < seconds
        ):
            step = len(self.times)
            if self.recorder is not None:
                self.recorder.op = step
            start = time.perf_counter()
            result = self.out.tally.call(gt.train_step, graph, self.params, self.opt, cfg, step)
            self.times.append(time.perf_counter() - start)
            done += 1
            if result is None or result[2] is None:
                continue
            self.params, self.opt, loss = result
            self.executed += 1
            values = (loss.retrieval, loss.cca, loss.mae, loss.combined)
            self.out.check(bool(np.isfinite(values).all()), f"train: non-finite loss at step {step}")
        if self.recorder is not None:
            self.recorder.op = None
        self.busy += time.perf_counter() - begun


def _run_train(spec: TrainSpec, seed, seconds, recorder, out_dir) -> Outcome:
    out = Outcome()
    trace = recorder is not None

    def make():
        return make_train_inputs(spec, seed)

    with _tracing(recorder):
        inputs, setup_times = _setup(make, trace)
    graph, pairs, cfg = inputs.graph, inputs.heldout, inputs.config
    settings = gev.EvalSettings()
    export_times, eval_times = [], []

    def export_and_eval():
        start = time.perf_counter()
        table = gi.export_embeddings(trainer.params, graph, k=cfg.k, fanout=cfg.fanout)
        mid = time.perf_counter()
        report = gev.evaluate_table(table, graph, pairs, settings)
        export_times.append(mid - start)
        eval_times.append(time.perf_counter() - mid)
        return table, report

    if trace:
        plain = _Trainer(out, inputs)
        plain.run(seconds / 2, MIN_STEPS)
        with _tracing(recorder):
            trainer = _Trainer(out, inputs, recorder)
            trainer.run(count=len(plain.times))
            table, report = export_and_eval()
    else:
        # Export and eval follow each slice of training while they have
        # taken under FIXED_SECONDS, so their samples spread over the run.
        trainer = _Trainer(out, inputs)
        for _ in range(TRAIN_SLICES):
            trainer.run(seconds / TRAIN_SLICES, -(-MIN_STEPS // TRAIN_SLICES))
            if not export_times or sum(export_times) + sum(eval_times) < FIXED_SECONDS:
                table, report = export_and_eval()
            if sum(setup_times) < SETUP_SECONDS:
                setup_times += repeat_timed(make, SETUP_PER_SLICE)[1]
    peak_mb = peak_rss_mb()

    out.check(
        table.vectors.shape == (graph.num_nodes, cfg.embedding_dim)
        and bool(np.isfinite(table.vectors).all()),
        "export: table has the wrong shape or non-finite rows",
    )
    check_eval_report(out, report, table, graph, pairs, settings)
    for u, _ in pairs[:EVAL_SAMPLE_CHECKS]:
        u = int(u)
        exclude = {u, *graph.neighbors(u).tolist()}
        result = gi.exact_topk(table, table.vectors[u], k=10, exclude=exclude)
        check_answer(out, "eval exact", result, table.vectors, table.vectors[u], exclude)
        out.check(
            np.array_equal(result.ids, oracle_topk(table.vectors, table.vectors[u], 10, exclude)),
            "eval exact: answer differs from brute force",
        )

    steps = summarize(np.asarray(trainer.times) * 1e3)
    out.put("recall_at_10", report.recall[10], "frac", len(pairs), "at the random floor")
    if trace:
        for name, (value, n) in layer_metrics(recorder.spans).items():
            out.put(name, value, UNITS[name], n)
        out.put("evaluation.recall_at_10", report.recall[10], "frac", len(pairs))
        overhead = steps["p50"] / summarize(np.asarray(plain.times) * 1e3)["p50"] - 1.0
        out.put("trace.overhead_frac", overhead, "frac", len(plain.times), "traced vs untraced train_step p50")
    else:
        export_s = float(np.median(export_times))
        per_query = float(np.median(eval_times)) / len(pairs)
        out.put("setup_s", np.median(setup_times), "s", len(setup_times), "graph + split")
        out.put("op_ms_p90", steps["p90"], "ms", steps["n"], "train_step_ms_p90")
        out.put("train_step_ms_p50", steps["p50"], "ms", steps["n"])
        out.put(f"train_step_ms_p{steps['tail_pct']:g}", steps["tail"], "ms", steps["n"], "tail at the percentile rule")
        out.put("train_examples_per_s", trainer.executed * cfg.batch_size / trainer.busy, "1/s",
                trainer.executed, "executed steps x batch / train wall time")
        out.put("export_s", export_s, "s", len(export_times),
                f"{graph.num_nodes / export_s:.0f} export_nodes_per_s")
        out.put("scan_ms_per_query", per_query * 1e3, "ms", len(eval_times) * len(pairs),
                f"evaluate_table; {1 / per_query:.0f} eval_queries_per_s")
    _finish(out, trace, "train steps", peak_mb)
    return out


def _serve_queries(out, inputs, spec, index, recorder, seconds=None, count=None, first_pass=None):
    """Closed loop over the query stream: ann_topk then exact_topk, each
    with exclude = {u} and u's friends, for `seconds` and at least one pass
    of the stream, or for exactly `count` queries. first_pass, if given,
    collects the answers of the first pass."""
    table, stream = inputs.table, inputs.stream
    ann_times, exact_times = [], []
    begun = time.perf_counter()
    i = 0
    while (
        i < count
        if count is not None
        else i < len(stream) or time.perf_counter() - begun < seconds
    ):
        u = int(stream[i % len(stream)])
        exclude = {u, *inputs.friends[u].tolist()}
        q = table.vectors[u]
        if recorder is not None:
            recorder.op = i % len(stream)
        start = time.perf_counter()
        ann = out.tally.call(gi.ann_topk, index, q, k=spec.k, ef_search=spec.ef_search, exclude=exclude)
        mid = time.perf_counter()
        exact = out.tally.call(gi.exact_topk, table, q, k=spec.k, exclude=exclude)
        end = time.perf_counter()
        ann_times.append(mid - start)
        exact_times.append(end - mid)
        for result in (ann, exact):
            if result is not None and len(result.ids) < spec.k:
                out.tally.mark_incomplete()
        if first_pass is not None and i < len(stream):
            first_pass.append((u, exclude, ann, exact))
        i += 1
    if recorder is not None:
        recorder.op = None
    return ann_times, exact_times


def _build_index(spec, inputs, out_dir):
    """build_ann_index, save_index and load_index through a file in out_dir;
    returns (built, loaded, seconds for all three, file bytes)."""
    path = os.path.join(out_dir, f"index-{os.getpid()}.json")
    try:
        start = time.perf_counter()
        built = gi.build_ann_index(
            inputs.table, m_conn=spec.m_conn, ef_construction=spec.ef_construction,
            rng_seed=inputs.build_seed,
        )
        gi.save_index(built, path)
        loaded = gi.load_index(path)
        seconds = time.perf_counter() - start
        return built, loaded, seconds, os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)


def _check_index(out, spec, inputs, built, loaded):
    try:
        gi.validate_index(loaded)
    except ValidationError as err:
        out.check(False, f"ann: loaded index fails validate_index ({err})")
    vectors = inputs.table.vectors
    for u in inputs.stream[:INDEX_PARITY_QUERIES]:
        u = int(u)
        exclude = {u, *inputs.friends[u].tolist()}
        a, b = (
            gi.ann_topk(ix, vectors[u], k=spec.k, ef_search=spec.ef_search, exclude=exclude)
            for ix in (built, loaded)
        )
        out.check(
            np.array_equal(a.ids, b.ids) and np.array_equal(a.scores, b.scores),
            "ann: loaded index answers differently from the built one",
        )


def _run_serve(spec: ServeSpec, seed, seconds, recorder, out_dir) -> Outcome:
    out = Outcome()
    trace = recorder is not None
    with _tracing(recorder):
        inputs, setup_times = _setup(lambda: make_serve_inputs(spec, seed), trace)
        built, index, build_s, file_bytes = _build_index(spec, inputs, out_dir)
    _check_index(out, spec, inputs, built, index)
    del built

    first = []
    if trace:
        plain, _ = _serve_queries(out, inputs, spec, index, None, seconds=seconds / 2, first_pass=first)
        with _tracing(recorder):
            ann_times, exact_times = _serve_queries(out, inputs, spec, index, recorder, count=len(plain))
    else:
        ann_times, exact_times = _serve_queries(out, inputs, spec, index, None, seconds=seconds, first_pass=first)

    peak_mb = peak_rss_mb()
    vectors = inputs.table.vectors
    recall = {"hubs": [], "rest": []}
    truncated = {"hubs": 0, "rest": 0}
    for j, (u, exclude, ann, exact) in enumerate(first):
        for what, result in (("ann", ann), ("exact", exact)):
            if result is not None:
                check_answer(out, what, result, vectors, vectors[u], exclude)
        if exact is None or ann is None:
            continue
        if j % ORACLE_EVERY == 0:
            out.check(
                np.array_equal(exact.ids, oracle_topk(vectors, vectors[u], spec.k, exclude)),
                "exact: answer differs from brute force",
            )
        cohort = "hubs" if inputs.hubs[u] else "rest"
        truncated[cohort] += int(len(ann.ids) < spec.k)
        recall[cohort].append(len(set(ann.ids.tolist()) & set(exact.ids.tolist())) / len(exact.ids))

    ann_ms = summarize(np.asarray(ann_times) * 1e3)
    exact_ms = summarize(np.asarray(exact_times) * 1e3)
    pooled = recall["hubs"] + recall["rest"]
    out.put("ann_recall_at_10", np.mean(pooled), "frac", len(pooled), "first pass")
    out.put("ann_truncated", sum(truncated.values()), "count", len(first),
            f"first pass: {truncated['hubs']} hubs, {truncated['rest']} rest")
    if trace:
        def cohort_of(op):
            return "hubs" if inputs.hubs[int(inputs.stream[op])] else "rest"

        for name, (value, n) in layer_metrics(recorder.spans, cohort_of).items():
            out.put(name, value, UNITS[name], n)
        out.put("index.ann_file_bytes", file_bytes, "bytes")
        for cohort in ("hubs", "rest"):
            n = len(recall[cohort])
            out.put(f"index.ann_truncated.{cohort}", truncated[cohort], "count", n)
            out.put(f"index.ann_recall_at_10.{cohort}", np.mean(recall[cohort]) if n else 0.0, "frac", n)
        overhead = ann_ms["p50"] / summarize(np.asarray(plain) * 1e3)["p50"] - 1.0
        out.put("trace.overhead_frac", overhead, "frac", len(plain), "traced vs untraced ann_topk p50")
    else:
        out.put("setup_s", np.median(setup_times), "s", len(setup_times), "table + friends + stream")
        out.put("op_ms_p90", ann_ms["p90"], "ms", ann_ms["n"], "ann_query_ms_p90")
        out.put("ann_query_ms_p50", ann_ms["p50"], "ms", ann_ms["n"])
        out.put(f"ann_query_ms_p{ann_ms['tail_pct']:g}", ann_ms["tail"], "ms", ann_ms["n"], "tail at the percentile rule")
        out.put("ann_build_s", build_s, "s", 1, f"build + save + load of {file_bytes} bytes")
        out.put("scan_ms_per_query", exact_ms["mean"], "ms", exact_ms["n"], "exact_topk mean")
        out.put("exact_query_ms_p50", exact_ms["p50"], "ms", exact_ms["n"])
        out.put(f"exact_query_ms_p{exact_ms['tail_pct']:g}", exact_ms["tail"], "ms", exact_ms["n"])
    _finish(out, trace, "ann and exact queries", peak_mb)
    return out


def _finish(out: Outcome, trace: bool, ops: str, peak_mb: float):
    """Failure shares, peak memory before the output checks ran, and 0 for
    every layer not exercised."""
    tally = out.tally
    out.put("ops_failed_frac", tally.failed_frac, "frac", tally.attempted,
            f"{tally.raised} raised, {tally.incomplete} short of k, over {ops}")
    if not trace:
        out.put("ops_ok_frac", 1.0 - tally.failed_frac, "frac", tally.attempted, f"complete {ops}")
        out.put("peak_rss_mb", peak_mb, "MB", 1)
    for name, unit in PER_LAYER if trace else END_TO_END:
        if name not in out.metrics:
            out.put(name, 0.0, unit, 0, "not exercised")
