"""Acceptance gate for the whole package.

Each test checks one release criterion end to end, prints a single
pass/fail line through conftest.record_criterion, and then asserts. The
directional experiment is the expensive one; it trains six models on a
2,000-node synthetic graph. The final test checks the suite's own wall
clock, so this file must run last (conftest orders collection that way).
"""

import dataclasses
import io
import json
import math
import time

import numpy as np

import graphebr.autodiff as ad
from conftest import record_criterion, suite_elapsed
from graphebr.autodiff import Tensor, primitive_gradient_suite
from graphebr.evaluation import (
    CohortMetrics,
    EvalReport,
    EvalSettings,
    compare_runs,
    evaluate,
    split_edges,
)
from graphebr.gat import cca_head, encode, init_params
from graphebr.graph import generate_synthetic_graph
from graphebr.index import EmbeddingTable, ann_topk, build_ann_index, exact_topk
from graphebr.losses import (
    CcaConfig,
    LossWeights,
    MaeConfig,
    cca_loss,
    mae_loss,
    mean_retrieval_loss,
)
from graphebr.sampling import (
    augment_edge_drop,
    augment_feature_drop,
    whole_graph_subgraph,
)
from graphebr.training import (
    TrainConfig,
    adam_update,
    clip_gradients,
    init_model,
    init_optimizer,
    loss_gradient_cases,
    train,
)
from test_gat import dense_reference, make_subgraph
from test_index import naive_topk


def stripped_metrics(stream) -> list:
    """Metrics lines with the wall-clock field removed, re-serialized."""
    lines = []
    for raw in stream.getvalue().splitlines():
        record = json.loads(raw)
        record.pop("wall_ms", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def test_gradients_match_central_finite_differences():
    started = time.perf_counter()
    worst_name, worst_err = "", 0.0
    for seed in range(10):
        for name, err in primitive_gradient_suite(seed) + loss_gradient_cases(seed):
            if err > worst_err:
                worst_name, worst_err = name, err
    elapsed = time.perf_counter() - started
    ok = worst_err < 1e-4 and elapsed < 60.0
    record_criterion(
        2, ok, f"max rel err {worst_err:.2e} ({worst_name}), {elapsed:.1f}s"
    )
    assert ok, f"gradient check: worst {worst_name} at {worst_err:.3e} in {elapsed:.1f}s"


def test_losses_hit_closed_form_values():
    rng = np.random.default_rng(0)
    failures = []
    with ad.no_grad():
        for m in (2, 16, 64):
            candidates = Tensor(rng.standard_normal((m, 5)))
            labels = np.zeros(m)
            labels[0] = 1.0
            # zero query makes every logit zero, hence a uniform softmax
            loss = mean_retrieval_loss(Tensor(np.zeros((1, 5))), candidates, [labels]).data.item()
            if abs(loss - math.log(m)) >= 1e-9:
                failures.append(f"retrieval M={m}: {loss!r}")

        views = Tensor(rng.standard_normal((12, 6)))
        alignment = cca_loss(views, views, CcaConfig(lam=0.0)).data.item()
        if abs(alignment) > 1e-12:
            failures.append(f"cca identical views: {alignment!r}")

        originals = rng.standard_normal((9, 7))
        y = MaeConfig().y_exponent
        perfect = mae_loss(originals, 3.0 * originals, MaeConfig()).data.item()
        antipodal = mae_loss(originals, -originals, MaeConfig()).data.item()
        if abs(perfect) > 1e-12:
            failures.append(f"mae perfect: {perfect!r}")
        if abs(antipodal - 2.0 ** y) > 1e-12:
            failures.append(f"mae antipodal: {antipodal!r}")

    ok = not failures
    record_criterion(3, ok, "; ".join(failures) if failures else "ln M, 0, 0, 2^y all hit")
    assert ok, failures


def test_single_task_trainer_matches_zero_weight_trainer_bitwise():
    graph = generate_synthetic_graph(60, 2, 0.2, 0.04, 6, 0.0, rng_seed=3)
    shared = dict(
        steps=100, batch_size=4, k=1, fanout=4, num_negatives=3,
        hidden_dims=(8,), embedding_dim=8, projection_dim=8, seed=7,
    )
    only_enabled = TrainConfig(enabled_tasks=("retrieval",), **shared)
    only_weighted = TrainConfig(weights=LossWeights(alpha=1.0, beta=0.0, gamma=0.0), **shared)

    out_a, out_b = io.StringIO(), io.StringIO()
    res_a = train(graph, only_enabled, metrics_stream=out_a)
    res_b = train(graph, only_weighted, metrics_stream=out_b)

    named_a = res_a.params.named_parameters()
    named_b = res_b.params.named_parameters()
    same_params = set(named_a) == set(named_b) and all(
        np.array_equal(named_a[name].data, named_b[name].data) for name in named_a
    )
    same_metrics = stripped_metrics(out_a) == stripped_metrics(out_b)
    ok = same_params and same_metrics
    record_criterion(
        4, ok,
        f"100 steps, params bitwise equal={same_params}, metrics equal={same_metrics}",
    )
    assert ok


def test_whitening_objective_decorrelates_embeddings():
    graph = generate_synthetic_graph(200, 2, 0.05, 0.01, 8, 0.0, rng_seed=11)
    whole = whole_graph_subgraph(graph)
    # the default lam is tuned for the multitask mix; decorrelating alone
    # on a fixed subgraph needs the whitening term to dominate alignment
    cca_cfg = CcaConfig(lam=1.0)
    cfg = TrainConfig(
        hidden_dims=(16,), embedding_dim=16, projection_dim=8,
        seed=4, learning_rate=1e-2, cca=cca_cfg,
    )
    params = init_model(cfg, graph.feature_dim)
    opt = init_optimizer(params)

    def whitening_term(current) -> float:
        with ad.no_grad():
            std = ad.standardize_columns(cca_head(current, encode(current, whole))).data
        gram = std.T @ std
        return float(((gram - np.eye(gram.shape[1])) ** 2).sum())

    before = whitening_term(params)
    for step in range(200):
        drops = np.random.SeedSequence([cfg.seed, step]).spawn(4)
        view_a = augment_feature_drop(augment_edge_drop(whole, 0.2, drops[0]), 0.2, drops[1])
        view_b = augment_feature_drop(augment_edge_drop(whole, 0.2, drops[2]), 0.2, drops[3])
        loss = cca_loss(
            cca_head(params, encode(params, view_a)),
            cca_head(params, encode(params, view_b)),
            cca_cfg,
        )
        by_tensor = ad.backward(loss)
        grads = {
            name: by_tensor[p]
            for name, p in params.named_parameters().items()
            if p in by_tensor
        }
        grads, _ = clip_gradients(grads, cfg.clip_norm)
        params, opt = adam_update(params, grads, opt, cfg.learning_rate)
    after = whitening_term(params)

    reduction = 1.0 - after / before
    ok = reduction >= 0.5
    record_criterion(
        5, ok, f"gram deviation {before:.2f} -> {after:.2f} ({reduction:.0%} drop)"
    )
    assert ok, f"whitening term fell only {reduction:.0%}"


def test_sparse_forward_and_exact_search_match_dense_oracles():
    worst_gap = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        pairs = np.unique(np.sort(rng.integers(0, n, size=(n * 2, 2)), axis=1), axis=0)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        sub = make_subgraph(n, pairs, seed=seed)
        params = init_params([3, 5, 4], [4, 4], rng_seed=seed)
        got = encode(params, sub).data
        want = dense_reference(params, sub.local_features, sub.local_edges, n)
        worst_gap = max(worst_gap, float(np.abs(got - want).max()))
    forward_ok = worst_gap < 1e-10

    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        # half-integer entries force plenty of tied dot products
        vectors = rng.integers(-2, 3, size=(n, d)) * 0.5
        q = rng.integers(-2, 3, size=d) * 0.5
        exclude = set(np.flatnonzero(rng.random(n) < 0.2).tolist())
        if len(exclude) == n:
            exclude.pop()
        k = int(rng.integers(1, n + 1))
        table = EmbeddingTable(vectors.astype(np.float64))
        got_ids = exact_topk(table, q.astype(np.float64), k=k, exclude=exclude).ids.tolist()
        if got_ids != naive_topk(vectors, q, k, exclude):
            mismatches += 1
    search_ok = mismatches == 0

    ok = forward_ok and search_ok
    record_criterion(
        6, ok,
        f"attention vs dense max gap {worst_gap:.1e}, scan mismatches {mismatches}/100",
    )
    assert ok


def test_approximate_search_recall_meets_target_and_grows_with_beam():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((10_000, 32))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    table = EmbeddingTable(vectors)
    index = build_ann_index(table, m_conn=16, ef_construction=100, rng_seed=1)

    queries = np.random.default_rng(1).standard_normal((100, 32))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    exact_sets = [set(exact_topk(table, q, k=10).ids.tolist()) for q in queries]

    beams = (16, 32, 64, 128)
    recalls = {}
    for ef in beams:
        overlap = [
            len(set(ann_topk(index, q, k=10, ef_search=ef).ids.tolist()) & want) / 10
            for q, want in zip(queries, exact_sets)
        ]
        recalls[ef] = float(np.mean(overlap))

    monotone = all(recalls[a] <= recalls[b] for a, b in zip(beams, beams[1:]))
    ok = recalls[64] >= 0.95 and monotone
    curve = ", ".join(f"ef{ef}={recalls[ef]:.3f}" for ef in beams)
    record_criterion(7, ok, curve)
    assert ok, curve


def test_identical_seeds_reproduce_metrics_and_resume_is_exact(tmp_path):
    graph = generate_synthetic_graph(50, 2, 0.2, 0.05, 6, 0.0, rng_seed=2)
    cfg = TrainConfig(
        steps=40, batch_size=4, k=1, fanout=4, num_negatives=3,
        hidden_dims=(8,), embedding_dim=8, projection_dim=8, seed=5,
    )

    first, second = io.StringIO(), io.StringIO()
    res_first = train(graph, cfg, metrics_stream=first)
    res_second = train(graph, cfg, metrics_stream=second)
    replay_ok = stripped_metrics(first) == stripped_metrics(second) and all(
        np.array_equal(a.data, b.data)
        for a, b in zip(
            res_first.params.named_parameters().values(),
            res_second.params.named_parameters().values(),
        )
    )

    half = io.StringIO()
    train(
        graph, dataclasses.replace(cfg, steps=20),
        checkpoint_dir=tmp_path, metrics_stream=half,
    )
    rest = io.StringIO()
    train(
        graph, cfg,
        resume_from=tmp_path / "checkpoint_final.npz", metrics_stream=rest,
    )
    resume_ok = (
        stripped_metrics(half) + stripped_metrics(rest) == stripped_metrics(first)
    )

    ok = replay_ok and resume_ok
    record_criterion(
        8, ok, f"replay identical={replay_ok}, resumed sequence identical={resume_ok}"
    )
    assert ok


def test_auxiliary_objectives_do_not_degrade_retrieval_silently():
    started = time.perf_counter()
    graph = generate_synthetic_graph(2000, 2, 0.02, 0.002, 16, 0.10, rng_seed=0)
    train_graph, heldout = split_edges(graph, 0.10, rng_seed=0)
    settings = EvalSettings(k_values=(10,), cold_start_threshold=2, mrr_cap=100)

    def arm_config(tasks, seed):
        return TrainConfig(
            steps=1000, batch_size=8, k=2, fanout=5, num_negatives=7,
            hidden_dims=(32,), embedding_dim=32, projection_dim=32,
            seed=seed, enabled_tasks=tasks,
        )

    reports = {"multitask": [], "baseline": []}
    for seed in (0, 1, 2):
        for name, tasks in (
            ("multitask", ("retrieval", "cca", "mae")),
            ("baseline", ("retrieval",)),
        ):
            result = train(train_graph, arm_config(tasks, seed))
            reports[name].append(evaluate(result, train_graph, heldout, settings))

    fingerprints = {r.config_fingerprint for rs in reports.values() for r in rs}
    assert len(fingerprints) == 1, "arms must share graph, split, and settings"

    def mean_report(arm_reports) -> EvalReport:
        cohorts = {}
        for cohort in ("all", "cold_start"):
            per_seed = [r.cohorts[cohort] for r in arm_reports]
            cohorts[cohort] = CohortMetrics(
                num_queries=per_seed[0].num_queries,
                recall={
                    k: float(np.mean([c.recall[k] for c in per_seed]))
                    for k in per_seed[0].recall
                },
                mrr=float(np.mean([c.mrr for c in per_seed])),
            )
        return EvalReport(
            config_fingerprint=arm_reports[0].config_fingerprint, cohorts=cohorts
        )

    base, multi = mean_report(reports["baseline"]), mean_report(reports["multitask"])
    comparison = compare_runs(base, multi, margin=0.0)
    flagged = comparison["negative_transfer"]
    non_degrading = (
        multi.recall[10] >= base.recall[10]
        and multi.cohorts["cold_start"].recall[10] >= base.cohorts["cold_start"].recall[10]
    )
    elapsed = time.perf_counter() - started

    ok = (non_degrading or flagged) and elapsed <= 900.0
    record_criterion(
        1, ok,
        f"recall@10 {multi.recall[10]:.4f} vs {base.recall[10]:.4f}, cold "
        f"{multi.cohorts['cold_start'].recall[10]:.4f} vs "
        f"{base.cohorts['cold_start'].recall[10]:.4f}, flag={flagged}, {elapsed:.0f}s",
    )
    assert ok, (non_degrading, flagged, elapsed)


def test_whole_suite_fits_time_budget():
    elapsed = suite_elapsed()
    ok = elapsed < 600.0
    record_criterion(9, ok, f"{elapsed:.0f}s since collection started")
    assert ok, f"suite took {elapsed:.0f}s"
