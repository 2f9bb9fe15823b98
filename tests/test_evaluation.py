import hashlib
import json

import numpy as np
import pytest

from graphebr import evaluation
from graphebr.errors import ShapeError, ValidationError
from graphebr.evaluation import (
    CohortMetrics,
    EvalReport,
    EvalSettings,
    compare_runs,
    config_fingerprint,
    evaluate,
    evaluate_table,
    load_report,
    report_from_dict,
    report_to_json,
    save_report,
    split_edges,
)
from graphebr.graph import GraphStore, generate_synthetic_graph
from graphebr.index import EmbeddingTable
from graphebr.training import TrainConfig, train


def cycle_graph(n, dim=4, seed=0):
    feats = np.random.default_rng(seed).normal(size=(n, dim))
    return GraphStore(feats, [(i, (i + 1) % n) for i in range(n)])


def naive_report_parts(table, graph, heldout, settings):
    """Recompute ranks and cohort flags with a plain python scan."""
    ranks, cold = [], []
    for u, v in heldout:
        u, v = int(u), int(v)
        nbrs = set(graph.neighbors(u).tolist())
        excl = nbrs | {u}
        scored = sorted(
            ((float(table.vectors[i] @ table.vectors[u]), i)
             for i in range(table.num_nodes) if i not in excl),
            key=lambda si: (-si[0], si[1]),
        )
        ranks.append([i for _, i in scored].index(v) + 1)
        cold.append(len(nbrs) <= settings.cold_start_threshold)
    return ranks, cold


def naive_metrics(ranks, settings):
    n = len(ranks)
    recall = {k: sum(1 for r in ranks if r <= k) / n for k in settings.k_values}
    mrr = sum(1.0 / r for r in ranks if r <= settings.mrr_cap) / n
    return recall, mrr


def make_report(fp="a" * 16, all_recall=None, cold_recall=None,
                all_mrr=0.3, cold_mrr=0.2, n_all=50, n_cold=10):
    all_recall = all_recall or {1: 0.1, 5: 0.2, 10: 0.3, 20: 0.4}
    cold_recall = cold_recall or {1: 0.05, 5: 0.1, 10: 0.15, 20: 0.2}
    return EvalReport(
        config_fingerprint=fp,
        cohorts={
            "all": CohortMetrics(n_all, all_recall, all_mrr),
            "cold_start": CohortMetrics(n_cold, cold_recall, cold_mrr),
        },
    )


class TestSplitEdges:
    def test_fraction_bounds(self):
        g = cycle_graph(10)
        for bad in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ValidationError):
                split_edges(g, bad, rng_seed=0)
        split_edges(g, 0.49, rng_seed=0)

    def test_partition_of_original_edges(self):
        g = generate_synthetic_graph(80, 2, 0.2, 0.03, 4, 0.0, rng_seed=1)
        train_g, heldout = split_edges(g, 0.2, rng_seed=2)
        original = {tuple(e) for e in g.undirected_edges().tolist()}
        kept = {tuple(e) for e in train_g.undirected_edges().tolist()}
        held = {tuple(e) for e in heldout.tolist()}
        assert kept | held == original
        assert kept & held == set()
        assert len(held) == len(heldout)
        np.testing.assert_array_equal(train_g.features, g.features)

    def test_floor_count(self):
        train_g, heldout = split_edges(cycle_graph(50), 0.1, rng_seed=0)
        assert len(heldout) == 5
        assert train_g.num_edges == 45

    def test_minimum_one_edge_held_out(self):
        _, heldout = split_edges(cycle_graph(1000), 1e-6, rng_seed=0)
        assert len(heldout) == 1

    def test_deterministic_per_seed(self):
        g = cycle_graph(60)
        _, a = split_edges(g, 0.2, rng_seed=3)
        _, b = split_edges(g, 0.2, rng_seed=3)
        _, c = split_edges(g, 0.2, rng_seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_heldout_pairs_normalized(self):
        _, heldout = split_edges(cycle_graph(30), 0.3, rng_seed=5)
        assert (heldout[:, 0] < heldout[:, 1]).all()

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValidationError):
            split_edges(GraphStore(np.eye(3), []), 0.1, rng_seed=0)


class TestEvaluateTable:
    def test_perfect_retrieval(self):
        g = cycle_graph(6)
        vectors = np.eye(6)
        vectors[3] = vectors[0]
        report = evaluate_table(EmbeddingTable(vectors), g, [(0, 3)])
        assert report.recall == {1: 1.0, 5: 1.0, 10: 1.0, 20: 1.0}
        assert report.mrr == 1.0
        assert report.num_queries == 1

    def test_matches_naive_scan(self):
        for seed, settings in ((0, EvalSettings()),
                               (1, EvalSettings(k_values=(1, 3), cold_start_threshold=1, mrr_cap=5))):
            g = generate_synthetic_graph(40, 2, 0.25, 0.05, 6, 0.0, rng_seed=seed)
            train_g, heldout = split_edges(g, 0.15, rng_seed=seed)
            table = EmbeddingTable(np.random.default_rng(seed).normal(size=(40, 8)))
            report = evaluate_table(table, train_g, heldout, settings)
            ranks, cold = naive_report_parts(table, train_g, heldout, settings)
            recall, mrr = naive_metrics(ranks, settings)
            assert report.recall == recall
            assert report.mrr == pytest.approx(mrr, rel=1e-12)
            cold_ranks = [r for r, c in zip(ranks, cold) if c]
            assert report.cohorts["cold_start"].num_queries == len(cold_ranks)
            if cold_ranks:
                c_recall, c_mrr = naive_metrics(cold_ranks, settings)
                assert report.cohorts["cold_start"].recall == c_recall
                assert report.cohorts["cold_start"].mrr == pytest.approx(c_mrr, rel=1e-12)

    def test_recall_monotone_in_k(self):
        g = generate_synthetic_graph(50, 2, 0.2, 0.05, 4, 0.0, rng_seed=2)
        train_g, heldout = split_edges(g, 0.2, rng_seed=2)
        table = EmbeddingTable(np.random.default_rng(9).normal(size=(50, 6)))
        recall = evaluate_table(table, train_g, heldout).recall
        values = [recall[k] for k in sorted(recall)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_mrr_rank_cap(self):
        g = GraphStore(np.zeros((8, 2)), [(0, 1)])
        vectors = np.zeros((8, 2))
        vectors[0] = [1, 0]
        for node, x in ((3, 0.9), (4, 0.8), (5, 0.7), (2, 0.6), (6, 0.5), (7, 0.4)):
            vectors[node] = [x, 0]
        table = EmbeddingTable(vectors)
        # v=2 sits at rank 4 among the six candidates
        capped = evaluate_table(table, g, [(0, 2)], EvalSettings(k_values=(1, 2, 3), mrr_cap=3))
        assert capped.mrr == 0.0
        assert capped.recall == {1: 0.0, 2: 0.0, 3: 0.0}
        wide = evaluate_table(table, g, [(0, 2)], EvalSettings(k_values=(1, 4), mrr_cap=4))
        assert wide.mrr == 0.25
        assert wide.recall == {1: 0.0, 4: 1.0}

    def test_chance_level_recall(self):
        n, k = 1000, 10
        g = cycle_graph(n, dim=4)
        train_g, heldout = split_edges(g, 0.1, rng_seed=0)
        assert len(heldout) == 100
        values = []
        for seed in range(5):
            table = EmbeddingTable(np.random.default_rng(seed).normal(size=(n, 16)))
            report = evaluate_table(table, train_g, heldout)
            values.append(report.recall[k])
            # cycle degrees never exceed 2, so every query is cold-start
            assert report.cohorts["cold_start"].num_queries == report.num_queries
        p = k / (n - 1)
        se = np.sqrt(p * (1 - p) / (5 * 100))
        assert abs(np.mean(values) - p) <= 3 * se

    def test_rejects_heldout_edge_still_in_training_graph(self):
        g = cycle_graph(6)
        with pytest.raises(ValidationError):
            evaluate_table(EmbeddingTable(np.eye(6)), g, [(0, 1)])

    def test_rejects_malformed_heldout(self):
        g = cycle_graph(6)
        table = EmbeddingTable(np.eye(6))
        with pytest.raises(ValidationError):
            evaluate_table(table, g, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValidationError):
            evaluate_table(table, g, [(2, 2)])
        with pytest.raises(ValidationError):
            evaluate_table(table, g, [(0, 9)])
        with pytest.raises(ShapeError):
            evaluate_table(table, g, [(0, 1, 2)])

    def test_rejects_table_size_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate_table(EmbeddingTable(np.eye(5)), cycle_graph(6), [(0, 2)])

    def test_byte_identical_reports(self):
        g = generate_synthetic_graph(40, 2, 0.2, 0.05, 4, 0.0, rng_seed=3)
        train_g, heldout = split_edges(g, 0.2, rng_seed=3)
        table = EmbeddingTable(np.random.default_rng(1).normal(size=(40, 8)))
        a = report_to_json(evaluate_table(table, train_g, heldout))
        b = report_to_json(evaluate_table(table, train_g, heldout))
        assert a == b

    def test_small_blocks_match_naive_scan_with_ties(self, monkeypatch):
        rng = np.random.default_rng(6)
        g = generate_synthetic_graph(40, 2, 0.25, 0.05, 4, 0.0, rng_seed=6)
        train_g, heldout = split_edges(g, 0.2, rng_seed=6)
        settings = EvalSettings(k_values=(1, 3, 10), cold_start_threshold=3, mrr_cap=8)
        for rows in (1, 2, 3):
            # each block holds `rows` queries
            monkeypatch.setattr(evaluation, "_SCAN_ENTRIES", rows * 40)
            for _ in range(5):
                # half-integer entries force plenty of tied dot products
                table = EmbeddingTable(rng.integers(-2, 3, size=(40, 3)) * 0.5)
                report = evaluate_table(table, train_g, heldout, settings)
                ranks, cold = naive_report_parts(table, train_g, heldout, settings)
                cold_ranks = [r for r, c in zip(ranks, cold) if c]
                for name, want in (("all", ranks), ("cold_start", cold_ranks)):
                    cohort = report.cohorts[name]
                    assert cohort.num_queries == len(want)
                    assert (cohort.recall, cohort.mrr) == naive_metrics(want, settings)

    def test_training_edge_in_a_later_block_rejected(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_SCAN_ENTRIES", 1)
        g = cycle_graph(8)
        table = EmbeddingTable(np.random.default_rng(0).normal(size=(8, 3)))
        pairs = [(0, 2), (1, 3), (2, 4), (4, 5), (6, 7)]
        with pytest.raises(ValidationError, match=r"\(4, 5\) is still a training edge"):
            evaluate_table(table, g, pairs)

    def single_rank(self, vectors, graph, pair):
        table = EmbeddingTable(vectors)
        report = evaluate_table(table, graph, [pair])
        ranks, _ = naive_report_parts(table, graph, [pair], EvalSettings())
        assert report.mrr == 1.0 / ranks[0]
        return ranks[0]

    def test_tie_with_v_counts_only_below_v(self):
        g = cycle_graph(6)  # u=0 excludes 1 and 5; candidates 2, 3, 4
        vectors = np.array([[1.0, 0], [0, 1], [0, 0], [0.5, 0], [0, 0], [0, 1]])
        for tied, want in ((2, 2), (4, 1)):
            tie = vectors.copy()
            tie[tied] = tie[3]
            assert self.single_rank(tie, g, (0, 3)) == want

    def test_excluded_nodes_tied_with_v_never_count(self):
        g = cycle_graph(6)
        vectors = np.array([[1.0, 0], [0.5, 0], [0, 0], [0.5, 0], [0, 0], [0, 1]])
        # neighbour 1 ties v=3 from below
        assert self.single_rank(vectors, g, (0, 3)) == 1
        # u itself ties v from below
        vectors[3] = vectors[0]
        assert self.single_rank(vectors, g, (0, 3)) == 1
        # every score is 0: of the ids below v=4 only candidate 3 counts
        vectors[1] = 0.0
        assert self.single_rank(vectors, g, (1, 4)) == 2

    def test_first_training_edge_in_a_block_is_named(self):
        g = cycle_graph(8)
        table = EmbeddingTable(np.random.default_rng(0).normal(size=(8, 3)))
        pairs = [(0, 2), (6, 5), (1, 2), (3, 4)]
        with pytest.raises(ValidationError, match=r"\(6, 5\) is still a training edge"):
            evaluate_table(table, g, pairs)

    def test_non_integer_node_ids_rejected(self):
        g = cycle_graph(6)
        table = EmbeddingTable(np.eye(6))
        # each of these used to be cast: (0.5, 2.7) scored (0, 2), True node 1
        for bad in ([(0.5, 2.7)], [(True, 3)], [("0", 2)], np.array([[0.0, 2.0]]),
                    np.array([[False, True]]), [(0, 2), (1, 3.0)]):
            for call in (lambda: evaluate_table(table, g, bad),
                         lambda: config_fingerprint(g, bad, EvalSettings())):
                with pytest.raises(ValidationError, match="heldout: node ids must be integers"):
                    call()
        mixed = [(np.int32(0), np.uint8(2)), (np.int64(1), 3)]
        assert report_to_json(evaluate_table(table, g, mixed)) == report_to_json(
            evaluate_table(table, g, np.array([[0, 2], [1, 3]])))

    def test_excluded_nodes_never_count_when_scores_overflow(self):
        # u=0 would score -inf against every other node: a table whose
        # squared row norms overflow is refused before any score is taken
        with pytest.raises(ValidationError, match="squared row norms"):
            EmbeddingTable(np.array([[1e200], [-1e200], [-1e200], [-1e200]]))


def pinned_report_digest(case, monkeypatch, rows=None):
    """sha256 of one report on a seeded random table; nothing is trained."""
    settings = EvalSettings()
    if case == "train-2k":
        # the train-2k-multitask benchmark graph
        g = generate_synthetic_graph(2000, 2, 0.02, 0.002, 16, 0.1, rng_seed=11)
        train_g, heldout = split_edges(g, 0.1, rng_seed=12)
        vectors = np.random.default_rng(13).normal(size=(2000, 32))
    elif case in ("ties", "random"):
        g = generate_synthetic_graph(120, 3, 0.15, 0.02, 4, 0.0, rng_seed=21)
        train_g, heldout = split_edges(g, 0.2, rng_seed=22)
        if case == "ties":
            vectors = np.random.default_rng(23).integers(-2, 3, size=(120, 3)) * 0.5
        else:
            vectors = np.random.default_rng(24).normal(size=(120, 8))
    elif case == "cold":
        g = generate_synthetic_graph(300, 3, 0.05, 0.005, 6, 0.5, rng_seed=31)
        train_g, heldout = split_edges(g, 0.2, rng_seed=32)
        vectors = np.random.default_rng(33).normal(size=(300, 8))
    else:
        g = generate_synthetic_graph(300, 3, 0.05, 0.005, 6, 0.3, rng_seed=41)
        train_g, heldout = split_edges(g, 0.2, rng_seed=42)
        vectors = np.random.default_rng(43).normal(size=(300, 8))
        settings = EvalSettings(k_values=(1, 2, 7, 50), cold_start_threshold=4, mrr_cap=13)
    if rows is not None:
        monkeypatch.setattr(evaluation, "_SCAN_ENTRIES", rows * train_g.num_nodes)
    report = evaluate_table(EmbeddingTable(vectors), train_g, heldout, settings)
    if case == "cold":
        assert 0 < report.cohorts["cold_start"].num_queries < report.num_queries
    return hashlib.sha256(report_to_json(report).encode("ascii")).hexdigest()


_TIES = "b256cbccee50317dd9d4c75c01495fd5177de00c1c6cf72c575402cafa696bfb"
_RANDOM = "6ec67567c3bbe637c8d89056c79d02ebd13e24dd3fbb42df61227fc566efa76b"


class TestPinnedReports:
    """Report digests recorded with the per-pair scan that preceded the
    block ranking; any change to a rank, a cohort flag or the aggregation
    order shows here. MRR is summed by the interpreter's plain float `sum`
    (CPython before 3.12), which the digests assume."""

    @pytest.mark.parametrize("case, rows, digest", [
        ("train-2k", None, "e1c2c60641b6f6ac3f8fb8c81a1c7e0dd8b8e74ddc4544e042653fa7267ff7e3"),
        ("ties", 1, _TIES), ("ties", 2, _TIES), ("ties", 3, _TIES), ("ties", None, _TIES),
        ("random", 1, _RANDOM), ("random", 2, _RANDOM), ("random", 3, _RANDOM),
        ("random", None, _RANDOM),
        ("cold", None, "816b96b1fb4fc188e17b6222cf26f12f06d6c39695faf7b4c86960ddc66600cf"),
        ("settings", None, "c45459879c443e671de7bbe9d26add8bdd4fe42dc1b124f861f9c56e400b762e"),
    ])
    def test_report_digest_is_unchanged(self, case, rows, digest, monkeypatch):
        assert pinned_report_digest(case, monkeypatch, rows) == digest


class TestEvaluateWrapper:
    def small_run(self):
        g = generate_synthetic_graph(60, 2, 0.15, 0.03, 6, 0.0, rng_seed=5)
        train_g, heldout = split_edges(g, 0.1, rng_seed=7)
        cfg = TrainConfig(steps=3, batch_size=4, k=1, fanout=3, num_negatives=2,
                          hidden_dims=(8,), embedding_dim=8, projection_dim=8, seed=2)
        return train(train_g, cfg), train_g, heldout

    def test_exports_then_scores(self):
        result, train_g, heldout = self.small_run()
        report = evaluate(result, train_g, heldout)
        assert report.num_queries == len(heldout)
        assert report_to_json(evaluate(result, train_g, heldout)) == report_to_json(report)

    def test_requires_a_train_result(self):
        result, train_g, heldout = self.small_run()
        with pytest.raises(ValidationError):
            evaluate(result.params, train_g, heldout)


class TestReportSerialization:
    def test_json_round_trip(self):
        report = make_report()
        again = report_from_dict(json.loads(report_to_json(report)))
        assert again.to_dict() == report.to_dict()

    def test_file_round_trip(self, tmp_path):
        report = make_report()
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path).to_dict() == report.to_dict()

    def test_unknown_version_rejected(self):
        raw = json.loads(report_to_json(make_report()))
        raw["version"] = "0"
        with pytest.raises(ValidationError):
            report_from_dict(raw)

    def test_missing_and_extra_fields_rejected(self):
        raw = json.loads(report_to_json(make_report()))
        del raw["mrr"]
        with pytest.raises(ValidationError):
            report_from_dict(raw)
        raw = json.loads(report_to_json(make_report()))
        raw["wall_ms"] = 12.0
        with pytest.raises(ValidationError):
            report_from_dict(raw)

    def test_top_level_cohort_disagreement_rejected(self):
        raw = json.loads(report_to_json(make_report()))
        raw["mrr"] = raw["mrr"] + 0.01
        with pytest.raises(ValidationError):
            report_from_dict(raw)

    def test_invalid_metrics_rejected(self):
        with pytest.raises(ValidationError):
            CohortMetrics(5, {1: 0.4, 5: 0.2}, 0.1)
        with pytest.raises(ValidationError):
            CohortMetrics(5, {1: 0.4, 5: 1.2}, 0.1)
        with pytest.raises(ValidationError):
            CohortMetrics(-1, {1: 0.1}, 0.1)

    def test_cold_cohort_cannot_exceed_query_set(self):
        with pytest.raises(ValidationError):
            make_report(n_all=5, n_cold=6)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_report(path)


class TestEvalSettings:
    def test_non_integers_are_rejected_not_truncated(self):
        for patch, named in (
            ({"k_values": (1.5, 10)}, "k_values"),
            ({"k_values": (True, 10)}, "k_values"),
            ({"mrr_cap": 10.9}, "mrr_cap"),
            ({"cold_start_threshold": False}, "cold_start_threshold"),
        ):
            with pytest.raises(ValidationError, match=rf"eval settings: {named} must be"):
                EvalSettings(**patch)
        settings = EvalSettings(k_values=[1, np.int64(5)], mrr_cap=np.int32(7))
        assert settings.k_values == (1, 5) and type(settings.mrr_cap) is int


class TestConfigFingerprint:
    def test_sensitivity(self):
        g = cycle_graph(10)
        s = EvalSettings()
        fp = config_fingerprint(g, [(0, 2)], s)
        assert fp == config_fingerprint(g, [(0, 2)], s)
        assert fp != config_fingerprint(g, [(0, 3)], s)
        assert fp != config_fingerprint(g, [(0, 2)], EvalSettings(cold_start_threshold=3))
        assert fp != config_fingerprint(cycle_graph(10, seed=1), [(0, 2)], s)

    def test_independent_of_embeddings(self):
        g = cycle_graph(8)
        a = evaluate_table(EmbeddingTable(np.eye(8)), g, [(0, 2)])
        b = evaluate_table(EmbeddingTable(np.random.default_rng(0).normal(size=(8, 3))), g, [(0, 2)])
        assert a.config_fingerprint == b.config_fingerprint


class TestCompareRuns:
    def test_identical_reports_zero_deltas(self):
        report = make_report()
        delta = compare_runs(report, report)
        assert delta["negative_transfer"] is False
        for cohort in delta["cohorts"].values():
            assert set(cohort["recall"].values()) == {0.0}
            assert cohort["mrr"] == 0.0

    def test_relative_delta_arithmetic(self):
        base = make_report(all_recall={1: 0.1, 5: 0.15, 10: 0.200, 20: 0.25})
        cand = make_report(all_recall={1: 0.1, 5: 0.15, 10: 0.2109, 20: 0.25})
        delta = compare_runs(base, cand)
        assert abs(delta["cohorts"]["all"]["recall"]["10"] - 0.0545) < 1e-12
        assert delta["negative_transfer"] is False

    def test_fingerprint_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compare_runs(make_report(fp="a" * 16), make_report(fp="b" * 16))

    def test_margin_thresholds(self):
        base = make_report(cold_recall={1: 0.05, 5: 0.1, 10: 0.200, 20: 0.3})
        cand = make_report(cold_recall={1: 0.05, 5: 0.1, 10: 0.199, 20: 0.3})
        # 0.5% relative decline on one cold-start metric
        assert compare_runs(base, cand, margin=0.01)["negative_transfer"] is False
        assert compare_runs(base, cand, margin=0.001)["negative_transfer"] is True
        assert compare_runs(base, cand, margin=0.0)["negative_transfer"] is True

    def test_zero_baseline_yields_none_delta(self):
        base = make_report(all_recall={1: 0.0, 5: 0.1, 10: 0.2, 20: 0.3})
        cand = make_report(all_recall={1: 0.05, 5: 0.1, 10: 0.2, 20: 0.3})
        delta = compare_runs(base, cand, margin=0.0)
        assert delta["cohorts"]["all"]["recall"]["1"] is None
        assert delta["negative_transfer"] is False

    def test_cold_start_decline_flags_even_when_overall_improves(self):
        base = make_report()
        cand = make_report(
            all_recall={1: 0.2, 5: 0.3, 10: 0.4, 20: 0.5},
            cold_recall={1: 0.04, 5: 0.1, 10: 0.15, 20: 0.2},
            all_mrr=0.4,
        )
        delta = compare_runs(base, cand, margin=0.01)
        assert delta["negative_transfer"] is True
        assert delta["cohorts"]["cold_start"]["recall"]["1"] < 0

    def test_negative_margin_rejected(self):
        with pytest.raises(ValidationError):
            compare_runs(make_report(), make_report(), margin=-0.1)
