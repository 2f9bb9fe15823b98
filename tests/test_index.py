import warnings

import numpy as np
import pytest

from graphebr.errors import ShapeError, ValidationError
from graphebr.gat import encode
from graphebr.graph import GraphStore, generate_synthetic_graph
from graphebr.index import (
    AnnIndex,
    EmbeddingTable,
    ann_topk,
    build_ann_index,
    exact_topk,
    export_embeddings,
    index_from_dict,
    index_to_dict,
    load_index,
    load_table,
    save_index,
    save_table,
    validate_index,
)
from graphebr.sampling import khop_subgraph
from graphebr.training import TrainConfig, init_model


def unit_rows(n, d, seed=0):
    rows = np.random.default_rng(seed).normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def naive_topk(vectors, q, k, exclude=()):
    banned = set(exclude)
    scored = [(float(vectors[i] @ q), i) for i in range(len(vectors)) if i not in banned]
    scored.sort(key=lambda si: (-si[0], si[1]))
    return [i for _, i in scored[:k]]


class TestEmbeddingTable:
    def test_shape_and_finiteness_validated(self):
        with pytest.raises(ShapeError):
            EmbeddingTable(np.zeros((3, 2, 1)))
        bad = np.ones((2, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValidationError):
            EmbeddingTable(bad)

    def test_huge_finite_rows_accepted_and_non_finite_rows_rejected(self):
        # 1e154 squares to a finite 1e308; 1e308 squares to inf, and its
        # dot products could overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = EmbeddingTable(np.full((2, 1), 1e154))
        assert table.vectors.tolist() == [[1e154], [1e154]]
        for bad_value in (np.nan, np.inf, -np.inf, 1e308, -1e308):
            bad = np.ones((3, 2))
            bad[2, 0] = bad_value
            with pytest.raises(ValidationError, match="non-finite rows"):
                EmbeddingTable(bad)

    def test_dimensions_exposed(self):
        table = EmbeddingTable(np.zeros((5, 3)))
        assert (table.num_nodes, table.dim) == (5, 3)


class TestExportEmbeddings:
    def make_model(self, feature_dim=6):
        cfg = TrainConfig(hidden_dims=(8,), embedding_dim=4, projection_dim=4, seed=0)
        return init_model(cfg, feature_dim)

    def test_two_node_graph_shape(self):
        graph = GraphStore(np.random.default_rng(0).normal(size=(2, 6)), [[0, 1]])
        table = export_embeddings(self.make_model(), graph, k=2, fanout=None)
        assert (table.num_nodes, table.dim) == (2, 4)

    def test_isolated_node_matches_singleton_encode(self):
        from graphebr import autodiff as ad

        feats = np.random.default_rng(1).normal(size=(4, 6))
        graph = GraphStore(feats, [[0, 1], [1, 2]])
        params = self.make_model()
        table = export_embeddings(params, graph, k=2, fanout=None)
        singleton = khop_subgraph(graph, 3, 2, None, rng_seed=3)
        assert singleton.num_nodes == 1
        with ad.no_grad():
            expected = encode(params, singleton).data[0]
        np.testing.assert_allclose(table.vectors[3], expected, rtol=0, atol=1e-12)

    def test_export_is_deterministic(self):
        graph = generate_synthetic_graph(60, 2, 0.2, 0.05, 6, 0.0, rng_seed=2)
        params = self.make_model()
        a = export_embeddings(params, graph, k=2, fanout=4)
        b = export_embeddings(params, graph, k=2, fanout=4)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_every_row_matches_its_own_context_encode(self):
        from graphebr import autodiff as ad

        # more nodes than one export batch, so rows cross a batch boundary
        graph = generate_synthetic_graph(150, 2, 0.1, 0.02, 6, 0.0, rng_seed=3)
        params = self.make_model()
        table = export_embeddings(params, graph, k=2, fanout=4)
        with ad.no_grad():
            expected = np.vstack([
                encode(params, khop_subgraph(graph, i, 2, 4, rng_seed=i)).data[0]
                for i in range(graph.num_nodes)
            ])
        np.testing.assert_allclose(table.vectors, expected, rtol=0, atol=1e-12)

    def test_feature_dim_mismatch_rejected(self):
        graph = GraphStore(np.zeros((2, 3)), [[0, 1]])
        with pytest.raises(ValidationError):
            export_embeddings(self.make_model(feature_dim=6), graph, k=1, fanout=None)

    def test_export_leaves_the_tape_empty(self):
        from graphebr import autodiff as ad

        ad.active_tape().clear()
        graph = GraphStore(np.random.default_rng(0).normal(size=(3, 6)), [[0, 1]])
        export_embeddings(self.make_model(), graph, k=1, fanout=None)
        assert len(ad.active_tape()) == 0


class TestTableSerialization:
    def test_text_round_trip_is_exact(self, tmp_path):
        table = EmbeddingTable(np.random.default_rng(0).normal(size=(7, 3)) * 1e3)
        path = tmp_path / "table.txt"
        save_table(table, path)
        np.testing.assert_array_equal(load_table(path).vectors, table.vectors)

    def test_binary_round_trip_is_exact(self, tmp_path):
        table = EmbeddingTable(np.random.default_rng(1).normal(size=(7, 3)))
        path = tmp_path / "table.bin"
        save_table(table, path, binary=True)
        np.testing.assert_array_equal(load_table(path).vectors, table.vectors)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(ValidationError):
            load_table(path)

    def test_header_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ValidationError):
            load_table(path)

    def test_truncated_binary_rejected(self, tmp_path):
        table = EmbeddingTable(np.ones((4, 4)))
        path = tmp_path / "table.bin"
        save_table(table, path, binary=True)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError):
            load_table(path)


class TestExactTopk:
    def test_basis_vector_query(self):
        table = EmbeddingTable(np.eye(4))
        result = exact_topk(table, np.eye(4)[2], k=1)
        assert result.ids.tolist() == [2]
        assert result.scores.tolist() == [1.0]
        assert not result.truncated

    def test_all_equal_embeddings_rank_by_id(self):
        table = EmbeddingTable(np.ones((6, 3)))
        result = exact_topk(table, np.ones(3), k=4)
        assert result.ids.tolist() == [0, 1, 2, 3]

    def test_exclusion_and_truncation(self):
        table = EmbeddingTable(np.ones((3, 2)))
        result = exact_topk(table, np.ones(2), k=5, exclude={1})
        assert result.ids.tolist() == [0, 2]
        assert result.truncated

    def test_matches_naive_scan_with_ties(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            # quantized values force plenty of exact score ties
            vectors = rng.integers(-2, 3, size=(40, 4)).astype(np.float64)
            table = EmbeddingTable(vectors)
            q = rng.integers(-2, 3, size=4).astype(np.float64)
            exclude = set(rng.integers(0, 40, size=5).tolist())
            got = exact_topk(table, q, k=10, exclude=exclude)
            assert got.ids.tolist() == naive_topk(vectors, q, 10, exclude)

    def test_scores_do_not_depend_on_the_exclusion_set(self):
        rng = np.random.default_rng(4)
        for n in (37, 101, 1003):
            for _ in range(20):
                table = EmbeddingTable(rng.normal(size=(n, 32)))
                q = rng.normal(size=32)
                full = exact_topk(table, q, k=n)
                score_of = dict(zip(full.ids.tolist(), full.scores.tolist()))
                exclude = set(np.flatnonzero(rng.random(n) < 1 / 3).tolist())
                for k in (10, n):
                    got = exact_topk(table, q, k=k, exclude=exclude)
                    assert not exclude & set(got.ids.tolist())
                    want = np.array([score_of[i] for i in got.ids.tolist()])
                    assert got.scores.tobytes() == want.tobytes()

    def test_invalid_arguments_rejected(self):
        table = EmbeddingTable(np.ones((3, 2)))
        with pytest.raises(ValidationError):
            exact_topk(table, np.ones(2), k=0)
        with pytest.raises(ShapeError):
            exact_topk(table, np.ones(3), k=1)
        with pytest.raises(ValidationError):
            exact_topk(table, np.ones(2), k=1, exclude={9})
        # a query whose squared norm overflows is refused, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.array([1e200, 0.0]), np.array([np.nan, 1.0])):
                with pytest.raises(ValidationError, match="squared norm"):
                    exact_topk(table, bad, k=1)
                with pytest.raises(ValidationError, match="squared norm"):
                    ann_topk(build_ann_index(table), bad, k=1)


class TestAnnBuild:
    def test_single_node_index(self):
        index = build_ann_index(EmbeddingTable(np.ones((1, 4))), m_conn=4)
        assert index.entry_point == 0
        assert all(index.layers[L][0] == [] for L in range(len(index.layers)))
        validate_index(index)

    def test_same_seed_same_structure(self):
        table = EmbeddingTable(unit_rows(300, 8, seed=3))
        a = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=5)
        b = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=5)
        assert a.entry_point == b.entry_point
        assert np.array_equal(a.levels, b.levels)
        assert a.layers == b.layers

    def test_structural_invariants_hold(self):
        table = EmbeddingTable(unit_rows(500, 8, seed=4))
        index = build_ann_index(table, m_conn=6, ef_construction=40, rng_seed=6)
        validate_index(index)
        cap0 = 2 * index.m_conn
        assert max(len(v) for v in index.layers[0].values()) <= cap0
        assert len(index.layers[0]) == 500

    def test_bad_arguments_rejected(self):
        table = EmbeddingTable(np.ones((2, 2)))
        with pytest.raises(ValidationError):
            build_ann_index(table, m_conn=1)
        with pytest.raises(ValidationError):
            build_ann_index(table, ef_construction=0)
        with pytest.raises(ValidationError):
            build_ann_index(EmbeddingTable(np.ones((0, 2)).reshape(0, 2)))


class TestAnnSearch:
    def test_ef_search_below_k_rejected(self):
        index = build_ann_index(EmbeddingTable(np.ones((1, 2))))
        with pytest.raises(ValidationError):
            ann_topk(index, np.ones(2), k=5, ef_search=4)

    def test_full_beam_equals_exact(self):
        table = EmbeddingTable(unit_rows(100, 6, seed=7))
        index = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = rng.normal(size=6)
            approx = ann_topk(index, q, k=10, ef_search=100)
            exact = exact_topk(table, q, k=10)
            assert approx.ids.tolist() == exact.ids.tolist()
            np.testing.assert_allclose(approx.scores, exact.scores)

    def test_query_matching_a_row_finds_it(self):
        table = EmbeddingTable(unit_rows(200, 8, seed=10))
        index = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=11)
        for row in (0, 57, 199):
            result = ann_topk(index, table.vectors[row], k=1, ef_search=16)
            assert result.ids.tolist() == [row]

    def test_results_exclude_and_sort_by_true_score(self):
        table = EmbeddingTable(unit_rows(300, 8, seed=12))
        index = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=13)
        rng = np.random.default_rng(14)
        for _ in range(10):
            q = rng.normal(size=8)
            exclude = set(rng.integers(0, 300, size=10).tolist())
            result = ann_topk(index, q, k=8, ef_search=32, exclude=exclude)
            assert not set(result.ids.tolist()) & exclude
            np.testing.assert_allclose(result.scores, table.vectors[result.ids] @ q)
            assert all(s1 >= s2 for s1, s2 in zip(result.scores, result.scores[1:]))

    def test_good_recall_at_moderate_scale(self):
        table = EmbeddingTable(unit_rows(1500, 16, seed=15))
        index = build_ann_index(table, m_conn=12, ef_construction=60, rng_seed=16)
        rng = np.random.default_rng(17)
        hits = total = 0
        for _ in range(40):
            q = rng.normal(size=16)
            truth = set(exact_topk(table, q, k=10).ids.tolist())
            found = set(ann_topk(index, q, k=10, ef_search=64).ids.tolist())
            hits += len(truth & found)
            total += 10
        assert hits / total >= 0.9


class TestIndexSerialization:
    def test_round_trip_identical(self, tmp_path):
        table = EmbeddingTable(unit_rows(120, 6, seed=18))
        index = build_ann_index(table, m_conn=6, ef_construction=30, rng_seed=19)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.entry_point == index.entry_point
        assert loaded.m_conn == index.m_conn
        assert loaded.ef_construction == index.ef_construction
        assert np.array_equal(loaded.levels, index.levels)
        assert loaded.layers == index.layers
        np.testing.assert_array_equal(loaded.vectors, index.vectors)
        validate_index(loaded)

    def test_unknown_version_rejected(self):
        raw = index_to_dict(build_ann_index(EmbeddingTable(np.ones((1, 2)))))
        raw["version"] = "2"
        with pytest.raises(ValidationError):
            index_from_dict(raw)


class TestValidateIndex:
    def test_detects_degree_violation(self):
        table = EmbeddingTable(unit_rows(50, 4, seed=20))
        index = build_ann_index(table, m_conn=4, ef_construction=20, rng_seed=21)
        node = next(iter(index.layers[0]))
        index.layers[0][node] = [n for n in index.layers[0] if n != node][: 2 * 4 + 1]
        with pytest.raises(ValidationError):
            validate_index(index)

    def test_detects_unreachable_node(self):
        table = EmbeddingTable(unit_rows(50, 4, seed=22))
        index = build_ann_index(table, m_conn=4, ef_construction=20, rng_seed=23)
        for node, neighbors in index.layers[0].items():
            index.layers[0][node] = [n for n in neighbors if n != 7]
        index.layers[0][7] = []
        if int(index.levels[7]) > 0:
            for L in range(1, int(index.levels[7]) + 1):
                for node in index.layers[L]:
                    index.layers[L][node] = [n for n in index.layers[L][node] if n != 7]
                index.layers[L][7] = []
        with pytest.raises(ValidationError):
            validate_index(index)
