import numpy as np
import pytest

from graphebr.errors import ValidationError
from graphebr.estimator import GraphEmbeddingRetriever
from graphebr.graph import generate_synthetic_graph
from graphebr.training import TrainConfig


def small_graph(seed=0):
    return generate_synthetic_graph(50, 2, 0.2, 0.04, 6, 0.0, rng_seed=seed)


def small_config(**overrides):
    settings = dict(
        steps=4, batch_size=4, k=1, fanout=3, num_negatives=2,
        hidden_dims=(8,), embedding_dim=8, projection_dim=8, seed=1,
    )
    settings.update(overrides)
    return TrainConfig(**settings)


def small_estimator(**params):
    return GraphEmbeddingRetriever(small_config(), **params)


class TestParams:
    def test_get_params_round_trip(self):
        est = GraphEmbeddingRetriever(small_config(learning_rate=0.01), index="hnsw")
        clone = GraphEmbeddingRetriever(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_set_params(self):
        est = small_estimator()
        assert est.set_params(config=small_config(steps=7)) is est
        assert est.get_params()["config"].steps == 7
        with pytest.raises(ValidationError):
            est.set_params(steps=7)

    def test_constructor_stores_arguments_verbatim(self):
        cfg = TrainConfig(hidden_dims=[32, 16])
        est = GraphEmbeddingRetriever(cfg)
        assert est.config is cfg
        assert GraphEmbeddingRetriever().config == TrainConfig()


class TestFit:
    def test_fit_returns_self_and_exposes_state(self):
        graph = small_graph()
        est = small_estimator()
        assert est.fit(graph) is est
        assert est.table_.num_nodes == graph.num_nodes
        assert est.table_.dim == 8
        assert est.result_.config is est.config_
        assert est.index_ is None

    def test_invalid_index_kind_rejected(self):
        with pytest.raises(ValidationError):
            small_estimator(index="flat").fit(small_graph())

    def test_non_config_escape_hatch_rejected(self):
        with pytest.raises(ValidationError, match="config must be a TrainConfig"):
            GraphEmbeddingRetriever({"steps": 2}).fit(small_graph())

    def test_unfitted_calls_rejected(self):
        est = small_estimator()
        for call in (est.transform, est.kneighbors, est.predict):
            with pytest.raises(ValidationError):
                call()


class TestTransform:
    def test_shapes_and_determinism(self):
        graph = small_graph()
        a = small_estimator().fit(graph).transform()
        b = small_estimator().fit(graph).transform()
        assert a.shape == (graph.num_nodes, 8)
        np.testing.assert_array_equal(a, b)

    def test_transform_on_new_graph(self):
        est = small_estimator().fit(small_graph(seed=0))
        other = small_graph(seed=1)
        assert est.transform(other).shape == (other.num_nodes, 8)

    def test_feature_dim_mismatch_rejected(self):
        est = small_estimator().fit(small_graph())
        bad = generate_synthetic_graph(20, 2, 0.2, 0.05, 9, 0.0, rng_seed=2)
        with pytest.raises(ValidationError):
            est.transform(bad)

    def test_fit_transform_matches_fit_then_transform(self):
        graph = small_graph()
        np.testing.assert_array_equal(
            small_estimator().fit_transform(graph),
            small_estimator().fit(graph).transform(),
        )


class TestKneighbors:
    def test_shapes_and_exclusions(self):
        graph = small_graph()
        est = small_estimator().fit(graph)
        ids_in = np.array([0, 7, 23])
        scores, ids = est.kneighbors(ids_in, n_neighbors=5)
        assert scores.shape == ids.shape == (3, 5)
        for row, u in enumerate(ids_in):
            assert int(u) not in ids[row]
            assert not set(ids[row].tolist()) & set(graph.neighbors(int(u)).tolist())
            assert list(scores[row]) == sorted(scores[row], reverse=True)

    def test_neighbor_exclusion_can_be_disabled(self):
        graph = small_graph()
        est = small_estimator().fit(graph)
        hub = int(np.argmax(graph.degrees))
        _, with_nbrs = est.kneighbors([hub], n_neighbors=graph.num_nodes - 1,
                                      exclude_training_neighbors=False)
        assert hub not in with_nbrs[0]
        assert set(graph.neighbors(hub).tolist()) <= set(with_nbrs[0].tolist())

    def test_default_queries_every_node(self):
        graph = small_graph()
        scores, ids = small_estimator().fit(graph).kneighbors(n_neighbors=3)
        assert ids.shape == (graph.num_nodes, 3)

    def test_predict_is_top_one(self):
        graph = small_graph()
        est = small_estimator().fit(graph)
        queries = [2, 11]
        _, ids = est.kneighbors(queries, n_neighbors=1)
        np.testing.assert_array_equal(est.predict(queries), ids[:, 0])

    def test_too_many_neighbors_rejected(self):
        est = small_estimator().fit(small_graph())
        with pytest.raises(ValidationError):
            est.kneighbors([0], n_neighbors=50)
        with pytest.raises(ValidationError):
            est.kneighbors([0], n_neighbors=0)
        with pytest.raises(ValidationError):
            est.kneighbors([99], n_neighbors=1)

    def test_non_integer_node_ids_rejected(self):
        est = small_estimator().fit(small_graph())
        # each of these used to be cast: 0.5 queried node 0, True node 1
        for bad in ([0.5], [True], ["2"], np.array([1.0]), [3, 2.5]):
            with pytest.raises(ValidationError, match="estimator: node ids must be integers"):
                est.kneighbors(bad, n_neighbors=1)
        _, ids = est.kneighbors([np.int32(3), np.uint8(4)], n_neighbors=2)
        np.testing.assert_array_equal(ids, est.kneighbors([3, 4], n_neighbors=2)[1])

    def test_exact_answers_match_per_query_exact_topk(self, monkeypatch):
        import graphebr.index as gi
        from graphebr.index import exact_topk

        graph = small_graph()
        est = small_estimator().fit(graph)
        vectors = est.table_.vectors
        for exclude_neighbors in (True, False):
            want = []
            for u in range(graph.num_nodes):
                exclude = {u, *graph.neighbors(u).tolist()} if exclude_neighbors else {u}
                want.append(exact_topk(est.table_, vectors[u], k=4, exclude=exclude))
            for entries in (1, 50 * 7, 1 << 19):
                monkeypatch.setattr(gi, "_SCREEN_ENTRIES", entries)
                scores, ids = est.kneighbors(n_neighbors=4, exclude_training_neighbors=exclude_neighbors)
                assert ids.tobytes() == np.vstack([r.ids for r in want]).tobytes()
                assert scores.tobytes() == np.vstack([r.scores for r in want]).tobytes()

    def test_hnsw_variant_matches_exact_at_full_beam(self):
        graph = small_graph()
        exact = small_estimator().fit(graph)
        approx = small_estimator(index="hnsw", ef_search=64).fit(graph)
        assert approx.index_ is not None
        np.testing.assert_array_equal(exact.table_.vectors, approx.table_.vectors)
        queries = [0, 13, 31]
        _, exact_ids = exact.kneighbors(queries, n_neighbors=3)
        _, approx_ids = approx.kneighbors(queries, n_neighbors=3)
        np.testing.assert_array_equal(exact_ids, approx_ids)
