import numpy as np
import pytest

from graphebr.errors import SkipExample, ValidationError
from graphebr.graph import GraphStore, generate_synthetic_graph
from graphebr.sampling import (
    Subgraph,
    augment_edge_drop,
    augment_feature_drop,
    khop_subgraph,
    mask_query_features,
    merge_examples,
    sample_retrieval_example,
    whole_graph_subgraph,
)
from graphebr.training import TrainConfig, _sample_batch


def path_graph(n):
    return GraphStore(np.eye(n), [(i, i + 1) for i in range(n - 1)])


def bfs_closure(graph, query, k):
    seen = {query}
    frontier = {query}
    for _ in range(k):
        frontier = {
            int(v) for u in frontier for v in graph.neighbors(u)
        } - seen
        seen |= frontier
    return seen


class TestKhopSubgraph:
    def test_path_graph_two_hops(self):
        sub = khop_subgraph(path_graph(4), 0, k=2, fanout=None, rng_seed=0)
        assert sub.global_ids.tolist() == [0, 1, 2]
        sub = khop_subgraph(path_graph(5), 1, k=2, fanout=None, rng_seed=0)
        assert sub.global_ids.tolist() == [1, 0, 2, 3]

    def test_isolated_node_yields_only_query(self):
        g = GraphStore(np.eye(3), [(0, 1)])
        sub = khop_subgraph(g, 2, k=2, fanout=None, rng_seed=0)
        assert sub.global_ids.tolist() == [2]
        assert sub.local_edges.shape == (0, 2)

    def test_star_graph_fanout_cap(self):
        g = GraphStore(np.eye(11), [(0, i) for i in range(1, 11)])
        sub = khop_subgraph(g, 0, k=1, fanout=3, rng_seed=5)
        assert sub.num_nodes == 4

    def test_unbounded_fanout_equals_bfs_closure(self):
        for seed in range(5):
            g = generate_synthetic_graph(50, 2, 0.15, 0.03, 4, 0.0, rng_seed=seed)
            for query in (0, 10, 49):
                sub = khop_subgraph(g, query, k=2, fanout=None, rng_seed=seed)
                assert set(sub.global_ids.tolist()) == bfs_closure(g, query, 2)

    def test_deterministic_for_fixed_seed(self):
        g = generate_synthetic_graph(100, 2, 0.1, 0.02, 4, 0.0, rng_seed=1)
        a = khop_subgraph(g, 3, k=2, fanout=4, rng_seed=42)
        b = khop_subgraph(g, 3, k=2, fanout=4, rng_seed=42)
        np.testing.assert_array_equal(a.global_ids, b.global_ids)
        np.testing.assert_array_equal(a.local_edges, b.local_edges)

    def test_invalid_query_rejected(self):
        with pytest.raises(ValidationError):
            khop_subgraph(path_graph(3), 7, k=1, fanout=None, rng_seed=0)


class TestRetrievalExample:
    def test_triangle_with_no_negatives(self):
        g = GraphStore(np.eye(3), [(0, 1), (1, 2), (0, 2)])
        ex = sample_retrieval_example(g, 0, num_negatives=0, k=1, fanout=None, rng_seed=0)
        assert ex.labels.tolist() == [1.0]

    def test_only_available_negative_is_chosen(self):
        clique = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = GraphStore(np.eye(5), clique)
        ex = sample_retrieval_example(g, 0, num_negatives=1, k=1, fanout=None, rng_seed=3)
        negative = ex.subgraph.global_ids[ex.candidate_locals[1]]
        assert negative == 4

    def test_fixed_seed_reproduces_example(self):
        g = generate_synthetic_graph(80, 2, 0.1, 0.02, 4, 0.0, rng_seed=2)
        a = sample_retrieval_example(g, 5, 4, k=2, fanout=5, rng_seed=11)
        b = sample_retrieval_example(g, 5, 4, k=2, fanout=5, rng_seed=11)
        np.testing.assert_array_equal(a.subgraph.global_ids, b.subgraph.global_ids)
        np.testing.assert_array_equal(a.subgraph.local_edges, b.subgraph.local_edges)
        np.testing.assert_array_equal(a.candidate_locals, b.candidate_locals)

    def test_degree_zero_query_signals_skip(self):
        g = GraphStore(np.eye(3), [(0, 1)])
        with pytest.raises(SkipExample):
            sample_retrieval_example(g, 2, 1, k=1, fanout=None, rng_seed=0)

    def test_too_few_non_neighbors_rejected(self):
        g = GraphStore(np.eye(3), [(0, 1), (0, 2)])
        with pytest.raises(ValidationError):
            sample_retrieval_example(g, 0, 1, k=1, fanout=None, rng_seed=0)

    def test_positive_edge_never_in_subgraph(self):
        g = generate_synthetic_graph(60, 2, 0.15, 0.03, 4, 0.0, rng_seed=4)
        eligible = np.flatnonzero(g.degrees > 0)
        for seed in range(1000):
            query = int(eligible[seed % len(eligible)])
            ex = sample_retrieval_example(g, query, 3, k=2, fanout=4, rng_seed=seed)
            gids = ex.subgraph.global_ids
            pos_global = int(gids[ex.candidate_locals[0]])
            pairs = {
                (int(gids[a]), int(gids[b])) for a, b in ex.subgraph.local_edges
            }
            assert (query, pos_global) not in pairs
            assert (pos_global, query) not in pairs
            assert g.has_edge(query, pos_global)

    def test_negatives_are_non_neighbors(self):
        g = generate_synthetic_graph(60, 2, 0.15, 0.03, 4, 0.0, rng_seed=5)
        ex = sample_retrieval_example(g, 1, 5, k=1, fanout=None, rng_seed=9)
        gids = ex.subgraph.global_ids
        for local in ex.candidate_locals[1:]:
            assert not g.has_edge(1, int(gids[local]))


def dense_subgraph(n, p, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    pairs = np.column_stack([iu[mask], ju[mask]])
    edges = np.concatenate([pairs, pairs[:, ::-1]])
    return Subgraph(
        local_features=rng.normal(size=(n, 3)),
        local_edges=edges,
        global_ids=np.arange(n),
        query_locals=np.array([0]),
    )


class TestAugmentations:
    def test_edge_drop_zero_probability_is_identity(self):
        sub = dense_subgraph(30, 0.3, seed=0)
        out = augment_edge_drop(sub, 0.0, rng_seed=1)
        np.testing.assert_array_equal(out.local_edges, sub.local_edges)

    def test_edge_drop_retention_concentrates(self):
        sub = dense_subgraph(200, 0.5, seed=1)
        total = len(sub.local_edges) // 2
        assert total > 8000
        kept = len(augment_edge_drop(sub, 0.5, rng_seed=2).local_edges) // 2
        assert 0.47 <= kept / total <= 0.53

    def test_edge_drop_removes_both_directions(self):
        sub = dense_subgraph(40, 0.4, seed=2)
        out = augment_edge_drop(sub, 0.5, rng_seed=3)
        pairs = {(int(a), int(b)) for a, b in out.local_edges}
        assert all((b, a) in pairs for a, b in pairs)

    def test_edge_drop_deterministic(self):
        sub = dense_subgraph(40, 0.4, seed=3)
        a = augment_edge_drop(sub, 0.3, rng_seed=4)
        b = augment_edge_drop(sub, 0.3, rng_seed=4)
        np.testing.assert_array_equal(a.local_edges, b.local_edges)

    def test_feature_drop_zero_probability_is_identity(self):
        sub = dense_subgraph(20, 0.2, seed=4)
        out = augment_feature_drop(sub, 0.0, rng_seed=5)
        np.testing.assert_array_equal(out.local_features, sub.local_features)

    def test_feature_drop_zeroes_whole_columns(self):
        rng = np.random.default_rng(6)
        sub = Subgraph(
            local_features=rng.normal(size=(30, 100)) + 1.0,
            local_edges=np.zeros((0, 2), dtype=np.int64),
            global_ids=np.arange(30),
            query_locals=np.array([0]),
        )
        out = augment_feature_drop(sub, 0.9, rng_seed=7)
        zeroed = np.flatnonzero((out.local_features == 0).all(axis=0))
        assert 80 <= len(zeroed) <= 100
        partial = (out.local_features == 0).any(axis=0) & ~(
            (out.local_features == 0).all(axis=0)
        )
        assert not partial.any()

    def test_augmentations_keep_shapes(self):
        sub = dense_subgraph(25, 0.3, seed=8)
        dropped = augment_edge_drop(sub, 0.4, rng_seed=9)
        assert dropped.local_features.shape == sub.local_features.shape
        assert dropped.local_edges.shape[1] == 2
        faded = augment_feature_drop(sub, 0.4, rng_seed=10)
        assert faded.local_features.shape == sub.local_features.shape
        np.testing.assert_array_equal(faded.local_edges, sub.local_edges)


class TestMaskQueryFeatures:
    def test_query_row_masked_and_originals_returned(self):
        sub = dense_subgraph(10, 0.3, seed=11)
        masked, originals = mask_query_features(sub)
        np.testing.assert_array_equal(masked.local_features[0], np.zeros(3))
        np.testing.assert_array_equal(originals[0], sub.local_features[0])

    def test_non_query_rows_unchanged(self):
        sub = dense_subgraph(10, 0.3, seed=12)
        masked, _ = mask_query_features(sub)
        np.testing.assert_array_equal(
            masked.local_features[1:], sub.local_features[1:]
        )

    def test_masking_twice_is_idempotent(self):
        sub = dense_subgraph(10, 0.3, seed=13)
        once, _ = mask_query_features(sub)
        twice, originals = mask_query_features(once)
        np.testing.assert_array_equal(once.local_features, twice.local_features)
        np.testing.assert_array_equal(originals, np.zeros((1, 3)))


class TestMergeExamples:
    def test_offsets_preserve_example_structure(self):
        g = generate_synthetic_graph(60, 2, 0.15, 0.03, 4, 0.0, rng_seed=6)
        examples = [
            sample_retrieval_example(g, q, 3, k=1, fanout=None, rng_seed=q)
            for q in (1, 2, 3)
        ]
        batch = merge_examples(examples)
        assert batch.num_nodes == sum(ex.subgraph.num_nodes for ex in examples)
        offset = 0
        for i, ex in enumerate(examples):
            np.testing.assert_array_equal(
                batch.global_ids[offset : offset + ex.subgraph.num_nodes],
                ex.subgraph.global_ids,
            )
            assert batch.query_locals[i] == ex.subgraph.query_locals[0] + offset
            np.testing.assert_array_equal(
                batch.candidate_rows[i], ex.candidate_locals + offset
            )
            assert (batch.example_of[offset : offset + ex.subgraph.num_nodes] == i).all()
            offset += ex.subgraph.num_nodes

    def test_rejects_mismatched_candidate_counts(self):
        g = generate_synthetic_graph(60, 2, 0.15, 0.03, 4, 0.0, rng_seed=7)
        a = sample_retrieval_example(g, 1, 2, k=1, fanout=None, rng_seed=0)
        b = sample_retrieval_example(g, 2, 3, k=1, fanout=None, rng_seed=0)
        with pytest.raises(ValidationError):
            merge_examples([a, b])


class TestWholeGraphSubgraph:
    def test_covers_all_nodes_and_edges(self):
        g = path_graph(5)
        sub = whole_graph_subgraph(g)
        assert sub.num_nodes == 5
        np.testing.assert_array_equal(sub.global_ids, np.arange(5))
        np.testing.assert_array_equal(sub.query_locals, np.arange(5))
        np.testing.assert_array_equal(sub.local_features, g.features)
        got = {tuple(e) for e in sub.local_edges.tolist()}
        want = {(i, i + 1) for i in range(4)} | {(i + 1, i) for i in range(4)}
        assert got == want

    def test_edgeless_graph_supported(self):
        sub = whole_graph_subgraph(GraphStore(np.eye(3), []))
        assert sub.local_edges.shape == (0, 2)
        assert sub.num_nodes == 3


class TestSubgraphValidation:
    def test_duplicate_global_ids_rejected(self):
        with pytest.raises(ValidationError):
            Subgraph(
                local_features=np.eye(2),
                local_edges=np.zeros((0, 2), dtype=np.int64),
                global_ids=np.array([3, 3]),
                query_locals=np.array([0]),
            )

    def test_query_locals_out_of_range_rejected(self):
        for query_locals in ([5], [-1], [0, 3]):
            with pytest.raises(ValidationError, match="query node out of range"):
                Subgraph(
                    local_features=np.eye(3),
                    local_edges=np.zeros((0, 2), dtype=np.int64),
                    global_ids=np.array([0, 1, 2]),
                    query_locals=np.array(query_locals),
                )


def oracle_khop(graph, query, k, fanout, rng_seed):
    """Reference breadth-first loop: (ids, undirected global pairs)."""
    rng = np.random.default_rng(rng_seed)
    seen = {query}
    order = [query]
    pairs = []
    frontier = [query]
    for _ in range(k):
        nxt = []
        for u in frontier:
            nbrs = graph.neighbors(u)
            if fanout is not None and len(nbrs) > fanout:
                nbrs = rng.choice(nbrs, size=fanout, replace=False)
            for v in nbrs:
                v = int(v)
                pairs.append((min(u, v), max(u, v)))
                if v not in seen:
                    seen.add(v)
                    order.append(v)
                    nxt.append(v)
        frontier = nxt
    return order, pairs


def oracle_local_edges(order, pairs):
    local_of = {g: i for i, g in enumerate(order)}
    uniq = sorted(set(pairs))
    la = [local_of[a] for a, _ in uniq]
    lb = [local_of[b] for _, b in uniq]
    return np.array(list(zip(la + lb, lb + la)), dtype=np.int64).reshape(-1, 2)


def oracle_example(graph, query, num_negatives, k, fanout, rng_seed):
    """Reference example: setdiff1d negatives and a dict-based union of the
    per-root contexts. Returns (ids, local edges, candidate locals)."""
    nbrs = graph.neighbors(query)
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    seeds = rng_seed.spawn(3)
    rng = np.random.default_rng(seeds[0])
    positive = int(rng.choice(nbrs))
    complement = np.setdiff1d(np.arange(graph.num_nodes), np.append(nbrs, query))
    negatives = rng.choice(complement, size=num_negatives, replace=False) if num_negatives else []
    candidates = [positive] + [int(c) for c in negatives]
    context_seeds = seeds[1].spawn(1 + len(candidates))
    seen, order, pairs = set(), [], set()
    for root, seed in zip([query] + candidates, context_seeds):
        ids, root_pairs = oracle_khop(graph, root, k, fanout, seed)
        for g in ids:
            if g not in seen:
                seen.add(g)
                order.append(g)
        pairs.update(root_pairs)
    pairs.discard((min(query, positive), max(query, positive)))
    local_of = {g: i for i, g in enumerate(order)}
    return order, oracle_local_edges(order, pairs), [local_of[c] for c in candidates]


def oracle_edge_drop(local_edges, p, rng_seed):
    rng = np.random.default_rng(rng_seed)
    pairs = sorted({(min(a, b), max(a, b)) for a, b in local_edges.tolist()})
    kept = [pair for pair, draw in zip(pairs, rng.random(len(pairs))) if draw >= p]
    return np.array(kept + [(b, a) for a, b in kept], dtype=np.int64).reshape(-1, 2)


def assert_bitwise(actual, expected):
    np.testing.assert_array_equal(actual, np.asarray(expected, dtype=np.int64), strict=True)


class TestReferenceOracle:
    """The array-based sampler must reproduce the plain loops above draw for
    draw: same nodes, edges, negatives and edge-drop survivors."""

    def check(self, graph, query, k, fanout, num_negatives, seed):
        sub = khop_subgraph(graph, query, k, fanout, rng_seed=seed)
        ids, pairs = oracle_khop(graph, query, k, fanout, seed)
        assert_bitwise(sub.global_ids, ids)
        assert_bitwise(sub.local_edges, oracle_local_edges(ids, pairs))
        np.testing.assert_array_equal(sub.local_features, graph.features[ids])
        if graph.degrees[query] == 0:
            return
        ex = sample_retrieval_example(graph, query, num_negatives, k, fanout, rng_seed=seed)
        ids, edges, cand_locals = oracle_example(graph, query, num_negatives, k, fanout, seed)
        merged = ex.subgraph
        assert_bitwise(merged.global_ids, ids)
        assert_bitwise(merged.local_edges, edges)
        assert_bitwise(ex.candidate_locals, cand_locals)
        np.testing.assert_array_equal(merged.local_features, graph.features[ids])
        assert merged.query_locals.tolist() == [0] and merged.global_ids[0] == query
        if merged.local_edges.size:
            dropped = augment_edge_drop(merged, 0.3, rng_seed=seed)
            assert_bitwise(dropped.local_edges, oracle_edge_drop(merged.local_edges, 0.3, seed))

    def test_path_graph(self):
        g = path_graph(6)
        for query in range(6):
            for k in (1, 2, 3):
                self.check(g, query, k, None, 2, seed=query + 10 * k)

    def test_star_with_fanout_cap(self):
        g = GraphStore(np.eye(11), [(0, i) for i in range(1, 11)])
        for seed in range(5):
            self.check(g, 0, 2, 3, 0, seed)
            self.check(g, 1 + seed, 2, 3, 4, seed)

    def test_clique_plus_isolated_node_has_one_negative(self):
        clique = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = GraphStore(np.eye(5), clique)
        for query in range(5):
            self.check(g, query, 2, None, 1, seed=query)

    def test_negatives_exhaust_the_non_neighbors(self):
        g = generate_synthetic_graph(30, 2, 0.3, 0.05, 4, 0.0, rng_seed=8)
        for query in np.flatnonzero(g.degrees > 0)[:10]:
            available = g.num_nodes - 1 - int(g.degrees[query])
            self.check(g, int(query), 2, 3, available, seed=int(query))

    @pytest.mark.parametrize("fanout", [4, None])
    def test_sbm_over_many_seeds(self, fanout):
        g = generate_synthetic_graph(80, 2, 0.15, 0.03, 4, 0.1, rng_seed=3)
        for seed in range(60):
            self.check(g, seed % g.num_nodes, 2, fanout, 5, seed)

    @pytest.mark.parametrize("fanout", [4, None])
    def test_training_batch_matches_each_example(self, fanout):
        """_sample_batch expands every example's contexts in one lockstep
        pass; each example must still be the oracle's draw for its seed,
        with isolated queries skipped and roots repeating across examples."""
        base = generate_synthetic_graph(24, 2, 0.3, 0.05, 4, 0.0, rng_seed=4)
        g = GraphStore(np.vstack([base.features, np.ones((3, 4))]), base.undirected_edges())
        repeated_roots = skipped = 0
        for k in (1, 2, 3):
            for entropy in range(4):
                cfg = TrainConfig(batch_size=10, k=k, fanout=fanout, num_negatives=3)
                batch = _sample_batch(g, cfg, np.random.SeedSequence(entropy))
                stream = np.random.SeedSequence(entropy)
                rng = np.random.default_rng(stream)
                want = []
                while len(want) < cfg.batch_size:
                    query = int(rng.integers(g.num_nodes))
                    seed = stream.spawn(1)[0]
                    if g.degrees[query]:
                        want.append((query, oracle_example(g, query, 3, k, fanout, seed)))
                    else:
                        skipped += 1
                roots = []
                for i, (query, (ids, edges, cand_locals)) in enumerate(want):
                    rows = np.flatnonzero(batch.example_of == i)
                    offset = rows[0]
                    assert_bitwise(batch.global_ids[rows], ids)
                    first_end = batch.local_edges[:, 0]
                    in_example = (first_end >= offset) & (first_end <= rows[-1])
                    assert_bitwise(batch.local_edges[in_example] - offset, edges)
                    assert_bitwise(batch.candidate_rows[i] - offset, cand_locals)
                    assert batch.query_locals[i] == offset and ids[0] == query
                    roots.append({query, *(ids[c] for c in cand_locals)})
                sizes = [len(ids) for _, (ids, _, _) in want]
                assert_bitwise(batch.example_of, np.repeat(np.arange(len(want)), sizes))
                repeated_roots += sum(len(a & b) for i, a in enumerate(roots) for b in roots[i + 1 :])
        assert repeated_roots > 0 and skipped > 0
