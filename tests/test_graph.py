import hashlib

import numpy as np
import pytest

from graphebr.errors import GraphParseError, ValidationError
from graphebr.evaluation import split_edges
from graphebr.graph import (
    GraphStore,
    generate_synthetic_graph,
    load_graph,
    save_graph,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadGraph:
    def test_smallest_graph(self, tmp_path):
        e = write(tmp_path / "e.txt", "0 1\n")
        f = write(tmp_path / "f.txt", "1 0\n0 1\n")
        g = load_graph(e, f)
        assert g.num_nodes == 2
        assert g.feature_dim == 2
        assert list(g.degrees) == [1, 1]
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_both_directions_collapse_to_one_edge(self, tmp_path):
        e = write(tmp_path / "e.txt", "0 1\n1 0\n")
        f = write(tmp_path / "f.txt", "1 0\n0 1\n")
        g = load_graph(e, f)
        assert g.num_edges == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        e = write(tmp_path / "e.txt", "# header\n\n0 1\n")
        f = write(tmp_path / "f.txt", "# features\n1 0\n0 1\n")
        assert load_graph(e, f).num_edges == 1

    def test_feature_row_with_wrong_width_names_line(self, tmp_path):
        rows = ["0 0 0 0"] * 99
        rows.insert(57, "1 2 3")
        f = write(tmp_path / "f.txt", "\n".join(rows) + "\n")
        e = write(tmp_path / "e.txt", "0 1\n")
        with pytest.raises(GraphParseError) as err:
            load_graph(e, f)
        assert err.value.line_number == 58

    def test_malformed_edge_line_names_line(self, tmp_path):
        e = write(tmp_path / "e.txt", "0 1\n2 three\n")
        f = write(tmp_path / "f.txt", "1\n2\n3\n")
        with pytest.raises(GraphParseError) as err:
            load_graph(e, f)
        assert err.value.line_number == 2

    def test_edge_with_too_many_tokens_rejected(self, tmp_path):
        e = write(tmp_path / "e.txt", "0 1 2\n")
        f = write(tmp_path / "f.txt", "1\n2\n")
        with pytest.raises(GraphParseError):
            load_graph(e, f)

    def test_node_id_out_of_range(self, tmp_path):
        e = write(tmp_path / "e.txt", "0 7\n")
        f = write(tmp_path / "f.txt", "1\n2\n")
        with pytest.raises(ValidationError):
            load_graph(e, f)

    def test_non_finite_feature_rejected(self, tmp_path):
        e = write(tmp_path / "e.txt", "0 1\n")
        f = write(tmp_path / "f.txt", "1 2\nnan 4\n")
        with pytest.raises(ValidationError):
            load_graph(e, f)


def reference_adjacency(num_nodes, edges):
    """Sorted unique u < v pairs and per-node neighbour lists, the slow way."""
    pairs = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.unique(pairs, axis=0) if len(pairs) else pairs.reshape(0, 2)
    neighbors = [sorted({int(b) for a, b in pairs if a == u} | {int(a) for a, b in pairs if b == u})
                 for u in range(num_nodes)]
    return pairs, neighbors


class TestGraphStore:
    @pytest.mark.parametrize("num_nodes, edges", [
        (5, [[0, 1], [0, 1], [3, 4], [0, 1], [3, 4]]),  # duplicates
        (5, [[1, 0], [4, 2], [2, 4], [0, 1], [3, 2]]),  # reversed pairs
        (4, [[0, 0], [2, 2], [3, 3]]),  # self-loops only
        (4, []),
        (1, []),
        (1, [[0, 0]]),
        (6, [[5, 0], [0, 5], [2, 2], [1, 4], [4, 1], [3, 0], [0, 3], [5, 4]]),
    ])
    def test_dedup_matches_a_two_column_unique(self, num_nodes, edges):
        g = GraphStore(np.eye(num_nodes), edges)
        pairs, neighbors = reference_adjacency(num_nodes, edges)
        got = g.undirected_edges()
        assert got.dtype == np.int64 and got.shape == pairs.shape
        assert got.tobytes() == pairs.tobytes()
        for u in range(num_nodes):
            assert g.neighbors(u).tolist() == neighbors[u]
        assert g.degrees.tolist() == [len(nbrs) for nbrs in neighbors]
        nodes = np.array([num_nodes - 1, 0, num_nodes - 1, *range(num_nodes)])
        degree, joined = g.neighbors_of(nodes)
        assert degree.tolist() == [len(neighbors[u]) for u in nodes]
        assert joined.tolist() == [v for u in nodes for v in neighbors[u]]
        assert g.num_edges == len(pairs)

    def test_non_integer_endpoints_rejected(self):
        # each of these used to be cast: (0.5, 2.7) stored the edge (0, 2)
        for edges in ([(0.5, 2.7), (True, 3)], [(0, 1), (1.0, 2)], [("1", 2)], np.array([[0.0, 1.0]])):
            with pytest.raises(ValidationError, match="graph: edge endpoints must be integers"):
                GraphStore(np.eye(4), edges)
        for edges in ([(np.int32(0), 2), (1, np.uint8(3))], np.array([[0, 2], [1, 3]], dtype=np.int32)):
            assert GraphStore(np.eye(4), edges).undirected_edges().tolist() == [[0, 2], [1, 3]]

    def test_self_loops_dropped_and_adjacency_symmetric(self):
        g = GraphStore(np.eye(3), [[0, 0], [0, 1], [1, 2]])
        assert g.num_edges == 2
        for u in range(3):
            for v in g.neighbors(u):
                assert g.has_edge(v, u)

    def test_save_load_roundtrip_is_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        g = generate_synthetic_graph(60, 3, 0.2, 0.02, 5, 0.1, rng_seed=7)
        save_graph(g, tmp_path / "e.txt", tmp_path / "f.txt")
        g2 = load_graph(tmp_path / "e.txt", tmp_path / "f.txt")
        assert g.fingerprint() == g2.fingerprint()
        np.testing.assert_array_equal(g.undirected_edges(), g2.undirected_edges())
        np.testing.assert_array_equal(g.features, g2.features)


class TestSyntheticGraph:
    def test_zero_cross_probability_keeps_communities_disconnected(self):
        g = generate_synthetic_graph(100, 2, 0.2, 0.0, 4, 0.0, rng_seed=1)
        edges = g.undirected_edges()
        same_block = (edges[:, 0] < 50) == (edges[:, 1] < 50)
        assert same_block.all()
        assert len(edges) > 0

    def test_mean_within_community_degree_matches_expectation(self):
        g = generate_synthetic_graph(1000, 2, 0.02, 0.001, 4, 0.0, rng_seed=2)
        edges = g.undirected_edges()
        within = ((edges[:, 0] < 500) == (edges[:, 1] < 500)).sum()
        mean_degree = 2 * within / 1000
        assert 8.0 <= mean_degree <= 12.0

    def test_cold_start_fraction_capped_at_degree_two(self):
        g = generate_synthetic_graph(500, 2, 0.05, 0.005, 4, 0.1, rng_seed=3)
        assert (g.degrees <= 2).sum() >= 0.09 * 500

    def test_same_seed_reproduces_graph(self):
        a = generate_synthetic_graph(200, 3, 0.1, 0.01, 6, 0.2, rng_seed=9)
        b = generate_synthetic_graph(200, 3, 0.1, 0.01, 6, 0.2, rng_seed=9)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("seed", [-1, -3, 1.5, "7", None, True])
    def test_bad_seed_is_one_named_error(self, seed):
        with pytest.raises(ValidationError, match="synthetic graph: rng_seed must be"):
            generate_synthetic_graph(20, 2, 0.3, 0.05, 4, 0.0, rng_seed=seed)
        g = generate_synthetic_graph(20, 2, 0.3, 0.05, 4, 0.0, rng_seed=0)
        with pytest.raises(ValidationError, match="split: rng_seed must be"):
            split_edges(g, 0.2, seed)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            generate_synthetic_graph(100, 2, 0.01, 0.02, 4, 0.0, rng_seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic_graph(100, 2, 0.1, 0.01, 4, 0.6, rng_seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic_graph(100, 5, 0.1, 0.01, 3, 0.0, rng_seed=0)


# Digests recorded from the loop-and-set generator this one replaced: the
# graph's fingerprint, the sha256 of split_edges' held-out pairs (fraction
# 0.1, seed rng_seed + 1) and the training graph's fingerprint. Criterion 1,
# the determinism fixtures and the benchmark's graphs rely on this stream.
PINNED = {
    # num_nodes, communities, p_in, p_out, feature_dim, cold fraction, seed
    (2000, 2, 0.02, 0.002, 16, 0.1, 2207): (  # the train-2k-multitask arguments
        "4cb7b3901b362c7a5b63972cf59289ce27ea59ff6237af5c4e39e584cf54b62c",
        "c0aa6aea0aee9e5a2a39b55d308bb633e354690eb0e44ff94c1f751d48f2a8cb",
        "f69eb1b2daf08f1d15cf733013f8c9811171c9bfc7c52450d89a6a02cc1742c1",
    ),
    (301, 3, 0.1, 0.01, 5, 0.1, 11): (  # uneven blocks: 101, 100, 100
        "3c3527d47665280d476e159fb3492e00d0aaad75518618ebe2e0555c653ce9e5",
        "b701731e4e1332926e80dd4c5c89b3c896450237c9b9005bf0fec3bcc0b2954c",
        "50ed989157929506ec32762b48ac30e5fe99b2386d61b448fee1de018a0c80f8",
    ),
    (150, 1, 0.05, 0.0, 3, 0.2, 12): (  # one community
        "274a32ce913ba5ab97eb5d11e541f7f1467434cb469dd609cdc418d68eb86051",
        "499583d86957b948f52c65f412760e06612e017f2a5a4c9a2bf428c2c06354fc",
        "8163d9eda9656cc3bdaf32e250d9cab115aae7e7918bc88d7de972b079c0eb4e",
    ),
    (200, 4, 0.08, 0.0, 6, 0.1, 13): (  # p_out = 0
        "75c2ce88cb1d5ecb9f8e27b3347fb85117840d158dec81bfa1b640bb8a449ab2",
        "1e92dbc4420e2b90f66770edcd28bee08539f7ada898570a5175087ff43787a1",
        "3ef410128fbef40c5f7bdbe8fb34626162191f9c1867a7463be65e9ac404449a",
    ),
    (250, 2, 0.05, 0.004, 4, 0.0, 14): (  # no cold nodes
        "00656a6c6ffada0d09500b5568bb577ae9f2585cfc08424779eb892bcdb3896e",
        "91dea85586128ee4d66d5eff685400ea5b3de8ef3471c1640ea9eb060bb04ad6",
        "3960705d402c19ad729e55bfcc6347bd6842857eadf1a7d5195d555bbaca48af",
    ),
    (250, 5, 0.08, 0.01, 7, 0.5, 15): (  # half the nodes cold
        "030536d52ee5c434763d150410f03e342e66603a526f7fdf54e63663e57c63fb",
        "8bb664fd373ed0bf4719af0a8d7101aa77a4b0cb84921bc41755447467fa6b30",
        "d86b6cc8b2d713307ee7ab79e0d107c6336e36042a0fe6d0b39b97f426768dbc",
    ),
    (200, 2, 0.012, 0.001, 3, 0.3, 16): (  # mean degree ~1.3: many cold nodes keep all
        "d80bbdb9b101ca95887f871cc99545b2c3dab74dcf34138252096c6e6e21334e",
        "7cd1441d58e84362e0a1dc55ee5d26eea2322057b19bdf4d31514ff3b8307733",
        "df57a85c75e9221a0e56e1c08e52b43d5f70b31589c1b21370fe18b8416b36ea",
    ),
}


@pytest.mark.parametrize("args", list(PINNED), ids=lambda a: "-".join(map(str, a)))
def test_generator_and_split_are_pinned_bitwise(args):
    graph = generate_synthetic_graph(*args)
    train, heldout = split_edges(graph, 0.1, args[-1] + 1)
    got = (
        graph.fingerprint(),
        hashlib.sha256(np.ascontiguousarray(heldout).tobytes()).hexdigest(),
        train.fingerprint(),
    )
    assert got == PINNED[args]
