import hashlib
import io
import json
import re
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
    exact_topk_block,
    export_embeddings,
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


def index_document(index, ef_construction):
    """The version-1 JSON document the index file used to be: per layer, each
    node on it mapped to its links without padding. The pinned digests below
    hash it."""
    layers = []
    for layer_id, links in enumerate(index.layers):
        nodes = np.flatnonzero(index.levels >= layer_id)
        layers.append({str(i): [n for n in links[i].tolist() if n != -1] for i in nodes.tolist()})
    return {
        "version": "1",
        "m_conn": index.m_conn,
        "ef_construction": ef_construction,
        "entry_point": index.entry_point,
        "levels": index.levels.tolist(),
        "layers": layers,
        "vectors": index.vectors.tolist(),
    }


def index_arrays(index):
    return [index.vectors, index.levels, *index.layers]


def saved_arrays(index, path):
    """The members of the archive save_index writes, to corrupt one by one."""
    save_index(index, path)
    with np.load(path) as archive:
        return dict(archive)


def write_archive(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


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

    def test_non_integer_or_undecodable_text_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        for data in (b"3 x\n1 2 3\n", b"3.0 2\n", np.array([-1, -3], dtype="<i8").tobytes()):
            path.write_bytes(data)
            with pytest.raises(ValidationError, match=f"^embedding table {path}: line 1: malformed header"):
                load_table(path)

    @pytest.mark.parametrize("body", ["1 2 3\n4 x 6\n", "1 2 3\n4 5\n"])
    def test_bad_text_body_is_one_named_error(self, tmp_path, body):
        # a token that is not a number, or a ragged row: numpy's own
        # ValueError used to pass through without the file's name
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n" + body)
        with pytest.raises(ValidationError, match=f"^embedding table {re.escape(str(path))}: "):
            load_table(path)

    def test_header_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ValidationError):
            load_table(path)

    def test_every_text_table_error_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text, named in (
            ("3 2\n1 2\n3 4\n", "line 1: header says 3 rows, found 2"),
            ("2 0\n", "line 1: malformed header"),
            ("2 2\n1 2\n\n3 nan\n", "line 4: non-finite values or squared norm"),
            ("2 2\n1 2 # note\n1e200 1\n", "line 3: non-finite values or squared norm"),
            ("2 3\n1 2\n3 4\n", "line 2: expected 3 values, got 2"),
        ):
            path.write_text(text)
            with pytest.raises(ValidationError) as raised:
                load_table(path)
            assert str(raised.value) == f"embedding table {path}: {named}"
        path.write_text("2 2\n# two rows\n1 2\n\n3 4  # last\n")
        assert load_table(path).vectors.tolist() == [[1, 2], [3, 4]]

    def test_text_table_reads_any_line_end(self, tmp_path):
        # a bare CR used to join the whole file into one malformed header line
        table = EmbeddingTable(np.random.default_rng(3).normal(size=(4, 3)))
        path = tmp_path / "table.txt"
        save_table(table, path)
        text = path.read_bytes()
        for newline in (b"\r\n", b"\r"):
            path.write_bytes(text.replace(b"\n", newline))
            assert load_table(path).vectors.tobytes() == table.vectors.tobytes()
        path.write_bytes(b"2 2\r1 2\r\r3 x\r")
        with pytest.raises(ValidationError, match=f"^embedding table {re.escape(str(path))}: line 4: non-numeric"):
            load_table(path)

    def test_bad_binary_header_rejected(self, tmp_path):
        path = tmp_path / "table.bin"
        # shorter than the 16-byte header, or a negative count: each used to
        # raise a bare numpy unpacking or reshape error
        for data in (
            b"\x00",
            np.array([3], dtype="<i8").tobytes(),
            np.array([-1, 3], dtype="<i8").tobytes() + np.ones(3).tobytes(),
            np.array([2, -1], dtype="<i8").tobytes(),
        ):
            path.write_bytes(data)
            with pytest.raises(ValidationError, match=f"^embedding table {path}: binary header"):
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


def ranked(vectors, q, k, exclude=()):
    """The answer exact_topk must give: kept rows by their float64 row
    score, best first, ties to the smaller id."""
    import graphebr.index as gi

    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    scores = gi._row_scores(vectors, np.arange(n), np.asarray(q, dtype=np.float64)[None], np.zeros(n, dtype=np.intp))
    kept = sorted(set(range(n)) - set(exclude), key=lambda i: (-scores[i], i))
    return kept[:k]


class TestScreenedScan:
    """exact_topk screens every row in float32 and ranks a shortlist in
    float64. Each test holds a case that a screen without its rounding
    bound answers wrongly."""

    def test_float32_rounding_reverses_two_rows(self):
        # float64: a.q = 1 + 6e-8 < b.q = 1 + 6.4e-8; in float32, a's first
        # entry rounds up a whole ulp and b's rounds down, so a screens ahead
        table = EmbeddingTable(np.array([[1 + 6e-8, 0.0], [1 + 5.9e-8, 5e-9]]))
        assert exact_topk(table, np.ones(2), k=1).ids.tolist() == [1]
        assert exact_topk(table, np.ones(2), k=2).ids.tolist() == [1, 0]
        # the same rounding under cancellation: a.q = 6e-8 < b.q = 6.4e-8,
        # but a screens at 2**-23, twice b's score
        table = EmbeddingTable(np.array([[1 + 6e-8, -1.0], [6.4e-8, 0.0]]))
        assert exact_topk(table, np.ones(2), k=1).ids.tolist() == [1]

    def test_extreme_magnitudes_and_mixed_norms(self):
        rng = np.random.default_rng(7)
        # two 1e-300 entries multiply to 0 in float64, so every row scores 0
        # and ranks by id, while the scaled float32 screen still tells them apart
        tiny = rng.normal(size=(30, 4)) * 1e-300
        assert exact_topk(EmbeddingTable(tiny), tiny[0], k=5).ids.tolist() == [0, 1, 2, 3, 4]
        # 1e154 is about the largest entry whose square stays finite; the
        # table refuses rows of 1e300
        vectors = np.vstack([
            rng.normal(size=(20, 4)) * 1e150,
            rng.normal(size=(20, 4)),
            rng.normal(size=(20, 4)) * 1e-300,
            [[1e154, 0, 0, 0], [0, -1e-300, 0, 0], [0, 0, 0, 0]],
        ])
        table = EmbeddingTable(vectors)
        for scale in (1e150, 1.0, 1e-300, 0.0):
            q = rng.normal(size=4) * scale
            exclude = set(rng.integers(0, len(vectors), size=10).tolist())
            for k in (1, 5, 25, 45, len(vectors)):
                got = exact_topk(table, q, k=k, exclude=exclude)
                assert got.ids.tolist() == ranked(vectors, q, k, exclude)

    def test_all_equal_rows_and_half_integer_ties(self):
        table = EmbeddingTable(np.ones((6, 3)))
        for k in range(1, 7):
            assert exact_topk(table, np.ones(3), k=k).ids.tolist() == list(range(k))
        rng = np.random.default_rng(8)
        for _ in range(50):
            vectors = rng.integers(-2, 3, size=(40, 3)) * 0.5
            q = rng.integers(-2, 3, size=3) * 0.5
            exclude = set(rng.integers(0, 40, size=5).tolist())
            k = int(rng.integers(1, 41))
            got = exact_topk(EmbeddingTable(vectors), q, k=k, exclude=exclude)
            assert got.ids.tolist() == ranked(vectors, q, k, exclude)
        # both rows score 2**-30 in float64; row 0 screens at 0 in float32
        # (its 1 + 2**-30 rounds to 1), row 1 at 2**-30, so the tie to the
        # smaller id needs the band below row 1's screen score
        table = EmbeddingTable(np.array([[1 + 2.0**-30, -1.0], [2.0**-30, 0.0]]))
        assert exact_topk(table, np.ones(2), k=1).ids.tolist() == [0]

    def test_repeated_exclusions_and_fewer_than_k_kept(self):
        # rows 0 and 1 are the cancellation pair of the reversal test
        table = EmbeddingTable(np.array([[1 + 6e-8, -1.0], [6.4e-8, 0.0], [0.5, 0.5]]))
        q = np.ones(2)
        got = exact_topk(table, q, k=1, exclude=[2, 2])
        assert got.ids.tolist() == [1] and not got.truncated
        got = exact_topk(table, q, k=3, exclude=[1, 1])
        assert got.ids.tolist() == [2, 0] and got.truncated
        got = exact_topk(table, q, k=1, exclude=[0, 1, 2, 1])
        assert got.ids.tolist() == [] and got.truncated
        block = exact_topk_block(table, np.ones((3, 2)), 2, ([2, 2, 4], [2, 2, 1, 1, 0, 1, 2, 1]))
        assert [r.ids.tolist() for r in block] == [[1, 0], [2, 0], []]
        assert [r.truncated for r in block] == [False, False, True]

    def test_near_ties_match_the_float64_ranking(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n, d = int(rng.integers(2, 150)), int(rng.integers(1, 9))
            base = rng.normal(size=d)
            # perturbations well below float32's resolution, plus exact copies
            vectors = base + rng.normal(size=(n, d)) * 10.0 ** rng.integers(-12, -5)
            vectors[rng.random(n) < 0.1] = base
            # a query nearly orthogonal to the rows makes every score a
            # cancellation, whose float32 error dwarfs the score itself
            q = rng.normal(size=d)
            q -= (q @ base) / (base @ base) * base * (1 - 1e-3 * rng.random())
            exclude = set(np.flatnonzero(rng.random(n) < 0.2).tolist())
            k = int(rng.integers(1, n + 1))
            got = exact_topk(EmbeddingTable(vectors), q, k=k, exclude=exclude)
            assert got.ids.tolist() == ranked(vectors, q, k, exclude)
        # the k best rows share one chunk of the k-th score's lower bound
        # (columns j, j + 10, j + 20 at 80 rows and k = 3), so the bound is loose
        vectors = rng.normal(size=(80, 4)) * 1e-3
        vectors[[0, 10, 20]] = [1.0, 0, 0, 0]
        vectors[10, 1] = 1e-9
        assert exact_topk(EmbeddingTable(vectors), [1.0, 1.0, 0, 0], k=3).ids.tolist() == [10, 0, 20]

    def test_answers_do_not_depend_on_shortlist_or_block(self, monkeypatch):
        import graphebr.index as gi

        rng = np.random.default_rng(12)
        table = EmbeddingTable(rng.normal(size=(60, 5)))
        q = rng.normal(size=5)
        full = exact_topk(table, q, k=60)
        score_of = dict(zip(full.ids.tolist(), full.scores.tolist()))
        for k in range(1, 61, 7):
            got = exact_topk(table, q, k=k)
            assert got.scores.tobytes() == np.array([score_of[i] for i in got.ids.tolist()]).tobytes()
        queries = rng.normal(size=(23, 5))
        counts = rng.integers(0, 8, size=23)
        ids = rng.integers(0, 60, size=int(counts.sum()))
        starts = np.cumsum(counts) - counts
        want = [exact_topk(table, qv, k=7, exclude=ids[s : s + c]) for qv, s, c in zip(queries, starts, counts)]
        for entries in (1, 60 * 4, 60 * 23, 1 << 19):
            monkeypatch.setattr(gi, "_SCREEN_ENTRIES", entries)
            got = exact_topk_block(table, queries, 7, (counts, ids))
            for a, b in zip(got, want, strict=True):
                assert a.ids.tobytes() == b.ids.tobytes() and a.scores.tobytes() == b.scores.tobytes()
                assert a.truncated == b.truncated

    def test_block_arguments_validated(self):
        table = EmbeddingTable(np.ones((4, 2)))
        with pytest.raises(ValidationError, match="k must be >= 1"):
            exact_topk_block(table, np.ones((2, 2)), 0)
        with pytest.raises(ShapeError):
            exact_topk_block(table, np.ones((2, 3)), 1)
        with pytest.raises(ValidationError, match="squared norm"):
            exact_topk_block(table, np.array([[1e200, 0.0]]), 1)
        for counts, ids in (([1], [0]), ([1, 2], [0]), ([-1, 2], [0]), ([1, 0], [4])):
            with pytest.raises(ValidationError, match="topk: ex"):
                exact_topk_block(table, np.ones((2, 2)), 1, (counts, ids))

    def test_rows_are_read_only_and_a_writeable_input_is_copied(self, tmp_path):
        rows = np.random.default_rng(13).normal(size=(5, 3))
        table = EmbeddingTable(rows)
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 1.0
        rows[0, 0] = 99.0
        assert table.vectors[0, 0] != 99.0
        frozen = rows.copy()
        frozen.flags.writeable = False
        assert EmbeddingTable(frozen).vectors is frozen
        path = tmp_path / "table.txt"
        save_table(table, path)
        save_index(build_ann_index(table, m_conn=2), tmp_path / "index.npz")
        for loaded in (load_table(path).vectors, load_index(tmp_path / "index.npz").vectors):
            assert not loaded.flags.writeable


class TestAnnBuild:
    def test_single_node_index(self):
        index = build_ann_index(EmbeddingTable(np.ones((1, 4))), m_conn=4)
        assert index.entry_point == 0
        # a lone node links to nobody, so every row is empty whatever m_conn is
        assert [layer.shape for layer in index.layers] == [(1, 0)] * len(index.layers)
        assert all((layer == -1).all() for layer in index.layers)
        validate_index(index)

    def test_same_seed_same_structure(self):
        table = EmbeddingTable(unit_rows(300, 8, seed=3))
        a = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=5)
        b = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=5)
        assert a.entry_point == b.entry_point
        assert np.array_equal(a.levels, b.levels)
        assert len(a.layers) == len(b.layers)
        assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    def test_structural_invariants_hold(self):
        table = EmbeddingTable(unit_rows(500, 8, seed=4))
        index = build_ann_index(table, m_conn=6, ef_construction=40, rng_seed=6)
        validate_index(index)
        assert len(index.layers) == int(index.levels.max()) + 1
        for L, layer in enumerate(index.layers):
            assert layer.dtype == np.intp
            assert layer.shape == (500, 12 if L == 0 else 6)
            # a row exists for every node, but only nodes on the layer link
            assert (layer[index.levels < L] == -1).all()
        assert (index.layers[0][:, 0] != -1).all()

    def test_bad_arguments_rejected(self):
        table = EmbeddingTable(np.ones((2, 2)))
        with pytest.raises(ValidationError):
            build_ann_index(table, m_conn=1)
        with pytest.raises(ValidationError):
            build_ann_index(table, ef_construction=0)
        with pytest.raises(ValidationError):
            build_ann_index(EmbeddingTable(np.ones((0, 2)).reshape(0, 2)))
        for seed in (-1, 1.5, True):
            with pytest.raises(ValidationError, match="ann build: rng_seed must be a non-negative integer"):
                build_ann_index(table, rng_seed=seed)


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

    def test_beam_emptied_by_exclusions_answers_like_the_exact_scan(self):
        table = EmbeddingTable(unit_rows(200, 8, seed=24))
        index = build_ann_index(table, m_conn=6, ef_construction=30, rng_seed=25)
        q = table.vectors[11]
        # a hub: its friends are its 40 nearest rows, more than the beam holds
        friends = set(exact_topk(table, q, k=40).ids.tolist())
        for k, kept in ((10, 200), (10, 45), (10, 3)):
            exclude = friends | set(range(kept, 200))
            got = ann_topk(index, q, k=k, ef_search=16, exclude=exclude)
            want = exact_topk(table, q, k=k, exclude=exclude)
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.scores.tobytes() == want.scores.tobytes()
            assert got.truncated == want.truncated == (len(want.ids) < k)

    def test_out_of_range_exclusions_rejected_like_the_exact_scan(self):
        table = EmbeddingTable(unit_rows(20, 4, seed=26))
        index = build_ann_index(table, m_conn=4, rng_seed=27)
        for bad in ({20}, {-1}, {3, 99}):
            for search in (
                lambda: exact_topk(table, table.vectors[0], k=3, exclude=bad),
                lambda: ann_topk(index, table.vectors[0], k=3, exclude=bad),
            ):
                with pytest.raises(ValidationError, match="topk: excluded id out of range"):
                    search()

    def test_non_integer_exclusions_rejected_on_both_paths(self):
        table = EmbeddingTable(unit_rows(20, 4, seed=26))
        index = build_ann_index(table, m_conn=4, rng_seed=27)
        # each of these used to be cast, so 1.7 and True excluded id 1
        for bad in ({1.7}, {True}, {"2"}, {3, np.float64(4.0)}, {np.bool_(False)}):
            for search in (
                lambda: exact_topk(table, table.vectors[0], k=3, exclude=bad),
                lambda: ann_topk(index, table.vectors[0], k=3, exclude=bad),
            ):
                with pytest.raises(ValidationError, match="topk: excluded ids must be integers"):
                    search()
        ok = {np.int64(1), np.int32(2), np.uint8(3), 4}
        want = exact_topk(table, table.vectors[0], k=5, exclude={1, 2, 3, 4})
        for search in (exact_topk, lambda *a, **kw: ann_topk(index, *a[1:], ef_search=20, **kw)):
            got = search(table, table.vectors[0], k=5, exclude=ok)
            assert got.ids.tolist() == want.ids.tolist()

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
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.entry_point == index.entry_point
        assert loaded.m_conn == index.m_conn
        assert len(loaded.layers) == len(index.layers)
        for a, b in zip(index_arrays(loaded), index_arrays(index)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        validate_index(loaded)

    def test_writes_exactly_the_given_path_and_numpy_reads_it(self, tmp_path):
        index = build_ann_index(EmbeddingTable(unit_rows(20, 4, seed=18)), m_conn=4, rng_seed=19)
        path = tmp_path / "index.json"
        save_index(index, path)
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == sorted(
                ["header", "vectors", "levels"] + [f"layer{L}" for L in range(len(index.layers))]
            )
            assert archive["header"].tolist() == [2, 4, index.entry_point]

    def test_version_one_json_document_rejected(self, tmp_path):
        index = build_ann_index(EmbeddingTable(np.ones((1, 2))))
        path = tmp_path / "index.json"
        path.write_text(json.dumps(index_document(index, 100)))
        with pytest.raises(ValidationError, match="ann index: .* is not an index archive"):
            load_index(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "index.npz"
        arrays = saved_arrays(build_ann_index(EmbeddingTable(np.ones((1, 2)))), path)
        arrays["header"][0] = 3
        write_archive(path, arrays)
        with pytest.raises(ValidationError, match=r"ann index: header is not the integers \[2, m_conn"):
            load_index(path)

    @pytest.mark.parametrize("corrupt, named", [
        (lambda a: a.pop("levels"), "expected vectors, levels and layer0"),
        (lambda a: a.pop("layer0"), "expected vectors, levels and layer0"),
        (lambda a: a.update(layer9=a["layer0"]), "expected vectors, levels and layer0"),
        (lambda a: a.pop("header"), "header is not"),
        (lambda a: a.update(header=a["header"].astype(np.float64)), "header is not"),
        (lambda a: a.update(header=a["header"][:2]), "header is not"),
        (lambda a: a.update(levels=a["levels"].astype(np.float64)), r"levels are not a \(30,\) integer array"),
        (lambda a: a.update(vectors=np.full((30, 4), "x")), "vectors: "),
        (lambda a: a.update(vectors=a["vectors"][:, :0]), "vectors: "),
        (lambda a: a.update(layer0=a["layer0"].astype(np.int32)), r"layer 0 is not an \(30, 8\) intp array"),
    ])
    def test_malformed_archive_is_one_named_error(self, tmp_path, corrupt, named):
        path = tmp_path / "index.npz"
        arrays = saved_arrays(build_ann_index(EmbeddingTable(unit_rows(30, 4, seed=5)), m_conn=4, rng_seed=6), path)
        corrupt(arrays)
        write_archive(path, arrays)
        with pytest.raises(ValidationError, match=f"^ann index: .*{named}"):
            load_index(path)

    def test_unreadable_files_are_one_named_error(self, tmp_path):
        path = tmp_path / "index.npz"
        save_index(build_ann_index(EmbeddingTable(unit_rows(30, 4, seed=5)), m_conn=4, rng_seed=6), path)
        good = path.read_bytes()
        buf = io.BytesIO()
        np.savez(buf, header=np.array([2, 4, 0]), vectors=np.array([None, 1.0]))
        npy = io.BytesIO()
        np.save(npy, np.arange(3))
        for data in (b"", b"{}", b"0 1\n", good[: len(good) // 2], good[:-30], buf.getvalue(), npy.getvalue()):
            path.write_bytes(data)
            with pytest.raises(ValidationError, match="^ann index: .* is not an index archive"):
                load_index(path)


class TestValidateIndex:
    """Each corruption, of the arrays in memory or of the saved archive, is
    one ValidationError."""

    def build(self):
        table = EmbeddingTable(unit_rows(50, 4, seed=20))
        index = build_ann_index(table, m_conn=4, ef_construction=20, rng_seed=21)
        validate_index(index)
        return index

    def load_corrupted(self, tmp_path, corrupt):
        path = tmp_path / "index.npz"
        arrays = saved_arrays(self.build(), path)
        corrupt(arrays)
        write_archive(path, arrays)
        return load_index(path)

    def test_detects_degree_violation(self, tmp_path):
        def widen(arrays):
            arrays["layer0"] = np.hstack([arrays["layer0"], np.full((50, 1), -1)])
            arrays["layer0"][0] = np.arange(1, 2 * 4 + 2)
        with pytest.raises(ValidationError, match=r"layer 0 is not an \(50, 8\) intp array"):
            self.load_corrupted(tmp_path, widen)

    def test_detects_self_link(self):
        index = self.build()
        index.layers[0][3, 0] = 3
        with pytest.raises(ValidationError, match="self or duplicate link at node 3"):
            validate_index(index)

    def test_detects_duplicate_link(self, tmp_path):
        index = self.build()
        index.layers[0][3, 1] = index.layers[0][3, 0]
        with pytest.raises(ValidationError, match="self or duplicate link at node 3"):
            validate_index(index)

        def duplicate(arrays):
            arrays["layer0"][3, 1] = arrays["layer0"][3, 0]
        with pytest.raises(ValidationError, match="self or duplicate link at node 3"):
            self.load_corrupted(tmp_path, duplicate)

    def test_detects_out_of_range_ids(self, tmp_path):
        index = self.build()
        index.layers[0][3, 0] = 50
        with pytest.raises(ValidationError, match="link 3->50 leaves layer 0"):
            validate_index(index)
        index.layers[0][3, 0] = -2
        with pytest.raises(ValidationError, match="link 3->-2 leaves layer 0"):
            validate_index(index)

        def negative(arrays):
            arrays["layer0"][3, 0] = -2
        with pytest.raises(ValidationError, match="link 3->-2 leaves layer 0"):
            self.load_corrupted(tmp_path, negative)

    def test_detects_link_leaving_its_layer(self):
        index = self.build()
        upper = np.flatnonzero(index.levels >= 1)[0]
        lower = np.flatnonzero(index.levels == 0)[0]
        index.layers[1][upper, 0] = lower
        with pytest.raises(ValidationError, match=f"link {upper}->{lower} leaves layer 1"):
            validate_index(index)

    def test_detects_links_above_a_nodes_level(self, tmp_path):
        index = self.build()
        lower = np.flatnonzero(index.levels == 0)[0]
        index.layers[1][lower, 0] = index.entry_point
        with pytest.raises(ValidationError, match=f"node {lower} too low for layer 1"):
            validate_index(index)
        # a node whose level is lowered in the file keeps its upper-layer links
        linked = np.flatnonzero((index.layers[1] != -1).any(axis=1) & (np.arange(50) != index.entry_point))
        node = linked[0]

        def lower_level(arrays):
            arrays["levels"][node] = 0
        with pytest.raises(ValidationError, match=f"node {node} too low for layer 1"):
            self.load_corrupted(tmp_path, lower_level)

    def test_detects_link_after_padding(self):
        index = self.build()
        row = index.layers[0][3]
        row[0] = -1
        with pytest.raises(ValidationError, match="link after padding at node 3"):
            validate_index(index)

    def test_detects_a_layer_of_the_wrong_shape(self):
        index = self.build()
        index.layers[0] = index.layers[0][:, :-1]
        with pytest.raises(ValidationError, match=r"layer 0 is not an \(50, 8\) intp array"):
            validate_index(index)

    def test_detects_levels_that_are_not_integers(self):
        index = self.build()
        for levels in (index.levels.astype(np.float64), index.levels.tolist(), index.levels.astype(bool)):
            index.levels = levels
            with pytest.raises(ValidationError, match=r"levels are not a \(50,\) integer array"):
                validate_index(index)

    def test_detects_an_index_without_layers(self):
        index = self.build()
        index.levels[:] = -1
        index.layers = []
        with pytest.raises(ValidationError, match="entry point is not on the top layer"):
            validate_index(index)

    def test_row_width_is_bounded_by_the_node_count(self, tmp_path):
        def widen(arrays):
            arrays["header"][1] = 10**12
            for name in [n for n in arrays if n.startswith("layer")]:
                width = arrays[name].shape[1]
                arrays[name] = np.hstack([arrays[name], np.full((50, 49 - width), -1)])
        assert [layer.shape for layer in self.load_corrupted(tmp_path, widen).layers][:2] == [(50, 49), (50, 49)]

    def test_detects_unreachable_node(self, tmp_path):
        index = self.build()
        assert index.entry_point != 7

        def orphan(arrays):
            for name in [n for n in arrays if n.startswith("layer")]:
                links = arrays[name]
                links[7] = -1
                for row in links:
                    kept = row[row != 7]
                    row[:] = np.append(kept, np.full(len(row) - len(kept), -1))
        with pytest.raises(ValidationError, match="only 49 of 50 nodes reachable"):
            self.load_corrupted(tmp_path, orphan)


class TestUnreachableRepair:
    """Pruning full rows can take every in-link of a node; the build then
    links it from a reached node, adding links only."""

    def test_unequal_norms_build_fully_reachable_indexes(self, monkeypatch):
        import graphebr.index as gi

        repaired = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            table = EmbeddingTable(rng.normal(size=(300, 8)) * rng.lognormal(size=(300, 1)))
            index = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=5)
            validate_index(index)
            with monkeypatch.context() as m:
                m.setattr(gi, "_link_unreached", lambda *args: None)
                raw = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=5)
            assert raw.entry_point == index.entry_point
            assert np.array_equal(raw.levels, index.levels)
            for a, b in zip(raw.layers[1:], index.layers[1:]):
                assert np.array_equal(a, b)
            # every link the inserts made is kept in place; only padding is filled
            kept = raw.layers[0] != -1
            assert np.array_equal(raw.layers[0][kept], index.layers[0][kept])
            repaired += int((index.layers[0] != raw.layers[0]).any())
        assert repaired

    def test_no_reached_row_with_room_is_one_named_error(self):
        import graphebr.index as gi

        # 0 and 1 reach only each other, and their one-slot rows are full
        links = np.array([[1], [0], [0], [0]], dtype=np.intp)
        with pytest.raises(ValidationError, match="ann build: node 2 is unreachable and every reached row is full"):
            gi._link_unreached(np.eye(4), links, 0)


# sha256 of json.dumps(index_document(index, ef_construction), sort_keys=True),
# recorded from the dict-of-lists build that the array adjacency replaced:
# every link list, level and entry point must come out the same, in the same
# order.
PINNED_INDEXES = [
    ("one_row", np.ones((1, 4)), dict(m_conn=4),
     "a0e3f3f34bf1dd35feff2c10c401f8c3762b82b3dad8ffc6106a7a1f2e98c67b"),
    ("m_conn_2", unit_rows(60, 4, seed=30), dict(m_conn=2, ef_construction=10, rng_seed=31),
     "22348ac68685de36bc5fb68f21d7b21e770aba4d4948c02456bfc1e11e2087d2"),
    ("all_equal", np.ones((40, 3)), dict(m_conn=4, ef_construction=8, rng_seed=32),
     "d0a3cd4ea9326ffdf5b090ade0245bd329554c2c19a24c78d9a7ba6c3a3b25a7"),
    ("n_below_ef", unit_rows(25, 5, seed=33), dict(m_conn=4, ef_construction=100, rng_seed=34),
     "027889735ea751e05f5ce9a3dc57e80acf9406df64af5c84619636c1cb8670d4"),
    ("300x8", unit_rows(300, 8, seed=3), dict(m_conn=8, ef_construction=40, rng_seed=5),
     "b48c34ae0bc0960ed3c4ce74fede29d44b8dbbab240ee19528b819b8fc168dd8"),
    ("many_layers", unit_rows(500, 6, seed=35), dict(m_conn=3, ef_construction=20, rng_seed=36),
     "4475e7e826be4155bec2557ebf20040722e2284f9a68415428cd9b8f4f6e2a95"),
]

# Queries of the answer digest below whose beam held fewer than k ids
# outside the exclusion set; they now fall back to the exact scan.
SHORT_IN_BEAM = {5, 6, 11, 12, 17, 18, 23, 24, 30, 36, 37, 42, 43, 48, 49, 54, 55}


# Two pinned builds left nodes that no layer-0 walk from the entry point
# reaches (54 of 60 and 13 of 40 reached); the build now links those from
# reached nodes. Their digests above pin the inserts, and these the result.
REPAIRED_DIGESTS = {
    "m_conn_2": "3c0ce02d96af31277cfa78224e5179c8e4fd10f3221e23fbd752c9748bb623a0",
    "all_equal": "6c01cf564c0fcc273faef9d88a7ec813c5da781a736d11121847dc7b0c882a25",
}


def document_digest(index, kwargs):
    text = json.dumps(index_document(index, kwargs.get("ef_construction", 100)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedIndex:
    @pytest.mark.parametrize("name, rows, kwargs, digest", PINNED_INDEXES, ids=[c[0] for c in PINNED_INDEXES])
    def test_build_is_bitwise_pinned(self, name, rows, kwargs, digest, tmp_path, monkeypatch):
        import graphebr.index as gi

        with monkeypatch.context() as m:
            m.setattr(gi, "_link_unreached", lambda *args: None)
            inserted = build_ann_index(EmbeddingTable(rows), **kwargs)
        assert document_digest(inserted, kwargs) == digest
        index = build_ann_index(EmbeddingTable(rows), **kwargs)
        validate_index(index)
        assert document_digest(index, kwargs) == REPAIRED_DIGESTS.get(name, digest)
        kept = inserted.layers[0] != -1
        assert np.array_equal(index.layers[0][kept], inserted.layers[0][kept])
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_index(index, first)
        save_index(index, second)
        assert first.read_bytes() == second.read_bytes()
        loaded = load_index(first)
        assert (loaded.m_conn, loaded.entry_point) == (index.m_conn, index.entry_point)
        for a, b in zip(index_arrays(loaded), index_arrays(index), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        if name == "many_layers":
            assert len(index.layers) >= 3

    @staticmethod
    def pinned_answers():
        """(query, ann answer, exact answer) for 60 queries of the 300x8
        build, each excluding its query's nearest rows so some beams run
        short."""
        table = EmbeddingTable(unit_rows(300, 8, seed=3))
        index = build_ann_index(table, m_conn=8, ef_construction=40, rng_seed=5)
        rng = np.random.default_rng(40)
        for i in range(60):
            q = table.vectors[i] if i % 2 else rng.normal(size=8)
            exclude = set(exact_topk(table, q, k=(5 * i) % 31 + 1).ids.tolist())
            yield i, q, ann_topk(index, q, k=10, ef_search=32, exclude=exclude), \
                exact_topk(table, q, k=10, exclude=exclude), table

    def test_answer_ids_are_pinned_and_short_beams_fall_back_to_exact(self):
        # sha256 of every answer's ids and truncated flag, recorded before
        # answers were re-scored by _row_scores: the ids must not move
        digest = hashlib.sha256()
        for i, _, got, want, _ in self.pinned_answers():
            if i in SHORT_IN_BEAM:
                assert got.ids.tobytes() == want.ids.tobytes()
                assert got.scores.tobytes() == want.scores.tobytes()
                assert not got.truncated
            digest.update(got.ids.tobytes())
            digest.update(bytes([got.truncated]))
        assert digest.hexdigest() == "4a4f64c633b1b9e3221767f6c33a30a89e63d3211abb30c95f3a952bb0a75c09"

    def test_answer_scores_are_the_row_scores(self):
        import graphebr.index as gi

        for _, q, got, _, table in self.pinned_answers():
            want = gi._row_scores(table.vectors, got.ids, q[None], np.zeros(len(got.ids), dtype=np.intp))
            assert got.scores.tobytes() == want.tobytes()
            assert np.array_equal(np.lexsort((got.ids, -want)), np.arange(len(want)))
