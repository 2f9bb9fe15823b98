"""Embedding export plus exact and approximate top-k retrieval.

The exact path is a full dot-product scan with deterministic tie-breaking.
The approximate path is a layered navigable-small-world graph searched with
a best-first beam; similarity is the raw dot product in both paths so
serving matches the geometry the retrieval loss trained.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeError, ValidationError
from .gat import EncoderParams, encode
from .graph import GraphStore
# Export samples through khop_batch and never calls khop_subgraph; the
# name stays importable because benchmarks/ traces index.khop_subgraph.
from .sampling import khop_batch, khop_subgraph  # noqa: F401

# Contexts encoded per batch by export; each row depends only on its own
# context, so the table is the same for any chunk size.
_EXPORT_CHUNK = 128


@dataclass(frozen=True)
class EmbeddingTable:
    """Row i is the embedding of global node i."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ShapeError(f"embedding table: expected 2-D matrix, got {v.shape}")
        # finite squared norms bound every score: |q.v| <= max(|q|^2, |v|^2)
        if not np.isfinite(np.einsum("ij,ij->i", v, v)).all():
            raise ValidationError("embedding table: non-finite rows or squared row norms")
        object.__setattr__(self, "vectors", v)

    @property
    def num_nodes(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class TopkResult:
    """Ranked retrieval answer; truncated marks k exceeding the candidates."""

    ids: np.ndarray
    scores: np.ndarray
    truncated: bool


def export_embeddings(params: EncoderParams, graph: GraphStore, k: int, fanout) -> EmbeddingTable:
    """Embed every node from its fanout-capped k-hop context.

    Context sampling is seeded by the node id, so repeated exports with the
    same arguments produce identical tables.
    """
    if graph.features.shape[1] != params.feature_dim:
        raise ValidationError(
            f"export: graph feature dim {graph.features.shape[1]} vs "
            f"encoder input {params.feature_dim}"
        )
    rows = np.empty((graph.num_nodes, params.embedding_dim))
    with ad.no_grad():
        for start in range(0, graph.num_nodes, _EXPORT_CHUNK):
            ids = range(start, min(start + _EXPORT_CHUNK, graph.num_nodes))
            batch = khop_batch(graph, ids, k, fanout, seeds=ids)
            Z = encode(params, batch)
            rows[start : ids.stop] = Z.data[batch.query_locals]
    return EmbeddingTable(rows)


def save_table(table: EmbeddingTable, path, binary: bool = False):
    """Write `num_nodes dim` header plus row-major values (text or binary)."""
    if binary:
        with open(path, "wb") as fh:
            np.array([table.num_nodes, table.dim], dtype="<i8").tofile(fh)
            table.vectors.astype("<f8").tofile(fh)
        return
    with open(path, "w") as fh:
        fh.write(f"{table.num_nodes} {table.dim}\n")
        for row in table.vectors:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def load_table(path) -> EmbeddingTable:
    """Read either table format; binary is sniffed by its null header bytes."""
    with open(path, "rb") as fh:
        head = fh.read(16)
    if b"\x00" in head:
        with open(path, "rb") as fh:
            num_nodes, dim = np.fromfile(fh, dtype="<i8", count=2)
            flat = np.fromfile(fh, dtype="<f8")
        if flat.size != num_nodes * dim:
            raise ValidationError(f"embedding table {path}: truncated payload")
        return EmbeddingTable(flat.reshape(int(num_nodes), int(dim)))
    with open(path) as fh:
        first = fh.readline().split()
        if len(first) != 2:
            raise ValidationError(f"embedding table {path}: malformed header")
        num_nodes, dim = int(first[0]), int(first[1])
        flat = np.loadtxt(fh, ndmin=2)
    if flat.shape != (num_nodes, dim):
        raise ValidationError(
            f"embedding table {path}: header says {(num_nodes, dim)}, found {flat.shape}"
        )
    return EmbeddingTable(flat)


def _as_query(table_dim: int, query_vec) -> np.ndarray:
    q = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    if q.shape[0] != table_dim:
        raise ShapeError(f"query dim {q.shape[0]} vs table dim {table_dim}")
    with np.errstate(over="ignore"):
        norm2 = np.dot(q, q)
    if not math.isfinite(norm2):
        raise ValidationError("query vector has non-finite entries or squared norm")
    return q


def exact_topk(table: EmbeddingTable, query_vec, k: int, exclude=()) -> TopkResult:
    """Full-scan top-k by dot product, ties broken by ascending node id.

    Every row is scored, so a candidate's score does not depend on the
    exclusion set; only the kept rows scoring at least the k-th best are
    sorted.
    """
    if k < 1:
        raise ValidationError("topk: k must be >= 1")
    q = _as_query(table.dim, query_vec)
    keep = np.ones(table.num_nodes, dtype=bool)
    excluded = np.fromiter((int(e) for e in exclude), dtype=np.int64)
    if excluded.size:
        if excluded.min() < 0 or excluded.max() >= table.num_nodes:
            raise ValidationError("topk: excluded id out of range")
        keep[excluded] = False
    scores = table.vectors @ q
    ids = np.flatnonzero(keep)
    truncated = k > len(ids)
    if k < len(ids):
        neg = -scores[ids]
        # scores are finite: the table and the query have finite squared norms
        ids = ids[neg <= np.partition(neg, k - 1)[k - 1]]
    ids = ids[np.lexsort((ids, -scores[ids]))[:k]]
    return TopkResult(ids=ids, scores=scores[ids], truncated=truncated)


@dataclass
class AnnIndex:
    """Layered proximity graph over the embedding rows.

    layers[L] maps node id to its neighbor list at layer L; a node appears
    in layers 0..levels[id]. Per-layer degree is capped at m_conn, twice
    that on the bottom layer.
    """

    vectors: np.ndarray
    m_conn: int
    ef_construction: int
    entry_point: int
    levels: np.ndarray
    layers: list

    @property
    def max_level(self) -> int:
        return len(self.layers) - 1


def _degree_cap(m_conn: int, layer: int) -> int:
    return 2 * m_conn if layer == 0 else m_conn


def _closest(vectors, center: int, ids, cap: int):
    """The cap ids most similar to `center`, ties to the smaller id."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = vectors[ids] @ vectors[center]
    return ids[np.lexsort((ids, -scores))[:cap]].tolist()


def _greedy_descent(vectors, adjacency, q, start: int) -> int:
    """Hill-climb to a local similarity maximum; strict improvement only."""
    best = int(start)
    best_score = float(vectors[best] @ q)
    improved = True
    while improved:
        improved = False
        neighbors = adjacency.get(best, ())
        if not neighbors:
            break
        scores = vectors[neighbors] @ q
        pick = int(np.lexsort((neighbors, -scores))[0])
        if scores[pick] > best_score:
            best, best_score = int(neighbors[pick]), float(scores[pick])
            improved = True
    return best


def _search_layer(vectors, adjacency, q, entries, ef: int):
    """Best-first beam of width ef; returns (score, id) pairs, unordered."""
    entries = sorted(set(int(e) for e in entries))
    scores = vectors[entries] @ q
    visited = set(entries)
    frontier = [(-s, e) for s, e in zip(scores, entries)]
    heapq.heapify(frontier)
    best = list(zip(scores, entries))
    heapq.heapify(best)
    while len(best) > ef:
        heapq.heappop(best)
    while frontier:
        neg_score, node = heapq.heappop(frontier)
        if len(best) == ef and -neg_score < best[0][0]:
            break
        fresh = [n for n in adjacency.get(node, ()) if n not in visited]
        if not fresh:
            continue
        visited.update(fresh)
        fresh_scores = vectors[fresh] @ q
        for s, n in zip(fresh_scores, fresh):
            if len(best) < ef:
                heapq.heappush(best, (float(s), n))
                heapq.heappush(frontier, (-float(s), n))
            elif s > best[0][0]:
                heapq.heappushpop(best, (float(s), n))
                heapq.heappush(frontier, (-float(s), n))
    return best


def build_ann_index(table: EmbeddingTable, m_conn: int = 16, ef_construction: int = 100, rng_seed: int = 0) -> AnnIndex:
    """Insert rows sequentially into a layered small-world graph.

    Levels follow the geometric rule floor(-ln(U) / ln(m_conn)); each
    insertion descends greedily to its level, then beam-searches each layer
    with ef_construction and links to the m_conn most similar nodes found.
    """
    if table.num_nodes < 1:
        raise ValidationError("ann build: empty table")
    if m_conn < 2:
        raise ValidationError("ann build: m_conn must be >= 2")
    if ef_construction < 1:
        raise ValidationError("ann build: ef_construction must be >= 1")
    vectors = table.vectors
    rng = np.random.default_rng(rng_seed)
    # 1 - U is in (0, 1], so the log never sees zero
    draws = 1.0 - rng.random(table.num_nodes)
    levels = np.floor(-np.log(draws) / np.log(m_conn)).astype(np.int64)

    layers = [dict() for _ in range(int(levels[0]) + 1)]
    for layer in layers:
        layer[0] = []
    entry_point = 0

    for node in range(1, table.num_nodes):
        q = vectors[node]
        level = int(levels[node])
        top = len(layers) - 1
        current = entry_point
        for layer_id in range(top, level, -1):
            current = _greedy_descent(vectors, layers[layer_id], q, current)

        entries = [current]
        for layer_id in range(min(level, top), -1, -1):
            adjacency = layers[layer_id]
            found = _search_layer(vectors, adjacency, q, entries, ef_construction)
            ranked = [n for _, n in sorted(found, key=lambda sn: (-sn[0], sn[1]))]
            neighbors = ranked[: m_conn]
            adjacency[node] = list(neighbors)
            cap = _degree_cap(m_conn, layer_id)
            for nbr in neighbors:
                links = adjacency[nbr]
                links.append(node)
                if len(links) > cap:
                    adjacency[nbr] = _closest(vectors, nbr, links, cap)
            entries = ranked

        while level >= len(layers):
            layers.append({node: []})
            entry_point = node

    return AnnIndex(
        vectors=vectors,
        m_conn=int(m_conn),
        ef_construction=int(ef_construction),
        entry_point=int(entry_point),
        levels=levels,
        layers=layers,
    )


def ann_topk(index: AnnIndex, query_vec, k: int, ef_search: int = 64, exclude=()) -> TopkResult:
    """Beam-searched top-k; results ranked by true score, ties by id."""
    if k < 1:
        raise ValidationError("ann topk: k must be >= 1")
    if ef_search < k:
        raise ValidationError(f"ann topk: ef_search {ef_search} < k {k}")
    q = _as_query(index.vectors.shape[1], query_vec)
    current = index.entry_point
    for layer_id in range(index.max_level, 0, -1):
        current = _greedy_descent(index.vectors, index.layers[layer_id], q, current)
    found = _search_layer(index.vectors, index.layers[0], q, [current], ef_search)
    banned = set(int(e) for e in exclude)
    kept = [(s, n) for s, n in found if n not in banned]
    kept.sort(key=lambda sn: (-sn[0], sn[1]))
    top = kept[:k]
    return TopkResult(
        ids=np.array([n for _, n in top], dtype=np.int64),
        scores=np.array([s for s, _ in top]),
        truncated=len(top) < k,
    )


def validate_index(index: AnnIndex):
    """Check the structural invariants; raises ValidationError on breakage."""
    n = index.vectors.shape[0]
    if index.levels.shape != (n,):
        raise ValidationError(f"ann index: levels of shape {index.levels.shape} for {n} rows")
    if not 0 <= index.entry_point < n:
        raise ValidationError("ann index: entry point out of range")
    if int(index.levels[index.entry_point]) != index.max_level:
        raise ValidationError("ann index: entry point is not on the top layer")
    for layer_id, adjacency in enumerate(index.layers):
        cap = _degree_cap(index.m_conn, layer_id)
        for node, neighbors in adjacency.items():
            if not 0 <= node < n:
                raise ValidationError(f"ann index: node {node} out of range at layer {layer_id}")
            if index.levels[node] < layer_id:
                raise ValidationError(f"ann index: node {node} too low for layer {layer_id}")
            if len(neighbors) > cap:
                raise ValidationError(f"ann index: degree {len(neighbors)} over cap at layer {layer_id}")
            if len(set(neighbors)) != len(neighbors) or node in neighbors:
                raise ValidationError(f"ann index: self or duplicate link at node {node}")
            for nbr in neighbors:
                if nbr not in adjacency:
                    raise ValidationError(f"ann index: link {node}->{nbr} leaves layer {layer_id}")
    reached = {index.entry_point}
    queue = [index.entry_point]
    while queue:
        node = queue.pop()
        for nbr in index.layers[0].get(node, ()):
            if nbr not in reached:
                reached.add(nbr)
                queue.append(nbr)
    if len(reached) != n:
        raise ValidationError(f"ann index: only {len(reached)} of {n} nodes reachable")


def index_to_dict(index: AnnIndex) -> dict:
    return {
        "version": "1",
        "m_conn": index.m_conn,
        "ef_construction": index.ef_construction,
        "entry_point": index.entry_point,
        "levels": index.levels.tolist(),
        "layers": [
            {str(node): list(neighbors) for node, neighbors in adjacency.items()}
            for adjacency in index.layers
        ],
        "vectors": index.vectors.tolist(),
    }


def index_from_dict(raw) -> AnnIndex:
    """Parse and validate an index document; malformed files are rejected."""
    if not isinstance(raw, dict):
        raise ValidationError("ann index: expected a JSON object")
    if raw.get("version") != "1":
        raise ValidationError(f"ann index: unsupported version {raw.get('version')!r}")
    try:
        index = AnnIndex(
            vectors=EmbeddingTable(raw["vectors"]).vectors,
            m_conn=int(raw["m_conn"]),
            ef_construction=int(raw["ef_construction"]),
            entry_point=int(raw["entry_point"]),
            levels=np.asarray(raw["levels"], dtype=np.int64),
            layers=[
                {int(node): [int(n) for n in neighbors] for node, neighbors in adjacency.items()}
                for adjacency in raw["layers"]
            ],
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"ann index: malformed document ({exc})") from exc
    validate_index(index)
    return index


def save_index(index: AnnIndex, path):
    with open(path, "w") as fh:
        json.dump(index_to_dict(index), fh, sort_keys=True)


def load_index(path) -> AnnIndex:
    with open(path) as fh:
        return index_from_dict(json.load(fh))
