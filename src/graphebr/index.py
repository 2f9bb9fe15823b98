"""Embedding export plus exact and approximate top-k retrieval.

The exact path is a full dot-product scan with deterministic tie-breaking.
The approximate path is a layered navigable-small-world graph (HNSW) searched
with a best-first beam; similarity is the raw dot product in both paths so
serving matches the geometry the retrieval loss trained. The graph is one
padded neighbour array per layer, which the build writes in place, the beam
reads row by row, validation checks as arrays, and the index file stores as
they are. When exclusions leave the beam short of k ids, the approximate
path answers with the exact scan.
"""

from __future__ import annotations

import heapq
import math
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeError, ValidationError, integer_array, require_seed
from .gat import EncoderParams, encode
from .graph import GraphStore
# Export samples through merge_examples and never calls khop_subgraph; the
# name stays importable because benchmarks/ traces index.khop_subgraph.
from .sampling import khop_subgraph, merge_examples  # noqa: F401

# Contexts encoded per batch by export; each row depends only on its own
# context, so the table is the same for any chunk size.
_EXPORT_CHUNK = 128

_FORMAT_VERSION = 2  # of the archive save_index writes


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
            ids = np.arange(start, min(start + _EXPORT_CHUNK, graph.num_nodes))
            batch = merge_examples(graph, ids[:, None], k, fanout, seeds=ids)
            Z = encode(params, batch)
            rows[ids] = Z.data[batch.query_locals]
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
            header = np.fromfile(fh, dtype="<i8", count=2).tolist()
            flat = np.fromfile(fh, dtype="<f8")
        if len(header) != 2 or min(header) < 0:
            raise ValidationError(f"embedding table {path}: binary header {header} is not two non-negative counts")
        num_nodes, dim = header
        if flat.size != num_nodes * dim:
            raise ValidationError(f"embedding table {path}: truncated payload")
        return EmbeddingTable(flat.reshape(num_nodes, dim))
    with open(path) as fh:
        try:
            num_nodes, dim = map(int, fh.readline().split())
        except ValueError:  # a token count other than two, a non-integer, or undecodable bytes
            raise ValidationError(f"embedding table {path}: malformed header") from None
        try:
            flat = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:  # a token that is not a number, or a ragged row
            raise ValidationError(f"embedding table {path}: {exc}") from None
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


def _excluded_ids(exclude, num_nodes: int) -> np.ndarray:
    """The exclusion set as ids; one integer and range rule for both search paths."""
    excluded = integer_array(list(exclude), "topk: excluded ids")
    if excluded.size and (excluded.min() < 0 or excluded.max() >= num_nodes):
        raise ValidationError("topk: excluded id out of range")
    return excluded


def _scan_topk(vectors, q, k: int, excluded) -> TopkResult:
    """Score every row, drop the excluded ones, rank by score then id.

    A candidate's score does not depend on the exclusion set; only the kept
    rows scoring at least the k-th best are sorted.
    """
    keep = np.ones(len(vectors), dtype=bool)
    keep[excluded] = False
    scores = vectors @ q
    ids = np.flatnonzero(keep)
    truncated = k > len(ids)
    if k < len(ids):
        neg = -scores[ids]
        # scores are finite: the table and the query have finite squared norms
        ids = ids[neg <= np.partition(neg, k - 1)[k - 1]]
    ids = ids[np.lexsort((ids, -scores[ids]))[:k]]
    return TopkResult(ids=ids, scores=scores[ids], truncated=truncated)


def exact_topk(table: EmbeddingTable, query_vec, k: int, exclude=()) -> TopkResult:
    """Full-scan top-k by dot product, ties broken by ascending node id."""
    if k < 1:
        raise ValidationError("topk: k must be >= 1")
    q = _as_query(table.dim, query_vec)
    return _scan_topk(table.vectors, q, k, _excluded_ids(exclude, table.num_nodes))


@dataclass
class AnnIndex:
    """Layered proximity graph over the embedding rows.

    layers[L] is an (n, cap_L) intp array. Row i holds node i's links at
    layer L in the order they were made, then -1 padding. cap_0 is
    2 * m_conn and cap_L is m_conn above, each at most n - 1; a node whose
    level is below L has an all -1 row. So the graph takes
    n * (2 * m_conn + m_conn * max_level) integers: 6.4 MB for 10,000 rows
    at m_conn 16 with three upper layers.
    """

    vectors: np.ndarray
    m_conn: int
    entry_point: int
    levels: np.ndarray
    layers: list

    @property
    def max_level(self) -> int:
        return len(self.layers) - 1


def _degree_cap(m_conn: int, layer: int, num_nodes: int) -> int:
    """Row width of a layer: a node links to at most num_nodes - 1 others,
    so m_conn alone never sizes the array."""
    return max(0, min(2 * m_conn if layer == 0 else m_conn, num_nodes - 1))


def _closest(vectors, center: int, ids, cap: int):
    """The cap ids most similar to `center`, ties to the smaller id."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = vectors[ids] @ vectors[center]
    return ids[np.lexsort((ids, -scores))[:cap]].tolist()


def _reachable(links, start: int) -> np.ndarray:
    """Which nodes a breadth-first walk over `links` reaches from `start`."""
    n = len(links)
    # slot n is what the -1 padding indexes, so padding always reads as reached
    reached = np.zeros(n + 1, dtype=bool)
    reached[[start, n]] = True
    frontier = np.array([start])
    while frontier.size:
        nbrs = links[frontier].ravel()
        frontier = np.unique(nbrs[~reached[nbrs]])
        reached[frontier] = True
    return reached[:n]


def _link_unreached(vectors, links, entry_point: int):
    """Give every node the walk from the entry point misses an in-link from
    the most similar reached node with a free slot.

    Pruning a full row can drop a node's last in-link: seen with unequal
    norms, all-equal rows and m_conn 2. This pass only adds links, so a
    graph whose every node is reached is left as it is.
    """
    reached = _reachable(links, entry_point)
    while not reached.all():
        node = int(np.argmin(reached))
        donors = np.flatnonzero(reached & (links[:, -1] == -1))
        if not donors.size:
            raise ValidationError(f"ann build: node {node} is unreachable and every reached row is full")
        donor = _closest(vectors, node, donors, 1)[0]
        links[donor, np.count_nonzero(links[donor] != -1)] = node
        reached |= _reachable(links, node)


def _greedy_descent(vectors, links, q, start: int) -> int:
    """Hill-climb to a local similarity maximum; strict improvement only."""
    best = int(start)
    best_score = float(vectors[best] @ q)
    while True:
        row = links[best]
        neighbors = row[row >= 0]
        if not neighbors.size:
            return best
        scores = np.dot(vectors.take(neighbors, axis=0), q)
        pick = int(np.lexsort((neighbors, -scores))[0])
        if not scores[pick] > best_score:
            return best
        best, best_score = int(neighbors[pick]), float(scores[pick])


def _search_layer(vectors, links, q, entries, ef: int):
    """Best-first beam of width ef; returns (score, id) pairs, unordered."""
    entries = np.unique(np.asarray(entries, dtype=np.intp))
    # slot n is what the -1 padding indexes, so padding always reads as seen
    unseen = np.ones(len(vectors) + 1, dtype=bool)
    unseen[-1] = False
    unseen[entries] = False
    scores = np.dot(vectors.take(entries, axis=0), q).tolist()
    entries = entries.tolist()
    frontier = [(-s, e) for s, e in zip(scores, entries)]
    heapq.heapify(frontier)
    best = list(zip(scores, entries))
    heapq.heapify(best)
    while len(best) > ef:
        heapq.heappop(best)
    while frontier:
        neg_score, node = heapq.heappop(frontier)
        full = len(best) == ef
        if full and -neg_score < best[0][0]:
            break
        row = links[node]
        fresh = row[unseen[row]]
        if not fresh.size:
            continue
        unseen[fresh] = False
        fresh_scores = np.dot(vectors.take(fresh, axis=0), q)
        if full:
            # the floor only rises, so a score at or below it now is never pushed
            above = fresh_scores > best[0][0]
            fresh, fresh_scores = fresh[above], fresh_scores[above]
        for s, n in zip(fresh_scores.tolist(), fresh.tolist()):
            if len(best) < ef:
                heapq.heappush(best, (s, n))
                heapq.heappush(frontier, (-s, n))
            elif s > best[0][0]:
                heapq.heappushpop(best, (s, n))
                heapq.heappush(frontier, (-s, n))
    return best


def build_ann_index(table: EmbeddingTable, m_conn: int = 16, ef_construction: int = 100, rng_seed: int = 0) -> AnnIndex:
    """Insert rows sequentially into a layered small-world graph.

    Levels follow the geometric rule floor(-ln(U) / ln(m_conn)); each
    insertion descends greedily to its level, then beam-searches each layer
    with ef_construction and links to the m_conn most similar nodes found.
    A last pass gives every node layer 0 no longer reaches an in-link.
    """
    if table.num_nodes < 1:
        raise ValidationError("ann build: empty table")
    if m_conn < 2:
        raise ValidationError("ann build: m_conn must be >= 2")
    if ef_construction < 1:
        raise ValidationError("ann build: ef_construction must be >= 1")
    require_seed(rng_seed, "ann build")
    vectors = table.vectors
    rng = np.random.default_rng(rng_seed)
    # 1 - U is in (0, 1], so the log never sees zero
    draws = 1.0 - rng.random(table.num_nodes)
    levels = np.floor(-np.log(draws) / np.log(m_conn)).astype(np.int64)

    layers = [
        np.full((table.num_nodes, _degree_cap(m_conn, L, table.num_nodes)), -1, dtype=np.intp)
        for L in range(int(levels.max()) + 1)
    ]
    # links per row, kept only while building: rows fill from the left
    degrees = [[0] * table.num_nodes for _ in layers]
    top, entry_point = int(levels[0]), 0

    for node in range(1, table.num_nodes):
        q = vectors[node]
        level = int(levels[node])
        current = entry_point
        for layer_id in range(top, level, -1):
            current = _greedy_descent(vectors, layers[layer_id], q, current)

        entries = [current]
        for layer_id in range(min(level, top), -1, -1):
            links, degree = layers[layer_id], degrees[layer_id]
            cap = links.shape[1]
            found = _search_layer(vectors, links, q, entries, ef_construction)
            ranked = [n for _, n in sorted(found, key=lambda sn: (-sn[0], sn[1]))]
            neighbors = ranked[:m_conn]
            links[node, : len(neighbors)] = neighbors
            degree[node] = len(neighbors)
            for nbr in neighbors:
                if degree[nbr] < cap:
                    links[nbr, degree[nbr]] = node
                    degree[nbr] += 1
                else:
                    links[nbr] = _closest(vectors, nbr, np.append(links[nbr], node), cap)
            entries = ranked

        if level > top:
            top, entry_point = level, node

    _link_unreached(vectors, layers[0], entry_point)
    return AnnIndex(
        vectors=vectors,
        m_conn=int(m_conn),
        entry_point=int(entry_point),
        levels=levels,
        layers=layers,
    )


def ann_topk(index: AnnIndex, query_vec, k: int, ef_search: int = 64, exclude=()) -> TopkResult:
    """Beam-searched top-k; results ranked by true score, ties by id.

    Exclusions are applied to the beam. When they leave fewer than k ids
    in it, the answer is the exact scan's, so truncated means only that k
    exceeds the candidates.
    """
    if k < 1:
        raise ValidationError("ann topk: k must be >= 1")
    if ef_search < k:
        raise ValidationError(f"ann topk: ef_search {ef_search} < k {k}")
    q = _as_query(index.vectors.shape[1], query_vec)
    excluded = _excluded_ids(exclude, len(index.vectors))
    current = index.entry_point
    for layer_id in range(index.max_level, 0, -1):
        current = _greedy_descent(index.vectors, index.layers[layer_id], q, current)
    found = _search_layer(index.vectors, index.layers[0], q, [current], ef_search)
    banned = set(excluded.tolist())
    kept = sorted((sn for sn in found if sn[1] not in banned), key=lambda sn: (-sn[0], sn[1]))
    if len(kept) < k:
        return _scan_topk(index.vectors, q, k, excluded)
    top = kept[:k]
    return TopkResult(
        ids=np.array([n for _, n in top], dtype=np.int64),
        scores=np.array([s for s, _ in top]),
        truncated=False,
    )


def validate_index(index: AnnIndex):
    """Check the structural invariants; raises ValidationError on breakage."""
    n = index.vectors.shape[0]
    levels = index.levels
    if not isinstance(levels, np.ndarray) or levels.dtype.kind not in "iu" or levels.shape != (n,):
        raise ValidationError(f"ann index: levels are not a ({n},) integer array")
    if not 0 <= index.entry_point < n:
        raise ValidationError("ann index: entry point out of range")
    if not index.layers or int(levels[index.entry_point]) != index.max_level:
        raise ValidationError("ann index: entry point is not on the top layer")
    for layer_id, links in enumerate(index.layers):
        cap = _degree_cap(index.m_conn, layer_id, n)
        if not isinstance(links, np.ndarray) or links.dtype != np.intp or links.shape != (n, cap):
            raise ValidationError(f"ann index: layer {layer_id} is not an ({n}, {cap}) intp array")
        linked = links != -1
        too_low = linked.any(axis=1) & (levels < layer_id)
        if too_low.any():
            raise ValidationError(f"ann index: node {np.argmax(too_low)} too low for layer {layer_id}")
        src, slot = np.nonzero(linked)
        dst = links[src, slot]
        leaves = (dst < 0) | (dst >= n)
        leaves[~leaves] = levels[dst[~leaves]] < layer_id
        if leaves.any():
            i = np.argmax(leaves)
            raise ValidationError(f"ann index: link {src[i]}->{dst[i]} leaves layer {layer_id}")
        gap = linked[:, 1:] & ~linked[:, :-1]
        if gap.any():
            raise ValidationError(f"ann index: link after padding at node {np.argmax(gap.any(axis=1))}")
        ordered = np.sort(links, axis=1)
        repeated = ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != -1)).any(axis=1)
        repeated |= (links == np.arange(n)[:, None]).any(axis=1)
        if repeated.any():
            raise ValidationError(f"ann index: self or duplicate link at node {np.argmax(repeated)}")
    count = int(_reachable(index.layers[0], index.entry_point).sum())
    if count != n:
        raise ValidationError(f"ann index: only {count} of {n} nodes reachable")


def save_index(index: AnnIndex, path):
    """Write the arrays, as they are held in memory, into one compressed .npz
    archive at exactly `path`: `header` (format version, m_conn, entry
    point), `vectors`, `levels` and `layer0`, `layer1`, ... Each member has
    a fixed timestamp, so the bytes depend on the index alone."""
    header = np.array([_FORMAT_VERSION, index.m_conn, index.entry_point], dtype=np.int64)
    layers = {f"layer{L}": links for L, links in enumerate(index.layers)}
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in dict(header=header, vectors=index.vectors, levels=index.levels, **layers).items():
            member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            member.compress_type = zipfile.ZIP_DEFLATED
            with archive.open(member, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def load_index(path) -> AnnIndex:
    """Read what save_index wrote; validate_index checks the graph. Any other
    file, the version-1 JSON document included, is refused: an index is
    derived data, and `graphebr index` rebuilds it from the table."""
    try:
        with zipfile.ZipFile(path) as archive:
            arrays = {n.removesuffix(".npy"): np.lib.format.read_array(archive.open(n), allow_pickle=False)
                      for n in archive.namelist()}
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValidationError(f"ann index: {path} is not an index archive ({exc})") from exc
    header = np.asarray(arrays.pop("header", None))
    if header.dtype.kind not in "iu" or header.shape != (3,) or header[0] != _FORMAT_VERSION:
        raise ValidationError(f"ann index: header is not the integers [{_FORMAT_VERSION}, m_conn, entry point]")
    names = ["vectors", "levels", *(f"layer{L}" for L in range(len(arrays) - 2))]
    if sorted(arrays) != sorted(names):
        raise ValidationError(f"ann index: expected vectors, levels and layer0.., found {sorted(arrays)}")
    try:
        vectors = EmbeddingTable(arrays["vectors"]).vectors
    except ValueError as exc:
        raise ValidationError(f"ann index: vectors: {exc}") from exc
    _, m_conn, entry_point = header.tolist()
    index = AnnIndex(vectors, m_conn, entry_point, arrays["levels"], [arrays[n] for n in names[2:]])
    validate_index(index)
    return index
