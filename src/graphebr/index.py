"""Embedding export plus exact and approximate top-k retrieval.

The exact path scores a block of queries against every row in float32,
keeps the rows that a proved rounding bound says could still rank in the
top k, and ranks that shortlist by float64 scores, ties broken by id: the
answer is the full float64 ranking's. The approximate path is a layered
navigable-small-world graph (HNSW) searched with a best-first beam;
similarity is the raw dot product in both paths so serving matches the
geometry the retrieval loss trained. The graph is one padded neighbour
array per layer, which the build writes in place, the beam reads row by
row, validation checks as arrays, and the index file stores as they are.
When exclusions leave the beam short of k ids, the approximate path
answers with the exact scan. Both paths report a row's score from one
row-score function, so a row scores the same bits in every answer.
"""

from __future__ import annotations

import heapq
import math
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property

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

# Screen-score entries per block of queries in the exact scan: 16 MiB of
# float32. A float32 product over the table runs several times faster per
# query once a block holds a few dozen queries.
_SCREEN_ENTRIES = 1 << 22

# Rows per chunk whose maxima bound the k-th best screen score.
_CHUNK = 8

# Below every float32 screen score, which lies in [-dim, dim], yet finite.
_FLOOR_MIN = -3.0e38


@dataclass(frozen=True)
class EmbeddingTable:
    """Row i is the embedding of global node i.

    The rows are a read-only C-ordered float64 array, so the float32 screen
    the exact scan caches from them cannot go stale. Any other input,
    a writeable array included, is copied.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.flags.writeable or not v.flags.c_contiguous:
            v = v.copy(order="C")
            v.flags.writeable = False
        if v.ndim != 2 or v.shape[1] < 1:
            raise ShapeError(f"embedding table: expected 2-D matrix, got {v.shape}")
        # finite squared norms bound every score: |q.v| <= max(|q|^2, |v|^2)
        if not np.isfinite(np.einsum("ij,ij->i", v, v)).all():
            raise ValidationError("embedding table: non-finite rows or squared row norms")
        object.__setattr__(self, "vectors", v)

    @cached_property
    def _screen(self):
        """(rows * 2**-shift as float32, shift, largest scaled row norm).

        shift puts the largest entry in [0.5, 1), so no scaled entry, product
        or score overflows float32. Built on the first scan, once per table.
        """
        shift = int(np.frexp(np.abs(self.vectors).max(initial=0.0))[1])
        scaled = np.ldexp(self.vectors, -shift)
        reach = math.sqrt(np.einsum("ij,ij->i", scaled, scaled).max(initial=0.0))
        return scaled.astype(np.float32), shift, reach

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
    rows.flags.writeable = False
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


def _data_lines(lines):
    """(line number, tokens) of each row line of a text table's body, whose
    first line is the file's line 2; blank lines and `#` comments are
    skipped, as np.loadtxt skips them."""
    for lineno, line in enumerate(lines, start=2):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _text_rows(path, lines, dim: int) -> np.ndarray:
    """A text table's body as a (rows, dim) matrix. np.loadtxt reads it;
    when it cannot, a Python pass finds the first bad line and names it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a body without rows is one
            rows = np.loadtxt(lines, ndmin=2)
        if rows.shape[1] == dim or not rows.size:
            return rows.reshape(-1, dim)
    except ValueError:  # a token that is not a number, or a ragged row
        pass
    parsed = []
    for lineno, tokens in _data_lines(lines):
        if len(tokens) != dim:
            raise ValidationError(f"embedding table {path}: line {lineno}: expected {dim} values, got {len(tokens)}")
        try:
            parsed.append([float(t) for t in tokens])
        except ValueError:
            raise ValidationError(f"embedding table {path}: line {lineno}: non-numeric value in {' '.join(tokens)!r}") from None
    return np.array(parsed, dtype=np.float64).reshape(-1, dim)


def load_table(path) -> EmbeddingTable:
    """Read either table format; binary is sniffed by its null header bytes.

    A text table is a `num_nodes dim` line, then one row of dim numbers per
    line. Any fault in it is one ValidationError that names the file and
    the line, counted from 1 at the header, as the graph parsers count.
    """
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
        flat.flags.writeable = False
        return EmbeddingTable(flat.reshape(num_nodes, dim))
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    try:
        num_nodes, dim = map(int, header.decode("utf-8").split())
    except (UnicodeDecodeError, ValueError):  # not two integers, or undecodable bytes
        raise ValidationError(f"embedding table {path}: line 1: malformed header") from None
    if num_nodes < 0 or dim < 1:
        raise ValidationError(f"embedding table {path}: line 1: malformed header")
    try:
        lines = body.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = 2 + body.count(b"\n", 0, exc.start)
        raise ValidationError(f"embedding table {path}: line {lineno}: undecodable bytes") from None
    rows = _text_rows(path, lines, dim)
    if len(rows) != num_nodes:
        raise ValidationError(f"embedding table {path}: line 1: header says {num_nodes} rows, found {len(rows)}")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.einsum("ij,ij->i", rows, rows))
    if not finite.all():
        lineno = [n for n, _ in _data_lines(lines)][np.argmin(finite)]
        raise ValidationError(f"embedding table {path}: line {lineno}: non-finite values or squared norm")
    rows.flags.writeable = False
    return EmbeddingTable(rows)


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
    excluded = integer_array(exclude if isinstance(exclude, np.ndarray) else list(exclude), "topk: excluded ids")
    if excluded.size and (excluded.min() < 0 or excluded.max() >= num_nodes):
        raise ValidationError("topk: excluded id out of range")
    return excluded.reshape(-1)


def _row_scores(vectors, ids, queries, rows) -> np.ndarray:
    """Float64 score of row ids[j] against queries[rows[j]], for every j.

    einsum sums each score over the d coordinates in one fixed order, so a
    row scores the same bits whichever other rows share the call: the
    score does not depend on the exclusion set, the shortlist, the block
    or the search path. A gemv over a gathered subset lacks this property.
    """
    return np.einsum("ij,ij->i", vectors[ids], queries[rows])


def _screen_floor(dim: int, kth: float, norm: float, exponent: int) -> float:
    """The lowest float32 screen score a row of a query's top k can have:
    kth - 2e of `exact_topk`, moved down so that rounding it to the nearest
    float32 cannot raise it, and kept above -inf, which marks an excluded
    row. The floor is _FLOOR_MIN when e cannot be bounded."""
    if (dim + 2) * 2.0**-24 > 0.25:
        return _FLOOR_MIN
    # once its exponent reaches 0 the underflow term already spans every
    # scaled score, which lies in [-dim, dim]
    e = 2.0 * ((dim + 2) * (2.0**-24 * norm + 2.0**-148) + dim * 2.0 ** min(-1074 - exponent, 0))
    low = kth - 2.0 * e
    # the nearest float32 lies within 2**-24 of a value, or 2**-150 below
    # float32's normal range
    return max(low - abs(low) * 2.0**-22 - 2.0**-140, _FLOOR_MIN)


def _kth_lower_bound(screen, k: int) -> list:
    """Per column of `screen`, a lower bound on its k-th largest entry, and
    -inf when it holds fewer than k.

    The bound is the k-th largest of the maxima of m disjoint chunks of
    rows: the k chunks at or above it hold k distinct entries. Chunk j is
    rows j, j + m, j + 2m, ..., so the maxima take one vectorized pass,
    and with chunks of at most _CHUNK rows the k best entries usually sit
    in k different chunks, which makes the bound exact.
    """
    n, num_queries = screen.shape
    if k > n:
        return [-math.inf] * num_queries
    width = max(1, min(_CHUNK, n // k))
    m = n // width
    top = screen[: m * width].reshape(width, m, num_queries).max(axis=0)
    return np.partition(top, m - k, axis=0)[m - k].tolist()


def _scan(table: EmbeddingTable, queries, k: int, rows, excluded) -> list:
    """The top-k answer of each row of `queries`: query rows[j] excludes id
    excluded[j], and repeats are harmless. `exact_topk` gives the proof."""
    rows32, shift, reach = table._screen
    num_nodes = table.num_nodes
    qshift = np.frexp(np.abs(queries).max(axis=1))[1]
    scaled = np.ldexp(queries, -qshift[:, None])
    # (rows, queries): this product is the faster way round
    screen = rows32 @ scaled.astype(np.float32).T
    screen[excluded, rows] = -np.inf
    kth = _kth_lower_bound(screen, k)
    norms = np.einsum("ij,ij->i", scaled, scaled).tolist()
    floor = [
        _screen_floor(table.dim, t, reach * math.sqrt(n2), shift + b)
        for t, n2, b in zip(kth, norms, qshift.tolist())
    ]
    ids, query = np.divmod(np.flatnonzero(screen >= np.array(floor, dtype=np.float32)), len(queries))
    scores = _row_scores(table.vectors, ids, queries, query)
    # query is the first key, so each query's shortlist keeps its place
    order = np.lexsort((ids, -scores, query))
    results, start = [], 0
    for count in np.bincount(query, minlength=len(queries)).tolist():
        best = order[start : start + min(count, k)]
        # the shortlist holds every kept row when fewer than k are kept
        results.append(TopkResult(ids=ids[best], scores=scores[best], truncated=count < k))
        start += count
    return results


def exact_topk(table: EmbeddingTable, query_vec, k: int, exclude=()) -> TopkResult:
    """Top-k rows by dot product with the query, ties broken by ascending id.

    The answer is the float64 ranking's: kept rows ordered by their
    `_row_scores` value, then id. It is found in two stages. The table and
    the query are scaled by powers of two, exactly, so that every entry
    lies in (-1, 1). One float32 product then scores every row (s32), and
    only rows with s32 >= t - 2e are scored in float64 and ranked, where t
    is the k-th best s32 among kept rows or, from `_kth_lower_bound`, a
    value at or below it (-inf when fewer than k rows are kept).

    The bound, in scaled units, with u = 2**-24, |q| the query's norm and M
    the largest row norm. Rounding q and a row v to float32 and summing
    the d products in any order, with or without FMA, leaves
    |s32 - q.v| <= (d + 2) u (1 + (d + 2) u) |q| M, plus at most
    2 d 2**-149 where entries or products fall below float32's normal
    range (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
    The float64 row score s64 is within d 2**-53 (1 + d 2**-53) |q| M of
    q.v, plus d 2**-1075 in unscaled units for float64 underflow. While
    (d + 2) u <= 1/4, all of this is below

        e = 2 ((d + 2) (u |q| M + 2**-148) + d 2**-1074 / 2**(a + b)),

    a and b the table's and the query's scaling exponents; a wider d makes
    e infinite, so every row is re-ranked. The k rows with s32 >= t have
    s64 >= t - e, so the k-th best s64 is at least t - e, and every row
    scoring at least that in float64, rows tied with it included, has
    s32 >= t - 2e. The threshold is rounded down to a float32. Every
    answer row's score comes from `_row_scores`, which does not depend on
    which other rows made the shortlist.
    """
    if k < 1:
        raise ValidationError("topk: k must be >= 1")
    q = _as_query(table.dim, query_vec)
    return _scan(table, q[None], k, 0, _excluded_ids(exclude, table.num_nodes))[0]


def exact_topk_block(table: EmbeddingTable, queries, k: int, exclude=None) -> list:
    """`exact_topk` of every row of `queries`, scanned in blocks of
    max(1, _SCREEN_ENTRIES // num_nodes) queries; each answer is bitwise the
    one `exact_topk` gives for its query alone.

    exclude is None or a CSR pair (counts, ids): query i excludes the
    counts[i] ids that follow those of the queries before it.
    """
    if k < 1:
        raise ValidationError("topk: k must be >= 1")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != table.dim:
        raise ShapeError(f"topk: queries of shape {queries.shape} vs table dim {table.dim}")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.einsum("ij,ij->i", queries, queries)).all():
            raise ValidationError("query vector has non-finite entries or squared norm")
    counts, ids = (np.zeros(len(queries), dtype=np.int64), ()) if exclude is None else exclude
    counts = integer_array(counts, "topk: exclusion counts")
    ids = _excluded_ids(ids, table.num_nodes)
    if counts.shape != (len(queries),) or counts.min(initial=0) < 0 or counts.sum() != len(ids):
        raise ValidationError("topk: exclusion counts do not split the excluded ids among the queries")
    ptr = np.concatenate([[0], np.cumsum(counts)])
    step = max(1, _SCREEN_ENTRIES // max(table.num_nodes, 1))
    results = []
    for start in range(0, len(queries), step):
        stop = min(start + step, len(queries))
        rows = np.repeat(np.arange(stop - start), counts[start:stop])
        results += _scan(table, queries[start:stop], k, rows, ids[ptr[start] : ptr[stop]])
    return results


@dataclass
class AnnIndex:
    """Layered proximity graph over the embedding rows.

    layers[L] is an (n, cap_L) intp array. Row i holds node i's links at
    layer L in the order they were made, then -1 padding. cap_0 is
    2 * m_conn and cap_L is m_conn above, each at most n - 1; a node whose
    level is below L has an all -1 row. So the graph takes
    n * (2 * m_conn + m_conn * max_level) integers: 6.4 MB for 10,000 rows
    at m_conn 16 with three upper layers. `table` is the embedding table
    the index was built or loaded from; the exact fallback scans it.
    """

    table: EmbeddingTable
    m_conn: int
    entry_point: int
    levels: np.ndarray
    layers: list

    @property
    def vectors(self) -> np.ndarray:
        return self.table.vectors

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
        table=table,
        m_conn=int(m_conn),
        entry_point=int(entry_point),
        levels=levels,
        layers=layers,
    )


def ann_topk(index: AnnIndex, query_vec, k: int, ef_search: int = 64, exclude=()) -> TopkResult:
    """Beam-searched top-k, ranked by `_row_scores`, ties by id.

    Exclusions are applied to the beam, and its k best ids by the beam's
    own scores are the answer. When the exclusions leave fewer than k ids
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
        return _scan(index.table, q[None], k, 0, excluded)[0]
    ids = np.array([n for _, n in kept[:k]], dtype=np.int64)
    scores = _row_scores(index.vectors, ids, q[None], np.zeros(k, dtype=np.intp))
    best = np.lexsort((ids, -scores))
    return TopkResult(ids=ids[best], scores=scores[best], truncated=False)


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
    arrays["vectors"].flags.writeable = False
    try:
        table = EmbeddingTable(arrays["vectors"])
    except ValueError as exc:
        raise ValidationError(f"ann index: vectors: {exc}") from exc
    _, m_conn, entry_point = header.tolist()
    index = AnnIndex(table, m_conn, entry_point, arrays["levels"], [arrays[n] for n in names[2:]])
    validate_index(index)
    return index
