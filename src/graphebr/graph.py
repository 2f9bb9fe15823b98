"""Immutable undirected graph storage, text I/O, and synthetic benchmarks."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import GraphParseError, ValidationError, integer_array, require_seed


class GraphStore:
    """An undirected graph with per-node features, stored as CSR adjacency.

    Construction deduplicates and symmetrizes the given edge pairs and drops
    self-loops. Instances are treated as immutable after construction and are
    safe for concurrent reads.
    """

    def __init__(self, features, edges):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValidationError("graph: features must be a 2-D matrix")
        if not np.isfinite(features).all():
            raise ValidationError("graph: features must be finite")
        n = features.shape[0]
        edges = integer_array(edges, "graph: edge endpoints").reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValidationError("graph: edge endpoint out of range")
        lo, hi = np.sort(edges, axis=1).T
        # one key u * n + v per pair with u < v, so sorting keys sorts pairs
        u, v = np.divmod(np.unique((lo * n + hi)[lo != hi]), n)
        self._indices = np.sort(np.concatenate([u * n + v, v * n + u])) % n
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(np.concatenate([u, v]), minlength=n), out=self._indptr[1:])
        self._pairs = np.column_stack([u, v])
        self.features = features
        self.num_nodes = n
        self.feature_dim = features.shape[1]
        self.degrees = np.diff(self._indptr)

    @property
    def num_edges(self) -> int:
        return len(self._pairs)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of node u."""
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def neighbors_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Degrees of `nodes`, and their sorted neighbor ids joined in that order."""
        starts, degree = self._indptr[nodes], self.degrees[nodes]
        offsets = np.cumsum(degree) - degree
        return degree, self._indices[np.repeat(starts - offsets, degree) + np.arange(degree.sum())]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return pos < len(nbrs) and nbrs[pos] == v

    def undirected_edges(self) -> np.ndarray:
        """All edges as (u, v) pairs with u < v, sorted."""
        return self._pairs.copy()

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.asarray(self.features.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self._pairs).tobytes())
        return h.hexdigest()


def load_graph(edge_list_path, features_path) -> GraphStore:
    """Read a graph from an edge-list file and a node-feature file.

    The edge file holds one whitespace-separated `u v` pair per line; the
    feature file holds one row of decimal reals per node. Lines that are
    blank or start with `#` are skipped in both files.
    """
    features = _read_features(features_path)
    n = features.shape[0]
    edges = []
    with open(edge_list_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            tokens = text.split()
            if len(tokens) != 2:
                raise GraphParseError(
                    edge_list_path, lineno, f"expected 2 tokens, got {len(tokens)}"
                )
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphParseError(
                    edge_list_path, lineno, f"non-integer node id in {text!r}"
                ) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(
                    f"{edge_list_path}:{lineno}: node id out of range [0, {n})"
                )
            edges.append((u, v))
    return GraphStore(features, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _read_features(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            tokens = text.split()
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise GraphParseError(
                    path, lineno, f"expected {width} values, got {len(tokens)}"
                )
            try:
                row = [float(t) for t in tokens]
            except ValueError:
                raise GraphParseError(path, lineno, "non-numeric feature value") from None
            if not all(np.isfinite(row)):
                raise ValidationError(f"{path}:{lineno}: non-finite feature value")
            rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: feature file is empty")
    return np.asarray(rows, dtype=np.float64)


def save_graph(graph: GraphStore, edge_list_path, features_path) -> None:
    """Write a graph in the format accepted by load_graph."""
    with open(edge_list_path, "w", encoding="utf-8") as fh:
        for u, v in graph.undirected_edges():
            fh.write(f"{u} {v}\n")
    with open(features_path, "w", encoding="utf-8") as fh:
        for row in graph.features:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def generate_synthetic_graph(
    num_nodes: int,
    num_communities: int,
    p_in: float,
    p_out: float,
    feature_dim: int,
    cold_start_fraction: float,
    rng_seed: int,
) -> GraphStore:
    """Sample a stochastic-block-model graph with planted communities.

    Communities are contiguous, near-equal blocks. Node features are a noisy
    community indicator in the first `num_communities` columns plus standard
    normal coordinates in the rest. A `cold_start_fraction` of nodes keeps at
    most 2 of their incident edges, modeling low-degree users.

    Costs one uniform draw per node pair, O(n^2) in all, through one reused
    buffer the size of the largest block pair, and O(E) memory beyond it.
    No draw is skipped: criterion 1, the determinism fixture and the
    benchmark's graphs are pinned to this draw stream.
    """
    if num_nodes < 2:
        raise ValidationError("synthetic graph: num_nodes must be at least 2")
    if num_communities < 1 or num_communities > num_nodes:
        raise ValidationError("synthetic graph: invalid community count")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValidationError("synthetic graph: requires 0 <= p_out < p_in <= 1")
    if not 0.0 <= cold_start_fraction <= 0.5:
        raise ValidationError("synthetic graph: cold_start_fraction outside [0, 0.5]")
    if feature_dim < num_communities:
        raise ValidationError("synthetic graph: feature_dim below community count")
    require_seed(rng_seed, "synthetic graph")

    rng = np.random.default_rng(rng_seed)
    sizes = np.full(num_communities, num_nodes // num_communities, dtype=np.int64)
    sizes[: num_nodes % num_communities] += 1
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    # Sizes are non-increasing, so block 0's triangle or the pair (0, 1) is
    # the largest draw; every block pair fills a prefix of the same buffer.
    draws = np.empty(max(sizes[0] * (sizes[0] - 1) // 2, sizes[0] * sizes[1:].max(initial=0)))
    below = np.empty(draws.size, dtype=bool)

    def hits(count, p):
        return np.flatnonzero(np.less(rng.random(out=draws[:count]), p, out=below[:count]))

    chunks = []
    for b in range(num_communities):
        s = sizes[b]
        # pairs i < j of the block in row-major order; row i starts at starts[i]
        starts = np.concatenate([[0], np.cumsum(np.arange(s - 1, 1, -1))])
        k = hits(s * (s - 1) // 2, p_in)
        i = np.searchsorted(starts, k, side="right") - 1
        chunks.append(np.column_stack([i + offsets[b], k - starts[i] + i + 1 + offsets[b]]))
        for c in range(b + 1, num_communities):
            i, j = np.divmod(hits(s * sizes[c], p_out), sizes[c])
            chunks.append(np.column_stack([i + offsets[b], j + offsets[c]]))
    edges = np.concatenate(chunks)

    features = np.zeros((num_nodes, feature_dim))
    features[np.arange(num_nodes), np.repeat(np.arange(num_communities), sizes)] = 1.0
    features[:, :num_communities] += rng.normal(0.0, 0.3, (num_nodes, num_communities))
    if feature_dim > num_communities:
        features[:, num_communities:] = rng.normal(size=(num_nodes, feature_dim - num_communities))

    num_cold = int(cold_start_fraction * num_nodes)
    if num_cold:
        # CSR of both directions; `reverse` maps a directed edge to its twin. Each
        # draw depends on earlier removals, so the loop over cold nodes is sequential.
        u, v = edges.T
        keys = np.sort(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
        source, target = np.divmod(keys, num_nodes)
        reverse = np.searchsorted(keys, target * num_nodes + source)
        indptr = np.searchsorted(source, np.arange(num_nodes + 1))
        alive = np.ones(keys.size, dtype=bool)
        for node in rng.choice(num_nodes, size=num_cold, replace=False):
            pos = indptr[node] + np.flatnonzero(alive[indptr[node] : indptr[node + 1]])
            if len(pos) <= 2:
                continue
            nbrs = target[pos]
            keep = rng.choice(nbrs, size=2, replace=False)
            drop = pos[(nbrs != keep[0]) & (nbrs != keep[1])]
            alive[drop] = alive[reverse[drop]] = False
        edges = np.column_stack([source, target])[alive & (source < target)]

    return GraphStore(features, edges)
