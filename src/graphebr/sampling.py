"""K-hop subgraph sampling, retrieval example construction, and the
stochastic augmentations used by the auxiliary training objectives."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import SkipExample, ValidationError, integer_array, require_field_types
from .graph import GraphStore


@dataclass(frozen=True)
class Subgraph:
    """Sampled neighborhoods of one or more examples, re-indexed locally.

    Row i belongs to example `example_of[i]`. Examples are disjoint: a node
    may repeat across examples, so per-example edge removals cannot leak
    between them, but not within one. `local_edges` materializes both
    directions of every undirected edge. Roots used as retrieval or masking
    targets are listed in `query_locals`. Row b of `candidate_rows` holds
    example b's candidate rows, and the same row of `labels` marks its one
    positive. With the last three omitted, a subgraph is one example with
    no candidates.
    """

    local_features: np.ndarray
    local_edges: np.ndarray
    global_ids: np.ndarray
    query_locals: np.ndarray
    example_of: np.ndarray = None
    candidate_rows: np.ndarray = None
    labels: np.ndarray = None

    def __post_init__(self):
        m = len(self.global_ids)
        omitted = {"example_of": m, "candidate_rows": (1, 0), "labels": (1, 0)}
        for f in fields(self):
            value = getattr(self, f.name)
            value = np.zeros(omitted[f.name]) if value is None else value
            dtype = np.float64 if f.name in ("local_features", "labels") else np.int64
            object.__setattr__(self, f.name, np.asarray(value, dtype=dtype))
        object.__setattr__(self, "local_edges", self.local_edges.reshape(-1, 2))
        if self.local_features.shape[0] != m or len(self.example_of) != m:
            raise ValidationError("subgraph: per-node arrays disagree on node count")
        if m:
            # sorting the keys is much cheaper than np.unique, and
            # replace() re-runs this check
            keys = np.sort(self._row_keys())
            if (keys[1:] == keys[:-1]).any():
                raise ValidationError("subgraph: global_ids repeat within an example")
        for what, rows in (
            ("edge endpoint", self.local_edges),
            ("query node", self.query_locals),
            ("candidate", self.candidate_rows),
        ):
            if rows.size and (rows.min() < 0 or rows.max() >= m):
                raise ValidationError(f"subgraph: {what} out of range")
        labels = self.labels
        if self.candidate_rows.ndim != 2 or labels.shape != self.candidate_rows.shape:
            raise ValidationError("subgraph: labels misaligned with candidates")
        if labels.size and not (
            ((labels == 0.0) | (labels == 1.0)).all() and (labels.sum(axis=1) == 1.0).all()
        ):
            raise ValidationError("subgraph: labels must be one-hot")

    @property
    def num_nodes(self) -> int:
        return len(self.global_ids)

    def _row_keys(self) -> np.ndarray:
        """One int64 key per row, ordered like (example_of, global_ids)."""
        ids = self.global_ids - self.global_ids.min()
        return self.example_of * (int(ids.max()) + 1) + ids

    def canonical_order(self) -> np.ndarray:
        """Permutation placing rows by example, then by ascending global id."""
        if not self.num_nodes:
            return np.zeros(0, dtype=np.int64)
        return np.argsort(self._row_keys())  # keys are unique, so any sort is stable


@dataclass(frozen=True)
class AugmentationConfig:
    """Stochastic view parameters for the two auxiliary objectives."""

    edge_drop_prob: float = 0.2
    feature_drop_prob: float = 0.2

    def __post_init__(self):
        require_field_types(self, "augmentation")
        for name in ("edge_drop_prob", "feature_drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValidationError(f"augmentation: {name} must lie in [0, 1)")


def khop_subgraph(graph: GraphStore, query: int, k: int, fanout, rng_seed) -> Subgraph:
    """Sample the fanout-capped k-hop neighborhood around a query node.

    Per hop, each frontier node contributes at most `fanout` of its
    neighbors, drawn uniformly without replacement; `fanout=None` keeps all
    of them, which reproduces the exact breadth-first k-hop closure. Nodes
    come in first-visit order and edges in ascending (min, max) global-id
    order; `_contexts` documents the draw order, which the reference oracle
    in tests/test_sampling.py (TestReferenceOracle) pins bitwise.
    """
    return merge_examples(graph, [[query]], k, fanout, [rng_seed])


def merge_examples(graph: GraphStore, roots, k: int, fanout, seeds) -> Subgraph:
    """Build the batch whose example b unions the k-hop contexts of row b
    of `roots` (examples, width): its query, then its candidates, positive
    first.

    Context c, in row-major order, draws from seeds[c]. Each example's query
    is its first row and listed in `query_locals`; `candidate_rows` locate
    the rest of its roots and `labels` mark the first of them as positive.
    With two or more roots per example, the query-positive edge is withheld
    from that example's edges.
    """
    roots = integer_array(roots, "khop: query ids")
    num, width = roots.shape
    n = graph.num_nodes
    out_of_range = roots[(roots < 0) | (roots >= n)]
    if out_of_range.size:
        raise ValidationError(f"khop: query id {out_of_range[0]} out of range")
    withheld = roots[:, :2] if width > 1 else None
    example_of, ids, edges = _contexts(graph, roots, k, fanout, seeds, withheld)
    candidate_rows = _positions(
        example_of * n + ids, (np.arange(num)[:, None] * n + roots[:, 1:]).ravel()
    )
    labels = np.zeros((num, width - 1))
    labels[:, :1] = 1.0
    return Subgraph(
        local_features=graph.features[ids],
        local_edges=edges,
        global_ids=ids,
        query_locals=np.searchsorted(example_of, np.arange(num)),
        example_of=example_of,
        candidate_rows=candidate_rows.reshape(num, width - 1),
        labels=labels,
    )


def _contexts(graph: GraphStore, roots: np.ndarray, k: int, fanout, seeds, withheld=None):
    """Expand one k-hop context per root in lockstep, then union each row's.

    `roots` is (examples, contexts per example); context c (in row-major
    order) draws from its own generator, seeded by seeds[c]. Hop by hop,
    each frontier node whose degree exceeds `fanout` takes exactly one
    `rng.choice` draw, in its context's frontier order; every other node
    takes all its neighbors. Each context therefore draws what the plain
    breadth-first loop that tests/test_sampling.py (TestReferenceOracle)
    keeps as its bitwise reference does.

    Each example unions its contexts in order: nodes in first-visit order;
    edges are its distinct undirected pairs, minus its `withheld` (u, v)
    row if given, as both directions of positions in the returned ids:
    every (min, max) in ascending global-id order, then every (max, min).
    Returns (example_of, ids, edges), grouped by example.
    """
    if k < 1:
        raise ValidationError("khop: k must be at least 1")
    if fanout is not None and fanout < 1:
        raise ValidationError("khop: fanout must be at least 1")
    n = graph.num_nodes
    indptr, indices = graph._indptr, graph._indices
    rngs = {}
    frontier = roots.ravel()
    frontier_ctx = np.arange(len(frontier), dtype=np.int64)
    seen = frontier_ctx * n + frontier
    ctxs, ids, edge_ctxs, srcs, dsts = [frontier_ctx], [frontier], [], [], []
    for _ in range(k):
        if not len(frontier):
            break
        starts = indptr[frontier]
        degrees = indptr[frontier + 1] - starts
        take = degrees if fanout is None else np.minimum(degrees, fanout)
        ends = np.cumsum(take)
        dst = indices[np.repeat(starts - (ends - take), take) + np.arange(ends[-1])]
        if fanout is not None:
            capped = np.flatnonzero(degrees > fanout)
            for c, start, stop, end in zip(
                *(a[capped].tolist() for a in (frontier_ctx, starts, starts + degrees, ends))
            ):
                if c not in rngs:
                    rngs[c] = np.random.default_rng(seeds[c])
                draw = rngs[c].choice(indices[start:stop], size=fanout, replace=False)
                dst[end - fanout : end] = draw
        dst_ctx = np.repeat(frontier_ctx, take)
        edge_ctxs.append(dst_ctx)
        srcs.append(np.repeat(frontier, take))
        dsts.append(dst)
        # Seen keys are distinct and come first, so the first occurrences
        # after them are this hop's new nodes, by context in visit order.
        keys = dst_ctx * n + dst
        new = np.unique(np.concatenate([seen, keys]), return_index=True)[1]
        new = np.sort(new[new >= len(seen)]) - len(seen)
        seen = np.concatenate([seen, keys[new]])
        frontier_ctx, frontier = dst_ctx[new], dst[new]
        ctxs.append(frontier_ctx)
        ids.append(frontier)

    width = roots.shape[1]
    ctx = np.concatenate(ctxs)
    by_ctx = np.argsort(ctx, kind="stable")
    example_of, ids = ctx[by_ctx] // width, np.concatenate(ids)[by_ctx]
    keys = example_of * n + ids
    first = _first_occurrences(keys)
    example_of, ids, keys = example_of[first], ids[first], keys[first]
    edge_example = np.concatenate(edge_ctxs) // width
    pairs = edge_example * n * n + _edge_keys(np.concatenate(srcs), np.concatenate(dsts), n)
    if withheld is not None:
        withheld = np.arange(len(withheld)) * n * n + _edge_keys(*withheld.T, n)
        pairs = pairs[pairs != withheld[edge_example]]
    pair_example, rest = np.divmod(np.unique(pairs), n * n)
    lo, hi = np.divmod(rest, n)
    lo = _positions(keys, pair_example * n + lo)
    hi = _positions(keys, pair_example * n + hi)
    both = np.concatenate([pair_example, pair_example])
    by_example = np.argsort(both, kind="stable")
    return example_of, ids, _both_directions(lo, hi)[by_example]


def _first_occurrences(a: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct value."""
    return np.sort(np.unique(a, return_index=True)[1])


def _edge_keys(u, v, n: int) -> np.ndarray:
    """Undirected edges as one int64 key min*n + max, which sorts like the
    (min, max) pair."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _positions(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index in `ids` (distinct, unsorted) of each entry of `values`."""
    sorter = np.argsort(ids)
    return sorter[np.searchsorted(ids, values, sorter=sorter)]


def _both_directions(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.column_stack([np.concatenate([lo, hi]), np.concatenate([hi, lo])])


def whole_graph_subgraph(graph: GraphStore) -> Subgraph:
    """Wrap the entire graph as one subgraph with identity local ids.

    Every node counts as a query, which makes the full graph usable
    wherever a sampled context is expected, e.g. whole-graph encoding or
    augmentation studies.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValidationError("whole graph: graph has no nodes")
    pairs = graph.undirected_edges()
    if pairs.size:
        local_edges = np.concatenate([pairs, pairs[:, ::-1]])
    else:
        local_edges = np.zeros((0, 2), dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    return Subgraph(
        local_features=graph.features.copy(),
        local_edges=local_edges,
        global_ids=ids,
        query_locals=ids,
    )


def sample_retrieval_example(
    graph: GraphStore,
    query: int,
    num_negatives: int,
    k: int,
    fanout,
    rng_seed,
) -> Subgraph:
    """Build one training example: a positive neighbor, uniform non-neighbor
    negatives, and a merged subgraph giving every candidate its own k-hop
    context, with the positive edge withheld from the edge set.

    The one-query case of `sample_retrieval_examples` then `merge_examples`.
    """
    roots, seeds = sample_retrieval_examples(graph, [query], num_negatives, [rng_seed])
    return merge_examples(graph, roots, k, fanout, seeds)


def sample_retrieval_examples(graph: GraphStore, queries, num_negatives: int, seeds):
    """Draw each query's candidates, seeded by its entry of `seeds`.

    Returns (roots, context seeds) for `merge_examples`: row b of roots is
    query b, its positive, then its negatives; the context seeds are one per
    root, in row-major order. Negatives are drawn as ranks among the
    non-neighbors, which consumes the same draws as choosing from the
    sorted complement. Every draw therefore matches the per-context
    dict-based union that tests/test_sampling.py (TestReferenceOracle) keeps
    as its bitwise reference. Raises SkipExample if a query has no
    neighbors.
    """
    n = graph.num_nodes
    if num_negatives < 0:
        raise ValidationError("retrieval example: num_negatives must be >= 0")
    roots, context_seeds = [], []
    for query, seed in zip(integer_array(queries, "retrieval example: query ids").tolist(), seeds):
        if not 0 <= query < n:
            raise ValidationError(f"retrieval example: query id {query} out of range")
        nbrs = graph.neighbors(query)
        if len(nbrs) == 0:
            raise SkipExample(f"query {query} has no neighbors")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        draw_seed, context_seed, _ = seed.spawn(3)
        rng = np.random.default_rng(draw_seed)
        positive = int(rng.choice(nbrs))
        excluded = np.unique(np.append(nbrs, query))
        available = n - len(excluded)
        if available < num_negatives:
            raise ValidationError(
                f"retrieval example: only {available} non-neighbors available"
            )
        ranks = (
            rng.choice(available, size=num_negatives, replace=False)
            if num_negatives
            else np.zeros(0, dtype=np.int64)
        )
        # The r-th non-neighbor skips every excluded id e_j with e_j - j <= r.
        negatives = ranks + np.searchsorted(excluded - np.arange(len(excluded)), ranks, side="right")
        roots.append(np.concatenate([[query, positive], negatives]))
        context_seeds.extend(context_seed.spawn(2 + num_negatives))
    return np.array(roots, dtype=np.int64), context_seeds


def augment_edge_drop(sub, p: float, rng_seed):
    """Independently remove each undirected edge with probability p."""
    if not 0.0 <= p < 1.0:
        raise ValidationError("edge drop: p must lie in [0, 1)")
    if p == 0.0 or sub.local_edges.size == 0:
        return sub
    rng = np.random.default_rng(rng_seed)
    edges = sub.local_edges
    n = int(edges.max()) + 1
    keys = np.unique(_edge_keys(edges[:, 0], edges[:, 1], n))
    kept = keys[rng.random(len(keys)) >= p]
    return replace(sub, local_edges=_both_directions(kept // n, kept % n))


def augment_feature_drop(sub, p: float, rng_seed):
    """Zero whole feature columns, each with probability p."""
    if not 0.0 <= p < 1.0:
        raise ValidationError("feature drop: p must lie in [0, 1)")
    if p == 0.0:
        return sub
    rng = np.random.default_rng(rng_seed)
    keep = (rng.random(sub.local_features.shape[1]) >= p).astype(np.float64)
    return replace(sub, local_features=sub.local_features * keep)


def mask_query_features(sub):
    """Zero the query rows' features; returns (masked, originals)."""
    if len(sub.query_locals) == 0:
        raise ValidationError("mask: subgraph has no query nodes")
    originals = sub.local_features[sub.query_locals].copy()
    masked = sub.local_features.copy()
    masked[sub.query_locals] = 0.0
    return replace(sub, local_features=masked), originals
