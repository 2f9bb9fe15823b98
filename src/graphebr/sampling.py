"""K-hop subgraph sampling, retrieval example construction, and the
stochastic augmentations used by the auxiliary training objectives."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SkipExample, ValidationError
from .graph import GraphStore


@dataclass(frozen=True)
class Subgraph:
    """A sampled neighborhood with local node re-indexing.

    `local_edges` materializes both directions of every undirected edge.
    Roots used as retrieval or masking targets are listed in `query_locals`.
    """

    local_features: np.ndarray
    local_edges: np.ndarray
    global_ids: np.ndarray
    query_locals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "local_features", np.asarray(self.local_features, dtype=np.float64))
        object.__setattr__(self, "local_edges", np.asarray(self.local_edges, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "global_ids", np.asarray(self.global_ids, dtype=np.int64))
        object.__setattr__(self, "query_locals", np.asarray(self.query_locals, dtype=np.int64))
        m = len(self.global_ids)
        if self.local_features.shape[0] != m:
            raise ValidationError("subgraph: per-node arrays disagree on node count")
        if len(np.unique(self.global_ids)) != m:
            raise ValidationError("subgraph: global_ids must be injective")
        if self.local_edges.size and (
            self.local_edges.min() < 0 or self.local_edges.max() >= m
        ):
            raise ValidationError("subgraph: edge endpoint out of range")
        if self.query_locals.size and (
            self.query_locals.min() < 0 or self.query_locals.max() >= m
        ):
            raise ValidationError("subgraph: query node out of range")

    @property
    def num_nodes(self) -> int:
        return len(self.global_ids)

    def canonical_order(self) -> np.ndarray:
        """Permutation placing locals in ascending global-id order."""
        return np.argsort(self.global_ids)


@dataclass(frozen=True)
class BatchGraph:
    """Disjoint union of several example subgraphs for one training step.

    Nodes are deliberately not deduplicated across examples, so per-example
    edge removals cannot leak between examples; `example_of` records each
    node's source example.
    """

    local_features: np.ndarray
    local_edges: np.ndarray
    global_ids: np.ndarray
    query_locals: np.ndarray
    example_of: np.ndarray
    candidate_rows: np.ndarray
    labels: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.global_ids)

    def canonical_order(self) -> np.ndarray:
        return np.lexsort((self.global_ids, self.example_of))


@dataclass(frozen=True)
class RetrievalExample:
    """One query with M candidates, exactly one of which is a held neighbor."""

    subgraph: Subgraph
    candidate_locals: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "candidate_locals", np.asarray(self.candidate_locals, dtype=np.int64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64))
        if self.labels.shape != self.candidate_locals.shape:
            raise ValidationError("retrieval example: labels misaligned with candidates")
        positives = np.flatnonzero(self.labels == 1.0)
        if len(positives) != 1 or not np.all(np.isin(self.labels, (0.0, 1.0))):
            raise ValidationError("retrieval example: labels must be one-hot")


@dataclass(frozen=True)
class AugmentationConfig:
    """Stochastic view parameters for the two auxiliary objectives."""

    edge_drop_prob: float = 0.2
    feature_drop_prob: float = 0.2

    def __post_init__(self):
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
    batch = khop_batch(graph, [query], k, fanout, [rng_seed])
    return Subgraph(
        local_features=batch.local_features,
        local_edges=batch.local_edges,
        global_ids=batch.global_ids,
        query_locals=batch.query_locals,
    )


def khop_batch(graph: GraphStore, roots, k: int, fanout, seeds) -> BatchGraph:
    """Stack the k-hop contexts of many roots, expanded in one lockstep pass.

    Example i is exactly `khop_subgraph(graph, roots[i], k, fanout,
    seeds[i])`, shifted by the rows of the examples before it; its root is
    its first row and listed in `query_locals`. There are no candidates.
    """
    roots = np.asarray(roots, dtype=np.int64).ravel()
    out_of_range = roots[(roots < 0) | (roots >= graph.num_nodes)]
    if out_of_range.size:
        raise ValidationError(f"khop: query id {out_of_range[0]} out of range")
    example_of, ids, edges, _ = _contexts(graph, roots[:, None], k, fanout, seeds)
    empty = np.zeros((len(roots), 0))
    return BatchGraph(
        local_features=graph.features[ids],
        local_edges=edges,
        global_ids=ids,
        query_locals=np.searchsorted(example_of, np.arange(len(roots))),
        example_of=example_of,
        candidate_rows=empty.astype(np.int64),
        labels=empty,
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
    Returns (example_of, ids, edges, edge example), grouped by example.
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
    return example_of, ids, _both_directions(lo, hi)[by_example], both[by_example]


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
) -> RetrievalExample:
    """Build one training example: a positive neighbor, uniform non-neighbor
    negatives, and a merged subgraph giving every candidate its own k-hop
    context, with the positive edge withheld from the edge set.

    The one-example case of `sample_retrieval_examples`.
    """
    return sample_retrieval_examples(graph, [query], num_negatives, k, fanout, [rng_seed])[0]


def sample_retrieval_examples(
    graph: GraphStore, queries, num_negatives: int, k: int, fanout, seeds
) -> list:
    """One retrieval example per query, each seeded by its entry of `seeds`.

    Each example's candidates are drawn first, in query order; then the
    k-hop contexts of every query and candidate are expanded in one
    lockstep pass. Each merged subgraph unions its query's context and
    then each candidate's, in that order: nodes keep their first-visit
    order, edges are distinct and ascending. Negatives are drawn as ranks
    among the non-neighbors, which consumes the same draws as choosing
    from the sorted complement. Every draw therefore matches the
    per-context dict-based union that tests/test_sampling.py
    (TestReferenceOracle) keeps as its bitwise reference. Raises
    SkipExample if a query has no neighbors.
    """
    n = graph.num_nodes
    if num_negatives < 0:
        raise ValidationError("retrieval example: num_negatives must be >= 0")
    roots, context_seeds = [], []
    for query, seed in zip(queries, seeds):
        query = int(query)
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

    roots = np.array(roots, dtype=np.int64)
    num, width = roots.shape
    example_of, ids, edges, edge_example = _contexts(
        graph, roots, k, fanout, context_seeds, withheld=roots[:, :2]
    )
    starts = np.searchsorted(example_of, np.arange(num + 1))
    edge_starts = np.searchsorted(edge_example, np.arange(num + 1))
    candidate_rows = _positions(
        example_of * n + ids, (np.arange(num)[:, None] * n + roots[:, 1:]).ravel()
    ).reshape(num, width - 1)
    features = graph.features[ids]
    labels = np.zeros(width - 1)
    labels[0] = 1.0
    examples = []
    for i in range(num):
        lo, hi = starts[i], starts[i + 1]
        merged = Subgraph(
            local_features=features[lo:hi],
            local_edges=edges[edge_starts[i] : edge_starts[i + 1]] - lo,
            global_ids=ids[lo:hi],
            query_locals=np.array([0], dtype=np.int64),
        )
        examples.append(
            RetrievalExample(
                subgraph=merged, candidate_locals=candidate_rows[i] - lo, labels=labels.copy()
            )
        )
    return examples


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


def merge_examples(examples) -> BatchGraph:
    """Disjoint union of retrieval examples with batch-level bookkeeping.

    Nodes are not deduplicated across examples; each example's local ids,
    candidates included, shift by its row offset.
    """
    if not examples:
        raise ValidationError("merge: need at least one example")
    widths = {len(ex.candidate_locals) for ex in examples}
    if len(widths) != 1:
        raise ValidationError("merge: examples disagree on candidate count")
    subs = [ex.subgraph for ex in examples]
    sizes = [sub.num_nodes for sub in subs]
    offsets = np.cumsum([0] + sizes[:-1])
    return BatchGraph(
        local_features=np.concatenate([sub.local_features for sub in subs]),
        local_edges=np.concatenate([sub.local_edges + o for sub, o in zip(subs, offsets)]),
        global_ids=np.concatenate([sub.global_ids for sub in subs]),
        query_locals=np.concatenate([sub.query_locals + o for sub, o in zip(subs, offsets)]),
        example_of=np.repeat(np.arange(len(subs), dtype=np.int64), sizes),
        candidate_rows=np.vstack([ex.candidate_locals for ex in examples]) + offsets[:, None],
        labels=np.vstack([ex.labels for ex in examples]),
    )
