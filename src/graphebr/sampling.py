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
    order; `_expand` documents the draw order, which the reference oracle
    in tests/test_sampling.py (TestReferenceOracle) pins bitwise.
    """
    query = int(query)
    if not 0 <= query < graph.num_nodes:
        raise ValidationError(f"khop: query id {query} out of range")
    if k < 1:
        raise ValidationError("khop: k must be at least 1")
    if fanout is not None and fanout < 1:
        raise ValidationError("khop: fanout must be at least 1")
    ids, src, dst = _expand(graph, query, k, fanout, rng_seed)
    n = graph.num_nodes
    return Subgraph(
        local_features=graph.features[ids],
        local_edges=_local_edges(ids, _edge_keys(src, dst, n), n),
        global_ids=ids,
        query_locals=np.array([0], dtype=np.int64),
    )


def _expand(graph: GraphStore, query: int, k: int, fanout, rng_seed):
    """Raw k-hop expansion: (ids, src, dst) as global-id arrays.

    `ids` lists nodes in first-visit order; `src`/`dst` hold every sampled
    edge, repeats included. Hops are expanded frontier node by frontier
    node in visit order, and each node whose degree exceeds `fanout` takes
    exactly one `rng.choice` draw, so the draw stream and every output
    equal those of the plain breadth-first loop that tests/test_sampling.py
    (TestReferenceOracle) keeps as its bitwise reference.
    """
    rng = np.random.default_rng(rng_seed)
    ids = frontier = np.array([query], dtype=np.int64)
    srcs, dsts = [], []
    for _ in range(k):
        if not len(frontier):
            break
        parts = [graph.neighbors(u) for u in frontier]
        if fanout is not None:
            parts = [
                rng.choice(nbrs, size=fanout, replace=False) if len(nbrs) > fanout else nbrs
                for nbrs in parts
            ]
        dst = np.concatenate(parts)
        srcs.append(np.repeat(frontier, [len(nbrs) for nbrs in parts]))
        dsts.append(dst)
        # Seen ids are distinct and come first, so they keep their places and
        # the ids after them are this hop's new nodes in first-visit order.
        seen = len(ids)
        ids = np.concatenate([ids, dst])
        ids = ids[_first_occurrences(ids)]
        frontier = ids[seen:]
    return ids, np.concatenate(srcs), np.concatenate(dsts)


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


def _local_edges(ids: np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """Both directions of every distinct edge key, relabelled to positions in ids."""
    keys = np.unique(keys)
    return _both_directions(*_positions(ids, np.stack([keys // n, keys % n])))


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

    The merged subgraph unions the query's context and then each
    candidate's, in that order: nodes keep their first-visit order, edges
    are distinct and ascending. Negatives are drawn as ranks among the
    non-neighbors, which consumes the same draws as choosing from the
    sorted complement. Every draw therefore matches the per-context
    dict-based union that tests/test_sampling.py (TestReferenceOracle)
    keeps as its bitwise reference.
    """
    query = int(query)
    n = graph.num_nodes
    if not 0 <= query < n:
        raise ValidationError(f"retrieval example: query id {query} out of range")
    if num_negatives < 0:
        raise ValidationError("retrieval example: num_negatives must be >= 0")
    nbrs = graph.neighbors(query)
    if len(nbrs) == 0:
        raise SkipExample(f"query {query} has no neighbors")

    if isinstance(rng_seed, np.random.SeedSequence):
        seeds = rng_seed.spawn(3)
    else:
        seeds = np.random.SeedSequence(rng_seed).spawn(3)
    rng = np.random.default_rng(seeds[0])
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
    candidates = np.concatenate([[positive], negatives]).astype(np.int64)

    context_seeds = seeds[1].spawn(1 + len(candidates))
    roots = np.concatenate([[query], candidates])
    contexts = [_expand(graph, int(r), k, fanout, s) for r, s in zip(roots, context_seeds)]
    ids, src, dst = (np.concatenate(parts) for parts in zip(*contexts))
    ids = ids[_first_occurrences(ids)]
    keys = _edge_keys(src, dst, n)
    keys = keys[keys != _edge_keys(query, positive, n)]
    merged = Subgraph(
        local_features=graph.features[ids],
        local_edges=_local_edges(ids, keys, n),
        global_ids=ids,
        query_locals=np.array([0], dtype=np.int64),
    )
    labels = np.zeros(len(candidates))
    labels[0] = 1.0
    return RetrievalExample(
        subgraph=merged,
        candidate_locals=_positions(ids, candidates),
        labels=labels,
    )


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
    """Disjoint union of retrieval examples with batch-level bookkeeping."""
    if not examples:
        raise ValidationError("merge: need at least one example")
    widths = {len(ex.candidate_locals) for ex in examples}
    if len(widths) != 1:
        raise ValidationError("merge: examples disagree on candidate count")
    return stack_subgraphs(
        [ex.subgraph for ex in examples],
        candidate_rows=np.vstack([ex.candidate_locals for ex in examples]),
        labels=np.vstack([ex.labels for ex in examples]),
    )


def stack_subgraphs(subs, candidate_rows, labels) -> BatchGraph:
    """Stack subgraphs into one BatchGraph without deduplicating nodes.

    `candidate_rows` (one row per subgraph) are local ids, shifted here by
    each subgraph's row offset like every subgraph's `query_locals`.
    """
    sizes = [sub.num_nodes for sub in subs]
    offsets = np.cumsum([0] + sizes[:-1])
    return BatchGraph(
        local_features=np.concatenate([sub.local_features for sub in subs]),
        local_edges=np.concatenate([sub.local_edges + o for sub, o in zip(subs, offsets)]),
        global_ids=np.concatenate([sub.global_ids for sub in subs]),
        query_locals=np.concatenate([sub.query_locals + o for sub, o in zip(subs, offsets)]),
        example_of=np.repeat(np.arange(len(subs), dtype=np.int64), sizes),
        candidate_rows=np.asarray(candidate_rows, dtype=np.int64) + offsets[:, None],
        labels=np.asarray(labels, dtype=np.float64),
    )
