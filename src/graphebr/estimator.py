"""Estimator-style wrapper over the trainer, exporter, and retrievers.

`GraphEmbeddingRetriever` follows the scikit-learn protocol: constructor
arguments are stored verbatim, `get_params`/`set_params` expose them for
cloning and grid search, `fit` trains on a graph, `transform` produces
embedding matrices, and `kneighbors`/`predict` answer retrieval queries.
Fitted state lives in trailing-underscore attributes, and the underlying
train result, table, and index stay reachable for direct use.
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import ValidationError, integer_array
from .graph import GraphStore
from .index import ann_topk, build_ann_index, exact_topk_block, export_embeddings
from .training import TrainConfig, train


class GraphEmbeddingRetriever:
    """Graph encoder with nearest-neighbor retrieval over its embeddings.

    `config` holds every training setting; the other arguments choose and
    tune the index that serves the fitted embeddings.
    """

    def __init__(
        self,
        config: TrainConfig = TrainConfig(),
        index="exact",
        m_conn=16,
        ef_construction=100,
        ef_search=64,
    ):
        self.config = config
        self.index = index
        self.m_conn = m_conn
        self.ef_construction = ef_construction
        self.ef_search = ef_search

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValidationError(f"estimator: unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def _require_fitted(self):
        if not hasattr(self, "result_"):
            raise ValidationError("estimator: call fit before using the model")

    def fit(self, graph: GraphStore, y=None):
        """Train on the graph, export its embedding table, and index it."""
        if self.index not in ("exact", "hnsw"):
            raise ValidationError("estimator: index must be 'exact' or 'hnsw'")
        if not isinstance(self.config, TrainConfig):
            raise ValidationError("estimator: config must be a TrainConfig")
        cfg = self.config
        self.result_ = train(graph, cfg)
        self.config_ = cfg
        self.graph_ = graph
        self.table_ = export_embeddings(self.result_.params, graph, k=cfg.k, fanout=cfg.fanout)
        self.index_ = (
            build_ann_index(
                self.table_,
                m_conn=self.m_conn,
                ef_construction=self.ef_construction,
                rng_seed=cfg.seed,
            )
            if self.index == "hnsw"
            else None
        )
        return self

    def transform(self, graph: GraphStore = None) -> np.ndarray:
        """Embedding matrix of the fitted graph, or of a new graph with the
        same feature dimensionality (the encoder is inductive)."""
        self._require_fitted()
        if graph is None:
            return self.table_.vectors.copy()
        cfg = self.config_
        return export_embeddings(self.result_.params, graph, k=cfg.k, fanout=cfg.fanout).vectors

    def fit_transform(self, graph: GraphStore, y=None) -> np.ndarray:
        return self.fit(graph, y).transform()

    def kneighbors(self, node_ids=None, n_neighbors=10, exclude_training_neighbors=True):
        """Retrieve the best-scoring candidates for each query node.

        Returns (scores, ids), each of shape (num_queries, n_neighbors),
        rows ordered like node_ids (all nodes when None). The query node
        itself is always excluded; its training neighbors are excluded
        unless exclude_training_neighbors is False.
        """
        self._require_fitted()
        if n_neighbors < 1:
            raise ValidationError("estimator: n_neighbors must be >= 1")
        if node_ids is None:
            ids = np.arange(self.graph_.num_nodes, dtype=np.int64)
        else:
            ids = integer_array(node_ids, "estimator: node ids").reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= self.graph_.num_nodes):
            raise ValidationError("estimator: node id out of range")
        degree, nbrs = (
            self.graph_.neighbors_of(ids) if exclude_training_neighbors
            else (np.zeros(len(ids), dtype=np.int64), ids[:0])
        )
        starts = np.cumsum(degree) - degree
        if self.index_ is None:
            # each query's CSR row of exclusions: the node, then its neighbors
            exclude = (degree + 1, np.insert(nbrs, starts, ids))
            results = exact_topk_block(self.table_, self.table_.vectors[ids], n_neighbors, exclude)
        else:
            results = [
                ann_topk(
                    self.index_, self.table_.vectors[u], k=n_neighbors,
                    ef_search=max(self.ef_search, n_neighbors),
                    exclude={u, *nbrs[s : s + d].tolist()},
                )
                for u, s, d in zip(ids.tolist(), starts.tolist(), degree.tolist())
            ]
        for u, result in zip(ids.tolist(), results):
            if result.truncated:
                raise ValidationError(
                    f"estimator: query {u} produced {len(result.ids)} of "
                    f"{n_neighbors} requested neighbors"
                )
        return np.vstack([r.scores for r in results]), np.vstack([r.ids for r in results])

    def predict(self, node_ids=None) -> np.ndarray:
        """Best retrieval candidate per query node."""
        _, ids = self.kneighbors(node_ids, n_neighbors=1)
        return ids[:, 0]
