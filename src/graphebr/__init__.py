"""Graph-aware node embeddings for candidate retrieval.

Training couples a retrieval objective over sampled neighborhoods with
two self-supervised auxiliaries (view decorrelation and masked feature
reconstruction) on a shared graph-attention encoder; retrieval runs over
the exported embedding table exactly or through a layered
approximate-search index.
"""

from .errors import (
    DomainError,
    GraphParseError,
    NumericError,
    ShapeError,
    SkipExample,
    ValidationError,
)
from .estimator import GraphEmbeddingRetriever
from .evaluation import (
    CohortMetrics,
    EvalReport,
    EvalSettings,
    compare_runs,
    config_fingerprint,
    evaluate,
    evaluate_table,
    load_report,
    report_from_dict,
    report_to_json,
    save_report,
    split_edges,
)
from .graph import GraphStore, generate_synthetic_graph, load_graph, save_graph
from .index import (
    AnnIndex,
    EmbeddingTable,
    TopkResult,
    ann_topk,
    build_ann_index,
    exact_topk,
    export_embeddings,
    load_index,
    load_table,
    save_index,
    save_table,
    validate_index,
)
from .losses import (
    CcaConfig,
    LossWeights,
    MaeConfig,
    cca_loss,
    combined_loss,
    mae_loss,
    mean_retrieval_loss,
)
from .sampling import (
    AugmentationConfig,
    Subgraph,
    khop_subgraph,
    sample_retrieval_example,
    whole_graph_subgraph,
)
from .training import (
    TrainConfig,
    TrainResult,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AnnIndex",
    "AugmentationConfig",
    "CcaConfig",
    "CohortMetrics",
    "DomainError",
    "EmbeddingTable",
    "EvalReport",
    "EvalSettings",
    "GraphEmbeddingRetriever",
    "GraphParseError",
    "GraphStore",
    "LossWeights",
    "MaeConfig",
    "NumericError",
    "ShapeError",
    "SkipExample",
    "Subgraph",
    "TopkResult",
    "TrainConfig",
    "TrainResult",
    "ValidationError",
    "ann_topk",
    "build_ann_index",
    "cca_loss",
    "combined_loss",
    "compare_runs",
    "config_fingerprint",
    "evaluate",
    "evaluate_table",
    "exact_topk",
    "export_embeddings",
    "generate_synthetic_graph",
    "khop_subgraph",
    "load_checkpoint",
    "load_graph",
    "load_index",
    "load_report",
    "load_table",
    "mae_loss",
    "mean_retrieval_loss",
    "report_from_dict",
    "report_to_json",
    "sample_retrieval_example",
    "save_checkpoint",
    "save_graph",
    "save_index",
    "save_report",
    "save_table",
    "split_edges",
    "train",
    "validate_index",
    "whole_graph_subgraph",
]
