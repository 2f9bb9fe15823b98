"""Graph attention encoder and the two task-specific heads.

All layer math is expressed through the autodiff primitives so one backward
pass reaches every parameter. Node order is canonicalized internally (sorted
by global id) before any arithmetic, which makes encode outputs exactly
invariant to how the caller happened to label the subgraph locally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ScatterPlan, Tensor
from .errors import ShapeError, ValidationError

# Negative-side slope of the LeakyReLU on attention scores.
_LEAKY_SLOPE = 0.2
_HEAD_NAMES = ("cca_head.W1", "cca_head.W2", "mae.head", "mae.decoder")


@dataclass
class GATLayerParams:
    """One attention layer: a projection and the two attention vectors."""

    W: Tensor
    att_src: Tensor
    att_dst: Tensor


@dataclass
class EncoderParams:
    """Backbone layers plus both task heads.

    The projection head is Linear-ReLU-Linear; the reconstruction head is a
    single linear map back to feature space followed by one mean-aggregation
    graph convolution with weight `mae_decoder`.
    """

    layers: list
    cca_w1: Tensor
    cca_w2: Tensor
    mae_head: Tensor
    mae_decoder: Tensor

    def named_parameters(self) -> dict:
        named = {}
        for i, layer in enumerate(self.layers):
            named[f"layer{i}.W"] = layer.W
            named[f"layer{i}.att_src"] = layer.att_src
            named[f"layer{i}.att_dst"] = layer.att_dst
        heads = (self.cca_w1, self.cca_w2, self.mae_head, self.mae_decoder)
        named.update(zip(_HEAD_NAMES, heads))
        return named

    @classmethod
    def from_named(cls, named: dict) -> "EncoderParams":
        """Inverse of named_parameters(): rebuild the params from its map."""
        named = dict(named)
        layers = []
        while f"layer{len(layers)}.W" in named:
            i = len(layers)
            layers.append(
                GATLayerParams(
                    W=named.pop(f"layer{i}.W"),
                    att_src=named.pop(f"layer{i}.att_src"),
                    att_dst=named.pop(f"layer{i}.att_dst"),
                )
            )
        if not layers or set(named) != set(_HEAD_NAMES):
            raise ValidationError(f"params: unexpected parameter names {sorted(named)}")
        return cls(layers, *(named[name] for name in _HEAD_NAMES))

    @property
    def feature_dim(self) -> int:
        return self.layers[0].W.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.layers[-1].W.shape[1]


def init_params(dims, head_dims, rng_seed) -> EncoderParams:
    """Glorot-uniform initialization of all weights.

    `dims` lists the layer widths feature-dim first; `head_dims` gives the
    (hidden, output) widths of the projection head. The reconstruction head
    maps back to `dims[0]`.
    """
    if len(dims) < 2:
        raise ValidationError("init: need at least one layer (two dims)")
    if any(d < 1 for d in dims) or any(d < 1 for d in head_dims):
        raise ValidationError("init: dimensions must be positive")
    if len(head_dims) != 2:
        raise ValidationError("init: head_dims must be (hidden, output)")
    rng = np.random.default_rng(rng_seed)

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)), requires_grad=True)

    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append(
            GATLayerParams(
                W=glorot(d_in, d_out),
                att_src=glorot(d_out, 1),
                att_dst=glorot(d_out, 1),
            )
        )
    emb = dims[-1]
    return EncoderParams(
        layers=layers,
        cca_w1=glorot(emb, head_dims[0]),
        cca_w2=glorot(head_dims[0], head_dims[1]),
        mae_head=glorot(emb, dims[0]),
        mae_decoder=glorot(dims[0], dims[0]),
    )


class _GraphPlan:
    """Canonically ordered edge arrays with reusable scatter plans.

    Edges carry one appended self-loop per node and are sorted by
    (destination, source), so every destination group is contiguous and
    non-empty, and every segment reduction runs in one fixed order
    regardless of input labeling.
    """

    __slots__ = ("order", "inv", "dst_plan", "src_plan")

    def __init__(self, graph_like):
        m = graph_like.num_nodes
        order = graph_like.canonical_order()
        inv = np.empty(m, dtype=np.int64)
        inv[order] = np.arange(m)
        edges = graph_like.local_edges
        loops = np.arange(m, dtype=np.int64)
        src = np.concatenate([inv[edges[:, 0]], loops])
        dst = np.concatenate([inv[edges[:, 1]], loops])
        # one int64 key gives the src and dst of lexsort((src, dst)): tied
        # keys are the same edge, so their order changes no array below
        perm = np.argsort(dst * m + src)
        self.dst_plan = ScatterPlan(dst[perm], m)
        self.src_plan = ScatterPlan(src[perm], m)
        self.order = order
        self.inv = inv


def _attention(layer: GATLayerParams, plan: _GraphPlan, h: Tensor):
    """Per-edge softmax-normalized coefficients and the projected features."""
    Wh = ad.matmul(h, layer.W)
    attend = ad.matmul(Wh, layer.att_src)
    neighbor = ad.matmul(Wh, layer.att_dst)
    alpha = ad.edge_softmax(attend, neighbor, plan.src_plan, plan.dst_plan, _LEAKY_SLOPE)
    return alpha, Wh


def _layer_forward(layer, plan, h, final: bool) -> Tensor:
    alpha, Wh = _attention(layer, plan, h)
    agg = ad.aggregate(Wh, plan.src_plan, plan.dst_plan, alpha)
    return agg if final else ad.relu(agg)


def encode(params: EncoderParams, sub) -> Tensor:
    """Run all layers over a subgraph; rows stay aligned with local ids."""
    if sub.local_features.shape[1] != params.feature_dim:
        raise ShapeError(
            f"encode: features {sub.local_features.shape} vs "
            f"layer input {params.feature_dim}"
        )
    plan = _GraphPlan(sub)
    h = Tensor(sub.local_features[plan.order])
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        h = _layer_forward(layer, plan, h, final=(i == last))
    return ad.permute_rows(h, plan.inv)


def cca_head(params: EncoderParams, Z) -> Tensor:
    """Linear-ReLU-Linear projection of node embeddings."""
    return ad.matmul(ad.relu(ad.matmul(Z, params.cca_w1)), params.cca_w2)


def mae_reconstruct(params: EncoderParams, sub_masked, Z) -> Tensor:
    """Decode masked-node features from embeddings of the masked subgraph.

    The single-layer head maps embeddings back to feature space, query rows
    are re-masked to zero, and one mean-aggregation convolution
    over N(i) and i itself mixes in the neighborhood before the decoder
    weight produces the reconstruction.
    """
    m = sub_masked.num_nodes
    if Z.shape[0] != m:
        raise ShapeError(f"reconstruct: {Z.shape} vs {m} nodes")
    decoded = ad.matmul(Z, params.mae_head)

    keep = np.ones((m, 1))
    keep[sub_masked.query_locals] = 0.0
    remasked = ad.hadamard(decoded, Tensor(keep))

    edges = sub_masked.local_edges
    loops = np.arange(m, dtype=np.int64)
    src = np.concatenate([edges[:, 0], loops])
    dst = np.concatenate([edges[:, 1], loops])
    sums = ad.aggregate(remasked, ScatterPlan(src, m), ScatterPlan(dst, m))
    counts = np.bincount(dst, minlength=m).astype(np.float64).reshape(-1, 1)
    mean = ad.hadamard(sums, Tensor(1.0 / counts))
    return ad.matmul(mean, params.mae_decoder)
