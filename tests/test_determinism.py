"""Determinism fixture: a small fixed-seed multitask run pinned bitwise.

A change that claims to leave every computed number the same must keep
these values. They were recorded on the development machine, a 2-core
x86-64 host with scipy-openblas 0.3.31 and Python 3.11, before the
optimizer, slope, mask-token and export-chunk settings became constants;
another BLAS or CPU may round differently and need them re-recorded from
a trusted commit.
"""

import hashlib

import numpy as np

from graphebr.graph import generate_synthetic_graph
from graphebr.index import export_embeddings
from graphebr.losses import LossWeights
from graphebr.training import TrainConfig, train

# float.hex of (retrieval, cca, mae, combined) per executed step
EXPECTED_LOSSES = [
    ["0x1.729d2f189f260p+0", "0x1.63c85f9793a36p+3", "0x1.cca2cab9127f6p-1", "0x1.dd39d8094c94dp+2"],
    ["0x1.5f56215786b3cp+0", "0x1.986e48c57cf21p+2", "0x1.b3c997c755f64p+0", "0x1.5a85dfb18ae4cp+2"],
    ["0x1.49f10f1d81020p+0", "0x1.898bc6ab886ecp+2", "0x1.78345e475cffap-1", "0x1.2ec56d019a47ep+2"],
    ["0x1.5d85bc460f3fbp+0", "0x1.7cbe158e58b9ap+2", "0x1.71f783214542ep+0", "0x1.43ff6a3cd8d52p+2"],
    ["0x1.3561c2f117db7p+0", "0x1.1c9e083ccc3f2p+2", "0x1.1a4cd1ff9f4a6p+0", "0x1.fde21e353fff8p+1"],
    ["0x1.957acaf7166e5p+0", "0x1.38310102526dfp+2", "0x1.a3e8fb3309d8cp+0", "0x1.35f452a5500dap+2"],
    ["0x1.4ace06d79ccf7p+0", "0x1.20a8a5fd7b65ep+2", "0x1.0c5758a539ac5p+0", "0x1.0492bfc94c1c6p+2"],
    ["0x1.214cdedf48cc0p+0", "0x1.4e9764815465bp+3", "0x1.d3c35bfbe7522p-2", "0x1.a588b71905d34p+2"],
]
EXPECTED_PARAMS_SHA256 = "d2cbc826ee4465e7070c9d53a4f1f15d97d6a43a0db4e7fd608bb63837227d5f"
EXPECTED_TABLE_SHA256 = "70fdd6015b027bc4bea47f245c990afcb4debd1e45aa2f4bca101f004e00d5e0"

# Retrieval only at fanout=None: every context is its exact k-hop closure, so
# the sampler draws no rng.choice. Recorded on the same machine as above,
# before the k-hop expansion and the retrieval loss were batched.
EXPECTED_UNCAPPED_LOSSES = [
    "0x1.9ac14ff975962p+0", "0x1.861d375cb7897p+0", "0x1.89487397f6a74p+0",
    "0x1.90dcc9fa70c03p+0", "0x1.6f114900da371p+0", "0x1.57a0cfd2537f2p+0",
]
EXPECTED_UNCAPPED_PARAMS_SHA256 = "189cea3fa4de277f2854e1a91c07500f9d33c2bbd858193dad6a813be35a38f9"
EXPECTED_UNCAPPED_TABLE_SHA256 = "bfb3d78314a39319734b5fab430714ea284ff68a49fc30605b9ea8dce05655a2"


def fixture_graph():
    return generate_synthetic_graph(
        num_nodes=120, num_communities=2, p_in=0.15, p_out=0.02,
        feature_dim=8, cold_start_fraction=0.1, rng_seed=5,
    )


def params_digest(params) -> str:
    digest = hashlib.sha256()
    for name, p in params.named_parameters().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


def table_digest(table) -> str:
    return hashlib.sha256(np.ascontiguousarray(table.vectors).tobytes()).hexdigest()


def test_fixed_seed_multitask_run_is_bitwise_pinned():
    graph = fixture_graph()
    # auxiliary weights of 0.5 make the CCA and MAE paths move the parameters
    cfg = TrainConfig(
        steps=8, batch_size=4, k=2, fanout=4, num_negatives=3,
        hidden_dims=(16,), embedding_dim=8, projection_dim=8, seed=71,
        learning_rate=1e-2, weights=LossWeights(alpha=1.0, beta=0.5, gamma=0.5),
    )
    result = train(graph, cfg)
    losses = [
        [float(record[task]).hex() for task in ("retrieval", "cca", "mae", "combined")]
        for record in result.history
    ]
    assert losses == EXPECTED_LOSSES

    assert params_digest(result.params) == EXPECTED_PARAMS_SHA256

    table = export_embeddings(result, graph, k=cfg.k, fanout=cfg.fanout)
    assert table_digest(table) == EXPECTED_TABLE_SHA256


def test_fixed_seed_uncapped_retrieval_run_is_bitwise_pinned():
    graph = fixture_graph()
    cfg = TrainConfig(
        steps=6, batch_size=8, k=2, fanout=None, num_negatives=4,
        hidden_dims=(16,), embedding_dim=8, projection_dim=8, seed=29,
        learning_rate=1e-2, enabled_tasks=("retrieval",),
    )
    result = train(graph, cfg)
    assert [float(r["retrieval"]).hex() for r in result.history] == EXPECTED_UNCAPPED_LOSSES
    assert params_digest(result.params) == EXPECTED_UNCAPPED_PARAMS_SHA256
    table = export_embeddings(result, graph, k=cfg.k, fanout=cfg.fanout)
    assert table_digest(table) == EXPECTED_UNCAPPED_TABLE_SHA256
