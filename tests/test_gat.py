import hashlib

import numpy as np
import pytest

from graphebr import autodiff as ad
from graphebr.autodiff import Tensor
from graphebr.errors import ShapeError, ValidationError
from graphebr.gat import (
    _GraphPlan,
    cca_head,
    encode,
    init_params,
    mae_reconstruct,
)
from graphebr.sampling import Subgraph, mask_query_features


def make_subgraph(n, edges, features=None, global_ids=None, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    both = np.concatenate([edges, edges[:, ::-1]]) if edges.size else edges
    return Subgraph(
        local_features=rng.normal(size=(n, 3)) if features is None else features,
        local_edges=both,
        global_ids=np.arange(n) if global_ids is None else global_ids,
        query_locals=np.array([0]),
    )


def dense_reference(params, features, directed_edges, m):
    """Materialize full attention matrices with plain numpy."""

    def leaky(x):
        return np.where(x > 0, x, 0.2 * x)

    adj = np.eye(m, dtype=bool)
    for s, d in directed_edges:
        adj[d, s] = True
    h = np.asarray(features, dtype=np.float64)
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        Wh = h @ layer.W.data
        scores = leaky(Wh @ layer.att_src.data + (Wh @ layer.att_dst.data).T)
        weights = np.where(adj, np.exp(scores - scores.max(axis=1, keepdims=True)), 0.0)
        alpha = weights / weights.sum(axis=1, keepdims=True)
        h = alpha @ Wh
        if i != last:
            h = np.maximum(h, 0.0)
    return h


class TestInitParams:
    def test_same_seed_is_bitwise_identical(self):
        a = init_params([4, 8, 8], [8, 4], rng_seed=3)
        b = init_params([4, 8, 8], [8, 4], rng_seed=3)
        for name, t in a.named_parameters().items():
            np.testing.assert_array_equal(t.data, b.named_parameters()[name].data)

    def test_weights_respect_uniform_bound(self):
        params = init_params([4, 8, 8], [8, 4], rng_seed=0)
        for layer in params.layers:
            fan_in, fan_out = layer.W.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(layer.W.data).max() <= bound
            att_bound = np.sqrt(6.0 / (fan_out + 1))
            assert np.abs(layer.att_src.data).max() <= att_bound

    def test_sample_mean_near_zero(self):
        params = init_params([100, 100], [4, 4], rng_seed=1)
        w = params.layers[0].W.data
        bound = np.sqrt(6.0 / 200)
        sigma = bound / np.sqrt(3.0)
        assert abs(w.mean()) <= 3 * sigma / np.sqrt(w.size)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError):
            init_params([4, 0], [4, 4], rng_seed=0)


class TestAttention:
    def test_self_loop_only_gives_unit_weight(self):
        # a node with no edges attends only to itself; the final layer has no ReLU
        params = init_params([3, 4], [4, 4], rng_seed=0)
        sub = make_subgraph(1, np.zeros((0, 2)))
        out = encode(params, sub)
        expect = sub.local_features @ params.layers[0].W.data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)
        assert (expect < 0).any()


class TestLayerForward:
    def test_no_edges_reduces_to_projected_self(self):
        params = init_params([3, 4, 4], [4, 4], rng_seed=4)
        sub = make_subgraph(5, np.zeros((0, 2)), seed=4)
        out = encode(params, sub)
        hidden = np.maximum(sub.local_features @ params.layers[0].W.data, 0.0)
        expect = hidden @ params.layers[1].W.data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_zero_features_give_zero_output(self):
        params = init_params([3, 4, 4], [4, 4], rng_seed=5)
        sub = make_subgraph(6, [[0, 1], [1, 2], [3, 4]], features=np.zeros((6, 3)))
        out = encode(params, sub)
        np.testing.assert_array_equal(out.data, np.zeros((6, 4)))


class TestDenseOracle:
    def test_three_node_path_matches_dense_reference(self):
        params = init_params([3, 4, 4], [4, 4], rng_seed=0)
        sub = make_subgraph(3, [[0, 1], [1, 2]], seed=7)
        got = encode(params, sub)
        want = dense_reference(params, sub.local_features, sub.local_edges, 3)
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_single_layer_matches_dense_reference(self):
        params = init_params([3, 4], [4, 4], rng_seed=6)
        sub = make_subgraph(7, [[0, 1], [1, 2], [2, 3], [4, 5]], seed=6)
        got = encode(params, sub)
        want = dense_reference(params, sub.local_features, sub.local_edges, 7)
        np.testing.assert_allclose(got.data, want, atol=1e-12)
        assert (want < 0).any()

    def test_random_small_graphs_match_dense_reference(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 11))
            pairs = np.unique(
                np.sort(rng.integers(0, n, size=(n * 2, 2)), axis=1), axis=0
            )
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            sub = make_subgraph(n, pairs, seed=seed)
            params = init_params([3, 5, 4], [4, 4], rng_seed=seed)
            got = encode(params, sub)
            want = dense_reference(params, sub.local_features, sub.local_edges, n)
            np.testing.assert_allclose(got.data, want, atol=1e-10)


class TestPermutationEquivariance:
    def permuted(self, sub, sigma):
        inv = np.empty(len(sigma), dtype=np.int64)
        inv[sigma] = np.arange(len(sigma))
        return Subgraph(
            local_features=sub.local_features[sigma],
            local_edges=inv[sub.local_edges],
            global_ids=sub.global_ids[sigma],
            query_locals=inv[sub.query_locals],
        )

    def test_encode_is_exactly_equivariant(self):
        rng = np.random.default_rng(0)
        params = init_params([3, 6, 5], [4, 4], rng_seed=9)
        for trial in range(20):
            n = int(rng.integers(2, 31))
            pairs = np.unique(
                np.sort(rng.integers(0, n, size=(3 * n, 2)), axis=1), axis=0
            )
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            gids = rng.permutation(10_000)[:n]
            sub = make_subgraph(n, pairs, global_ids=gids, seed=trial)
            base = encode(params, sub).data
            sigma = rng.permutation(n)
            shuffled = encode(params, self.permuted(sub, sigma)).data
            assert np.array_equal(shuffled, base[sigma])


class TestGraphPlan:
    def test_edge_sort_equals_the_two_key_lexsort(self):
        rng = np.random.default_rng(22)
        n = 12
        pairs = rng.integers(0, n, size=(30, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        edges = np.concatenate([pairs, pairs[:, ::-1], pairs[:3]])  # 3 directed duplicates
        sub = Subgraph(
            local_features=np.zeros((n, 1)),
            local_edges=edges,
            global_ids=rng.permutation(100)[:n],
            query_locals=np.array([0]),
        )
        plan = _GraphPlan(sub)
        inv = np.empty(n, dtype=np.int64)
        inv[np.lexsort((sub.global_ids, sub.example_of))] = np.arange(n)
        src = np.concatenate([inv[edges[:, 0]], np.arange(n)])
        dst = np.concatenate([inv[edges[:, 1]], np.arange(n)])
        perm = np.lexsort((src, dst))
        assert np.array_equal(plan.src_plan.idx, src[perm])
        assert np.array_equal(plan.dst_plan.idx, dst[perm])


def _pin_subgraph(case):
    """Two-layer params and a hand-made subgraph that reaches one corner of
    the attention softmax."""
    params = init_params([3, 5, 4], [4, 4], rng_seed=31)
    if case == "self_loop_only":  # node 4 attends only to itself
        return params, make_subgraph(5, [[0, 1], [1, 2], [2, 3]], seed=31)
    if case == "negative_side":
        # positive features and weights with negative attention vectors put
        # every score at or below zero, on the LeakyReLU's sloped side
        for layer in params.layers:
            layer.W = Tensor(np.abs(layer.W.data), requires_grad=True)
            layer.att_src = Tensor(-np.abs(layer.att_src.data), requires_grad=True)
            layer.att_dst = Tensor(-np.abs(layer.att_dst.data), requires_grad=True)
        features = np.abs(np.random.default_rng(32).normal(size=(5, 3))) + 0.1
        edges = [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [1, 4]]
        return params, make_subgraph(5, edges, features=features)
    if case == "duplicate_edges":  # both directions of 0-1 and 2-3 twice
        return params, make_subgraph(4, [[0, 1], [0, 1], [2, 3], [1, 2], [2, 3]], seed=33)
    if case == "one_node":
        return params, make_subgraph(1, np.zeros((0, 2)), seed=34)
    assert case == "unsorted_labels"  # canonical order differs from local order
    gids = np.array([40, 7, 23, 3, 91, 15])
    edges = [[0, 1], [1, 2], [2, 5], [3, 4], [4, 0], [5, 3]]
    return params, make_subgraph(6, edges, global_ids=gids, seed=35)


def _encode_and_gradient_digest(params, sub) -> str:
    z = encode(params, sub)
    upstream = Tensor(np.random.default_rng(36).normal(size=z.shape))
    grads = ad.backward(ad.mean_scalar(ad.hadamard(z, upstream)))
    digest = hashlib.sha256(z.data.tobytes())
    for name, p in params.named_parameters().items():
        if p in grads:
            digest.update(name.encode())
            digest.update(grads[p].tobytes())
    return digest.hexdigest()


# sha256 of encode's output and of every parameter gradient `backward`
# returns, recorded while the attention softmax was still a chain of
# gather, add, leaky_relu, sub, exp, scatter, power and hadamard
# primitives, on a 2-core x86-64 host with scipy-openblas 0.3.31.
EXPECTED_ENCODE_GRAD_SHA256 = {
    "self_loop_only": "e7b37f4167fdc7289cfc6e52536bde75459f463f186bb080fff0c9f944a9adf1",
    "negative_side": "96ca007a6200bdfdac1d9ba513d9ebe16b3d8520b7594b92c7062375f7cae143",
    "duplicate_edges": "0f0149d5a72dbb8509f6370fe037e67f1c25e235dcba5cddcfd588e87e94a9ef",
    "one_node": "6701f0bda494bfd47e14efb391074924b5d7ea66d995360f37ee9b02d4fe4ccb",
    "unsorted_labels": "e805cc1c3418e59a37e00f8517b00275c77be37fa8742b6eb424cb7883932933",
}


class TestEncodeGradientPins:
    @pytest.mark.parametrize("case", sorted(EXPECTED_ENCODE_GRAD_SHA256))
    def test_output_and_parameter_gradients_are_bitwise_pinned(self, case):
        params, sub = _pin_subgraph(case)
        digest = _encode_and_gradient_digest(params, sub)
        assert digest == EXPECTED_ENCODE_GRAD_SHA256[case]

    def test_two_layer_encode_records_one_edge_softmax_per_layer(self):
        params, sub = _pin_subgraph("unsorted_labels")
        encode(params, sub)
        kinds = [vjp.__qualname__.split(".")[0] for _, _, vjp in ad.active_tape().records]
        ad.active_tape().clear()
        layer = ["matmul"] * 3 + ["edge_softmax", "aggregate"]
        assert kinds == layer + ["relu"] + layer + ["permute_rows"]

    def test_negative_side_case_has_no_positive_first_layer_score(self):
        params, sub = _pin_subgraph("negative_side")
        layer = params.layers[0]
        Wh = sub.local_features @ layer.W.data
        src, dst = np.vstack([sub.local_edges, np.arange(5).repeat(2).reshape(5, 2)]).T
        scores = (Wh @ layer.att_src.data)[dst] + (Wh @ layer.att_dst.data)[src]
        assert (scores < 0).all()


class TestKHopLocality:
    def test_far_perturbation_leaves_embedding_unchanged(self):
        params = init_params([3, 5, 4], [4, 4], rng_seed=12)
        sub = make_subgraph(5, [[0, 1], [1, 2], [2, 3], [3, 4]], seed=13)
        base = encode(params, sub).data
        bumped = sub.local_features.copy()
        bumped[3] += 10.0
        bumped[4] -= 3.0
        moved = make_subgraph(
            5, [[0, 1], [1, 2], [2, 3], [3, 4]], features=bumped
        )
        out = encode(params, moved).data
        np.testing.assert_array_equal(out[0], base[0])
        assert not np.array_equal(out[2], base[2])

    def test_encode_deterministic(self):
        params = init_params([3, 5, 4], [4, 4], rng_seed=13)
        sub = make_subgraph(9, [[0, 1], [2, 3], [4, 5], [1, 6]], seed=14)
        np.testing.assert_array_equal(encode(params, sub).data, encode(params, sub).data)

    def test_feature_width_mismatch_rejected(self):
        params = init_params([4, 5], [4, 4], rng_seed=14)
        sub = make_subgraph(3, [[0, 1]], seed=15)
        with pytest.raises(ShapeError):
            encode(params, sub)


class TestHeads:
    def test_cca_head_zero_in_zero_out(self):
        params = init_params([3, 4], [6, 5], rng_seed=15)
        out = cca_head(params, Tensor(np.zeros((7, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((7, 5)))

    def test_cca_head_gradient_matches_finite_differences(self):
        params = init_params([3, 4], [6, 5], rng_seed=16)
        rng = np.random.default_rng(16)
        z = rng.normal(size=(5, 4))

        def f(w1, w2):
            p = init_params([3, 4], [6, 5], rng_seed=16)
            p.cca_w1, p.cca_w2 = w1, w2
            return ad.mean_scalar(ad.power(cca_head(p, Tensor(z)), 2.0))

        err = ad.gradient_check(f, [params.cca_w1, params.cca_w2])
        assert err < 1e-4

    def test_zero_mask_token_reconstructs_zero_for_isolated_query(self):
        params = init_params([3, 4], [4, 4], rng_seed=18)
        sub = make_subgraph(1, np.zeros((0, 2)), seed=18)
        masked, _ = mask_query_features(sub)
        out = mae_reconstruct(params, masked, encode(params, masked))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_reconstruction_shape_is_nodes_by_feature_dim(self):
        params = init_params([3, 8, 6], [4, 4], rng_seed=19)
        sub = make_subgraph(9, [[0, 1], [1, 2], [3, 4]], seed=19)
        masked, _ = mask_query_features(sub)
        out = mae_reconstruct(params, masked, encode(params, masked))
        assert out.shape == (9, 3)

    def test_reconstruction_gradient_matches_finite_differences(self):
        sub = make_subgraph(6, [[0, 1], [1, 2], [2, 3], [4, 5]], seed=20)
        masked, originals = mask_query_features(sub)

        def f(head, dec):
            p = init_params([3, 4], [4, 4], rng_seed=20)
            p.mae_head, p.mae_decoder = head, dec
            z = encode(p, masked)
            return ad.mean_scalar(ad.power(mae_reconstruct(p, masked, z), 2.0))

        base = init_params([3, 4], [4, 4], rng_seed=20)
        err = ad.gradient_check(f, [base.mae_head, base.mae_decoder])
        assert err < 1e-4
