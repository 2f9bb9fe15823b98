import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from graphebr import autodiff as ad
from graphebr.errors import (
    DomainError,
    NumericError,
    ShapeError,
    ValidationError,
)


class TestTensor:
    def test_scalar_and_vector_inputs_become_2d(self):
        assert ad.Tensor(3.0).shape == (1, 1)
        assert ad.Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
        assert ad.Tensor([[1.0], [2.0]]).shape == (2, 1)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ShapeError):
            ad.Tensor(np.zeros((2, 2, 2)))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError):
            ad.Tensor([np.nan, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_input_rejected(self, bad):
        with pytest.raises(ValidationError, match="tensor: values must be finite"):
            ad.Tensor([bad, 1.0])

    def test_finite_input_whose_sum_overflows_is_kept_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = ad.Tensor([[1e308, 1e308], [-1e308, 2.0]])
        np.testing.assert_array_equal(t.data, [[1e308, 1e308], [-1e308, 2.0]])

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            ad.Tensor([[1.0, 2.0]]).item()


class TestForwardValues:
    def test_standardize_columns_unit_norm_zero_mean(self):
        rng = np.random.default_rng(1)
        out = ad.standardize_columns(ad.Tensor(rng.normal(2.0, 3.0, size=(50, 6))))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=0), 1.0, atol=1e-7
        )

    def test_standardize_two_row_column(self):
        out = ad.standardize_columns(ad.Tensor([[1.0], [3.0]]))
        expect = 1.0 / (np.sqrt(2.0) * (1.0 + ad.STD_EPSILON))
        np.testing.assert_allclose(out.data, [[-expect], [expect]], rtol=1e-15)

    def test_standardize_constant_column_is_zero(self):
        out = ad.standardize_columns(ad.Tensor([[2.0], [2.0], [2.0]]))
        np.testing.assert_array_equal(out.data, np.zeros((3, 1)))

    def test_l2_normalize_keeps_tiny_rows_zero(self):
        out = ad.l2_normalize_rows(ad.Tensor([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out.data[0], [0.6, 0.8])
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])

    def test_matmul_shapes(self):
        out = ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 1))))
        assert out.shape == (2, 1)
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_power_domains(self):
        with pytest.raises(DomainError):
            ad.power(ad.Tensor([[-1.0]]), 0.5)
        with pytest.raises(DomainError):
            ad.power(ad.Tensor([[0.0]]), -1.0)

    def test_overflow_surfaces_as_numeric_error(self):
        with pytest.raises(NumericError):
            ad.power(ad.Tensor([[1e200]]), 2.0)

    def test_finite_output_whose_sum_overflows_is_kept_without_warning(self):
        x = ad.Tensor([[1e308, 1e308]], requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.scale(x, 1.0)
        np.testing.assert_array_equal(out.data, x.data)
        ad.active_tape().clear()

    @pytest.mark.parametrize(
        "idx, num_rows",
        [
            (np.array([3, 0, 3, 1, 0, 3]), 6),  # rows 2, 4 and 5 are empty
            (np.zeros(0, dtype=np.int64), 4),
            (np.zeros(0, dtype=np.int64), 0),
        ],
    )
    def test_scatter_plan_csr_equals_the_coo_build(self, idx, num_rows):
        got = ad.ScatterPlan(idx, num_rows).matrix
        want = sp.csr_matrix(
            (np.ones(idx.size), (idx, np.arange(idx.size))), shape=(num_rows, idx.size)
        )
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_transpose_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        out = ad.transpose(ad.Tensor(x))
        np.testing.assert_array_equal(out.data, x.T)


class TestBackward:
    def test_mean_scalar_gradient(self):
        x = ad.Tensor([[1.0, 2.0, 3.0, 4.0]], requires_grad=True)
        grads = ad.backward(ad.mean_scalar(x))
        np.testing.assert_allclose(grads[x], [[0.25, 0.25, 0.25, 0.25]])

    def test_frobenius_gradient_is_twice_input(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        grads = ad.backward(ad.frobenius_sq(x))
        np.testing.assert_allclose(grads[x], 2.0 * x.data)

    def test_fanout_accumulates(self):
        x = ad.Tensor([[1.5]], requires_grad=True)
        grads = ad.backward(ad.add(x, x))
        np.testing.assert_allclose(grads[x], [[2.0]])

    def test_tape_cleared_after_backward(self):
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        ad.backward(ad.mean_scalar(ad.relu(x)))
        assert len(ad.active_tape()) == 0

    def test_backward_rejects_non_scalar(self):
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        y = ad.relu(x)
        with pytest.raises(ShapeError):
            ad.backward(y)
        ad.active_tape().clear()

    def test_backward_rejects_constant_loss(self):
        with pytest.raises(ValidationError):
            ad.backward(ad.Tensor([[1.0]]))

    def test_untracked_inputs_record_nothing(self):
        before = len(ad.active_tape())
        ad.matmul(ad.Tensor(np.ones((2, 2))), ad.Tensor(np.ones((2, 2))))
        assert len(ad.active_tape()) == before

    def test_planless_gather_vjp_matches_the_plan_product_bitwise(self):
        rng = np.random.default_rng(6)
        idx = np.array([4, 1, 4, 0, 4, 1, 6])
        ad.gather_rows(ad.Tensor(rng.normal(size=(7, 3)), requires_grad=True), idx)
        (_, _, vjp), = ad.active_tape().records
        ad.active_tape().clear()
        g = rng.normal(size=(len(idx), 3))
        want = ad.ScatterPlan(idx, 7).matrix @ g
        assert vjp(g)[0].tobytes() == want.tobytes()

    def test_untracked_operand_gets_no_vjp(self):
        w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        ad.matmul(ad.Tensor(np.ones((4, 3))), w)
        ad.hadamard(ad.Tensor(np.ones((3, 1))), w)
        (_, _, matmul_vjp), (_, _, hadamard_vjp) = ad.active_tape().records
        ad.active_tape().clear()
        g_const, g_w = matmul_vjp(np.ones((4, 2)))
        assert g_const is None and g_w.shape == (3, 2)
        g_const, g_w = hadamard_vjp(np.ones((3, 2)))
        assert g_const is None and g_w.shape == (3, 2)

    def test_no_grad_suspends_recording(self):
        x = ad.Tensor([[1.0, -2.0]], requires_grad=True)
        with ad.no_grad():
            silent = ad.relu(x)
        assert len(ad.active_tape()) == 0
        np.testing.assert_array_equal(silent.data, [[1.0, 0.0]])
        with pytest.raises(ValidationError):
            ad.backward(ad.mean_scalar(silent))
        ad.active_tape().clear()

    def test_no_grad_restores_recording_after_exit(self):
        x = ad.Tensor([[2.0]], requires_grad=True)
        with ad.no_grad():
            ad.relu(x)
        grads = ad.backward(ad.mean_scalar(ad.relu(x)))
        np.testing.assert_array_equal(grads[x], [[1.0]])


def _segment_sum(rows, values, num_rows):
    """Rows of `values` added into zeros at `rows`, in ascending position."""
    out = np.zeros((num_rows, values.shape[1]))
    np.add.at(out, rows, values)
    return out


def _aggregate_chain(x, w, src, dst, num_out, upstream):
    """Value and both gradients of the gather -> weight -> segment-sum chain
    that `aggregate` fuses, under the loss mean(out * upstream), in numpy."""
    messages = x[src] if w is None else w * x[src]
    out = _segment_sum(dst, messages, num_out)
    g = np.full(out.shape, 1.0 / out.size) * upstream
    gx = _segment_sum(src, g[dst] if w is None else g[dst] * w, x.shape[0])
    gw = None if w is None else (g[dst] * x[src]).sum(axis=1, keepdims=True)
    return out, gx, gw


def _aggregate_fused(x, w, src, dst, num_out):
    return ad.aggregate(x, ad.ScatterPlan(src, x.shape[0]), ad.ScatterPlan(dst, num_out), w)


class TestAggregate:
    """`aggregate` must equal the chain it replaces byte for byte."""

    @staticmethod
    def _edges(case, rng):
        if case == "zero_edges":
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 6, 5
        n_in, n_out, e = 6, 9, 40
        src = rng.integers(0, n_in, size=e)  # draws over 6 rows repeat
        dst = rng.integers(0, n_out - 3, size=e)  # unsorted; the last 3 rows get no edge
        if case == "sorted_dst":
            order = np.argsort(dst, kind="stable")
            src, dst = src[order], dst[order]
        return src, dst, n_in, n_out

    def _run(self, x_data, w_data, src, dst, n_out, upstream):
        x = ad.Tensor(x_data, requires_grad=True)
        w = None if w_data is None else ad.Tensor(w_data, requires_grad=True)
        out = _aggregate_fused(x, w, src, dst, n_out)
        grads = ad.backward(ad.mean_scalar(ad.hadamard(out, ad.Tensor(upstream))))
        gx = grads.get(x, np.zeros_like(x_data))
        gw = None if w is None else grads.get(w, np.zeros_like(w_data))
        return out.data, gx, gw

    @pytest.mark.parametrize("case", ["unsorted_dst", "sorted_dst", "zero_edges"])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_value_and_both_gradients_match_the_chain_bitwise(self, case, weighted):
        rng = np.random.default_rng(11)
        src, dst, n_in, n_out = self._edges(case, rng)
        x = rng.normal(size=(n_in, 5))
        w = rng.uniform(0.1, 1.0, size=(src.size, 1)) if weighted else None
        upstream = rng.normal(size=(n_out, 5))
        upstream[0] = -0.0  # a signed zero must come back as the chain returns it
        want = _aggregate_chain(x, w, src, dst, n_out, upstream)
        got = self._run(x, w, src, dst, n_out, upstream)
        for name, a, b in zip(("value", "x grad", "weights grad"), got, want):
            if b is None:
                assert a is None
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_no_grad_records_nothing_and_keeps_the_value(self):
        rng = np.random.default_rng(12)
        src, dst, n_in, n_out = self._edges("unsorted_dst", rng)
        x = ad.Tensor(rng.normal(size=(n_in, 3)), requires_grad=True)
        w = ad.Tensor(rng.uniform(size=(src.size, 1)), requires_grad=True)
        with ad.no_grad():
            got = _aggregate_fused(x, w, src, dst, n_out)
        assert len(ad.active_tape()) == 0
        want, _, _ = _aggregate_chain(x.data, w.data, src, dst, n_out, np.zeros((n_out, 3)))
        assert got.data.tobytes() == want.tobytes()

    def test_untracked_operand_gets_no_vjp(self):
        rng = np.random.default_rng(13)
        src, dst, n_in, n_out = self._edges("unsorted_dst", rng)
        x = ad.Tensor(rng.normal(size=(n_in, 3)))
        w = ad.Tensor(rng.uniform(size=(src.size, 1)), requires_grad=True)
        _aggregate_fused(x, w, src, dst, n_out)
        (_, _, vjp), = ad.active_tape().records
        ad.active_tape().clear()
        g_x, g_w = vjp(np.ones((n_out, 3)))
        assert g_x is None and g_w.shape == (src.size, 1)

    @pytest.mark.parametrize("num_edges", [1024, 2500])
    def test_blocked_weight_gradient_equals_the_whole_array_sum_bitwise(self, num_edges):
        # the weight gradient is summed 1,024 edges at a time; 2,500 ends
        # in a partial block
        rng = np.random.default_rng(15)
        n_in, n_out = 300, 200
        src, dst = rng.integers(0, n_in, num_edges), rng.integers(0, n_out, num_edges)
        x = rng.normal(size=(n_in, 32))
        w = ad.Tensor(rng.uniform(size=(num_edges, 1)), requires_grad=True)
        _aggregate_fused(ad.Tensor(x), w, src, dst, n_out)
        (_, _, vjp), = ad.active_tape().records
        ad.active_tape().clear()
        g = rng.normal(size=(n_out, 32))
        _, g_w = vjp(g)
        assert g_w.tobytes() == (g[dst] * x[src]).sum(axis=1, keepdims=True).tobytes()

    def test_mismatched_operands_rejected(self):
        x = ad.Tensor(np.ones((3, 2)))
        plan3, plan4 = ad.ScatterPlan([0, 1, 2], 3), ad.ScatterPlan([0, 1, 2, 0], 3)
        with pytest.raises(ShapeError):
            ad.aggregate(x, plan3, plan4)
        with pytest.raises(ShapeError):
            ad.aggregate(ad.Tensor(np.ones((4, 2))), plan3, plan3)
        with pytest.raises(ShapeError):
            ad.aggregate(x, plan3, plan3, ad.Tensor(np.ones((3, 2))))


def _softmax_edges(rng, num_rows, num_random):
    """Random (src, dst) edges plus a self-loop per row, sorted by dst;
    the random draws repeat edges."""
    loops = np.arange(num_rows).repeat(2).reshape(num_rows, 2)
    pairs = np.vstack([rng.integers(0, num_rows, size=(num_random, 2)), loops])
    return pairs[np.argsort(pairs[:, 1], kind="stable")].T


def _edge_softmax_chain(attend, neighbor, src, dst, slope, g):
    """Value, attend gradient and neighbor gradient of the gather, add,
    LeakyReLU, max-shift, exp, segment-sum, inverse and product chain that
    `edge_softmax` fuses, in numpy, for the upstream gradient g."""
    m = attend.shape[0]
    raw = attend[dst] + neighbor[src]
    scores = np.where(raw > 0, raw, slope * raw)
    starts = np.searchsorted(dst, np.arange(m))
    w = np.exp(scores - np.maximum.reduceat(scores[:, 0], starts)[dst].reshape(-1, 1))
    denom = _segment_sum(dst, w, m)
    inv = np.power(denom, -1.0)[dst]
    g_denom = _segment_sum(dst, g * w, m) * -1.0 * np.power(denom, -2.0)
    g_raw = ((g * inv + g_denom[dst]) * w) * np.where(raw > 0, 1.0, slope)
    g_neighbor = _segment_sum(src, g_raw, neighbor.shape[0])
    return w * inv, _segment_sum(dst, g_raw, m), g_neighbor


class TestEdgeSoftmax:
    """`edge_softmax` must equal the numpy chain byte for byte."""

    @staticmethod
    def _inputs(seed, m=7, num_random=30):
        rng = np.random.default_rng(seed)
        src, dst = _softmax_edges(rng, m, num_random)
        scores = rng.normal(size=(2, m, 1))  # both LeakyReLU sides
        return src, dst, scores[0], scores[1], rng.normal(size=(src.size, 1))

    @staticmethod
    def _call(attend, neighbor, src, dst, slope=0.2):
        m = attend.shape[0]
        plans = ad.ScatterPlan(src, m), ad.ScatterPlan(dst, m)
        return ad.edge_softmax(attend, neighbor, *plans, slope)

    @pytest.mark.parametrize("seed", range(5))
    def test_value_and_vjp_match_the_numpy_chain_bitwise(self, seed):
        src, dst, attend, neighbor, g = self._inputs(seed)
        g[0] = -0.0
        tracked = ad.Tensor(attend, requires_grad=True), ad.Tensor(neighbor, requires_grad=True)
        out = self._call(*tracked, src, dst)
        (_, _, vjp), = ad.active_tape().records
        ad.active_tape().clear()
        want = _edge_softmax_chain(attend, neighbor, src, dst, 0.2, g)
        for name, a, b in zip(("value", "attend grad", "neighbor grad"), (out.data, *vjp(g)), want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        sums = _segment_sum(dst, out.data, attend.shape[0])
        np.testing.assert_allclose(sums, 1.0, rtol=1e-14)

    def test_no_grad_records_nothing_and_keeps_the_value(self):
        src, dst, attend, neighbor, g = self._inputs(5)
        with ad.no_grad():
            out = self._call(ad.Tensor(attend, requires_grad=True), ad.Tensor(neighbor), src, dst)
        assert len(ad.active_tape()) == 0
        want, _, _ = _edge_softmax_chain(attend, neighbor, src, dst, 0.2, g)
        assert out.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tracked", [0, 1])
    def test_untracked_operand_gets_no_vjp(self, tracked):
        src, dst, attend, neighbor, g = self._inputs(6)
        operands = [ad.Tensor(attend), ad.Tensor(neighbor)]
        operands[tracked].requires_grad = True
        self._call(*operands, src, dst)
        (_, _, vjp), = ad.active_tape().records
        ad.active_tape().clear()
        grads = vjp(g)
        assert grads[1 - tracked] is None and grads[tracked].shape == (7, 1)

    def test_mismatched_shapes_rejected(self):
        src, dst, attend, neighbor, _ = self._inputs(7)
        src_plan, dst_plan = ad.ScatterPlan(src, 7), ad.ScatterPlan(dst, 7)
        for a, n, sp_, dp_ in (
            (np.ones((7, 2)), neighbor, src_plan, dst_plan),
            (attend, np.ones((6, 1)), src_plan, dst_plan),
            (np.ones((8, 1)), neighbor, src_plan, dst_plan),
            (attend, neighbor, ad.ScatterPlan(src[1:], 7), dst_plan),
        ):
            with pytest.raises(ShapeError, match="^edge_softmax: scores"):
                ad.edge_softmax(a, n, sp_, dp_, 0.2)

    @pytest.mark.parametrize("case", ["unsorted", "empty_row"])
    def test_unsorted_or_empty_destination_plan_rejected(self, case):
        if case == "unsorted":
            src, dst = np.array([0, 1, 2, 1]), np.array([0, 1, 2, 0])
        else:  # row 1 receives no edge
            src, dst = np.array([0, 1, 2]), np.array([0, 0, 2])
        scores = ad.Tensor(np.ones((3, 1)))
        named = "^edge_softmax: edges unsorted by destination, or a row has none"
        with pytest.raises(ValidationError, match=named):
            self._call(scores, scores, src, dst)


class TestPermuteRows:
    def test_value_and_gradient_match_gather_rows_bitwise(self):
        rng = np.random.default_rng(14)
        perm = rng.permutation(7)
        x = rng.normal(size=(7, 3))
        g = rng.normal(size=(7, 3))
        g[2] = -0.0  # the scatter into zeros returns +0.0 here
        out = ad.permute_rows(ad.Tensor(x, requires_grad=True), perm)
        (_, _, vjp), = ad.active_tape().records
        ad.active_tape().clear()
        got = out.data.tobytes() + vjp(g)[0].tobytes()
        assert got == x[perm].tobytes() + _segment_sum(perm, g, 7).tobytes()

    @pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 3], [2, 1, 0, 3]])
    def test_non_permutation_rejected(self, perm):
        with pytest.raises(ValidationError):
            ad.permute_rows(ad.Tensor(np.ones((3, 2))), perm)


class TestFiniteDifferenceOracle:
    def test_sum_gives_ones(self):
        x = ad.Tensor([[0.3, -0.7, 2.0]])
        fd = ad.finite_difference_gradient(
            lambda t: ad.mean_scalar(t).item() * t.data.size, x
        )
        np.testing.assert_allclose(fd.data, np.ones((1, 3)), atol=1e-8)

    def test_squared_norm_matches_analytic(self):
        x = ad.Tensor([[1.0, 2.0]])
        fd = ad.finite_difference_gradient(lambda t: ad.frobenius_sq(t), x)
        np.testing.assert_allclose(fd.data, [[2.0, 4.0]], atol=1e-8)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_primitive_matches_finite_differences(self, seed):
        for name, err in ad.primitive_gradient_suite(seed):
            assert err < 1e-4, f"{name}: relative error {err}"

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed_rejected_naming_it(self, seed):
        with pytest.raises(ValidationError, match="gradient suite: rng_seed must be a non-negative integer"):
            ad.primitive_gradient_suite(seed)
