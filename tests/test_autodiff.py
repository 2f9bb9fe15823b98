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
            ad.exp(ad.Tensor([[1000.0]]))

    def test_scatter_then_gather_roundtrip(self):
        vals = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        idx = np.array([1, 1, 0])
        out = ad.scatter_add_rows(vals, idx, 2)
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [4.0, 6.0]])
        back = ad.gather_rows(out, np.array([0, 1, 1]))
        np.testing.assert_array_equal(back.data[2], [4.0, 6.0])

    def test_scatter_plan_matches_ad_hoc_indices(self):
        rng = np.random.default_rng(3)
        vals = ad.Tensor(rng.normal(size=(30, 5)))
        idx = rng.integers(0, 8, size=30)
        plan = ad.ScatterPlan(idx, 8)
        with_plan = ad.scatter_add_rows(vals, idx, 8, plan)
        without = ad.scatter_add_rows(vals, idx, 8)
        np.testing.assert_array_equal(with_plan.data, without.data)

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


def _aggregate_chain(x, w, src, dst, num_out):
    """The gather -> weight -> scatter chain that `aggregate` fuses."""
    src_plan, dst_plan = ad.ScatterPlan(src, x.shape[0]), ad.ScatterPlan(dst, num_out)
    gathered = ad.gather_rows(x, src, src_plan)
    messages = gathered if w is None else ad.hadamard(w, gathered)
    return ad.scatter_add_rows(messages, dst, num_out, dst_plan)


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

    def _run(self, fn, x_data, w_data, src, dst, n_out, upstream):
        x = ad.Tensor(x_data, requires_grad=True)
        w = None if w_data is None else ad.Tensor(w_data, requires_grad=True)
        out = fn(x, w, src, dst, n_out)
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
        want = self._run(_aggregate_chain, x, w, src, dst, n_out, upstream)
        got = self._run(_aggregate_fused, x, w, src, dst, n_out, upstream)
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
            want = _aggregate_chain(x, w, src, dst, n_out)
        assert len(ad.active_tape()) == 0
        assert got.data.tobytes() == want.data.tobytes()

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


class TestPermuteRows:
    def test_value_and_gradient_match_gather_rows_bitwise(self):
        rng = np.random.default_rng(14)
        perm = rng.permutation(7)
        x = rng.normal(size=(7, 3))
        g = rng.normal(size=(7, 3))
        g[2] = -0.0  # the scatter into zeros returns +0.0 here
        results = []
        for fn in (
            lambda a: ad.permute_rows(a, perm),
            lambda a: ad.gather_rows(a, perm, ad.ScatterPlan(perm, 7)),
        ):
            out = fn(ad.Tensor(x, requires_grad=True))
            (_, _, vjp), = ad.active_tape().records
            ad.active_tape().clear()
            results.append(out.data.tobytes() + vjp(g)[0].tobytes())
        assert results[0] == results[1]

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
