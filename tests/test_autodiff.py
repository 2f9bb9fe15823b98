import numpy as np
import pytest

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

    def test_log_and_power_domains(self):
        with pytest.raises(DomainError):
            ad.log(ad.Tensor([[0.0]]))
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
