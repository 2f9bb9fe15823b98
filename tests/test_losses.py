import numpy as np
import pytest

from graphebr import autodiff as ad
from graphebr.autodiff import Tensor
from graphebr.errors import NumericError, ShapeError, ValidationError
from graphebr.losses import (
    CcaConfig,
    LossWeights,
    MaeConfig,
    cca_loss,
    combined_loss,
    make_report,
    mae_loss,
    mean_retrieval_loss,
)


def retrieval_loss(q, cands, labels):
    """The one-query (B = 1) case of the batched loss."""
    return mean_retrieval_loss(q, cands, [labels])


def brute_force_cca(Z_A, Z_B, lam, eps=1e-8):
    """Independent direct transcription of the alignment + whitening loss."""

    def standardize(Z):
        centered = Z - Z.mean(axis=0)
        std = centered.std(axis=0)
        return centered / ((std + eps) * np.sqrt(Z.shape[0]))

    za, zb = standardize(Z_A), standardize(Z_B)
    k = Z_A.shape[1]
    white = lambda z: np.sum((z.T @ z - np.eye(k)) ** 2)
    return np.sum((za - zb) ** 2) + lam * (white(za) + white(zb))


class TestRetrievalLoss:
    @pytest.mark.parametrize("m", [2, 16, 64])
    def test_uniform_logits_give_log_m(self, m):
        q = Tensor(np.zeros((1, 4)))
        cands = Tensor(np.ones((m, 4)))
        labels = np.eye(m)[0]
        loss = retrieval_loss(q, cands, labels).item()
        assert abs(loss - np.log(m)) < 1e-9

    def test_two_candidate_hand_value(self):
        q = Tensor([[1.0]])
        cands = Tensor([[1.0], [0.0]])
        loss = retrieval_loss(q, cands, [1.0, 0.0]).item()
        assert abs(loss - np.log(1 + np.exp(-1.0))) < 1e-12

    def test_saturated_positive_logit(self):
        q = Tensor([[1.0]])
        cands = Tensor([[1e6], [0.0], [0.0]])
        assert retrieval_loss(q, cands, [1, 0, 0]).item() < 1e-6

    def test_loss_is_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = Tensor(rng.normal(size=(1, 5)))
            cands = Tensor(rng.normal(size=(8, 5)))
            labels = np.eye(8)[int(rng.integers(8))]
            assert retrieval_loss(q, cands, labels).item() >= 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(6, 1))
        q = Tensor([[1.0]])
        labels = np.eye(6)[2]
        a = retrieval_loss(q, Tensor(base), labels).item()
        b = retrieval_loss(q, Tensor(base + 13.75), labels).item()
        assert abs(a - b) < 1e-12

    def test_strictly_decreasing_in_positive_logit(self):
        labels = [1.0, 0.0, 0.0]
        q = Tensor([[1.0]])
        prior = None
        for pos in (0.0, 0.5, 1.0, 2.0, 5.0):
            loss = retrieval_loss(q, Tensor([[pos], [0.2], [-0.3]]), labels).item()
            if prior is not None:
                assert loss < prior
            prior = loss

    def test_label_validation(self):
        q = Tensor(np.zeros((1, 2)))
        cands = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValidationError):
            retrieval_loss(q, cands, [0, 0, 0, 0])
        with pytest.raises(ValidationError):
            retrieval_loss(q, cands, [1, 1, 0, 0])
        with pytest.raises(ValidationError):
            retrieval_loss(q, Tensor(np.zeros((1, 2))), [1.0])

    def test_batched_form_averages(self):
        rng = np.random.default_rng(2)
        B, M = 3, 5
        Q = rng.normal(size=(B, 4))
        C = rng.normal(size=(B * M, 4))
        Y = np.eye(M)[rng.integers(M, size=B)]
        singles = [
            retrieval_loss(Q[b : b + 1], C[b * M : (b + 1) * M], Y[b]).data for b in range(B)
        ]
        total = singles[0]
        for single in singles[1:]:
            total = total + single
        got = mean_retrieval_loss(Q, C, Y).data
        assert got.tobytes() == ((1.0 / B) * total).tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        labels = np.eye(6)[1]
        err = ad.gradient_check(
            lambda q, c: retrieval_loss(q, c, labels),
            [rng.normal(size=(1, 4)), rng.normal(size=(6, 4))],
        )
        assert err < 1e-4

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        labels = np.eye(5)[[0, 3, 3]]
        err = ad.gradient_check(
            lambda q, c: mean_retrieval_loss(q, c, labels),
            [rng.normal(size=(3, 4)), rng.normal(size=(15, 4))],
        )
        assert err < 1e-4

    def test_batch_shapes_validated(self):
        q, c = Tensor(np.zeros((2, 3))), Tensor(np.zeros((8, 3)))
        with pytest.raises(ShapeError):
            mean_retrieval_loss(q, c, np.eye(4)[0])
        with pytest.raises(ShapeError):
            mean_retrieval_loss(q, c, np.eye(3)[[0, 1]])
        with pytest.raises(ValidationError):
            mean_retrieval_loss(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, 3))), np.zeros((0, 4)))


class TestCcaLoss:
    def test_identical_views_have_zero_distance_term(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(10, 6))
        loss = cca_loss(Tensor(z), Tensor(z), CcaConfig(lam=0.0)).item()
        assert loss == 0.0

    def test_opposite_views_single_column(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(12, 1))
        loss = cca_loss(Tensor(z), Tensor(-z), CcaConfig(lam=0.0)).item()
        assert abs(loss - 4.0) < 1e-6

    def test_matches_brute_force_reference(self):
        Z_A = np.array([[1.0, 0.0], [0.0, 1.0]])
        Z_B = np.array([[1.0, 1.0], [0.0, 0.0]])
        got = cca_loss(Tensor(Z_A), Tensor(Z_B), CcaConfig(lam=1.0)).item()
        want = brute_force_cca(Z_A, Z_B, lam=1.0)
        assert abs(got - want) < 1e-9

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            Z_A = rng.normal(size=(9, 4))
            Z_B = rng.normal(size=(9, 4))
            got = cca_loss(Tensor(Z_A), Tensor(Z_B), CcaConfig(lam=0.37)).item()
            assert abs(got - brute_force_cca(Z_A, Z_B, 0.37)) < 1e-9

    def test_invariant_to_columnwise_affine_rescaling(self):
        rng = np.random.default_rng(7)
        Z_A = rng.normal(size=(20, 5)) * 1e3
        Z_B = rng.normal(size=(20, 5)) * 1e3
        scale_cols = rng.uniform(0.5, 2.0, size=5)
        shift = rng.normal(size=5) * 100
        cfg = CcaConfig(lam=0.5)
        base = cca_loss(Tensor(Z_A), Tensor(Z_B), cfg).item()
        moved = cca_loss(
            Tensor(Z_A * scale_cols + shift), Tensor(Z_B * scale_cols + shift), cfg
        ).item()
        assert abs(base - moved) < 1e-10

    def test_single_row_rejected(self):
        with pytest.raises(ValidationError):
            cca_loss(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]), CcaConfig())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cca_loss(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 3))), CcaConfig())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        cfg = CcaConfig(lam=0.8)
        err = ad.gradient_check(
            lambda a, b: cca_loss(a, b, cfg),
            [rng.normal(size=(8, 3)), rng.normal(size=(8, 3))],
        )
        assert err < 1e-4


class TestMaeLoss:
    def test_positive_rescaling_scores_zero(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 4))
        for y in (1.0, 2.0, 3.0):
            loss = mae_loss(x, Tensor(2.5 * x), MaeConfig(y_exponent=y)).item()
            assert abs(loss) < 1e-12

    def test_antipodal_reconstruction_scores_two_at_unit_exponent(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 3))
        loss = mae_loss(x, Tensor(-x), MaeConfig(y_exponent=1.0)).item()
        assert abs(loss - 2.0) < 1e-12

    def test_orthogonal_reconstruction_scores_one_at_square_exponent(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        z = np.array([[0.0, 3.0], [-1.0, 0.0]])
        loss = mae_loss(x, Tensor(z), MaeConfig(y_exponent=2.0)).item()
        assert abs(loss - 1.0) < 1e-12

    def test_tiny_reconstruction_counts_maximal_error(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[0.0, 0.0], [0.0, 1.0]])
        loss = mae_loss(x, Tensor(z), MaeConfig(y_exponent=2.0)).item()
        assert abs(loss - 0.5) < 1e-12

    def test_zero_norm_target_rejected(self):
        with pytest.raises(ValidationError):
            mae_loss(np.zeros((2, 2)), Tensor(np.ones((2, 2))), MaeConfig())

    def test_loss_stays_within_range(self):
        rng = np.random.default_rng(11)
        for y in (1.0, 2.0):
            x = rng.normal(size=(7, 5))
            z = rng.normal(size=(7, 5))
            loss = mae_loss(x, Tensor(z), MaeConfig(y_exponent=y)).item()
            assert 0.0 <= loss <= 2.0**y

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 4))
        cfg = MaeConfig(y_exponent=2.0)
        err = ad.gradient_check(
            lambda z: mae_loss(x, z, cfg), [rng.normal(size=(6, 4)) + 0.5]
        )
        assert err < 1e-4


class TestCombinedLoss:
    def test_zero_auxiliary_weights_recover_single_task(self):
        r = Tensor([[2.25]])
        w = LossWeights(alpha=1.0, beta=0.0, gamma=0.0)
        out = combined_loss(r, Tensor([[3.0]]), Tensor([[0.5]]), w)
        assert out.item() == r.item()

    def test_weighted_sum_arithmetic(self):
        w = LossWeights(alpha=1.0, beta=1e-3, gamma=1e-3)
        out = combined_loss(Tensor([[2.0]]), Tensor([[3.0]]), Tensor([[0.5]]), w)
        assert abs(out.item() - 2.0035) < 1e-12

    def test_disabled_terms_may_be_none(self):
        w = LossWeights(alpha=2.0, beta=1e-3, gamma=1e-3)
        out = combined_loss(Tensor([[1.5]]), None, None, w)
        assert out.item() == 3.0

    def test_all_terms_disabled_rejected(self):
        with pytest.raises(ValidationError):
            combined_loss(None, None, None, LossWeights())

    def test_non_finite_term_names_offender(self):
        bad = Tensor([[1.0]])
        bad.data = np.array([[np.inf]])
        with pytest.raises(NumericError) as err:
            combined_loss(Tensor([[1.0]]), bad, None, LossWeights())
        assert "cca" in str(err.value)

    def test_gradient_is_weighted_sum_of_task_gradients(self):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(4, 3))
        w = LossWeights(alpha=1.0, beta=0.25, gamma=0.125)

        def fr(x):
            return ad.mean_scalar(ad.power(x, 2.0))

        def fc(x):
            return ad.frobenius_sq(x)

        def fm(x):
            return ad.mean_scalar(ad.relu(x))

        separate = []
        for f in (fr, fc, fm):
            leaf = Tensor(x0, requires_grad=True)
            separate.append(ad.backward(f(leaf))[leaf])
        expect = w.alpha * separate[0] + w.beta * separate[1] + w.gamma * separate[2]

        leaf = Tensor(x0, requires_grad=True)
        grads = ad.backward(combined_loss(fr(leaf), fc(leaf), fm(leaf), w))
        np.testing.assert_allclose(grads[leaf], expect, atol=1e-12)

    def test_report_identity_holds(self):
        w = LossWeights(alpha=1.0, beta=1e-3, gamma=2e-3)
        r, c, m = Tensor([[2.0]]), Tensor([[3.0]]), Tensor([[0.5]])
        combined = combined_loss(r, c, m, w)
        report = make_report(r, c, m, combined)
        recomputed = w.alpha * report.retrieval + w.beta * report.cca + w.gamma * report.mae
        assert abs(report.combined - recomputed) < 1e-12

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            LossWeights(alpha=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="beta must be finite"):
                LossWeights(beta=bad)
            with pytest.raises(ValidationError, match="y_exponent must be finite"):
                MaeConfig(y_exponent=bad)
        with pytest.raises(ValidationError):
            MaeConfig(y_exponent=0.5)
        with pytest.raises(ValidationError):
            CcaConfig(lam=-0.1)
