import io
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from graphebr.errors import ShapeError, ValidationError
from graphebr.gat import encode, init_params
from graphebr.graph import GraphStore, generate_synthetic_graph
from graphebr.losses import CcaConfig, LossWeights
from graphebr.sampling import AugmentationConfig, khop_subgraph
from graphebr.training import (
    TrainConfig,
    adam_update,
    clip_gradients,
    config_from_dict,
    config_to_dict,
    gradient_case_instances,
    init_model,
    init_optimizer,
    load_checkpoint,
    loss_gradient_cases,
    save_checkpoint,
    step_gradients,
    train,
    train_step,
)


def small_graph(seed=0):
    return generate_synthetic_graph(
        num_nodes=120, num_communities=2, p_in=0.15, p_out=0.02,
        feature_dim=8, cold_start_fraction=0.1, rng_seed=seed,
    )


def small_config(**overrides):
    base = dict(
        steps=5, batch_size=4, k=2, fanout=4, num_negatives=3,
        hidden_dims=(16,), embedding_dim=8, projection_dim=8, seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def params_equal(a, b):
    return all(
        np.array_equal(ta.data, tb.data)
        for ta, tb in zip(a.named_parameters().values(), b.named_parameters().values())
    )


def stripped_metrics(stream):
    lines = stream.getvalue().strip().split("\n")
    return [
        json.dumps(
            {k: v for k, v in json.loads(line).items() if k != "wall_ms"},
            sort_keys=True,
        )
        for line in lines if line
    ]


class TestTrainConfig:
    def test_invalid_settings_rejected(self):
        for bad in (
            dict(steps=0),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(clip_norm=0.0),
            dict(num_negatives=0),
            dict(k=0),
            dict(k=-1),
            dict(fanout=0),
            dict(seed=-1),
            dict(enabled_tasks=()),
            dict(enabled_tasks=("retrieval", "contrastive")),
            dict(embedding_dim=0),
        ):
            with pytest.raises(ValidationError):
                small_config(**bad)

    def test_all_enabled_tasks_weightless_rejected(self):
        with pytest.raises(ValidationError):
            small_config(
                enabled_tasks=("cca", "mae"),
                weights=LossWeights(alpha=1.0, beta=0.0, gamma=0.0),
            )

    def test_active_tasks_honor_weights_and_enablement(self):
        cfg = small_config(weights=LossWeights(alpha=1.0, beta=0.0, gamma=1e-3))
        assert cfg.active_tasks() == ("retrieval", "mae")
        cfg = small_config(enabled_tasks=("cca",))
        assert cfg.active_tasks() == ("cca",)

    def test_dict_round_trip(self):
        cfg = small_config(fanout=None, enabled_tasks=("retrieval", "cca"))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_field_rejected(self):
        # the last three were settings before they became constants
        for block, name in (
            (None, "momentum"),
            (None, "adam_beta1"),
            (None, "leaky_slope"),
            ("augmentation", "mask_value"),
        ):
            raw = config_to_dict(small_config())
            (raw if block is None else raw[block])[name] = 0.5
            with pytest.raises(ValidationError, match="unknown fields"):
                config_from_dict(raw)

    def test_mistyped_values_rejected_naming_the_field(self):
        for patch, named in (
            ({"steps": "ten"}, "steps"),
            ({"steps": 2.5}, "steps"),
            ({"steps": True}, "steps"),
            ({"fanout": "x"}, "fanout"),
            ({"learning_rate": "0.1"}, "learning_rate"),
            ({"hidden_dims": [2.5]}, "hidden_dims"),
            ({"enabled_tasks": [["retrieval"]]}, "enabled_tasks"),
            ({"weights": {"alpha": "x"}}, "weights.alpha"),
            ({"augmentation": {"edge_drop_prob": None}}, "augmentation.edge_drop_prob"),
            ({"weights": {"beta": float("nan")}}, "weights.beta"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"clip_norm": float("inf")}, "clip_norm"),
            ({"mae": {"y_exponent": float("nan")}}, "mae.y_exponent"),
        ):
            raw = {**config_to_dict(small_config()), **patch}
            with pytest.raises(ValidationError, match=rf"train config: {named} must be"):
                config_from_dict(raw)

    def test_python_callers_get_no_integer_truncation(self):
        for patch, named in (
            ({"hidden_dims": (2.5,)}, "hidden_dims"),
            ({"hidden_dims": (True,)}, "hidden_dims"),
            ({"steps": 2.5}, "steps"),
            ({"k": True}, "k"),
            ({"fanout": 5.0}, "fanout"),
            ({"seed": np.float64(3.0)}, "seed"),
        ):
            with pytest.raises(ValidationError, match=rf"train config: {named} must be"):
                small_config(**patch)
        cfg = small_config(hidden_dims=[np.int64(8)], seed=np.int32(4))
        assert cfg.hidden_dims == (8,) and type(cfg.hidden_dims[0]) is int
        assert type(cfg.seed) is int

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: small_config(learning_rate=True),
                     "train config: learning_rate must be a real number", id="bool-float"),
        pytest.param(lambda: LossWeights(alpha="x"),
                     "loss weights: alpha must be a real number", id="str-weight"),
        pytest.param(lambda: AugmentationConfig(edge_drop_prob="x"),
                     "augmentation: edge_drop_prob must be a real number", id="str-probability"),
        pytest.param(lambda: CcaConfig(lam=None),
                     "cca: lam must be a real number", id="none-lam"),
        pytest.param(lambda: small_config(weights={"alpha": 1.0}),
                     "train config: weights must be a LossWeights", id="dict-block"),
        pytest.param(lambda: small_config(enabled_tasks="retrieval"),
                     "train config: enabled_tasks must be a list of strings", id="bare-string-list"),
    ])
    def test_python_callers_get_the_json_loaders_type_checks(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()

    def test_integer_learning_rate_and_null_fanout_accepted(self):
        raw = {**config_to_dict(small_config()), "learning_rate": 1, "fanout": None}
        cfg = config_from_dict(raw)
        assert (cfg.learning_rate, cfg.fanout) == (1, None)


class TestAdam:
    def make(self, value=0.0):
        params = init_params([1, 1], (1, 1), 0)
        for p in params.named_parameters().values():
            p.data = np.full(p.shape, value)
        return params, init_optimizer(params)

    def test_first_step_hand_value(self):
        params, opt = self.make(0.0)
        grads = {name: np.ones(p.shape) for name, p in params.named_parameters().items()}
        adam_update(params, grads, opt, 0.1)
        # bias correction makes the first step lr * 1 / (1 + eps)
        want = -0.1 / (1.0 + 1e-8)
        for p in params.named_parameters().values():
            assert abs(p.data[0, 0] - want) < 1e-15
        assert opt.t == 1

    def test_second_step_hand_value(self):
        params, opt = self.make(0.0)
        ones = {name: np.ones(p.shape) for name, p in params.named_parameters().items()}
        adam_update(params, ones, opt, 0.1)
        adam_update(params, {}, opt, 0.1)
        # beta1 0.9 and beta2 0.999: m = 0.09 and v = 0.999e-3 after a zero gradient
        m_hat = 0.9 * 0.1 / (1.0 - 0.9**2)
        v_hat = 0.999 * 1e-3 / (1.0 - 0.999**2)
        want = -0.1 / (1.0 + 1e-8) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for p in params.named_parameters().values():
            assert abs(p.data[0, 0] - want) < 1e-15

    def test_zero_gradient_leaves_parameters_unchanged(self):
        params, opt = self.make(0.7)
        before = {n: p.data.copy() for n, p in params.named_parameters().items()}
        adam_update(params, {}, opt, 0.1)
        for name, p in params.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_identical_gradient_sequences_match(self):
        rng = np.random.default_rng(0)
        seq = [rng.normal() for _ in range(5)]
        runs = []
        for _ in range(2):
            params, opt = self.make(0.0)
            for g in seq:
                grads = {n: np.full(p.shape, g) for n, p in params.named_parameters().items()}
                adam_update(params, grads, opt, 0.01)
            runs.append(params)
        assert params_equal(*runs)

    def test_unknown_gradient_name_rejected(self):
        params, opt = self.make()
        with pytest.raises(ValidationError):
            adam_update(params, {"stray": np.ones((1, 1))}, opt, 0.1)

    def test_mismatched_gradient_shape_rejected(self):
        params, opt = self.make()
        with pytest.raises(ShapeError):
            adam_update(params, {"layer0.W": np.ones((2, 2))}, opt, 0.1)


class TestClipGradients:
    def test_small_gradients_pass_through(self):
        grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
        clipped, norm = clip_gradients(grads, 6.0)
        assert norm == 5.0
        assert clipped is grads

    def test_large_gradients_scaled_to_max_norm(self):
        grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
        clipped, norm = clip_gradients(grads, 1.0)
        assert norm == 5.0
        total = np.sqrt(sum((g * g).sum() for g in clipped.values()))
        assert abs(total - 1.0) < 1e-12


class TestStepGradients:
    def test_all_tasks_cover_every_parameter(self):
        graph = small_graph()
        cfg = small_config()
        params = init_model(cfg, 8)
        grads, report = step_gradients(graph, params, cfg, 0)
        assert set(grads) == set(params.named_parameters())
        for value in report.to_dict().values():
            assert np.isfinite(value)

    def test_single_task_touches_only_its_parameters(self):
        graph = small_graph()
        params = init_model(small_config(), 8)
        backbone = {n for n in params.named_parameters() if n.startswith("layer")}

        grads, _ = step_gradients(graph, params, small_config(enabled_tasks=("retrieval",)), 0)
        assert set(grads) == backbone
        grads, _ = step_gradients(graph, params, small_config(enabled_tasks=("cca",)), 0)
        assert set(grads) == backbone | {"cca_head.W1", "cca_head.W2"}
        grads, _ = step_gradients(graph, params, small_config(enabled_tasks=("mae",)), 0)
        assert set(grads) == backbone | {"mae.head", "mae.decoder"}

    def test_retrieval_term_ignores_other_tasks(self):
        graph = small_graph()
        params = init_model(small_config(), 8)
        _, all_tasks = step_gradients(graph, params, small_config(), 0)
        _, only = step_gradients(graph, params, small_config(enabled_tasks=("retrieval",)), 0)
        assert all_tasks.retrieval == only.retrieval


class TestTrainStep:
    def test_parameters_move_and_deterministically(self):
        graph = small_graph()
        cfg = small_config()
        runs = []
        for _ in range(2):
            params = init_model(cfg, 8)
            opt = init_optimizer(params)
            before = {n: p.data.copy() for n, p in params.named_parameters().items()}
            _, _, report = train_step(graph, params, opt, cfg, 0)
            assert report is not None
            moved = any(
                not np.array_equal(p.data, before[n])
                for n, p in params.named_parameters().items()
            )
            assert moved
            runs.append(params)
        assert params_equal(*runs)


class TestTrain:
    def test_smoke_run_reduces_retrieval_loss(self):
        graph = small_graph()
        cfg = small_config(steps=60, enabled_tasks=("retrieval",), learning_rate=5e-3)
        result = train(graph, cfg)
        losses = [rec["retrieval"] for rec in result.history]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_history_is_finite(self, seed):
        graph = small_graph(seed)
        result = train(graph, small_config(steps=15, seed=seed))
        for rec in result.history:
            for key in ("retrieval", "cca", "mae", "combined"):
                assert np.isfinite(rec[key])

    def test_metrics_records_have_exactly_the_contract_fields(self):
        stream = io.StringIO()
        train(small_graph(), small_config(), metrics_stream=stream)
        lines = stream.getvalue().strip().split("\n")
        assert len(lines) == 5
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert sorted(rec) == ["cca", "combined", "mae", "retrieval", "step", "wall_ms"]
            assert rec["step"] == i

    def test_identical_runs_emit_identical_metrics(self):
        streams = [io.StringIO(), io.StringIO()]
        for stream in streams:
            train(small_graph(), small_config(), metrics_stream=stream)
        assert stripped_metrics(streams[0]) == stripped_metrics(streams[1])

    def test_ablation_matches_single_task_run_bitwise(self):
        graph = small_graph()
        cfg_tasks = small_config(steps=20, enabled_tasks=("retrieval",))
        cfg_weights = small_config(steps=20, weights=LossWeights(alpha=1.0, beta=0.0, gamma=0.0))
        streams = [io.StringIO(), io.StringIO()]
        run_a = train(graph, cfg_tasks, metrics_stream=streams[0])
        run_b = train(graph, cfg_weights, metrics_stream=streams[1])
        assert stripped_metrics(streams[0]) == stripped_metrics(streams[1])
        assert params_equal(run_a.params, run_b.params)

    def test_every_node_isolated_skips_all_steps(self):
        graph = GraphStore(np.random.default_rng(0).normal(size=(6, 4)), np.zeros((0, 2), dtype=np.int64))
        stream = io.StringIO()
        result = train(graph, small_config(steps=3, batch_size=2), metrics_stream=stream)
        assert result.skipped_steps == 3
        assert result.history == []
        assert stream.getvalue() == ""


class TestCheckpoints:
    def test_round_trip_preserves_state_and_embeddings(self, tmp_path):
        graph = small_graph()
        cfg = small_config()
        result = train(graph, cfg, checkpoint_dir=str(tmp_path))
        path = tmp_path / "checkpoint_final.npz"
        params, opt, loaded_cfg, next_step = load_checkpoint(str(path))
        assert loaded_cfg == cfg and next_step == 5
        assert params_equal(params, result.params)
        assert opt.t == result.optimizer.t
        for name in opt.m:
            np.testing.assert_array_equal(opt.m[name], result.optimizer.m[name])
            np.testing.assert_array_equal(opt.v[name], result.optimizer.v[name])
        sub = khop_subgraph(graph, 0, 2, None, 0)
        np.testing.assert_array_equal(
            encode(params, sub).data, encode(result.params, sub).data
        )

    def test_periodic_checkpoints_written(self, tmp_path):
        train(small_graph(), small_config(steps=5, checkpoint_every=2), checkpoint_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["checkpoint_000002.npz", "checkpoint_000004.npz", "checkpoint_final.npz"]

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        graph = small_graph()
        cfg = small_config(steps=20)
        full_stream = io.StringIO()
        full = train(graph, cfg, metrics_stream=full_stream)

        train(graph, small_config(steps=10), checkpoint_dir=str(tmp_path))
        resumed_stream = io.StringIO()
        resumed = train(
            graph, cfg, metrics_stream=resumed_stream,
            resume_from=str(tmp_path / "checkpoint_final.npz"),
        )
        assert params_equal(full.params, resumed.params)
        assert stripped_metrics(full_stream)[10:] == stripped_metrics(resumed_stream)

    def test_resume_rejects_different_config(self, tmp_path):
        graph = small_graph()
        train(graph, small_config(), checkpoint_dir=str(tmp_path))
        with pytest.raises(ValidationError) as err:
            train(
                graph, small_config(learning_rate=2e-3),
                resume_from=str(tmp_path / "checkpoint_final.npz"),
            )
        assert "learning_rate" in str(err.value)

    def test_resume_beyond_configured_steps_rejected(self, tmp_path):
        graph = small_graph()
        train(graph, small_config(steps=5), checkpoint_dir=str(tmp_path))
        with pytest.raises(ValidationError):
            train(graph, small_config(steps=3), resume_from=str(tmp_path / "checkpoint_final.npz"))

    def test_truncated_checkpoint_rejected(self, tmp_path):
        cfg = small_config()
        params = init_model(cfg, 8)
        opt = init_optimizer(params)
        path = tmp_path / "partial.npz"
        save_checkpoint(str(path), params, opt, cfg, 5)
        with np.load(str(path)) as data:
            kept = {k: data[k] for k in data.files if k != "opt_t"}
        np.savez(str(path), **kept)
        with pytest.raises(ValidationError):
            load_checkpoint(str(path))

    def test_stray_parameter_rejected(self, tmp_path):
        cfg = small_config()
        params = init_model(cfg, 8)
        path = tmp_path / "stray.npz"
        save_checkpoint(str(path), params, init_optimizer(params), cfg, 5)
        with np.load(str(path)) as data:
            kept = {k: data[k] for k in data.files}
        kept["param/extra.W"] = np.ones((2, 2))
        np.savez(str(path), **kept)
        with pytest.raises(ValidationError, match="unexpected parameter names.*'extra.W'"):
            load_checkpoint(str(path))


class TestLossGradientCases:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_path_matches_finite_differences(self, seed):
        cases = loss_gradient_cases(seed)
        assert [name for name, _ in cases] == ["retrieval", "cca", "mae"]
        for name, err in cases:
            assert err < 1e-4, f"{name}: {err}"

    @pytest.mark.parametrize("seed", range(10))
    def test_every_instance_has_a_gradient_in_every_encoder_layer(self, seed):
        # a loss the encoder cannot move passes any gradient check vacuously
        for task, graph, cfg, params, step_index in gradient_case_instances(seed):
            assert cfg.active_tasks() == (task,)
            grads, _ = step_gradients(graph, params, cfg, step_index)
            for i in range(len(params.layers)):
                assert np.any(grads[f"layer{i}.W"]), f"{task}: layer{i}.W is all zero"
