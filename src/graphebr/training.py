"""Multitask trainer: per-step sampling, three forward paths through the
shared encoder, one combined backward pass, and bias-corrected Adam.

Every random draw in a step derives from (seed, step_index) alone, with an
independent stream per purpose. Runs are therefore bitwise reproducible,
batches could be prepared ahead of the optimizer, disabling a task leaves
the remaining tasks' randomness untouched, and resuming from a checkpoint
continues the exact sequence of an uninterrupted run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    NumericError,
    ShapeError,
    SkipExample,
    ValidationError,
    is_integer,
    require_integer_fields,
)
from .gat import EncoderParams, cca_head, encode, init_params, mae_reconstruct
from .graph import GraphStore
from .losses import (
    CcaConfig,
    LossWeights,
    MaeConfig,
    cca_loss,
    combined_loss,
    mae_loss,
    make_report,
    mean_retrieval_loss,
)
from .sampling import (
    AugmentationConfig,
    augment_edge_drop,
    augment_feature_drop,
    mask_query_features,
    merge_examples,
    sample_retrieval_example,  # one example, for loss_gradient_cases; steps use the batch form
    sample_retrieval_examples,
)

TASKS = ("retrieval", "cca", "mae")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    steps: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    weights: LossWeights = field(default_factory=LossWeights)
    cca: CcaConfig = field(default_factory=CcaConfig)
    mae: MaeConfig = field(default_factory=MaeConfig)
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    k: int = 2
    fanout: int | None = 10
    num_negatives: int = 15
    seed: int = 0
    checkpoint_every: int = 0
    enabled_tasks: tuple[str, ...] = TASKS
    hidden_dims: tuple[int, ...] = (64,)
    embedding_dim: int = 64
    projection_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "enabled_tasks", tuple(self.enabled_tasks))
        require_integer_fields(self, "train config")
        if self.steps < 1:
            raise ValidationError("train config: steps must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("train config: batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("train config: learning_rate must be finite and positive")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValidationError("train config: clip_norm must be finite and positive")
        if self.k < 1:
            raise ValidationError("train config: k must be >= 1")
        if self.fanout is not None and self.fanout < 1:
            raise ValidationError("train config: fanout must be >= 1 or null")
        if self.num_negatives < 1:
            raise ValidationError("train config: num_negatives must be >= 1")
        if self.checkpoint_every < 0:
            raise ValidationError("train config: checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ValidationError("train config: seed must be non-negative")
        if not self.enabled_tasks:
            raise ValidationError("train config: enabled_tasks must be nonempty")
        unknown = set(self.enabled_tasks) - set(TASKS)
        if unknown:
            raise ValidationError(f"train config: unknown tasks {sorted(unknown)}")
        if not self.active_tasks():
            raise ValidationError("train config: every enabled task has weight 0")
        if min(self.embedding_dim, self.projection_dim, *self.hidden_dims, 1) < 1:
            raise ValidationError("train config: dimensions must be positive")

    def active_tasks(self) -> tuple:
        """Enabled tasks whose loss weight is strictly positive.

        A task that is disabled or weighted 0 is skipped outright: it
        consumes no randomness and records nothing on the tape, so ablated
        runs match dedicated single-task runs bitwise.
        """
        weight_of = {
            "retrieval": self.weights.alpha,
            "cca": self.weights.beta,
            "mae": self.weights.gamma,
        }
        return tuple(t for t in TASKS if t in self.enabled_tasks and weight_of[t] > 0.0)

    def encoder_dims(self, feature_dim: int) -> list:
        return [int(feature_dim), *self.hidden_dims, self.embedding_dim]


def config_to_dict(cfg: TrainConfig) -> dict:
    """JSON-compatible view of a config (tuples become lists)."""
    return json.loads(json.dumps(asdict(cfg)))


def _list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(check(x) for x in value)


# JSON shape each annotated field accepts: (what the error calls it, check);
# `X | None` also accepts null, and a dataclass field takes an object
_JSON_TYPES = {
    int: ("an integer", is_integer),
    float: (
        "a finite number",
        lambda v: is_integer(v) or (isinstance(v, float) and math.isfinite(v)),
    ),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[str, ...]: ("a list of strings", _list_of(lambda v: isinstance(v, str))),
    tuple[int, ...]: ("a list of integers", _list_of(is_integer)),
}


def load_dataclass(cls, raw, where: str, _path: str = ""):
    """Build dataclass `cls` from a parsed JSON object.

    Rejects a non-object, unknown or missing fields, and any value whose
    JSON shape does not fit its field's annotation, recursing into fields
    that are themselves dataclasses. Errors start with `where` and name
    the field by its dotted path.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    block = f" in {_path[:-1]}:" if _path else ""
    declared = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(declared)
    if unknown:
        raise ValidationError(f"{where}: unknown fields{block} {sorted(unknown)}")
    missing = [
        name for name, f in declared.items()
        if name not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValidationError(f"{where}: missing fields{block} {missing}")
    hints = get_type_hints(cls)
    values = {}
    for name, value in raw.items():
        hint, or_null = hints[name], ""
        if type(None) in get_args(hint):
            if value is None:
                values[name] = None
                continue
            (hint,) = set(get_args(hint)) - {type(None)}
            or_null = " or null"
        nested = is_dataclass(hint)
        kind, ok = ("an object", lambda v: isinstance(v, dict)) if nested else _JSON_TYPES[hint]
        if not ok(value):
            raise ValidationError(f"{where}: {_path}{name} must be {kind}{or_null}")
        values[name] = load_dataclass(hint, value, where, f"{_path}{name}.") if nested else value
    return cls(**values)


def config_from_dict(raw: dict) -> TrainConfig:
    return load_dataclass(TrainConfig, raw, "train config")


@dataclass
class OptimizerState:
    """Adam moment estimates, keyed like EncoderParams.named_parameters()."""

    m: dict
    v: dict
    t: int = 0


def init_optimizer(params: EncoderParams) -> OptimizerState:
    named = params.named_parameters()
    return OptimizerState(
        m={name: np.zeros(p.shape) for name, p in named.items()},
        v={name: np.zeros(p.shape) for name, p in named.items()},
    )


def clip_gradients(grads: dict, max_norm: float):
    """Rescale the gradient map so its global L2 norm is at most max_norm.

    Returns (clipped gradients, pre-clip norm).
    """
    total = float(np.sqrt(sum((g * g).sum() for g in grads.values())))
    if total > max_norm:
        scale = max_norm / total
        grads = {name: g * scale for name, g in grads.items()}
    return grads, total


def adam_update(params: EncoderParams, grads: dict, opt: OptimizerState, lr):
    """Bias-corrected Adam step, in place; missing gradients count as zero."""
    named = params.named_parameters()
    unknown = set(grads) - set(named)
    if unknown:
        raise ValidationError(f"adam: gradients for unknown parameters {sorted(unknown)}")
    opt.t += 1
    correct1 = 1.0 - _ADAM_BETA1 ** opt.t
    correct2 = 1.0 - _ADAM_BETA2 ** opt.t
    for name, p in named.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        elif g.shape != p.shape:
            raise ShapeError(f"adam: gradient {g.shape} vs parameter {p.shape} for {name}")
        m = opt.m[name] = _ADAM_BETA1 * opt.m[name] + (1.0 - _ADAM_BETA1) * g
        v = opt.v[name] = _ADAM_BETA2 * opt.v[name] + (1.0 - _ADAM_BETA2) * (g * g)
        updated = p.data - lr * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)
        if not np.isfinite(updated.sum()):
            raise NumericError(f"adam: non-finite update for {name}")
        p.data = updated
    return params, opt


def step_seed_streams(seed: int, step_index: int):
    """Per-purpose child seeds hashed from (run seed, step index)."""
    return np.random.SeedSequence([int(seed), int(step_index)]).spawn(3)


def _sample_batch(graph: GraphStore, cfg: TrainConfig, seed_stream):
    """Assemble up to batch_size retrieval examples; None if all draws skip.

    Queries without neighbors are skipped, but every draw, kept or not,
    spawns one example seed from the stream.
    """
    rng = np.random.default_rng(seed_stream)
    queries, seeds = [], []
    for _ in range(50 * cfg.batch_size):
        if len(queries) == cfg.batch_size:
            break
        query = int(rng.integers(graph.num_nodes))
        seed = seed_stream.spawn(1)[0]
        if graph.degrees[query]:
            queries.append(query)
            seeds.append(seed)
    if not queries:
        return None
    roots, context_seeds = sample_retrieval_examples(graph, queries, cfg.num_negatives, seeds)
    return merge_examples(graph, roots, cfg.k, cfg.fanout, context_seeds)


def step_gradients(graph: GraphStore, params: EncoderParams, cfg: TrainConfig, step_index: int):
    """Forward and backward passes for one step.

    Returns (named gradient map, LossReport), or None when no query in the
    sampling budget had a neighbor to retrieve.
    """
    try:
        retrieval_ss, cca_ss, mae_ss = step_seed_streams(cfg.seed, step_index)
        active = cfg.active_tasks()
        batch = _sample_batch(graph, cfg, retrieval_ss)
        if batch is None:
            return None

        retrieval = cca = mae = None
        if "retrieval" in active:
            Z = encode(params, batch)
            retrieval = mean_retrieval_loss(
                ad.gather_rows(Z, batch.query_locals),
                ad.gather_rows(Z, batch.candidate_rows),
                batch.labels,
            )

        aug = cfg.augmentation
        if "cca" in active:
            seed_a_edges, seed_a_feats, seed_b_edges, seed_b_feats = cca_ss.spawn(4)
            view_a = augment_feature_drop(
                augment_edge_drop(batch, aug.edge_drop_prob, seed_a_edges),
                aug.feature_drop_prob, seed_a_feats,
            )
            view_b = augment_feature_drop(
                augment_edge_drop(batch, aug.edge_drop_prob, seed_b_edges),
                aug.feature_drop_prob, seed_b_feats,
            )
            proj_a = cca_head(params, encode(params, view_a))
            proj_b = cca_head(params, encode(params, view_b))
            cca = cca_loss(proj_a, proj_b, cfg.cca)

        if "mae" in active:
            (seed_edges,) = mae_ss.spawn(1)
            dropped = augment_edge_drop(batch, aug.edge_drop_prob, seed_edges)
            masked, originals = mask_query_features(dropped)
            recon = mae_reconstruct(params, masked, encode(params, masked))
            recon_queries = ad.gather_rows(recon, masked.query_locals)
            mae = mae_loss(originals, recon_queries, cfg.mae)

        combined = combined_loss(retrieval, cca, mae, cfg.weights)
        by_tensor = ad.backward(combined)
    except NumericError as err:
        ad.active_tape().clear()
        raise NumericError(f"step {step_index}: {err}") from err

    grads = {}
    for name, p in params.named_parameters().items():
        g = by_tensor.get(p)
        if g is not None:
            grads[name] = g
    return grads, make_report(retrieval, cca, mae, combined)


def train_step(graph: GraphStore, params: EncoderParams, opt: OptimizerState, cfg: TrainConfig, step_index: int):
    """One full optimization step; report is None for a skipped step."""
    result = step_gradients(graph, params, cfg, step_index)
    if result is None:
        return params, opt, None
    grads, report = result
    grads, _ = clip_gradients(grads, cfg.clip_norm)
    params, opt = adam_update(params, grads, opt, cfg.learning_rate)
    return params, opt, report


@dataclass
class TrainResult:
    """Trained parameters with their optimizer state and loss history."""

    params: EncoderParams
    optimizer: OptimizerState
    config: TrainConfig
    history: list
    skipped_steps: int = 0


def init_model(cfg: TrainConfig, feature_dim: int) -> EncoderParams:
    """Fresh encoder parameters; the init draw never collides with step seeds."""
    return init_params(
        cfg.encoder_dims(feature_dim),
        (cfg.projection_dim, cfg.projection_dim),
        np.random.SeedSequence([cfg.seed]),
    )


def train(
    graph: GraphStore,
    cfg: TrainConfig,
    *,
    checkpoint_dir=None,
    metrics_stream=None,
    resume_from=None,
) -> TrainResult:
    """Run cfg.steps optimization steps.

    Writes one JSON metrics object per executed step to metrics_stream
    (fields: step, retrieval, cca, mae, combined, wall_ms); steps whose
    batch could not be sampled emit no record and are only counted.
    Checkpoints go to checkpoint_dir every checkpoint_every steps plus a
    final one; resume_from continues a run from such a file.
    """
    if resume_from is not None:
        params, opt, saved_cfg, start = load_checkpoint(resume_from)
        _require_matching_config(cfg, saved_cfg)
        if start > cfg.steps:
            raise ValidationError(
                f"resume: checkpoint is at step {start}, past the configured {cfg.steps}"
            )
    else:
        params = init_model(cfg, graph.features.shape[1])
        opt = init_optimizer(params)
        start = 0

    history = []
    skipped = 0
    for step_index in range(start, cfg.steps):
        begun = time.perf_counter()
        params, opt, report = train_step(graph, params, opt, cfg, step_index)
        wall_ms = (time.perf_counter() - begun) * 1000.0
        if report is None:
            skipped += 1
        else:
            record = {
                "step": step_index,
                "retrieval": report.retrieval,
                "cca": report.cca,
                "mae": report.mae,
                "combined": report.combined,
                "wall_ms": wall_ms,
            }
            history.append(record)
            if metrics_stream is not None:
                metrics_stream.write(json.dumps(record, sort_keys=True) + "\n")
        done = step_index + 1
        if (
            checkpoint_dir is not None
            and cfg.checkpoint_every
            and done % cfg.checkpoint_every == 0
            and done < cfg.steps
        ):
            save_checkpoint(
                os.path.join(checkpoint_dir, f"checkpoint_{done:06d}.npz"),
                params, opt, cfg, done,
            )
    if checkpoint_dir is not None:
        save_checkpoint(
            os.path.join(checkpoint_dir, "checkpoint_final.npz"),
            params, opt, cfg, cfg.steps,
        )
    return TrainResult(params=params, optimizer=opt, config=cfg, history=history, skipped_steps=skipped)


def save_checkpoint(path, params: EncoderParams, opt: OptimizerState, cfg: TrainConfig, next_step: int):
    """Write parameters, Adam moments, config snapshot, and step counter."""
    arrays = {}
    for name, p in params.named_parameters().items():
        arrays[f"param/{name}"] = p.data
        arrays[f"opt_m/{name}"] = opt.m[name]
        arrays[f"opt_v/{name}"] = opt.v[name]
    arrays["opt_t"] = np.array(opt.t, dtype=np.int64)
    arrays["next_step"] = np.array(int(next_step), dtype=np.int64)
    arrays["config_json"] = np.array(json.dumps(config_to_dict(cfg), sort_keys=True))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except OSError as err:
        raise OSError(
            f"checkpoint write failed ({path}): state at step {next_step} was not persisted"
        ) from err


def load_checkpoint(path):
    """Rebuild (params, optimizer, config, next_step) from a checkpoint."""
    with np.load(path, allow_pickle=False) as data:
        try:
            cfg = config_from_dict(json.loads(str(data["config_json"][()])))
            next_step = int(data["next_step"][()])
            params = EncoderParams.from_named({
                key[len("param/"):]: Tensor(np.array(data[key]), requires_grad=True)
                for key in data.files
                if key.startswith("param/")
            })
            names = params.named_parameters()
            opt = OptimizerState(
                m={name: np.array(data[f"opt_m/{name}"]) for name in names},
                v={name: np.array(data[f"opt_v/{name}"]) for name in names},
                t=int(data["opt_t"][()]),
            )
        except KeyError as err:
            raise ValidationError(f"checkpoint {path}: missing entry {err}") from err
    return params, opt, cfg, next_step


def _require_matching_config(cfg: TrainConfig, saved: TrainConfig):
    """Everything but the horizon fields must match the checkpoint's config."""
    ours, theirs = config_to_dict(cfg), config_to_dict(saved)
    for horizon in ("steps", "checkpoint_every"):
        ours.pop(horizon), theirs.pop(horizon)
    if ours != theirs:
        diff = sorted(key for key in ours if ours[key] != theirs[key])
        raise ValidationError(f"resume: config differs from the checkpoint in {diff}")


def loss_gradient_cases(seed: int = 0) -> list:
    """Finite-difference checks of each loss through the whole encoder.

    Builds one small sampled instance per task and compares reverse-mode
    gradients with central differences over every parameter tensor,
    including the ones each loss should ignore. Returns (name, error) pairs.
    """
    from .graph import generate_synthetic_graph

    graph = generate_synthetic_graph(
        num_nodes=24, num_communities=2, p_in=0.4, p_out=0.1,
        feature_dim=5, cold_start_fraction=0.0, rng_seed=seed,
    )
    sub = None
    for query in range(graph.num_nodes):
        try:
            sub = sample_retrieval_example(graph, query, 3, 2, 4, seed)
            break
        except SkipExample:
            continue
    if sub is None:
        raise ValidationError("gradient cases: sampled graph has no usable query")

    base = init_params([5, 4, 3], (4, 3), np.random.SeedSequence([seed, 7]))
    names = list(base.named_parameters())

    def rebuild(tensors):
        return EncoderParams.from_named(dict(zip(names, tensors)))

    def retrieval_case(*tensors):
        Z = encode(rebuild(tensors), sub)
        return mean_retrieval_loss(
            ad.gather_rows(Z, sub.query_locals),
            ad.gather_rows(Z, sub.candidate_rows),
            sub.labels,
        )

    seeds = np.random.SeedSequence([seed, 11]).spawn(3)
    view_a = augment_feature_drop(augment_edge_drop(sub, 0.2, seeds[0]), 0.2, seeds[1])
    view_b = augment_edge_drop(sub, 0.2, seeds[2])

    def cca_case(*tensors):
        p = rebuild(tensors)
        return cca_loss(
            cca_head(p, encode(p, view_a)),
            cca_head(p, encode(p, view_b)),
            CcaConfig(lam=0.5),
        )

    masked, originals = mask_query_features(view_b)

    def mae_case(*tensors):
        p = rebuild(tensors)
        recon = mae_reconstruct(p, masked, encode(p, masked))
        return mae_loss(
            originals, ad.gather_rows(recon, masked.query_locals), MaeConfig(2.0)
        )

    arrays = [p.data for p in base.named_parameters().values()]
    return [
        ("retrieval", ad.gradient_check(retrieval_case, arrays)),
        ("cca", ad.gradient_check(cca_case, arrays)),
        ("mae", ad.gradient_check(mae_case, arrays)),
    ]
