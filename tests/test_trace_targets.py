"""The benchmark's traced run rebinds module attributes of the program; a
renamed or deleted attribute would make every `--trace 1` run fail, and a
forward that stops calling them would leave its layers reading 0."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import graphebr.training as gt
from graphebr.graph import generate_synthetic_graph

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

TRAINING_SPANS = (
    "training.step", "sampling.merge", "sampling.augment", "gat.encode", "gat.heads",
    "losses.retrieval", "losses.cca", "losses.mae", "autodiff.backward",
    "training.clip", "training.adam",
)


def benchmark_module(name):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_every_traced_attribute_exists():
    targets = benchmark_module("workloads").trace_targets()
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in targets
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_a_multitask_train_step_records_every_training_span():
    workloads, harness = benchmark_module("workloads"), benchmark_module("harness")
    graph = generate_synthetic_graph(60, 2, 0.2, 0.04, 6, 0.0, rng_seed=3)
    cfg = gt.TrainConfig(
        batch_size=4, k=1, fanout=4, num_negatives=3,
        hidden_dims=(8,), embedding_dim=8, projection_dim=8, seed=7,
    )
    params = gt.init_model(cfg, graph.feature_dim)
    recorder = harness.Recorder()
    with harness.Patches(recorder, workloads.trace_targets()):
        gt.train_step(graph, params, gt.init_optimizer(params), cfg, 0)
    counts = Counter(span.name for span in recorder.spans)
    assert [name for name in TRAINING_SPANS if not counts[name]] == []
