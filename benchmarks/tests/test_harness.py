"""Small-size tests of the benchmark helpers.

Run from the repository root: python3 -m pytest benchmarks/tests -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402
from harness import (  # noqa: E402
    OpTally,
    Patches,
    Recorder,
    Span,
    repeat_timed,
    self_times,
    summarize,
    tail_percentile,
)
from graphebr.index import TopkResult  # noqa: E402


@pytest.mark.parametrize(
    "n, pct",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_summarize_reports_tail_at_the_rule():
    s = summarize(np.arange(1, 101, dtype=float))
    assert (s["n"], s["tail_pct"]) == (100, 90.0)
    assert s["p50"] == pytest.approx(50.5)
    assert s["tail"] == pytest.approx(np.percentile(np.arange(1, 101), 90))


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("step", 0.0, 10.0, -1, 0, None),
        Span("a", 1.0, 3.0, 0, 0, None),
        Span("a.inner", 1.5, 2.5, 1, 0, None),
        Span("b", 2.0, 4.0, 0, 0, None),
        Span("c", 5.0, 6.0, 0, 0, None),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0, 1.0])


def test_recorder_nests_spans_and_keeps_the_op_id():
    rec = Recorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = rec.wrap("inner", inner, after=lambda r: r * 10)

    def outer(x):
        return traced_inner(x) + traced_inner(x + 1)

    traced_outer = rec.wrap("outer", outer)
    rec.op = 7
    assert traced_outer(1) == 3
    with pytest.raises(ValueError):
        rec.wrap("inner", inner)(-1)
    names = [s.name for s in rec.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0, -1]
    assert [s.op for s in rec.spans] == [7, 7, 7, 7]
    assert [s.info for s in rec.spans] == [None, 10, 20, "ValueError"]
    own = self_times(rec.spans)
    kids = sum(s.end - s.start for s in rec.spans[1:3])
    assert own[0] == pytest.approx(rec.spans[0].end - rec.spans[0].start - kids)


def test_patches_rebind_and_restore_module_attributes():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    rec = Recorder()
    with Patches(rec, [(module, "f", "layer.f", None, None)]):
        assert module.f is not original
        assert module.f(1) == 2
    assert module.f is original
    assert [s.name for s in rec.spans] == ["layer.f"]


def test_failure_counting():
    tally = OpTally((ValueError,))

    def op(x):
        if x == "bad":
            raise ValueError(x)
        return x

    assert tally.call(op, "ok") == "ok"
    assert tally.call(op, "bad") is None
    tally.call(op, "short")
    tally.mark_incomplete()
    with pytest.raises(TypeError):
        tally.call(op, "a", "b")
    assert (tally.attempted, tally.raised, tally.incomplete, tally.failed) == (4, 1, 1, 2)
    assert tally.failed_frac == 0.5


def test_repeat_timed_returns_the_last_result_and_every_time():
    calls = []
    result, times = repeat_timed(lambda: calls.append(1) or len(calls), 3)
    assert (result, len(times)) == (3, 3)
    assert all(t >= 0 for t in times)


SMALL_TRAIN = workloads.TrainSpec(200, 2, 0.1, 0.01, 8, ("retrieval",), 10)
SMALL_SERVE = workloads.ServeSpec(num_users=300, friends_cap=40, hub_min=20, num_queries=50)


def test_same_seed_gives_same_train_inputs():
    a, b, c = (workloads.make_train_inputs(SMALL_TRAIN, s) for s in (3, 3, 4))
    assert a.graph.fingerprint() == b.graph.fingerprint()
    assert np.array_equal(a.heldout, b.heldout) and len(a.heldout) == 10
    assert a.config == b.config
    assert a.graph.fingerprint() != c.graph.fingerprint()
    assert a.config.seed != c.config.seed


def test_same_seed_gives_same_serve_inputs():
    a, b, c = (workloads.make_serve_inputs(SMALL_SERVE, s) for s in (3, 3, 4))
    assert np.array_equal(a.table.vectors, b.table.vectors)
    assert np.array_equal(a.stream, b.stream) and np.array_equal(a.hubs, b.hubs)
    assert all(np.array_equal(x, y) for x, y in zip(a.friends, b.friends))
    assert a.build_seed == b.build_seed
    assert not np.array_equal(a.table.vectors, c.table.vectors)
    sizes = np.array([len(f) for f in a.friends])
    assert sizes.min() >= 1 and sizes.max() <= 40
    assert all(u not in f for u, f in enumerate(a.friends))


def test_answer_checks_catch_wrong_answers():
    vectors = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.9, 0.0], [0.1, 0.0]])
    q = vectors[0]
    assert workloads.oracle_topk(vectors, q, 3, {0}).tolist() == [3, 1, 2]
    cases = (([3, 1, 2], True), ([0, 3, 1], False), ([1, 3, 2], False), ([3, 2, 1], False))
    for ids, expect_ok in cases:
        ids = np.array(ids)
        out = workloads.Outcome()
        workloads.check_answer(out, "t", TopkResult(ids, vectors[ids] @ q, False), vectors, q, {0})
        assert (not out.failures) == expect_ok, (ids, out.failures)
    out = workloads.Outcome()
    ids = np.array([3, 1])
    workloads.check_answer(out, "t", TopkResult(ids, np.array([0.9, 0.4]), False), vectors, q, {0})
    assert out.failures == ["t: wrong scores"]


def test_benchmark_json_declares_exactly_the_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in declared[key]] == list(table)
    assert set(declared["command"][1:]) <= {"benchmarks/run.py"}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
