import json
import os
import subprocess
import sys
from dataclasses import is_dataclass
from typing import get_args, get_type_hints

import numpy as np
import pytest

from graphebr.cli import (
    RunConfig,
    SyntheticGraph,
    cli_main,
    load_run_config,
    run_config_from_dict,
)
from graphebr.errors import ValidationError
from graphebr.evaluation import EvalSettings
from graphebr.graph import load_graph
import graphebr
from graphebr.index import EmbeddingTable, build_ann_index, exact_topk, load_table, save_index, save_table
from graphebr.losses import CcaConfig, LossWeights, MaeConfig
from graphebr.sampling import AugmentationConfig
from graphebr.training import _JSON_TYPES, TrainConfig, load_dataclass


def base_config(tmp_path, out="run"):
    return {
        "train": {
            "steps": 3, "batch_size": 3, "k": 1, "fanout": 3, "num_negatives": 2,
            "hidden_dims": [8], "embedding_dim": 8, "projection_dim": 8, "seed": 1,
        },
        "synthetic": {"num_nodes": 40, "p_in": 0.25, "p_out": 0.05,
                      "feature_dim": 6, "seed": 3},
        "holdout_fraction": 0.15,
        "split_seed": 5,
        "output_dir": str(tmp_path / out),
    }


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_stdout_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def assert_single_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.strip().count("\n") == 0


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli_main(["synth", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestSynth:
    def test_writes_loadable_graph(self, tmp_path, capsys):
        edges, feats = str(tmp_path / "g.edges"), str(tmp_path / "g.feats")
        code = cli_main([
            "synth", "--nodes", "30", "--p-in", "0.3", "--p-out", "0.05",
            "--feature-dim", "5", "--seed", "2",
            "--edges-out", edges, "--features-out", feats,
        ])
        assert code == 0
        summary = read_stdout_json(capsys)
        graph = load_graph(edges, feats)
        assert graph.num_nodes == summary["num_nodes"] == 30
        assert graph.num_edges == summary["num_edges"]

    def test_invalid_parameters_exit_one(self, tmp_path, capsys):
        code = cli_main([
            "synth", "--nodes", "30", "--p-in", "0.05", "--p-out", "0.3",
            "--feature-dim", "5",
            "--edges-out", str(tmp_path / "e"), "--features-out", str(tmp_path / "f"),
        ])
        assert code == 1
        assert_single_error_line(capsys)

    def test_negative_seed_exits_one_naming_it(self, tmp_path, capsys):
        code = cli_main([
            "synth", "--nodes", "30", "--p-in", "0.3", "--p-out", "0.05",
            "--feature-dim", "5", "--seed", "-1",
            "--edges-out", str(tmp_path / "e"), "--features-out", str(tmp_path / "f"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.strip().count("\n") == 0
        assert "rng_seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "e").exists()


class TestRunConfig:
    def test_parses_defaults(self, tmp_path):
        cfg = run_config_from_dict(base_config(tmp_path))
        assert cfg.train.steps == 3
        assert cfg.eval == EvalSettings()
        assert cfg.split_seed == 5

    def test_eval_block(self, tmp_path):
        raw = base_config(tmp_path)
        raw["eval"] = {"k_values": [1, 3], "cold_start_threshold": 1, "mrr_cap": 10}
        cfg = run_config_from_dict(raw)
        assert cfg.eval.k_values == (1, 3)

    def test_rejects_unknown_fields(self, tmp_path):
        raw = base_config(tmp_path)
        raw["n_steps"] = 5
        with pytest.raises(ValidationError):
            run_config_from_dict(raw)
        raw = base_config(tmp_path)
        raw["eval"] = {"k_vals": [1]}
        with pytest.raises(ValidationError):
            run_config_from_dict(raw)
        raw = base_config(tmp_path)
        raw["synthetic"]["noise"] = 0.1
        with pytest.raises(ValidationError):
            run_config_from_dict(raw)

    def test_rejects_two_graph_sources(self, tmp_path):
        raw = base_config(tmp_path)
        raw["edges_path"] = "x.edges"
        raw["features_path"] = "x.feats"
        with pytest.raises(ValidationError):
            run_config_from_dict(raw)

    def test_requires_some_graph_source(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["synthetic"]
        with pytest.raises(ValidationError):
            run_config_from_dict(raw)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            load_run_config(path)

    def test_cli_exits_one_on_bad_config(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["holdout_fraction"] = 0.9
        assert cli_main(["train", "--config", write_config(tmp_path, raw)]) == 1
        assert_single_error_line(capsys)

    def test_bad_nested_train_block_exits_one(self, tmp_path, capsys):
        for block, value, named in (
            ("augmentation", {"edge_drop_prob": 0.1, "seed": 3}, "augmentation: ['seed']"),
            ("weights", {"alpha": 1.0, "delta": 0.5}, "weights: ['delta']"),
            ("cca", {"lamda": 0.1}, "cca: ['lamda']"),
            ("mae", [2.0], "mae must be an object"),
            ("steps", "ten", "steps must be an integer"),
            ("steps", 2.5, "steps must be an integer"),
            ("fanout", "x", "fanout must be an integer or null"),
            ("weights", {"alpha": "x"}, "weights.alpha must be a finite number"),
            ("augmentation", {"edge_drop_prob": None}, "augmentation.edge_drop_prob must be a finite number"),
            ("weights", {"beta": float("nan")}, "weights.beta must be a finite number"),
            ("learning_rate", float("nan"), "learning_rate must be a finite number"),
            ("clip_norm", float("inf"), "clip_norm must be a finite number"),
            ("mae", {"y_exponent": float("nan")}, "mae.y_exponent must be a finite number"),
        ):
            raw = base_config(tmp_path)
            raw["train"][block] = value
            assert cli_main(["train", "--config", write_config(tmp_path, raw)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.strip().count("\n") == 0
            assert named in err

    def test_mistyped_synthetic_and_eval_values_exit_one(self, tmp_path, capsys):
        for block, name, value, named in (
            ("synthetic", "num_nodes", "200", "synthetic.num_nodes must be an integer"),
            ("synthetic", "seed", 1.5, "synthetic.seed must be an integer"),
            ("synthetic", "p_in", "0.3", "synthetic.p_in must be a finite number"),
            ("eval", "k_values", [1.5, 10], "eval.k_values must be a list of integers"),
            ("eval", "mrr_cap", "10", "eval.mrr_cap must be an integer"),
        ):
            raw = base_config(tmp_path)
            raw.setdefault(block, {})[name] = value
            assert cli_main(["train", "--config", write_config(tmp_path, raw)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.strip().count("\n") == 0
            assert f"run config: {named}" in err
            assert not (tmp_path / "run").exists()

    def test_negative_synthetic_seed_exits_one_naming_it(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["synthetic"]["seed"] = -3
        assert cli_main(["train", "--config", write_config(tmp_path, raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.strip().count("\n") == 0
        assert "run config: synthetic.seed must be non-negative" in err
        assert not (tmp_path / "run").exists()
        with pytest.raises(ValidationError, match="synthetic.seed must be non-negative"):
            SyntheticGraph(num_nodes=40, p_in=0.25, p_out=0.05, feature_dim=6, seed=-1)

    def test_mistyped_run_fields_exit_one_without_coercion(self, tmp_path, capsys):
        for name, value, named in (
            ("split_seed", 2.7, "split_seed must be an integer"),
            ("split_seed", "3", "split_seed must be an integer"),
            ("split_seed", True, "split_seed must be an integer"),
            ("holdout_fraction", "0.2", "holdout_fraction must be a finite number"),
            ("edges_path", 3, "edges_path must be a string or null"),
        ):
            raw = base_config(tmp_path)
            if name == "edges_path":
                del raw["synthetic"]
                raw["features_path"] = str(tmp_path / "g.feats")
            raw[name] = value
            assert cli_main(["train", "--config", write_config(tmp_path, raw)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.strip().count("\n") == 0
            assert f"run config: {named}" in err
            assert not (tmp_path / "run").exists()

    def test_synthetic_block_defaults_and_required_fields(self, tmp_path):
        cfg = run_config_from_dict(base_config(tmp_path))
        assert cfg.synthetic == SyntheticGraph(
            num_nodes=40, p_in=0.25, p_out=0.05, feature_dim=6,
            num_communities=2, cold_start_fraction=0.0, seed=3,
        )
        raw = base_config(tmp_path)
        del raw["synthetic"]["p_out"]
        with pytest.raises(ValidationError, match=r"missing fields in synthetic: \['p_out'\]"):
            run_config_from_dict(raw)

    def test_every_config_field_is_type_checked(self, tmp_path):
        # a field whose annotation the loader does not know would pass any
        # JSON value through unchecked
        valid = {
            TrainConfig: {}, LossWeights: {}, CcaConfig: {}, MaeConfig: {},
            AugmentationConfig: {}, EvalSettings: {},
            SyntheticGraph: base_config(tmp_path)["synthetic"],
            RunConfig: base_config(tmp_path),
        }
        for cls, raw in valid.items():
            assert load_dataclass(cls, raw, "cfg") is not None
            for name, hint in get_type_hints(cls).items():
                if type(None) in get_args(hint):
                    (hint,) = set(get_args(hint)) - {type(None)}
                assert is_dataclass(hint) or hint in _JSON_TYPES, (cls, name)
                # no field takes a list of integers and an object at once
                wrong = [0] if is_dataclass(hint) else {"x": 0}
                with pytest.raises(ValidationError, match=rf"cfg: {name} must be"):
                    load_dataclass(cls, {**raw, name: wrong}, "cfg")

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert cli_main(["train", "--config", str(tmp_path / "absent.json")]) == 1
        assert_single_error_line(capsys)

    def test_missing_graph_files_exit_one(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        del raw["synthetic"]
        raw["edges_path"] = str(tmp_path / "no.edges")
        raw["features_path"] = str(tmp_path / "no.feats")
        assert cli_main(["train", "--config", write_config(tmp_path, raw)]) == 1
        assert_single_error_line(capsys)


def run_training(tmp_path, capsys, out="run", **cfg_overrides):
    raw = base_config(tmp_path, out=out)
    raw.update(cfg_overrides)
    config_path = write_config(tmp_path, raw, name=f"{out}.json")
    assert cli_main(["train", "--config", config_path]) == 0
    return raw, config_path, read_stdout_json(capsys)


def stripped_metrics(path):
    lines = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("wall_ms")
            lines.append(json.dumps(record, sort_keys=True))
    return lines


class TestTrainEvalCompare:
    def test_train_writes_checkpoint_and_metrics(self, tmp_path, capsys):
        raw, _, summary = run_training(tmp_path, capsys)
        out_dir = raw["output_dir"]
        assert summary["executed_steps"] + summary["skipped_steps"] == 3
        assert (tmp_path / "run" / "checkpoint_final.npz").exists()
        assert len(stripped_metrics(f"{out_dir}/metrics.jsonl")) == summary["executed_steps"]

    def test_train_is_deterministic(self, tmp_path, capsys):
        a, _, _ = run_training(tmp_path, capsys, out="a")
        b, _, _ = run_training(tmp_path, capsys, out="b")
        assert stripped_metrics(f"{a['output_dir']}/metrics.jsonl") == \
            stripped_metrics(f"{b['output_dir']}/metrics.jsonl")

    def test_resume_extends_metrics_like_one_run(self, tmp_path, capsys):
        short, _, _ = run_training(tmp_path, capsys, out="short")
        long_cfg = dict(base_config(tmp_path, out="short"))
        long_cfg["train"] = dict(long_cfg["train"], steps=6)
        config_path = write_config(tmp_path, long_cfg, name="long.json")
        checkpoint = f"{short['output_dir']}/checkpoint_final.npz"
        assert cli_main(["train", "--config", config_path, "--resume", checkpoint]) == 0
        capsys.readouterr()

        oneshot = dict(base_config(tmp_path, out="oneshot"))
        oneshot["train"] = dict(oneshot["train"], steps=6)
        assert cli_main(["train", "--config", write_config(tmp_path, oneshot, name="one.json")]) == 0
        capsys.readouterr()
        assert stripped_metrics(f"{short['output_dir']}/metrics.jsonl") == \
            stripped_metrics(f"{oneshot['output_dir']}/metrics.jsonl")

    def test_eval_report_schema_and_determinism(self, tmp_path, capsys):
        _, config_path, _ = run_training(tmp_path, capsys)
        assert cli_main(["eval", "--config", config_path]) == 0
        report = read_stdout_json(capsys)
        assert set(report) == {"version", "config_fingerprint", "num_queries",
                               "recall", "mrr", "cohorts"}
        assert set(report["cohorts"]) == {"all", "cold_start"}
        first = (tmp_path / "run" / "report.json").read_bytes()
        assert cli_main(["eval", "--config", config_path]) == 0
        capsys.readouterr()
        assert (tmp_path / "run" / "report.json").read_bytes() == first

    def test_compare_same_split_different_seeds(self, tmp_path, capsys):
        _, config_a, _ = run_training(tmp_path, capsys, out="a")
        raw_b = base_config(tmp_path, out="b")
        raw_b["train"] = dict(raw_b["train"], seed=9)
        config_b = write_config(tmp_path, raw_b, name="b.json")
        assert cli_main(["train", "--config", config_b]) == 0
        report_a, report_b = str(tmp_path / "ra.json"), str(tmp_path / "rb.json")
        assert cli_main(["eval", "--config", config_a, "--output", report_a]) == 0
        assert cli_main(["eval", "--config", config_b, "--output", report_b]) == 0
        capsys.readouterr()
        assert cli_main(["compare", report_a, report_b, "--margin", "0.0"]) == 0
        delta = read_stdout_json(capsys)
        assert isinstance(delta["negative_transfer"], bool)
        assert set(delta["cohorts"]) == {"all", "cold_start"}

    def test_compare_fingerprint_mismatch_exits_one(self, tmp_path, capsys):
        _, config_a, _ = run_training(tmp_path, capsys, out="a")
        raw_b = base_config(tmp_path, out="b")
        raw_b["split_seed"] = 99
        config_b = write_config(tmp_path, raw_b, name="b.json")
        assert cli_main(["train", "--config", config_b]) == 0
        report_a, report_b = str(tmp_path / "ra.json"), str(tmp_path / "rb.json")
        assert cli_main(["eval", "--config", config_a, "--output", report_a]) == 0
        assert cli_main(["eval", "--config", config_b, "--output", report_b]) == 0
        capsys.readouterr()
        assert cli_main(["compare", report_a, report_b]) == 1
        assert_single_error_line(capsys)


class TestEmbedIndexRetrieve:
    def pipeline(self, tmp_path, capsys):
        raw, config_path, _ = run_training(tmp_path, capsys)
        edges, feats = str(tmp_path / "g.edges"), str(tmp_path / "g.feats")
        assert cli_main([
            "synth", "--nodes", "40", "--p-in", "0.25", "--p-out", "0.05",
            "--feature-dim", "6", "--seed", "3",
            "--edges-out", edges, "--features-out", feats,
        ]) == 0
        checkpoint = f"{raw['output_dir']}/checkpoint_final.npz"
        table_path = str(tmp_path / "table.txt")
        assert cli_main([
            "embed", "--checkpoint", checkpoint, "--edges", edges,
            "--features", feats, "--output", table_path,
        ]) == 0
        capsys.readouterr()
        return table_path

    def test_embed_writes_table(self, tmp_path, capsys):
        table_path = self.pipeline(tmp_path, capsys)
        table = load_table(table_path)
        assert (table.num_nodes, table.dim) == (40, 8)

    def test_index_and_retrieve_agree_with_table(self, tmp_path, capsys):
        table_path = self.pipeline(tmp_path, capsys)
        index_path = str(tmp_path / "index.json")
        assert cli_main(["index", "--table", table_path, "--output", index_path,
                         "--m-conn", "8", "--ef-construction", "40"]) == 0
        queries = tmp_path / "queries.txt"
        queries.write_text("0\n5\n\n# comment\n17\n")
        out_exact = str(tmp_path / "exact.txt")
        out_ann = str(tmp_path / "ann.txt")
        assert cli_main(["retrieve", "--table", table_path, "--queries", str(queries),
                         "--k", "5", "--output", out_exact]) == 0
        assert cli_main(["retrieve", "--index", index_path, "--queries", str(queries),
                         "--k", "5", "--ef-search", "64", "--output", out_ann]) == 0
        capsys.readouterr()
        exact_lines = open(out_exact).read().splitlines()
        assert len(exact_lines) == 15
        for line in exact_lines:
            q, cand, rank, score = line.split()
            assert q in {"0", "5", "17"}
            assert cand != q
            float(score)
        ranks = [int(line.split()[2]) for line in exact_lines[:5]]
        assert ranks == [1, 2, 3, 4, 5]
        # tiny graph, generous beam: approximate search must match exact
        assert open(out_ann).read() == open(out_exact).read()

    def test_retrieve_errors(self, tmp_path, capsys):
        table_path = self.pipeline(tmp_path, capsys)
        queries = tmp_path / "queries.txt"
        queries.write_text("999\n")
        assert cli_main(["retrieve", "--table", table_path,
                         "--queries", str(queries), "--k", "3"]) == 1
        assert_single_error_line(capsys)
        queries.write_text("zero\n")
        assert cli_main(["retrieve", "--table", table_path,
                         "--queries", str(queries), "--k", "3"]) == 1
        assert_single_error_line(capsys)

    def test_query_file_reads_inline_comments_and_any_line_end(self, tmp_path, capsys):
        table_path = self.pipeline(tmp_path, capsys)
        queries = tmp_path / "queries.txt"
        outputs = []
        for data in (b"0\n5\n17\n", b"0  # note\n5#x\n\n17\n", b"0\r\n5\r\n17\r\n", b"0\r5\r# c\r17"):
            queries.write_bytes(data)
            assert cli_main(["retrieve", "--table", table_path, "--queries", str(queries), "--k", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs[0].splitlines()) == 9
        assert outputs == [outputs[0]] * 4

    @pytest.mark.parametrize("data, named", [
        (b"0\n# c\n\xff\n", "line 3: undecodable bytes"),
        (b"0\r\n1 2\r\n", "line 2: expected 1 values, got 2"),
        (b"0\r1.0\r", "line 2: non-integer value in '1.0'"),
    ])
    def test_bad_query_file_names_the_line(self, tmp_path, capsys, data, named):
        # an undecodable byte used to escape as a bare UnicodeDecodeError
        table = tmp_path / "table.txt"
        save_table(EmbeddingTable(np.eye(3)), table)
        queries = tmp_path / "queries.txt"
        queries.write_bytes(data)
        assert cli_main(["retrieve", "--table", str(table), "--queries", str(queries)]) == 1
        assert capsys.readouterr().err == f"error: {queries}: {named}\n"

    @pytest.mark.parametrize("body", ["1 2\n3 x\n", "1 2\n3\n"])
    def test_bad_table_body_exits_one_naming_the_file(self, tmp_path, capsys, body):
        table = tmp_path / "table.txt"
        table.write_text("2 2\n" + body)
        queries = tmp_path / "queries.txt"
        queries.write_text("0\n")
        assert cli_main(["retrieve", "--table", str(table), "--queries", str(queries)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: embedding table {table}: ")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("body, named", [
        (b"1 2\n3 \xff\n", "line 3: undecodable bytes"),
        (b"1 2\n3 x\n", "line 3: non-numeric value in '3 x'"),
        (b"1 2\n\n# comment\n3\n", "line 5: expected 2 values, got 1"),
    ])
    def test_bad_table_body_names_the_line(self, tmp_path, capsys, body, named):
        # the header is line 1, as in the graph parsers: an undecodable byte
        # used to read as a malformed header, and numpy counted rows its own way
        table = tmp_path / "table.txt"
        table.write_bytes(b"2 2\n" + body)
        with pytest.raises(ValidationError) as raised:
            load_table(table)
        assert str(raised.value) == f"embedding table {table}: {named}"
        queries = tmp_path / "queries.txt"
        queries.write_text("0\n")
        assert cli_main(["retrieve", "--table", str(table), "--queries", str(queries)]) == 1
        assert capsys.readouterr().err == f"error: embedding table {table}: {named}\n"

    def test_retrieve_table_matches_per_query_exact_topk(self, tmp_path, capsys, monkeypatch):
        import graphebr.index as gi

        table = EmbeddingTable(np.random.default_rng(8).normal(size=(70, 5)))
        table_path = tmp_path / "table.bin"
        save_table(table, table_path, binary=True)
        ids = [3, 0, 69, 3, 41, 12, 7, 7, 55, 20, 1]
        queries = tmp_path / "queries.txt"
        queries.write_text("".join(f"{q}\n" for q in ids))
        want = []
        for q in ids:
            r = exact_topk(table, table.vectors[q], k=6, exclude={q})
            want += [f"{q} {c} {rank} {s:.17g}" for rank, (c, s) in enumerate(zip(r.ids, r.scores), start=1)]
        for entries in (1, 70 * 4, 1 << 19):
            monkeypatch.setattr(gi, "_SCREEN_ENTRIES", entries)
            assert cli_main(["retrieve", "--table", str(table_path), "--queries", str(queries), "--k", "6"]) == 0
            assert capsys.readouterr().out.splitlines() == want

    def test_malformed_index_files_exit_one(self, tmp_path, capsys):
        vectors = np.random.default_rng(4).normal(size=(30, 4))
        path = tmp_path / "index.npz"
        save_index(build_ann_index(EmbeddingTable(vectors), m_conn=4, rng_seed=5), path)
        with np.load(path) as archive:
            good = dict(archive)
        far_entry = good["header"].copy()
        far_entry[2] = 999
        stray_link = good["layer0"].copy()
        stray_link[0, 0] = 999
        stray_node = np.vstack([good["layer0"], np.full((1, 8), -1)])
        queries = tmp_path / "queries.txt"
        queries.write_text("0\n")

        def refused(named):
            assert cli_main(["retrieve", "--index", str(path), "--queries", str(queries)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ann index: ") and err.strip().count("\n") == 0
            assert named in err

        for arrays, named in (
            ({key: v for key, v in good.items() if key != "levels"}, "expected vectors, levels and layer0"),
            ({**good, "header": far_entry}, "entry point out of range"),
            ({**good, "layer0": stray_link}, "link 0->999 leaves layer 0"),
            ({**good, "layer0": stray_node}, "layer 0 is not an (30, 8) intp array"),
        ):
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
            refused(named)
        # a version-1 JSON document is no longer read: the index is rebuilt
        path.write_text(json.dumps({"version": "1", "m_conn": 4, "layers": []}))
        refused("is not an index archive")

    def test_index_built_from_unequal_norms_is_served(self, tmp_path, capsys):
        # pruning used to orphan nodes here: retrieve refused the file with
        # "only 298 of 300 nodes reachable"
        table_path = str(tmp_path / "table.txt")
        save_table(EmbeddingTable(np.random.default_rng(3).normal(size=(300, 8))), table_path)
        index_path = str(tmp_path / "index.npz")
        assert cli_main(["index", "--table", table_path, "--output", index_path,
                         "--m-conn", "8", "--ef-construction", "40", "--seed", "5"]) == 0
        queries = tmp_path / "queries.txt"
        queries.write_text("0\n")
        assert cli_main(["retrieve", "--index", index_path, "--queries", str(queries), "--k", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_index_negative_seed_exits_one_naming_it(self, tmp_path, capsys):
        table_path = str(tmp_path / "table.txt")
        save_table(EmbeddingTable(np.random.default_rng(6).normal(size=(5, 3))), table_path)
        index_path = tmp_path / "index.json"
        assert cli_main(["index", "--table", table_path, "--output", str(index_path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.strip().count("\n") == 0
        assert "ann build: rng_seed must be a non-negative integer, got -1" in err
        assert not index_path.exists()

    def test_table_and_index_are_mutually_exclusive(self, tmp_path, capsys):
        assert cli_main(["retrieve", "--table", "t", "--index", "i",
                         "--queries", "q"]) == 2
        capsys.readouterr()


class TestGradcheck:
    def test_clean_build_passes(self, capsys):
        assert cli_main(["gradcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) > 20
        for line in out:
            name, err = line.rsplit(" ", 1)
            assert float(err) < 1e-4

    def test_unreachable_tolerance_fails(self, capsys):
        assert cli_main(["gradcheck", "--seed", "7", "--tolerance", "1e-30"]) == 1
        assert_single_error_line(capsys)

    def test_python_m_runs_the_cli_and_names_a_bad_seed(self):
        package_root = os.path.dirname(os.path.dirname(graphebr.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-m", "graphebr.cli", "gradcheck", "--seed", "-1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            "error: gradient suite: rng_seed must be a non-negative integer, got -1\n"
        )
