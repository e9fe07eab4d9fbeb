"""End-to-end CLI runs: determinism, validation, exit codes, file formats."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclab.cli
from speclab.cli import MAX_ORACLE_CAP, MAX_PAIR_CELLS, fmt9, main, write_csv
from speclab.engine import DecodeResult, RoundRecord
from speclab.harness import ROUND_CSV_FIELDS, round_csv_columns

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def target_spec(tmp_path):
    doc = {
        "vocab_size": 3, "context_order": 1,
        "rows": [
            {"context": [0], "probs": [0.70, 0.20, 0.10]},
            {"context": [1], "probs": [0.05, 0.05, 0.90]},
            {"context": [2], "probs": [0.33, 0.33, 0.34]},
        ],
        "default": [0.4, 0.3, 0.3],
    }
    path = tmp_path / "target.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def decode_config(tmp_path, target_spec, **overrides):
    doc = {
        "target_spec": target_spec,
        "draft_spec": {"temper": {"tau": 2.0, "eps": 0.15}},
        "mode": "sampling",
        "policy": {"kind": "constant", "k": 3},
        "horizon": 12,
        "prompts": [[0], [2]],
        "seeds": [3, 4],
    }
    doc.update(overrides)
    return write_config(tmp_path, "decode.json", doc)


def oracle_config(tmp_path, target_spec, **overrides):
    doc = {
        "target_spec": target_spec,
        "draft_spec": {"temper": {"tau": 2.0, "eps": 0.1}},
        "mode": "sampling",
        "prompts": [[0], [1]],
        "cap": 10,
        "n_runs": 20,
        "seed": 21,
    }
    doc.update(overrides)
    return write_config(tmp_path, "oracle.json", doc)


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestDecode:
    def test_byte_identical_reruns(self, tmp_path, target_spec):
        cfg = decode_config(tmp_path, target_spec)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["decode", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["decode", "--config", cfg, "--out", str(out_b)]) == 0
        assert read_tree(out_a) == read_tree(out_b)

    def test_greedy_output_independent_of_seed(self, tmp_path, target_spec):
        cfg = decode_config(tmp_path, target_spec, mode="greedy",
                            seeds=[1, 99])
        out = tmp_path / "g"
        assert main(["decode", "--config", cfg, "--out", str(out)]) == 0
        t1 = (out / "tokens_seed1_prompt0.txt").read_text()
        t99 = (out / "tokens_seed99_prompt0.txt").read_text()
        assert t1 == t99

    def test_missing_model_file_names_path(self, tmp_path, capsys):
        cfg = decode_config(tmp_path, str(tmp_path / "nope.json"))
        rc = main(["decode", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "nope.json" in capsys.readouterr().err

    def test_seed_override(self, tmp_path, target_spec):
        cfg = decode_config(tmp_path, target_spec)
        out = tmp_path / "ovr"
        assert main(["decode", "--config", cfg, "--out", str(out),
                     "--seed-override", "7"]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"tokens_seed7_prompt0.txt", "tokens_seed7_prompt1.txt",
                         "rounds.csv"}

    def test_invalid_policy_field(self, tmp_path, target_spec, capsys):
        cfg = decode_config(tmp_path, target_spec,
                            policy={"kind": "constant", "k": 0})
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "policy" in capsys.readouterr().err

    def test_unknown_policy_kind(self, tmp_path, target_spec, capsys):
        cfg = decode_config(tmp_path, target_spec, policy={"kind": "magic"})
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "policy.kind" in capsys.readouterr().err

    def test_draft_loaded_from_file(self, tmp_path, target_spec):
        draft_doc = {
            "vocab_size": 3, "context_order": 0,
            "rows": [{"context": [], "probs": [0.4, 0.3, 0.3]}],
        }
        draft_path = tmp_path / "draft.json"
        draft_path.write_text(json.dumps(draft_doc))
        cfg = decode_config(tmp_path, target_spec, draft_spec=str(draft_path))
        out = tmp_path / "df"
        assert main(["decode", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "rounds.csv").exists()

    def test_draft_vocab_mismatch_rejected(self, tmp_path, target_spec, capsys):
        draft_doc = {
            "vocab_size": 2, "context_order": 0,
            "rows": [{"context": [], "probs": [0.5, 0.5]}],
        }
        draft_path = tmp_path / "draft2.json"
        draft_path.write_text(json.dumps(draft_doc))
        cfg = decode_config(tmp_path, target_spec, draft_spec=str(draft_path))
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "vocab" in capsys.readouterr().err

    def test_unexpected_failure_maps_to_runtime_exit(self, tmp_path,
                                                     target_spec, monkeypatch):
        import speclab.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(cli_module._COMMANDS, "decode", boom)
        cfg = decode_config(tmp_path, target_spec)
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2


class TestMalformedConfig:
    """A malformed field exits 1 and names its path; JSON true is not a number."""

    @pytest.mark.parametrize("overrides, path", [
        ({"policy": {"kind": "constant", "k": True}}, "policy.k"),
        ({"policy": {"kind": "svip", "h": True}}, "policy.h"),
        ({"seeds": [True]}, "seeds[0]"),
        ({"prompts": [[True]]}, "prompts[0]"),
        ({"cost_model": {"r_draft": "0.1"}}, "cost_model.r_draft"),
        ({"cost_model": {"c_verify_overhead": True}}, "cost_model.c_verify_overhead"),
        ({"policy": {"kind": "constant", "k": 5, "cap": 0}}, "policy"),
        ({"cost_model": {"r_draft": float("nan")}}, "cost_model"),
        ({"cost_model": {"r_draft": float("inf")}}, "cost_model"),
        ({"cost_model": {"c_verify_overhead": float("inf")}}, "cost_model"),
        ({"kl_window": 0}, "kl_window"),
        ({"oracle_cap": 0}, "oracle_cap"),
        ({"policy": {"kind": "svip", "h": float("nan")}}, "policy"),
        ({"draft_spec": {"temper": {"tau": float("nan")}}}, "draft_spec.temper"),
    ], ids=["bool-k", "bool-h", "bool-seed", "bool-prompt-token",
            "string-r-draft", "bool-overhead", "constant-cap-0", "nan-r-draft",
            "inf-r-draft", "inf-overhead", "kl-window-0", "oracle-cap-0",
            "nan-svip-h", "nan-tau"])
    def test_rejected_with_field_path(self, tmp_path, target_spec, capsys,
                                      overrides, path):
        cfg = decode_config(tmp_path, target_spec, **overrides)
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    @pytest.mark.parametrize("window", [12, 13, 10 ** 9])
    def test_kl_window_must_be_below_horizon(self, tmp_path, target_spec, capsys, window):
        """No round rejects ``horizon`` or more positions in, so a window
        that far is an error, not a trace of entries that never fill."""
        cfg = decode_config(tmp_path, target_spec, kl_window=window)
        for command in ("experiment", "decode"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
            assert capsys.readouterr().err == "config error: kl_window: must be < horizon (12)\n"
        cfg = decode_config(tmp_path, target_spec, kl_window=11)
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command, field", [("experiment", "oracle_cap"),
                                                ("oracle-stats", "cap")])
    @pytest.mark.parametrize("cap", [MAX_ORACLE_CAP + 1, 10 ** 9])
    def test_oracle_cap_bounded(self, tmp_path, target_spec, capsys, command,
                                field, cap):
        """With the target as its own draft every oracle run is accepted up
        to its cap, and the histogram has cap + 1 bins: a cap past the
        bound is an error, not a hang or a failed allocation."""
        make = decode_config if command == "experiment" else oracle_config
        cfg = make(tmp_path, target_spec, draft_spec=target_spec, **{field: cap})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"config error: {field}: must be <= {MAX_ORACLE_CAP}\n")
        cfg = make(tmp_path, target_spec, **{field: MAX_ORACLE_CAP})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("overrides, path", [
        ({"oracle_cap": 0}, "oracle_cap"),
        ({"kl_window": True}, "kl_window"),
        ({"label": 5}, "label"),
        ({"cost_model": {"r_draft": float("nan")}}, "cost_model"),
    ], ids=["oracle-cap-0", "bool-kl-window", "int-label", "nan-r-draft"])
    def test_decode_rejects_malformed_experiment_fields(self, tmp_path, target_spec,
                                                        capsys, overrides, path):
        cfg = decode_config(tmp_path, target_spec, **overrides)
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    @pytest.mark.parametrize("path, keys, value, message", [
        ("target_spec", ["rows"], 7, "rows: expected a list, got int"),
        ("target_spec", ["rows", 1, "probs"], 0.5,
         "rows[1].probs: expected a list, got float"),
        ("draft_spec", ["default"], 5, "default: expected a list, got int"),
        ("target_spec", ["vocab_size"], 3.9,
         "vocab_size: expected an integer, got float"),
        ("target_spec", ["vocab_size"], "3",
         "vocab_size: expected an integer, got str"),
        ("target_spec", ["vocab_size"], True,
         "vocab_size: expected an integer, got bool"),
        ("target_spec", ["context_order"], 1.5,
         "context_order: expected an integer, got float"),
        ("target_spec", ["rows", 1, "context", 0], 0.7,
         "rows[1].context[0]: expected an integer, got float"),
        ("target_spec", ["rows", 1, "context", 0], False,
         "rows[1].context[0]: expected an integer, got bool"),
        ("target_spec", ["rows", 1, "context"], 0,
         "rows[1].context: expected a list, got int"),
        ("target_spec", ["rows", 1, "context", 0], 0,
         "rows[1].context: duplicates rows[0]"),
        ("target_spec", ["vocab_size"], 0, "vocab_size must be positive"),
        ("draft_spec", ["vocab_size"], -2, "vocab_size must be positive"),
        ("target_spec", ["context_order"], -1, "context_order must be non-negative"),
    ], ids=["int-rows", "float-probs", "int-default", "float-vocab",
            "string-vocab", "bool-vocab", "float-order", "float-context-token",
            "bool-context-token", "int-context", "duplicate-context", "zero-vocab",
            "negative-vocab", "negative-order"])
    def test_malformed_model_file(self, tmp_path, target_spec, capsys, path,
                                  keys, value, message):
        with open(target_spec) as f:
            doc = json.load(f)
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        model = write_config(tmp_path, "model.json", doc)
        cfg = decode_config(tmp_path, **{"target_spec": target_spec, path: model})
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")
        assert message in err

    @pytest.mark.parametrize("doc, kind", [([1], "list"), ("x", "str")],
                             ids=["list", "string"])
    def test_model_file_not_an_object(self, tmp_path, capsys, doc, kind):
        model = write_config(tmp_path, "model.json", doc)
        cfg = decode_config(tmp_path, target_spec=model)
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: target_spec: invalid model spec: expected an object, "
            f"got {kind}")

    def test_draft_file_vocab_differs(self, tmp_path, target_spec, capsys):
        draft = write_config(tmp_path, "draft.json", {
            "vocab_size": 2, "context_order": 0,
            "rows": [{"context": [], "probs": [0.5, 0.5]}]})
        cfg = decode_config(tmp_path, target_spec, draft_spec=draft)
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: draft_spec: model pair mismatch: target vocab 3, "
            "draft vocab 2")

    def test_out_names_a_file(self, tmp_path, target_spec, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        cfg = decode_config(tmp_path, target_spec)
        assert main(["oracle-stats", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: --out:")

    def test_negative_seed_override(self, tmp_path, target_spec, capsys):
        cfg = decode_config(tmp_path, target_spec)
        assert main(["decode", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed-override", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: --seed-override:")

    def test_non_integer_token_in_prompts_file(self, tmp_path, target_spec,
                                               capsys):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("0 1\n2 x\n")
        cfg = decode_config(tmp_path, target_spec,
                            prompts={"file": str(prompts)})
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: prompts.file:")

    @pytest.mark.parametrize("field", ["--config", "target_spec", "prompts.file"])
    @pytest.mark.parametrize("fault", ["directory", "non-utf8"])
    def test_unreadable_input_file(self, tmp_path, target_spec, capsys, field,
                                   fault):
        bad = tmp_path / "bad"
        if fault == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"vocab_size": 3, "label": "\xff"}\n0 1\n')
        if field == "--config":
            cfg = str(bad)
        elif field == "target_spec":
            cfg = decode_config(tmp_path, target_spec=str(bad))
        else:
            cfg = decode_config(tmp_path, target_spec, prompts={"file": str(bad)})
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: {bad}")

    def test_too_deeply_nested_config(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000)
        assert main(["decode", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: --config: {cfg}")

    def test_label_names_the_k_that_runs(self, tmp_path, target_spec):
        cfg = decode_config(tmp_path, target_spec,
                            policy={"kind": "constant", "k": 50})
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["policy"] == "constant-40"


class TestExperiment:
    def experiment_config(self, tmp_path, target_spec, **overrides):
        doc = {
            "target_spec": target_spec,
            "draft_spec": {"temper": {"tau": 2.0, "eps": 0.1}},
            "mode": "sampling",
            "policy": {"kind": "svip", "h": 0.9},
            "horizon": 40,
            "prompts": [[0]],
            "seeds": [5, 6],
            "cost_model": {"r_draft": 0.1, "c_verify_overhead": 0.0},
            "label": "smoke",
        }
        doc.update(overrides)
        return write_config(tmp_path, "exp.json", doc)

    def test_report_round_trips_byte_identically(self, tmp_path, target_spec):
        cfg = self.experiment_config(tmp_path, target_spec)
        out = tmp_path / "exp"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text

    def test_report_carries_version_and_echo(self, tmp_path, target_spec):
        cfg = self.experiment_config(tmp_path, target_spec)
        out = tmp_path / "exp2"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["tool_version"]
        assert doc["config_echo"]["label"] == "smoke"
        assert doc["policy"] == "svip-0.9"
        assert 0.0 <= doc["accept_rate"] <= 1.0

    def test_policy_sweep_shares_seeds(self, tmp_path, target_spec):
        reports = {}
        for kind, extra in [("constant", {"k": 5}), ("heuristic", {}),
                            ("svip", {"h": 0.3})]:
            cfg = self.experiment_config(tmp_path, target_spec,
                                         policy={"kind": kind, **extra})
            out = tmp_path / f"sweep-{kind}"
            assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
            reports[kind] = json.loads((out / "report.json").read_text())
        seeds = {tuple(r["seeds"]) for r in reports.values()}
        assert seeds == {(5, 6)}

    def test_empty_seeds_rejected(self, tmp_path, target_spec, capsys):
        cfg = self.experiment_config(tmp_path, target_spec, seeds=[])
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_infinite_values_written_as_strict_json(self, tmp_path):
        # The target never emits token 2 where the draft can, so KL(q||p)
        # is infinite at every rejected position. The config's 1e999 is
        # read as inf and echoed.
        spec = tmp_path / "zero.json"
        spec.write_text(json.dumps({
            "vocab_size": 3, "context_order": 1,
            "rows": [{"context": [-1], "probs": [0.5, 0.5, 0.0]},
                     {"context": [0], "probs": [0.3, 0.7, 0.0]},
                     {"context": [1], "probs": [0.6, 0.4, 0.0]},
                     {"context": [2], "probs": [0.2, 0.3, 0.5]}]}))
        doc = json.dumps({
            "target_spec": str(spec),
            "draft_spec": {"temper": {"tau": 1.0, "eps": 0.5}},
            "mode": "sampling", "policy": {"kind": "constant", "k": 3},
            "horizon": 60, "prompts": [[0]], "seeds": [1, 2]})
        cfg = tmp_path / "inf.json"
        cfg.write_text(doc[:-1] + ', "note": [1e999, -1e999]}')
        out = tmp_path / "inf"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert doc["kl_trace"] == ["inf", "inf", "inf", None, None]
        assert doc["config_echo"]["note"] == ["inf", "-inf"]

    def test_byte_identical_reruns(self, tmp_path, target_spec):
        cfg = self.experiment_config(tmp_path, target_spec)
        out_a, out_b = tmp_path / "ea", tmp_path / "eb"
        assert main(["experiment", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out_b)]) == 0
        assert read_tree(out_a) == read_tree(out_b)


class TestBoundsEval:
    def bounds_config(self, tmp_path, **overrides):
        doc = {"pairs": {"count": 60, "vocab": 8, "seed": 11,
                         "kind": "independent"}, "c": 0.18}
        doc.update(overrides)
        return write_config(tmp_path, "bounds.json", doc)

    def test_csv_sorted_and_bound_valid(self, tmp_path):
        cfg = self.bounds_config(tmp_path)
        out = tmp_path / "bv"
        assert main(["bounds-eval", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        header = lines[0].split(",")
        beta_i, pinsker_i = header.index("beta"), header.index("pinsker")
        betas, pinskers = [], []
        for line in lines[1:]:
            cells = line.split(",")
            betas.append(float(cells[beta_i]))
            pinskers.append(float(cells[pinsker_i]))
        assert betas == sorted(betas)
        assert all(p <= b + 1e-9 for p, b in zip(pinskers, betas))

    def test_equal_pair_rows_all_one(self, tmp_path):
        # tau=1, eps=0 makes q identical to p
        cfg = self.bounds_config(tmp_path, pairs={
            "count": 5, "vocab": 6, "seed": 1, "kind": "tempered",
            "tau": 1.0, "eps": 0.0})
        out = tmp_path / "eq"
        assert main(["bounds-eval", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            assert float(cells["beta"]) == 1.0
            assert float(cells["pinsker"]) == 1.0
            assert float(cells["bh"]) == 1.0

    @pytest.mark.parametrize("overrides, path", [
        ({"c": float("nan")}, "c"),
        ({"pairs": {"count": 5, "vocab": 6, "seed": 1, "kind": "tempered",
                    "eps": float("nan")}}, "pairs.eps"),
        ({"pairs": {"count": 5, "vocab": 6, "seed": 1, "kind": "tempered",
                    "eps": 2}}, "pairs.eps"),
        ({"pairs": {"count": 5, "vocab": 6, "seed": 1, "kind": "tempered",
                    "tau": 0}}, "pairs.tau"),
        ({"pairs": {"count": 5, "vocab": 6, "seed": -1}}, "pairs.seed"),
    ], ids=["nan-c", "nan-eps", "eps-2", "tau-0", "negative-seed"])
    def test_rejected_with_field_path(self, tmp_path, capsys, overrides, path):
        cfg = self.bounds_config(tmp_path, **overrides)
        assert main(["bounds-eval", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    @pytest.mark.parametrize("count, vocab", [(10 ** 9, 16), (10, 10 ** 9)],
                             ids=["count", "vocab"])
    def test_oversized_pair_stack_rejected(self, tmp_path, capsys, count, vocab):
        cfg = self.bounds_config(tmp_path, pairs={"count": count, "vocab": vocab,
                                                  "seed": 1})
        assert main(["bounds-eval", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"config error: pairs: 2 * count * vocab must be <= {MAX_PAIR_CELLS}\n")

    def test_pair_stack_at_the_bound_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(speclab.cli, "MAX_PAIR_CELLS", 2 * 60 * 8)
        cfg = self.bounds_config(tmp_path)  # 60 pairs over vocab 8
        assert main(["bounds-eval", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        cfg = self.bounds_config(tmp_path, pairs={"count": 61, "vocab": 8, "seed": 11})
        assert main(["bounds-eval", "--config", cfg, "--out", str(tmp_path / "b")]) == 1

    def test_json_format(self, tmp_path):
        cfg = self.bounds_config(tmp_path)
        out = tmp_path / "bj"
        assert main(["bounds-eval", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        assert len(doc["rows"]) == 60


class TestEquivalenceCommand:
    def equivalence_config(self, tmp_path, target_spec, **overrides):
        doc = {
            "target_spec": target_spec,
            "draft_spec": {"temper": {"tau": 2.0, "eps": 0.15}},
            "mode": "sampling",
            "policy": {"kind": "constant", "k": 3},
            "prompt": [0],
            "horizon": 2,
            "n_samples": 10_000,
            "seed": 13,
            "threshold": 0.035,
        }
        doc.update(overrides)
        return write_config(tmp_path, "equiv.json", doc)

    def test_default_suite_passes(self, tmp_path, target_spec):
        cfg = self.equivalence_config(tmp_path, target_spec)
        out = tmp_path / "eqv"
        assert main(["equivalence", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["passed"] is True
        assert doc["tvd"] <= doc["threshold"]

    def test_horizon_guard_before_sampling(self, tmp_path, target_spec, capsys):
        cfg = self.equivalence_config(tmp_path, target_spec, horizon=12)
        rc = main(["equivalence", "--config", cfg, "--out",
                   str(tmp_path / "o")])
        assert rc == 1
        assert "state space too large" in capsys.readouterr().err

    def test_huge_horizon_rejected_at_once(self, tmp_path, target_spec,
                                           capsys):
        cfg = self.equivalence_config(tmp_path, target_spec,
                                      horizon=1_000_000_000)
        start = time.perf_counter()
        rc = main(["equivalence", "--config", cfg, "--out",
                   str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: horizon:")

    def test_one_token_vocab_huge_horizon_rejected_at_once(self, tmp_path,
                                                           capsys):
        # One continuation at any horizon: only the horizon bound stops it.
        model = write_config(tmp_path, "one.json", {
            "vocab_size": 1, "context_order": 0,
            "rows": [{"context": [], "probs": [1.0]}]})
        cfg = self.equivalence_config(tmp_path, model, horizon=1_000_000_000)
        start = time.perf_counter()
        rc = main(["equivalence", "--config", cfg, "--out",
                   str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: horizon:")

    @pytest.mark.parametrize("overrides, path", [
        ({"horizon": 0}, "horizon"),
        ({"horizon": -1}, "horizon"),
        ({"threshold": float("nan")}, "threshold"),
        ({"seed": -1}, "seed"),
        ({"prompt": 0}, "prompt"),
        ({"prompt": []}, "prompt"),
        ({"prompt": [3]}, "prompt"),
        ({"prompt": [True]}, "prompt"),
    ], ids=["horizon-0", "negative-horizon", "nan-threshold", "negative-seed",
            "prompt-not-list", "empty-prompt", "out-of-vocab-prompt-token",
            "bool-prompt-token"])
    def test_rejected_with_field_path(self, tmp_path, target_spec, capsys,
                                      overrides, path):
        cfg = self.equivalence_config(tmp_path, target_spec, **overrides)
        assert main(["equivalence", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    def test_greedy_compares_with_the_argmax_chain(self, tmp_path, capsys):
        # The shipped pair in greedy mode: one output, the target's argmax
        # chain. Compared with the sampling distribution it read tvd 0.3.
        doc = json.loads((ROOT / "configs" / "equivalence.json").read_text())
        doc.update(target_spec=str(ROOT / "configs" / "segmented_target.json"),
                   mode="greedy", horizon=2, n_samples=10_000)
        cfg = write_config(tmp_path, "greedy.json", doc)
        rc = main(["equivalence", "--config", cfg, "--out", str(tmp_path / "g")])
        assert capsys.readouterr().out == "equivalence: tvd=0 threshold=0.01 PASS\n"
        assert rc == 0

    def test_failure_exit_code_consistent_with_verdict(self, tmp_path,
                                                       target_spec):
        # an absurdly tight threshold cannot be met by a finite sample
        cfg = self.equivalence_config(tmp_path, target_spec, threshold=1e-9)
        out = tmp_path / "tight"
        rc = main(["equivalence", "--config", cfg, "--out", str(out)])
        doc = json.loads((out / "verdict.json").read_text())
        assert rc == 3
        assert doc["passed"] is False
        assert doc["tvd"] > doc["threshold"]


class TestOracleStats:
    def test_histogram_accounts_for_all_runs(self, tmp_path, target_spec):
        cfg = oracle_config(tmp_path, target_spec)
        out = tmp_path / "os"
        assert main(["oracle-stats", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads((out / "oracle_stats.json").read_text())
        assert sum(doc["histogram"]) == 40
        assert len(doc["histogram"]) == 11

    def test_negative_seed_rejected(self, tmp_path, target_spec, capsys):
        cfg = oracle_config(tmp_path, target_spec, seed=-1)
        assert main(["oracle-stats", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: seed:")

    def test_csv_histogram(self, tmp_path, target_spec):
        cfg = oracle_config(tmp_path, target_spec)
        out = tmp_path / "osc"
        assert main(["oracle-stats", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "oracle_histogram.csv").read_text().splitlines()
        assert lines[0] == "length,count"
        assert len(lines) == 12


class TestEntryPoint:
    def test_module_invocation(self):
        # The subprocess does not see pytest's ``pythonpath``, so it gets
        # the repo's ``src`` on its own.
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "speclab.cli", "--version"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout.strip()


def reference_round_rows(results):
    """rounds.csv as one dict per round, the form the CSV was built from
    before it was written from columns."""
    for di, result in enumerate(results):
        for rec in result.rounds:
            yield {
                "decode_index": di,
                "round_index": rec.round_index,
                "proposed": len(rec.proposed_tokens),
                "accepted": rec.accepted_count,
                "correction": rec.correction,
                "bonus": rec.bonus,
                "mean_entropy": (float(np.mean(rec.draft_entropies))
                                 if rec.draft_entropies else None),
                "next_entropy": rec.next_entropy,
            }


def reference_csv(fieldnames, rows) -> bytes:
    """The dict + ``fmt9`` + ``csv.writer`` path ``write_csv`` replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([fmt9(row.get(k)) for k in fieldnames] for row in rows)
    return buf.getvalue().encode("utf-8")


# Floats that print in exponent form, zero, and ordinary entropies.
CSV_FLOATS = st.one_of(st.sampled_from([0.0, 1e-10, 5e-324, 2.5e-5, 1e16,
                                        123456789.0, 1.0]),
                       st.floats(0.0, 5.0))


@st.composite
def round_records(draw):
    n = draw(st.integers(0, 6))  # 0: an empty round, mean entropy None
    return RoundRecord(
        round_index=draw(st.integers(0, 10**10)), start_len=1, start_index=0,
        proposed_tokens=[0] * n,
        draft_entropies=draw(st.lists(CSV_FLOATS, min_size=n, max_size=n)),
        next_entropy=draw(st.none() | CSV_FLOATS),
        accepted_count=draw(st.integers(0, n)),
        correction=draw(st.none() | st.integers(0, 40)),
        bonus=draw(st.none() | st.integers(0, 40)))


class TestCsvWriter:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(round_records(), max_size=8), max_size=3))
    def test_rounds_csv_bytes_match_row_writer(self, tmp_path_factory, decodes):
        results = [DecodeResult([0], 1, rounds) for rounds in decodes]
        path = tmp_path_factory.mktemp("rounds") / "rounds.csv"
        write_csv(str(path), round_csv_columns(results))
        assert path.read_bytes() == reference_csv(
            ROUND_CSV_FIELDS, reference_round_rows(results))

    def test_every_cell_kind_matches_fmt9(self, tmp_path):
        columns = {
            "ints": [0, -3, 10**9, 2**70],
            "ints_or_none": [None, 1, None, 10**12],
            "floats": [math.nan, math.inf, -0.0, 5e-324],
            "floats_or_none": [None, 1e-10, math.nan, 0.1 + 0.2],
            "bools": [True, False, True, False],
            "mixed": [1, 2.5, None, np.float64(1e-7)],
            "numpy": [np.float64(0.5), np.int64(7), np.float64(math.nan), None],
            "blank": [None] * 4,
        }
        path = tmp_path / "t.csv"
        write_csv(str(path), columns)
        rows = [dict(zip(columns, vals)) for vals in zip(*columns.values())]
        assert path.read_bytes() == reference_csv(list(columns), rows)
        lines = path.read_text().splitlines()
        assert lines[1] == "0,,,,true,1,0.5,"  # NaN and None are empty
        assert lines[3] == "1000000000,,-0,,true,,,"
        assert lines[4] == ("1180591620717411303424,1000000000000,4.94065646e-324,"
                            "0.3,false,1e-07,,")

    def test_header_only_without_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), {"length": range(0), "count": []})
        assert path.read_bytes() == b"length,count\n"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(str(tmp_path / "t.csv"), {"a": [1, 2], "b": [1]})
