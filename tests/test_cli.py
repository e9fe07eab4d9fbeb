"""End-to-end CLI runs: determinism, validation, exit codes, file formats."""

import json
import subprocess
import sys

import pytest

from speclab.cli import main


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
    ], ids=["bool-k", "bool-h", "bool-seed", "bool-prompt-token",
            "string-r-draft", "bool-overhead", "constant-cap-0", "nan-r-draft",
            "inf-r-draft", "inf-overhead"])
    def test_rejected_with_field_path(self, tmp_path, target_spec, capsys,
                                      overrides, path):
        cfg = decode_config(tmp_path, target_spec, **overrides)
        assert main(["experiment", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    def test_non_integer_token_in_prompts_file(self, tmp_path, target_spec,
                                               capsys):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("0 1\n2 x\n")
        cfg = decode_config(tmp_path, target_spec,
                            prompts={"file": str(prompts)})
        assert main(["decode", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: prompts.file:")

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
    def oracle_config(self, tmp_path, target_spec, **overrides):
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

    def test_histogram_accounts_for_all_runs(self, tmp_path, target_spec):
        cfg = self.oracle_config(tmp_path, target_spec)
        out = tmp_path / "os"
        assert main(["oracle-stats", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads((out / "oracle_stats.json").read_text())
        assert sum(doc["histogram"]) == 40
        assert len(doc["histogram"]) == 11

    def test_csv_histogram(self, tmp_path, target_spec):
        cfg = self.oracle_config(tmp_path, target_spec)
        out = tmp_path / "osc"
        assert main(["oracle-stats", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "oracle_histogram.csv").read_text().splitlines()
        assert lines[0] == "length,count"
        assert len(lines) == 12


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "speclab.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()
