"""The benchmark under ``bench/`` resolves public names of speclab: the tracer
when it is imported and patched in, the workloads when they build their
inputs. A renamed or deleted name fails here instead of in every benchmark
run."""

import json
from pathlib import Path

import pytest

from speclab import cli, engine, harness, models
from speclab.dist import make_rng
from speclab.harness import ExperimentConfig, run_experiment
from speclab.models import random_tabular, tabular_to_spec, temper
from speclab.policies import ConstantPolicy

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(ROOT)  # the workloads read configs/ relative to the root
    import tracer
    import workloads
    return tracer, workloads


def test_lab_builds_under_the_tracer(bench):
    tracer, workloads = bench
    saved = (models.temper, cli.load_model_spec, engine.correct_greedy)
    with tracer.Tracer().patched():
        lab = workloads.Lab(0.2)
        for make_policy in workloads.POLICY_FACTORIES.values():
            make_policy()
    assert (models.temper, cli.load_model_spec, engine.correct_greedy) == saved
    assert lab.draft.vocab_size == lab.target.vocab_size == workloads.VOCAB
    assert lab.draft.context_order == lab.target.context_order


def test_timing_hook_sees_every_decode(tmp_path, monkeypatch):
    # experiment-suite times each decode by patching harness.speculative_decode.
    calls = []

    def counting_decode(*args, **kwargs):
        calls.append(args[2])
        return engine.speculative_decode(*args, **kwargs)

    monkeypatch.setattr(harness, "speculative_decode", counting_decode)
    target = random_tabular(3, 1, make_rng(0))
    run_experiment(ExperimentConfig(
        target=target, draft=temper(target, 2.0, 0.1),
        policy_factory=lambda: ConstantPolicy(3), policy_label="constant-3",
        mode=engine.DecodeMode.SAMPLING, horizon=10, prompts=[[0], [1, 2]],
        seeds=[1, 2, 3]))
    assert calls == [[0], [1, 2]] * 3
    spec = tmp_path / "target.json"
    spec.write_text(json.dumps(tabular_to_spec(target)))
    cfg = tmp_path / "decode.json"
    cfg.write_text(json.dumps({
        "target_spec": str(spec), "draft_spec": {"temper": {"tau": 2.0}},
        "mode": "greedy", "policy": {"kind": "heuristic"}, "horizon": 10,
        "prompts": [[2]], "seeds": [4, 5]}))
    del calls[:]
    assert cli.main(["decode", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert calls == [[2], [2]]
