"""The benchmark under ``bench/`` resolves public names of speclab: the tracer
when it is imported and patched in, the workloads when they build their
inputs. A renamed or deleted name fails here instead of in every benchmark
run."""

from pathlib import Path

import pytest

from speclab import cli, engine, models

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
