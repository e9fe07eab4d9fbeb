"""Experiment harness: oracle lengths, diagnostics, speedup, equivalence."""

import math

import numpy as np
import pytest

import speclab.engine as engine_module
import speclab.harness as harness_module
from speclab.dist import Distribution, make_rng, residual
from speclab.engine import DecodeMode, DecodeResult, RoundRecord
from speclab.harness import (ROUND_CSV_FIELDS, CostModel, ExperimentConfig,
                             entropy_stats, equivalence_test, estimated_speedup,
                             exact_sequence_probs, kl_trace,
                             oracle_draft_length, oracle_length_stats,
                             round_csv_rows, run_experiment,
                             sorted_logprob_profile, summarize_experiment)
from speclab.models import (AutoregressiveModel, random_tabular,
                            tabular_from_spec, temper)
from speclab.policies import ConstantPolicy, HeuristicPolicy, SvipConfig, SvipPolicy

SAMPLING = DecodeMode.SAMPLING
GREEDY = DecodeMode.GREEDY


def order0(probs):
    return tabular_from_spec({
        "vocab_size": len(probs), "context_order": 0,
        "rows": [{"context": [], "probs": probs}],
    })


def fake_result(n_prompt, n_out, draft_calls, target_calls):
    return DecodeResult(output_tokens=list(range(n_out)), prompt_len=n_prompt,
                        rounds=[], target_forward_calls=target_calls,
                        draft_forward_calls=draft_calls)


class TestEstimatedSpeedup:
    def test_hand_formula(self):
        res = fake_result(10, 110, draft_calls=120, target_calls=25)
        cm = CostModel(r_draft=0.1, c_verify_overhead=0.0)
        assert estimated_speedup(res, cm) == pytest.approx(2.7027027027027026,
                                                           abs=1e-12)

    def test_degenerate_no_draft(self):
        res = fake_result(1, 101, draft_calls=0, target_calls=100)
        assert estimated_speedup(res, CostModel(0.1, 0.0)) == pytest.approx(1.0)
        assert estimated_speedup(res, CostModel(0.1, 0.5)) == pytest.approx(1 / 1.5)

    def test_free_drafts_limit_is_round_length_plus_one(self):
        # all drafts accepted with round length k: N = R * (k + 1), D = R * k
        k, rounds = 4, 10
        res = fake_result(1, 1 + rounds * (k + 1), draft_calls=rounds * k,
                          target_calls=rounds)
        assert estimated_speedup(res, CostModel(1e-9, 0.0)) == pytest.approx(
            k + 1, abs=1e-6)

    def test_monotone_in_costs(self):
        res = fake_result(5, 105, draft_calls=200, target_calls=30)
        s = [estimated_speedup(res, CostModel(r, 0.0)) for r in (0.05, 0.1, 0.2)]
        assert s[0] > s[1] > s[2]
        t = [estimated_speedup(res, CostModel(0.1, c)) for c in (0.0, 0.5, 1.0)]
        assert t[0] > t[1] > t[2]

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(r_draft=0.0)
        with pytest.raises(ValueError):
            CostModel(r_draft=0.1, c_verify_overhead=-1.0)

    @pytest.mark.parametrize("costs", [
        {"r_draft": math.nan}, {"r_draft": math.inf},
        {"c_verify_overhead": math.nan}, {"c_verify_overhead": math.inf},
    ])
    def test_cost_model_rejects_non_finite(self, costs):
        with pytest.raises(ValueError, match="finite"):
            CostModel(**costs)


class TestOracleDraftLength:
    def test_identical_models_greedy_hits_cap(self):
        model = random_tabular(5, 1, make_rng(1))
        assert oracle_draft_length(model, model, [0], GREEDY, make_rng(2), 17) == 17

    def test_forced_walk_rejects_at_first_mismatch(self):
        # target forces 0 then 1; the uniform draft's tie-broken argmax is
        # always 0, so the walk accepts one token and rejects at the second
        target = tabular_from_spec({
            "vocab_size": 2, "context_order": 2,
            "rows": [
                {"context": [-1, 0], "probs": [1, 0]},
                {"context": [0, 0], "probs": [0, 1]},
            ],
            "default": [1, 0],
        })
        draft = order0([0.5, 0.5])
        assert oracle_draft_length(target, draft, [0], GREEDY, make_rng(0), 10) == 1

    def test_identical_models_sampling_hits_cap(self):
        model = random_tabular(4, 1, make_rng(3))
        assert oracle_draft_length(model, model, [0], SAMPLING, make_rng(4), 25) == 25

    def test_sampling_deterministic_given_rng(self):
        target = random_tabular(4, 1, make_rng(5))
        draft = temper(target, 2.0, 0.2)
        a = oracle_draft_length(target, draft, [0], SAMPLING, make_rng(6), 40)
        b = oracle_draft_length(target, draft, [0], SAMPLING, make_rng(6), 40)
        assert a == b

    def test_greedy_independent_of_rng(self):
        target = random_tabular(4, 1, make_rng(5))
        draft = temper(target, 2.0, 0.2)
        a = oracle_draft_length(target, draft, [1], GREEDY, make_rng(1), 40)
        b = oracle_draft_length(target, draft, [1], GREEDY, make_rng(999), 40)
        assert a == b


class TestOracleLengthStats:
    def test_identical_models_degenerate(self):
        model = random_tabular(4, 1, make_rng(7))
        mean, var, hist = oracle_length_stats(model, model, [[0], [1]], GREEDY,
                                              make_rng(8), cap=12, n_runs=5)
        assert mean == 12.0 and var == 0.0
        assert hist[12] == 10

    def test_far_temperature_shortens_oracle(self):
        target = random_tabular(6, 1, make_rng(9), alpha=0.4)
        near = temper(target, 1.0, 0.0)
        far = temper(target, 4.0, 0.3)
        m_near, _, _ = oracle_length_stats(target, near, [[0]], SAMPLING,
                                           make_rng(10), cap=40, n_runs=200)
        m_far, _, _ = oracle_length_stats(target, far, [[0]], SAMPLING,
                                          make_rng(10), cap=40, n_runs=200)
        assert m_far < m_near

    def test_histogram_mass(self):
        target = random_tabular(4, 1, make_rng(11))
        draft = temper(target, 2.0, 0.1)
        _, _, hist = oracle_length_stats(target, draft, [[0], [1], [2]],
                                         SAMPLING, make_rng(12), cap=10,
                                         n_runs=7)
        assert hist.sum() == 21


class TestEntropyStats:
    def test_single_round_bookkeeping(self):
        rec = RoundRecord(0, 1, [0, 1], [0.1, 0.9], None, 1, correction=5,
                          bonus=None)
        acc, rej = entropy_stats([rec])
        assert acc == pytest.approx(0.1)
        assert rej == pytest.approx(0.9)

    def test_all_accepted_leaves_rejected_undefined(self):
        rec = RoundRecord(0, 1, [0, 1], [0.1, 0.2], None, 2, correction=None,
                          bonus=3)
        acc, rej = entropy_stats([rec])
        assert acc == pytest.approx(0.15)
        assert rej is None

    def test_discarded_tail_excluded(self):
        rec = RoundRecord(0, 1, [0, 1, 2, 3], [0.1, 0.9, 0.4, 0.5], None, 1,
                          correction=7, bonus=None)
        acc, rej = entropy_stats([rec])
        assert acc == pytest.approx(0.1)
        assert rej == pytest.approx(0.9)

    def test_rejection_biased_towards_high_entropy(self):
        # discrepancy grows with row entropy by construction, so rejected
        # positions must average higher draft entropy than accepted ones
        target = random_tabular(8, 1, make_rng(13), alpha=0.3,
                                spiky_fraction=0.5)
        draft = temper(target, 2.5, 0.1)
        rng = make_rng(14)
        rounds = []
        for seed in range(10):
            res = engine_module.speculative_decode(
                target, draft, [seed % 8], 150, ConstantPolicy(5), SAMPLING, rng)
            rounds.extend(res.rounds)
        acc, rej = entropy_stats(rounds)
        assert rej > acc


class TestKlTrace:
    def test_identical_models_zero_trace(self):
        model = random_tabular(4, 1, make_rng(15))
        res = engine_module.speculative_decode(model, model, [0], 60,
                                               ConstantPolicy(5), SAMPLING,
                                               make_rng(16))
        trace = kl_trace(model, model, [res], window=4)
        assert len(trace) == 5
        # identical models never reject, so no positions contribute
        assert np.all(np.isnan(trace))

    def test_peak_at_rejection_position(self):
        # one context (token 3) carries all the discrepancy
        rows = []
        for t in range(4):
            if t == 3:
                rows.append({"context": [t], "probs": [0.7, 0.1, 0.1, 0.1]})
            else:
                rows.append({"context": [t], "probs": [0.02, 0.9, 0.04, 0.04]})
        target = tabular_from_spec({"vocab_size": 4, "context_order": 1,
                                    "rows": rows, "default": [0.25] * 4})
        draft_rows = [dict(r, probs=[0.02, 0.9, 0.04, 0.04]) for r in rows]
        draft = tabular_from_spec({"vocab_size": 4, "context_order": 1,
                                   "rows": draft_rows, "default": [0.25] * 4})
        results = []
        rng = make_rng(17)
        for _ in range(50):
            results.append(engine_module.speculative_decode(
                target, draft, [0], 40, ConstantPolicy(5), SAMPLING, rng))
        trace = kl_trace(target, draft, results, window=3)
        assert len(trace) == 4
        assert trace[0] > np.nanmax(trace[1:]) or np.all(np.isnan(trace[1:]))

    def test_short_rounds_right_aligned(self):
        target = order0([0.9, 0.1])
        draft = order0([0.1, 0.9])
        rng = make_rng(18)
        results = [engine_module.speculative_decode(
            target, draft, [0], 4, ConstantPolicy(2), SAMPLING, rng)
            for _ in range(20)]
        trace = kl_trace(target, draft, results, window=4)
        assert len(trace) == 5


class TestSortedLogprobProfile:
    def test_uniform(self):
        prof = sorted_logprob_profile(Distribution([0.25] * 4), 4)
        np.testing.assert_allclose(prof, math.log(0.25), atol=1e-12)

    def test_top_two(self):
        prof = sorted_logprob_profile(Distribution([0.7, 0.2, 0.1]), 2)
        np.testing.assert_allclose(prof, [math.log(0.7), math.log(0.2)],
                                   atol=1e-12)

    def test_monotone_non_increasing(self):
        rng = make_rng(19)
        for _ in range(50):
            d = Distribution(rng.dirichlet(np.ones(12)))
            prof = sorted_logprob_profile(d, 12)
            assert np.all(np.diff(prof) <= 1e-15)

    def test_top_m_bounds(self):
        with pytest.raises(ValueError):
            sorted_logprob_profile(Distribution([0.5, 0.5]), 3)


class TestExactSequenceProbs:
    def test_probabilities_sum_to_one(self):
        target = random_tabular(3, 1, make_rng(20))
        probs = exact_sequence_probs(target, [0], 4)
        assert len(probs) <= 3 ** 4
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_chain_rule_hand_check(self):
        target = order0([0.3, 0.7])
        probs = exact_sequence_probs(target, [0], 2)
        assert probs[(1, 1)] == pytest.approx(0.49, abs=1e-12)
        assert probs[(0, 1)] == pytest.approx(0.21, abs=1e-12)


@pytest.fixture(scope="module")
def pair():
    target = random_tabular(3, 1, make_rng(21))
    draft = temper(target, 2.0, 0.15)
    return target, draft


class TestEquivalence:
    def test_passes_for_true_speculative_decoding(self, pair):
        target, draft = pair
        res = equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                               horizon=2, n_samples=20_000, rng=make_rng(22),
                               threshold=0.02)
        assert res.passed

    def test_matches_autoregressive_noise_when_models_equal(self, pair):
        target, _ = pair
        res = equivalence_test(target, target, lambda: ConstantPolicy(3), [0],
                               horizon=2, n_samples=20_000, rng=make_rng(23),
                               threshold=0.02)
        # baseline: sample the target directly and measure its own TVD
        exact = exact_sequence_probs(target, [0], 2)
        rng = make_rng(24)
        counts = {}
        for _ in range(20_000):
            seq = tuple(engine_module.autoregressive_decode(
                target, [0], 3, SAMPLING, rng)[1:])
            counts[seq] = counts.get(seq, 0) + 1
        base_tvd = 0.5 * sum(abs(counts.get(s, 0) / 20_000 - p)
                             for s, p in exact.items())
        assert res.passed
        assert abs(res.tvd - base_tvd) < 0.01

    def test_flipped_residual_fails(self, pair, monkeypatch):
        target, draft = pair
        true_residual = residual
        monkeypatch.setattr(engine_module, "residual",
                            lambda p, q: true_residual(q, p))
        res = equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                               horizon=2, n_samples=20_000, rng=make_rng(22),
                               threshold=0.02)
        assert not res.passed

    def test_state_space_guard(self, pair):
        target, draft = pair
        with pytest.raises(ValueError, match="state space too large"):
            equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                             horizon=15, n_samples=20_000, rng=make_rng(0))

    def test_sample_floor(self, pair):
        target, draft = pair
        with pytest.raises(ValueError, match="n_samples"):
            equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                             horizon=2, n_samples=100, rng=make_rng(0))


@pytest.fixture(scope="module")
def report():
    target = random_tabular(6, 1, make_rng(25), alpha=0.4, spiky_fraction=0.5)
    draft = temper(target, 2.0, 0.1)
    config = ExperimentConfig(
        target=target, draft=draft,
        policy_factory=lambda: SvipPolicy(SvipConfig(h=0.8)),
        policy_label="svip-0.8", mode=SAMPLING, horizon=120,
        prompts=[[0], [3]], seeds=[1, 2], cost_model=CostModel(),
        oracle_cap=40, kl_window=4, label="unit")
    return config, run_experiment(config)


class TestRunExperiment:
    def test_aggregates_recomputable_from_records(self, report):
        config, rep = report
        rounds = [rec for r in rep.results for rec in r.rounds
                  if rec.proposed_tokens]
        proposed = np.array([len(rec.proposed_tokens) for rec in rounds])
        accepted = np.array([rec.accepted_count for rec in rounds])
        assert rep.accept_rate == pytest.approx(accepted.sum() / proposed.sum())
        assert rep.proposed_mean == pytest.approx(proposed.mean())
        assert rep.proposed_var == pytest.approx(proposed.var())
        assert rep.accepted_mean == pytest.approx(accepted.mean())
        assert rep.total_generated == sum(r.generated for r in rep.results)
        assert rep.target_forward_calls == sum(r.target_forward_calls
                                               for r in rep.results)
        acc, rej = entropy_stats(rounds)
        assert rep.entropy_accepted_mean == pytest.approx(acc)
        assert rep.entropy_rejected_mean == pytest.approx(rej)

    def test_speedup_matches_totals(self, report):
        config, rep = report
        expected = rep.total_generated / (
            rep.draft_forward_calls * config.cost_model.r_draft
            + rep.target_forward_calls)
        assert rep.estimated_speedup == pytest.approx(expected)

    def test_deterministic(self, report):
        config, rep = report
        again = run_experiment(config)
        assert again.accept_rate == rep.accept_rate
        assert again.mean_delta_to_oracle == rep.mean_delta_to_oracle
        assert again.estimated_speedup == rep.estimated_speedup

    def test_round_csv_rows_shape(self, report):
        _, rep = report
        rows = list(round_csv_rows(rep.results))
        assert len(rows) == rep.total_rounds
        assert ROUND_CSV_FIELDS == ["decode_index", "round_index", "proposed",
                                    "accepted", "correction", "bonus",
                                    "mean_entropy", "next_entropy"]
        for row in rows:
            assert list(row) == ROUND_CSV_FIELDS

    def test_jsonable_round_trip_fields(self, report):
        _, rep = report
        doc = rep.to_jsonable()
        assert doc["policy"] == "svip-0.8"
        assert doc["accept_rate"] == rep.accept_rate
        assert len(doc["kl_trace"]) == 5

    def test_summarize_is_pure(self, report):
        config, rep = report
        again = summarize_experiment(config, rep.results, [0.0])
        assert again.accept_rate == rep.accept_rate


class Recording(AutoregressiveModel):
    """Delegates to ``model`` and records the length of every context."""

    def __init__(self, model, lengths):
        self.model = model
        self.vocab_size = model.vocab_size
        self.context_order = model.context_order
        self.lengths = lengths

    def next_distribution(self, context):
        self.lengths.append(len(context))
        return self.model.next_distribution(context)


class TestTrailingContext:
    def run(self):
        target = random_tabular(4, 2, make_rng(61), spiky_fraction=0.5)
        lengths = []
        config = ExperimentConfig(
            target=Recording(target, lengths),
            draft=Recording(temper(target, 2.0, 0.2), lengths),
            policy_factory=lambda: SvipPolicy(SvipConfig(h=0.8)),
            policy_label="svip-0.8", mode=SAMPLING, horizon=1000,
            prompts=[[0]], seeds=[1], oracle_cap=40, kl_window=4)
        return run_experiment(config).to_jsonable(), lengths

    def test_experiment_bounded_and_same_as_whole_prefix(self, monkeypatch):
        report, lengths = self.run()
        assert max(lengths) <= 2 + 40  # context_order + the longer cap

        def whole(tokens, end, width):
            return list(tokens[:end])

        monkeypatch.setattr(engine_module, "trailing_context", whole)
        monkeypatch.setattr(harness_module, "trailing_context", whole)
        ref, ref_lengths = self.run()
        assert max(ref_lengths) >= 999
        assert report == ref
