"""Experiment harness: oracle lengths, diagnostics, speedup, equivalence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclab.engine as engine_module
import speclab.harness as harness_module
from speclab.dist import (Distribution, KeyedStreams, argmax, entropy,
                          kl_divergence, make_rng, normalize, residual, sample)
from speclab.engine import (DecodeMode, DecodeResult, RoundRecord,
                            verify_greedy, verify_sampling)
from speclab.harness import (ROUND_CSV_FIELDS, CostModel, ExperimentConfig,
                             entropy_stats, equivalence_test, estimated_speedup,
                             exact_sequence_probs, kl_trace,
                             oracle_draft_length, oracle_length_stats,
                             oracle_lengths, round_csv_columns, run_experiment,
                             sorted_logprob_profile, summarize_experiment)
from speclab.models import (AutoregressiveModel, TabularModel, context_index,
                            context_indices, context_space, random_tabular,
                            tabular_from_spec, temper)
from speclab.policies import ConstantPolicy, HeuristicPolicy, SvipConfig, SvipPolicy
from test_dist import FixedDraws, generator
from test_engine import FailingRows, PerCall, Recording, reference_decode

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

    def test_model_pair_vocab_mismatch(self):
        # One context index names the rows of both models, so their vocab must match.
        target, draft = order0([0.2, 0.3, 0.5]), order0([0.5, 0.5])
        with pytest.raises(ValueError, match="model pair mismatch"):
            oracle_draft_length(target, draft, [0], SAMPLING, make_rng(0), 5)
        with pytest.raises(ValueError, match="model pair mismatch"):
            kl_trace(target, draft, [], window=2)
        with pytest.raises(ValueError, match="model pair mismatch"):
            oracle_lengths(target, draft, [0], SAMPLING, KeyedStreams([(0,)]), 5)

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("prefix, bad", [
        ([5], 5), ([-2], -2), ([0, 3, 1], 3), ([1, np.int64(-1)], -1),
    ])
    def test_prefix_out_of_vocab_rejected(self, prefix, bad, mode):
        # A prefix is checked as a decoder checks its prompt: an
        # out-of-vocab token is named, never folded into a context index.
        target = random_tabular(3, 1, make_rng(10))
        draft = temper(target, 2.0, 0.2)
        message = rf"^prompt token {bad} out of vocab$"
        with pytest.raises(ValueError, match=message):
            oracle_draft_length(target, draft, prefix, mode, make_rng(0), 5)
        with pytest.raises(ValueError, match=message):
            oracle_length_stats(target, draft, [[0], prefix], mode, make_rng(0), 5, 2)

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    def test_empty_prefix_is_the_all_bos_context(self, mode):
        target = random_tabular(3, 2, make_rng(11))
        draft = temper(target, 2.0, 0.2)
        for seed in range(20):
            assert (oracle_draft_length(target, draft, [], mode, make_rng(seed), 8)
                    == reference_oracle(target, draft, [], mode, make_rng(seed), 8))


class Holed(AutoregressiveModel):
    """``model`` with no row for the context index ``hole``."""

    def __init__(self, model, hole):
        self.model, self.hole = model, hole
        self.vocab_size = model.vocab_size
        self.context_order = model.context_order

    def row(self, index):
        if index % (self.vocab_size + 1) ** self.context_order == self.hole:
            return self.missing_row(("hole",))
        return self.model.row(index)


def scalar_oracle(target, draft, prefix, mode, key, cap):
    """``oracle_draft_length`` of one round, drawing per call from
    ``make_rng(key)``."""
    rng = make_rng(key) if mode is SAMPLING else None
    return oracle_draft_length(target, draft, prefix, mode, rng, cap)


class TestOracleLengths:
    """Each lane of the batched oracle gives the scalar oracle's length for
    its round, from the round's start context and key."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_pairs(self, data):
        vocab = data.draw(st.integers(1, 5), label="vocab")
        rng = make_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))

        def row():  # zero-mass entries, at least one positive
            w = rng.dirichlet(np.ones(vocab)) * (rng.random(vocab) < 0.6)
            w[rng.integers(vocab)] += 0.5
            return normalize(w)

        def model(label):
            order = data.draw(st.integers(0, 3), label=f"{label} order")
            default = row() if data.draw(st.booleans(), label=f"{label} default") else None
            keys = [k for k in context_space(vocab, order)
                    if default is None or rng.random() < 0.6]
            probs = np.array([row().probs for _ in keys]).reshape(len(keys), vocab)
            return TabularModel(vocab, order, context_indices(keys, vocab, order), probs,
                                default)

        target = model("target")
        draft = target if data.draw(st.booleans(), label="draft is target") else model("draft")
        mode = data.draw(st.sampled_from([SAMPLING, GREEDY]), label="mode")
        cap = data.draw(st.sampled_from([1, 2, 40]), label="cap")
        seed = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 70))
        prefixes = [(s, pi) for pi, s in enumerate(
            data.draw(st.lists(seed, min_size=1, max_size=3), label="seeds"))]
        lanes = data.draw(st.lists(st.tuples(
            st.integers(0, len(prefixes) - 1), st.integers(0, 2 ** 32 - 1),
            st.lists(st.integers(0, vocab - 1), max_size=5)), max_size=12), label="lanes")
        width = max(target.context_order, draft.context_order)
        # Keys as run_experiment builds them: uint32 rows when every seed
        # fits in 32 bits, else tuples.
        keys = [(*prefixes[d], r, harness_module._ORACLE_SALT) for d, r, _ in lanes]
        if all(s <= 0xFFFF_FFFF for s, _ in prefixes):
            keys = np.array(keys, np.uint32).reshape(-1, 4)
        streams = KeyedStreams(keys)
        starts = [context_index(prefix, len(prefix), vocab, width) for _, _, prefix in lanes]
        got = oracle_lengths(target, draft, starts, mode,
                             None if mode is GREEDY else streams, cap)
        want = [scalar_oracle(target, draft, prefix, mode,
                              (*prefixes[d], r, harness_module._ORACLE_SALT), cap)
                for d, r, prefix in lanes]
        assert got.tolist() == want

    def test_rows_read_once_per_context_and_left_unmemoised(self):
        target = random_tabular(3, 2, make_rng(63), spiky_fraction=0.5)
        draft = temper(target, 2.0, 0.2)
        read_t, read_d = [], []
        starts = [0, 1, 5, 5, 7] * 20
        keys = [(9, 0, r, harness_module._ORACLE_SALT) for r in range(len(starts))]
        lengths = oracle_lengths(Recording(target, read_t), Recording(draft, read_d),
                                 starts, SAMPLING, KeyedStreams(keys), 40)
        assert lengths.max() > 1
        assert read_t == read_d and len(set(read_t)) == len(read_t)
        assert all(0 <= i < 4 ** 2 for i in read_t)
        for model in (target, draft):
            assert set(read_t) <= set(model.rows)  # the rows read are cached
            # The oracle fills no memo of its own on the rows it reads; every
            # table row carries its own row's entropy and cdf from the stack.
            for index, probs in zip(model.index.tolist(), model.probs):
                d = model.row(index)
                assert d._list is None and d._residuals is None
                fresh = Distribution(probs)
                assert d._cdf == fresh.cdf() and d._entropy == entropy(fresh)

    def test_coin_exactly_at_the_accept_ratio_rejects(self):
        # q(0) = 1 and p(0) is the lane's own coin: coin * q < p is false.
        key = (5, 0, 3, harness_module._ORACLE_SALT)
        _, coin = make_rng(key).random(2)
        draft = TabularModel(2, 0, np.array([0]), np.array([[1.0, 0.0]]))
        target = TabularModel(2, 0, np.array([0]), np.array([[coin, 1.0 - coin]]))
        assert scalar_oracle(target, draft, [], SAMPLING, key, 3) == 0
        got = oracle_lengths(target, draft, [0], SAMPLING, KeyedStreams([key]), 3)
        assert got.tolist() == [0]

    def test_greedy_ties_break_to_the_first_index(self):
        # Tokens 0 and 1 tie in both rows; the draft and the target each take
        # token 0, so every step is accepted, as in the scalar oracle.
        draft, target = order0([0.4, 0.4, 0.2]), order0([0.45, 0.45, 0.1])
        assert scalar_oracle(target, draft, [], GREEDY, None, 4) == 4
        assert oracle_lengths(target, draft, [0], GREEDY, None, 4).tolist() == [4]

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("holed", ["target", "draft"])
    def test_missing_row_raises_as_the_scalar_oracle_does(self, mode, holed):
        model = random_tabular(3, 1, make_rng(2))
        hole = Holed(model, context_index([1], 1, 3, 1))
        target, draft = (hole, model) if holed == "target" else (model, hole)
        key = (1, 0, 0, harness_module._ORACLE_SALT)
        with pytest.raises(ValueError, match="no row for context"):
            scalar_oracle(target, draft, [1], mode, key, 5)
        with pytest.raises(ValueError, match="no row for context"):
            oracle_lengths(target, draft, [context_index([0], 1, 3, 1), 2],
                           mode, KeyedStreams([key, key]), 5)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_raises(self, cap, report):
        config, _ = report
        with pytest.raises(ValueError, match="cap must be >= 1"):
            oracle_lengths(config.target, config.draft, [], SAMPLING,
                           KeyedStreams([]), cap)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            run_experiment(dataclasses.replace(config, oracle_cap=cap))


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

    @pytest.mark.parametrize("cap", [1, 40])
    def test_generator_ends_where_per_call_draws_leave_it(self, cap):
        # With cap 1 the 21 runs draw 42 values, fewer than a block: a stream
        # that fetched past twice the runs left would leave rng elsewhere.
        target = random_tabular(4, 1, make_rng(11))
        draft = temper(target, 2.0, 0.1)
        prompts = [[0], [1], [2]]
        rng, ref = make_rng(13), make_rng(13)
        mean, _, hist = oracle_length_stats(target, draft, prompts, SAMPLING,
                                            rng, cap=cap, n_runs=7)
        lengths = [reference_oracle(target, draft, prompt, SAMPLING, ref, cap)
                   for prompt in prompts for _ in range(7)]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert hist.tolist() == np.bincount(lengths,
                                            minlength=cap + 1).tolist()
        assert mean == float(np.mean(lengths))

    @pytest.mark.parametrize("kind", ["pcg64", "mt19937", "pcg64-half"])
    @pytest.mark.parametrize("fail_at", [1, 2, 9, 40])
    def test_runs_that_raise(self, fail_at, kind):
        """Runs whose ``fail_at``-th target row read raises leave the
        generator past the draws they made, no further."""
        target = random_tabular(4, 1, make_rng(11))
        draft = temper(target, 2.0, 0.1)
        rng, ref = generator(kind, 14), generator(kind, 14)
        for draws in (rng, PerCall(ref)):
            with pytest.raises(LookupError):
                oracle_length_stats(FailingRows(target, fail_at), draft,
                                    [[0], [1], [2]], SAMPLING, draws, cap=10,
                                    n_runs=7)
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


class TestEntropyStats:
    def test_single_round_bookkeeping(self):
        rec = RoundRecord(0, 1, 0, [0, 1], [0.1, 0.9], None, 1, correction=5,
                          bonus=None)
        acc, rej = entropy_stats([rec])
        assert acc == pytest.approx(0.1)
        assert rej == pytest.approx(0.9)

    def test_all_accepted_leaves_rejected_undefined(self):
        rec = RoundRecord(0, 1, 0, [0, 1], [0.1, 0.2], None, 2, correction=None,
                          bonus=3)
        acc, rej = entropy_stats([rec])
        assert acc == pytest.approx(0.15)
        assert rej is None

    def test_discarded_tail_excluded(self):
        rec = RoundRecord(0, 1, 0, [0, 1, 2, 3], [0.1, 0.9, 0.4, 0.5], None, 1,
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

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_bit_identical_to_whole_prefix_reference(self, seed, mode):
        # Window 50 is longer than any round, so its tail entries are NaN.
        gen = make_rng(seed)
        target = random_tabular(4, 2, gen, spiky_fraction=0.4)
        draft = (random_tabular(4, 1, gen) if mode is GREEDY
                 else temper(target, 2.0, 0.2))
        results = [engine_module.speculative_decode(
            target, draft, [t % 4], 60, ConstantPolicy(6), mode, gen)
            for t in range(6)]
        rejected = [rec for r in results for rec in r.rounds
                    if rec.correction is not None]
        assert any(rec.accepted_count == 0 for rec in rejected)
        assert any(rec.accepted_count > 0 for rec in rejected)
        for window in (1, 4, 50):
            got = kl_trace(target, draft, results, window)
            want = reference_kl_trace(target, draft, results, window)
            assert got.tobytes() == want.tobytes()
        assert np.isnan(got[-1])


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

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            exact_sequence_probs(order0([0.3, 0.7]), [0], horizon)

    @pytest.mark.parametrize("prompt", [[3], [0, -1]])
    def test_prompt_token_out_of_vocab_rejected(self, prompt):
        with pytest.raises(ValueError, match="prompt token out of vocab"):
            exact_sequence_probs(random_tabular(3, 1, make_rng(0)), prompt, 2)

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    def test_empty_prompt_rejected_before_any_row_read(self, monkeypatch, mode):
        target = random_tabular(3, 1, make_rng(0))
        draft = temper(target, 2.0, 0.15)
        reads = []
        for model in (target, draft):
            monkeypatch.setattr(model, "row", lambda i, row=model.row: reads.append(i) or row(i))
        with pytest.raises(ValueError, match="^prompt must be non-empty$"):
            exact_sequence_probs(target, [], 2)
        with pytest.raises(ValueError, match="^prompt must be non-empty$"):
            equivalence_test(target, draft, lambda: ConstantPolicy(3), [], horizon=2,
                             n_samples=10_000, rng=make_rng(1), mode=mode)
        assert reads == []

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_list_context_reference(self, order):
        rng = make_rng(26 + order)
        for vocab in range(1, 6):
            table = {}
            for key in context_space(vocab, order):
                w = rng.dirichlet(np.ones(vocab))
                w[rng.random(vocab) < 0.3] = 0.0  # zero-mass entries
                w[rng.integers(vocab)] += 0.5
                table[key] = normalize(w)
            target = TabularModel(vocab, order, context_indices(table, vocab, order),
                                  np.array([d.probs for d in table.values()]))
            for prompt_len in (1, order + 2):
                prompt = rng.integers(vocab, size=prompt_len).tolist()
                for horizon in range(1, 5):
                    got = exact_sequence_probs(target, prompt, horizon)
                    want = reference_exact_sequence_probs(target, prompt, horizon)
                    assert list(got.items()) == list(want.items())


def reference_exact_sequence_probs(target, prompt, horizon):
    """``exact_sequence_probs`` with whole-context model calls."""
    probs = {}
    stack = [((), 1.0)]
    prompt = list(prompt)
    while stack:
        gen, pr = stack.pop()
        if len(gen) == horizon:
            probs[gen] = pr
            continue
        d = target.next_distribution(prompt + list(gen))
        for t in range(d.probs.size):
            p_t = float(d.probs[t])
            if p_t > 0.0:
                stack.append((gen + (t,), pr * p_t))
    return probs


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

    def test_greedy_compares_with_the_argmax_chain(self, pair):
        target, draft = pair
        rng = make_rng(5)
        state = rng.bit_generator.state
        res = equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                               horizon=3, n_samples=10_000, rng=rng, mode=GREEDY)
        assert res.tvd == 0.0 and res.passed
        assert rng.bit_generator.state == state  # greedy draws nothing

    def test_greedy_accept_all_fails(self, pair, monkeypatch):
        # Accepting every proposal emits the draft's argmax chain, which an
        # unrelated draft does not share with the target.
        target, _ = pair
        draft = random_tabular(3, 1, make_rng(4))
        monkeypatch.setattr(engine_module, "verify_greedy", lambda p, token: True)
        res = equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                               horizon=3, n_samples=10_000, rng=make_rng(5),
                               mode=GREEDY)
        assert res.tvd == 1.0 and not res.passed

    def test_state_space_guard(self, pair):
        target, draft = pair
        with pytest.raises(ValueError, match="state space too large"):
            equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                             horizon=15, n_samples=20_000, rng=make_rng(0))

    @pytest.mark.parametrize("vocab, horizon, too_large", [
        (2, 13, False), (2, 14, True), (10, 4, False), (10, 5, True),
        (3, 10 ** 9, True), (1, 10 ** 9, True), (1, 13, False), (1, 14, True)])
    def test_state_space_guard_is_exact(self, vocab, horizon, too_large):
        # The guard runs before the sample floor, so a space within the
        # limit is told apart by the n_samples error.
        target = random_tabular(vocab, 1, make_rng(0))
        with pytest.raises(ValueError, match="state space too large"
                           if too_large else "n_samples"):
            equivalence_test(target, target, lambda: ConstantPolicy(3), [0],
                             horizon=horizon, n_samples=100, rng=make_rng(0))

    def test_sample_floor(self, pair):
        target, draft = pair
        with pytest.raises(ValueError, match="n_samples"):
            equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                             horizon=2, n_samples=100, rng=make_rng(0))

    @pytest.mark.parametrize("kind", ["pcg64", "mt19937", "pcg64-half"])
    def test_same_as_per_call_draws(self, pair, kind):
        target, draft = pair
        rng, ref = generator(kind, 28), generator(kind, 28)
        got, want = (equivalence_test(target, draft, lambda: ConstantPolicy(3),
                                      [0], horizon=3, n_samples=10_000, rng=draws)
                     for draws in (rng, PerCall(ref)))
        assert got == want
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    @pytest.mark.parametrize("kind", ["pcg64", "mt19937", "pcg64-half"])
    def test_decodes_that_raise(self, pair, kind):
        """A policy factory that raises partway leaves the generator past
        the draws the decodes before it made, no further."""
        target, draft = pair
        rng, ref = generator(kind, 29), generator(kind, 29)
        for draws in (rng, PerCall(ref)):
            made = []

            def factory():
                if len(made) == 4321:
                    raise LookupError("factory")
                made.append(None)
                return ConstantPolicy(3)

            with pytest.raises(LookupError):
                equivalence_test(target, draft, factory, [0], horizon=3,
                                 n_samples=10_000, rng=draws)
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    def test_tvd_counts_mass_outside_exact_support(self, monkeypatch):
        # Accepting every draft token emits tokens the target gives no mass.
        target = tabular_from_spec({
            "vocab_size": 3, "context_order": 1,
            "rows": [{"context": [0], "probs": [0.5, 0.5, 0.0]},
                     {"context": [1], "probs": [0.0, 0.3, 0.7]},
                     {"context": [2], "probs": [0.6, 0.0, 0.4]}],
            "default": [0.2, 0.0, 0.8],
        })
        draft = temper(target, 2.0, 0.3)
        monkeypatch.setattr(engine_module, "verify_sampling",
                            lambda p, q, token, rng: True)
        outputs = []

        def recording_decode(*args, **kwargs):
            result = engine_module.speculative_decode(*args, **kwargs)
            outputs.append(tuple(result.output_tokens[1:]))
            return result

        monkeypatch.setattr(harness_module, "speculative_decode", recording_decode)
        res = equivalence_test(target, draft, lambda: ConstantPolicy(3), [0],
                               horizon=2, n_samples=10_000, rng=make_rng(27))
        exact = exact_sequence_probs(target, [0], 2)
        n = len(outputs)
        off = sum(seq not in exact for seq in outputs) / n
        assert n == 10_000 and off > 0.1
        want = 0.5 * (off + sum(abs(outputs.count(seq) / n - p)
                                for seq, p in exact.items()))
        assert res.tvd == pytest.approx(want, abs=1e-12)


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
        columns = round_csv_columns(rep.results)
        assert ROUND_CSV_FIELDS == ["decode_index", "round_index", "proposed",
                                    "accepted", "correction", "bonus",
                                    "mean_entropy", "next_entropy"]
        assert list(columns) == ROUND_CSV_FIELDS
        for column in columns.values():
            assert len(column) == rep.total_rounds

    def test_round_csv_mean_entropy_bit_identical(self):
        # Means are taken per group of equal length; each must equal the
        # round's own np.mean bit for bit, rows in their order. Every length
        # from 0 to 40 occurs, interleaved; an empty row's mean is None.
        gen = make_rng(8)
        rounds = []
        for i in range(600):
            n = i * 7 % 41
            rounds.append(RoundRecord(i % 300, 0, 0, [0] * n,
                                      (gen.random(n) * math.log(3)).tolist(),
                                      None, 0, None, 0))
        results = [DecodeResult([0], 1, rounds[:300]),
                   DecodeResult([0], 1, rounds[300:])]
        columns = round_csv_columns(results)
        assert list(zip(columns["decode_index"], columns["round_index"])) == [
            (i // 300, i % 300) for i in range(600)]
        want = [float(np.mean(rec.draft_entropies)).hex()
                if rec.draft_entropies else None for rec in rounds]
        got = [None if m is None else m.hex() for m in columns["mean_entropy"]]
        assert got == want

    def test_jsonable_round_trip_fields(self, report):
        _, rep = report
        doc = rep.to_jsonable()
        assert doc["policy"] == "svip-0.8"
        assert doc["accept_rate"] == rep.accept_rate
        assert len(doc["kl_trace"]) == 5

    def test_summarize_is_pure(self, report):
        config, rep = report
        rounds = [rec for r in rep.results for rec in r.rounds if rec.proposed_tokens]
        again = summarize_experiment(config, rep.results, [0] * len(rounds))
        assert again.accept_rate == rep.accept_rate
        assert again.mean_delta_to_oracle == rep.proposed_mean

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    def test_round_starts_read_from_records(self, report, monkeypatch, mode):
        # The oracle batch and the KL trace start from each record's
        # start_index and derive no context index from the output. An
        # unrelated draft makes both modes reject.
        config = dataclasses.replace(report[0], mode=mode,
                                     draft=random_tabular(6, 1, make_rng(26)))
        want = run_experiment(config)

        def no_context_index(*args):
            raise AssertionError("context_index called")

        monkeypatch.setattr(harness_module, "context_index", no_context_index)
        got = run_experiment(config)
        assert got.to_jsonable() == want.to_jsonable()
        trace = kl_trace(config.target, config.draft, got.results, 3)
        np.testing.assert_array_equal(trace, want.kl_trace[:4])
        assert not np.isnan(trace[0])

    def test_greedy_seeds_one_generator_per_decode(self, report, monkeypatch):
        config, _ = report
        keys = []

        def counting_make_rng(key):
            keys.append(key)
            return make_rng(key)

        monkeypatch.setattr(harness_module, "make_rng", counting_make_rng)
        greedy = run_experiment(ExperimentConfig(
            target=config.target, draft=config.draft,
            policy_factory=config.policy_factory, policy_label="svip-0.8",
            mode=GREEDY, horizon=config.horizon, prompts=config.prompts,
            seeds=config.seeds))
        assert keys == [(1, 0), (1, 1), (2, 0), (2, 1)]
        assert greedy.total_rounds > len(keys)


def reference_oracle(target, draft, prefix, mode, rng, cap):
    """``oracle_draft_length`` with whole-prefix model calls."""
    greedy = mode is GREEDY
    ctx = list(prefix)
    n = 0
    while n < cap:
        q = draft.next_distribution(ctx)
        token = argmax(q) if greedy else sample(q, rng)
        p = target.next_distribution(ctx)
        ok = verify_greedy(p, token) if greedy else verify_sampling(p, q, token, rng)
        if not ok:
            break
        ctx.append(token)
        n += 1
    return n


def reference_kl_trace(target, draft, results, window):
    """``kl_trace`` with whole-prefix model calls."""
    sums = np.zeros(window + 1)
    counts = np.zeros(window + 1, dtype=int)
    for result in results:
        for rec in result.rounds:
            if rec.correction is None:
                continue
            for j in range(window + 1):
                pos = rec.accepted_count - j
                if pos < 0:
                    break
                ctx = result.output_tokens[:rec.start_len] + rec.proposed_tokens[:pos]
                sums[j] += kl_divergence(draft.next_distribution(ctx),
                                         target.next_distribution(ctx))
                counts[j] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


class TestTrailingContext:
    @staticmethod
    def config(target, draft):
        return ExperimentConfig(
            target=target, draft=draft,
            policy_factory=lambda: SvipPolicy(SvipConfig(h=0.8)),
            policy_label="svip-0.8", mode=SAMPLING, horizon=1000,
            prompts=[[0]], seeds=[1], oracle_cap=40, kl_window=4)

    @staticmethod
    def reference_experiment(config, monkeypatch):
        """``run_experiment`` with whole-prefix model calls throughout and
        per-call draws from generators numpy seeds from the same keys."""
        results, oracle = [], []
        for seed in config.seeds:
            for pi, prompt in enumerate(config.prompts):
                result = reference_decode(config.target, config.draft, prompt,
                                          config.horizon, config.policy_factory(),
                                          config.mode,
                                          np.random.default_rng((seed, pi)))
                results.append(result)
                for rec in result.rounds:
                    if not rec.proposed_tokens:
                        continue
                    oracle.append(reference_oracle(
                        config.target, config.draft,
                        result.output_tokens[:rec.start_len], config.mode,
                        np.random.default_rng((seed, pi, rec.round_index,
                                               harness_module._ORACLE_SALT)),
                        config.oracle_cap))
        monkeypatch.setattr(harness_module, "kl_trace", reference_kl_trace)
        return summarize_experiment(config, results, oracle)

    def test_experiment_bounded_and_same_as_whole_prefix(self, monkeypatch):
        target = random_tabular(4, 2, make_rng(61), spiky_fraction=0.5)
        draft = temper(target, 2.0, 0.2)
        indices = []
        report = run_experiment(self.config(Recording(target, indices),
                                            Recording(draft, indices)))
        assert 0 <= min(indices) and max(indices) < 5 ** 2  # radix ** width

        ref = self.reference_experiment(self.config(target, draft), monkeypatch)
        assert report.to_jsonable() == ref.to_jsonable()
        assert report.results == ref.results

    @pytest.mark.parametrize("seeds", [[1, 2 ** 32 - 1], [3, 2 ** 32 + 7]])
    def test_oracle_keys_past_32_bits_same_as_whole_prefix(self, seeds, monkeypatch):
        # A seed of 2**32 or more takes its oracle streams from make_rng.
        target = random_tabular(4, 2, make_rng(62), spiky_fraction=0.5)
        draft = temper(target, 2.0, 0.2)
        config = dataclasses.replace(self.config(target, draft), seeds=seeds,
                                     horizon=300)
        report = run_experiment(config)
        ref = self.reference_experiment(config, monkeypatch)
        assert report.to_jsonable() == ref.to_jsonable()
