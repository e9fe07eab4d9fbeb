"""Verify/Correct primitives and the decode loops."""

import math

import numpy as np
import pytest

import speclab.engine as engine_module
from speclab.dist import Distribution, make_rng, residual
from speclab.engine import (DecodeMode, autoregressive_decode, correct_greedy,
                            correct_sampling, speculative_decode,
                            verify_greedy, verify_sampling)
from speclab.models import (AutoregressiveModel, random_tabular,
                            tabular_from_spec, temper)
from speclab.policies import (DEFAULT_CAP, ConstantPolicy, HeuristicPolicy,
                              SvipConfig, SvipPolicy)

SAMPLING = DecodeMode.SAMPLING
GREEDY = DecodeMode.GREEDY


def order0(probs):
    return tabular_from_spec({
        "vocab_size": len(probs), "context_order": 0,
        "rows": [{"context": [], "probs": probs}],
    })


def forced_chain(sequence, vocab_size):
    """Order-1 model that deterministically emits `sequence` cyclically."""
    rows = []
    for t in range(vocab_size):
        probs = [0.0] * vocab_size
        nxt = sequence[(sequence.index(t) + 1) % len(sequence)] if t in sequence else 0
        probs[nxt] = 1.0
        rows.append({"context": [t], "probs": probs})
    return tabular_from_spec({
        "vocab_size": vocab_size, "context_order": 1, "rows": rows,
        "default": [1.0] + [0.0] * (vocab_size - 1),
    })


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


class TestVerifySampling:
    def test_always_accepts_when_target_covers(self):
        p = Distribution([0.6, 0.4])
        q = Distribution([0.5, 0.5])
        rng = make_rng(0)
        assert all(verify_sampling(p, q, 0, rng) for _ in range(200))

    def test_accept_rate_matches_ratio(self):
        # p(token)/q(token) = 0.5
        p = Distribution([0.2, 0.8])
        q = Distribution([0.4, 0.6])
        rng = make_rng(123)
        n = 100_000
        accepted = sum(verify_sampling(p, q, 0, rng) for _ in range(n))
        assert 0.494 <= accepted / n <= 0.506

    def test_zero_target_mass_always_rejects(self):
        p = Distribution([0.0, 1.0])
        q = Distribution([0.5, 0.5])
        rng = make_rng(1)
        assert not any(verify_sampling(p, q, 0, rng) for _ in range(200))

    def test_impossible_draft_token(self):
        p = Distribution([0.5, 0.5])
        q = Distribution([1.0, 0.0])
        with pytest.raises(ValueError, match="impossible draft token"):
            verify_sampling(p, q, 1, make_rng(0))

    def test_per_token_accept_converges_to_beta(self):
        # sample from q, then verify: overall accept probability is
        # sum_x min(p, q) for any pair
        rng = make_rng(2718)
        from speclab.dist import sample
        for pair_seed in (1, 2, 3):
            gen = make_rng(pair_seed)
            p = Distribution(gen.dirichlet(np.ones(6)))
            q = Distribution(gen.dirichlet(np.ones(6)))
            beta = float(np.minimum(p.probs, q.probs).sum())
            n = 100_000
            hits = sum(verify_sampling(p, q, sample(q, rng), rng)
                       for _ in range(n))
            band = 3.0 * math.sqrt(beta * (1 - beta) / n)
            assert abs(hits / n - beta) <= band


class TestVerifyGreedy:
    def test_accepts_argmax(self):
        assert verify_greedy(Distribution([0.1, 0.9]), 1)

    def test_rejects_non_argmax(self):
        assert not verify_greedy(Distribution([0.1, 0.9]), 0)

    def test_tie_breaks_to_index_zero(self):
        assert verify_greedy(Distribution([0.5, 0.5]), 0)
        assert not verify_greedy(Distribution([0.5, 0.5]), 1)


class TestCorrect:
    def test_sampling_point_mass_residual(self):
        p = Distribution([0.5, 0.5])
        q = Distribution([0.9, 0.1])
        rng = make_rng(0)
        assert all(correct_sampling(p, q, rng) == 1 for _ in range(100))

    def test_sampling_three_way(self):
        p = Distribution([0.6, 0.3, 0.1])
        q = Distribution([0.2, 0.5, 0.3])
        rng = make_rng(0)
        assert all(correct_sampling(p, q, rng) == 0 for _ in range(100))

    def test_sampling_degenerate(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError, match="degenerate residual"):
            correct_sampling(d, d, make_rng(0))

    def test_greedy(self):
        assert correct_greedy(Distribution([0.1, 0.7, 0.2])) == 1
        assert correct_greedy(Distribution([1, 0])) == 0
        assert correct_greedy(Distribution([0.5, 0.5])) == 0


class TestEventTreeExactness:
    def test_single_step_output_distribution_is_target(self):
        # closed-form event tree: accept path contributes min(p, q)(x),
        # the rejection mass re-lands via the residual at (p - q)+(x);
        # together they must reproduce p exactly
        rng = make_rng(55)
        for _ in range(200):
            v = int(rng.integers(2, 12))
            p = Distribution(rng.dirichlet(np.ones(v)))
            q = Distribution(rng.dirichlet(np.ones(v)))
            accept_path = np.minimum(p.probs, q.probs)
            reject_mass = float(np.maximum(q.probs - p.probs, 0.0).sum())
            if reject_mass > 1e-12:
                event = accept_path + reject_mass * residual(p, q).probs
            else:
                event = accept_path
            np.testing.assert_allclose(event, p.probs, atol=1e-12)

    def test_single_proposal_round_empirically_matches_target(self):
        target = order0([0.55, 0.25, 0.2])
        draft = order0([0.2, 0.5, 0.3])
        rng = make_rng(31)
        n = 50_000
        counts = np.zeros(3)
        for _ in range(n):
            res = speculative_decode(target, draft, [0], 3, ConstantPolicy(5),
                                     SAMPLING, rng)
            counts[res.output_tokens[1]] += 1
        for x, p_x in enumerate([0.55, 0.25, 0.2]):
            band = 4.0 * math.sqrt(p_x * (1 - p_x) / n)
            assert abs(counts[x] / n - p_x) <= band


class TestSpeculativeDecode:
    def test_identical_models_accept_everything(self):
        model = random_tabular(5, 1, make_rng(11))
        res = speculative_decode(model, model, [0], 60, ConstantPolicy(5),
                                 SAMPLING, make_rng(12))
        assert all(rec.correction is None for rec in res.rounds)
        assert all(rec.accepted_count == len(rec.proposed_tokens)
                   for rec in res.rounds)

    @pytest.mark.parametrize("policy_factory", [
        lambda: ConstantPolicy(5),
        lambda: HeuristicPolicy(5, 40),
        lambda: SvipPolicy(SvipConfig(h=0.3)),
    ])
    def test_greedy_matches_autoregressive(self, policy_factory):
        for seed in range(20):
            gen = make_rng(seed)
            target = random_tabular(6, 1, gen)
            draft = random_tabular(6, 1, gen)
            sd = speculative_decode(target, draft, [0], 32, policy_factory(),
                                    GREEDY, make_rng(0))
            ar = autoregressive_decode(target, [0], 32, GREEDY, make_rng(1))
            assert sd.output_tokens == ar

    def test_greedy_ignores_rng(self):
        target = random_tabular(5, 1, make_rng(3))
        draft = temper(target, 2.0, 0.1)
        a = speculative_decode(target, draft, [0], 40, ConstantPolicy(4),
                               GREEDY, make_rng(100))
        b = speculative_decode(target, draft, [0], 40, ConstantPolicy(4),
                               GREEDY, make_rng(200))
        assert a.output_tokens == b.output_tokens

    def test_accounting_invariants(self):
        target = random_tabular(5, 1, make_rng(21))
        draft = temper(target, 2.0, 0.1)
        for policy in (ConstantPolicy(5), HeuristicPolicy(3, 40),
                       SvipPolicy(SvipConfig(h=0.6))):
            res = speculative_decode(target, draft, [0, 1], 80, policy,
                                     SAMPLING, make_rng(22))
            assert len(res.output_tokens) <= 80
            assert res.target_forward_calls == len(res.rounds)
            assert res.draft_forward_calls == sum(
                len(rec.proposed_tokens) for rec in res.rounds)
            assert sum(rec.accepted_count + 1 for rec in res.rounds) == res.generated

    def test_round_record_structure(self):
        target = random_tabular(4, 1, make_rng(31))
        draft = temper(target, 3.0, 0.2)
        res = speculative_decode(target, draft, [0], 100, ConstantPolicy(6),
                                 SAMPLING, make_rng(32))
        out_len = res.prompt_len
        for i, rec in enumerate(res.rounds):
            assert rec.round_index == i
            assert rec.start_len == out_len
            assert 0 <= rec.accepted_count <= len(rec.proposed_tokens)
            assert len(rec.draft_entropies) == len(rec.proposed_tokens)
            if rec.accepted_count < len(rec.proposed_tokens):
                assert rec.correction is not None and rec.bonus is None
            else:
                assert rec.bonus is not None and rec.correction is None
            # accepted prefix lands in the output verbatim
            assert (res.output_tokens[rec.start_len:
                                      rec.start_len + rec.accepted_count]
                    == rec.proposed_tokens[:rec.accepted_count])
            out_len += rec.accepted_count + 1
        assert out_len == len(res.output_tokens)

    def test_exact_horizon_and_terminal_round(self):
        target = random_tabular(4, 1, make_rng(41))
        draft = temper(target, 2.0, 0.1)
        for max_len in (5, 6, 7, 11):
            res = speculative_decode(target, draft, [0], max_len,
                                     ConstantPolicy(3), SAMPLING, make_rng(42))
            assert len(res.output_tokens) == max_len

    def test_vocab_mismatch(self):
        a = random_tabular(4, 1, make_rng(1))
        b = random_tabular(5, 1, make_rng(2))
        with pytest.raises(ValueError, match="model pair mismatch"):
            speculative_decode(a, b, [0], 10, ConstantPolicy(3), SAMPLING,
                               make_rng(3))

    def test_prompt_validation(self):
        model = random_tabular(4, 1, make_rng(1))
        with pytest.raises(ValueError, match="non-empty"):
            speculative_decode(model, model, [], 10, ConstantPolicy(3),
                               SAMPLING, make_rng(0))
        with pytest.raises(ValueError, match="max_len"):
            speculative_decode(model, model, [0, 1], 2, ConstantPolicy(3),
                               SAMPLING, make_rng(0))
        with pytest.raises(ValueError, match="out of vocab"):
            speculative_decode(model, model, [9], 10, ConstantPolicy(3),
                               SAMPLING, make_rng(0))


class TestAutoregressiveDecode:
    def test_point_mass_rows_forced_sequence(self):
        model = forced_chain([0, 2, 1], 3)
        out = autoregressive_decode(model, [0], 7, GREEDY, make_rng(0))
        assert out == [0, 2, 1, 0, 2, 1, 0]

    def test_greedy_deterministic(self):
        model = random_tabular(5, 1, make_rng(51))
        a = autoregressive_decode(model, [2], 30, GREEDY, make_rng(1))
        b = autoregressive_decode(model, [2], 30, GREEDY, make_rng(2))
        assert a == b

    def test_sampling_frequency(self):
        model = order0([0.3, 0.7])
        rng = make_rng(61)
        n = 100_000
        ones = sum(autoregressive_decode(model, [0], 2, SAMPLING, rng)[1] == 1
                   for _ in range(n))
        assert 0.694 <= ones / n <= 0.706


class TestTrailingContext:
    """Model calls see a bounded trailing window, with unchanged outputs."""

    @staticmethod
    def decode(target, draft, policy, mode, horizon, seed):
        lengths = []
        res = speculative_decode(Recording(target, lengths),
                                 Recording(draft, lengths), [0, 1], horizon,
                                 policy, mode, make_rng(seed))
        return res, lengths

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("policy_factory", [
        lambda: ConstantPolicy(5),
        lambda: HeuristicPolicy(5, DEFAULT_CAP),
        lambda: SvipPolicy(SvipConfig(h=0.6)),
    ])
    def test_bounded_and_same_as_whole_prefix(self, monkeypatch, mode,
                                              policy_factory):
        target = random_tabular(4, 2, make_rng(51))
        draft = temper(random_tabular(4, 3, make_rng(52)), 2.0, 0.1)
        width = 3  # max(target.context_order, draft.context_order)
        horizon = 1200
        res, lengths = self.decode(target, draft, policy_factory(), mode,
                                   horizon, 53)
        assert len(res.output_tokens) == horizon
        assert max(lengths) <= width + DEFAULT_CAP

        # The same decode with every model call given the whole prefix.
        monkeypatch.setattr(engine_module, "trailing_context",
                            lambda tokens, end, width: list(tokens[:end]))
        ref, ref_lengths = self.decode(target, draft, policy_factory(), mode,
                                       horizon, 53)
        assert max(ref_lengths) >= horizon - 1
        assert res.output_tokens == ref.output_tokens
        assert res.rounds == ref.rounds

    def test_order_zero_models_get_only_proposals(self):
        target = order0([0.5, 0.3, 0.2])
        draft = order0([0.2, 0.3, 0.5])
        res, lengths = self.decode(target, draft, ConstantPolicy(7), SAMPLING,
                                   1000, 54)
        assert len(res.output_tokens) == 1000
        assert max(lengths) <= 7
