"""Draft-length policies: constant, heuristic, entropy-based stopping."""

import math

import pytest

from speclab.dist import entropy, make_rng, sample
from speclab.engine import DecodeMode, speculative_decode
from speclab.models import random_tabular, temper
from speclab.policies import (ConstantPolicy, HeuristicPolicy, SvipConfig,
                              SvipPolicy, threshold_from_bound)


def simulate_round_lengths(policy, entropies_by_position, room=1000):
    """Drive the should_continue contract directly."""
    j = 0
    while j < room:
        j += 1
        if j >= len(entropies_by_position):
            break
        if not policy.should_continue(j, entropies_by_position[j]):
            break
    return j


class TestConstantPolicy:
    def test_round_length_is_k(self):
        policy = ConstantPolicy(5)
        lengths = simulate_round_lengths(policy, [0.0] * 100)
        assert lengths == 5

    def test_single_token_lookahead(self):
        policy = ConstantPolicy(1)
        assert not policy.should_continue(1, 0.0)

    def test_cap_dominates(self):
        policy = ConstantPolicy(50, cap=40)
        assert policy.should_continue(39, 0.0)
        assert not policy.should_continue(40, 0.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="invalid length"):
            ConstantPolicy(0)

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            ConstantPolicy(5, cap=0)

    def test_stateless_across_rounds(self):
        policy = ConstantPolicy(3)
        policy.on_round_end(3, 1, False)
        assert policy.should_continue(2, 9.9)
        assert not policy.should_continue(3, 0.0)

    def test_engine_round_lengths_are_k_except_truncation(self):
        target = random_tabular(5, 1, make_rng(71))
        draft = temper(target, 2.0, 0.1)
        res = speculative_decode(target, draft, [0], 97, ConstantPolicy(4),
                                 DecodeMode.SAMPLING, make_rng(72))
        for rec in res.rounds:
            if not rec.proposed_tokens:
                continue
            room = 97 - rec.start_len - 1
            assert len(rec.proposed_tokens) == min(4, room)


class TestHeuristicPolicy:
    def test_grows_by_two_on_full_acceptance(self):
        policy = HeuristicPolicy(5, 40)
        policy.on_round_end(5, 5, True)
        assert policy.length == 7

    def test_shrinks_by_one_on_rejection(self):
        policy = HeuristicPolicy(5, 40)
        policy.on_round_end(5, 3, False)
        assert policy.length == 4

    def test_floor_at_one(self):
        policy = HeuristicPolicy(1, 40)
        policy.on_round_end(1, 0, False)
        assert policy.length == 1

    def test_cap(self):
        policy = HeuristicPolicy(39, 40)
        policy.on_round_end(39, 39, True)
        assert policy.length == 40

    def test_invalid_init(self):
        with pytest.raises(ValueError, match="invalid length"):
            HeuristicPolicy(0, 40)
        with pytest.raises(ValueError, match="invalid length"):
            HeuristicPolicy(41, 40)

    def test_trajectory_reproducible_from_outcomes(self):
        target = random_tabular(5, 1, make_rng(5))
        draft = temper(target, 2.5, 0.15)
        res = speculative_decode(target, draft, [0], 300,
                                 HeuristicPolicy(5, 40),
                                 DecodeMode.SAMPLING, make_rng(6))
        expected = 5
        for rec in res.rounds:
            if not rec.proposed_tokens:
                continue
            room = 300 - rec.start_len - 1
            assert len(rec.proposed_tokens) == min(expected, room)
            if rec.accepted_count == len(rec.proposed_tokens):
                expected = min(expected + 2, 40)
            else:
                expected = max(expected - 1, 1)


class TestSvipPolicy:
    def test_continues_below_threshold(self):
        policy = SvipPolicy(SvipConfig(h=0.3))
        assert policy.should_continue(1, 0.04)  # sqrt = 0.2

    def test_stops_above_threshold(self):
        policy = SvipPolicy(SvipConfig(h=0.3))
        assert not policy.should_continue(1, 0.25)  # sqrt = 0.5

    def test_zero_threshold_stops_immediately(self):
        policy = SvipPolicy(SvipConfig(h=0.0))
        assert not policy.should_continue(1, 1e-9)
        assert policy.should_continue(1, 0.0)

    def test_cap_stops_even_when_confident(self):
        policy = SvipPolicy(SvipConfig(h=10.0, max_len=4))
        assert policy.should_continue(3, 0.0)
        assert not policy.should_continue(4, 0.0)

    def test_no_cross_round_state(self):
        policy = SvipPolicy(SvipConfig(h=0.5))
        policy.on_round_end(3, 0, False)
        assert policy.should_continue(1, 0.2)

    def test_stop_contract_in_decodes(self):
        target = random_tabular(5, 1, make_rng(7), alpha=0.3,
                                spiky_fraction=0.5)
        draft = temper(target, 1.5, 0.05)
        h = 0.8
        res = speculative_decode(target, draft, [0], 200,
                                 SvipPolicy(SvipConfig(h=h)),
                                 DecodeMode.SAMPLING, make_rng(8))
        for rec in res.rounds:
            for ent in rec.draft_entropies[1:]:
                assert math.sqrt(ent) <= h
            room = 200 - rec.start_len - 1
            if rec.proposed_tokens and len(rec.proposed_tokens) < min(40, room):
                assert rec.next_entropy is not None
                assert math.sqrt(rec.next_entropy) > h

    def test_lowering_h_never_lengthens_a_round(self):
        # drafting-only simulation: with a shared seed and prefix, the
        # proposal stream is identical until the earlier stop triggers
        target = random_tabular(6, 1, make_rng(9), alpha=0.4,
                                spiky_fraction=0.4)
        draft = temper(target, 2.0, 0.1)
        hs = [0.2, 0.4, 0.6, 0.9, 1.3]
        for seed in range(30):
            lengths = []
            for h in hs:
                rng = make_rng(seed)
                ctx = [int(seed % 6)]
                policy = SvipPolicy(SvipConfig(h=h, max_len=30))
                j = 0
                while True:
                    d = draft.next_distribution(ctx)
                    ctx.append(sample(d, rng))
                    j += 1
                    nxt = entropy(draft.next_distribution(ctx))
                    if not policy.should_continue(j, nxt):
                        break
                lengths.append(j)
            assert lengths == sorted(lengths)


class TestThresholdFromBound:
    def test_full_confidence_requirement(self):
        assert threshold_from_bound(1.0, 0.5) == 0.0

    def test_hand_values(self):
        assert threshold_from_bound(0.5, 0.25) == pytest.approx(1.0, abs=1e-15)
        assert threshold_from_bound(0.88, 0.16) == pytest.approx(0.3, abs=1e-15)

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="invalid scale"):
            threshold_from_bound(0.5, 0.0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            threshold_from_bound(1.5, 0.5)
