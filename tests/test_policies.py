"""Draft-length policies: constant, heuristic, entropy-based stopping."""

import math

import numpy as np
import pytest

from speclab.dist import entropy, make_rng, sample
from speclab.engine import DecodeMode, RoundRecord, speculative_decode
from speclab.models import TabularModel, random_tabular, temper
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


def round_record(proposed, accepted):
    """A record of a round that proposed ``proposed`` tokens and accepted
    ``accepted`` of them, closed by a bonus when it accepted all."""
    full = accepted == proposed
    return RoundRecord(0, 1, 0, [0] * proposed, [0.0] * proposed, None, accepted,
                       None if full else 0, 0 if full else None)


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
        policy.on_round_end(round_record(3, 1))
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
        policy.on_round_end(round_record(5, 5))
        assert policy.length == 7

    def test_shrinks_by_one_on_rejection(self):
        policy = HeuristicPolicy(5, 40)
        policy.on_round_end(round_record(5, 3))
        assert policy.length == 4

    def test_floor_at_one(self):
        policy = HeuristicPolicy(1, 40)
        policy.on_round_end(round_record(1, 0))
        assert policy.length == 1

    def test_cap(self):
        policy = HeuristicPolicy(39, 40)
        policy.on_round_end(round_record(39, 39))
        assert policy.length == 40

    def test_invalid_init(self):
        with pytest.raises(ValueError, match="invalid length"):
            HeuristicPolicy(0, 40)
        with pytest.raises(ValueError, match="invalid length"):
            HeuristicPolicy(41, 40)

    def test_invalid_cap_named(self):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            HeuristicPolicy(5, cap=0)

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

    @pytest.mark.parametrize("h", [-0.1, float("nan")])
    def test_invalid_threshold_rejected(self, h):
        with pytest.raises(ValueError, match="h must be non-negative"):
            SvipConfig(h=h)

    def test_no_cross_round_state(self):
        policy = SvipPolicy(SvipConfig(h=0.5))
        policy.on_round_end(round_record(3, 0))
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


class TestRoundEndContract:
    @pytest.mark.parametrize("mode", list(DecodeMode))
    @pytest.mark.parametrize("make", [lambda: ConstantPolicy(3), HeuristicPolicy,
                                      lambda: SvipPolicy(SvipConfig(0.85))],
                             ids=["constant", "heuristic", "svip"])
    def test_receives_each_drafted_rounds_record(self, make, mode):
        # Half the draft's rows come from an unrelated table, so that greedy
        # rounds are rejected too.
        target = random_tabular(5, 2, make_rng(31), spiky_fraction=0.5)
        other = random_tabular(5, 2, make_rng(131), spiky_fraction=0.5)
        half = (np.arange(len(target.index)) % 2 == 0)[:, None]
        draft = temper(TabularModel(5, 2, target.index,
                                    np.where(half, target.probs, other.probs)), 2.0, 0.15)
        policy = make()
        seen = []
        update = policy.on_round_end

        def on_round_end(record):
            seen.append(record)
            update(record)

        policy.on_round_end = on_round_end
        res = speculative_decode(target, draft, [0], 300, policy, mode, make_rng(32))
        want = [rec for rec in res.rounds if rec.proposed_tokens]
        assert len(seen) == len(want)
        assert all(got is rec for got, rec in zip(seen, want))
        full = [rec.accepted_count == len(rec.proposed_tokens) for rec in want]
        assert any(full) and not all(full)
        if isinstance(policy, HeuristicPolicy):
            length = 5
            for ok in full:
                length = min(length + 2, 40) if ok else max(length - 1, 1)
            assert policy.length == length


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
