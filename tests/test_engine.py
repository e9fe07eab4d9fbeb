"""Verify/Correct primitives and the decode loops."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclab.engine
from speclab.bounds import acceptance_rate
from speclab.dist import (BLOCK, Distribution, argmax, entropy, make_rng,
                          normalize, residual, sample)
from speclab.engine import (DecodeMode, DecodeResult, RoundRecord,
                            autoregressive_decode, correct_greedy,
                            correct_sampling, speculative_decode,
                            verify_greedy, verify_sampling)
from speclab.models import (AutoregressiveModel, TabularModel, context_index,
                            context_indices, context_space, context_window,
                            prompt_index, random_tabular, tabular_from_spec,
                            temper)
from speclab.policies import (DEFAULT_CAP, ConstantPolicy, HeuristicPolicy,
                              LengthPolicy, SvipConfig, SvipPolicy)
from test_dist import generator

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
    """Delegates to ``model`` and records every row index it is asked for."""

    def __init__(self, model, indices):
        self.model = model
        self.vocab_size = model.vocab_size
        self.context_order = model.context_order
        self.indices = indices

    def row(self, index):
        self.indices.append(index)
        return self.model.row(index)


def reference_decode(target, draft, prompt, max_len, policy, mode, rng):
    """``speculative_decode`` as a loop that hands every model call the whole
    prefix (``next_distribution(out + proposed[:j])``); each record's
    ``start_index`` is the ``context_index`` of its start in the output."""
    greedy = mode is GREEDY
    width = max(target.context_order, draft.context_order)
    out = list(prompt)
    result = DecodeResult(output_tokens=out, prompt_len=len(prompt))
    while len(out) < max_len:
        start_len = len(out)
        room = max_len - start_len - 1
        proposed, entropies, q_dists = [], [], []
        next_entropy = None
        if room > 0:
            q_cur = draft.next_distribution(out)
            while True:
                token = argmax(q_cur) if greedy else sample(q_cur, rng)
                proposed.append(token)
                entropies.append(entropy(q_cur))
                q_dists.append(q_cur)
                if len(proposed) >= room:
                    break
                q_next = draft.next_distribution(out + proposed)
                h_next = entropy(q_next)
                if not policy.should_continue(len(proposed), h_next):
                    next_entropy = h_next
                    result.draft_probe_calls += 1
                    break
                q_cur = q_next
            result.draft_forward_calls += len(proposed)
        p_dists = [target.next_distribution(out + proposed[:j])
                   for j in range(len(proposed) + 1)]
        result.target_forward_calls += 1
        accepted, correction, bonus = 0, None, None
        for j, token in enumerate(proposed):
            ok = (verify_greedy(p_dists[j], token) if greedy
                  else verify_sampling(p_dists[j], q_dists[j], token, rng))
            if not ok:
                correction = (correct_greedy(p_dists[j]) if greedy
                              else correct_sampling(p_dists[j], q_dists[j], rng))
                break
            accepted += 1
        out.extend(proposed[:accepted])
        if correction is not None:
            out.append(correction)
        else:
            p_last = p_dists[len(proposed)]
            bonus = argmax(p_last) if greedy else sample(p_last, rng)
            out.append(bonus)
        result.rounds.append(RoundRecord(
            round_index=len(result.rounds), start_len=start_len,
            start_index=context_index(out, start_len, target.vocab_size, width),
            proposed_tokens=proposed, draft_entropies=entropies,
            next_entropy=next_entropy, accepted_count=accepted,
            correction=correction, bonus=bonus))
        if proposed:
            policy.on_round_end(result.rounds[-1])
    return result


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


def reference_verify(p_dist, q_dist, token, rng):
    """``verify_sampling`` reading numpy scalars from ``probs``."""
    q_t = q_dist.probs[token]
    if q_t <= 0.0:
        raise ValueError(f"impossible draft token: q({token}) = 0")
    return rng.random() * q_t < p_dist.probs[token]


def random_row(gen, v, zero_fraction):
    """A Dirichlet row with about ``zero_fraction`` of its entries zeroed."""
    w = gen.dirichlet(np.ones(v))
    w[gen.random(v) < zero_fraction] = 0.0
    w[gen.integers(v)] += 1e-3  # at least one entry keeps mass
    return normalize(w)


def near(d, gen, scale):
    """A row within about ``scale`` of ``d`` (p ≈ q), zeros kept at zero."""
    return normalize(d.probs * (1.0 + scale * gen.standard_normal(d.probs.size)))


class TestListReads:
    """``verify_sampling`` reads q(token) and p(token) from the memoised
    ``probs_list``: the same values as the numpy reads, so the same accept
    decisions from a generator in the same state."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_decisions_as_numpy_reads(self, seed):
        gen = make_rng(seed)
        rng, ref_rng = make_rng((seed, 1)), make_rng((seed, 1))
        decisions = []
        for _ in range(400):
            v = int(gen.integers(2, 9))
            q = random_row(gen, v, 0.3)
            kind = int(gen.integers(4))
            p = (q if kind == 0 else near(q, gen, 1e-15) if kind == 1
                 else near(q, gen, 1e-9) if kind == 2 else random_row(gen, v, 0.3))
            for token in np.flatnonzero(q.probs).tolist():
                got = verify_sampling(p, q, token, rng)
                assert got == reference_verify(p, q, token, ref_rng)
                decisions.append(got)
            assert p.probs_list() == p.probs.tolist()
            assert q.probs_list() == q.probs.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert 0 < sum(decisions) < len(decisions)


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

    def test_sampling_degenerate_samples_p(self):
        # p == q leaves no residual mass: the correction is a draw from p.
        d = Distribution([0.3, 0.5, 0.2])
        for seed in range(20):
            assert correct_sampling(d, d, make_rng(seed)) == sample(d, make_rng(seed))

    def test_sampling_decode_with_draft_equal_to_target_never_raises(self):
        """Draws within 2**-50 of 1 make ``u * q(x) < p(x)`` fail by roundoff
        when q is p, or differs from it by roundoff (``temper`` at tau 1):
        the residual then has no mass, and the correction samples p."""

        class NearOne:
            def __init__(self, seed):
                self.gen = make_rng(seed)

            def random(self):
                return 1.0 - self.gen.random() * 2.0 ** -50

        corrections = 0
        for seed in range(30):
            target = random_tabular(4, 2, make_rng(seed), alpha=0.5)
            for draft in (target, temper(target, 1.0, 0.0)):
                for horizon in (40, 200):  # duck-typed: per-call draws at both
                    res = speculative_decode(target, draft, [1], horizon,
                                             ConstantPolicy(4), SAMPLING, NearOne(seed))
                    assert len(res.output_tokens) == horizon
                    for r in res.rounds:
                        if r.correction is not None:
                            corrections += 1
                            index = r.start_index
                            for t in r.proposed_tokens[:r.accepted_count]:
                                index = (index * 5 + t + 1) % 25
                            assert target.row(index).probs[r.correction] > 0.0
        assert corrections > 0

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


def reference_check_prompt(prompt, max_len, vocab_size):
    """The decoders' prompt check as it was before ``prompt_index`` took
    over the vocab check: its errors and their order."""
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    if max_len <= len(prompt):
        raise ValueError(f"max_len {max_len} must exceed prompt length {len(prompt)}")
    for t in prompt:
        if not 0 <= t < vocab_size:
            raise ValueError(f"prompt token {t} out of vocab")


def error_of(fn, *args):
    """The message of the ValueError that ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@functools.cache
def shared_tabular(vocab, order):
    return random_tabular(vocab, order, make_rng(100 * vocab + order))


class TestPromptIndex:
    """One pass checks a prompt and builds the decode's start index: the
    index is ``context_index`` of the whole prompt over the pair's window,
    and a bad input raises the same error, in the same order, as the
    check it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_same_index_and_errors_as_the_two_pass_reference(self, data):
        vocab = data.draw(st.integers(1, 5), label="vocab")
        # One draft in four has another vocab: a pair mismatch.
        draft_vocab = data.draw(st.sampled_from([vocab] * 3 + [vocab % 5 + 1]),
                                label="draft vocab")
        target = shared_tabular(vocab, data.draw(st.integers(0, 4), label="target order"))
        draft = shared_tabular(draft_vocab, data.draw(st.integers(0, 4), label="draft order"))
        # Prompts up to 12 tokens outrun the widest window (4). Up to two
        # positions get a token out of the vocab, on either side.
        n = data.draw(st.integers(0, 12), label="prompt length")
        prompt = data.draw(st.lists(st.integers(0, vocab - 1), min_size=n, max_size=n),
                           label="prompt")
        for t in data.draw(st.lists(st.sampled_from([-2, -1, vocab, vocab + 1]),
                                    max_size=2 if n else 0), label="bad tokens"):
            prompt[data.draw(st.integers(0, n - 1), label="bad position")] = t
        as_type = data.draw(st.sampled_from([int, np.int64, np.int32]), label="type")
        prompt = [as_type(t) for t in prompt]
        max_len = n + data.draw(st.sampled_from([1, 3, 0, -1]), label="room")

        def reference_speculative():
            context_window(target, draft)
            reference_check_prompt(prompt, max_len, vocab)

        def reference_autoregressive():
            reference_check_prompt(prompt, max_len, vocab)
            context_window(target)

        want = error_of(reference_speculative)
        assert error_of(speculative_decode, target, draft, prompt, max_len,
                        ConstantPolicy(2), SAMPLING, make_rng(0)) == want
        assert (error_of(autoregressive_decode, target, prompt, max_len, SAMPLING,
                         make_rng(0)) == error_of(reference_autoregressive))

        radix = vocab + 1
        width = max(target.context_order, draft.context_order)
        bad = [t for t in prompt if not 0 <= t < vocab]
        if bad:
            with pytest.raises(ValueError, match=rf"^prompt token {bad[0]} out of vocab$"):
                prompt_index(prompt, radix, radix ** width)
            return
        index = prompt_index(prompt, radix, radix ** width)
        assert type(index) is int
        assert index == context_index(prompt, len(prompt), vocab, width)
        if want is None:
            res = speculative_decode(target, draft, prompt, max_len,
                                     ConstantPolicy(2), SAMPLING, make_rng(0))
            assert res.rounds[0].start_index == index


# Hooks the controls and the tracer patch on ``speclab.engine``.
HOOKS = ("sample", "entropy", "argmax", "verify_sampling", "verify_greedy",
         "correct_sampling", "correct_greedy", "residual")


def hook_calls(results, mode):
    """Calls of each hook that decodes with these results make, every one
    resolved through ``speclab.engine``: a draft token, bonus and (through
    ``correct_sampling``) correction each sample once; greedy ``verify`` and
    ``correct`` each read the argmax; every drafted row and every probe reads
    one entropy."""
    rounds = [rec for res in results for rec in res.rounds]
    drafted = sum(len(rec.proposed_tokens) for rec in rounds)
    bonuses = sum(rec.bonus is not None for rec in rounds)
    corrections = sum(rec.correction is not None for rec in rounds)
    verified = sum(rec.accepted_count for rec in rounds) + corrections
    calls = dict.fromkeys(HOOKS, 0)
    calls["entropy"] = sum(res.draft_forward_calls + res.draft_probe_calls
                           for res in results)
    if mode is GREEDY:
        calls.update(argmax=drafted + bonuses + verified + corrections,
                     verify_greedy=verified, correct_greedy=corrections)
    else:
        calls.update(sample=drafted + bonuses + corrections, verify_sampling=verified,
                     correct_sampling=corrections, residual=corrections)
    return calls


class TestHookContract:
    """A decode resolves every hook through ``speclab.engine`` on each
    call: a counting pass-through patched over each one sees every call
    its mode makes and leaves the output as it was. A hook inlined into the
    decode loop, even at one call site, fails here."""

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("horizon", [3, 200])
    def test_every_hook_call_goes_through_the_module(self, monkeypatch, mode, horizon):
        target = random_tabular(4, 2, make_rng(81), spiky_fraction=0.3)
        # An unrelated draft disagrees with the target's argmax, so greedy
        # rounds reject too.
        draft = random_tabular(4, 1, make_rng(82))
        factories = [lambda: ConstantPolicy(3), lambda: HeuristicPolicy(2),
                     lambda: SvipPolicy(SvipConfig(h=0.6))]

        def decodes():
            rng = make_rng(83)
            return [speculative_decode(target, draft, [0, 1], 2 + horizon,
                                       factories[i % 3](), mode, rng)
                    for i in range(30)]

        want = decodes()
        calls = dict.fromkeys(HOOKS, 0)
        for name in HOOKS:
            def counting(*args, _name=name, _hook=getattr(speclab.engine, name)):
                calls[_name] += 1
                return _hook(*args)
            monkeypatch.setattr(speclab.engine, name, counting)
        assert decodes() == want
        assert calls == hook_calls(want, mode)
        used = {name for name, n in calls.items() if n}
        assert used == ({"argmax", "entropy", "verify_greedy", "correct_greedy"}
                        if mode is GREEDY else
                        {"sample", "entropy", "verify_sampling", "correct_sampling",
                         "residual"})


class CallLog:
    """One log, in call order, of the row reads of both models, every hook
    call on ``speclab.engine`` and the policy's calls, each entry a
    ``(side, name, row index or None)``. Entropy, ``should_continue`` and a
    hook whose first argument is a draft row are draft-side; every other
    hook call is target-side. ``on_round_end`` has no side and closes a
    round."""

    def __init__(self, monkeypatch):
        self.entries = []
        self.draft_rows = set()  # ids of the draft rows handed out
        for name in HOOKS:
            monkeypatch.setattr(speclab.engine, name,
                                self.hook(name, getattr(speclab.engine, name)))

    def hook(self, name, fn):
        def logged(*args):
            draft_side = name == "entropy" or id(args[0]) in self.draft_rows
            self.entries.append(("draft" if draft_side else "target", name, None))
            return fn(*args)
        return logged

    def model(self, base, side):
        log = self

        class Logged(AutoregressiveModel):
            vocab_size, context_order = base.vocab_size, base.context_order

            def row(self, index):
                d = base.row(index)
                log.entries.append((side, "row", index))
                if side == "draft":
                    log.draft_rows.add(id(d))
                return d

        return Logged()

    def policy(self, base):
        entries = self.entries

        class Logged(LengthPolicy):
            def should_continue(self, n, h):
                entries.append(("draft", "should_continue", None))
                return base.should_continue(n, h)

            def on_round_end(self, record):
                entries.append((None, "on_round_end", None))
                base.on_round_end(record)

        return Logged()

    def rounds(self):
        """The entries split into rounds: at each ``on_round_end``, and a
        final bonus-only round after the last."""
        rounds, current = [], []
        for entry in self.entries:
            if entry[1] == "on_round_end":
                rounds.append(current)
                current = []
            else:
                current.append(entry)
        return rounds + [current] if current else rounds


class TestRoundCallOrder:
    """In every round all draft-side calls come before the first target row
    read, the draft rows are read at the round's drafted positions and the
    target rows in position order, accepted positions plus one."""

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("horizon", [3, 200])
    @pytest.mark.parametrize("policy_factory", [
        lambda: ConstantPolicy(3),
        lambda: HeuristicPolicy(2),
        lambda: SvipPolicy(SvipConfig(h=0.6)),
    ], ids=["constant", "heuristic", "svip"])
    def test_draft_calls_then_target_rows_in_order(self, monkeypatch, mode,
                                                    horizon, policy_factory):
        target = random_tabular(4, 2, make_rng(81), spiky_fraction=0.3)
        draft = random_tabular(4, 1, make_rng(82))  # rejects under greedy too
        log = CallLog(monkeypatch)
        logged_target, logged_draft = log.model(target, "target"), log.model(draft, "draft")
        seen = set()
        for k in range(10 if horizon == 3 else 3):
            ref = reference_decode(target, draft, [0, 1], 2 + horizon,
                                   policy_factory(), mode, make_rng((84, k)))
            log.entries.clear()
            res = speculative_decode(logged_target, logged_draft, [0, 1], 2 + horizon,
                                     log.policy(policy_factory()), mode, make_rng((84, k)))
            assert res == ref
            rounds = log.rounds()
            assert len(rounds) == len(res.rounds)
            out = res.output_tokens
            for rec, calls in zip(res.rounds, rounds):
                sides = [side for side, _, _ in calls]
                first = sides.index("target")
                assert set(sides[first:]) == {"target"}
                drafted = out[:rec.start_len] + rec.proposed_tokens
                draft_reads = [i for side, name, i in calls if (side, name) == ("draft", "row")]
                assert len(draft_reads) == (len(rec.proposed_tokens)
                                            + (rec.next_entropy is not None))
                assert draft_reads == [context_index(drafted, rec.start_len + j, 4, 2)
                                       for j in range(len(draft_reads))]
                target_reads = [i for side, name, i in calls if (side, name) == ("target", "row")]
                assert target_reads == [context_index(out, rec.start_len + j, 4, 2)
                                        for j in range(rec.accepted_count + 1)]
                seen.add("bonus" if rec.bonus is not None else "correction")
        assert seen == {"bonus", "correction"}


class TestExpectedRoundLength:
    """Leviathan et al. (arXiv 2211.17192), eq. 1: when every position is
    accepted with the same rate alpha, a round that proposes k tokens yields
    (1 - alpha^(k+1)) / (1 - alpha) tokens in expectation."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_constant_k_matches_closed_form(self, k):
        target = order0([0.5, 0.3, 0.15, 0.05])
        draft = temper(target, 2.0, 0.1)
        alpha = acceptance_rate(target.next_distribution([]),
                                draft.next_distribution([]))
        r = speculative_decode(target, draft, [0], 20_000, ConstantPolicy(k),
                               SAMPLING, make_rng(100 + k))
        tokens = np.array([rec.accepted_count + 1 for rec in r.rounds
                           if len(rec.proposed_tokens) == k])
        assert tokens.size > 2000
        expected = (1 - alpha ** (k + 1)) / (1 - alpha)
        se = tokens.std(ddof=1) / math.sqrt(tokens.size)
        assert abs(tokens.mean() - expected) <= 4 * se


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
    """Model calls get a bounded row index, with the outputs of whole-prefix
    lookups."""

    @staticmethod
    def decode(target, draft, policy, mode, horizon, seed):
        indices = []
        res = speculative_decode(Recording(target, indices),
                                 Recording(draft, indices), [0, 1], horizon,
                                 policy, mode, make_rng(seed))
        return res, indices

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("policy_factory", [
        lambda: ConstantPolicy(5),
        lambda: HeuristicPolicy(5, DEFAULT_CAP),
        lambda: SvipPolicy(SvipConfig(h=0.6)),
    ])
    def test_bounded_and_same_as_whole_prefix(self, mode, policy_factory):
        target = random_tabular(4, 2, make_rng(51))
        draft = temper(random_tabular(4, 3, make_rng(52)), 2.0, 0.1)
        span = 5 ** 3  # radix vocab + 1, width max(context_order)
        horizon = 1200
        res, indices = self.decode(target, draft, policy_factory(), mode,
                                   horizon, 53)
        assert len(res.output_tokens) == horizon
        assert 0 <= min(indices) and max(indices) < span

        ref = reference_decode(target, draft, [0, 1], horizon,
                               policy_factory(), mode, make_rng(53))
        assert res.output_tokens == ref.output_tokens
        assert res.rounds == ref.rounds
        assert res == ref

        # Every round, the final bonus-only one too, records the index of
        # its start context over the widest window.
        out = res.output_tokens
        assert [rec.start_index for rec in res.rounds] == [
            context_index(out, rec.start_len, 4, 3) for rec in res.rounds]

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    def test_bonus_only_round_records_its_start(self, mode):
        target = random_tabular(4, 2, make_rng(51))
        draft = temper(random_tabular(4, 3, make_rng(52)), 2.0, 0.1)
        prompt = [3, 0, 2, 1]
        res = speculative_decode(target, draft, prompt, len(prompt) + 1,
                                 ConstantPolicy(5), mode, make_rng(53))
        [rec] = res.rounds
        assert rec.proposed_tokens == [] and rec.bonus is not None
        assert rec.start_index == context_index(prompt, len(prompt), 4, 3)

    def test_order_zero_models_get_only_proposals(self):
        target = order0([0.5, 0.3, 0.2])
        draft = order0([0.2, 0.3, 0.5])
        res, indices = self.decode(target, draft, ConstantPolicy(7), SAMPLING,
                                   1000, 54)
        assert len(res.output_tokens) == 1000
        assert set(indices) == {0}  # span 4 ** 0: one context
        assert res == reference_decode(target, draft, [0, 1], 1000,
                                       ConstantPolicy(7), SAMPLING, make_rng(54))


class TestLazyTargetRows:
    """Target rows are looked up only as verification reaches them, plus the
    bonus row, and each round is still charged one batched target forward."""

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("policy_factory", [
        lambda: ConstantPolicy(4),
        lambda: HeuristicPolicy(),
    ])
    def test_reads_accepted_plus_one_rows_per_round(self, mode, policy_factory):
        # An unrelated draft: many rejections, some fully accepted rounds.
        target = random_tabular(4, 2, make_rng(61))
        draft = random_tabular(4, 2, make_rng(63))
        width, horizon = 2, 300
        reads = []
        res = speculative_decode(Recording(target, reads), draft, [0, 1],
                                 horizon, policy_factory(), mode, make_rng(62))
        out = res.output_tokens
        # Rejected at position j: rows 0..j. Fully accepted: every drafted
        # row plus the bonus row. Either way, accepted_count + 1 rows, at the
        # contexts the output holds.
        want = [context_index(out, rec.start_len + j, target.vocab_size, width)
                for rec in res.rounds for j in range(rec.accepted_count + 1)]
        assert reads == want
        assert res.target_forward_calls == len(res.rounds)
        rejected = [rec for rec in res.rounds if rec.correction is not None]
        full = [rec for rec in res.rounds
                if rec.proposed_tokens and rec.correction is None]
        assert rejected and full
        assert any(rec.accepted_count + 1 < len(rec.proposed_tokens)
                   for rec in rejected)  # some rows were never read
        ref = reference_decode(target, draft, [0, 1], horizon,
                               policy_factory(), mode, make_rng(62))
        assert res == ref


class TestEntropyReads:
    """A drafted row's entropy is read once: the round's first draft row,
    then each probed row, which is also the next row drafted."""

    @pytest.mark.parametrize("mode", [SAMPLING, GREEDY])
    @pytest.mark.parametrize("policy_factory", [
        lambda: ConstantPolicy(5, 40),
        lambda: HeuristicPolicy(5, 40),
        lambda: SvipPolicy(SvipConfig(h=0.85, max_len=40)),
    ])
    def test_one_call_per_draft_row_read(self, monkeypatch, mode, policy_factory):
        calls = []
        monkeypatch.setattr(speclab.engine, "entropy",
                            lambda d: calls.append(d) or entropy(d))
        root = Path(__file__).resolve().parents[1]
        target = tabular_from_spec(json.loads(
            (root / "configs" / "segmented_target.json").read_text()))
        draft = temper(target, 2.0, 0.2)
        reads = []
        res = speculative_decode(target, Recording(draft, reads), [1], 600,
                                 policy_factory(), mode, make_rng(11))
        drafted = [rec for rec in res.rounds if rec.proposed_tokens]
        probes = sum(len(rec.proposed_tokens) - 1 + (rec.next_entropy is not None)
                     for rec in drafted)
        assert len(calls) == len(drafted) + probes == len(reads)
        assert len(calls) == res.draft_forward_calls + res.draft_probe_calls
        assert res.draft_probe_calls > 0
        assert res == reference_decode(target, draft, [1], 600, policy_factory(),
                                       mode, make_rng(11))


def assert_same_draws(target, draft, policy_factory, horizons, kind, seed):
    """Decodes in sequence on one shared generator equal ``reference_decode``
    on another, per-call generator, and leave the two in the same state.
    Each fills the horizon after the prompt it keeps, and its counters add
    up over its rounds."""
    rng, ref_rng = generator(kind, seed), generator(kind, seed)
    prompt = [0, 1]
    for horizon in horizons:
        max_len = len(prompt) + horizon
        res = speculative_decode(target, draft, prompt, max_len,
                                 policy_factory(), SAMPLING, rng)
        ref = reference_decode(target, draft, prompt, max_len,
                               policy_factory(), SAMPLING, ref_rng)
        assert res == ref
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
        assert len(res.output_tokens) == max_len
        assert res.output_tokens[:len(prompt)] == prompt
        assert res.generated == sum(r.accepted_count + 1 for r in res.rounds)
        assert res.target_forward_calls == len(res.rounds)
        assert res.draft_forward_calls == sum(len(r.proposed_tokens) for r in res.rounds)


class FailingRows(AutoregressiveModel):
    """Delegates to ``model`` until its ``fail_at``-th row read, which raises."""

    def __init__(self, model, fail_at):
        self.model, self.left = model, fail_at
        self.vocab_size = model.vocab_size
        self.context_order = model.context_order

    def row(self, index):
        self.left -= 1
        if self.left == 0:
            raise LookupError("row read failed")
        return self.model.row(index)


class PerCall:
    """Hands out ``rng.random()`` one call at a time: not ``rewindable``, so
    a decode draws per call from the generator it wraps."""

    def __init__(self, rng):
        self.rng = rng

    def random(self):
        return self.rng.random()


class TestDrawStream:
    """Sampling decodes with ``BLOCK`` or more tokens to go over a PCG64
    fetch uniforms in blocks; the tokens, the records and where the
    generator ends, also when the decode raises, are those of one
    ``rng.random()`` call per draw."""

    @pytest.mark.parametrize("kind", ["pcg64", "mt19937", "pcg64-half"])
    @pytest.mark.parametrize("horizon", [3, BLOCK - 1, BLOCK, BLOCK + 1, 200, 1200])
    @pytest.mark.parametrize("policy_factory", [
        lambda: ConstantPolicy(5),
        lambda: HeuristicPolicy(5, DEFAULT_CAP),
        lambda: SvipPolicy(SvipConfig(h=0.6)),
    ], ids=["constant", "heuristic", "svip"])
    def test_same_as_per_call_draws(self, policy_factory, horizon, kind):
        target = random_tabular(4, 2, make_rng(71), spiky_fraction=0.3)
        draft = temper(target, 2.0, 0.1)
        assert_same_draws(target, draft, policy_factory, [horizon] * 3, kind, 72)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_pairs(self, data):
        vocab = data.draw(st.integers(2, 5), label="vocab")
        order = data.draw(st.integers(0, 2), label="order")
        gap = data.draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0]), label="gap")
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        keys = list(context_space(vocab, order))
        index = context_indices(keys, vocab, order)

        def row():  # zero-mass entries, at least one positive
            w = rng.dirichlet(np.ones(vocab)) * (rng.random(vocab) < 0.6)
            w[rng.integers(vocab)] += 0.5
            return normalize(w).probs

        rows = np.array([row() for _ in keys])
        target = TabularModel(vocab, order, index, rows)
        # gap 0 drafts with the target itself, 1e-6 with a near-identical
        # table, 1 with a table drawn apart from the target.
        draft = target if gap == 0.0 else TabularModel(vocab, order, index, np.array([
            normalize((1.0 - gap) * p + gap * row()).probs for p in rows]))
        policy_factory = data.draw(st.sampled_from([
            lambda: ConstantPolicy(3),
            lambda: HeuristicPolicy(2, DEFAULT_CAP),
            lambda: SvipPolicy(SvipConfig(h=0.5)),
        ]), label="policy")
        # Horizons of 1-4 tokens cut every round short; longer ones draw
        # through the block stream.
        horizons = data.draw(st.lists(st.one_of(st.integers(1, 4),
                                                st.integers(BLOCK - 4, 2 * BLOCK + 8)),
                                      min_size=1, max_size=3), label="horizons")
        assert_same_draws(target, draft, policy_factory, horizons,
                          data.draw(st.sampled_from(["pcg64", "mt19937"]), label="kind"),
                          data.draw(st.integers(0, 1000), label="rng seed"))

    @pytest.mark.parametrize("kind", ["pcg64", "mt19937", "pcg64-half"])
    @pytest.mark.parametrize("fail_at", [1, 2, 7, 40, 151])
    @pytest.mark.parametrize("failing", ["target", "draft"])
    def test_decode_that_raises(self, failing, fail_at, kind):
        """A decode whose ``fail_at``-th row read raises leaves the generator
        past the draws it made, no further."""
        target = random_tabular(4, 2, make_rng(71), spiky_fraction=0.3)
        draft = temper(target, 2.0, 0.1)
        rng, ref_rng = generator(kind, 73), generator(kind, 73)
        for draws in (rng, PerCall(ref_rng)):
            pair = [target, draft]
            k = failing == "draft"
            pair[k] = FailingRows(pair[k], fail_at)
            with pytest.raises(LookupError):
                speculative_decode(*pair, [0, 1], 202, ConstantPolicy(5),
                                   SAMPLING, draws)
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
