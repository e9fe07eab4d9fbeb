"""Draft-then-verify decoding: per-token Verify/Correct and the full decode loops.

The sampling variants preserve the target distribution exactly; the greedy
variants reproduce the target's greedy decode token-for-token. One decode
session is strictly sequential and owns its rng.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .dist import (BLOCK, Distribution, Rng, Uniforms, argmax, entropy,
                   residual, rewindable, sample)
from .models import AutoregressiveModel, context_window, prompt_index
from .policies import LengthPolicy


class DecodeMode(Enum):
    SAMPLING = "sampling"
    GREEDY = "greedy"


# One global read per decode, in place of an attribute lookup on the Enum.
_GREEDY = DecodeMode.GREEDY


@dataclass(slots=True)
class RoundRecord:
    """Trace of one draft round.

    ``start_len`` is the output length when the round began, so the exact
    context of proposed position j is output_tokens[:start_len] +
    proposed_tokens[:j]; ``start_index`` is the ``context_index`` of that
    start over the pair's widest window. ``next_entropy`` is the probed
    next-token draft entropy at which the policy stopped drafting, its own
    length cap included; it is None when the horizon cut drafting short or
    the round is bonus-only.
    """

    round_index: int
    start_len: int
    start_index: int
    proposed_tokens: list[int]
    draft_entropies: list[float]
    next_entropy: float | None
    accepted_count: int
    correction: int | None
    bonus: int | None


@dataclass(slots=True)
class DecodeResult:
    output_tokens: list[int]
    prompt_len: int
    rounds: list[RoundRecord] = field(default_factory=list)
    target_forward_calls: int = 0
    draft_forward_calls: int = 0
    # Next-token distribution probes consumed only by the length policy
    # (the stop check), accounted separately from drafting forwards.
    draft_probe_calls: int = 0

    @property
    def generated(self) -> int:
        return len(self.output_tokens) - self.prompt_len


def verify_sampling(p_dist: Distribution, q_dist: Distribution, token: int,
                    rng: Rng) -> bool:
    """Accept the draft token with probability min(1, p(token)/q(token))."""
    q_t = (q_dist._list or q_dist.probs_list())[token]
    if q_t <= 0.0:
        raise ValueError(f"impossible draft token: q({token}) = 0")
    return rng.random() * q_t < (p_dist._list or p_dist.probs_list())[token]


def verify_greedy(p_dist: Distribution, token: int) -> bool:
    """Accept iff the token is the target's argmax (ties break to index 0)."""
    return argmax(p_dist) == token


def correct_sampling(p_dist: Distribution, q_dist: Distribution, rng: Rng) -> int:
    """Replacement token on rejection, sampled from the residual of (p - q)."""
    return sample(residual(p_dist, q_dist), rng)


def correct_greedy(p_dist: Distribution) -> int:
    return argmax(p_dist)


def autoregressive_decode(target: AutoregressiveModel, prompt: Sequence[int],
                          max_len: int, mode: DecodeMode, rng: Rng) -> list[int]:
    """Target-model-only baseline: one token at a time up to ``max_len``."""
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    if max_len <= len(prompt):
        raise ValueError(f"max_len {max_len} must exceed prompt length {len(prompt)}")
    radix, _, span = context_window(target)
    index = prompt_index(prompt, radix, span)
    greedy = mode is _GREEDY
    row = target.row
    out = list(prompt)
    while len(out) < max_len:
        d = row(index)
        token = argmax(d) if greedy else sample(d, rng)
        out.append(token)
        index = (index * radix + token + 1) % span
    return out


def speculative_decode(target: AutoregressiveModel, draft: AutoregressiveModel,
                       prompt: Sequence[int], max_len: int,
                       policy: LengthPolicy, mode: DecodeMode,
                       rng: Rng) -> DecodeResult:
    """Decode with draft rounds whose length the policy controls.

    Per round: draft tokens from q while the policy continues (at least one),
    verify left-to-right against the target distributions, replace the first
    rejected token with a correction, or append a bonus target token when the
    whole round is accepted. Rounds never overrun ``max_len``: drafting is
    truncated near the horizon, and when exactly one slot remains the final
    token comes from a drafting-free round (bonus only).

    A target row is looked up only when verification reaches its position
    (plus the bonus row after a fully accepted round), but every round is
    charged as one batched target forward over all drafted positions plus
    one, which is what a real target model runs: ``target_forward_calls`` is
    the number of rounds.

    A round holds one ``context_index`` of the trailing ``max(context_order)``
    tokens, stepped per proposal, then again from the round's start per
    accepted token, so a model call costs the same at any output length.

    Sampling takes one ``rng.random()`` per draft sample, accept test,
    correction and bonus. A sampling decode with at least ``BLOCK`` tokens
    to go over a ``rewindable`` generator draws through a ``Uniforms``
    stream, closed when the decode returns or raises: the draws, and where
    ``rng`` ends, are those of per-call draws. Unlike ``dist.draw_stream``,
    a shorter decode draws per call.
    """
    radix, _, span = context_window(target, draft)
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    if max_len <= len(prompt):
        raise ValueError(f"max_len {max_len} must exceed prompt length {len(prompt)}")
    index = prompt_index(prompt, radix, span)
    greedy = mode is _GREEDY
    draft_row, target_row = draft.row, target.row
    should_continue, on_round_end = policy.should_continue, policy.on_round_end

    out = list(prompt)
    n_out = len(out)
    rounds: list[RoundRecord] = []
    draft_calls = probe_calls = 0
    stream = None
    if not greedy and max_len - n_out >= BLOCK and rewindable(rng):
        rng = stream = Uniforms(rng)
    try:
        while n_out < max_len:
            start = index
            room = max_len - n_out - 1  # proposals that can fit before the horizon

            proposed: list[int] = []
            entropies: list[float] = []
            next_entropy: float | None = None
            q_dists: list[Distribution] = []
            n = 0
            if room > 0:
                q_cur = draft_row(index)
                h_cur = entropy(q_cur)
                while True:
                    token = argmax(q_cur) if greedy else sample(q_cur, rng)
                    proposed.append(token)
                    entropies.append(h_cur)
                    q_dists.append(q_cur)
                    n += 1
                    if n >= room:
                        break
                    # The probed row is drafted next, with the entropy just read.
                    index = (index * radix + token + 1) % span
                    q_cur = draft_row(index)
                    h_cur = entropy(q_cur)
                    if not should_continue(n, h_cur):
                        next_entropy = h_cur
                        probe_calls += 1
                        break
                draft_calls += n

            # Target rows are read as verification steps the index from the start.
            index = start
            accepted = n
            correction: int | None = None
            bonus: int | None = None
            for j, token in enumerate(proposed):
                p_j = target_row(index)
                if not (verify_greedy(p_j, token) if greedy
                        else verify_sampling(p_j, q_dists[j], token, rng)):
                    accepted = j
                    last = correction = (correct_greedy(p_j) if greedy
                                         else correct_sampling(p_j, q_dists[j], rng))
                    break
                index = (index * radix + token + 1) % span
            else:
                p_last = target_row(index)
                last = bonus = argmax(p_last) if greedy else sample(p_last, rng)
            out += proposed[:accepted]
            out.append(last)
            index = (index * radix + last + 1) % span

            record = RoundRecord(len(rounds), n_out, start, proposed, entropies,
                                 next_entropy, accepted, correction, bonus)
            rounds.append(record)
            n_out += accepted + 1
            if n:
                on_round_end(record)
    finally:
        if stream is not None:
            stream.close()

    return DecodeResult(out, len(prompt), rounds, len(rounds), draft_calls,
                        probe_calls)
