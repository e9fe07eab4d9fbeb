"""Draft-then-verify decoding: per-token Verify/Correct and the full decode loops.

The sampling variants preserve the target distribution exactly; the greedy
variants reproduce the target's greedy decode token-for-token. One decode
session is strictly sequential and owns its rng.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .dist import Distribution, Rng, argmax, entropy, residual, sample
from .models import AutoregressiveModel, trailing_context
from .policies import LengthPolicy


class DecodeMode(Enum):
    SAMPLING = "sampling"
    GREEDY = "greedy"


@dataclass
class RoundRecord:
    """Trace of one draft round.

    ``start_len`` is the output length when the round began, so the exact
    context of proposed position j is output_tokens[:start_len] +
    proposed_tokens[:j]. ``next_entropy`` is the probed next-token draft
    entropy that ended drafting (None when the round ended at a length cap).
    """

    round_index: int
    start_len: int
    proposed_tokens: list[int]
    draft_entropies: list[float]
    next_entropy: float | None
    accepted_count: int
    correction: int | None
    bonus: int | None


@dataclass
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
    q_t = q_dist.probs[token]
    if q_t <= 0.0:
        raise ValueError(f"impossible draft token: q({token}) = 0")
    return rng.random() * q_t < p_dist.probs[token]


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
    _check_prompt(prompt, max_len, target.vocab_size)
    out = list(prompt)
    while len(out) < max_len:
        d = target.next_distribution(out)
        out.append(argmax(d) if mode is DecodeMode.GREEDY else sample(d, rng))
    return out


def speculative_decode(target: AutoregressiveModel, draft: AutoregressiveModel,
                       prompt: Sequence[int], max_len: int,
                       policy: LengthPolicy, mode: DecodeMode,
                       rng: Rng) -> DecodeResult:
    """Decode with draft rounds whose length the policy controls.

    Per round: draft tokens from q while the policy continues (at least one),
    compute the target distributions for all drafted positions plus one in a
    single batched evaluation, verify left-to-right, replace the first
    rejected token with a correction, or append a bonus target token when the
    whole round is accepted. Rounds never overrun ``max_len``: drafting is
    truncated near the horizon, and when exactly one slot remains the final
    token comes from a drafting-free round (bonus only).

    Models see the output's trailing ``max(context_order)`` tokens, taken
    once per round, plus the round's proposals, so the cost of a model call
    does not grow with the output length.
    """
    if target.vocab_size != draft.vocab_size:
        raise ValueError(
            f"model pair mismatch: vocab {target.vocab_size} vs {draft.vocab_size}")
    _check_prompt(prompt, max_len, target.vocab_size)
    greedy = mode is DecodeMode.GREEDY
    width = max(target.context_order, draft.context_order)

    out = list(prompt)
    result = DecodeResult(output_tokens=out, prompt_len=len(prompt))

    while len(out) < max_len:
        start_len = len(out)
        room = max_len - start_len - 1  # proposals that can fit before the horizon
        tail = trailing_context(out, start_len, width)

        proposed: list[int] = []
        entropies: list[float] = []
        next_entropy: float | None = None
        q_dists: list[Distribution] = []

        if room > 0:
            q_cur = draft.next_distribution(tail)
            while True:
                token = argmax(q_cur) if greedy else sample(q_cur, rng)
                proposed.append(token)
                entropies.append(entropy(q_cur))
                q_dists.append(q_cur)
                if len(proposed) >= room:
                    break
                q_next = draft.next_distribution(tail + proposed)
                h_next = entropy(q_next)
                if not policy.should_continue(len(proposed), h_next):
                    next_entropy = h_next
                    result.draft_probe_calls += 1
                    break
                q_cur = q_next
            result.draft_forward_calls += len(proposed)

        # One batched target evaluation: all drafted positions plus one.
        p_dists = [target.next_distribution(tail + proposed[:j])
                   for j in range(len(proposed) + 1)]
        result.target_forward_calls += 1

        accepted = 0
        correction: int | None = None
        for j, token in enumerate(proposed):
            ok = (verify_greedy(p_dists[j], token) if greedy
                  else verify_sampling(p_dists[j], q_dists[j], token, rng))
            if ok:
                accepted += 1
            else:
                correction = (correct_greedy(p_dists[j]) if greedy
                              else correct_sampling(p_dists[j], q_dists[j], rng))
                break

        bonus: int | None = None
        out.extend(proposed[:accepted])
        if correction is not None:
            out.append(correction)
        else:
            p_last = p_dists[len(proposed)]
            bonus = argmax(p_last) if greedy else sample(p_last, rng)
            out.append(bonus)

        result.rounds.append(RoundRecord(
            round_index=len(result.rounds),
            start_len=start_len,
            proposed_tokens=proposed,
            draft_entropies=entropies,
            next_entropy=next_entropy,
            accepted_count=accepted,
            correction=correction,
            bonus=bonus,
        ))
        if proposed:
            policy.on_round_end(len(proposed), accepted, accepted == len(proposed))

    return result


def _check_prompt(prompt: Sequence[int], max_len: int, vocab_size: int) -> None:
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    if max_len <= len(prompt):
        raise ValueError(f"max_len {max_len} must exceed prompt length {len(prompt)}")
    for t in prompt:
        if not 0 <= t < vocab_size:
            raise ValueError(f"prompt token {t} out of vocab")
