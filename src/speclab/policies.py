"""Draft-length policies: constant, adaptive heuristic, and entropy-based stopping.

A policy lives inside one decode session. The engine consults
``should_continue(tokens_this_round, next_entropy)`` after each drafted token
and calls ``on_round_end`` once per round; no policy may propose more than the
hard cap (default 40) in a single round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_CAP = 40
DEFAULT_H = 0.3


class LengthPolicy:
    """Decides, inside a draft round, whether to keep drafting."""

    def should_continue(self, tokens_this_round: int, next_entropy: float) -> bool:
        raise NotImplementedError

    def on_round_end(self, proposed: int, accepted: int, all_accepted: bool) -> None:
        pass


class ConstantPolicy(LengthPolicy):
    """Fixed round length k (clamped to the hard cap); no cross-round state."""

    def __init__(self, k: int, cap: int = DEFAULT_CAP):
        if k < 1:
            raise ValueError("invalid length: k must be >= 1")
        if cap < 1:
            raise ValueError("invalid length: cap must be >= 1")
        self.k = min(k, cap)

    def should_continue(self, tokens_this_round: int, next_entropy: float) -> bool:
        return tokens_this_round < self.k


class HeuristicPolicy(LengthPolicy):
    """Adaptive baseline: +2 after fully accepted rounds, -1 otherwise.

    The running length is clamped to [1, cap]; the floor exists because a
    zero-length round would violate the engine contract.
    """

    def __init__(self, init: int = 5, cap: int = DEFAULT_CAP):
        if not 1 <= init <= cap:
            raise ValueError(f"invalid length: init must be in [1, {cap}]")
        self.cap = cap
        self.length = init

    def should_continue(self, tokens_this_round: int, next_entropy: float) -> bool:
        return tokens_this_round < self.length

    def on_round_end(self, proposed: int, accepted: int, all_accepted: bool) -> None:
        if all_accepted:
            self.length = min(self.length + 2, self.cap)
        else:
            self.length = max(self.length - 1, 1)


@dataclass
class SvipConfig:
    """Entropy-stop threshold h (on sqrt-nats) and per-round length cap."""

    h: float = DEFAULT_H
    max_len: int = DEFAULT_CAP

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("h must be non-negative")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


class SvipPolicy(LengthPolicy):
    """Stop drafting as soon as sqrt(H) of the next-token draft distribution exceeds h.

    Pure threshold rule, no cross-round state. The first token of a round is
    always drafted; the check applies to every subsequent position.
    """

    def __init__(self, cfg: SvipConfig | None = None):
        self.cfg = cfg if cfg is not None else SvipConfig()

    def should_continue(self, tokens_this_round: int, next_entropy: float) -> bool:
        if tokens_this_round >= self.cfg.max_len:
            return False
        return math.sqrt(next_entropy) <= self.cfg.h


def threshold_from_bound(h_hat: float, c: float) -> float:
    """Map an acceptance-bound cutoff h_hat and scale c to the entropy threshold.

    h = (1 - h_hat) / sqrt(c): stopping when the estimated acceptance bound
    1 - sqrt(c H) falls below h_hat is the same as stopping when sqrt(H) > h.
    """
    if c <= 0:
        raise ValueError("invalid scale: c must be positive")
    if not 0.0 <= h_hat <= 1.0:
        raise ValueError("h_hat must be in [0, 1]")
    return (1.0 - h_hat) / math.sqrt(c)
