"""Experiments and diagnostics: oracle draft lengths, accept-rate and length
statistics, entropy/KL rejection diagnostics, cost-model speedup estimation,
and the Monte Carlo output-distribution equivalence verdict.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .dist import Distribution, Rng, argmax, kl_divergence, make_rng, sample
from .engine import (DecodeMode, DecodeResult, RoundRecord,
                     speculative_decode, verify_greedy, verify_sampling)
from .models import AutoregressiveModel, trailing_context
from .policies import LengthPolicy

# Salt mixed into forked oracle rng streams so they never collide with the
# decode session stream derived from the same seed.
_ORACLE_SALT = 0x0AC1E


@dataclass
class CostModel:
    """Relative costs in target-forward units.

    r_draft is the cost of one draft forward over one target forward;
    c_verify_overhead is a fixed extra cost per verification round.
    """

    r_draft: float = 0.1
    c_verify_overhead: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.r_draft) or self.r_draft <= 0:
            raise ValueError("r_draft must be positive and finite")
        if not math.isfinite(self.c_verify_overhead) or self.c_verify_overhead < 0:
            raise ValueError("c_verify_overhead must be non-negative and finite")


def estimated_speedup(result: DecodeResult, cm: CostModel) -> float:
    """Tokens generated per unit cost, against a baseline of one target
    forward per token: N / (D * r_draft + R * (1 + overhead))."""
    return _speedup(result.generated, result.draft_forward_calls,
                    result.target_forward_calls, cm)


def _speedup(n_tokens: int, draft_calls: int, target_calls: int,
             cm: CostModel) -> float:
    cost = draft_calls * cm.r_draft + target_calls * (1.0 + cm.c_verify_overhead)
    return n_tokens / cost


def oracle_draft_length(target: AutoregressiveModel, draft: AutoregressiveModel,
                        prefix: Sequence[int], mode: DecodeMode, rng: Rng,
                        cap: int) -> int:
    """Consecutive draft tokens from ``prefix`` that verification would accept.

    Simulates drafting with per-token verification until the first rejection
    or ``cap``; under sampling the accept coins use fresh draws from ``rng``.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    greedy = mode is DecodeMode.GREEDY
    ctx = trailing_context(prefix, len(prefix),
                           max(target.context_order, draft.context_order))
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


def oracle_length_stats(target: AutoregressiveModel, draft: AutoregressiveModel,
                        prompts: Sequence[Sequence[int]], mode: DecodeMode,
                        rng: Rng, cap: int, n_runs: int):
    """Mean, variance, and histogram of oracle lengths over prompts x runs."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    lengths = []
    for prompt in prompts:
        for _ in range(n_runs):
            lengths.append(oracle_draft_length(target, draft, prompt, mode, rng, cap))
    arr = np.asarray(lengths)
    histogram = np.bincount(arr, minlength=cap + 1)
    return float(arr.mean()), float(arr.var()), histogram


def entropy_stats(records: Iterable[RoundRecord]):
    """Mean draft entropy at accepted vs first-rejected positions.

    Tokens drafted after a rejection were never verified and count toward
    neither partition. An empty partition reports None.
    """
    accepted: list[float] = []
    rejected: list[float] = []
    for rec in records:
        accepted.extend(rec.draft_entropies[:rec.accepted_count])
        if rec.accepted_count < len(rec.proposed_tokens):
            rejected.append(rec.draft_entropies[rec.accepted_count])
    acc_mean = float(np.mean(accepted)) if accepted else None
    rej_mean = float(np.mean(rejected)) if rejected else None
    return acc_mean, rej_mean


def kl_trace(target: AutoregressiveModel, draft: AutoregressiveModel,
             results: Iterable[DecodeResult], window: int) -> np.ndarray:
    """Mean KL(q||p) at rejected positions and the ``window`` positions before.

    Index 0 is the rejection position, index j the position j steps earlier in
    the same round; rounds shorter than the window contribute the positions
    they have. Entries with no contributing round are NaN. Length is always
    window + 1.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    sums = np.zeros(window + 1)
    counts = np.zeros(window + 1, dtype=int)
    width = max(target.context_order, draft.context_order)
    for result in results:
        out = result.output_tokens
        for rec in result.rounds:
            if rec.correction is None:
                continue
            reject_idx = rec.accepted_count
            prefix = trailing_context(out, rec.start_len, width)
            for j in range(window + 1):
                pos = reject_idx - j
                if pos < 0:
                    break
                ctx = prefix + rec.proposed_tokens[:pos]
                q = draft.next_distribution(ctx)
                p = target.next_distribution(ctx)
                sums[j] += kl_divergence(q, p)
                counts[j] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def sorted_logprob_profile(dist: Distribution, top_m: int) -> np.ndarray:
    """The ``top_m`` largest log probabilities in descending order."""
    if top_m > dist.probs.size:
        raise ValueError("top_m exceeds vocabulary size")
    top = np.sort(dist.probs)[::-1][:top_m]
    with np.errstate(divide="ignore"):
        return np.log(top)


@dataclass
class EquivalenceResult:
    tvd: float
    passed: bool
    threshold: float
    n_samples: int


def exact_sequence_probs(target: AutoregressiveModel, prompt: Sequence[int],
                         horizon: int) -> dict[tuple[int, ...], float]:
    """Chain-rule probability of every length-``horizon`` continuation."""
    probs: dict[tuple[int, ...], float] = {}
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


def equivalence_test(target: AutoregressiveModel, draft: AutoregressiveModel,
                     policy_factory: Callable[[], LengthPolicy],
                     prompt: Sequence[int], horizon: int, n_samples: int,
                     rng: Rng, threshold: float = 0.01,
                     mode: DecodeMode = DecodeMode.SAMPLING) -> EquivalenceResult:
    """Compare speculative decoding's output distribution to the exact target.

    Enumerates all vocab^horizon continuations for the exact chain-rule
    probabilities, runs ``n_samples`` independent decodes, and returns the
    TVD between the empirical and exact sequence distributions with a
    pass/fail verdict at ``threshold``.
    """
    if target.vocab_size ** horizon > 10_000:
        raise ValueError(
            f"state space too large: {target.vocab_size}^{horizon} sequences")
    if n_samples < 10_000:
        raise ValueError("n_samples must be >= 10000")
    exact = exact_sequence_probs(target, prompt, horizon)
    max_len = len(prompt) + horizon
    counts: Counter[tuple[int, ...]] = Counter()
    for _ in range(n_samples):
        result = speculative_decode(target, draft, prompt, max_len,
                                    policy_factory(), mode, rng)
        counts[tuple(result.output_tokens[len(prompt):])] += 1
    total = 0.0
    for seq, p_exact in exact.items():
        total += abs(counts.get(seq, 0) / n_samples - p_exact)
    tvd_estimate = 0.5 * total
    return EquivalenceResult(tvd=tvd_estimate, passed=tvd_estimate <= threshold,
                             threshold=threshold, n_samples=n_samples)


@dataclass
class ExperimentConfig:
    target: AutoregressiveModel
    draft: AutoregressiveModel
    policy_factory: Callable[[], LengthPolicy]
    policy_label: str
    mode: DecodeMode
    horizon: int  # total length cap per decode, prompt included
    prompts: Sequence[Sequence[int]]
    seeds: Sequence[int]
    cost_model: CostModel = field(default_factory=CostModel)
    oracle_cap: int = 40
    kl_window: int = 4
    label: str = ""


@dataclass
class ExperimentReport:
    """Aggregates over all (seed, prompt) decodes; every number is a pure
    function of the raw per-round records kept in ``results``."""

    label: str
    policy_label: str
    mode: str
    horizon: int
    seeds: list[int]
    accept_rate: float
    proposed_mean: float
    proposed_var: float
    accepted_mean: float
    accepted_var: float
    mean_delta_to_oracle: float
    entropy_accepted_mean: float | None
    entropy_rejected_mean: float | None
    kl_trace: list[float]
    estimated_speedup: float
    total_generated: int
    total_rounds: int
    draft_forward_calls: int
    target_forward_calls: int
    draft_probe_calls: int
    cost_model: CostModel
    results: list[DecodeResult] = field(repr=False, default_factory=list)

    def to_jsonable(self) -> dict:
        """Every field but ``results``; ``policy_label`` is written as
        ``policy`` and NaN kl_trace entries as None."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "results"}
        doc["policy"] = doc.pop("policy_label")
        doc["kl_trace"] = [None if math.isnan(v) else v for v in self.kl_trace]
        doc["cost_model"] = asdict(self.cost_model)
        return doc


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Decode every (seed, prompt) pair and aggregate the round traces.

    The per-round oracle length is re-simulated from the round-start context
    with a forked deterministic rng stream, so reports are reproducible.
    """
    results: list[DecodeResult] = []
    deltas: list[float] = []
    width = max(config.target.context_order, config.draft.context_order)
    for seed in config.seeds:
        for pi, prompt in enumerate(config.prompts):
            rng = make_rng((seed, pi))
            result = speculative_decode(config.target, config.draft, prompt,
                                        config.horizon, config.policy_factory(),
                                        config.mode, rng)
            results.append(result)
            for rec in result.rounds:
                if not rec.proposed_tokens:
                    continue
                oracle_rng = make_rng((seed, pi, rec.round_index, _ORACLE_SALT))
                oracle = oracle_draft_length(
                    config.target, config.draft,
                    trailing_context(result.output_tokens, rec.start_len, width),
                    config.mode, oracle_rng, config.oracle_cap)
                deltas.append(len(rec.proposed_tokens) - oracle)
    return summarize_experiment(config, results, deltas)


def summarize_experiment(config: ExperimentConfig, results: list[DecodeResult],
                         deltas: Sequence[float]) -> ExperimentReport:
    rounds = [rec for r in results for rec in r.rounds if rec.proposed_tokens]
    proposed = np.asarray([len(rec.proposed_tokens) for rec in rounds])
    accepted = np.asarray([rec.accepted_count for rec in rounds])
    acc_mean, rej_mean = entropy_stats(rounds)
    trace = kl_trace(config.target, config.draft, results, config.kl_window)
    n_tokens = sum(r.generated for r in results)
    draft_calls = sum(r.draft_forward_calls for r in results)
    target_calls = sum(r.target_forward_calls for r in results)
    return ExperimentReport(
        label=config.label,
        policy_label=config.policy_label,
        mode=config.mode.value,
        horizon=config.horizon,
        seeds=list(config.seeds),
        accept_rate=float(accepted.sum() / proposed.sum()) if proposed.size else 0.0,
        proposed_mean=float(proposed.mean()) if proposed.size else 0.0,
        proposed_var=float(proposed.var()) if proposed.size else 0.0,
        accepted_mean=float(accepted.mean()) if accepted.size else 0.0,
        accepted_var=float(accepted.var()) if accepted.size else 0.0,
        mean_delta_to_oracle=float(np.mean(deltas)) if len(deltas) else 0.0,
        entropy_accepted_mean=acc_mean,
        entropy_rejected_mean=rej_mean,
        kl_trace=[float(v) for v in trace],
        estimated_speedup=_speedup(n_tokens, draft_calls, target_calls,
                                   config.cost_model),
        total_generated=n_tokens,
        total_rounds=sum(len(r.rounds) for r in results),
        draft_forward_calls=draft_calls,
        target_forward_calls=target_calls,
        draft_probe_calls=sum(r.draft_probe_calls for r in results),
        cost_model=config.cost_model,
        results=results,
    )


# Columns of rounds.csv, in order; round_csv_rows yields dicts with these keys.
ROUND_CSV_FIELDS = ["decode_index", "round_index", "proposed", "accepted",
                    "correction", "bonus", "mean_entropy", "next_entropy"]


def round_csv_rows(results: Iterable[DecodeResult]):
    """One row per round, keyed by ROUND_CSV_FIELDS."""
    for di, result in enumerate(results):
        for rec in result.rounds:
            mean_h = (float(np.mean(rec.draft_entropies))
                      if rec.draft_entropies else None)
            yield {
                "decode_index": di,
                "round_index": rec.round_index,
                "proposed": len(rec.proposed_tokens),
                "accepted": rec.accepted_count,
                "correction": rec.correction,
                "bonus": rec.bonus,
                "mean_entropy": mean_h,
                "next_entropy": rec.next_entropy,
            }
