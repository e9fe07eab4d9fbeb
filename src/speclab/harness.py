"""Experiments and diagnostics: oracle draft lengths, accept-rate and length
statistics, entropy/KL rejection diagnostics, cost-model speedup estimation,
and the Monte Carlo output-distribution equivalence verdict.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dist import (Distribution, KeyedStreams, Rng, argmax, draw_stream,
                   kl_divergence, make_rng, sample, sample_rows)
from .engine import (DecodeMode, DecodeResult, RoundRecord, autoregressive_decode,
                     speculative_decode, verify_greedy, verify_sampling)
from .models import AutoregressiveModel, context_index, context_window, prompt_index
from .policies import DEFAULT_CAP, LengthPolicy

# Salt mixed into forked oracle rng streams so they never collide with the
# decode session stream derived from the same seed.
_ORACLE_SALT = 0x0AC1E

# One global read per call, in place of an attribute lookup on the Enum.
_GREEDY = DecodeMode.GREEDY


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
    ``prefix`` is checked as a decoder checks its prompt, except that it may
    be empty: the all-BOS context.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    radix, _, span = context_window(target, draft)
    index = prompt_index(prefix, radix, span)
    greedy = mode is _GREEDY
    n = 0
    while n < cap:
        q = draft.row(index)
        token = argmax(q) if greedy else sample(q, rng)
        p = target.row(index)
        ok = verify_greedy(p, token) if greedy else verify_sampling(p, q, token, rng)
        if not ok:
            break
        index = (index * radix + token + 1) % span
        n += 1
    return n


def oracle_length_stats(target: AutoregressiveModel, draft: AutoregressiveModel,
                        prompts: Sequence[Sequence[int]], mode: DecodeMode,
                        rng: Rng, cap: int, n_runs: int):
    """Mean, variance, and histogram of oracle lengths over prompts x runs.

    The runs draw through one ``dist.draw_stream(rng)``: ``rng`` ends where
    per-call draws leave it, also when a run raises.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    with draw_stream(rng) as draws:
        lengths = [oracle_draft_length(target, draft, prompt, mode, draws, cap)
                   for prompt in prompts for _ in range(n_runs)]
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

    Each rejected round's context index is stepped once from its
    ``start_index`` to the rejected position. The sums and counts are Python
    numbers, each entry adding its terms in round order, and become arrays
    once at the end.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    radix, _, span = context_window(target, draft)
    sums = [0.0] * (window + 1)
    counts = [0] * (window + 1)
    kls: dict[int, float] = {}  # KL(q||p) by the context index naming both rows
    for result in results:
        for rec in result.rounds:
            if rec.correction is None:
                continue
            j = rec.accepted_count  # steps from context i to the rejected position
            i = rec.start_index
            for token in rec.proposed_tokens[:j + 1]:
                if j <= window:
                    kl = kls.get(i)
                    if kl is None:
                        kl = kls[i] = kl_divergence(draft.row(i), target.row(i))
                    sums[j] += kl
                    counts[j] += 1
                i = (i * radix + token + 1) % span
                j -= 1
    n = np.array(counts)
    with np.errstate(invalid="ignore"):
        return np.where(n > 0, np.array(sums) / np.maximum(n, 1), np.nan)


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
    """Chain-rule probability of every nonzero-probability length-``horizon``
    continuation, stepping one context index per token as the engine does."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    if not all(0 <= t < target.vocab_size for t in prompt):
        raise ValueError("prompt token out of vocab")
    radix, width, span = context_window(target)
    probs: dict[tuple[int, ...], float] = {}
    stack = [((), context_index(prompt, len(prompt), target.vocab_size, width), 1.0)]
    while stack:
        gen, index, pr = stack.pop()
        if len(gen) == horizon:
            probs[gen] = pr
            continue
        for t, p_t in enumerate(target.row(index).probs.tolist()):
            if p_t > 0.0:
                stack.append((gen + (t,), (index * radix + t + 1) % span, pr * p_t))
    return probs


def check_equivalence_size(vocab_size: int, horizon: int, n_samples: int) -> None:
    """Raise ``ValueError``, its message led by ``horizon:`` or ``n_samples:``,
    unless the run enumerates at most 10_000 continuations and draws at least
    10_000 decodes. Any vocab of 2 or more exceeds the limit past horizon 13
    (2 ** 14 > 10_000); the horizon bound adds only a stop for a one-token vocab."""
    if horizon > 13 or vocab_size ** horizon > 10_000:
        raise ValueError(f"horizon: state space too large ({vocab_size}^{horizon} "
                         "sequences; limit 10000)")
    if n_samples < 10_000:
        raise ValueError("n_samples: must be >= 10000")


def equivalence_test(target: AutoregressiveModel, draft: AutoregressiveModel,
                     policy_factory: Callable[[], LengthPolicy],
                     prompt: Sequence[int], horizon: int, n_samples: int,
                     rng: Rng, threshold: float = 0.01,
                     mode: DecodeMode = DecodeMode.SAMPLING) -> EquivalenceResult:
    """Compare speculative decoding's output distribution to the exact target.

    Under sampling the exact distribution is the chain-rule probability of
    every continuation, enumerated up to vocab^horizon; under greedy it is
    the target's argmax chain, one continuation with probability 1. Runs
    ``n_samples`` independent decodes and returns the TVD between the
    empirical and exact sequence distributions with a pass/fail verdict at
    ``threshold``. Sampled continuations outside the exact support count in
    full.

    The decodes draw through one ``dist.draw_stream(rng)``: ``rng`` ends
    where per-call draws leave it, also when a decode raises.
    """
    check_equivalence_size(target.vocab_size, horizon, n_samples)
    max_len = len(prompt) + horizon
    if mode is _GREEDY:  # draws nothing from rng
        chain = autoregressive_decode(target, prompt, max_len, mode, rng)
        exact = {tuple(chain[len(prompt):]): 1.0}
    else:
        exact = exact_sequence_probs(target, prompt, horizon)
    counts: Counter[tuple[int, ...]] = Counter()
    with draw_stream(rng) as draws:
        for _ in range(n_samples):
            result = speculative_decode(target, draft, prompt, max_len,
                                        policy_factory(), mode, draws)
            counts[tuple(result.output_tokens[len(prompt):])] += 1
    total = sum(c for seq, c in counts.items() if seq not in exact) / n_samples
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
    oracle_cap: int = DEFAULT_CAP
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

    Each round that proposed tokens is re-simulated by ``oracle_lengths``, in
    one batch, from its record's ``start_index``; under sampling with the
    stream of ``make_rng((seed, pi, round_index, _ORACLE_SALT))``, its key
    read from the record, so reports are reproducible. The keys are gathered
    as one flat list of ints. They reach ``KeyedStreams`` as one ``(n, 4)``
    uint32 array when every seed fits in 32 bits, else regrouped into
    tuples. A greedy oracle draws nothing and gets no streams.
    """
    results: list[DecodeResult] = []
    keys: list[int] = []  # (seed, pi, round_index, _ORACLE_SALT) per round, flat
    starts: list[int] = []
    for seed, pi, result in seeded_decodes(config):
        for rec in result.rounds:
            if rec.proposed_tokens:
                keys += seed, pi, rec.round_index, _ORACLE_SALT
                starts.append(rec.start_index)
        results.append(result)
    streams = None
    if config.mode is not _GREEDY:
        if all(0 <= seed <= 0xFFFF_FFFF for seed in config.seeds):
            streams = KeyedStreams(np.array(keys, np.uint32).reshape(-1, 4))
        else:
            streams = KeyedStreams(list(zip(*[iter(keys)] * 4)))
    oracle = oracle_lengths(config.target, config.draft, starts, config.mode,
                            streams, config.oracle_cap)
    return summarize_experiment(config, results, oracle)


def oracle_lengths(target: AutoregressiveModel, draft: AutoregressiveModel,
                   starts: Sequence[int], mode: DecodeMode,
                   streams: KeyedStreams | None, cap: int) -> np.ndarray:
    """``oracle_draft_length`` of many rounds at once, one lane per round.

    Lane k starts at the context index ``starts[k]`` over the pair's widest
    window and, under sampling, draws from lane k of ``streams`` (greedy
    reads no streams). At each step every live lane draws its sample
    uniform and then its coin, picks the draft token as ``sample`` would,
    accepts iff ``coin * q_t < p_t``, and drops out at its first rejection
    or at ``cap``. The rows of each context a lane reaches are read once,
    through ``row``, and stacked; nothing fills their memos. A lane carries
    its row in the stacks and steps through ``after``, which names the row a
    token leads to once some lane has taken that step.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    radix, _, span = context_window(target, draft)
    greedy = mode is _GREEDY
    vocab = target.vocab_size
    contexts: list[int] = []  # the context index of each row in the stacks
    row_of: dict[int, int] = {}

    def row(index: int) -> int:
        r = row_of.get(index)
        if r is None:
            r = row_of[index] = len(contexts)
            contexts.append(index)
        return r

    rows = np.fromiter(map(row, starts), dtype=np.intp, count=len(starts))
    lanes = np.arange(rows.size)
    lengths = np.full(rows.size, cap, dtype=np.int64)
    # Per stacked row: the draft and target probs, under sampling the draft's
    # cumsum, and the row reached by each token.
    q = p = cdf = np.empty((0, vocab))
    after = np.empty((0, vocab), dtype=np.intp)
    for step in range(cap):
        if not lanes.size:
            break
        if len(contexts) > len(after):
            fresh = contexts[len(after):]
            q_new = np.array([draft.row(i).probs for i in fresh])
            q = np.concatenate((q, q_new))
            p = np.concatenate((p, np.array([target.row(i).probs for i in fresh])))
            if not greedy:
                cdf = np.concatenate((cdf, np.cumsum(q_new, axis=1)))
            after = np.concatenate((after, np.full((len(fresh), vocab), -1)))
        if greedy:
            token = np.argmax(q[rows], axis=1)
            ok = np.argmax(p[rows], axis=1) == token
        else:
            token = sample_rows(q, cdf, rows, streams.random())
            ok = streams.random() * q[rows, token] < p[rows, token]
            streams.keep(ok)
        lengths[lanes[~ok]] = step
        lanes, rows, token = lanes[ok], rows[ok], token[ok]
        new = after[rows, token] < 0
        if new.any():
            for edge in set((rows[new] * vocab + token[new]).tolist()):
                r, t = divmod(edge, vocab)
                after[r, t] = row((contexts[r] * radix + t + 1) % span)
        rows = after[rows, token]
    return lengths


def seeded_decodes(config: ExperimentConfig) -> Iterator[tuple[int, int, DecodeResult]]:
    """Yield ``(seed, pi, result)`` for every prompt under every seed, seeded by
    the key ``(seed, pi)``; ``speculative_decode`` is resolved in this module at
    each call, so patching ``harness.speculative_decode`` sees every decode."""
    for seed in config.seeds:
        for pi, prompt in enumerate(config.prompts):
            yield seed, pi, speculative_decode(
                config.target, config.draft, prompt, config.horizon,
                config.policy_factory(), config.mode, make_rng((seed, pi)))


def summarize_experiment(config: ExperimentConfig, results: list[DecodeResult],
                         oracle: Sequence[int]) -> ExperimentReport:
    """Aggregate ``results``; ``oracle`` holds the oracle length of each round
    that proposed tokens, in decode and round order."""
    rounds = [rec for r in results for rec in r.rounds if rec.proposed_tokens]
    proposed = np.asarray([len(rec.proposed_tokens) for rec in rounds])
    accepted = np.asarray([rec.accepted_count for rec in rounds])
    deltas = proposed - np.asarray(oracle)
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
        mean_delta_to_oracle=float(np.mean(deltas)) if deltas.size else 0.0,
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


# Columns of rounds.csv, in order; round_csv_columns returns them under these names.
ROUND_CSV_FIELDS = ["decode_index", "round_index", "proposed", "accepted",
                    "correction", "bonus", "mean_entropy", "next_entropy"]


def round_csv_columns(results: Iterable[DecodeResult]) -> dict[str, list]:
    """rounds.csv as columns keyed by ROUND_CSV_FIELDS, one entry per round:
    the decode's position in ``results``, then the round's own fields, its
    proposed length and its mean draft entropy (None for an empty round)."""
    rounds: list[RoundRecord] = []
    decode_index: list[int] = []
    for di, result in enumerate(results):
        rounds += result.rounds
        decode_index += [di] * len(result.rounds)
    return {
        "decode_index": decode_index,
        "round_index": [rec.round_index for rec in rounds],
        "proposed": [len(rec.proposed_tokens) for rec in rounds],
        "accepted": [rec.accepted_count for rec in rounds],
        "correction": [rec.correction for rec in rounds],
        "bonus": [rec.bonus for rec in rounds],
        "mean_entropy": _row_means([rec.draft_entropies for rec in rounds]),
        "next_entropy": [rec.next_entropy for rec in rounds],
    }


def _row_means(rows: Sequence[Sequence[float]]) -> list[float | None]:
    """``float(np.mean(row))`` of each row, None for an empty one, with one
    ``mean(axis=1)`` per distinct row length instead of one call per row.
    Each length's rows are read by ``np.fromiter`` into the ``(n, L)``
    float64 stack that ``np.mean`` would build from them, and numpy sums each
    row of it with the loop it sums the row alone with, so every value is
    bit-identical (a test pins this)."""
    by_len: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if row:
            by_len.setdefault(len(row), []).append(i)
    means: list[float | None] = [None] * len(rows)
    for length, idx in by_len.items():
        stack = np.fromiter(chain.from_iterable(map(rows.__getitem__, idx)),
                            np.float64, len(idx) * length)
        for i, m in zip(idx, stack.reshape(len(idx), length).mean(axis=1).tolist()):
            means[i] = m
    return means
