"""Synthetic autoregressive model pairs with controllable target/draft discrepancy.

Models are immutable after construction and safe to share across concurrent
decode sessions; per-context distributions are memoized internally.
"""

from __future__ import annotations

from itertools import islice, takewhile
from typing import Iterator, Sequence

import numpy as np

from .dist import Distribution, Rng, normalize, normalize_rows

# Reserved begin-of-sequence marker used to left-pad short contexts. It never
# appears in the output vocabulary (tokens are >= 0).
BOS = -1


def effective_context(context: Sequence[int], order: int) -> tuple[int, ...]:
    """Trailing ``order`` tokens of ``context``, left-padded with BOS."""
    if order == 0:
        return ()
    tail = tuple(context[-order:])
    if len(tail) < order:
        tail = (BOS,) * (order - len(tail)) + tail
    return tail


def trailing_context(tokens: Sequence[int], end: int, width: int) -> list[int]:
    """The last ``width`` tokens of ``tokens[:end]``: everything a model of
    ``context_order <= width`` reads from that prefix. ``width == 0`` gives
    an empty list."""
    return list(tokens[max(0, end - width):end])


def context_space(vocab_size: int, order: int) -> Iterator[tuple[int, ...]]:
    """Every reachable length-``order`` context: BOS-padded prefixes followed
    by vocab tokens, most padding first, each padding level in np.ndindex order.

    Generators that draw one row per context from an rng rely on this order.
    """
    for pad in range(order, -1, -1):
        for tail in np.ndindex(*([vocab_size] * (order - pad))):
            yield (BOS,) * pad + tuple(int(t) for t in tail)


class AutoregressiveModel:
    """Maps a token context to a next-token Distribution.

    Implementations are pure and read only the last ``context_order`` tokens
    of the context (BOS-padded when it is shorter): contexts that end in the
    same ``context_order`` tokens yield identical distributions of length
    ``vocab_size``. Decoders rely on this and pass a bounded trailing window
    of the output (``trailing_context``), never the whole prefix.
    """

    vocab_size: int
    context_order: int

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        raise NotImplementedError


class TabularModel(AutoregressiveModel):
    """Explicit lookup table from length-k contexts to next-token rows."""

    def __init__(self, vocab_size: int, context_order: int,
                 table: dict[tuple[int, ...], Distribution],
                 default: Distribution | None = None):
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if context_order < 0:
            raise ValueError("context_order must be non-negative")
        for key, row in table.items():
            if len(key) != context_order:
                raise ValueError(f"row arity mismatch: context {key!r}")
            if len(row) != vocab_size:
                raise ValueError(f"row arity mismatch: {len(row)} probs for context {key!r}")
        if default is not None and len(default) != vocab_size:
            raise ValueError("row arity mismatch: default row")
        if default is None:
            missing = _first_missing_context(table, vocab_size, context_order)
            if missing is not None:
                raise ValueError(f"incomplete table: no row for context {missing!r} and no default")
        self.vocab_size = vocab_size
        self.context_order = context_order
        self.table = dict(table)
        self.default = default

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        key = effective_context(context, self.context_order)
        row = self.table.get(key)
        if row is None:
            row = self.default
            if row is None:
                raise ValueError(f"incomplete table: no row for context {key!r}")
        return row


def _first_missing_context(table, vocab_size, order):
    # Padding levels come smallest first; verify those of at most 1M contexts.
    levels = [vocab_size ** n for n in range(order + 1)]
    small = list(takewhile(lambda n: n <= 1_000_000, levels))
    for key in islice(context_space(vocab_size, order), sum(small)):
        if key not in table:
            return key
    if len(small) < len(levels):
        raise ValueError("incomplete table: context space too large to verify without a default row")
    return None


def tabular_from_spec(doc: dict) -> TabularModel:
    """Build a TabularModel from a JSON-compatible model document.

    Expected shape::

        {"vocab_size": int, "context_order": int,
         "rows": [{"context": [ints], "probs": [reals]}, ...],
         "default": [reals]?}

    Row probabilities are normalized; missing contexts fall back to the
    default row when one is declared.
    """
    try:
        vocab_size = int(doc["vocab_size"])
        context_order = int(doc["context_order"])
        rows = doc["rows"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"invalid model spec: missing field {exc}") from exc
    contexts: list[tuple[int, ...]] = []
    weights = []
    for i, row in enumerate(rows):
        try:
            context = tuple(int(t) for t in row["context"])
            probs = row["probs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid model spec: rows[{i}]: {exc}") from exc
        if len(context) != context_order:
            raise ValueError(f"row arity mismatch: rows[{i}] context has {len(context)} tokens")
        if len(probs) != vocab_size:
            raise ValueError(f"row arity mismatch: rows[{i}] has {len(probs)} probs")
        for t in context:
            if t != BOS and not 0 <= t < vocab_size:
                raise ValueError(f"invalid model spec: rows[{i}] context token {t} out of vocab")
        contexts.append(context)
        weights.append(probs)
    table = dict(zip(contexts, normalize_rows(weights)))
    default = None
    if doc.get("default") is not None:
        if len(doc["default"]) != vocab_size:
            raise ValueError("row arity mismatch: default row")
        default = normalize(doc["default"])
    return TabularModel(vocab_size, context_order, table, default)


def load_corpus(path) -> list[int]:
    """Read a whitespace-separated integer token stream."""
    with open(path, "r", encoding="utf-8") as f:
        return [int(tok) for tok in f.read().split()]


def tabular_to_spec(model: TabularModel) -> dict:
    """Inverse of tabular_from_spec: a JSON-compatible model document."""
    doc = {
        "vocab_size": model.vocab_size,
        "context_order": model.context_order,
        "rows": [{"context": list(ctx), "probs": row.probs.tolist()}
                 for ctx, row in sorted(model.table.items())],
    }
    if model.default is not None:
        doc["default"] = model.default.probs.tolist()
    return doc


def train_ngram(corpus: Sequence[int], order: int, k_add: float,
                vocab_size: int) -> TabularModel:
    """Count n-grams in an integer token stream into an additively smoothed table.

    row(ctx)(x) = (count(ctx, x) + k_add) / (sum_y count(ctx, y) + k_add * vocab_size)
    for every context seen in the corpus; unseen contexts get the uniform row.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    for t in corpus:
        if not 0 <= t < vocab_size:
            raise ValueError(f"invalid corpus token: {t}")
    if k_add <= 0:
        raise ValueError("k_add must be positive")
    corpus = [int(t) for t in corpus]
    counts: dict[tuple[int, ...], np.ndarray] = {}
    k = order - 1
    for i in range(len(corpus) - k):
        ctx = tuple(corpus[i:i + k])
        if ctx not in counts:
            counts[ctx] = np.zeros(vocab_size)
        counts[ctx][corpus[i + k]] += 1.0
    table = {ctx: Distribution((c + k_add) / (c.sum() + k_add * vocab_size))
             for ctx, c in counts.items()}
    uniform = Distribution(np.full(vocab_size, 1.0 / vocab_size))
    return TabularModel(vocab_size, k, table, uniform)


class TemperedDraft(AutoregressiveModel):
    """Draft derived from a base model by temperature scaling plus uniform mixing.

    next_distribution = (1 - eps) * normalize(base_probs^(1/tau)) + eps * uniform.
    tau > 1 flattens, tau < 1 sharpens; eps > 0 guarantees full support
    (every probability >= eps / vocab_size).
    """

    def __init__(self, base: AutoregressiveModel, tau: float, eps: float = 0.0):
        if tau <= 0:
            raise ValueError("invalid temperature: tau must be positive")
        if not 0.0 <= eps < 1.0:
            raise ValueError("eps must be in [0, 1)")
        self.base = base
        self.tau = float(tau)
        self.eps = float(eps)
        self.vocab_size = base.vocab_size
        self.context_order = base.context_order
        self._cache: dict[tuple[int, ...], Distribution] = {}

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        key = effective_context(context, self.context_order)
        d = self._cache.get(key)
        if d is None:
            p = self.base.next_distribution(context).probs
            # Power in log space so extreme 1/tau cannot underflow every entry.
            w = np.zeros_like(p)
            pos = p > 0.0
            logw = np.log(p[pos]) / self.tau
            w[pos] = np.exp(logw - logw.max())
            w /= w.sum()
            if self.eps > 0.0:
                w = (1.0 - self.eps) * w + self.eps / self.vocab_size
            d = Distribution(w)
            self._cache[key] = d
        return d


def temper(base: AutoregressiveModel, tau: float, eps: float = 0.0) -> TemperedDraft:
    return TemperedDraft(base, tau, eps)


def segmented_chain_model(vocab_size: int, segment_len: int, rng: Rng, *,
                          fork_peak: float = 0.7,
                          spike_scale: float = 1e-8) -> TabularModel:
    """Chain of near-deterministic segments separated by uncertain forks.

    The model alternates confidently through tokens 1, 2, ... for
    ``segment_len - 1`` steps, then emits the boundary token 0; the row that
    follows a boundary token is an uncertain fork (one ``fork_peak`` mode,
    uniform tail). Long-form generation shows this shape: long low-entropy
    stretches punctuated by high-entropy forks, which is the regime where
    draft-length policy choices separate. Context order equals segment_len.
    """
    if vocab_size < 3:
        raise ValueError("vocab_size must be >= 3")
    if segment_len < 2:
        raise ValueError("segment_len must be >= 2")
    if not 0.0 < fork_peak < 1.0:
        raise ValueError("fork_peak must be in (0, 1)")
    order = segment_len
    table: dict[tuple[int, ...], Distribution] = {}
    for ctx in context_space(vocab_size, order):
        last = ctx[-1]
        if last == BOS or last == 0:
            row = np.full(vocab_size, (1.0 - fork_peak) / (vocab_size - 1))
            row[1 + int(rng.integers(vocab_size - 1))] = fork_peak
            table[ctx] = normalize(row)
            continue
        since_boundary = order
        for back, t in enumerate(reversed(ctx)):
            if t == 0 or t == BOS:
                since_boundary = back
                break
        if since_boundary >= segment_len - 1:
            peak = 0
        else:
            peak = 2 if last == 1 else 1
        delta = spike_scale * float(rng.uniform(0.5, 2.0))
        row = np.full(vocab_size, delta / (vocab_size - 1))
        row[peak] = 1.0 - delta
        table[ctx] = normalize(row)
    return TabularModel(vocab_size, order, table)


def random_tabular(vocab_size: int, context_order: int, rng: Rng, *,
                   alpha: float = 1.0, spiky_fraction: float = 0.0,
                   spike_scale: float = 1e-8) -> TabularModel:
    """Random tabular model with Dirichlet(alpha) rows.

    With ``spiky_fraction`` > 0, that share of rows is made near-deterministic
    (one token carries all mass up to ~spike_scale), giving the model both
    confident and diffuse contexts like a real generation chain.
    """
    table: dict[tuple[int, ...], Distribution] = {}
    for key in context_space(vocab_size, context_order):
        if spiky_fraction > 0.0 and rng.random() < spiky_fraction:
            delta = spike_scale * rng.uniform(0.5, 2.0)
            row = rng.dirichlet(np.full(vocab_size, 1.0)) * delta
            row[rng.integers(vocab_size)] += 1.0 - delta
            table[key] = normalize(row)
        else:
            table[key] = Distribution(rng.dirichlet(np.full(vocab_size, alpha)))
    return TabularModel(vocab_size, context_order, table)
