"""Synthetic autoregressive model pairs with controllable target/draft discrepancy.

Every model is a ``TabularModel``: its table is checked once, when it is
constructed, and kept as one stacked array; each row is built on its first
read. Models are immutable after construction and safe to share across
concurrent decode sessions.
"""

from __future__ import annotations

from itertools import chain, islice, product, repeat, takewhile
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dist import (Distribution, Rng, checked_rows, normalize, normalize_rows,
                   unchecked_distribution)

# Reserved begin-of-sequence marker used to left-pad short contexts. It never
# appears in the output vocabulary (tokens are >= 0).
BOS = -1


def context_index(tokens: Sequence[int], end: int, vocab_size: int,
                  width: int) -> int:
    """Mixed-radix index of the last ``width`` tokens of ``tokens[:end]``.

    The radix is ``vocab_size + 1``: token t is digit t + 1, and BOS (and
    every missing leading token) is digit 0, so a context and its BOS-padded
    form share an index. Appending token t steps the index of a width-W
    window to ``(index * radix + t + 1) % radix ** W``. Tokens must lie in
    ``[BOS, vocab_size)``.
    """
    radix = vocab_size + 1
    index = 0
    for pos in range(max(end - width, 0), end):
        index = index * radix + int(tokens[pos]) + 1
    return index


def context_window(target: AutoregressiveModel,
                   draft: AutoregressiveModel | None = None) -> tuple[int, int, int]:
    """``(radix, width, span)`` of the one ``context_index`` a decoder carries
    over a model (pair): radix ``vocab_size + 1``, the widest
    ``context_order`` and ``radix ** width``. That index names the rows of
    both models, so a draft must share the target's vocab."""
    width = target.context_order
    if draft is not None:
        if draft.vocab_size != target.vocab_size:
            raise ValueError(f"model pair mismatch: target vocab {target.vocab_size}, "
                             f"draft vocab {draft.vocab_size}")
        width = max(width, draft.context_order)
    radix = target.vocab_size + 1
    return radix, width, radix ** width


def context_space(vocab_size: int, order: int) -> Iterator[tuple[int, ...]]:
    """Every reachable length-``order`` context: BOS-padded prefixes followed
    by vocab tokens, most padding first, each padding level in lexicographic
    order.

    Generators that draw one row per context from an rng rely on this order.
    """
    for pad in range(order, -1, -1):
        for tail in product(range(vocab_size), repeat=order - pad):
            yield (BOS,) * pad + tail


class AutoregressiveModel:
    """Maps a token context to a next-token Distribution.

    Implementations are pure and read only the last ``context_order`` tokens
    of the context (BOS-padded when it is shorter). ``row(index)`` is the one
    callable an implementation provides: the row of the context whose
    ``context_index`` is ``index % (vocab_size + 1) ** context_order``, so a
    decoder can carry one index over the widest window of a model pair and
    step it per token. It may be a method or any callable instance
    attribute, such as a bound dict lookup (``TabularModel``).
    ``next_distribution`` is derived from ``row``.
    """

    vocab_size: int
    context_order: int

    def row(self, index: int) -> Distribution:
        raise NotImplementedError

    def missing_row(self, context: tuple[int, ...]) -> Distribution:
        """Row of a BOS-padded context that no index names (it holds a
        token outside the vocab)."""
        raise ValueError(f"no row for context {context!r}")

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        k = self.context_order
        tail = context[max(len(context) - k, 0):]
        if all(BOS <= t < self.vocab_size for t in tail):
            return self.row(context_index(tail, len(tail), self.vocab_size, k))
        return self.missing_row((BOS,) * (k - len(tail)) + tuple(tail))


class RowMap(dict):
    """A ``TabularModel``'s rows keyed by context index, each built on its
    first read and stored under the index that was read, so every later
    read of that index is one dict hit.

    A miss resolves as ``row`` does: an index with a table row gets a
    Distribution over that row of the stack ``probs``; an index outside
    ``[0, span)`` gets the row of ``index % span``; a context without a
    row gets ``default``, or raises when there is none.

    It holds what a miss needs and nothing of its model: a model's ``row``
    is this map's bound ``__getitem__``, and no reference cycle keeps the
    model alive until a garbage-collector pass.
    """

    __slots__ = ("positions", "probs", "span", "radix", "order", "default")

    def __init__(self, positions: dict[int, int], probs: np.ndarray, vocab_size: int,
                 order: int, default: Distribution | None):
        super().__init__()
        self.positions = positions  # context index -> row of ``probs``
        self.probs = probs
        self.radix = vocab_size + 1
        self.order = order
        self.span = self.radix ** order
        self.default = default

    def __missing__(self, index: int) -> Distribution:
        k = self.positions.get(index)
        if k is not None:
            row = unchecked_distribution(self.probs[k])
        else:
            reduced = index % self.span
            if reduced != index:
                row = self[reduced]
            elif self.default is None:
                raise ValueError(
                    f"incomplete table: no row for context {self.context_of(index)!r}")
            else:
                row = self.default
        self[index] = row
        return row

    def context_of(self, index: int) -> tuple[int, ...]:
        """Inverse of ``context_index`` for ``0 <= index < span``."""
        tokens = []
        for _ in range(self.order):
            index, digit = divmod(index, self.radix)
            tokens.append(digit - 1)
        return tuple(reversed(tokens))


class TabularModel(AutoregressiveModel):
    """Explicit lookup table from length-k contexts to next-token rows.

    The table is two arrays: ``index``, the context index of each row in
    table order, and ``probs``, one read-only ``(rows, vocab_size)`` stack
    of the rows. Construction checks them and builds no Distribution.
    ``rows`` is a ``RowMap``, a read cache over the stack, and ``row`` is
    its bound ``__getitem__``: a row is built on its first read, and every
    later read of the same index is one dict lookup returning the same
    object.

    ``table`` maps context tuples to rows, which are copied into the stack
    in ``table``'s order. A context without a row gets ``default``; without
    one, the table must hold every context.
    """

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
        keys = _context_keys(chain.from_iterable(table), len(table), vocab_size,
                             context_order)
        if keys.size and (keys.min() < BOS or keys.max() >= vocab_size):
            bad = next(key for key in table if not all(BOS <= t < vocab_size for t in key))
            raise ValueError(f"invalid context {bad!r}: token out of vocab")
        if default is not None and len(default) != vocab_size:
            raise ValueError("row arity mismatch: default row")
        index = _context_indices(keys, vocab_size)
        positions = dict(zip(index.tolist(), range(len(index))))
        if default is None:
            _check_complete(keys, positions, vocab_size, context_order)
        probs = np.array([row.probs for row in table.values()], dtype=np.float64)
        self._set(vocab_size, context_order, index, positions,
                  probs.reshape(len(table), vocab_size), default)

    def _set(self, vocab_size: int, context_order: int, index: np.ndarray,
             positions: dict[int, int], probs: np.ndarray,
             default: Distribution | None) -> None:
        # Every constructor ends here, with checked arrays: also tempered
        # drafts and loaded model files.
        index.setflags(write=False)
        probs.setflags(write=False)
        self.vocab_size = vocab_size
        self.context_order = context_order
        self.index = index
        self.probs = probs
        self.rows = RowMap(positions, probs, vocab_size, context_order, default)
        self.row = self.rows.__getitem__

    @property
    def default(self) -> Distribution | None:
        return self.rows.default

    def missing_row(self, context: tuple[int, ...]) -> Distribution:
        if self.default is None:
            raise ValueError(f"incomplete table: no row for context {context!r}")
        return self.default


def _context_keys(tokens: Iterable[int], rows: int, vocab_size: int,
                  order: int) -> np.ndarray:
    """The ``(rows, order)`` array of the concatenated contexts ``tokens``;
    Python ints once an index would overflow int64."""
    dtype = np.int64 if (vocab_size + 1) ** order < 2 ** 63 else object
    return np.fromiter(tokens, dtype=dtype, count=rows * order).reshape(rows, order)


def _context_indices(keys: np.ndarray, vocab_size: int) -> np.ndarray:
    """``context_index`` of every row of ``keys`` at once."""
    radix, order = vocab_size + 1, keys.shape[1]
    powers = np.array([radix ** e for e in range(order - 1, -1, -1)], dtype=keys.dtype)
    return (keys + 1) @ powers


def _check_complete(keys, positions, vocab_size, order):
    # A context is reachable when its BOS padding all comes first; with
    # distinct keys, the table is complete when it holds as many reachable
    # contexts as there are. Otherwise walk the context space, smallest
    # padding level first, to name the first missing context, verifying
    # the levels of at most 1M contexts.
    levels = [vocab_size ** n for n in range(order + 1)]
    small = list(takewhile(lambda n: n <= 1_000_000, levels))
    bos = keys == BOS
    reachable = np.count_nonzero(~np.any(bos[:, 1:] & ~bos[:, :-1], axis=1))
    if len(small) == len(levels) and reachable == sum(levels):
        return
    for key in islice(context_space(vocab_size, order), sum(small)):
        if context_index(key, order, vocab_size, order) not in positions:
            raise ValueError(f"incomplete table: no row for context {key!r} and no default")
    if len(small) < len(levels):
        raise ValueError("incomplete table: context space too large to verify without a default row")


def tabular_from_spec(doc: dict) -> TabularModel:
    """Build a TabularModel from a JSON-compatible model document.

    Expected shape::

        {"vocab_size": int, "context_order": int,
         "rows": [{"context": [ints], "probs": [reals]}, ...],
         "default": [reals]?}

    Row probabilities are normalized; missing contexts fall back to the
    default row when one is declared.

    The rows are checked a column at a time (every context, every token,
    every probs list), then stacked; when a check fails, ``_check_rows``
    walks the rows to name the first bad field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"invalid model spec: expected an object, got {type(doc).__name__}")
    try:
        vocab_size = _check_int(doc["vocab_size"], "vocab_size")
        context_order = _check_int(doc["context_order"], "context_order")
        rows = doc["rows"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"invalid model spec: missing field {exc}") from exc
    _check_list(rows, "rows")
    keys = None
    try:
        contexts = list(map(itemgetter("context"), rows))
        weights = list(map(itemgetter("probs"), rows))
    except (KeyError, TypeError):
        pass
    else:
        if all(map(isinstance, weights, repeat(list))) and set(map(len, weights)) <= {vocab_size}:
            keys = _context_stack(contexts, vocab_size, context_order)
    if keys is None:
        _check_rows(rows, vocab_size, context_order)  # raises: a column check failed
    try:  # np.asarray(weights, dtype=np.float64), in one pass over the values
        weights = np.fromiter(chain.from_iterable(weights), np.float64,
                              len(rows) * vocab_size).reshape(len(rows), vocab_size)
    except (ValueError, TypeError):
        pass  # normalize_rows names the first bad row
    probs = normalize_rows(weights).reshape(len(rows), vocab_size)
    index = _context_indices(keys, vocab_size)
    index_list = index.tolist()
    positions = dict(zip(index_list, range(len(index_list))))
    if len(positions) < len(index_list):
        first: dict[int, int] = {}
        for i, key in enumerate(index_list):
            if first.setdefault(key, i) != i:
                raise ValueError(f"invalid model spec: rows[{i}].context: "
                                 f"duplicates rows[{first[key]}]")
    default = None
    if doc.get("default") is not None:
        _check_list(doc["default"], "default")
        if len(doc["default"]) != vocab_size:
            raise ValueError("row arity mismatch: default row")
        default = normalize(doc["default"])
    else:
        _check_complete(keys, positions, vocab_size, context_order)
    model = TabularModel.__new__(TabularModel)
    model._set(vocab_size, context_order, index, positions, probs, default)
    return model


def _context_stack(contexts: list, vocab_size: int, order: int) -> np.ndarray | None:
    """The ``(rows, order)`` token array of ``contexts``, or None unless every
    context is a list of ``order`` JSON integers in ``[BOS, vocab_size)``:
    the context checks of ``_check_rows``, a column at a time."""
    if not (all(map(isinstance, contexts, repeat(list)))
            and set(map(len, contexts)) <= {order}):
        return None
    tokens = list(chain.from_iterable(contexts))
    if not all(issubclass(t, int) and t is not bool for t in set(map(type, tokens))):
        return None
    try:
        keys = _context_keys(tokens, len(contexts), vocab_size, order)
    except OverflowError:  # past int64, so out of vocab
        return None
    if keys.size and (keys.min() < BOS or keys.max() >= vocab_size):
        return None
    return keys


def _check_rows(rows: list, vocab_size: int, context_order: int) -> None:
    """Raise the error of the first bad field of ``rows``, read row by row."""
    for i, row in enumerate(rows):
        try:
            context = row["context"]
            probs = row["probs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid model spec: rows[{i}]: {exc}") from exc
        _check_list(context, f"rows[{i}].context")
        _check_list(probs, f"rows[{i}].probs")
        if len(context) != context_order:
            raise ValueError(f"row arity mismatch: rows[{i}] context has {len(context)} tokens")
        if len(probs) != vocab_size:
            raise ValueError(f"row arity mismatch: rows[{i}] has {len(probs)} probs")
        for k, t in enumerate(context):
            if type(t) is not int:
                _check_int(t, f"rows[{i}].context[{k}]")
            if t != BOS and not 0 <= t < vocab_size:
                raise ValueError(f"invalid model spec: rows[{i}] context token {t} out of vocab")


def _check_list(value, path: str) -> None:
    if not isinstance(value, list):
        raise ValueError(
            f"invalid model spec: {path}: expected a list, got {type(value).__name__}")


def _check_int(value, path: str) -> int:
    """``value`` if it is a JSON integer: not a bool, float or string."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(
            f"invalid model spec: {path}: expected an integer, got {type(value).__name__}")
    return value


def load_corpus(path) -> list[int]:
    """Read a whitespace-separated integer token stream."""
    with open(path, "r", encoding="utf-8") as f:
        return [int(tok) for tok in f.read().split()]


def tabular_to_spec(model: TabularModel) -> dict:
    """Inverse of tabular_from_spec: a JSON-compatible model document."""
    doc = {
        "vocab_size": model.vocab_size,
        "context_order": model.context_order,
        # Index order is context order: token t is digit t + 1, BOS digit 0.
        "rows": [{"context": list(model.rows.context_of(index)), "probs": probs}
                 for index, probs in sorted(zip(model.index.tolist(), model.probs.tolist()))],
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


def temper(base: TabularModel, tau: float, eps: float = 0.0) -> TabularModel:
    """Draft derived from a base table by temperature scaling plus uniform mixing.

    row = (1 - eps) * normalize(base_row^(1/tau)) + eps * uniform, for every
    row of the base table and for its default row. tau > 1 flattens, tau < 1
    sharpens; eps > 0 guarantees full support (every probability >=
    eps / vocab_size).
    """
    if not tau > 0:
        raise ValueError("invalid temperature: tau must be positive")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    p = base.probs
    if base.default is not None:
        p = np.vstack((p, base.default.probs))
    pos = p > 0.0
    # Power in log space so extreme 1/tau cannot underflow every entry.
    logw = np.log(np.where(pos, p, 1.0)) / tau
    logw[~pos] = -np.inf
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    if eps > 0.0:
        w = (1.0 - eps) * w + eps / base.vocab_size
    w = checked_rows(w)
    n = len(base.index)
    default = unchecked_distribution(w[n]) if base.default is not None else None
    # The base's index and its default row: nothing the constructors check is new.
    draft = TabularModel.__new__(TabularModel)
    draft._set(base.vocab_size, base.context_order, base.index, base.rows.positions,
               w[:n], default)
    return draft


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
