"""Synthetic autoregressive model pairs with controllable target/draft discrepancy.

Every model is a ``TabularModel``: its table is checked once, when it is
constructed, and kept as one stacked array; each row is built on its first
read. Models are immutable after construction and safe to share across
concurrent decode sessions.
"""

from __future__ import annotations

from itertools import chain, product, repeat, takewhile
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dist import (Distribution, Rng, checked_rows, normalize, normalize_rows,
                   row_entropies, unchecked_distribution)

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
    for token in tokens[max(end - width, 0):end]:
        index = index * radix + int(token) + 1
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
        order = draft.context_order
        if order > width:
            width = order
    radix = target.vocab_size + 1
    return radix, width, radix ** width


def prompt_index(prompt: Iterable[int], radix: int, span: int) -> int:
    """Check a prompt and return its ``context_index`` over the window
    ``(radix, _, span)`` of ``context_window``, in one pass.

    Every token must lie in ``[0, radix - 1)``; the first one outside raises
    ``ValueError`` naming it. The index steps per token as a decoder steps
    it, ``(index * radix + t + 1) % span``, so an empty prompt is the
    all-BOS context, index 0.
    """
    vocab_size = radix - 1
    index = 0
    for t in prompt:
        if not 0 <= t < vocab_size:
            raise ValueError(f"prompt token {t} out of vocab")
        index = (index * radix + int(t) + 1) % span
    return index


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

    A miss resolves as ``row`` does: an index outside ``[0, span)`` gets the
    row of ``index % span``; an index with a table row gets a Distribution
    over that row of the stack ``probs``; a context without a row gets
    ``default``, or raises when there is none. The table row is found by
    binary search over ``index``, which is sorted, and is the row of
    ``probs`` at the same position.

    The first table-row miss computes every row's entropy and cdf at once
    (``row_entropies`` and a stacked ``cumsum``, the values ``entropy`` and
    ``Distribution.cdf`` give), and each table row is built with both set.

    It holds what a miss needs and nothing of its model: a model's ``row``
    is this map's bound ``__getitem__``, and no reference cycle keeps the
    model alive until a garbage-collector pass.
    """

    __slots__ = ("index", "probs", "span", "radix", "order", "default",
                 "entropies", "cdfs")

    def __init__(self, index: np.ndarray, probs: np.ndarray, vocab_size: int,
                 order: int, default: Distribution | None):
        super().__init__()
        self.index = index
        self.probs = probs
        self.radix = vocab_size + 1
        self.order = order
        self.span = self.radix ** order
        self.default = default
        self.entropies = self.cdfs = None  # of every table row, on the first miss

    def __missing__(self, index: int) -> Distribution:
        keys = self.index
        if not 0 <= index < self.span:
            row = self[index % self.span]
        elif (k := keys.searchsorted(index)) < len(keys) and keys[k] == index:
            if self.cdfs is None:
                self.entropies = row_entropies(self.probs)
                self.cdfs = np.cumsum(self.probs, axis=1)
            row = unchecked_distribution(self.probs[k])
            row._entropy = self.entropies.item(k)
            row._cdf = self.cdfs[k].tolist()
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

    The table is two arrays: ``index``, the ``context_index`` of each row
    (``context_indices`` turns context tuples into it), and ``probs``, the
    ``(rows, vocab_size)`` stack of the rows; both are read-only, and the
    rows are stored in ascending ``index`` order whatever order they were
    given in. The constructor is the one place a table is checked: the
    vocab and order, the stack's shape, every stacked row a distribution,
    every index in ``[0, span)`` and named once, and, without a ``default``
    row, a row for every reachable context. It builds no Distribution.

    ``rows`` is a ``RowMap``, a read cache over the stack, and ``row`` is
    its bound ``__getitem__``: a row is found by binary search over
    ``index`` and built on its first read, and every later read of the
    same index is one dict lookup returning the same object.
    """

    def __init__(self, vocab_size: int, context_order: int, index: np.ndarray,
                 probs: np.ndarray, default: Distribution | None = None):
        _check_shape(vocab_size, context_order)
        index = np.asarray(index)
        probs = np.asarray(probs, dtype=np.float64)
        if index.ndim != 1 or index.dtype.kind not in "iuO":
            raise ValueError("invalid index: expected a 1-d array of context indices")
        if probs.shape != (len(index), vocab_size):
            raise ValueError(f"row arity mismatch: a stack of shape {probs.shape} "
                             f"for {len(index)} rows of {vocab_size} probs")
        checked_rows(probs)
        span = (vocab_size + 1) ** context_order
        if len(index) and (index.min() < 0 or index.max() >= span):
            bad = next(i for i in index.tolist() if not 0 <= i < span)
            raise ValueError(f"invalid index: context index {bad} outside [0, {span})")
        if not (index[1:] > index[:-1]).all():
            rank = np.argsort(index, kind="stable")
            keys = index[rank]
            same = np.flatnonzero(keys[1:] == keys[:-1])
            if len(same):  # the first row, in the order given, whose context came before
                i = rank[same + 1].min()
                raise ValueError(f"invalid model spec: rows[{i}].context: "
                                 f"duplicates rows[{rank[keys.searchsorted(index[i])]}]")
            index, probs = keys, probs[rank]
            probs.setflags(write=False)
        rows = RowMap(index, probs, vocab_size, context_order, default)
        if default is None:
            _check_complete(rows)
        elif len(default) != vocab_size:
            raise ValueError("row arity mismatch: default row")
        index.setflags(write=False)
        self.vocab_size = vocab_size
        self.context_order = context_order
        self.index = index
        self.probs = probs
        self.rows = rows
        self.row = rows.__getitem__

    @property
    def default(self) -> Distribution | None:
        return self.rows.default

    def missing_row(self, context: tuple[int, ...]) -> Distribution:
        if self.default is None:
            raise ValueError(f"incomplete table: no row for context {context!r}")
        return self.default


def _check_shape(vocab_size: int, context_order: int) -> None:
    if vocab_size < 1:
        raise ValueError("vocab_size must be positive")
    if context_order < 0:
        raise ValueError("context_order must be non-negative")


def context_indices(contexts: Iterable[Sequence[int]], vocab_size: int,
                    order: int) -> np.ndarray:
    """``context_index`` of every length-``order`` context of ``contexts`` at
    once, as the ``index`` of a ``TabularModel`` with those rows; Python ints
    once an index would overflow int64. Raises unless every context has
    ``order`` tokens in ``[BOS, vocab_size)``."""
    _check_shape(vocab_size, order)
    contexts = list(contexts)
    if not set(map(len, contexts)) <= {order}:
        bad = next(key for key in contexts if len(key) != order)
        raise ValueError(f"row arity mismatch: context {tuple(bad)!r}")
    powers = _place_values(vocab_size + 1, order)
    keys = np.fromiter(chain.from_iterable(contexts), dtype=powers.dtype,
                       count=len(contexts) * order).reshape(len(contexts), order)
    if keys.size and (keys.min() < BOS or keys.max() >= vocab_size):
        bad = next(key for key in contexts if not all(BOS <= t < vocab_size for t in key))
        raise ValueError(f"invalid context {tuple(bad)!r}: token out of vocab")
    return (keys + 1) @ powers


def _place_values(radix: int, order: int) -> np.ndarray:
    """The weight ``radix ** e`` of each token digit of a context index, most
    significant first; Python ints once an index would overflow int64."""
    return np.array([radix ** e for e in range(order - 1, -1, -1)],
                    dtype=np.int64 if radix ** order < 2 ** 63 else object)


def _check_complete(rows: RowMap) -> None:
    # A context is reachable when its BOS padding all comes first. The
    # reachable indices of n tokens are those of n - 1 tokens with one more
    # token digit (1 to vocab_size) appended, each level in context_space
    # order; the table is complete when it holds them all. Only the levels
    # of at most 1M contexts are built, and the first one missing is named.
    radix, order = rows.radix, rows.order
    levels = [(radix - 1) ** n for n in range(order + 1)]
    small = len(list(takewhile(lambda n: n <= 1_000_000, levels)))
    level = reachable = np.zeros(1, dtype=_place_values(radix, order).dtype)
    for _ in range(small - 1):
        level = (level[:, None] * radix + np.arange(1, radix)).ravel()
        reachable = np.concatenate((reachable, level))
    missing = np.flatnonzero(~np.isin(reachable, rows.index))
    if len(missing):
        key = rows.context_of(int(reachable[missing[0]]))
        raise ValueError(f"incomplete table: no row for context {key!r} and no default")
    if small < len(levels):
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
    every probs list), then stacked and handed to the ``TabularModel``
    constructor, which checks the table; when a column check fails,
    ``_check_rows`` walks the rows to name the first bad field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"invalid model spec: expected an object, got {type(doc).__name__}")
    try:
        vocab_size = _check_int(doc["vocab_size"], "vocab_size")
        context_order = _check_int(doc["context_order"], "context_order")
        rows = doc["rows"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"invalid model spec: missing field {exc}") from exc
    _check_shape(vocab_size, context_order)  # before the rows are read against them
    _check_list(rows, "rows")
    index = None
    try:
        contexts = list(map(itemgetter("context"), rows))
        weights = list(map(itemgetter("probs"), rows))
    except (KeyError, TypeError):
        pass
    else:
        if all(map(isinstance, weights, repeat(list))) and set(map(len, weights)) <= {vocab_size}:
            index = _context_stack(contexts, vocab_size, context_order)
    if index is None:
        _check_rows(rows, vocab_size, context_order)  # raises: a column check failed
    try:  # np.asarray(weights, dtype=np.float64), in one pass over the values
        weights = np.fromiter(chain.from_iterable(weights), np.float64,
                              len(rows) * vocab_size).reshape(len(rows), vocab_size)
    except (ValueError, TypeError):
        pass  # normalize_rows names the first bad row
    probs = normalize_rows(weights).reshape(len(rows), vocab_size)
    default = None
    if doc.get("default") is not None:
        _check_list(doc["default"], "default")
        if len(doc["default"]) != vocab_size:
            raise ValueError("row arity mismatch: default row")
        default = normalize(doc["default"])
    return TabularModel(vocab_size, context_order, index, probs, default)


def _context_stack(contexts: list, vocab_size: int, order: int) -> np.ndarray | None:
    """``context_indices`` of ``contexts``, or None unless every context is a
    list of ``order`` JSON integers in ``[BOS, vocab_size)``: the context
    checks of ``_check_rows``, a column at a time."""
    if not all(map(isinstance, contexts, repeat(list))):
        return None
    if not all(issubclass(t, int) and t is not bool
               for t in set(map(type, chain.from_iterable(contexts)))):
        return None
    try:
        return context_indices(contexts, vocab_size, order)
    except (ValueError, OverflowError):  # OverflowError: past int64, so out of vocab
        return None


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
                 for index, probs in zip(model.index.tolist(), model.probs.tolist())],
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
    _check_shape(vocab_size, order - 1)
    for t in corpus:
        if not 0 <= t < vocab_size:
            raise ValueError(f"invalid corpus token: {t}")
    if k_add <= 0:
        raise ValueError("k_add must be positive")
    corpus = [int(t) for t in corpus]
    k = order - 1
    # Row of each context, in the order the corpus first shows it.
    rows: dict[tuple[int, ...], int] = {}
    cells = [rows.setdefault(tuple(corpus[i:i + k]), len(rows)) * vocab_size + corpus[i + k]
             for i in range(len(corpus) - k)]
    counts = np.bincount(np.array(cells, dtype=np.int64), minlength=len(rows) * vocab_size)
    counts = counts.reshape(len(rows), vocab_size).astype(np.float64)
    probs = (counts + k_add) / (counts.sum(axis=1, keepdims=True) + k_add * vocab_size)
    uniform = Distribution(np.full(vocab_size, 1.0 / vocab_size))
    return TabularModel(vocab_size, k, context_indices(rows, vocab_size, k), probs, uniform)


def temper(base: TabularModel, tau: float, eps: float = 0.0) -> TabularModel:
    """Draft derived from a base table by temperature scaling plus uniform mixing.

    row = (1 - eps) * normalize(base_row^(1/tau)) + eps * uniform, for every
    row of the base table and for its default row. tau > 1 flattens, tau < 1
    sharpens; eps > 0 guarantees full support (every probability >=
    eps / vocab_size). The draft shares the base's ``index``.
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
    n = len(base.index)
    default = Distribution(w[n]) if base.default is not None else None
    return TabularModel(base.vocab_size, base.context_order, base.index, w[:n], default)


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
    contexts = list(context_space(vocab_size, order))
    probs = np.empty((len(contexts), vocab_size))
    for row, ctx in zip(probs, contexts):
        last = ctx[-1]
        if last == BOS or last == 0:
            row.fill((1.0 - fork_peak) / (vocab_size - 1))
            row[1 + int(rng.integers(vocab_size - 1))] = fork_peak
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
        row.fill(delta / (vocab_size - 1))
        row[peak] = 1.0 - delta
    probs /= probs.sum(axis=1, keepdims=True)
    return TabularModel(vocab_size, order, context_indices(contexts, vocab_size, order), probs)


def random_tabular(vocab_size: int, context_order: int, rng: Rng, *,
                   alpha: float = 1.0, spiky_fraction: float = 0.0,
                   spike_scale: float = 1e-8) -> TabularModel:
    """Random tabular model with Dirichlet(alpha) rows.

    With ``spiky_fraction`` > 0, that share of rows is made near-deterministic
    (one token carries all mass up to ~spike_scale), giving the model both
    confident and diffuse contexts like a real generation chain.
    """
    contexts = list(context_space(vocab_size, context_order))
    probs = np.empty((len(contexts), vocab_size))
    for k in range(len(contexts)):
        if spiky_fraction > 0.0 and rng.random() < spiky_fraction:
            delta = spike_scale * rng.uniform(0.5, 2.0)
            row = rng.dirichlet(np.full(vocab_size, 1.0)) * delta
            row[rng.integers(vocab_size)] += 1.0 - delta
            probs[k] = row / row.sum()
        else:
            probs[k] = rng.dirichlet(np.full(vocab_size, alpha))
    return TabularModel(vocab_size, context_order,
                        context_indices(contexts, vocab_size, context_order), probs)
