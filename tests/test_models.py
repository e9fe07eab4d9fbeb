"""Synthetic model constructors and their invariants."""

import gc
import hashlib
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.dist import Distribution, entropy, make_rng, normalize
from speclab.engine import DecodeMode, autoregressive_decode, speculative_decode
from speclab.models import (BOS, RowMap, TabularModel, context_index,
                            context_indices, context_space, load_corpus, random_tabular,
                            segmented_chain_model, tabular_from_spec,
                            tabular_to_spec, temper, train_ngram)
from speclab.policies import (ConstantPolicy, HeuristicPolicy, SvipConfig,
                              SvipPolicy)

SHIPPED_TARGET = Path(__file__).resolve().parents[1] / "configs" / "segmented_target.json"


def from_table(vocab_size, order, table, default=None):
    """The ``TabularModel`` of a table of Distributions keyed by context."""
    probs = np.array([row.probs for row in table.values()]).reshape(len(table), vocab_size)
    return TabularModel(vocab_size, order, context_indices(table, vocab_size, order),
                        probs, default)


def assert_valid_distribution(d, vocab_size):
    assert len(d) == vocab_size
    assert np.all(d.probs >= 0)
    assert abs(d.probs.sum() - 1.0) <= 1e-9


class TestEffectiveContext:
    """A model reads the BOS-padded last ``context_order`` tokens of its
    context; their ``context_index`` names the row."""

    def test_truncates_to_order(self):
        model = random_tabular(9, 2, make_rng(3))
        assert model.next_distribution([5, 6, 7, 8]) is model.rows[context_index((7, 8), 2, 9, 2)]
        assert context_index([5, 6, 7, 8], 4, 9, 2) == 8 * 10 + 9

    def test_pads_short_context(self):
        model = random_tabular(4, 3, make_rng(4))
        assert model.next_distribution([3]) is model.rows[context_index((BOS, BOS, 3), 3, 4, 3)]
        assert context_index([3], 1, 4, 3) == context_index([BOS, BOS, 3], 3, 4, 3) == 4

    def test_order_zero(self):
        model = random_tabular(3, 0, make_rng(5))
        assert model.next_distribution([1, 2]) is model.rows[context_index((), 0, 3, 0)]
        assert context_index([1, 2], 2, 3, 0) == 0


def reference_row(table, default, k, context):
    """The lookup by context tuple that row indices replaced: the ``table``
    row of the BOS-padded last ``k`` tokens, else the default row, else the
    incomplete-table error."""
    key = tuple(context[-k:]) if k else ()
    key = (BOS,) * (k - len(key)) + key
    row = table.get(key)
    if row is None:
        row = default
        if row is None:
            raise ValueError(f"incomplete table: no row for context {key!r}")
    return row


def outcome(lookup, *args):
    """The row ``lookup`` returns, or the message of the error it raises."""
    try:
        return lookup(*args)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got is want


def assert_same_values(got, want):
    """Same error message, or a row bitwise equal to ``want``: a model
    copies the rows of its table into one stack."""
    if isinstance(want, str):
        assert got == want
    else:
        assert got.probs.tobytes() == want.probs.tobytes()


@st.composite
def tables(draw):
    """Tables of order 0-3 over vocab 1-5, complete without a default row or
    any subset of contexts with one; rows have zero-mass entries. Draws the
    model with the tuple-keyed table and default row it was built from."""
    vocab = draw(st.integers(1, 5))
    order = draw(st.integers(0, 3))
    keys = list(context_space(vocab, order))
    with_default = draw(st.booleans())
    if with_default:
        keep = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        keys = [key for key, kept in zip(keys, keep) if kept]
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))

    def row():
        w = rng.dirichlet(np.ones(vocab)) * (rng.random(vocab) < 0.6)
        w[rng.integers(vocab)] += 0.5
        return normalize(w)

    table = {key: row() for key in keys}
    default = row() if with_default else None
    return from_table(vocab, order, table, default), table, default


class TestRowIndex:
    """``next_distribution`` and a stepped ``row`` index give the row the
    tuple lookup gave, or raise its error, on every context."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tables(), st.data())
    def test_same_row_as_tuple_lookup(self, drawn, data):
        model, table, default = drawn
        vocab, k = model.vocab_size, model.context_order
        width = k + data.draw(st.integers(0, 2))  # a wider window of a pair
        radix, span = vocab + 1, (vocab + 1) ** width
        for n in range(2 * k + 3):
            # BOS, other negatives and tokens past the vocab included.
            ctx = data.draw(st.lists(st.integers(-3, vocab + 2),
                                     min_size=n, max_size=n))
            want = outcome(reference_row, table, default, k, ctx)
            got = outcome(model.next_distribution, ctx)
            assert_same_values(got, want)
            if all(BOS <= t < vocab for t in ctx):
                index = 0
                for t in ctx:
                    index = (index * radix + t + 1) % span
                assert index == context_index(ctx, n, vocab, width)
                # The row read through the stepped index is the cached row.
                assert_same_outcome(outcome(model.row, index), got)

    def test_out_of_vocab_token_gets_default_row(self):
        model = train_ngram([0, 1, 2, 0, 2, 1], order=3, k_add=0.5, vocab_size=3)
        assert model.next_distribution([0, 4]) is model.default
        assert model.next_distribution([-2, 1]) is model.default

    def test_table_key_out_of_vocab_rejected(self):
        with pytest.raises(ValueError, match=r"invalid context \(0, 2\)"):
            context_indices([(BOS, 0), (0, 2)], 2, 2)
        with pytest.raises(ValueError, match=r"row arity mismatch: context \(0,\)"):
            context_indices([(BOS, 0), (0,)], 2, 2)


def shipped_pair():
    """The shipped target and the ``temper`` 2.0/0.2 draft its configs use."""
    target = tabular_from_spec(json.loads(SHIPPED_TARGET.read_text()))
    return target, temper(target, 2.0, 0.2)


def holed(model, context):
    """``model`` without the row of ``context`` and with no default row to
    fall back on. The constructor refuses such a table, so it is built with
    a default row that is then dropped from the row cache."""
    vocab, order = model.vocab_size, model.context_order
    kept = model.index != context_index(context, order, vocab, order)
    holed = TabularModel(vocab, order, model.index[kept], model.probs[kept],
                         normalize(np.ones(vocab)))
    holed.rows.default = None
    return holed


def resolution_models():
    target, draft = shipped_pair()
    corpus = [int(t) for t in make_rng(23).integers(0, 4, size=300)]
    return {"target": target, "draft": draft,
            "order-0": random_tabular(3, 0, make_rng(31)),
            "ngram": train_ngram(corpus, 3, 0.5, 4),
            "holed": holed(random_tabular(3, 2, make_rng(29)), (0, 2))}


SHIPPED_POLICIES = {
    "constant-5": lambda: ConstantPolicy(5, 40),
    "heuristic": lambda: HeuristicPolicy(5, 40),
    "svip-0.85": lambda: SvipPolicy(SvipConfig(h=0.85, max_len=40)),
}


def decode_digest(result):
    return _digest([result.output_tokens,
                    [[r.round_index, r.start_len, r.start_index, r.proposed_tokens,
                      r.draft_entropies, r.next_entropy, r.accepted_count,
                      r.correction, r.bonus] for r in result.rounds],
                    result.target_forward_calls, result.draft_forward_calls,
                    result.draft_probe_calls])


class TestRowResolution:
    """``row`` resolves every index, hit or miss, to the row or error that
    reducing it modulo the span and reading the table gave."""

    def test_every_index_resolves_as_before(self):
        """Digests of which stored row (by key, so by identity) or which
        error each index resolves to, recorded when ``row`` was a method
        that reduced the index modulo the span and read the table."""
        got = {}
        for name, model in resolution_models().items():
            assert len(model.rows) == 0
            key_of = {}
            for key, probs in zip(model.index.tolist(), model.probs):
                row = model.row(key)
                assert row.probs.tobytes() == probs.tobytes()
                key_of[id(row)] = key
            key_of[id(model.default)] = "default"
            row, seen = model.row, []
            # Two digits past the model's own window, as a wider pair's index.
            for index in range((model.vocab_size + 1) ** (model.context_order + 2)):
                try:
                    seen.append(key_of[id(row(index))])
                except ValueError as exc:
                    seen.append(str(exc))
            got[name] = _digest(seen)
        assert got == {
            "target": "b2ea7e6374252f7fa97c6d50b4b58c60bc69daa3f2fdb669880b0dff876b5fc2",
            "draft": "b2ea7e6374252f7fa97c6d50b4b58c60bc69daa3f2fdb669880b0dff876b5fc2",
            "order-0": "90b44c0fdcab6576b5416c15221b023b5e8676bb04e237325e2cb1ef179e9dda",
            "ngram": "6575c5f28cd18d1e3dd80565e3c73784fd5bbd20b652e757e4753dd613db340e",
            "holed": "d7f588c850d433b60098acf8295f32b4b8af904c4f97eafb081a50833b72b658",
        }

    def test_negative_index_wraps(self):
        for model in resolution_models().values():
            span = (model.vocab_size + 1) ** model.context_order
            for index in range(-span, 0):
                assert_same_outcome(outcome(model.row, index),
                                    outcome(model.row, index + span))

    def test_mixed_order_decodes(self):
        """The order-7 shipped target with an order-2 n-gram draft: nearly
        every draft read is an index past the draft's span."""
        target, _ = shipped_pair()
        corpus = autoregressive_decode(target, [1], 4000, DecodeMode.SAMPLING,
                                       make_rng(41))
        draft = train_ngram(corpus, 3, 0.5, target.vocab_size)
        draft_span = (draft.vocab_size + 1) ** draft.context_order
        got = {}
        for mode in DecodeMode:
            for name, policy in SHIPPED_POLICIES.items():
                result = speculative_decode(target, draft, [1], 1500, policy(), mode,
                                            make_rng(43))
                starts = [r.start_index for r in result.rounds]
                assert sum(i >= draft_span for i in starts) > 0.95 * len(starts)
                got[f"{mode.value}/{name}"] = decode_digest(result)
        assert got == {
            "sampling/constant-5": "5aaab101e9c72e57556da0cb9f7dea336854dbf43e60d2e1401d01503ad1d526",
            "sampling/heuristic": "e604078bf40e456b3377f688b772f1b92df1c26d48736d09d1ddb387084ce36a",
            "sampling/svip-0.85": "afbb41bfcf9ed78c90ffd6797fff513e9534f52d9e53897f2575aaa03a037420",
            "greedy/constant-5": "0b40301a74cf6ace0b0e9f4509e3ffeec64ed3807cf94fb853dc69a36d401c2b",
            "greedy/heuristic": "925aa84146eaa3f47a98f23abf4948ed9c0e29250b796ab028a3ce6946e8f6da",
            "greedy/svip-0.85": "6cdd83f23dc2f60509c89d9458661c23f3481dd982a969c492fb919fb99b6fa8",
        }

    def test_mixed_order_long_decodes(self):
        """The mixed-order pair at horizon 8k, where the draft's out-of-window
        indices repeat: digests recorded when a miss was never stored."""
        target, _ = shipped_pair()
        corpus = autoregressive_decode(target, [1], 4000, DecodeMode.SAMPLING,
                                       make_rng(41))
        draft = train_ngram(corpus, 3, 0.5, target.vocab_size)
        got = {f"{mode.value}/{name}": decode_digest(
                   speculative_decode(target, draft, [1], 8000, policy(), mode, make_rng(47)))
               for mode in DecodeMode for name, policy in SHIPPED_POLICIES.items()}
        assert got == {
            "sampling/constant-5": "00fcc3257cf92cd5f1788f9b5e44f616fb0edb30d85b4a79cce0e2e9fdc63093",
            "sampling/heuristic": "15f0610149d70e81ddaf8e1f8fe4174206946c5df5424b195f4370f42103e246",
            "sampling/svip-0.85": "3a84ebd36d919fdff6e7430e400e62de4a4d67fed2d133642458899baf2184d7",
            "greedy/constant-5": "d942c180386fea3635214d0af8d38003b841ae573eafa433012ba32666e89db8",
            "greedy/heuristic": "f8d13320fa716ecb9c28288314b936e81e51a03bacf8e6c81cdc5f039dae9026",
            "greedy/svip-0.85": "5f3de3b25fe7d0d93117117aa627eb17dce3ce31b974a195f6854a134b9ed999",
        }

    def test_model_and_draft_freed_without_gc(self):
        """A model holds its rows and their bound lookup; nothing holds the
        model back, so ``del`` frees it with the collector off."""
        target, draft = shipped_pair()
        refs = [weakref.ref(target), weakref.ref(draft)]
        gc.disable()
        try:
            del target, draft
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def per_row_load(doc):
    """The loader the stacked one replaced: each row's fields checked in
    turn, then each row normalized on its own, then duplicate contexts,
    the default row and, without one, every context of the space in
    ``context_space`` order. Returns each row's bytes by context index and
    the default row's bytes, or raises the first fault's error."""
    vocab, order, rows = doc["vocab_size"], doc["context_order"], doc["rows"]
    contexts, weights = [], []
    for i, row in enumerate(rows):
        try:
            context, probs = row["context"], row["probs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid model spec: rows[{i}]: {exc}") from exc
        for value, name in ((context, "context"), (probs, "probs")):
            if not isinstance(value, list):
                raise ValueError(f"invalid model spec: rows[{i}].{name}: "
                                 f"expected a list, got {type(value).__name__}")
        if len(context) != order:
            raise ValueError(f"row arity mismatch: rows[{i}] context has {len(context)} tokens")
        if len(probs) != vocab:
            raise ValueError(f"row arity mismatch: rows[{i}] has {len(probs)} probs")
        for k, t in enumerate(context):
            if not isinstance(t, int) or isinstance(t, bool):
                raise ValueError(f"invalid model spec: rows[{i}].context[{k}]: "
                                 f"expected an integer, got {type(t).__name__}")
            if t != BOS and not 0 <= t < vocab:
                raise ValueError(f"invalid model spec: rows[{i}] context token {t} out of vocab")
        contexts.append(tuple(context))
        weights.append(probs)
    dists = [normalize(w) for w in weights]
    table = {}
    for i, (context, d) in enumerate(zip(contexts, dists)):
        if context in table:
            raise ValueError(f"invalid model spec: rows[{i}].context: "
                             f"duplicates rows[{contexts.index(context)}]")
        table[context] = d
    default = doc.get("default")
    if default is None:
        for key in context_space(vocab, order):
            if key not in table:
                raise ValueError(f"incomplete table: no row for context {key!r} and no default")
    else:
        default = normalize(default).probs.tobytes()
    return {context_index(key, order, vocab, order): d.probs.tobytes()
            for key, d in table.items()}, default


def stacked_load(doc):
    """``tabular_from_spec``'s rows and default row, as ``per_row_load``
    returns them; the load itself builds no row."""
    model = tabular_from_spec(doc)
    assert len(model.rows) == 0
    rows = {i: model.row(i).probs.tobytes() for i in model.index.tolist()}
    return rows, None if model.default is None else model.default.probs.tobytes()


@st.composite
def model_docs(draw, with_default=st.booleans()):
    """Model documents over vocab 1-4 and order 0-3: every context, or any
    subset with a default row, in any order; probs mix zeros, integers and
    reals, with at least one positive entry."""
    vocab = draw(st.integers(1, 4))
    order = draw(st.integers(0, 3))
    keys = list(context_space(vocab, order))
    default = draw(with_default)
    if default:
        keys = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    else:
        keys = draw(st.permutations(keys))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))

    def probs():
        w = rng.random(vocab) * 3.0 * (rng.random(vocab) < 0.7)
        w[rng.integers(vocab)] += 0.25
        return [int(x) if x > 2.0 else float(x) for x in w]

    doc = {"vocab_size": vocab, "context_order": order,
           "rows": [{"context": list(key), "probs": probs()} for key in keys]}
    if default:
        doc["default"] = probs()
    return doc


BAD_TOKENS = {"bool": True, "float": 1.0, "str": "0", "minus-2": -2, "huge": 2**70}
MUTATIONS = (*BAD_TOKENS, "vocab", "unreachable", "short-context", "short-probs",
             "context-not-list", "probs-not-list", "row-not-dict", "missing-key",
             "duplicate", "drop-row", "all-zero")


def mutate(doc, kind, data):
    """Apply a fault of kind ``kind`` to a drawn row of ``doc``, if that row
    still has the field the fault changes."""
    rows = doc["rows"]
    if not rows:
        return
    i = data.draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if kind == "row-not-dict":
        rows[i] = data.draw(st.sampled_from([[], "row", 3, None]))
    elif not isinstance(row, dict):
        return
    elif kind == "missing-key":
        del row[data.draw(st.sampled_from(sorted(row)))]
    elif kind in ("context-not-list", "probs-not-list"):
        row[kind.split("-")[0]] = data.draw(st.sampled_from(["01", {"0": 1}, 0, None]))
    elif kind == "drop-row":
        del rows[i]
    elif kind == "duplicate" and isinstance(row.get("context"), list):
        rows.insert(data.draw(st.integers(i + 1, len(rows))),
                    {"context": list(row["context"]), "probs": [1.0] * doc["vocab_size"]})
    elif kind in ("short-probs", "all-zero") and isinstance(row.get("probs"), list):
        row["probs"] = row["probs"][1:] if kind == "short-probs" else [0] * len(row["probs"])
    elif isinstance(row.get("context"), list) and row["context"]:
        context = row["context"]
        if kind == "short-context":
            context.pop()
        elif kind == "unreachable" and len(context) >= 2:  # BOS after a token
            context[0], context[-1] = 0, BOS
        elif kind in BAD_TOKENS or kind == "vocab":
            k = data.draw(st.integers(0, len(context) - 1))
            context[k] = doc["vocab_size"] if kind == "vocab" else BAD_TOKENS[kind]


class TestStackedLoad:
    """``tabular_from_spec`` checks the rows a column at a time; it loads
    the rows the per-row loader loaded, bit for bit, and raises that
    loader's error word for word."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(model_docs())
    def test_valid_docs_load_rows_bitwise_equal_to_per_row(self, doc):
        rows, default = stacked_load(doc)
        assert (rows, default) == per_row_load(doc)
        assert len(rows) == len(doc["rows"])

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(model_docs(), st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2),
           st.data())
    def test_faults_raise_the_per_row_error(self, doc, kinds, data):
        for kind in kinds:
            mutate(doc, kind, data)
        assert outcome(stacked_load, doc) == outcome(per_row_load, doc)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(doc=model_docs(with_default=st.just(False)), data=st.data())
    def test_each_fault_raises(self, kind, doc, data):
        """On a table with every context and no default row, each kind of
        fault raises the per-row loader's error."""
        if doc["context_order"] < (2 if kind == "unreachable" else 1):  # nothing to change
            doc["context_order"] = 2
            doc["rows"] = [{"context": list(key), "probs": [1.0] * doc["vocab_size"]}
                           for key in context_space(doc["vocab_size"], 2)]
        mutate(doc, kind, data)
        got = outcome(stacked_load, doc)
        assert isinstance(got, str)
        assert got == outcome(per_row_load, doc)

    def test_first_missing_context_named(self):
        doc = {"vocab_size": 2, "context_order": 2,
               "rows": [{"context": list(key), "probs": [1, 1]}
                        for key in context_space(2, 2) if key not in ((BOS, 1), (0, 0))]}
        with pytest.raises(ValueError) as exc:
            tabular_from_spec(doc)
        assert str(exc.value) == ("incomplete table: no row for context (-1, 1) "
                                  "and no default")


@st.composite
def shuffled_tables(draw, min_rows=0):
    """``(vocab, order, index, probs, default)`` of a table whose rows come
    in a drawn order, each row's probs set by its context, with or without
    a default row; some tables have a span of 2**63 or more, and so an
    object-dtype index."""
    if draw(st.booleans(), label="object dtype"):
        vocab = draw(st.integers(1, 3), label="vocab")
        least = next(k for k in range(64) if (vocab + 1) ** k >= 2 ** 63)
        order = draw(st.integers(least, least + 2), label="order")
    else:
        vocab = draw(st.integers(1, 4), label="vocab")
        order = draw(st.integers(min_rows > 1, 3), label="order")  # span >= min_rows
    span = (vocab + 1) ** order
    default = None
    keys = set(draw(st.lists(st.integers(0, span - 1), max_size=30), label="rows"))
    if vocab > 1 and span >= 2 ** 63 or draw(st.booleans(), label="default"):
        default = normalize([1.0] * vocab)
    else:  # complete: every reachable context has a row
        keys.update(context_indices(context_space(vocab, order), vocab, order).tolist())
    if len(keys) < min_rows:
        keys.update(range(min_rows))
    keys = draw(st.permutations(sorted(keys)), label="row order")
    index = np.array(keys, dtype=np.int64 if span < 2 ** 63 else object)
    weights = np.array([[key * (j + 3) % 5 + 1.0 for j in range(vocab)]
                        for key in keys]).reshape(len(keys), vocab)
    probs = weights / weights.sum(axis=1, keepdims=True)
    return vocab, order, index, probs, default


class TestRowCache:
    """``rows`` is a read cache over the stack: construction builds no row,
    and each index read is stored, whatever it resolved to."""

    def test_load_and_temper_build_no_row(self):
        target, draft = shipped_pair()
        assert len(target.rows) == len(draft.rows) == 0
        assert target.rows.cdfs is None and draft.rows.cdfs is None
        assert len(target.index) == len(target.probs) == 3280
        assert draft.index is target.index
        assert draft.rows.index is target.rows.index
        assert not target.probs.flags.writeable and not draft.probs.flags.writeable
        for model in (random_tabular(3, 2, make_rng(1)),
                      train_ngram([0, 1, 2, 0, 2, 1], 3, 0.5, 3)):
            assert len(model.rows) == 0

    def test_rows_built_once(self):
        target, draft = shipped_pair()
        for model in (target, draft):
            for index in model.index[:50].tolist():
                row = model.row(index)
                assert model.row(index) is row
                assert model.next_distribution(list(model.rows.context_of(index))) is row
            assert len(model.rows) == 50

    def test_rows_carry_their_own_entropy_and_cdf(self):
        target, _ = shipped_pair()
        models = [target] + [temper(target, tau, eps) for tau, eps in
                             ((2.0, 0.2), (0.5, 0.0), (1.0, 0.1), (3.0, 0.0), (0.3, 0.05))]
        models += [random_tabular(5, 2, make_rng(3), alpha=0.05, spiky_fraction=0.3),
                   train_ngram([0, 1, 2, 0, 2, 1, 1], 3, 0.5, 3)]
        for model in models:
            span = model.rows.span
            for k, index in enumerate(model.index.tolist()):
                fresh = Distribution(model.probs[k])
                # an out-of-window read first: it resolves through the table row
                row = model.row(index + span)
                assert row is model.row(index) and np.shares_memory(row.probs, model.probs[k])
                assert row._entropy == entropy(fresh) and row._cdf == fresh.cdf()
            if model.default is not None:
                assert model.row(0)._cdf is None  # the default row is not in the stack

    def test_stats_computed_once_on_the_first_table_row(self, monkeypatch):
        calls = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
        model = train_ngram([0, 1, 2, 0, 2, 1, 1], 3, 0.5, 3)
        model.row(0)  # the default row
        assert calls == [] and model.rows.cdfs is None
        for index in model.index.tolist():
            model.row(index)
        assert calls == [1]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(shuffled_tables(), st.data())
    def test_rows_found_in_any_row_order(self, table, data):
        """Every index of the window a wider model pairs this table with,
        and some past it, resolves to the row that a dict of the table's
        contexts names; a span of 2**63 or more reads sampled indices."""
        vocab, order, index, probs, default = table
        given_sorted = bool((index[1:] > index[:-1]).all())
        model = TabularModel(vocab, order, index, probs, default)
        assert (model.index is index) == given_sorted
        radix, span = vocab + 1, (vocab + 1) ** order
        named = dict(zip(index.tolist(), range(len(index))))
        if span < 2 ** 63:
            width = order + data.draw(st.integers(0, 2), label="pair width")
            while width > order and radix ** width > 1000:
                width -= 1
            reads = list(range(radix ** width))
        else:
            reads = list(named) + data.draw(st.lists(st.integers(0, span - 1), max_size=20),
                                            label="in span")
        reads += data.draw(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=8),
                           label="past the span")
        for i in reads:
            context = i % span
            if context in named:
                row = model.row(i)
                assert np.shares_memory(row.probs, model.probs)
                assert row.probs.tobytes() == probs[named[context]].tobytes()
            elif default is not None:
                assert model.row(i) is default
            else:
                digits = [context // radix ** e % radix - 1 for e in range(order - 1, -1, -1)]
                with pytest.raises(ValueError) as exc:
                    model.row(i)
                assert str(exc.value) == f"incomplete table: no row for context {tuple(digits)!r}"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(shuffled_tables(), st.data())
    def test_shuffled_build_equals_sorted_build(self, table, data):
        """A table given in any row order is stored as the build from the
        same rows in context-index order: the same strictly increasing,
        read-only index, the same stack bytes, rows of the same bytes (each
        index read giving one object), the same file document and the same
        tempered draft. ``test_duplicate_contexts_named_in_table_order``
        checks that a repeated context is still named in the order given."""
        vocab, order, index, probs, default = table
        rank = np.argsort(index, kind="stable")
        ref = TabularModel(vocab, order, index[rank], probs[rank], default)
        model = TabularModel(vocab, order, index, probs, default)
        assert model.index.dtype == ref.index.dtype
        assert model.index.tolist() == ref.index.tolist()
        assert (model.index[1:] > model.index[:-1]).all()
        assert not model.index.flags.writeable and not model.probs.flags.writeable
        assert model.rows.index is model.index and model.rows.probs is model.probs
        assert model.probs.tobytes() == ref.probs.tobytes()
        span = (vocab + 1) ** order
        reads = index.tolist() + data.draw(st.lists(st.integers(-span, 2 * span), max_size=10),
                                           label="reads")
        for i in reads:
            try:
                expected = ref.row(i)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    model.row(i)
                continue
            row = model.row(i)
            assert model.row(i) is row
            assert row.probs.tobytes() == expected.probs.tobytes()
            assert (row is default) == (expected is default)
        assert tabular_to_spec(model) == tabular_to_spec(ref)
        draft, ref_draft = temper(model, 2.0, 0.1), temper(ref, 2.0, 0.1)
        assert draft.index is model.index
        assert draft.probs.tobytes() == ref_draft.probs.tobytes()
        assert tabular_to_spec(draft) == tabular_to_spec(ref_draft)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(shuffled_tables(min_rows=2), st.data())
    def test_duplicate_contexts_named_in_table_order(self, table, data):
        vocab, order, index, probs, default = table
        index = index.copy()
        n = len(index)
        for a, b in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                       .filter(lambda ab: ab[0] != ab[1]),
                                       min_size=1, max_size=3), label="copies"):
            index[a] = index[b]
        first = {}
        i = next(i for i, c in enumerate(index.tolist()) if first.setdefault(c, i) != i)
        with pytest.raises(ValueError) as exc:
            TabularModel(vocab, order, index, probs, default)
        assert str(exc.value) == (f"invalid model spec: rows[{i}].context: "
                                  f"duplicates rows[{first[index[i]]}]")

    def test_out_of_window_read_is_stored(self, monkeypatch):
        target, _ = shipped_pair()
        draft = train_ngram([0, 1, 2, 0, 2, 1, 1], 3, 0.5, 3)  # order 2, with a default
        misses = []
        missing = RowMap.__missing__

        def counted(rows, index):
            misses.append(index)
            return missing(rows, index)

        monkeypatch.setattr(RowMap, "__missing__", counted)
        span = 4 ** 2
        for index in (5 * span + 6, 3 * span + 0, -7):  # a row, the default, a negative
            row = draft.row(index)
            assert index in draft.rows and index % span in draft.rows
            assert row is draft.row(index % span)
            before = len(misses)
            assert draft.row(index) is row
            assert len(misses) == before
        assert misses == [86, 6, 48, 0, -7, 9]
        index = target.index[7].item()
        assert target.row(4 ** 7 + index) is target.row(index)

    def test_missing_context_error_not_stored(self):
        holed = resolution_models()["holed"]
        hole = context_index((0, 2), 2, 3, 2)
        for index in (hole, hole + 16, hole - 16):
            with pytest.raises(ValueError, match=r"no row for context \(0, 2\)"):
                holed.row(index)
            assert index not in holed.rows


class TestTabularFromSpec:
    def test_order_zero_model(self):
        model = tabular_from_spec({
            "vocab_size": 2, "context_order": 0,
            "rows": [{"context": [], "probs": [0.3, 0.7]}],
        })
        for ctx in ([0], [1, 1], [0, 1, 0]):
            np.testing.assert_allclose(model.next_distribution(ctx).probs,
                                       [0.3, 0.7], atol=1e-15)

    def test_rows_are_normalized(self):
        model = tabular_from_spec({
            "vocab_size": 2, "context_order": 0,
            "rows": [{"context": [], "probs": [2, 2]}],
        })
        np.testing.assert_allclose(model.next_distribution([0]).probs,
                                   [0.5, 0.5], atol=1e-15)

    def test_missing_context_without_default(self):
        with pytest.raises(ValueError, match="incomplete table"):
            tabular_from_spec({
                "vocab_size": 2, "context_order": 1,
                "rows": [{"context": [0], "probs": [0.5, 0.5]}],
            })

    def test_default_row_fills_gaps(self):
        model = tabular_from_spec({
            "vocab_size": 2, "context_order": 1,
            "rows": [{"context": [0], "probs": [0.9, 0.1]}],
            "default": [0.5, 0.5],
        })
        np.testing.assert_allclose(model.next_distribution([1]).probs,
                                   [0.5, 0.5], atol=1e-15)

    def test_spec_round_trip(self):
        ngram = train_ngram([0, 1, 0, 3, 3, 1, 0, 1], order=2, k_add=0.5,
                            vocab_size=4)
        for model in (random_tabular(4, 1, make_rng(88)), ngram):
            clone = tabular_from_spec(json.loads(json.dumps(tabular_to_spec(model))))
            for ctx in ([0], [1], [2], [3], []):
                np.testing.assert_allclose(clone.next_distribution(ctx).probs,
                                           model.next_distribution(ctx).probs,
                                           atol=1e-15)

    def test_row_arity_mismatch(self):
        with pytest.raises(ValueError, match="row arity mismatch"):
            tabular_from_spec({
                "vocab_size": 2, "context_order": 0,
                "rows": [{"context": [], "probs": [0.2, 0.3, 0.5]}],
            })
        with pytest.raises(ValueError, match="row arity mismatch"):
            tabular_from_spec({
                "vocab_size": 2, "context_order": 1,
                "rows": [{"context": [0, 1], "probs": [0.5, 0.5]}],
            })

    @pytest.mark.parametrize("probs, message", [
        ([0.5, float("nan")], "invalid weight: non-finite entry"),
        ([0.5, -0.1], "invalid weight: negative entry"),
        ([0.0, 0.0], "degenerate weights: all zero"),
    ])
    def test_bad_row_weights(self, probs, message):
        with pytest.raises(ValueError, match=message):
            tabular_from_spec({
                "vocab_size": 2, "context_order": 1,
                "rows": [{"context": [0], "probs": [0.5, 0.5]},
                         {"context": [1], "probs": probs}],
            })

    @pytest.mark.parametrize("vocab, order, default, message", [
        (0, 0, None, "vocab_size must be positive"),
        (-2, 0, [0.5, 0.5], "vocab_size must be positive"),
        (2, -1, None, "context_order must be non-negative"),
    ])
    def test_bad_vocab_or_order_without_rows(self, vocab, order, default, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tabular_from_spec({"vocab_size": vocab, "context_order": order,
                               "rows": [], "default": default})

    def test_context_token_out_of_vocab(self):
        with pytest.raises(ValueError, match=r"rows\[1\] context token 2 out of vocab"):
            tabular_from_spec({
                "vocab_size": 2, "context_order": 1,
                "rows": [{"context": [0], "probs": [0.5, 0.5]},
                         {"context": [2], "probs": [0.5, 0.5]}],
            })


class TestTrainNgram:
    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 1 0 1 0 2 2\n")
        assert load_corpus(path) == [0, 1, 0, 1, 0, 2, 2]

    def test_bigram_hand_count(self):
        # corpus [0,1,0,1,0]: bigram (0,1) twice, (1,0) twice, (0,0)/(1,1) never
        model = train_ngram([0, 1, 0, 1, 0], order=2, k_add=1.0, vocab_size=2)
        np.testing.assert_allclose(model.next_distribution([0]).probs,
                                   [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(model.next_distribution([1]).probs,
                                   [0.75, 0.25], atol=1e-15)

    def test_unseen_context_uniform(self):
        model = train_ngram([0, 1, 0, 1, 0], order=2, k_add=1.0, vocab_size=2)
        np.testing.assert_allclose(model.next_distribution([]).probs,
                                   [0.5, 0.5], atol=1e-15)

    def test_large_smoothing_approaches_uniform(self):
        model = train_ngram([0, 1, 0, 1, 0], order=2, k_add=1e6, vocab_size=2)
        np.testing.assert_allclose(model.next_distribution([0]).probs,
                                   [0.5, 0.5], atol=1e-5)

    def test_empty_corpus_uniform(self):
        model = train_ngram([], order=2, k_add=0.5, vocab_size=4)
        np.testing.assert_allclose(model.next_distribution([1]).probs,
                                   [0.25] * 4, atol=1e-15)

    def test_out_of_vocab_token(self):
        with pytest.raises(ValueError, match="invalid corpus token"):
            train_ngram([0, 5], order=2, k_add=1.0, vocab_size=2)
        for vocab in (0, -1):  # no token fits; checked before the uniform row
            with pytest.raises(ValueError, match="^vocab_size must be positive$"):
                train_ngram([], order=2, k_add=0.5, vocab_size=vocab)


def temper_row(p, tau, eps):
    """Reference for ``temper``: the tempering formula applied to one row."""
    w = np.zeros_like(p)
    pos = p > 0.0
    logw = np.log(p[pos]) / tau
    w[pos] = np.exp(logw - logw.max())
    w /= w.sum()
    if eps > 0.0:
        w = (1.0 - eps) * w + eps / p.size
    return w


class TestTemper:
    @pytest.fixture
    def base(self):
        return tabular_from_spec({
            "vocab_size": 2, "context_order": 0,
            "rows": [{"context": [], "probs": [0.25, 0.75]}],
        })

    def test_identity_settings(self, base):
        draft = temper(base, tau=1.0, eps=0.0)
        np.testing.assert_allclose(draft.next_distribution([0]).probs,
                                   base.next_distribution([0]).probs, atol=1e-12)

    def test_greedy_limit(self, base):
        draft = temper(base, tau=1e-3, eps=0.0)
        np.testing.assert_allclose(draft.next_distribution([0]).probs,
                                   [0, 1], atol=1e-12)

    def test_uniform_mixing(self, base):
        draft = temper(base, tau=1.0, eps=0.2)
        np.testing.assert_allclose(draft.next_distribution([0]).probs,
                                   [0.3, 0.7], atol=1e-12)

    def test_invalid_temperature(self, base):
        with pytest.raises(ValueError, match="invalid temperature"):
            temper(base, tau=0.0)

    def test_nan_temperature_rejected(self, base):
        with pytest.raises(ValueError, match="invalid temperature"):
            temper(base, tau=float("nan"))

    def test_rows_bitwise_equal_to_per_row_reference(self):
        rng = make_rng(5)
        corpus = [int(t) for t in rng.integers(0, 7, size=500)]
        bases = [random_tabular(v, 1, rng, alpha=0.3, spiky_fraction=0.5)
                 for v in (6, 16, 40)]
        bases.append(train_ngram(corpus, 2, 0.01, 7))
        for base in bases:
            rows = list(zip(base.index.tolist(), base.probs))
            if base.default is not None:
                assert 0 not in base.index  # the all-BOS context has no row
                rows.append((0, base.default.probs))
            for tau in (1e-3, 0.7, 2.5):
                for eps in (0.0, 0.1):
                    draft = temper(base, tau, eps)
                    for index, probs in rows:
                        want = temper_row(probs, tau, eps)
                        got = draft.row(index).probs
                        assert got.tobytes() == want.tobytes()

    def test_draft_is_a_table_saved_as_a_model_file(self):
        base = train_ngram([0, 1, 0, 3, 3, 1, 0, 1], order=2, k_add=0.5,
                           vocab_size=4)
        draft = temper(base, tau=2.0, eps=0.1)
        assert isinstance(draft, TabularModel)
        assert draft.index.tolist() == base.index.tolist()
        clone = tabular_from_spec(json.loads(json.dumps(tabular_to_spec(draft))))
        for ctx in ([0], [1], [2], [3], []):
            np.testing.assert_allclose(clone.next_distribution(ctx).probs,
                                       draft.next_distribution(ctx).probs,
                                       atol=1e-15)

    def test_full_support_with_mixing(self):
        rng = make_rng(3)
        base = random_tabular(6, 1, rng, alpha=0.2)
        draft = temper(base, tau=2.0, eps=0.1)
        for _ in range(200):
            ctx = [int(rng.integers(6)) for _ in range(int(rng.integers(1, 4)))]
            d = draft.next_distribution(ctx)
            assert np.all(d.probs >= 0.1 / 6 - 1e-12)

    def test_agreement_with_base_on_probed_contexts(self):
        rng = make_rng(4)
        base = random_tabular(5, 2, rng)
        draft = temper(base, tau=1.0, eps=0.0)
        for _ in range(200):
            ctx = [int(rng.integers(5)) for _ in range(int(rng.integers(1, 5)))]
            np.testing.assert_allclose(draft.next_distribution(ctx).probs,
                                       base.next_distribution(ctx).probs,
                                       atol=1e-12)


class TestModelOutputsAreValid:
    @pytest.mark.parametrize("maker", [
        lambda rng: random_tabular(7, 1, rng),
        lambda rng: random_tabular(4, 2, rng, spiky_fraction=0.5),
        lambda rng: train_ngram(list(rng.integers(0, 5, size=400)), 3, 0.5, 5),
        lambda rng: temper(random_tabular(6, 1, rng), 2.5, 0.2),
        lambda rng: segmented_chain_model(3, 4, rng),
    ])
    def test_thousand_random_contexts(self, maker):
        rng = make_rng(99)
        model = maker(rng)
        for _ in range(1000):
            n = int(rng.integers(0, 6))
            ctx = [int(rng.integers(model.vocab_size)) for _ in range(n)]
            assert_valid_distribution(model.next_distribution(ctx),
                                      model.vocab_size)


class TestSegmentedChainModel:
    def test_boundary_rows_are_uncertain(self):
        model = segmented_chain_model(3, 5, make_rng(1), fork_peak=0.7)
        fork = model.next_distribution([1, 2, 1, 2, 0])
        assert entropy(fork) > 0.5

    def test_mid_segment_rows_are_confident(self):
        model = segmented_chain_model(3, 5, make_rng(1))
        confident = model.next_distribution([0, 1, 2])
        assert entropy(confident) < 1e-6

    def test_segment_emits_boundary_on_schedule(self):
        model = segmented_chain_model(3, 4, make_rng(2))
        # after 3 non-boundary steps the next token is forced to 0
        d = model.next_distribution([0, 1, 2, 1])
        assert np.argmax(d.probs) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            segmented_chain_model(2, 4, make_rng(0))
        with pytest.raises(ValueError):
            segmented_chain_model(3, 1, make_rng(0))


class TestTabularModelDirect:
    """The constructor checks every table it is given, whoever builds it."""

    @staticmethod
    def table():
        """A complete vocab-2, order-1 table: contexts (BOS,), (0,), (1,)."""
        return np.array([0, 1, 2]), np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])

    def test_arrays_kept_read_only(self):
        index, probs = self.table()
        model = TabularModel(2, 1, index, probs)
        assert model.index is index and model.probs is probs
        assert not index.flags.writeable and not probs.flags.writeable
        assert len(model.rows) == 0

    @pytest.mark.parametrize("vocab, order, message", [
        (0, 1, "vocab_size must be positive"),
        (-2, 1, "vocab_size must be positive"),
        (2, -1, "context_order must be non-negative"),
    ])
    def test_bad_vocab_or_order(self, vocab, order, message):
        index, probs = self.table()
        with pytest.raises(ValueError, match=message):
            TabularModel(vocab, order, index, probs)

    @pytest.mark.parametrize("index, message", [
        ([0, 1, 1], r"^invalid model spec: rows\[2\]\.context: duplicates rows\[1\]$"),
        ([2, 0, 2], r"^invalid model spec: rows\[2\]\.context: duplicates rows\[0\]$"),
        ([0, 1, 3], r"^invalid index: context index 3 outside \[0, 3\)$"),
        ([-1, 1, 2], r"^invalid index: context index -1 outside \[0, 3\)$"),
        ([0.0, 1.0, 2.0], r"^invalid index: expected a 1-d array"),
    ])
    def test_bad_index(self, index, message):
        _, probs = self.table()
        with pytest.raises(ValueError, match=message):
            TabularModel(2, 1, np.array(index), probs, normalize([1.0, 1.0]))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 3), (6,)])
    def test_stack_shape_mismatch(self, shape):
        index, _ = self.table()
        with pytest.raises(ValueError, match=r"row arity mismatch: a stack of shape"):
            TabularModel(2, 1, index, np.full(shape, 1.0 / shape[-1]))

    @pytest.mark.parametrize("row", [[1.25, -0.25], [-1e-15, 1.0], [0.5, 0.25],
                                     [0.5, 0.5 + 1e-8], [np.nan, 1.0], [np.inf, 0.0]])
    def test_row_not_a_distribution(self, row):
        index, probs = self.table()
        probs[1] = row
        with pytest.raises(ValueError, match="a stacked row is not a distribution"):
            TabularModel(2, 1, index, probs)

    def test_default_row_arity(self):
        index, probs = self.table()
        with pytest.raises(ValueError, match="row arity mismatch: default row"):
            TabularModel(2, 1, index, probs, normalize([1.0, 1.0, 1.0]))

    def test_incomplete_without_default_raises(self):
        with pytest.raises(ValueError, match=r"incomplete table: no row for context \(-1,\)"):
            TabularModel(2, 1, np.array([1, 2]), np.full((2, 2), 0.5))
        # vocab 1001, order 2: the unpadded level has 1001^2 > 1M contexts.
        # Smaller levels are still checked, and a gap there is named.
        index = context_indices([(BOS, BOS), *((BOS, t) for t in range(1001))], 1001, 2)
        probs = np.full((len(index), 1001), 1.0 / 1001)
        with pytest.raises(ValueError, match="too large to verify"):
            TabularModel(1001, 2, index, probs)
        kept = index != context_index((BOS, 5), 2, 1001, 2)
        with pytest.raises(ValueError, match=r"no row for context \(-1, 5\)"):
            TabularModel(1001, 2, index[kept], probs[kept])

    def test_last_missing_context_named(self):
        """An order-5, vocab-10 table without its last context: the check
        names it from the reachable indices, without walking the contexts."""
        contexts = list(context_space(10, 5))[:-1]
        index = context_indices(contexts, 10, 5)
        with pytest.raises(ValueError) as exc:
            TabularModel(10, 5, index, np.full((len(index), 10), 0.1))
        assert str(exc.value) == ("incomplete table: no row for context (9, 9, 9, 9, 9) "
                                  "and no default")
        # vocab 1, order 63: a span of 2**63 and an object-dtype index
        hole = (BOS,) * 60 + (0, 0, 0)
        index = context_indices([key for key in context_space(1, 63) if key != hole], 1, 63)
        assert index.dtype == object
        with pytest.raises(ValueError) as exc:
            TabularModel(1, 63, index, np.ones((len(index), 1)))
        assert str(exc.value) == f"incomplete table: no row for context {hole!r} and no default"

    def test_generators_build_no_distribution(self, monkeypatch):
        """The generators hand the constructor a stack; a row read later is
        a view of it. Neither goes through ``Distribution.__init__``."""
        calls = []
        init = Distribution.__init__
        monkeypatch.setattr(Distribution, "__init__",
                            lambda d, probs: calls.append(probs) or init(d, probs))
        models = [random_tabular(4, 2, make_rng(1)),
                  random_tabular(4, 2, make_rng(2), alpha=0.3, spiky_fraction=0.5),
                  segmented_chain_model(3, 4, make_rng(3))]
        for model in models:
            for index in model.index.tolist():
                assert_valid_distribution(model.row(index), model.vocab_size)
        assert calls == []
        normalize([1.0, 1.0])  # the counter sees a Distribution built the checked way
        assert len(calls) == 1


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestPinnedOutputs:
    """Exact digests of generated tables and n-gram rows. Every decode is
    built on these rows, so a changed digest means outputs moved; the rows
    depend on the context order and on numpy's Generator streams."""

    def test_generator_and_ngram_digests(self):
        seeds = (0, 1, 2)
        rng = make_rng(17)
        corpus = [int(t) for t in rng.integers(0, 5, size=400)]
        rows = []
        for order in (1, 2, 3):
            model = train_ngram(corpus, order, 0.5, 5)
            for _ in range(200):
                ctx = [int(rng.integers(5)) for _ in range(int(rng.integers(0, 5)))]
                rows.append(model.next_distribution(ctx).probs.tolist())
        got = {
            "segmented": _digest([tabular_to_spec(segmented_chain_model(3, 4, make_rng(s)))
                                  for s in seeds]),
            "dense": _digest([tabular_to_spec(random_tabular(5, 2, make_rng(s)))
                              for s in seeds]),
            "spiky": _digest([tabular_to_spec(random_tabular(4, 2, make_rng(s), alpha=0.3,
                                                             spiky_fraction=0.5))
                              for s in seeds]),
            "ngram": _digest(rows),
        }
        assert got == {
            "segmented": "4927f5717ceae087c61bdc339cd9e052bbfef8f89e0e5dbd29d6a913a4c7b0a0",
            "dense": "5969e4bde68711482a1540b05f08e5e8694daa296614481c1cca422501aa8089",
            "spiky": "15487f4505a58f63b8d347704248c78f904489e97d9a86fa8b2734e27f9d5e5d",
            "ngram": "96d024d62dc2f406fc96184e708aa9f70f88f1f87089e2a2b3ef0123e7a21a85",
        }


    def test_saved_model_file_digests(self):
        """``tabular_to_spec`` of tables whose rows are not given in context
        order: an n-gram model (first-seen order, with a default row) and
        tempered drafts of the ``TestPinnedTemperedRows`` bases."""
        corpus = [int(t) for t in make_rng(23).integers(0, 4, size=300)]
        bases = TestPinnedTemperedRows._bases()
        got = {
            "ngram-spec": _digest(tabular_to_spec(train_ngram(corpus, 3, 0.5, 4))),
            "tempered-spec": _digest([tabular_to_spec(temper(base, 2.0, 0.1))
                                      for base in bases.values()]),
        }
        assert got == {
            "ngram-spec": "f46f97df1d3e628bb98d4805d5bf6a4e4ba9d7a3ef4ecbac9785f079a3fe1d0e",
            "tempered-spec": "80f2970c121e855725db545041be6a454f1b9a7a188e4094c6e479a905d6cdbc",
        }


class TestPinnedTemperedRows:
    """Exact digest of every tempered row: one per context of the base table,
    plus an unseen context for the base's default row. The rows come from
    numpy's log and exp, so a numpy build with other elementary functions
    may read other digests."""

    @staticmethod
    def _bases():
        doc = tabular_to_spec(random_tabular(5, 2, make_rng(7), alpha=0.3,
                                             spiky_fraction=0.3))
        doc["rows"][3]["probs"] = [0.0, 0.0, 1.0, 0.0, 0.0]
        doc["rows"][8]["probs"][1:4] = [0.0, 0.0, 0.0]
        corpus = [int(t) for t in make_rng(17).integers(0, 5, size=400)]
        return {
            "segmented": segmented_chain_model(3, 4, make_rng(0)),
            "zero-mass": tabular_from_spec(doc),
            "ngram": train_ngram(corpus, 3, 0.5, 5),
        }

    def test_tempered_row_digests(self):
        got = {}
        for name, base in self._bases().items():
            indices = sorted(base.index.tolist())
            if base.default is not None:
                assert 0 not in indices  # the all-BOS context has no row
                indices.append(0)
            h = hashlib.sha256()
            for tau in (1e-3, 2.0):
                for eps in (0.0, 0.1):
                    draft = temper(base, tau, eps)
                    for index in indices:
                        h.update(draft.row(index).probs.tobytes())
            got[name] = h.hexdigest()
        assert got == {
            "segmented": "41fb3841b4c4061ce6732c9fede1591e2944f381bfe853ce1e506f044291af2b",
            "zero-mass": "999a26adf5bb6cfdb37b7c811a24223c9ee2225764884340845e2073c08ea512",
            "ngram": "9ddceab7810f9615a2d60738843b6650ec2c68d29ff6e2febb12987b25502b29",
        }
