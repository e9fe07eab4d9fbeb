"""Synthetic model constructors and their invariants."""

import hashlib
import json

import numpy as np
import pytest

from speclab.dist import entropy, make_rng
from speclab.models import (BOS, TabularModel, effective_context, load_corpus,
                            random_tabular, segmented_chain_model,
                            tabular_from_spec, tabular_to_spec, temper,
                            train_ngram)


def assert_valid_distribution(d, vocab_size):
    assert len(d) == vocab_size
    assert np.all(d.probs >= 0)
    assert abs(d.probs.sum() - 1.0) <= 1e-9


class TestEffectiveContext:
    def test_truncates_to_order(self):
        assert effective_context([5, 6, 7, 8], 2) == (7, 8)

    def test_pads_short_context(self):
        assert effective_context([3], 3) == (BOS, BOS, 3)

    def test_order_zero(self):
        assert effective_context([1, 2], 0) == ()


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
    def test_incomplete_without_default_raises(self):
        from speclab.dist import Distribution
        with pytest.raises(ValueError, match="incomplete table"):
            TabularModel(2, 1, {(0,): Distribution([0.5, 0.5])})
        # vocab 1001, order 2: the unpadded level has 1001^2 > 1M contexts.
        # Smaller levels are still checked, and a gap there is named.
        row = Distribution(np.full(1001, 1.0 / 1001))
        table = {(BOS, BOS): row, **{(BOS, t): row for t in range(1001)}}
        with pytest.raises(ValueError, match="too large to verify"):
            TabularModel(1001, 2, table)
        del table[(BOS, 5)]
        with pytest.raises(ValueError, match=r"no row for context \(-1, 5\)"):
            TabularModel(1001, 2, table)


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
