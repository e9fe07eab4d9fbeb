"""Distribution primitives: construction, information measures, sampling."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclab.dist as dist_module
from speclab.dist import (BLOCK, Distribution, KeyedStreams, Uniforms, argmax,
                          checked_rows, cross_entropy, distribution_rows,
                          draw_stream, entropy, kl_divergence, make_rng, normalize,
                          normalize_rows, residual, rewindable, row_entropies,
                          sample, sample_rows, tvd, unchecked_distribution)

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def kl_direct(q, p):
    """Direct-summation oracle, independent of the H(q,p) - H(q) path."""
    total = 0.0
    for qi, pi in zip(q, p):
        if qi > 0:
            if pi == 0:
                return float("inf")
            total += qi * math.log(qi / pi)
    return total


def random_stack(rng, n, vocab):
    """``n`` random rows over ``vocab`` tokens: Dirichlet rows of one
    concentration, about half of them with zero entries, and some point
    masses and rows holding a subnormal entry."""
    w = rng.dirichlet(np.full(vocab, rng.choice([0.05, 1.0, 20.0])), size=n)
    holed = rng.random(n) < 0.5
    w[holed] *= rng.random((holed.sum(), vocab)) >= rng.random((holed.sum(), 1))
    point = rng.random(n) < 0.1
    w[point] = 0.0
    w[point, rng.integers(vocab, size=point.sum())] = 1.0
    w[rng.random(n) < 0.1, 0] = 5e-324
    empty = w.sum(axis=1) == 0.0
    w[empty, rng.integers(vocab, size=empty.sum())] = 1.0
    return w / w.sum(axis=1, keepdims=True)


# Vocab sizes for stacks: small ones, the lengths around 16 (from 16 on,
# zero-padding a row changes the rounding of its dot), and up to 1000.
STACK_VOCAB = st.one_of(st.sampled_from([1, 2, 3, 15, 16, 17, 64, 1000]),
                        st.integers(1, 1000))


class TestNormalizeRows:
    def test_bitwise_equal_to_normalize_per_row(self):
        rng = make_rng(12)
        for v in (1, 3, 17, 300):
            rows = rng.random((40, v)) * rng.choice([1e-300, 1.0, 1e8], size=(40, 1))
            rows[rng.random((40, v)) < 0.3] = 0.0
            rows[:, 0] += 1e-3
            got = normalize_rows(rows.tolist())
            want = [normalize(r) for r in rows.tolist()]
            assert not got.flags.writeable
            assert [r.tobytes() for r in got] == [d.probs.tobytes() for d in want]

    @pytest.mark.parametrize("bad", [
        [1.0, float("nan")], [1.0, float("inf")], [1.0, -0.5], [0.0, 0.0],
        [[1.0], [2.0]], [1e308, 1e308],
    ], ids=["nan", "inf", "negative", "all-zero", "nested", "overflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_bad_row_raises_its_normalize_error(self, bad):
        with pytest.raises(ValueError) as want:
            normalize(bad)
        with pytest.raises(ValueError) as got:
            normalize_rows([[0.5, 0.5], bad, [0.0, 0.0]])
        assert str(got.value) == str(want.value)

    def test_ragged_rows_report_the_first_bad_row(self):
        with pytest.raises(ValueError, match="all zero"):
            normalize_rows([[1.0, 2.0], [0.0, 0.0, 0.0], [1.0]])


class TestDistributionRows:
    def test_rows_share_one_read_only_array(self):
        p = np.array([[0.25, 0.75], [1.0, 0.0]])
        dists = distribution_rows(p)
        assert [d.probs.tolist() for d in dists] == p.tolist()
        assert all(np.shares_memory(d.probs, p) for d in dists)
        assert not p.flags.writeable

    @pytest.mark.parametrize("bad", [
        [0.5, 0.6], [1.5, -0.5], [float("nan"), 1.0], [float("inf"), 0.0],
    ], ids=["sum", "negative", "nan", "inf"])
    def test_any_bad_row_rejects_the_stack(self, bad):
        p = np.array([[0.5, 0.5], bad])
        with pytest.raises(ValueError, match="invalid distribution"):
            distribution_rows(p)
        assert p.flags.writeable

    @pytest.mark.parametrize("p", [
        [[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [float("nan"), 1.0]],
        [[0.5, 0.5], [float("inf"), 0.0]], [[-float("inf"), 1.0]],
        [[float("inf"), -float("inf")]], [[1.5, -0.5]], [[1.0, -5e-324]],
        [[0.5, 0.6]], [[0.5, 0.5 + 2e-9]], [[0.5, 0.5 + 5e-10]],
        np.empty((0, 0)), np.empty((0, 3)), np.empty((3, 0)),
    ], ids=["good", "nan", "+inf", "-inf", "+inf-inf", "negative",
            "negative-subnormal", "off-sum", "off-sum-by-tol", "sum-within-tol",
            "empty", "no-rows", "no-columns"])
    def test_same_verdict_as_entrywise_checks(self, p):
        """``checked_rows`` checks only the minimum entry and the row sums,
        and accepts and rejects what the entry-by-entry checks do."""
        p = np.array(p, dtype=np.float64)
        want = (np.all(np.isfinite(p)) and np.all(p >= 0.0)
                and np.all(np.abs(p.sum(axis=1) - 1.0) <= dist_module.SUM_TOL))
        if want:
            assert checked_rows(p) is p
            assert not p.flags.writeable
        else:
            with pytest.raises(ValueError) as err:
                checked_rows(p)
            assert str(err.value) == ("invalid distribution: "
                                      "a stacked row is not a distribution")
            assert p.flags.writeable


class TestNormalize:
    def test_symmetric_weights(self):
        np.testing.assert_allclose(normalize([2, 2]).probs, [0.5, 0.5], atol=1e-15)

    def test_point_mass_unchanged(self):
        np.testing.assert_allclose(normalize([1, 0, 0]).probs, [1, 0, 0], atol=0)

    def test_divides_by_sum(self):
        np.testing.assert_allclose(normalize([1, 3]).probs, [0.25, 0.75], atol=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate weights"):
            normalize([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="invalid weight"):
            normalize([1.0, -0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="invalid weight"):
            normalize([1.0, float("nan")])
        with pytest.raises(ValueError, match="invalid weight"):
            normalize([1.0, float("inf")])


class TestDistributionValidation:
    def test_sum_off_by_more_than_tolerance(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution([0.5, 0.6])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution([1.1, -0.1])

    def test_tiny_roundoff_negative_clamped(self):
        d = Distribution([1.0 + 1e-13, -1e-13])
        assert d.probs[1] == 0.0

    def test_immutable(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestEntropy:
    def test_point_mass_zero(self):
        assert entropy(Distribution([1, 0, 0, 0])) == 0.0

    def test_uniform_is_log_vocab(self):
        assert entropy(Distribution([0.25] * 4)) == pytest.approx(LN4, abs=1e-12)

    def test_direct_summation_case(self):
        d = Distribution([0.5, 0.25, 0.25])
        assert entropy(d) == pytest.approx(1.0397207708399179, abs=1e-12)

    def test_bounds_over_random_distributions(self):
        rng = make_rng(1234)
        for _ in range(500):
            v = int(rng.integers(2, 65))
            d = Distribution(rng.dirichlet(np.ones(v)))
            h = entropy(d)
            assert 0.0 <= h <= math.log(v) + 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(vocab=STACK_VOCAB, n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_row_entropies_bit_for_bit(self, vocab, n, seed):
        p = random_stack(make_rng(seed), n, vocab)
        want = np.array([entropy(Distribution(row)) for row in p], dtype=np.float64)
        got = row_entropies(p)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


class TestCrossEntropy:
    def test_equals_entropy_when_equal(self):
        d = Distribution([0.25] * 4)
        assert cross_entropy(d, d) == pytest.approx(LN4, abs=1e-12)

    def test_single_term(self):
        q = Distribution([1, 0])
        p = Distribution([0.5, 0.5])
        assert cross_entropy(q, p) == pytest.approx(LN2, abs=1e-12)

    def test_support_mismatch_infinite(self):
        q = Distribution([0.5, 0.5])
        p = Distribution([1, 0])
        assert cross_entropy(q, p) == float("inf")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cross_entropy(Distribution([0.5, 0.5]), Distribution([1 / 3] * 3))


class TestKlDivergence:
    def test_identity_zero(self):
        d = Distribution([0.3, 0.7])
        assert kl_divergence(d, d) == 0.0

    def test_direct_summation_cases(self):
        q = Distribution([0.9, 0.1])
        p = Distribution([0.5, 0.5])
        assert kl_divergence(q, p) == pytest.approx(0.3680642071684971, abs=1e-12)
        assert kl_divergence(p, q) == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_matches_direct_summation_on_random_pairs(self):
        rng = make_rng(7)
        for _ in range(300):
            v = int(rng.integers(2, 33))
            q = Distribution(rng.dirichlet(np.ones(v)))
            p = Distribution(rng.dirichlet(np.ones(v)))
            assert kl_divergence(q, p) == pytest.approx(
                kl_direct(q.probs, p.probs), abs=1e-10)

    def test_difference_identity_and_nonnegativity(self):
        rng = make_rng(8)
        for _ in range(300):
            v = int(rng.integers(2, 33))
            q = Distribution(rng.dirichlet(np.ones(v)))
            p = Distribution(rng.dirichlet(np.ones(v)))
            raw = cross_entropy(q, p) - entropy(q)
            assert raw >= -1e-12
            assert kl_divergence(q, p) == max(raw, 0.0)

    def test_infinite_on_support_mismatch(self):
        assert kl_divergence(Distribution([0.5, 0.5]),
                             Distribution([1, 0])) == float("inf")


class TestTvd:
    def test_identity(self):
        d = Distribution([0.4, 0.6])
        assert tvd(d, d) == 0.0

    def test_disjoint_supports(self):
        assert tvd(Distribution([1, 0]), Distribution([0, 1])) == 1.0

    def test_hand_value(self):
        assert tvd(Distribution([0.5, 0.5]),
                   Distribution([0.9, 0.1])) == pytest.approx(0.4, abs=1e-15)

    def test_min_sum_complement_identity(self):
        rng = make_rng(9)
        for _ in range(500):
            v = int(rng.integers(2, 65))
            p = Distribution(rng.dirichlet(np.ones(v)))
            q = Distribution(rng.dirichlet(np.ones(v)))
            min_sum = float(np.minimum(p.probs, q.probs).sum())
            assert abs(min_sum - (1.0 - tvd(p, q))) <= 1e-12


class TestSample:
    def test_point_mass(self):
        d = Distribution([0, 0, 1, 0])
        rng = make_rng(0)
        assert all(sample(d, rng) == 2 for _ in range(100))

    def test_fair_coin_frequency(self):
        d = Distribution([0.5, 0.5])
        rng = make_rng(42)
        n = 100_000
        zeros = sum(sample(d, rng) == 0 for _ in range(n))
        assert 0.494 <= zeros / n <= 0.506

    def test_deterministic_given_seed(self):
        d = Distribution([0.3, 0.7])
        draws = [sample(d, make_rng(77)) for _ in range(5)]
        assert len(set(draws)) == 1

    def test_frequencies_within_four_sigma(self):
        rng = make_rng(5)
        n = 50_000
        for v in (2, 5, 16):
            d = Distribution(rng.dirichlet(np.ones(v)))
            counts = np.zeros(v)
            for _ in range(n):
                counts[sample(d, rng)] += 1
            for x in range(v):
                band = 4.0 * math.sqrt(d.probs[x] * (1 - d.probs[x]) / n)
                assert abs(counts[x] / n - d.probs[x]) <= band + 1e-12


def reference_sample(d, rng):
    """``sample`` reading the cdf and the fallback's zeros from numpy."""
    r = rng.random()
    cdf = np.cumsum(d.probs)
    idx = int(np.searchsorted(cdf, r, side="right"))
    if idx >= d.probs.size:
        idx = d.probs.size - 1
        while idx > 0 and d.probs[idx] == 0.0:
            idx -= 1
    return idx


class FixedDraws:
    """A generator stand-in that hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestListMemo:
    """The memoised ``probs_list`` and cdf give the draws numpy reads give."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sample_same_tokens_as_numpy_reads(self, seed):
        gen = make_rng(seed)
        rng, ref_rng = make_rng((seed, 1)), make_rng((seed, 1))
        for _ in range(300):
            v = int(gen.integers(1, 12))
            w = gen.dirichlet(np.ones(v))
            w[gen.random(v) < 0.4] = 0.0
            w[gen.integers(v)] += 1e-3
            d = normalize(w)
            for _ in range(5):
                assert sample(d, rng) == reference_sample(d, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_roundoff_fallback_skips_trailing_zeros(self):
        # Sums to 1 - 1e-10, within tolerance: a uniform past the last
        # cumulative value lands on the last token with mass.
        d = Distribution([0.5, 0.5 - 1e-10, 0.0, 0.0])
        r = 1.0 - 1e-11
        assert d.cdf()[-1] < r
        assert sample(d, FixedDraws([r])) == reference_sample(d, FixedDraws([r])) == 1

    def test_every_row_source_memoises_its_list(self):
        gen = make_rng(4)
        p, q = normalize(gen.random(5)), normalize(gen.random(5))
        stacked = distribution_rows(gen.dirichlet(np.ones(5), size=3))
        for d in (p, q, *stacked, residual(p, q),
                  unchecked_distribution(normalize_rows(gen.random((2, 5)).tolist())[1])):
            assert d._list is None  # filled on first use, not at construction
            values = d.probs_list()
            assert values == d.probs.tolist()
            assert type(values[0]) is float
            assert d.probs_list() is values


class TestSampleRows:
    """``sample_rows`` picks, lane by lane, the token ``sample`` picks."""

    def test_same_as_sample_at_and_past_every_cdf_value(self):
        # Ten 0.1s sum to 1 - 2**-53: uniforms at every cumulative value and
        # above the last one, including those past it by roundoff, where the
        # last positive-mass token is picked. All rows share one stack.
        dists = [Distribution([0.1] * 10),
                 Distribution([0.0, 0.5, 0.5] + [0.0] * 7),
                 Distribution([0.5, 0.5 - 1e-10] + [0.0] * 8)]
        probs = np.array([d.probs for d in dists])
        rows, us, want, past = [], [], [], 0
        for r, d in enumerate(dists):
            cdf = np.cumsum(d.probs).tolist()
            for u in [0.0, *cdf, np.nextafter(cdf[-1], 1.0), 1.0 - 1e-11, 1.0 - 2 ** -53]:
                if u < 1.0:
                    rows.append(r)
                    us.append(u)
                    want.append(sample(d, FixedDraws([u])))
            if us[-1] >= cdf[-1]:
                past += 1
                assert want[-1] == max(np.flatnonzero(d.probs))
        assert past == 2
        got = sample_rows(probs, np.cumsum(probs, axis=1), np.array(rows), np.array(us))
        assert got.tolist() == want


class TestMakeRng:
    """Every key seeds the stream ``np.random.default_rng`` gives it, whether
    or not ``make_rng`` passes it on as 32-bit words."""

    @pytest.mark.parametrize("key", [
        0, 7, 2 ** 40, [4, 5], (), (0,), (1,), (2 ** 32 - 1,), (2 ** 32,),
        (2 ** 64 + 5,), (True,), (5, False), (np.int64(9),), (3, np.int64(1)),
        (3, 1), (0, 2 ** 32 - 1, 4), (3, 1, 4, 0x0AC1E), (2, 7, 1, 8, 2),
        (1, 2, 3, 4, 5, 6), (1, 2 ** 32, 3),
    ], ids=repr)
    def test_same_stream_as_default_rng(self, key):
        got = make_rng(key)
        ref = np.random.default_rng(key)
        assert got.random(200).tolist() == ref.random(200).tolist()
        assert got.bit_generator.state == ref.bit_generator.state

    def test_float_part_raises(self):
        with pytest.raises(TypeError):
            make_rng((1, 2.0))

    def test_negative_part_raises(self):
        with pytest.raises(ValueError):
            make_rng((1, -1))


def generator(kind, seed):
    """A fresh generator of the given kind; "pcg64-half" is a PCG64 holding
    a buffered 32-bit half-word, which ``random()`` must leave alone."""
    if kind == "mt19937":
        return np.random.Generator(np.random.MT19937(seed))
    if kind == "pcg64dxsm":
        return np.random.Generator(np.random.PCG64DXSM(seed))
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "pcg64-half":
        rng.integers(0, 5, dtype=np.int32)
    return rng


class TestUniforms:
    """A draw stream hands out what successive ``rng.random()`` calls would,
    and once closed leaves the generator where they would."""

    @staticmethod
    def state(rng):
        return repr(rng.bit_generator.state)

    @pytest.mark.parametrize("kind", ["pcg64", "pcg64dxsm", "pcg64-half"])
    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK // 2, BLOCK - 1, BLOCK,
                                   BLOCK + 1, 3 * BLOCK])
    def test_per_call_values_and_end_state(self, kind, n):
        rng, ref = generator(kind, 8), generator(kind, 8)
        stream = Uniforms(rng)
        assert [stream.random() for _ in range(n)] == [ref.random() for _ in range(n)]
        stream.close()
        assert self.state(rng) == self.state(ref)
        # The kept half-word is the next 32-bit draw's.
        assert (rng.integers(0, 5, size=9, dtype=np.int32).tolist()
                == ref.integers(0, 5, size=9, dtype=np.int32).tolist())

    def test_rounds_of_draws(self):
        # Rounds of draws that end inside a block, at its end, and past the
        # next one; the stream is closed after the last.
        rounds = [1, 5, 40, 3, 1, 90, 2, 30, 31, 7, 1, 0, 2, 3 * BLOCK]
        rng, ref = make_rng(8), make_rng(8)
        stream = Uniforms(rng)
        for n in rounds:
            assert [stream.random() for _ in range(n)] == [ref.random() for _ in range(n)]
        stream.close()
        assert self.state(rng) == self.state(ref)

    def test_new_block_goes_after_the_unused_values(self):
        rng, ref = make_rng(10), make_rng(10)
        stream = Uniforms(rng)
        draws = [stream.random() for _ in range(BLOCK - 3)]
        draws += [stream.random() for _ in range(BLOCK + 10)]  # three, then a block
        assert draws == [ref.random() for _ in range(2 * BLOCK + 7)]
        stream.close()
        assert self.state(rng) == self.state(ref)

    def test_close_twice_rewinds_once(self):
        rng, ref = make_rng(9), make_rng(9)
        stream = Uniforms(rng)
        stream.random()
        ref.random()
        stream.close()
        stream.close()
        assert self.state(rng) == self.state(ref)

    def test_closed_stream_hands_out_nothing(self):
        stream = Uniforms(make_rng(10))
        stream.random()
        stream.close()
        with pytest.raises(StopIteration):
            stream.random()

    def test_sample_through_a_stream(self):
        d = Distribution([0.2, 0.5, 0.3])
        rng, ref = make_rng(12), make_rng(12)
        stream = Uniforms(rng)
        assert [sample(d, stream) for _ in range(100)] == [
            sample(d, ref) for _ in range(100)]
        stream.close()
        assert self.state(rng) == self.state(ref)

    @pytest.mark.parametrize("rng,want", [
        (make_rng(1), True),
        (generator("pcg64dxsm", 1), True),
        (generator("pcg64-half", 1), True),
        (generator("mt19937", 1), False),
        (np.random.Generator(np.random.Philox(1)), False),
        (FixedDraws([0.5]), False),
    ], ids=["default", "pcg64dxsm", "pcg64-half", "mt19937", "philox", "duck-typed"])
    def test_rewindable(self, rng, want):
        assert rewindable(rng) is want

    @pytest.mark.parametrize("close", [True, False])
    def test_freed_by_reference_counting(self, close):
        gc.disable()
        try:
            stream = Uniforms(make_rng(13))
            stream.random()
            if close:
                stream.close()
            ref = weakref.ref(stream)
            del stream
            assert ref() is None
        finally:
            gc.enable()


class TestDrawStreamOpener:
    """``draw_stream`` opens a ``Uniforms`` stream over a ``rewindable``
    generator, closed on exit, and hands any other rng back as it is."""

    state = staticmethod(TestUniforms.state)

    @pytest.mark.parametrize("kind", ["pcg64", "pcg64dxsm", "pcg64-half"])
    @pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1])
    def test_closed_on_exit_where_per_call_draws_end(self, kind, n):
        rng, ref = generator(kind, 5), generator(kind, 5)
        with draw_stream(rng) as draws:
            assert type(draws) is Uniforms and draws.rng is rng
            assert [draws.random() for _ in range(n)] == [ref.random() for _ in range(n)]
        assert self.state(rng) == self.state(ref)
        with pytest.raises(StopIteration):  # closed
            draws.random()
        # The kept half-word is the next 32-bit draw's.
        assert (rng.integers(0, 5, size=9, dtype=np.int32).tolist()
                == ref.integers(0, 5, size=9, dtype=np.int32).tolist())

    @pytest.mark.parametrize("kind", ["pcg64", "pcg64dxsm", "pcg64-half"])
    @pytest.mark.parametrize("n", [0, 3, BLOCK + 1])
    def test_closed_when_the_body_raises(self, kind, n):
        rng, ref = generator(kind, 6), generator(kind, 6)
        with pytest.raises(LookupError):
            with draw_stream(rng) as draws:
                for _ in range(n):
                    draws.random()
                raise LookupError
        for _ in range(n):
            ref.random()
        assert self.state(rng) == self.state(ref)
        with pytest.raises(StopIteration):
            draws.random()

    @pytest.mark.parametrize("rng", [
        generator("mt19937", 1),
        np.random.Generator(np.random.Philox(1)),
        FixedDraws([0.5]),
        None,
    ], ids=["mt19937", "philox", "duck-typed", "none"])
    def test_other_rngs_yield_themselves(self, rng):
        with draw_stream(rng) as draws:
            assert draws is rng


def lane_draws(streams, n):
    """``n`` values of every lane, one row per lane."""
    return np.array([streams.random() for _ in range(n)]).T


class TestKeyedStreams:
    """Lane k of a batch gives bit for bit ``make_rng(keys[k]).random(n)``,
    whether its key is seeded in the batch or through ``make_rng``."""

    EDGE_PARTS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5]

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("part", EDGE_PARTS)
    @pytest.mark.parametrize("position", range(4))
    def test_edge_parts(self, part, position):
        key = [3, 1, 4, 0x0AC1E]
        key[position] = part
        keys = [tuple(key), (part,), part, (part, part, part, part, part, part)]
        got = lane_draws(KeyedStreams(keys), BLOCK + 17)
        for lane, k in zip(got, keys):
            assert self.bits(lane) == self.bits(make_rng(k).random(BLOCK + 17))

    def test_word_rows_seed_without_make_rng(self, monkeypatch):
        # A uint32 array of 4-part keys is seeded in the batch: make_rng is
        # never called.
        gen = make_rng(31)
        words = gen.integers(0, 2 ** 32, size=(300, 4), dtype=np.uint64)
        words[:4] = [[0] * 4, [2 ** 32 - 1] * 4, [0, 2 ** 32 - 1, 0, 1],
                     [2 ** 32 - 1, 0, 5, 0x0AC1E]]
        want = [make_rng(tuple(int(w) for w in row)).random(90) for row in words]

        def no_make_rng(key):
            raise AssertionError(f"make_rng({key!r}) called")

        monkeypatch.setattr(dist_module, "make_rng", no_make_rng)
        got = lane_draws(KeyedStreams(words.astype(np.uint32)), 90)
        assert self.bits(got) == self.bits(want)

    @pytest.mark.parametrize("keys", [[], np.empty((0, 4), np.uint32)],
                             ids=["list", "array"])
    def test_empty_batch(self, keys):
        streams = KeyedStreams(keys)
        assert len(streams) == 0
        assert streams.random().shape == (0,)
        streams.keep(np.zeros(0, dtype=bool))
        assert streams.random().dtype == np.float64

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_batches(self, data):
        word = st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1))
        part = st.one_of(st.sampled_from(self.EDGE_PARTS), st.integers(0, 2 ** 70))
        key = st.one_of(st.tuples(word, word, word, word), part,
                        st.lists(part, min_size=1, max_size=6).map(tuple))
        keys = data.draw(st.lists(key, max_size=10), label="keys")
        as_rows = all(type(k) is tuple and len(k) == 4 and max(k) < 2 ** 32
                      for k in keys) and data.draw(st.booleans(), label="as rows")
        n = data.draw(st.one_of(st.sampled_from([BLOCK, BLOCK + 1, 81]),
                                st.integers(1, 100)), label="n")
        cut = data.draw(st.integers(0, n), label="cut")
        kept = data.draw(st.lists(st.booleans(), min_size=len(keys),
                                  max_size=len(keys)), label="kept")
        want = [make_rng(k).random(n) for k in keys]
        streams = KeyedStreams(np.array(keys, np.uint32).reshape(-1, 4)
                               if as_rows else keys)
        lanes = list(range(len(keys)))
        for i in range(n):
            if i == cut:  # drop lanes mid-way; the rest keep their streams
                streams.keep(np.array(kept, dtype=bool))
                lanes = [k for k in lanes if kept[k]]
            assert len(streams) == len(lanes)
            assert self.bits(streams.random()) == self.bits([want[k][i] for k in lanes])


class TestResidual:
    def test_point_mass_result(self):
        r = residual(Distribution([0.5, 0.5]), Distribution([0.9, 0.1]))
        np.testing.assert_allclose(r.probs, [0, 1], atol=1e-15)

    def test_three_way_case(self):
        r = residual(Distribution([0.6, 0.3, 0.1]), Distribution([0.2, 0.5, 0.3]))
        np.testing.assert_allclose(r.probs, [1, 0, 0], atol=1e-15)

    def test_identical_inputs_fall_back_to_p(self):
        d = Distribution([0.4, 0.6])
        assert residual(d, d) is d
        assert d._residuals == {}  # not memoised: d would hold itself

    def test_repeat_is_memoized(self):
        rng = make_rng(11)
        p = Distribution(rng.dirichlet(np.ones(7)))
        q = Distribution(rng.dirichlet(np.ones(7)))
        r = residual(p, q)
        assert residual(p, q) is r
        fresh = residual(Distribution(p.probs), Distribution(q.probs))
        assert fresh is not r
        assert fresh.probs.tobytes() == r.probs.tobytes()
        assert residual(q, p) is not r  # memoized per ordered pair

    def test_coinciding_pair_falls_back_to_p_every_call(self):
        p = Distribution([0.4, 0.6])
        q = Distribution([0.4, 0.6 + 1e-13])  # p - q has no positive part
        for _ in range(2):
            assert residual(p, q) is p
        assert p._residuals == {}

    def test_tiny_positive_part_is_normalised(self):
        # p and q differ by 1e-13, below the old coincidence tolerance; the
        # positive part of p - q lies on token 0 alone.
        p = Distribution([0.4 + 1e-13, 0.6 - 1e-13])
        q = Distribution([0.4, 0.6])
        r = residual(p, q)
        assert r.probs.tolist() == [1.0, 0.0]
        assert residual(p, q) is r
        assert not r.probs.flags.writeable

    def test_support_and_validity(self):
        rng = make_rng(10)
        for _ in range(300):
            v = int(rng.integers(2, 17))
            p = Distribution(rng.dirichlet(np.ones(v)))
            q = Distribution(rng.dirichlet(np.ones(v)))
            r = residual(p, q)
            assert abs(r.probs.sum() - 1.0) <= 1e-9
            assert np.all(r.probs[p.probs <= q.probs] == 0.0)


class TestArgmax:
    def test_plain(self):
        assert argmax(Distribution([0.1, 0.7, 0.2])) == 1
        assert argmax(Distribution([0.2, 0.2, 0.6])) == 2

    def test_tie_breaks_to_smallest_index(self):
        assert argmax(Distribution([0.5, 0.5])) == 0
