"""Distribution primitives: construction, information measures, sampling."""

import math

import numpy as np
import pytest

from speclab.dist import (Distribution, argmax, cross_entropy, entropy,
                          kl_divergence, make_rng, normalize, normalize_rows,
                          residual, sample, tvd)

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


class TestNormalizeRows:
    def test_bitwise_equal_to_normalize_per_row(self):
        rng = make_rng(12)
        for v in (1, 3, 17, 300):
            rows = rng.random((40, v)) * rng.choice([1e-300, 1.0, 1e8], size=(40, 1))
            rows[rng.random((40, v)) < 0.3] = 0.0
            rows[:, 0] += 1e-3
            got = normalize_rows(rows.tolist())
            want = [normalize(r) for r in rows.tolist()]
            assert [d.probs.tobytes() for d in got] == [d.probs.tobytes() for d in want]

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


class TestResidual:
    def test_point_mass_result(self):
        r = residual(Distribution([0.5, 0.5]), Distribution([0.9, 0.1]))
        np.testing.assert_allclose(r.probs, [0, 1], atol=1e-15)

    def test_three_way_case(self):
        r = residual(Distribution([0.6, 0.3, 0.1]), Distribution([0.2, 0.5, 0.3]))
        np.testing.assert_allclose(r.probs, [1, 0, 0], atol=1e-15)

    def test_identical_inputs_rejected(self):
        d = Distribution([0.4, 0.6])
        with pytest.raises(ValueError, match="degenerate residual"):
            residual(d, d)

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

    def test_coinciding_pair_raises_every_call(self):
        p = Distribution([0.4, 0.6])
        q = Distribution([0.4, 0.6 + 1e-13])
        for _ in range(2):
            with pytest.raises(ValueError, match="degenerate residual"):
                residual(p, q)

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
