"""Acceptance-rate bounds and the validity-analysis special functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from speclab.bounds import (BoundReport, acceptance_rate, approx_bound,
                            bh_bound, bound_report, bound_reports, fit_gamma_ratio,
                            gamma_validity_prob, gaussian_validity_prob,
                            lower_incomplete_gamma, pinsker_bound,
                            regularized_lower_incomplete_gamma, sample_pair,
                            sample_pairs, validity_condition)
from speclab.dist import (Distribution, cross_entropy, entropy, kl_divergence,
                          make_rng, tvd)
from test_dist import STACK_VOCAB, random_stack

KL_1 = 0.3680642071684971  # direct sum for q=[.9,.1], p=[.5,.5]


def quad_regularized_gamma(alpha, z):
    """Adaptive-quadrature oracle for the regularized lower incomplete gamma."""
    if z == 0.0:
        return 0.0
    val, _ = quad(lambda t: t ** (alpha - 1.0) * math.exp(-t), 0.0, z,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val / math.exp(math.lgamma(alpha))


class TestAcceptanceRate:
    def test_identity(self):
        d = Distribution([0.3, 0.7])
        assert acceptance_rate(d, d) == 1.0

    def test_hand_sum(self):
        assert acceptance_rate(Distribution([0.5, 0.5]),
                               Distribution([0.9, 0.1])) == pytest.approx(0.6, abs=1e-15)

    def test_disjoint(self):
        assert acceptance_rate(Distribution([1, 0]), Distribution([0, 1])) == 0.0


class TestPinskerBound:
    def test_equal_distributions(self):
        d = Distribution([0.4, 0.6])
        assert pinsker_bound(d, d) == 1.0

    def test_hand_value_and_validity(self):
        p = Distribution([0.5, 0.5])
        q = Distribution([0.9, 0.1])
        bound = pinsker_bound(p, q)
        assert bound == pytest.approx(1.0 - math.sqrt(KL_1 / 2), abs=1e-12)
        assert bound == pytest.approx(0.5710103689082351, abs=1e-12)
        assert bound <= acceptance_rate(p, q)

    def test_near_disjoint_is_negative_but_valid(self):
        p = Distribution([1e-9, 1 - 1e-9])
        q = Distribution([1 - 1e-9, 1e-9])
        bound = pinsker_bound(p, q)
        assert bound < -1.0
        assert bound <= acceptance_rate(p, q)

    def test_infinite_kl_flag(self):
        assert pinsker_bound(Distribution([1, 0]),
                             Distribution([0.5, 0.5])) == float("-inf")


class TestBhBound:
    def test_equal_distributions(self):
        d = Distribution([0.4, 0.6])
        assert bh_bound(d, d) == 1.0

    def test_hand_value(self):
        bound = bh_bound(Distribution([0.5, 0.5]), Distribution([0.9, 0.1]))
        assert bound == pytest.approx(1.0 - math.sqrt(1.0 - math.exp(-KL_1)),
                                      abs=1e-12)
        assert bound == pytest.approx(0.44508806485248753, abs=1e-12)

    def test_infinite_kl_limit(self):
        assert bh_bound(Distribution([1, 0]), Distribution([0, 1])) == 0.0

    def test_positive_for_finite_kl(self):
        rng = make_rng(17)
        for _ in range(200):
            p, q = sample_pair(int(rng.integers(2, 33)), rng, kind="tempered")
            b = bh_bound(p, q)
            assert 0.0 < b <= 1.0
            assert b <= acceptance_rate(p, q) + 1e-12


class TestApproxBound:
    def test_zero_entropy(self):
        assert approx_bound(0.0, 0.18) == 1.0

    def test_hand_values(self):
        assert approx_bound(1.0, 0.18) == pytest.approx(0.5757359312880714, abs=1e-12)
        assert approx_bound(6.0, 0.18) == pytest.approx(-0.039230484541326494,
                                                        abs=1e-12)

    def test_dominated_by_pinsker_when_ratio_valid(self):
        rng = make_rng(18)
        checked = 0
        for _ in range(2000):
            p, q = sample_pair(int(rng.integers(2, 17)), rng, kind="tempered")
            for c in (0.09, 0.18, 0.36):
                rep = bound_report(p, q, c)
                if rep.h_q > 0 and validity_condition(rep.gamma_ratio, c):
                    assert approx_bound(rep.h_q, c) <= rep.pinsker + 1e-12
                    checked += 1
        assert checked > 100


class TestValidityCondition:
    def test_ratio_one_always_valid(self):
        assert validity_condition(1.0, 0.01)

    def test_hand_cases(self):
        assert not validity_condition(1.5, 0.18)
        assert validity_condition(1.2, 0.18)

    def test_undefined_ratio_treated_valid(self):
        assert validity_condition(float("nan"), 0.18)

    def test_infinite_ratio_invalid(self):
        assert not validity_condition(float("inf"), 0.18)


class TestLowerIncompleteGamma:
    def test_alpha_one_closed_form(self):
        assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(
            0.6321205588285577, abs=1e-12)

    def test_zero_is_zero(self):
        assert lower_incomplete_gamma(3.7, 0.0) == 0.0

    def test_alpha_two_closed_form(self):
        assert regularized_lower_incomplete_gamma(2.0, 3.0) == pytest.approx(
            0.8008517265285442, abs=1e-12)

    @pytest.mark.parametrize("alpha,closed", [
        (1.0, lambda z: 1 - math.exp(-z)),
        (2.0, lambda z: 1 - math.exp(-z) * (1 + z)),
        (3.0, lambda z: 1 - math.exp(-z) * (1 + z + z * z / 2)),
    ])
    def test_integer_alpha_closed_forms(self, alpha, closed):
        gamma_alpha = math.exp(math.lgamma(alpha))
        for z in (0.0, 0.3, 1.0, 2.5, 7.0, 20.0):
            assert regularized_lower_incomplete_gamma(alpha, z) == pytest.approx(
                closed(z), abs=1e-12)
            assert lower_incomplete_gamma(alpha, z) == pytest.approx(
                gamma_alpha * closed(z), abs=1e-12)

    def test_against_quadrature(self):
        for alpha in (0.1, 0.5, 1.7, 4.0, 11.0, 20.0):
            for z in (0.01, 0.5, 2.0, 9.0, 30.0, 50.0):
                assert regularized_lower_incomplete_gamma(alpha, z) == pytest.approx(
                    quad_regularized_gamma(alpha, z), abs=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -1.0)


class TestGammaValidityProb:
    def test_exponential_special_case(self):
        assert gamma_validity_prob(1.0, 1.0, 0.5) == pytest.approx(
            0.6321205588285577, abs=1e-12)

    def test_limits(self):
        assert gamma_validity_prob(2.0, 1.5, 1e4) == pytest.approx(1.0, abs=1e-9)
        assert gamma_validity_prob(2.0, 1.5, 1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_c(self):
        grid = np.linspace(0.01, 3.0, 60)
        vals = [gamma_validity_prob(1.7, 2.2, c) for c in grid]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestGaussianValidityProb:
    def test_center(self):
        # 2c + 1 = mu
        assert gaussian_validity_prob(1.6, 0.4, 0.3) == pytest.approx(0.5, abs=1e-15)

    def test_two_sigma_table_value(self):
        assert gaussian_validity_prob(1.2, 0.2, 0.3) == pytest.approx(
            0.9772498680518208, abs=1e-12)

    def test_limit(self):
        assert gaussian_validity_prob(1.2, 0.2, 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_c(self):
        grid = np.linspace(0.01, 3.0, 60)
        vals = [gaussian_validity_prob(1.9, 0.7, c) for c in grid]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestFitGammaRatio:
    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="degenerate fit"):
            fit_gamma_ratio([2.0, 2.0, 2.0])

    def test_method_of_moments_identities(self):
        # shifted samples X = {0, 2, 2, 4}: mean 2, population var 2
        fit = fit_gamma_ratio([1.0, 3.0, 3.0, 5.0])
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.beta_rate == pytest.approx(1.0, abs=1e-12)

    def test_clamps_and_exclusions_reported(self):
        fit = fit_gamma_ratio([0.5, 1.0, 3.0, float("inf"), float("nan"), 5.0])
        assert fit.n_clamped == 1
        assert fit.n_excluded == 2

    def test_fit_feeds_monotone_validity(self):
        rng = make_rng(19)
        samples = 1.0 + rng.gamma(2.0, 0.5, size=200)
        fit = fit_gamma_ratio(samples.tolist())
        grid = np.linspace(0.05, 2.0, 30)
        vals = [gamma_validity_prob(fit.alpha, fit.beta_rate, c) for c in grid]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestBoundReport:
    def test_fields_consistent(self):
        rng = make_rng(20)
        for _ in range(200):
            p, q = sample_pair(int(rng.integers(2, 17)), rng)
            rep = bound_report(p, q, 0.18)
            assert abs(rep.beta - (1.0 - rep.tvd)) <= 1e-12
            if math.isfinite(rep.kl_q_p):
                assert rep.pinsker <= rep.beta + 1e-12
                assert rep.bh <= rep.beta + 1e-12
            if rep.h_q > 0:
                assert rep.gamma_ratio == pytest.approx(rep.h_qp / rep.h_q)

    def test_point_mass_q_has_undefined_ratio(self):
        p = Distribution([0.5, 0.5])
        q = Distribution([1.0, 0.0])
        rep = bound_report(p, q, 0.18)
        assert math.isnan(rep.gamma_ratio)
        assert rep.approx == 1.0

    def test_equals_standalone_functions(self):
        rng = make_rng(21)
        pairs = [sample_pair(int(rng.integers(2, 17)), rng, kind=kind)
                 for kind in ("independent", "tempered") for _ in range(100)]
        pairs += [
            # KL(q||p) infinite; then the same pair the other way round
            (Distribution([0.5, 0.5, 0.0]), Distribution([0.2, 0.3, 0.5])),
            (Distribution([0.2, 0.3, 0.5]), Distribution([0.5, 0.5, 0.0])),
            # h_q = 0: with p = q (H(q,p) = -0.0) and with p != q
            (Distribution([0.0, 1.0, 0.0]), Distribution([0.0, 1.0, 0.0])),
            (Distribution([0.3, 0.7, 0.0]), Distribution([0.0, 1.0, 0.0])),
        ]
        for p, q in pairs:
            assert_same_report(bound_report(p, q, 0.18), standalone_report(p, q, 0.18))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(vocab=STACK_VOCAB, n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
           c=st.sampled_from([0.18, 1.0]))
    def test_stack_equals_standalone_functions(self, vocab, n, seed, c):
        rng = make_rng(seed)
        p, q = random_stack(rng, n, vocab), random_stack(rng, n, vocab)
        pairs = [(Distribution(a), Distribution(b)) for a, b in zip(p, q)]
        if vocab > 1 and n:
            # a point-mass q (NaN ratio), and p = 0 where q > 0 (infinite KL)
            pairs[0] = (pairs[0][0], Distribution(np.eye(vocab)[vocab - 1]))
            pairs[-1] = (Distribution(np.eye(vocab)[0]), pairs[-1][1])
        reports = bound_reports(pairs, c)
        assert len(reports) == n
        for rep, (a, b) in zip(reports, pairs):
            assert_same_report(rep, standalone_report(a, b, c))

    def test_pair_of_mismatched_lengths_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            bound_report(Distribution([0.5, 0.5]), Distribution([0.2, 0.3, 0.5]), 0.18)


def standalone_report(p, q, c):
    """Every ``BoundReport`` field from the standalone functions of one pair."""
    h_q, h_qp = entropy(q), cross_entropy(q, p)
    return BoundReport(
        beta=acceptance_rate(p, q), tvd=tvd(p, q),
        kl_q_p=kl_divergence(q, p), pinsker=pinsker_bound(p, q),
        bh=bh_bound(p, q), approx=approx_bound(h_q, c), h_q=h_q, h_qp=h_qp,
        gamma_ratio=h_qp / h_q if h_q > 0.0 else float("nan"))


def assert_same_report(got, want):
    for name in BoundReport.__dataclass_fields__:
        # repr tells -0.0 from 0.0 and matches nan with nan
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def reference_pair(vocab_size, rng, kind, tau, eps):
    """The per-pair body ``sample_pair`` ran before pairs were drawn as one
    stack: two Distribution constructions per pair."""
    p = Distribution(rng.dirichlet(np.ones(vocab_size)))
    if kind == "independent":
        q = Distribution(rng.dirichlet(np.ones(vocab_size)))
    else:
        if tau == 1.0:
            w = p.probs
        else:
            w = p.probs ** (1.0 / tau)
            w = w / w.sum()
        if eps > 0.0:
            w = (1.0 - eps) * w + eps / vocab_size
        q = Distribution(w)
    return p, q


class TestSamplePairs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["independent", "tempered"]),
           vocab=st.integers(2, 64),
           tau=st.one_of(st.sampled_from([1.0, 0.5, 2.0, 1.5, 3.0]),
                         st.floats(0.1, 8.0)),
           eps=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
           count=st.integers(1, 50),
           seed=st.integers(0, 2**64))
    def test_stack_equals_per_pair_draws(self, kind, vocab, tau, eps, count, seed):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        pairs = sample_pairs(vocab, rng, count, kind, tau, eps)
        want = [reference_pair(vocab, ref_rng, kind, tau, eps)
                for _ in range(count)]
        assert len(pairs) == count
        for (p, q), (ref_p, ref_q) in zip(pairs, want):
            assert p.probs.tobytes() == ref_p.probs.tobytes()
            assert q.probs.tobytes() == ref_q.probs.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["independent", "tempered"])
    def test_one_pair_case(self, kind):
        rng, ref_rng = make_rng(3), make_rng(3)
        p, q = sample_pair(7, rng, kind, 1.5, 0.2)
        ref_p, ref_q = reference_pair(7, ref_rng, kind, 1.5, 0.2)
        assert p.probs.tobytes() == ref_p.probs.tobytes()
        assert q.probs.tobytes() == ref_q.probs.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rows_are_read_only_distributions(self):
        for p, q in sample_pairs(5, make_rng(4), 3, "tempered", 2.0, 0.1):
            for d in (p, q):
                assert not d.probs.flags.writeable
                assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown pair kind"):
            sample_pairs(4, make_rng(5), 2, "mirrored")
