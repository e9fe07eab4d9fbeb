"""Acceptance-rate theory: exact rate, KL-based lower bounds, and the
entropy-ratio validity analysis with its special functions.

Bounds may be negative (vacuous); they are returned raw so bound curves can
be compared below feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import (Distribution, Rng, cross_entropy, distribution_rows,
                   kl_divergence, row_dots, row_entropies)

_EPS = 1e-15
_FPMIN = 1e-300
_ITMAX = 400


class ConvergenceError(RuntimeError):
    """Special function iteration failed to converge."""


def acceptance_rate(p: Distribution, q: Distribution) -> float:
    """Expected probability a draft token from q passes verification against p.

    beta = sum_x min(p(x), q(x)) = 1 - TVD(p, q).
    """
    return float(np.minimum(p.probs, q.probs).sum())


def pinsker_bound(p: Distribution, q: Distribution) -> float:
    """Lower bound on the acceptance rate: 1 - sqrt(KL(q||p) / 2).

    May be negative; -inf when the supports mismatch (infinite KL). Equals 1
    iff q = p.
    """
    return _pinsker(kl_divergence(q, p))


def _pinsker(kl: float) -> float:
    if kl == float("inf"):
        return float("-inf")
    return 1.0 - math.sqrt(0.5 * kl)


def bh_bound(p: Distribution, q: Distribution) -> float:
    """Bretagnolle-Huber alternative: 1 - sqrt(1 - exp(-KL(q||p))).

    Always in (0, 1] for finite KL; 0 in the infinite-KL limit.
    """
    return _bh(kl_divergence(q, p))


def _bh(kl: float) -> float:
    if kl == float("inf"):
        return 0.0
    return 1.0 - math.sqrt(-math.expm1(-kl))


def approx_bound(h_q: float, c: float) -> float:
    """Draft-only surrogate bound 1 - sqrt(c * h_q); equals 1 iff h_q = 0."""
    if h_q < 0:
        raise ValueError("h_q must be non-negative")
    if c <= 0:
        raise ValueError("c must be positive")
    return 1.0 - math.sqrt(c * h_q)


def validity_condition(gamma_ratio: float, c: float) -> bool:
    """Whether the surrogate bound is conservative: gamma_ratio <= 2c + 1.

    An undefined ratio (NaN, from zero draft entropy) is treated as valid.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if math.isnan(gamma_ratio):
        return True
    return gamma_ratio <= 2.0 * c + 1.0


def lower_incomplete_gamma(alpha: float, z: float) -> float:
    """gamma(alpha, z) = integral of t^(alpha-1) e^(-t) dt from 0 to z.

    Series expansion for z < alpha + 1, Lentz continued fraction on the
    upper-incomplete complement otherwise.
    """
    return regularized_lower_incomplete_gamma(alpha, z) * math.exp(math.lgamma(alpha))


def regularized_lower_incomplete_gamma(alpha: float, z: float) -> float:
    """P(alpha, z) = gamma(alpha, z) / Gamma(alpha), in [0, 1]."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if z < 0:
        raise ValueError("z must be non-negative")
    if z == 0.0:
        return 0.0
    if z < alpha + 1.0:
        return _gamma_series(alpha, z)
    return 1.0 - _gamma_continued_fraction(alpha, z)


def _log_prefactor(alpha: float, z: float) -> float:
    return -z + alpha * math.log(z) - math.lgamma(alpha)


def _gamma_series(alpha: float, z: float) -> float:
    ap = alpha
    term = 1.0 / alpha
    total = term
    for _ in range(_ITMAX):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(_log_prefactor(alpha, z))
    raise ConvergenceError(
        f"special function convergence: series for P({alpha}, {z})")


def _gamma_continued_fraction(alpha: float, z: float) -> float:
    # Modified Lentz evaluation of the upper-incomplete fraction Q(alpha, z).
    b = z + 1.0 - alpha
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - alpha)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(_log_prefactor(alpha, z))
    raise ConvergenceError(
        f"special function convergence: continued fraction for Q({alpha}, {z})")


def gamma_validity_prob(alpha: float, beta_rate: float, c: float) -> float:
    """P(X <= 2c) for X ~ Gamma(alpha, beta_rate), i.e. P(1 + X <= 2c + 1).

    Models the entropy ratio as 1 + X; monotone increasing in c.
    """
    if alpha <= 0 or beta_rate <= 0 or c <= 0:
        raise ValueError("alpha, beta_rate, c must be positive")
    return regularized_lower_incomplete_gamma(alpha, beta_rate * 2.0 * c)


def gaussian_validity_prob(mu: float, sigma: float, c: float) -> float:
    """Phi((2c + 1 - mu) / sigma) under a normal model of the entropy ratio."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = (2.0 * c + 1.0 - mu) / sigma
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass
class GammaFit:
    """Method-of-moments fit of the shifted ratio samples."""

    alpha: float
    beta_rate: float
    n_clamped: int
    n_excluded: int


def fit_gamma_ratio(samples: Sequence[float]) -> GammaFit:
    """Fit Gamma(alpha, beta_rate) to X = ratio - 1 by method of moments.

    Non-finite samples (undefined or infinite ratios) are excluded; finite
    samples below 1 are clamped to 1. Both counts are reported.
    """
    finite = [s for s in samples if math.isfinite(s)]
    n_excluded = len(samples) - len(finite)
    n_clamped = sum(1 for s in finite if s < 1.0)
    x = np.asarray([max(s, 1.0) - 1.0 for s in finite])
    if x.size < 2:
        raise ValueError("degenerate fit: need at least 2 finite samples")
    mean = float(x.mean())
    var = float(x.var())
    if var <= 0.0:
        raise ValueError("degenerate fit: zero variance")
    return GammaFit(alpha=mean * mean / var, beta_rate=mean / var,
                    n_clamped=n_clamped, n_excluded=n_excluded)


def sample_pair(vocab_size: int, rng: Rng, kind: str = "independent",
                tau: float = 2.0, eps: float = 0.1):
    """One random (p, q) pair: ``sample_pairs`` with ``count`` 1."""
    return sample_pairs(vocab_size, rng, 1, kind, tau, eps)[0]


def sample_pairs(vocab_size: int, rng: Rng, count: int,
                 kind: str = "independent", tau: float = 2.0,
                 eps: float = 0.1) -> list[tuple[Distribution, Distribution]]:
    """``count`` random (p, q) pairs for property suites, drawn as one stack.

    p is symmetric Dirichlet(1); q is either an independent draw (far pairs)
    or a tempered/mixed variant of p (near pairs). With alpha all ones,
    numpy's ``dirichlet`` fills a stack row by row, each row the values one
    call would give, and the power, row sum and eps-mix act on each row as
    on the row alone. So the pairs and the generator's end state are those
    of ``count`` one-pair draws (p, then q for ``independent``). Rows are
    checked once, as a stack.
    """
    ones = np.ones(vocab_size)
    if kind == "independent":
        rows = rng.dirichlet(ones, size=2 * count)  # p, q, p, q, ...
    elif kind == "tempered":
        p = rng.dirichlet(ones, size=count)
        if tau == 1.0:
            w = p
        else:
            w = p ** (1.0 / tau)
            w /= w.sum(axis=1, keepdims=True)
        if eps > 0.0:
            w = (1.0 - eps) * w + eps / vocab_size
        rows = np.concatenate((p, w), axis=1).reshape(2 * count, vocab_size)
    else:
        raise ValueError(f"unknown pair kind: {kind!r}")
    dists = distribution_rows(rows)
    return list(zip(dists[0::2], dists[1::2]))


@dataclass
class BoundReport:
    """Every acceptance-rate quantity for one (target, draft) distribution pair.
    ``bounds-eval`` writes one column per field, in this order, then ``valid``."""

    beta: float
    tvd: float
    kl_q_p: float
    pinsker: float
    bh: float
    approx: float
    h_q: float
    h_qp: float
    gamma_ratio: float  # NaN when h_q = 0 (undefined)


def bound_report(p: Distribution, q: Distribution, c: float) -> BoundReport:
    """``bound_reports`` of the one pair (p, q)."""
    return bound_reports([(p, q)], c)[0]


def bound_reports(pairs: Sequence[tuple[Distribution, Distribution]],
                  c: float) -> list[BoundReport]:
    """The standalone functions' values for every (p, q) pair over one
    vocab, bit for bit, computed over the stacks of the pairs' rows.

    β and TVD are row sums; H(q) is ``row_entropies``; H(q,p) is one
    ``row_dots``, except on a pair with a zero entry, which keeps
    ``cross_entropy``'s mask (and its +inf). KL(q||p) is derived from the
    two as ``kl_divergence`` does.
    """
    if not pairs:
        return []
    p = np.array([pair[0].probs for pair in pairs])
    q = np.array([pair[1].probs for pair in pairs])
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: stacks of shapes {p.shape} and {q.shape}")
    beta = np.minimum(p, q).sum(axis=1).tolist()
    tvd = (0.5 * np.abs(p - q).sum(axis=1)).tolist()
    h_q = row_entropies(q).tolist()
    full = np.all(p > 0.0, axis=1) & np.all(q > 0.0, axis=1)
    h_qp = np.empty(len(pairs))
    h_qp[full] = -row_dots(q[full], np.log(p[full]))
    h_qp = h_qp.tolist()
    for k in np.flatnonzero(~full).tolist():
        h_qp[k] = cross_entropy(pairs[k][1], pairs[k][0])
    reports = []
    for b, t, hq, hqp in zip(beta, tvd, h_q, h_qp):
        kl = hqp - hq  # +inf when q puts mass where p has none
        kl = kl if kl > 0.0 else 0.0
        reports.append(BoundReport(
            beta=b,
            tvd=t,
            kl_q_p=kl,
            pinsker=_pinsker(kl),
            bh=_bh(kl),
            approx=approx_bound(hq, c),
            h_q=hq,
            h_qp=hqp,
            gamma_ratio=hqp / hq if hq > 0.0 else float("nan"),
        ))
    return reports
