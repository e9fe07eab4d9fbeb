"""Finite categorical distributions and the information-theoretic primitives.

All probability arithmetic is 64-bit float, all logarithms natural (nats).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

# Tolerances for validating probability vectors.
SUM_TOL = 1e-9
NONNEG_TOL = 1e-12

Rng = np.random.Generator


def make_rng(seed) -> Rng:
    """Seeded PCG64 generator. Same seed and call sequence, same draws.

    ``seed`` may be an int or a sequence of ints; sequences give cheap
    independent sub-streams (e.g. ``make_rng([seed, run_index])``).
    """
    return np.random.default_rng(seed)


class Distribution:
    """A normalized probability vector over a finite vocabulary.

    Entries are non-negative and sum to 1 within ``SUM_TOL``. Instances are
    immutable; derived quantities (entropy, sampling cdf, residuals against
    other rows) are memoized.
    """

    __slots__ = ("probs", "_cdf", "_entropy", "_residuals")

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("invalid distribution: need a non-empty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("invalid distribution: non-finite entry")
        if np.any(p < -NONNEG_TOL):
            raise ValueError("invalid distribution: negative entry")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"invalid distribution: entries sum to {p.sum()!r}, not 1")
        if np.any(p < 0.0):
            p = np.maximum(p, 0.0)  # clamp roundoff negatives within tolerance
        p = p.copy() if p is probs else p
        p.setflags(write=False)
        self.probs = p
        self._cdf = None
        self._entropy = None
        self._residuals = None

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()})"

    def cdf(self) -> list[float]:
        if self._cdf is None:
            self._cdf = np.cumsum(self.probs).tolist()
        return self._cdf


def normalize(weights) -> Distribution:
    """Scale a non-negative weight vector to sum to 1."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("invalid weight: need a non-empty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("invalid weight: non-finite entry")
    if np.any(w < 0.0):
        raise ValueError("invalid weight: negative entry")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("degenerate weights: all zero")
    return Distribution(w / total)


def normalize_rows(rows) -> list[Distribution]:
    """``[normalize(r) for r in rows]``, with the checks run once over the
    stacked rows instead of once per row.

    Rows the stacked checks cannot vouch for (ragged, nested, non-finite,
    negative, all-zero) go through ``normalize`` one by one, which raises
    the first bad row's own error.
    """
    try:
        w = np.asarray(rows, dtype=np.float64)
    except (ValueError, TypeError):
        w = np.empty(0)
    if w.ndim == 2 and w.size and np.all(np.isfinite(w)) and np.all(w >= 0.0):
        total = w.sum(axis=1, keepdims=True)
        if np.all(total > 0.0):
            p = w / total
            if np.all(np.abs(p.sum(axis=1) - 1.0) <= SUM_TOL):
                p.setflags(write=False)
                return [_validated(row) for row in p]
    return [normalize(r) for r in rows]


def _validated(p: np.ndarray) -> Distribution:
    """Wrap a read-only row that already passed Distribution's checks."""
    d = Distribution.__new__(Distribution)
    d.probs = p
    d._cdf = None
    d._entropy = None
    d._residuals = None
    return d


def entropy(d: Distribution) -> float:
    """H(d) = -sum d(x) ln d(x), with 0 ln 0 = 0. In [0, ln V]."""
    if d._entropy is None:
        p = d.probs
        nz = p[p > 0.0]
        h = -float(np.dot(nz, np.log(nz)))
        d._entropy = h if h > 0.0 else 0.0
    return d._entropy


def cross_entropy(q: Distribution, p: Distribution) -> float:
    """H(q,p) = -sum q(x) ln p(x); +inf if q puts mass where p has none."""
    _check_lengths(q, p)
    mask = q.probs > 0.0
    pm = p.probs[mask]
    if np.any(pm == 0.0):
        return float("inf")
    return float(-np.dot(q.probs[mask], np.log(pm)))


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """KL(q||p) = H(q,p) - H(q), clamped at 0 from below."""
    ce = cross_entropy(q, p)
    if ce == float("inf"):
        return ce
    kl = ce - entropy(q)
    return kl if kl > 0.0 else 0.0


def tvd(p: Distribution, q: Distribution) -> float:
    """Total variational distance, (1/2) sum |p(x) - q(x)|."""
    _check_lengths(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def sample(d: Distribution, rng: Rng) -> int:
    """Draw a token index with probability d(token)."""
    r = rng.random()
    idx = bisect_right(d.cdf(), r)
    if idx >= d.probs.size:
        # r landed past the last cumulative value by roundoff; return the
        # last positive-mass token
        idx = d.probs.size - 1
        while idx > 0 and d.probs[idx] == 0.0:
            idx -= 1
    return idx


def residual(p: Distribution, q: Distribution) -> Distribution:
    """Normalized positive part of (p - q), the correction distribution.

    Sampling from it on rejection is what preserves p exactly; its support
    lies in {x : p(x) > q(x)}. Memoized on ``p`` per ``q`` object, so a
    repeat rejection against the same pair of rows reuses one Distribution
    and its cdf; a degenerate pair raises on every call.
    """
    if p._residuals is None:
        p._residuals = {}
    r = p._residuals.get(q)
    if r is None:
        _check_lengths(p, q)
        diff = p.probs - q.probs
        if float(np.abs(diff).max()) <= NONNEG_TOL:
            raise ValueError("degenerate residual: distributions coincide")
        pos = np.maximum(diff, 0.0)
        r = p._residuals[q] = Distribution(pos / pos.sum())
    return r


def argmax(d: Distribution) -> int:
    """Index of the largest probability; ties break to the smallest index."""
    return int(np.argmax(d.probs))


def _check_lengths(a: Distribution, b: Distribution) -> None:
    if a.probs.size != b.probs.size:
        raise ValueError(
            f"length mismatch: {a.probs.size} vs {b.probs.size} entries"
        )
