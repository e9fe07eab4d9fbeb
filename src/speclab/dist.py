"""Finite categorical distributions and the information-theoretic primitives.

All probability arithmetic is 64-bit float, all logarithms natural (nats).
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from itertools import chain, repeat

import numpy as np

# Tolerances for validating probability vectors.
SUM_TOL = 1e-9
NONNEG_TOL = 1e-12

Rng = np.random.Generator

# Uniforms a draw stream fetches with one ``rng.random(n)`` call, and the
# fewest tokens a sampling decode must have to go to draw through a stream:
# opening one and rewinding what it fetched ahead costs a shorter decode
# more than it saves.
BLOCK = 64


def make_rng(seed) -> Rng:
    """Seeded PCG64 generator. Same seed and call sequence, same draws.

    ``seed`` may be an int or a sequence of ints; sequences give cheap
    independent sub-streams (e.g. ``make_rng((seed, run_index))``).
    """
    return np.random.default_rng(seed)


class Uniforms:
    """The values of successive ``rng.random()`` calls, fetched in blocks.

    ``random()`` hands out ``rng.random(BLOCK).tolist()`` blocks value by
    value, all in C. ``close()`` steps ``rng``, which must be
    ``rewindable``, back over the values fetched but not handed out, so it
    ends exactly where per-call draws would leave it, and a generator shared
    with later callers sees no difference. A closed stream hands out
    nothing; used as a context manager, it closes on exit. Nothing it holds
    refers back to it, so dropping the last reference frees it at once.
    """

    __slots__ = ("rng", "random", "_draws", "_closed", "__weakref__")

    def __init__(self, rng: Rng):
        self.rng = rng
        self._closed = closed = []  # non-empty once closed
        draw = rng.random

        def fetch(n):
            if closed:
                raise StopIteration  # ends the chain
            return draw(n).tolist()

        self._draws = chain.from_iterable(map(fetch, repeat(BLOCK)))
        self.random = self._draws.__next__

    def __enter__(self) -> Uniforms:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Rewind ``rng`` over the values fetched but not handed out, and
        keep any 32-bit half-word it had buffered."""
        if self._closed:
            return
        self._closed.append(True)
        unused = len(list(self._draws))
        if unused:
            bit_generator = self.rng.bit_generator
            state = bit_generator.state
            bit_generator.advance(_PERIOD - unused)
            rewound = bit_generator.state
            rewound["has_uint32"] = state["has_uint32"]
            rewound["uinteger"] = state["uinteger"]
            bit_generator.state = rewound


def rewindable(rng) -> bool:
    """Whether a ``Uniforms`` stream over ``rng`` leaves it exactly where
    per-call draws would: a numpy Generator over PCG64 or PCG64DXSM, whose
    ``random()`` takes one step of a 128-bit LCG that ``advance`` can step
    back. Other generators and duck-typed rngs draw per call."""
    return (type(rng) is np.random.Generator
            and type(rng.bit_generator) in _REWINDABLE)


def draw_stream(rng) -> Uniforms | nullcontext:
    """The context a batch draws from ``rng`` in: over a ``rewindable``
    generator a ``Uniforms`` stream, closed on exit, also when the body
    raises, so ``rng`` ends where per-call draws leave it; over any other
    rng, None included, ``rng`` itself. An unused stream rewinds nothing."""
    return Uniforms(rng) if rewindable(rng) else nullcontext(rng)


_REWINDABLE = (np.random.PCG64, np.random.PCG64DXSM)
_PERIOD = 1 << 128  # advancing by _PERIOD - k steps a PCG64 back k draws


# numpy's SeedSequence hash constants (uint32 words) and PCG64's 128-bit LCG
# multiplier as its high and low 64-bit halves.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MULT_HI, _MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32, _MASK64 = 0xFFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF
_U64 = np.uint64


class KeyedStreams:
    """The ``random()`` streams of many ``make_rng`` keys, stepped together.

    Lane k's i-th value from ``random`` is bit for bit the i-th
    ``make_rng(keys[k]).random()``. A 2-d ``uint32`` array with four columns
    holds one 4-part key per row, and all its rows are seeded here at once:
    numpy's ``SeedSequence`` hashing, then PCG64's seeding. Each key of any
    other sequence takes its seeded state from
    ``make_rng(key).bit_generator.state``. Each lane's PCG64 state and
    increment are 128-bit integers held as uint64 high and low halves; a
    step multiplies through 32-bit limbs and outputs XSL-RR, as numpy's
    PCG64 does. ``keep`` drops lanes; the lanes left keep their own streams.
    """

    __slots__ = ("_state",)

    def __init__(self, keys):
        if isinstance(keys, np.ndarray) and keys.dtype == np.uint32 and keys.shape[1:] == (4,):
            self._state = _seeded_pcg64(keys)
            return
        self._state = state = np.empty((4, len(keys)), _U64)
        for i, key in enumerate(keys):
            st = make_rng(key).bit_generator.state["state"]
            s, inc = st["state"], st["inc"]
            state[:, i] = (s >> 64, s & _MASK64, inc >> 64, inc & _MASK64)

    def __len__(self) -> int:
        return self._state.shape[1]

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the lanes where ``mask`` is true, in their order."""
        self._state = self._state[:, mask]

    def random(self) -> np.ndarray:
        """Each lane's next ``random()`` value, as a float64 array."""
        hi, lo = _lcg_step(self._state)
        x = hi ^ lo  # XSL-RR: fold the halves, rotate right by the top 6 bits
        rot = hi >> _U64(58)
        right = x >> rot
        rot = _U64(64) - rot
        rot &= _U64(63)
        x <<= rot
        x |= right
        x >>= _U64(11)
        return x * (1.0 / 9007199254740992.0)


def _lcg_step(state: np.ndarray):
    """Set the rows ``hi, lo`` of ``state = [hi, lo, inc_hi, inc_lo]`` to
    ``(hi, lo) * _MULT + (inc_hi, inc_lo)`` modulo 2**128, and return them.

    The high half takes ``hi * _MULT_LO + lo * _MULT_HI``, the high 64 bits
    of ``lo * _MULT_LO`` (summed from 32-bit limbs) and the carry out of
    the low half."""
    hi, lo, inc_hi, inc_lo = state
    lo0, lo1 = lo & _U64(_MASK32), lo >> _U64(32)
    t = lo0 * _U64(_MULT_LO & _MASK32)
    t >>= _U64(32)
    t += lo1 * _U64(_MULT_LO & _MASK32)
    lo0 *= _U64(_MULT_LO >> 32)
    lo0 += t & _U64(_MASK32)
    lo0 >>= _U64(32)
    t >>= _U64(32)
    t += lo0
    lo1 *= _U64(_MULT_LO >> 32)
    t += lo1  # the high 64 bits of lo * _MULT_LO
    t += lo * _U64(_MULT_HI)
    hi *= _U64(_MULT_LO)
    hi += t
    hi += inc_hi
    lo *= _U64(_MULT_LO)
    lo += inc_lo
    hi += lo < inc_lo  # the carry out of the low half
    return hi, lo


def _seeded_pcg64(words: np.ndarray) -> np.ndarray:
    """``[hi, lo, inc_hi, inc_lo]`` of ``default_rng(row)``'s PCG64 state for
    each row of the ``(n, 4)`` uint32 array ``words``, seeded as
    ``pcg64_set_seed`` seeds it from ``_generate_state(words)``."""
    state = _generate_state(words)
    hi, lo, seq_hi, seq_lo = state
    # inc = seq << 1 | 1 replaces seq; the state, stepped from 0 to inc,
    # takes the seed and is stepped again.
    seq_hi <<= _U64(1)
    seq_hi |= seq_lo >> _U64(63)
    seq_lo <<= _U64(1)
    seq_lo |= _U64(1)
    hi += seq_hi
    lo += seq_lo
    hi += lo < seq_lo
    _lcg_step(state)
    return state


def _generate_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, uint64)`` of each row of the
    ``(n, 4)`` uint32 array ``words``, as the rows ``[seed hi, seed lo, seq
    hi, seq lo]``: the row's four entropy words fill and mix the pool, and
    eight words drawn from the pool pair up little-endian. The hashing runs
    on uint32 arrays, which wrap as ``SeedSequence``'s uint32 words do."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value

    pool = [hashmix(w) for w in words.T]  # as long as the key
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * np.uint32(_MIX_L)
                mixed -= hashmix(pool[src]) * np.uint32(_MIX_R)
                mixed ^= mixed >> np.uint32(16)
                pool[dst] = mixed
    state = np.empty((4, len(words)), _U64)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        if i % 2:
            state[i // 2] |= value.astype(_U64) << _U64(32)
        else:
            state[i // 2] = value
    return state


class Distribution:
    """A normalized probability vector over a finite vocabulary.

    Entries are non-negative and sum to 1 within ``SUM_TOL``. Instances are
    immutable; derived quantities (entropy, argmax, sampling cdf, the probs
    as a Python list, residuals against other rows) are memoized.
    """

    __slots__ = ("probs", "_list", "_cdf", "_entropy", "_argmax", "_residuals")

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
        self._list = None
        self._cdf = None
        self._entropy = None
        self._argmax = None
        self._residuals = None

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()})"

    def probs_list(self) -> list[float]:
        """``probs.tolist()``: indexing it reads a float faster than indexing
        ``probs`` reads a numpy scalar, and the values are the same. Hot
        paths read the ``_list`` slot and call this only to fill it."""
        if self._list is None:
            self._list = self.probs.tolist()
        return self._list

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


def normalize_rows(rows) -> np.ndarray:
    """The stack of ``normalize(r).probs`` for every r in ``rows``: a 2-d,
    read-only float array, checked once as a stack instead of once per row.

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
            try:
                return checked_rows(w / total)
            except ValueError:
                pass
    dists = [normalize(r) for r in rows]
    return checked_rows(np.array([d.probs for d in dists]) if dists else np.empty((0, 0)))


def checked_rows(p: np.ndarray) -> np.ndarray:
    """``p``, a 2-d float array, made read-only once every row is checked to
    be a distribution: every entry finite and non-negative, every row
    summing to 1 within ``SUM_TOL``. A NaN or -inf entry fails the minimum
    check, a +inf entry its row's sum check."""
    if not (p.min(initial=0.0) >= 0.0
            and abs(p.sum(axis=1) - 1.0).max(initial=0.0) <= SUM_TOL):
        raise ValueError("invalid distribution: a stacked row is not a distribution")
    p.setflags(write=False)
    return p


def unchecked_distribution(probs: np.ndarray) -> Distribution:
    """A Distribution over ``probs``, which the caller has already checked
    to be a distribution; the array is kept as it is, not copied."""
    d = Distribution.__new__(Distribution)
    d.probs = probs
    d._list = d._cdf = d._entropy = d._argmax = d._residuals = None
    return d


def distribution_rows(p: np.ndarray) -> list[Distribution]:
    """The rows of the 2-d float array ``p`` as Distributions, checked once
    as a stack (``checked_rows``). The rows share ``p``, which is made
    read-only."""
    return list(map(unchecked_distribution, checked_rows(p)))


def entropy(d: Distribution) -> float:
    """H(d) = -sum d(x) ln d(x), with 0 ln 0 = 0. In [0, ln V]."""
    if d._entropy is None:
        d._entropy = _row_entropy(d.probs)
    return d._entropy


def _row_entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    h = -float(np.dot(nz, np.log(nz)))
    return h if h > 0.0 else 0.0


def row_entropies(p: np.ndarray) -> np.ndarray:
    """``entropy`` of every row of the 2-d stack ``p``, bit for bit.

    Rows with no zero entry go through one ``row_dots``; a row with a zero
    keeps ``entropy``'s masked dot, since padding ``0 ln 0`` with zeros
    changes the length of the dot and so its rounding.
    """
    h = np.empty(len(p))
    full = np.all(p > 0.0, axis=1)
    some = p[full]
    h[full] = -row_dots(some, np.log(some))
    for k in np.flatnonzero(~full).tolist():
        h[k] = _row_entropy(p[k])
    return np.where(h > 0.0, h, 0.0)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[k], b[k])`` for every row k of two 2-d stacks of one shape,
    bit for bit: numpy runs a stacked matmul of ``(1, V)`` by ``(V, 1)``
    blocks through the same vector dot as ``np.dot`` of two vectors, where
    a row-wise sum of products rounds differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


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
    cdf = d._cdf or d.cdf()
    idx = bisect_right(cdf, r)
    if idx >= len(cdf):
        # r landed past the last cumulative value by roundoff; return the
        # last positive-mass token
        idx = len(cdf) - 1
        while idx > 0 and d.probs[idx] == 0.0:
            idx -= 1
    return idx


def sample_rows(probs: np.ndarray, cdf: np.ndarray, rows: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """``sample`` of the row ``probs[rows[k]]`` with the uniform ``u[k]``, for
    every k, where ``cdf`` is ``np.cumsum(probs, axis=1)``.

    Counts the entries of the row's cumsum at or below ``u[k]``, as
    ``sample``'s ``bisect_right`` over the same cumsum does; a ``u[k]`` at or
    past the last cumulative value, which roundoff can leave below 1, gets
    the row's last positive-mass token.
    """
    vocab = probs.shape[1]
    token = (cdf[rows] <= u[:, None]).sum(axis=1)
    over = token == vocab
    if over.any():
        token[over] = vocab - 1 - np.argmax(probs[rows[over], ::-1] > 0.0, axis=1)
    return token


def residual(p: Distribution, q: Distribution) -> Distribution:
    """Normalized positive part of (p - q), the correction distribution.

    Sampling from it on rejection is what preserves p exactly; its support
    lies in {x : p(x) > q(x)}. Any positive mass is normalized, however
    small. When there is none (p and q coincide, or differ only where p is
    below q by roundoff), p itself is returned: a rejection there has
    probability zero up to roundoff, and p is what the correction
    preserves. Memoized on ``p`` per ``q`` object, so a repeat rejection
    against the same pair of rows reuses one Distribution and its cdf; the
    fallback is not memoized, since ``p`` holding itself would keep it
    alive until a garbage-collector pass.
    """
    if p._residuals is None:
        p._residuals = {}
    r = p._residuals.get(q)
    if r is None:
        _check_lengths(p, q)
        pos = np.maximum(p.probs - q.probs, 0.0)
        total = pos.sum()
        if not total > 0.0:
            return p
        pos /= total
        pos.setflags(write=False)
        r = p._residuals[q] = unchecked_distribution(pos)
    return r


def argmax(d: Distribution) -> int:
    """Index of the largest probability; ties break to the smallest index."""
    if d._argmax is None:
        d._argmax = int(np.argmax(d.probs))
    return d._argmax


def _check_lengths(a: Distribution, b: Distribution) -> None:
    if a.probs.size != b.probs.size:
        raise ValueError(
            f"length mismatch: {a.probs.size} vs {b.probs.size} entries"
        )
