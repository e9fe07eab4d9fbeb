"""How fast the CPU runs while a unit of work runs, from a fixed reference
computation.

A small shared VM switches, from one second to the next and for seconds to
minutes at a time, between a fast state and one up to ~2.3x slower, while the
guest sees no steal time (2-vCPU VM: a fixed 2 ms Python loop read 2.2-4.3 ms
within a minute, with process time equal to wall time). No estimator over a
run's raw times removes a state that lasts the whole run.

So every timed unit of work is read against a fixed reference computation
that does the kind of work the unit does but calls nothing in speclab, so no
change to the program moves it. A ``Meter`` takes one reading before and after
each unit and, from a timer signal, one every ``period_s`` while the unit
runs. The pace differs between the two vCPUs, and the process moves between
them; readings taken inside a unit follow it. A stretch of time read at pace
``r`` (a reading took ``r`` ns) is scaled by ``ref_ns / r``: to the time it
would take at the pace where a reading takes ``ref_ns``. A unit's wall time,
less the time of the readings inside it, is scaled by the mean of that factor
over its readings, which come evenly in time; a decode's by the mean over the
readings from the one just before it to the one just after it. Scaled times
move with the program's own cost one for one.

Decodes use ``context_reference``: small numpy vectors, Generator draws,
bisect, a context copy, dicts and tuples. The slow state slows a 16k-token
decode, which spends much of its time copying its context, about half as much
(in log terms) as the same reference with a 4-token context. So each
workload's reference copies a context as long as its own: with a 16k context,
the scaled time of a long-decode pass had a spread (sd of its log) of 0.023,
against 0.076 raw and 0.076 with a 4-token context; on experiment-suite, 0.055
with a 4-token context against 0.066 with 256 tokens and 0.19 raw.
Set-up (imports, JSON, model build) uses ``setup_reference``, pure Python, so
that reading the pace imports nothing ahead of speclab.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter_ns
from typing import Callable

_PROBS = (0.125, 0.25, 0.625)


def context_reference(context_len: int, iterations: int) -> Callable[[], float]:
    context = [i % 3 for i in range(context_len)]
    return lambda: _context_work(context, iterations)


def _context_work(context: list[int], iterations: int) -> float:
    import numpy as np  # here, so that importing this module imports no numpy

    rng = np.random.default_rng(12345)
    seen: dict[tuple, float] = {}
    acc = 0.0
    n = len(context)
    ctx = context
    for i in range(iterations):
        p = np.asarray(_PROBS, dtype=np.float64)
        if not np.all(np.isfinite(p)) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("reference vector")
        cdf = np.cumsum(p).tolist()
        j = bisect_right(cdf, float(rng.random()))
        ctx = ctx[:n] + [j]
        seen[(i & 15, j)] = acc = acc + cdf[min(j, 2)] * len(ctx)
    return acc


def setup_reference() -> int:
    seen: dict[tuple, int] = {}
    acc = 0
    window = list(range(64))
    for i in range(300):
        key = (i & 7, i & 15)
        seen[key] = seen.get(key, 0) + 1
        window = window[1:] + [i]
        acc += len(str(i)) + seen[key]
    return acc


class Meter:
    """Pace readings around and inside timed units, and a clock that leaves
    out the time those inside take.

    ``ref_ns`` is about the reference's time in the fast state of the 2-vCPU
    VM the benchmark was built on, so scaled times read about as wall times
    there. Readings inside units come every ``period_s``; they take 2-4 %
    of a unit's time, which ``clock`` leaves out.
    """

    def __init__(self, reference: Callable[[], object], ref_ns: int, period_s: float):
        self.reference = reference
        self.ref_ns = ref_ns
        self.period_s = period_s
        self.hidden_ns = 0  # total time of readings taken inside units
        self.sampling = True  # take readings inside units
        self._inside: list[tuple[int, int]] = []  # (clock() at start, ns)
        self._last: tuple[int, int] | None = None
        signal.signal(signal.SIGALRM, self._tick)

    def reading(self) -> tuple[int, int]:
        """One reference run taken outside units: (clock() at its start,
        its wall time in ns)."""
        t0 = perf_counter_ns()
        self.reference()
        return t0 - self.hidden_ns, perf_counter_ns() - t0

    def clock(self) -> int:
        """perf_counter_ns() less the time of readings taken inside units."""
        while True:
            hidden = self.hidden_ns
            now = perf_counter_ns()
            if hidden == self.hidden_ns:  # no reading ran in between
                return now - hidden

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        self.reference()
        t1 = perf_counter_ns()
        self._inside.append((t0 - self.hidden_ns, t1 - t0))
        self.hidden_ns += perf_counter_ns() - t0

    def open_unit(self) -> None:
        if self._last is None:
            self._last = self.reading()
        self._inside = []
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def close_unit(self) -> list[tuple[int, int]]:
        """End the unit; its readings, (clock() at start, ns), in time order:
        the one before it, those inside, the one after."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        before, self._last = self._last, self.reading()
        return [before, *self._inside, self._last]

    def scale(self, readings: list[tuple[int, int]]) -> float:
        """Factor from a unit's wall time to scaled time."""
        return self.ref_ns * sum(1 / ns for _, ns in readings) / len(readings)

    def scale_at(self, readings: list[tuple[int, int]], starts, lengths) -> list[float]:
        """Factors for stretches inside a unit, each from the readings
        between the one just before its start and the one just after its
        end (``starts`` on ``clock()``, ``lengths`` in ns)."""
        times = [t for t, _ in readings]
        cum = [0.0, *accumulate(self.ref_ns / ns for _, ns in readings)]
        last = len(times) - 1
        out = []
        for t, n in zip(starts, lengths):
            i = max(bisect_right(times, t) - 1, 0)
            j = min(max(bisect_left(times, t + n), i + 1), last)
            out.append((cum[j + 1] - cum[i]) / (j + 1 - i))
        return out

    def reset(self) -> None:
        """Forget the last reading, as between passes."""
        self._last = None
