"""Span tracing of speclab from outside: wrap the public functions where each
caller resolves them, record spans in memory, derive self time per layer.

A span is (name, start, end, parent span, decode id). Self time is a span's
duration minus the durations of its direct children. Nothing in ``src/`` is
edited: the wrappers are installed by ``Tracer.patched`` and removed when it
exits.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from speclab import bounds, cli, dist, engine, harness, models, policies

_MODULES = (dist, models, engine, policies, bounds, harness, cli)

# Public functions and the span each one records. Every module attribute
# that is one of these objects is replaced, so a call is traced whichever
# module it is resolved through (``speclab.engine.sample`` as well as
# ``speclab.dist.sample``).
_SPAN_OF = {
    dist.sample: "dist.sample",
    dist.residual: "dist.residual",
    dist.entropy: "dist.entropy",
    dist.argmax: "dist.argmax",
    dist.make_rng: "dist.make_rng",
    dist.kl_divergence: "dist.kl_divergence",
    engine.speculative_decode: "engine.decode",
    engine.autoregressive_decode: "engine.autoregressive",
    engine.verify_sampling: "engine.verify",
    engine.verify_greedy: "engine.verify",
    engine.correct_sampling: "engine.correct",
    engine.correct_greedy: "engine.correct",
    harness.run_experiment: "harness.experiment",
    harness.oracle_draft_length: "harness.oracle",
    harness.oracle_length_stats: "harness.oracle_stats",
    harness.kl_trace: "harness.kl_trace",
    harness.summarize_experiment: "harness.summarize",
    harness.exact_sequence_probs: "harness.exact_enum",
    bounds.bound_report: "bounds.bound_report",
    bounds.sample_pair: "bounds.sample_pair",
    models.tabular_from_spec: "models.load",
    cli.main: "cli.main",
    cli.load_config: "cli.load_config",
    cli.load_model_spec: "cli.load_model",
    cli.write_atomic: "cli.write",
}
_POLICY_CLASSES = (policies.ConstantPolicy, policies.HeuristicPolicy,
                   policies.SvipPolicy)

# Spans written to disk per run, at most; a traced experiment-suite pass
# records about half a million.
MAX_SPANS_WRITTEN = 250_000


class Tracer:
    """In-memory span recorder with per-pass aggregation.

    Spans recorded between ``begin`` and ``end`` form one group; ``end``
    folds the group into per-name totals (only for groups marked as timed
    passes) and clears the buffers.
    """

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.col_name = array("i")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("i")
        self.col_decode = array("i")
        self.stack = [-1]
        self.decode = [-1]
        self.group_counts: Counter = Counter()  # event counts, open group
        self.counts: Counter = Counter()   # event counts summed over passes
        self.calls: Counter = Counter()    # span name -> calls, over passes
        self.self_ns: Counter = Counter()  # span name -> self time, over passes
        self.total_ns: Counter = Counter() # span name -> duration, over passes
        self.load_ns: list[int] = []      # duration of every model load
        self.passes = 0
        self.last_spans: dict[str, np.ndarray] | None = None
        self._instances: list[object] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, fn, name: str, after=None, decode: bool = False):
        """Return ``fn`` recording one span per call.

        ``after(args, result)`` runs once the span has ended, so its cost is
        charged to the caller's span, not to this one.
        """
        nid = self._id(name)
        col_name, col_start, col_end = self.col_name, self.col_start, self.col_end
        col_parent, col_decode = self.col_parent, self.col_decode
        stack, cur_decode = self.stack, self.decode

        def traced(*args, **kwargs):
            idx = len(col_name)
            col_name.append(nid)
            col_parent.append(stack[-1])
            col_start.append(0)
            col_end.append(0)
            if decode:
                col_decode.append(idx)
                outer = cur_decode[0]
                cur_decode[0] = idx
            else:
                col_decode.append(cur_decode[0])
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                col_end[idx] = perf_counter_ns()
                col_start[idx] = t0
                stack.pop()
                if decode:
                    cur_decode[0] = outer
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- hooks that count work at a layer boundary ---------------------------

    def _count_decode(self, args, r) -> None:
        c = self.group_counts
        c["engine.decodes"] += 1
        c["engine.rounds"] += len(r.rounds)
        c["engine.proposed"] += sum(len(rec.proposed_tokens) for rec in r.rounds)
        c["engine.accepted"] += sum(rec.accepted_count for rec in r.rounds)
        c["engine.draft_calls"] += r.draft_forward_calls
        c["engine.target_calls"] += r.target_forward_calls
        c["engine.probe_calls"] += r.draft_probe_calls

    def _count_oracle(self, args, n) -> None:
        self.group_counts["harness.oracle.tokens"] += n

    def _count_write(self, args, result) -> None:
        self.group_counts["cli.write.bytes"] += len(args[1].encode("utf-8"))

    def _wrap_target(self, args, model) -> None:
        self.wrap_model(model, "models.target")

    def _wrap_draft(self, args, model) -> None:
        self.wrap_model(model, "models.draft")

    def wrap_model(self, model, name: str) -> None:
        """Trace ``next_distribution`` on one model instance."""
        model.next_distribution = self.wrap(type(model).next_distribution.__get__(model),
                                            name)
        self._instances.append(model)

    def _policy_ctor(self, cls):
        construct = self.wrap(cls, "policies.construct")

        def make(*args, **kwargs):
            policy = construct(*args, **kwargs)
            policy.should_continue = self.wrap(policy.should_continue,
                                               "policies.should_continue")
            policy.on_round_end = self.wrap(policy.on_round_end,
                                            "policies.on_round_end")
            return policy

        return make

    @contextmanager
    def patched(self, lab_models=()):
        """Install every wrapper for the duration of the block.

        ``lab_models`` are ``(instance, span name)`` pairs built before
        tracing started; models the CLI loads inside the block are wrapped
        as they are created.
        """
        after = {"engine.decode": self._count_decode,
                 "harness.oracle": self._count_oracle,
                 "cli.write": self._count_write,
                 "models.load": self._wrap_target}
        wrappers = {fn: self.wrap(fn, name, after.get(name),
                                  name in ("engine.decode", "engine.autoregressive"))
                    for fn, name in _SPAN_OF.items()}
        wrappers[models.temper] = self.wrap(models.temper, "models.temper",
                                            self._wrap_draft)
        for cls in _POLICY_CLASSES:
            wrappers[cls] = self._policy_ctor(cls)
        saved = []
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrappers:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        init = dist.Distribution.__init__
        dist.Distribution.__init__ = self.wrap(init, "dist.distribution_init")
        for model, name in lab_models:
            self.wrap_model(model, name)
        try:
            yield self
        finally:
            dist.Distribution.__init__ = init
            for mod, attr, val in saved:
                setattr(mod, attr, val)
            for model in self._instances:
                vars(model).pop("next_distribution", None)
            self._instances.clear()

    # -- aggregation ---------------------------------------------------------

    def begin(self, name: str) -> None:
        """Open a root span; spans recorded until ``end`` belong to it."""
        idx = len(self.col_name)
        self.col_name.append(self._id(name))
        self.col_parent.append(-1)
        self.col_start.append(perf_counter_ns())
        self.col_end.append(0)
        self.col_decode.append(-1)
        self.stack.append(idx)

    def end(self, timed_pass: bool) -> None:
        """Close the root span and fold its spans into the totals."""
        root = self.stack.pop()
        self.col_end[root] = perf_counter_ns()
        name = np.frombuffer(self.col_name, dtype=np.int32).copy()
        start = np.frombuffer(self.col_start, dtype=np.int64).copy()
        end = np.frombuffer(self.col_end, dtype=np.int64).copy()
        parent = np.frombuffer(self.col_parent, dtype=np.int32).copy()
        decode = np.frombuffer(self.col_decode, dtype=np.int32).copy()
        for col in (self.col_name, self.col_start, self.col_end,
                    self.col_parent, self.col_decode):
            del col[:]
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_sum = np.bincount(name, weights=self_t, minlength=k)
        dur_sum = np.bincount(name, weights=dur, minlength=k)
        load = self.ids.get("models.load")
        if load is not None:
            self.load_ns.extend(dur[name == load].tolist())
        if timed_pass:
            self.passes += 1
            self.counts.update(self.group_counts)
            for i, n in enumerate(self.names):
                self.calls[n] += int(calls[i])
                self.self_ns[n] += float(self_sum[i])
                self.total_ns[n] += float(dur_sum[i])
            keep = slice(0, MAX_SPANS_WRITTEN)
            self.last_spans = {"name": name[keep], "start": start[keep],
                               "end": end[keep], "parent": parent[keep],
                               "decode": decode[keep]}
        self.group_counts.clear()

    def per_pass(self, what: str, name: str) -> float:
        """A span's calls, self time (s) or total time (s) per timed pass."""
        n = max(self.passes, 1)
        if what == "calls":
            return self.calls[name] / n
        if what == "self_s":
            return self.self_ns[name] / n / 1e9
        return self.total_ns[name] / n / 1e9

    def count(self, name: str) -> float:
        return self.counts[name] / max(self.passes, 1)

    def median_load_s(self) -> float:
        return statistics.median(self.load_ns) / 1e9 if self.load_ns else 0.0

    def write(self, path: str) -> None:
        """Write the last timed pass's spans (capped) as a compressed npz."""
        if self.last_spans is None:
            return
        np.savez_compressed(path, names=np.array(self.names),
                            **self.last_spans)
