"""The benchmark's three workloads: inputs made from a seed, one pass of fixed
work, and the checks on that pass's outputs.

Load is a closed loop with one client in one thread: each operation starts
when the previous one has returned, as in a lab batch job. An operation is
one decode (mc-equivalence, long-decode) or one CLI command
(experiment-suite).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from pace import Meter, context_reference
from speclab import cli, dist, engine, harness, models, policies
from speclab.engine import DecodeMode

# Paths are relative to the repository root, which is the working directory.
MODEL = os.path.join("configs", "segmented_target.json")
VOCAB = 3  # vocabulary of the segmented target; prompts are drawn from it
TVD_LIMIT = 0.01
TVD_MIN_SAMPLES = 10_000  # per policy; below this the estimate's noise exceeds the limit

POLICY_FACTORIES = {
    # Resolved through ``speclab.policies`` at call time, so the traced run
    # sees the constructors it patches there.
    "constant-3": lambda: policies.ConstantPolicy(3),
    "constant-5": lambda: policies.ConstantPolicy(5),
    "heuristic": lambda: policies.HeuristicPolicy(),
    "svip-0.85": lambda: policies.SvipPolicy(policies.SvipConfig(0.85)),
}


class Lab:
    """What set-up builds: the segmented target and its tempered draft."""

    def __init__(self, eps: float):
        self.target = cli.load_model_spec(MODEL, "target_spec")
        self.draft = models.temper(self.target, 2.0, eps)


@dataclass
class Pass:
    """Outcome of one pass, one entry per operation in ``outs``.

    A pass is split into units of work (a block of decodes, one long decode,
    one CLI command), each timed on its own.
    """

    meter: Meter
    outs: list = field(default_factory=list)  # comparable output per op; None if it raised
    errors: dict[int, str] = field(default_factory=dict)  # op index -> why it failed
    unit_ns: list[int] = field(default_factory=list)      # wall time per unit
    unit_decode_ns: list[array] = field(default_factory=list)  # decode latencies per unit
    unit_decode_at: list[array] = field(default_factory=list)  # their start times
    unit_readings: list[list] = field(default_factory=list)  # pace readings per unit
    tokens: int = 0            # generated tokens (no prompt, no oracle tokens)
    decodes: int = 0           # completed speculative_decode calls
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.meter.reset()

    def close_unit(self, ns: int, decode_ns: array, decode_at: array) -> None:
        """Record a unit's wall time, its decodes' latencies and start times,
        all read on ``meter.clock``, and the pace readings around it."""
        self.unit_readings.append(self.meter.close_unit())
        self.unit_ns.append(ns)
        self.unit_decode_ns.append(decode_ns)
        self.unit_decode_at.append(decode_at)


class Workload:
    # (context_len, iterations, ref_ns, period_s) of the meter that reads the
    # pace of this workload's units; see ``pace``.
    pace: tuple

    @cached_property
    def meter(self) -> Meter:
        context_len, iterations, ref_ns, period_s = self.pace
        return Meter(context_reference(context_len, iterations), ref_ns, period_s)


def check_output(out, prompt, max_len) -> str | None:
    if len(out) != max_len:
        return f"output length {len(out)}, expected {max_len}"
    if list(out[:len(prompt)]) != list(prompt):
        return "prompt not preserved"
    if any(not 0 <= t < VOCAB for t in out):
        return "token out of vocab"
    return None


def check_accounting(r) -> str | None:
    """The engine's accounting invariants for one DecodeResult."""
    rounds = r.rounds
    if r.generated != sum(rec.accepted_count + 1 for rec in rounds):
        return "generated != sum(accepted + 1) over rounds"
    if r.target_forward_calls != len(rounds):
        return "target_calls != rounds"
    if r.draft_forward_calls != sum(len(rec.proposed_tokens) for rec in rounds):
        return "draft_calls != sum(proposed) over rounds"
    return None


def check_decode(r, prompt, max_len) -> str | None:
    return check_output(r.output_tokens, prompt, max_len) or check_accounting(r)


def op_bytes(out) -> bytes:
    if out is None:
        return b"<raised>"
    if isinstance(out, str):
        return out.encode()
    return array("q", out).tobytes()


class McEquivalence(Workload):
    """Many tiny sampling decodes on the shipped equivalence setup.

    Fixed per-decode and per-round cost dominates: policy construction,
    DecodeResult/RoundRecord, residual -> Distribution validation, sample.
    Context never exceeds 4 tokens, so incremental context should not move
    it while memoising ``residual`` should.
    """

    name = "mc-equivalence"
    eps = 0.1
    pace = (4, 40, 375_000, 0.02)
    prompt = (0,)
    horizon = 3
    policies = ("constant-3", "heuristic", "svip-0.85")
    # Decodes per unit, and units in the checked pass: 60 units of 3000 give
    # the TVD check 60k decodes per policy, where the estimate exceeds 0.01
    # by chance far less than once in 10^4 runs. A timed pass is the first
    # unit alone, so a run repeats it a few hundred times.
    sizes = {"full": (3000, 60), "smoke": (150, 2)}

    def inputs(self, seed: int, size: str, workdir: str) -> dict:
        rnd = random.Random(seed)
        block, blocks = self.sizes[size]
        return {"streams": [rnd.getrandbits(63) for _ in self.policies],
                "block": block, "check_blocks": blocks}

    def group(self, inp: dict, i: int) -> str:
        return self.policies[i % len(self.policies)]

    def run(self, lab: Lab, inp: dict, check: bool) -> Pass:
        prompt = list(self.prompt)
        max_len = len(prompt) + self.horizon
        factories = [POLICY_FACTORIES[p] for p in self.policies]
        rngs = [dist.make_rng(s) for s in inp["streams"]]
        n_pol = len(factories)
        target, draft, mode = lab.target, lab.draft, DecodeMode.SAMPLING
        p = Pass(self.meter)
        outs, errors = p.outs, p.errors
        # Checked passes only: output counts per policy for the TVD, and one
        # shared tuple per distinct output (there are at most 3^3), so the
        # benchmark's copies of the outputs do not inflate peak RSS.
        counts = [Counter() for _ in factories]
        seen: dict[tuple, tuple] = {}
        clock = self.meter.clock
        i = 0
        for _ in range(inp["check_blocks"] if check else 1):
            lat, at = array("q"), array("q")
            self.meter.open_unit()
            u0 = clock()
            for _ in range(inp["block"]):
                k = i % n_pol
                t0 = clock()
                try:
                    r = engine.speculative_decode(target, draft, prompt, max_len,
                                                  factories[k](), mode, rngs[k])
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    outs.append(None)
                    errors[i] = f"raised {exc!r}"
                    i += 1
                    continue
                lat.append(clock() - t0)
                at.append(t0)
                out = tuple(r.output_tokens)
                if check:
                    out = seen.setdefault(out, out)
                    counts[k][out] += 1
                    bad = check_decode(r, prompt, max_len)
                    if bad:
                        errors[i] = bad
                outs.append(out)
                i += 1
            p.close_unit(clock() - u0, lat, at)
        self.meter.open_unit()
        u0 = clock()
        exact = harness.exact_sequence_probs(target, prompt, self.horizon)
        p.close_unit(clock() - u0, array("q"), array("q"))
        p.decodes = sum(len(lat) for lat in p.unit_decode_ns)
        p.tokens = self.horizon * p.decodes
        if check:
            p.extras["tvd"] = {name: self._tvd(counts[k], exact, len(prompt))
                               for k, name in enumerate(self.policies)}
        return p

    @staticmethod
    def _tvd(counts: Counter, exact: dict, prompt_len: int) -> float:
        n = max(sum(counts.values()), 1)
        freq = Counter()
        for out, c in counts.items():
            freq[out[prompt_len:]] += c
        off = sum(c for seq, c in freq.items() if seq not in exact) / n
        return 0.5 * (off + sum(abs(freq.get(seq, 0) / n - prob)
                                for seq, prob in exact.items()))

    def finish(self, lab: Lab, inp: dict, p: Pass) -> None:
        if "tvd" not in p.extras or len(p.outs) < TVD_MIN_SAMPLES * len(self.policies):
            return
        for k, name in enumerate(self.policies):
            if p.extras["tvd"][name] > TVD_LIMIT:
                for i in range(k, len(p.outs), len(self.policies)):
                    p.errors.setdefault(i, f"{name}: tvd {p.extras['tvd'][name]:.5f} > {TVD_LIMIT}")


class LongDecode(Workload):
    """A few long single-stream decodes.

    Per-token cost grows with context length because the engine builds
    ``out + proposed[:j]`` for every model call. The greedy decode takes the
    engine's argmax path instead of sample/residual, so a sampling-only gain
    that costs the greedy path shows here.
    """

    name = "long-decode"
    eps = 0.2
    pace = (16384, 10, 830_000, 0.025)
    horizons = {"full": (2048, 16384), "smoke": (64, 512)}

    def inputs(self, seed: int, size: str, workdir: str) -> dict:
        rnd = random.Random(seed)
        short, long_ = self.horizons[size]
        prompt = [rnd.randrange(VOCAB) for _ in range(rnd.randint(1, 4))]
        plan = [("svip-0.85", "sampling", short), ("constant-5", "sampling", short),
                ("svip-0.85", "sampling", long_), ("constant-5", "sampling", long_),
                ("constant-5", "greedy", long_), ("autoregressive", "greedy", long_)]
        return {"prompt": prompt,
                "ops": [(pol, mode, h, rnd.getrandbits(63)) for pol, mode, h in plan]}

    def group(self, inp: dict, i: int) -> str:
        pol, mode, h, _ = inp["ops"][i]
        return f"{pol}/{mode}/{h}"

    def run(self, lab: Lab, inp: dict, check: bool) -> Pass:
        prompt = inp["prompt"]
        p = Pass(self.meter)
        clock = self.meter.clock
        for i, (pol, mode, horizon, stream) in enumerate(inp["ops"]):
            rng = dist.make_rng(stream)
            lat, at = array("q"), array("q")
            self.meter.open_unit()
            t0 = clock()
            try:
                if pol == "autoregressive":
                    r = None
                    out = engine.autoregressive_decode(lab.target, prompt, horizon,
                                                       DecodeMode(mode), rng)
                else:
                    r = engine.speculative_decode(lab.target, lab.draft, prompt,
                                                  horizon, POLICY_FACTORIES[pol](),
                                                  DecodeMode(mode), rng)
                    out = r.output_tokens
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                r, out = None, None
                p.errors[i] = f"raised {exc!r}"
            ns = clock() - t0
            if r is not None:
                lat.append(ns)
                at.append(t0)
            p.close_unit(ns, lat, at)
            if out is None:
                p.outs.append(None)
                continue
            p.tokens += len(out) - len(prompt)
            if r is not None:
                p.decodes += 1
            p.outs.append(tuple(out))
            if check:
                bad = (check_decode(r, prompt, horizon) if r is not None
                       else check_output(out, prompt, horizon))
                if bad:
                    p.errors[i] = bad
        return p

    def finish(self, lab: Lab, inp: dict, p: Pass) -> None:
        spec, ar = 4, 5  # the plan's greedy speculative and autoregressive decodes
        if p.outs[spec] != p.outs[ar]:
            for i in (spec, ar):
                p.errors.setdefault(i, "greedy speculative != autoregressive greedy")

    def token_us(self, inp: dict, unit_ns: list[int]) -> dict[str, float]:
        """Per-token cost, in microseconds, of the SVIP decodes at both
        horizons and of the autoregressive baseline, from per-op times."""
        ops, prompt_len = inp["ops"], len(inp["prompt"])
        short, long_ = ops[0][2], ops[-1][2]
        keys = {("svip-0.85", short): "h2k", ("svip-0.85", long_): "hlong",
                ("autoregressive", long_): "autoregressive"}
        return {keys[pol, horizon]: ns / (horizon - prompt_len) / 1e3
                for (pol, _, horizon, _), ns in zip(ops, unit_ns)
                if (pol, horizon) in keys}


class ExperimentSuite(Workload):
    """The lab's "reproduce the tables" flow through ``speclab.cli.main``.

    The only workload that runs the harness (oracle re-simulation per round,
    kl_trace, summarising), bounds and the CLI's parse/write. Each experiment
    and oracle-stats command reloads the 350 KB model JSON, so work moved
    into model load shows here as a cost; the seed list is long enough that
    harness work, not load, dominates the pass.
    """

    name = "experiment-suite"
    eps = 0.2
    pace = (4, 40, 375_000, 0.02)
    # Four prompts at full size, so that no one prompt sets the latency
    # quantiles of a seed's 240 decodes per pass.
    sizes = {"full": {"seeds": 20, "prompts": 4, "horizon": 200, "n_runs": 200, "pairs": 500},
             "smoke": {"seeds": 2, "prompts": 2, "horizon": 40, "n_runs": 5, "pairs": 20}}
    policies = {"constant5": {"kind": "constant", "k": 5},
                "heuristic": {"kind": "heuristic", "init": 5, "cap": 40},
                "svip": {"kind": "svip", "h": 0.85, "max_len": 40}}
    outputs = {"experiment": ("report.json", "rounds.csv"),
               "oracle-stats": ("oracle_stats.json",),
               "bounds-eval": ("bounds.csv",)}

    def inputs(self, seed: int, size: str, workdir: str) -> dict:
        rnd = random.Random(seed)
        z = self.sizes[size]
        seeds = rnd.sample(range(1_000_000), z["seeds"])
        prompts = [[rnd.randrange(VOCAB) for _ in range(rnd.randint(1, 3))]
                   for _ in range(z["prompts"])]
        configs = []
        for label, policy in self.policies.items():
            configs.append(("experiment", f"experiment-{label}", {
                "target_spec": MODEL,
                "draft_spec": {"temper": {"tau": 2.0, "eps": 0.2}},
                "mode": "sampling", "policy": policy, "horizon": z["horizon"],
                "prompts": prompts, "seeds": seeds,
                "cost_model": {"r_draft": 0.1, "c_verify_overhead": 0.0},
                "label": f"segmented-chain {label}"}))
        configs.append(("oracle-stats", "oracle-stats", {
            "target_spec": MODEL,
            "draft_spec": {"temper": {"tau": 2.0, "eps": 0.1}},
            "mode": "sampling", "prompts": prompts, "cap": 40,
            "n_runs": z["n_runs"], "seed": rnd.getrandbits(31)}))
        for kind in ("independent", "tempered"):
            configs.append(("bounds-eval", f"bounds-{kind}", {
                "pairs": {"count": z["pairs"], "vocab": 16,
                          "seed": rnd.getrandbits(31), "kind": kind},
                "c": 0.18}))
        base = os.path.join(workdir, f"{size}-{seed}")
        os.makedirs(base, exist_ok=True)
        commands = []
        for cmd, name, cfg in configs:
            path = os.path.join(base, f"{name}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(cfg, f)
            commands.append((cmd, name, path, os.path.join(base, name), cfg))
        return {"commands": commands}

    def group(self, inp: dict, i: int) -> str:
        return inp["commands"][i][1]

    def run(self, lab: Lab, inp: dict, check: bool) -> Pass:
        p = Pass(self.meter, [None] * len(inp["commands"]))
        results, spans = [], []
        inner = harness.speculative_decode
        clock = self.meter.clock

        def timed_decode(*args, **kwargs):
            t0 = clock()
            r = inner(*args, **kwargs)
            lat.append(clock() - t0)
            at.append(t0)
            results.append(r)
            return r

        harness.speculative_decode = timed_decode
        try:
            for i, (cmd, _, cfg_path, out_dir, _) in enumerate(inp["commands"]):
                first = len(results)
                lat, at = array("q"), array("q")
                shutil.rmtree(out_dir, ignore_errors=True)  # no stale outputs
                self.meter.open_unit()
                t0 = clock()
                try:
                    code = cli.main([cmd, "--config", cfg_path, "--out", out_dir])
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed op
                    code = f"raised {exc!r}"
                p.close_unit(clock() - t0, lat, at)
                if code != 0:
                    p.errors[i] = f"exit {code}"
                spans.append((first, len(results)))
        finally:
            harness.speculative_decode = inner
        p.decodes = len(results)
        p.extras.update(results=results, spans=spans)
        return p

    def finish(self, lab: Lab, inp: dict, p: Pass) -> None:
        results = p.extras.pop("results")
        p.tokens = sum(r.generated for r in results)
        for i, (cmd, _, _, out_dir, cfg) in enumerate(inp["commands"]):
            h = hashlib.sha256()
            try:
                files = {}
                for fname in self.outputs[cmd]:
                    with open(os.path.join(out_dir, fname), "rb") as f:
                        files[fname] = f.read()
                    h.update(fname.encode() + b"\0" + files[fname])
            except OSError as exc:
                p.errors.setdefault(i, f"missing output: {exc}")
                continue
            p.outs[i] = h.hexdigest()
            first, last = p.extras["spans"][i]
            bad = self._check(cmd, cfg, files, results[first:last])
            if bad:
                p.errors.setdefault(i, bad)

    def _check(self, cmd, cfg, files, results) -> str | None:
        if cmd == "experiment":
            n_decodes = len(cfg["seeds"]) * len(cfg["prompts"])
            if len(results) != n_decodes:
                return f"{len(results)} decodes, expected {n_decodes}"
            by_prompt = cfg["prompts"] * len(cfg["seeds"])
            for r, prompt in zip(results, by_prompt):
                bad = check_decode(r, prompt, cfg["horizon"])
                if bad:
                    return bad
            report = json.loads(files["report.json"])
            if report["total_rounds"] != report["target_forward_calls"]:
                return "report: total_rounds != target_forward_calls"
            if report["total_generated"] != sum(r.generated for r in results):
                return "report: total_generated disagrees with the decodes"
            if files["rounds.csv"].count(b"\n") - 1 != report["total_rounds"]:
                return "rounds.csv rows != total_rounds"
        elif cmd == "oracle-stats":
            stats = json.loads(files["oracle_stats.json"])
            if sum(stats["histogram"]) != cfg["n_runs"] * len(cfg["prompts"]):
                return "oracle histogram does not count every run"
            if len(stats["histogram"]) != cfg["cap"] + 1:
                return "oracle histogram length != cap + 1"
        else:
            rows = list(csv.DictReader(files["bounds.csv"].decode().splitlines()))
            beta = [float(r["beta"]) for r in rows]
            if len(rows) != cfg["pairs"]["count"]:
                return "bounds.csv rows != pair count"
            if beta != sorted(beta) or not all(0.0 <= b <= 1.0 + 1e-9 for b in beta):
                return "bounds.csv beta not sorted within [0, 1]"
        return None


WORKLOADS = {w.name: w for w in (McEquivalence(), LongDecode(), ExperimentSuite())}
