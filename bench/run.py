#!/usr/bin/env python3
"""speclab benchmark: one workload per process, outputs checked as they are timed.

    python3 bench/run.py --workload mc-equivalence --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke             # every workload at a tiny size
    python3 bench/run.py --record-goldens    # rewrite goldens.json from this code

A run replays the golden seed's pass at the run's size and checks it against
its golden digests, runs one checked pass of the workload's own seed
(against its golden too, where one was recorded), then repeats the same
timed pass for ``--seconds``. Times are wall times scaled to the pace of the
CPU while they ran (see ``pace``), as medians over the timed passes;
``setup_s`` is the median of several scaled set-ups (import, model load,
draft) in fresh interpreters spread over the run. ``--trace 1`` alternates untraced and
traced passes and reports per-layer numbers instead. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; an operation fails if it raises, breaks an engine
invariant, differs from the checked pass, or misses its golden digest.
"""

from __future__ import annotations

import os

# One thread for BLAS/OpenMP, set before numpy is imported here or in a
# set-up child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, ".out")
WORK = os.path.join(BENCH, ".work")
GOLDENS = os.path.join(BENCH, "goldens.json")
GOLDEN_SEED = 0
GOLDEN_FULL_SEEDS = range(20)
SETUP_REPEATS = {"full": 15, "smoke": 1}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "tokens_per_s": "tokens/s",
    "decodes_per_s": "decodes/s", "decode_ms_p50": "ms", "decode_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

_SPAN_LAYERS = {
    "dist": ("sample", "residual", "entropy", "argmax", "distribution_init",
             "make_rng", "kl_divergence"),
    "models": ("target", "draft"),
    "engine": ("decode", "verify", "correct"),
    "policies": ("construct", "should_continue", "on_round_end"),
}
PER_LAYER = {f"{layer}.{fn}.{what}": ("count" if what == "calls" else "s")
             for layer, fns in _SPAN_LAYERS.items() for fn in fns
             for what in ("calls", "self_s")}
PER_LAYER.update({
    "models.load_s": "s",
    "engine.rounds": "count", "engine.proposed": "count",
    "engine.accepted": "count", "engine.draft_calls": "count",
    "engine.target_calls": "count", "engine.probe_calls": "count",
    "engine.accept_ratio": "ratio",
    "engine.token_us.h2k": "us", "engine.token_us.hlong": "us",
    "engine.token_us.autoregressive": "us",
    "harness.oracle.calls": "count", "harness.oracle.self_s": "s",
    "harness.oracle.tokens": "count", "harness.kl_trace.self_s": "s",
    "harness.summarize.self_s": "s", "harness.experiment.self_s": "s",
    "harness.exact_enum.self_s": "s", "harness.equivalence.tvd": "tvd",
    "bounds.bound_report.calls": "count", "bounds.bound_report.self_s": "s",
    "bounds.sample_pair.self_s": "s",
    "cli.load_config_s": "s", "cli.load_model_s": "s",
    "cli.write.calls": "count", "cli.write.self_s": "s",
    "cli.write.bytes": "bytes",
    "trace.overhead_s": "s",
})

# The set-up is one unit of a meter with the pure-Python reference.
SETUP_CHILD = """
import sys
import pace
meter = pace.Meter(pace.setup_reference, REF_NS, 0.005)
meter.open_unit()
t0 = meter.clock()
import speclab
from speclab import cli
target = cli.load_model_spec(sys.argv[1], "target_spec")
draft = speclab.temper(target, 2.0, float(sys.argv[2]))
ns = meter.clock() - t0
print(ns * meter.scale(meter.close_unit()) / 1e9)
"""
SETUP_REF_NS = 205_000


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(eps: float) -> float:
    """Import speclab, load the target via cli.load_model_spec, build the
    tempered draft, in a fresh interpreter; the seconds it measured, scaled
    by the pace that process read meanwhile (see ``pace``)."""
    from workloads import MODEL
    code = SETUP_CHILD.replace("REF_NS", str(SETUP_REF_NS))
    proc = subprocess.run([sys.executable, "-c", code, MODEL, str(eps)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "speclab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as f:
                h.update(fname.encode() + b"\0" + f.read())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed, "git_commit": commit, "src_sha256": h.hexdigest()}


# -- passes -------------------------------------------------------------------


def group_digests(wl, inp, p) -> dict[str, str]:
    from workloads import op_bytes
    hashes = {}
    for i, out in enumerate(p.outs):
        hashes.setdefault(wl.group(inp, i), hashlib.sha256()).update(op_bytes(out) + b"\n")
    return {g: h.hexdigest() for g, h in hashes.items()}


def checked_pass(wl, lab, inp, golden: dict | None):
    """Run one pass with every check on; mark ops of any group whose digest
    differs from ``golden``."""
    p = wl.run(lab, inp, check=True)
    wl.finish(lab, inp, p)
    if golden is not None:
        got = group_digests(wl, inp, p)
        for i in range(len(p.outs)):
            g = wl.group(inp, i)
            if got.get(g) != golden.get(g):
                p.errors.setdefault(i, f"{g}: digest differs from the golden")
    return p


class Ledger:
    """Operations attempted and failed over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def add(self, p, ref=None) -> None:
        """Count ``p``; against ``ref``, an op fails if its output differs
        or the same op failed the checks in ``ref``."""
        bad = dict(p.errors)
        if ref is not None:
            for i, (out, ref_out) in enumerate(zip(p.outs, ref.outs)):
                if out != ref_out:
                    bad.setdefault(i, "output differs from the checked pass")
                elif i in ref.errors:
                    bad.setdefault(i, ref.errors[i])
        self.attempted += len(p.outs)
        self.failed += len(bad)
        self.reasons.update(bad.values())


def quantile(values, q: int) -> float:
    """The q-th decile of ``values``, interpolated between the two values
    around it. The inclusive method never reads past the largest value:
    long-decode's p90 comes from 5 decodes a pass, where the exclusive
    method's 1.4x the largest less 0.4x the next doubled its noise."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Timings:
    """A run's timed passes, scaled to the pace they ran at (see ``pace``);
    every timed pass does the same work, so the run reports medians over
    passes.

    The run's time is the sum over units of each unit's median scaled time
    over passes; latencies are the median over passes of each pass's
    p50/p90 of scaled decode latencies.
    """

    def __init__(self):
        self.raw_pass_s: list[float] = []
        self.pass_s: list[float] = []
        self.units_ns: list[list[float]] = []
        self.p50_ms: list[float] = []
        self.p90_ms: list[float] = []
        self.decode_samples = 0
        self.tokens = self.decodes = 0  # per pass; every timed pass does the same work

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    def add(self, p) -> None:
        meter = p.meter
        units = [ns * meter.scale(rd) for ns, rd in zip(p.unit_ns, p.unit_readings)]
        latencies = [ns * f / 1e6
                     for lat, at, rd in zip(p.unit_decode_ns, p.unit_decode_at, p.unit_readings)
                     for ns, f in zip(lat, meter.scale_at(rd, at, lat))]
        self.raw_pass_s.append(sum(p.unit_ns) / 1e9)
        self.pass_s.append(sum(units) / 1e9)
        self.units_ns.append(units)
        if latencies:
            self.p50_ms.append(quantile(latencies, 5))
            self.p90_ms.append(quantile(latencies, 9))
        self.decode_samples += len(latencies)
        self.tokens, self.decodes = p.tokens, p.decodes

    @property
    def seconds(self) -> float:
        return sum(self.unit_ns()) / 1e9

    def unit_ns(self) -> list[float]:
        """Each unit's median scaled time, in ns."""
        return [statistics.median(col) for col in zip(*self.units_ns)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS, Lab

    wl = WORKLOADS[name]
    goldens = load_goldens().get(name, {})
    tracer = Tracer() if trace else None
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    setups: list[float] = []
    untraced, traced = Timings(), Timings()
    try:
        if tracer is not None:
            tracer.begin("setup")
            with tracer.patched():
                lab = Lab(wl.eps)
            tracer.end(timed_pass=False)
        else:
            lab = Lab(wl.eps)
        lab_models = ((lab.target, "models.target"), (lab.draft, "models.draft"))
        ledger = Ledger()

        # Goldens exist for a few seeds only. So that outputs at full size
        # are checked on every seed, each run first replays the golden seed.
        if seed != GOLDEN_SEED:
            ledger.add(checked_pass(wl, lab, wl.inputs(GOLDEN_SEED, size, workdir),
                                    goldens[size][str(GOLDEN_SEED)]))
        inp = wl.inputs(seed, size, workdir)
        own_golden = goldens.get(size, {}).get(str(seed))
        ref = checked_pass(wl, lab, inp, own_golden)
        ledger.add(ref)

        # Set-ups run between passes, spread over the run's whole span.
        start = perf_counter()
        deadline = start + seconds
        n_setups = SETUP_REPEATS[size]
        while True:
            gc.collect()
            p = wl.run(lab, inp, check=False)
            wl.finish(lab, inp, p)
            untraced.add(p)
            ledger.add(p, ref)
            if len(setups) < n_setups and perf_counter() >= start + len(setups) * seconds / n_setups:
                setups.append(measure_setup(wl.eps))
            if tracer is not None:
                gc.collect()
                tracer.begin("pass")
                wl.meter.sampling = False  # its readings would land in spans
                with tracer.patched(lab_models):
                    p = wl.run(lab, inp, check=False)
                wl.meter.sampling = True
                tracer.end(timed_pass=True)
                wl.finish(lab, inp, p)
                traced.add(p)
                ledger.add(p, ref)
            del p
            if perf_counter() >= deadline:
                break
        while len(setups) < n_setups:
            setups.append(measure_setup(wl.eps))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    run_s = untraced.seconds
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "tokens_per_s": untraced.tokens / run_s,
            "decodes_per_s": untraced.decodes / run_s,
            "decode_ms_p50": statistics.median(untraced.p50_ms),
            "decode_ms_p90": statistics.median(untraced.p90_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        values = layer_values(wl, inp, ref, tracer, untraced, traced)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}

    env = environment(seed)
    fail_share = ledger.failed / ledger.attempted
    summary = {
        "workload": name, "size": size, "trace": int(trace), "env": env,
        "pass_s": {"untraced": untraced.pass_s, "traced": traced.pass_s},
        "pass_p50_ms": untraced.p50_ms, "pass_p90_ms": untraced.p90_ms,
        "raw_pass_s": {"untraced": untraced.raw_pass_s, "traced": traced.raw_pass_s},
        "unit_s": [ns / 1e9 for ns in untraced.unit_ns()],
        "setup_runs_s": setups, "decode_samples": untraced.decode_samples,
        "ops_per_pass": len(ref.outs), "fail_share": fail_share,
        "own_golden": own_golden is not None,
        "failures": ledger.reasons,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({**summary, "metrics": metrics}, f, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write(stem + ".spans.npz")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {name}: {untraced.passes} untraced / {traced.passes} traced passes of "
          f"{len(untraced.units_ns[0])} units; checked pass of {len(ref.outs)} ops; "
          f"{untraced.decode_samples} decode latency samples; "
          f"{len(setups)} set-ups")
    print(f"# goldens: seed {GOLDEN_SEED} replayed at size {size}; seed {seed} "
          + ("checked against its own golden" if own_golden is not None else
             "has no golden of its own; its outputs get the per-op checks only"))
    print(f"# fail_share {ledger.failed}/{ledger.attempted} = {fail_share:.6g}")
    for reason, n in sorted(ledger.reasons.items()):
        print(f"#   failed x{n}: {reason}")
    for k, m in metrics.items():
        print(f"# {k:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def layer_values(wl, inp, ref, tracer, untraced, traced) -> dict[str, float]:
    v = {}
    for layer, fns in _SPAN_LAYERS.items():
        for fn in fns:
            span = f"{layer}.{fn}"
            v[f"{span}.calls"] = tracer.per_pass("calls", span)
            v[f"{span}.self_s"] = tracer.per_pass("self_s", span)
    v["models.load_s"] = tracer.median_load_s()
    for c in ("rounds", "proposed", "accepted", "draft_calls", "target_calls",
              "probe_calls"):
        v[f"engine.{c}"] = tracer.count(f"engine.{c}")
    proposed = tracer.counts["engine.proposed"]
    v["engine.accept_ratio"] = tracer.counts["engine.accepted"] / proposed if proposed else 0.0
    token_us = wl.token_us(inp, untraced.unit_ns()) if hasattr(wl, "token_us") else {}
    for key in ("h2k", "hlong", "autoregressive"):
        v[f"engine.token_us.{key}"] = token_us.get(key, 0.0)
    v["harness.oracle.calls"] = tracer.per_pass("calls", "harness.oracle")
    v["harness.oracle.self_s"] = tracer.per_pass("self_s", "harness.oracle")
    v["harness.oracle.tokens"] = tracer.count("harness.oracle.tokens")
    for span in ("kl_trace", "summarize", "experiment", "exact_enum"):
        v[f"harness.{span}.self_s"] = tracer.per_pass("self_s", f"harness.{span}")
    v["harness.equivalence.tvd"] = max(ref.extras.get("tvd", {}).values(), default=0.0)
    v["bounds.bound_report.calls"] = tracer.per_pass("calls", "bounds.bound_report")
    v["bounds.bound_report.self_s"] = tracer.per_pass("self_s", "bounds.bound_report")
    v["bounds.sample_pair.self_s"] = tracer.per_pass("self_s", "bounds.sample_pair")
    v["cli.load_config_s"] = tracer.per_pass("total_s", "cli.load_config")
    v["cli.load_model_s"] = tracer.per_pass("total_s", "cli.load_model")
    v["cli.write.calls"] = tracer.per_pass("calls", "cli.write")
    v["cli.write.self_s"] = tracer.per_pass("self_s", "cli.write")
    v["cli.write.bytes"] = tracer.count("cli.write.bytes")
    v["trace.overhead_s"] = traced.seconds - untraced.seconds
    return v


# -- goldens and smoke ----------------------------------------------------------


def load_goldens() -> dict:
    if not os.path.exists(GOLDENS):
        return {}
    with open(GOLDENS, encoding="utf-8") as f:
        return json.load(f)["workloads"]


def record_goldens() -> int:
    """Digest every output group of the smoke-size pass at ``GOLDEN_SEED``
    and of full-size passes for ``GOLDEN_FULL_SEEDS``; refuses if any check
    fails."""
    from workloads import WORKLOADS, Lab
    table = {}
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="goldens-", dir=WORK)
    try:
        for name, wl in WORKLOADS.items():
            lab = Lab(wl.eps)
            runs = [("smoke", GOLDEN_SEED)] + [("full", s) for s in GOLDEN_FULL_SEEDS]
            for size, seed in runs:
                inp = wl.inputs(seed, size, workdir)
                p = checked_pass(wl, lab, inp, None)
                if p.errors:
                    print(f"{name} {size} seed {seed}: {sorted(set(p.errors.values()))}",
                          file=sys.stderr)
                    return 1
                table.setdefault(name, {}).setdefault(size, {})[str(seed)] = \
                    group_digests(wl, inp, p)
                print(f"recorded {name} {size} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDENS, "w", encoding="utf-8") as f:
        json.dump({"src_sha256": environment(GOLDEN_SEED)["src_sha256"],
                   "workloads": table}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def smoke() -> int:
    """Every workload at the smoke size, traced and untraced, in its own
    process; every emitted metric must match BENCHMARK.json by name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                 "--seed", str(GOLDEN_SEED), "--seconds", "1", "--trace", str(trace),
                 "--size", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            tag = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a finite number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            print(f"smoke {tag}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    try:
        import speclab
    except ImportError as exc:
        print(f"bench: speclab is not importable from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(speclab.__file__)) != os.path.join(SRC, "speclab"):
        print(f"bench: speclab resolves to {speclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_goldens:
        return record_goldens()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.size)


if __name__ == "__main__":
    sys.exit(main())
