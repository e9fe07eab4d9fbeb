#!/usr/bin/env python3
"""Run every workload once per seed and record the spread of each end-to-end
metric in baseline.json.

    python3 bench/baseline.py --label seed-commit --seeds 1-10
    python3 bench/baseline.py --label held-out --seeds 101-110 --compare seed-commit

Runs are sequential, one process at a time, with ``run_seconds`` from
BENCHMARK.json. Per workload and metric it stores the values, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median. ``--compare`` also checks that no median is worse than the
named set's by more than the metric's bound. Exits 1 if a run fails, a
spread exceeds a third of its bound, or a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BASELINE = os.path.join(BENCH, "baseline.json")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    doc = {"sets": {}}
    if os.path.exists(BASELINE):
        with open(BASELINE, encoding="utf-8") as f:
            doc = json.load(f)

    problems = []
    result = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in metrics}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} seed {seed}: exit {proc.returncode}")
                continue
            env = {}
            for line in lines:
                if line.startswith("# env "):
                    env = json.loads(line.removeprefix("# env "))
            out = json.loads(lines[-1])
            if not out["correct"] or out["failed"]:
                problems.append(f"{name} seed {seed}: {out['failed']}/{out['attempted']} failed")
            for m in metrics:
                values[m].append(out["metrics"][m]["value"])
            result["env"] = {k: v for k, v in env.items() if k != "seed"}
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={out['metrics'][m]['value']:.5g}" for m in metrics), file=sys.stderr)
        rows = {}
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[m] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                       "spread": spread}
            if spread > metrics[m]["bound"] / 3:
                problems.append(f"{name} {m}: spread {spread:.4f} > bound/3 "
                                f"{metrics[m]['bound'] / 3:.4f}")
            if args.compare:
                base = doc["sets"][args.compare]["workloads"][name][m]["median"]
                worse = (med - base) / base if metrics[m]["better"] == "lower" \
                    else (base - med) / base
                rows[m]["vs_" + args.compare] = worse
                if worse > metrics[m]["bound"]:
                    problems.append(f"{name} {m}: median {worse:+.4f} worse than "
                                    f"{args.compare}, bound {metrics[m]['bound']}")
            print(f"{name:17s} {m:14s} median {med:<12.5g} spread {spread:.4f}"
                  + (f"  worse vs {args.compare} {rows[m]['vs_' + args.compare]:+.4f}"
                     if args.compare else ""))
        result["workloads"][name] = rows

    doc["sets"][args.label] = result
    with open(BASELINE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    for line in problems:
        print(f"baseline: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
