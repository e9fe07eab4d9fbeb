"""Command-line entry point: reproducible runs from JSON configs.

Subcommands: decode, experiment, bounds-eval, equivalence, oracle-stats.
Exit codes: 0 success, 1 validation error, 2 runtime error, 3 equivalence
test failure. Output files are pure functions of (config bytes, seeds, tool
version); floats are written with 9 significant digits and files are replaced
atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys
from types import NoneType
from typing import Callable, Sequence

from . import __version__
from .bounds import BoundReport, bound_reports, sample_pairs, validity_condition
from .dist import make_rng
from .engine import DecodeMode
from .harness import (CostModel, ExperimentConfig, check_equivalence_size,
                      equivalence_test, oracle_length_stats,
                      round_csv_columns, run_experiment, seeded_decodes)
from .models import (AutoregressiveModel, context_window, tabular_from_spec,
                     temper)
from .policies import (DEFAULT_CAP, ConstantPolicy, HeuristicPolicy,
                       LengthPolicy, SvipConfig, SvipPolicy)


# Size bounds on configs whose cost no other field bounds. An oracle run
# with a draft that agrees with the target runs to its cap, and its
# histogram has cap + 1 bins; a bounds-eval pair stack has 2 * count * vocab
# float cells.
MAX_ORACLE_CAP = 10_000
MAX_PAIR_CELLS = 10 ** 7


class ValidationError(ValueError):
    """Config problem, reported with the offending field path."""


def fmt9(value) -> str:
    """Locale-independent 9-significant-digit rendering; None and NaN are empty."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def round9(obj):
    """Recursively round floats to 9 significant digits for stable, strict
    JSON: NaN becomes None, and +-inf the strings ``fmt9`` writes for them."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None if math.isnan(obj) else fmt9(obj)
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    return obj


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def write_json(path: str, obj) -> None:
    write_atomic(path, json.dumps(round9(obj), sort_keys=True, indent=2,
                                  allow_nan=False) + "\n")


class _Blank:
    """An empty CSV cell: formats as "" under any format spec."""

    __slots__ = ()

    def __format__(self, spec: str) -> str:
        return ""


_BLANK = _Blank()


def _csv_column(values) -> tuple[Sequence, str]:
    """``values`` as ``str.format`` arguments, with the replacement field
    that renders each one as ``fmt9`` does. The column's types are read
    once: ints go through ``{}`` and floats through ``{:.9g}``, with None
    and NaN as empty cells (``""`` among ints, which formats without a
    Python call). Any other mix (bools, say) is rendered by ``fmt9`` cell
    by cell."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values, "{}"
    if kinds <= {int, NoneType}:
        return ["" if v is None else v for v in values], "{}"
    if kinds <= {float, NoneType}:
        return [_BLANK if v is None or v != v else v for v in values], "{:.9g}"
    return [fmt9(v) for v in values], "{}"


def write_csv(path: str, columns: dict[str, Sequence]) -> None:
    """A header of the keys of ``columns``, then one line per row of its
    equal-length value sequences, each cell rendered as ``fmt9`` renders it.

    Each row is one ``str.format`` call, written as it is made. Cells are
    numbers, booleans or empty, so none needs quoting.
    """
    cells, fields = zip(*map(_csv_column, columns.values()))
    if len(set(map(len, cells))) > 1:
        raise ValueError("CSV columns differ in length")
    row = ",".join(fields) + "\n"
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    buf.writelines(map(row.format, *cells))
    write_atomic(path, buf.getvalue())


# -- config parsing -----------------------------------------------------------


def _get(cfg: dict, path: str, expect=None, required=True, default=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ValidationError(f"{path}: missing required field")
            return default
        node = node[part]
    if expect is not None:
        types = expect if isinstance(expect, tuple) else (expect,)
        # JSON true/false are bools, and bool is an int subclass in Python.
        if not isinstance(node, types) or (isinstance(node, bool) and bool not in types):
            names = "/".join(t.__name__ for t in types)
            raise ValidationError(f"{path}: expected {names}, got {type(node).__name__}")
    return node


def _get_count(cfg: dict, path: str, most: int | None = None, **kwargs) -> int:
    """An integer field that must be at least 1, and at most ``most``."""
    value = _get(cfg, path, expect=int, **kwargs)
    if value < 1:
        raise ValidationError(f"{path}: must be >= 1")
    if most is not None and value > most:
        raise ValidationError(f"{path}: must be <= {most}")
    return value


def _get_seed(cfg: dict, path: str, override: int | None) -> int:
    """``--seed-override`` when given, else the integer field ``path``; the
    seed must be >= 0."""
    if override is not None:
        seed, path = override, "--seed-override"
    else:
        seed = _get(cfg, path, expect=int)
    if seed < 0:
        raise ValidationError(f"{path}: must be >= 0")
    return seed


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def read_input(path: str, field: str, parse: Callable[[str], object]):
    """``parse`` of the UTF-8 text of the file at ``path``. A file that cannot
    be opened, read, decoded or parsed is a ``ValidationError`` led by
    ``field`` and ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(f.read())
    except FileNotFoundError:
        raise ValidationError(f"{field}: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{field}: {path} is not valid JSON: {exc}")
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"{field}: {path}: {exc}")


def load_config(path: str) -> dict:
    return read_input(path, "--config", json.loads)


def load_model_spec(path: str, field: str) -> AutoregressiveModel:
    doc = read_input(path, field, json.loads)
    try:
        return tabular_from_spec(doc)
    except ValueError as exc:
        raise ValidationError(f"{field}: {exc}")


def parse_models(cfg: dict):
    target = load_model_spec(_get(cfg, "target_spec", expect=str), "target_spec")
    draft_spec = _get(cfg, "draft_spec")
    if isinstance(draft_spec, str):
        draft = load_model_spec(draft_spec, "draft_spec")
        try:
            context_window(target, draft)
        except ValueError as exc:
            raise ValidationError(f"draft_spec: {exc}")
    elif isinstance(draft_spec, dict) and "temper" in draft_spec:
        tau = _get(draft_spec, "temper.tau", expect=(int, float))
        eps = _get(draft_spec, "temper.eps", expect=(int, float),
                   required=False, default=0.0)
        try:
            draft = temper(target, float(tau), float(eps))
        except ValueError as exc:
            raise ValidationError(f"draft_spec.temper: {exc}")
    else:
        raise ValidationError("draft_spec: expected a path or {'temper': {...}}")
    return target, draft


def parse_mode(cfg: dict) -> DecodeMode:
    mode = _get(cfg, "mode", expect=str)
    try:
        return DecodeMode(mode)
    except ValueError:
        raise ValidationError(f"mode: expected 'sampling' or 'greedy', got {mode!r}")


def parse_policy(cfg: dict) -> tuple[Callable[[], LengthPolicy], str]:
    kind = _get(cfg, "policy.kind", expect=str)
    if kind == "constant":
        k = _get(cfg, "policy.k", expect=int)
        cap = _get(cfg, "policy.cap", expect=int, required=False, default=DEFAULT_CAP)
        factory, label = (lambda: ConstantPolicy(k, cap)), "constant-{0.k}"
    elif kind == "heuristic":
        init = _get(cfg, "policy.init", expect=int, required=False, default=5)
        cap = _get(cfg, "policy.cap", expect=int, required=False, default=DEFAULT_CAP)
        factory, label = (lambda: HeuristicPolicy(init, cap)), "heuristic-{0.length}"
    elif kind == "svip":
        h = _get(cfg, "policy.h", expect=(int, float))
        max_len = _get(cfg, "policy.max_len", expect=int, required=False,
                       default=DEFAULT_CAP)
        factory, label = (lambda: SvipPolicy(SvipConfig(float(h), max_len))), "svip-{0.cfg.h:.9g}"
    else:
        raise ValidationError(f"policy.kind: unknown policy {kind!r}")
    try:
        policy = factory()
    except ValueError as exc:
        raise ValidationError(f"policy: {exc}")
    # The label reads the built policy, so it names the k the cap lets run.
    return factory, label.format(policy)


def parse_prompts(cfg: dict, vocab_size: int) -> list[list[int]]:
    prompts = _get(cfg, "prompts")
    if isinstance(prompts, dict) and "file" in prompts:
        prompts = read_input(_get(cfg, "prompts.file", expect=str),
                             "prompts.file", _token_lines)
    if not isinstance(prompts, list) or not prompts:
        raise ValidationError("prompts: expected a non-empty list of token lists")
    for i, prompt in enumerate(prompts):
        parse_prompt(prompt, f"prompts[{i}]", vocab_size)
    return prompts


def _token_lines(text: str) -> list[list[int]]:
    """One prompt per non-blank line of whitespace-separated integers."""
    return [[int(t) for t in ln.split()] for ln in text.splitlines() if ln.strip()]


def parse_prompt(prompt, path: str, vocab_size: int) -> list[int]:
    """``prompt`` if it is a non-empty list of in-vocab tokens."""
    if not isinstance(prompt, list) or not prompt:
        raise ValidationError(f"{path}: expected a non-empty token list")
    for t in prompt:
        if not _is_int(t) or not 0 <= t < vocab_size:
            raise ValidationError(f"{path}: token {t!r} out of vocab")
    return prompt


def parse_seeds(cfg: dict, override: int | None) -> list[int]:
    if override is not None:
        return [_get_seed(cfg, "seeds", override)]
    seeds = _get(cfg, "seeds", expect=list)
    if not seeds:
        raise ValidationError("seeds: must be non-empty")
    for i, s in enumerate(seeds):
        if not _is_int(s) or s < 0:
            raise ValidationError(f"seeds[{i}]: expected a non-negative integer")
    return seeds


def parse_cost_model(cfg: dict) -> CostModel:
    _get(cfg, "cost_model", expect=dict, required=False)
    costs = {f.name: float(_get(cfg, f"cost_model.{f.name}", expect=(int, float),
                                required=False, default=f.default))
             for f in dataclasses.fields(CostModel)}
    try:
        return CostModel(**costs)
    except ValueError as exc:
        raise ValidationError(f"cost_model: {exc}")


def parse_horizon(cfg: dict, prompts: list[list[int]]) -> int:
    horizon = _get(cfg, "horizon", expect=int)
    longest = max(len(p) for p in prompts)
    if horizon <= longest:
        raise ValidationError(
            f"horizon: {horizon} must exceed the longest prompt ({longest})")
    return horizon


# -- subcommands --------------------------------------------------------------


def parse_experiment(cfg: dict, args: argparse.Namespace) -> ExperimentConfig:
    """The config schema ``decode`` and ``experiment`` share."""
    target, draft = parse_models(cfg)
    mode = parse_mode(cfg)
    policy_factory, policy_label = parse_policy(cfg)
    prompts = parse_prompts(cfg, target.vocab_size)
    seeds = parse_seeds(cfg, args.seed_override)
    horizon = parse_horizon(cfg, prompts)
    default = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    cost_model = parse_cost_model(cfg)
    oracle_cap = _get_count(cfg, "oracle_cap", MAX_ORACLE_CAP, required=False,
                            default=default["oracle_cap"])
    kl_window = _get_count(cfg, "kl_window", required=False, default=default["kl_window"])
    if kl_window >= horizon:  # no round rejects that far in: the entries could never fill
        raise ValidationError(f"kl_window: must be < horizon ({horizon})")
    return ExperimentConfig(
        target=target, draft=draft,
        policy_factory=policy_factory, policy_label=policy_label,
        mode=mode, horizon=horizon, prompts=prompts, seeds=seeds,
        cost_model=cost_model, oracle_cap=oracle_cap, kl_window=kl_window,
        label=_get(cfg, "label", expect=str, required=False,
                   default=default["label"]),
    )


def cmd_decode(cfg: dict, args: argparse.Namespace) -> int:
    results = []
    for seed, pi, result in seeded_decodes(parse_experiment(cfg, args)):
        results.append(result)
        tokens = " ".join(str(t) for t in result.output_tokens)
        write_atomic(os.path.join(args.out, f"tokens_seed{seed}_prompt{pi}.txt"),
                     tokens + "\n")
    write_csv(os.path.join(args.out, "rounds.csv"), round_csv_columns(results))
    return 0


def cmd_experiment(cfg: dict, args: argparse.Namespace) -> int:
    report = run_experiment(parse_experiment(cfg, args))
    doc = report.to_jsonable()
    doc["tool_version"] = __version__
    doc["config_echo"] = cfg
    write_json(os.path.join(args.out, "report.json"), doc)
    write_csv(os.path.join(args.out, "rounds.csv"),
              round_csv_columns(report.results))
    return 0


def cmd_bounds_eval(cfg: dict, args: argparse.Namespace) -> int:
    _get(cfg, "pairs", expect=dict)
    count = _get_count(cfg, "pairs.count")
    vocab = _get(cfg, "pairs.vocab", expect=int)
    seed = _get_seed(cfg, "pairs.seed", args.seed_override)
    kind = _get(cfg, "pairs.kind", expect=str, required=False,
                default="independent")
    tau = float(_get(cfg, "pairs.tau", expect=(int, float), required=False,
                     default=2.0))
    eps = float(_get(cfg, "pairs.eps", expect=(int, float), required=False,
                     default=0.1))
    c = float(_get(cfg, "c", expect=(int, float), required=False, default=0.18))
    if vocab < 2:
        raise ValidationError("pairs.vocab: must be >= 2")
    if 2 * count * vocab > MAX_PAIR_CELLS:
        raise ValidationError(f"pairs: 2 * count * vocab must be <= {MAX_PAIR_CELLS}")
    if kind not in ("independent", "tempered"):
        raise ValidationError(f"pairs.kind: unknown kind {kind!r}")
    if not 0 < c < math.inf:
        raise ValidationError("c: must be finite and > 0")
    if not 0 < tau < math.inf:
        raise ValidationError("pairs.tau: must be finite and > 0")
    if not 0 <= eps < 1:
        raise ValidationError("pairs.eps: must be in [0, 1)")

    reports = bound_reports(sample_pairs(vocab, make_rng(seed), count, kind, tau, eps), c)
    reports.sort(key=lambda r: r.beta)
    valid = [validity_condition(r.gamma_ratio, c) for r in reports]
    if args.format == "json":
        rows = [{**vars(r), "valid": v} for r, v in zip(reports, valid)]
        write_json(os.path.join(args.out, "bounds.json"),
                   {"c": c, "rows": rows})
    else:
        columns = {f.name: [getattr(r, f.name) for r in reports]
                   for f in dataclasses.fields(BoundReport)}
        columns["valid"] = valid
        write_csv(os.path.join(args.out, "bounds.csv"), columns)
    return 0


def cmd_equivalence(cfg: dict, args: argparse.Namespace) -> int:
    target, draft = parse_models(cfg)
    mode = parse_mode(cfg)
    policy_factory, policy_label = parse_policy(cfg)
    prompt = parse_prompt(_get(cfg, "prompt"), "prompt", target.vocab_size)
    horizon = _get_count(cfg, "horizon")
    n_samples = _get(cfg, "n_samples", expect=int)
    seed = _get_seed(cfg, "seed", args.seed_override)
    threshold = float(_get(cfg, "threshold", expect=(int, float),
                           required=False, default=0.01))
    if not 0 <= threshold < math.inf:
        raise ValidationError("threshold: must be finite and >= 0")
    try:
        check_equivalence_size(target.vocab_size, horizon, n_samples)
    except ValueError as exc:  # its message starts with the field path
        raise ValidationError(str(exc))

    verdict = equivalence_test(target, draft, policy_factory, prompt, horizon,
                               n_samples, make_rng(seed), threshold, mode)
    write_json(os.path.join(args.out, "verdict.json"),
               {**dataclasses.asdict(verdict), "policy": policy_label})
    print(f"equivalence: tvd={fmt9(verdict.tvd)} threshold={fmt9(threshold)} "
          f"{'PASS' if verdict.passed else 'FAIL'}")
    return 0 if verdict.passed else 3


def cmd_oracle_stats(cfg: dict, args: argparse.Namespace) -> int:
    target, draft = parse_models(cfg)
    mode = parse_mode(cfg)
    prompts = parse_prompts(cfg, target.vocab_size)
    cap = _get_count(cfg, "cap", MAX_ORACLE_CAP, required=False, default=DEFAULT_CAP)
    n_runs = _get_count(cfg, "n_runs", required=False, default=1)
    seed = _get_seed(cfg, "seed", args.seed_override)

    mean, variance, histogram = oracle_length_stats(
        target, draft, prompts, mode, make_rng(seed), cap, n_runs)
    summary = {"mean": mean, "variance": variance, "cap": cap,
               "n_runs": n_runs, "n_prompts": len(prompts),
               "histogram": histogram.tolist()}
    if args.format == "csv":
        write_csv(os.path.join(args.out, "oracle_histogram.csv"),
                  {"length": range(len(histogram)), "count": histogram.tolist()})
    write_json(os.path.join(args.out, "oracle_stats.json"), summary)
    return 0


# -- entry point --------------------------------------------------------------


_COMMANDS = {
    "decode": cmd_decode,
    "experiment": cmd_experiment,
    "bounds-eval": cmd_bounds_eval,
    "equivalence": cmd_equivalence,
    "oracle-stats": cmd_oracle_stats,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Speculative decoding laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed-override", type=int, default=None,
                        help="replace the config's seed(s) with one value")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format where applicable")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("decode", parents=[common],
                   help="run speculative decodes, write tokens and round CSV")
    sub.add_parser("experiment", parents=[common],
                   help="run an experiment suite, write report JSON and round CSV")
    sub.add_parser("bounds-eval", parents=[common],
                   help="evaluate acceptance-rate bounds on sampled pairs")
    sub.add_parser("equivalence", parents=[common],
                   help="Monte Carlo output-distribution equivalence verdict")
    sub.add_parser("oracle-stats", parents=[common],
                   help="oracle draft length statistics")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"--out: {exc}")
        return _COMMANDS[args.command](cfg, args)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
