"""Command-line entry point: single runs, parameter sweeps, and the
verification report.

Configuration comes from defaults, then an optional plain-text ``key = value``
file, then flags (flags win). Every run is fully reproducible from the config
echo written into the output CSV's ``#`` metadata lines.
"""

import argparse
import csv
import re
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import load_libsvm, make_synthetic, split_train_test
from .harness import emit_csv, run_jobs
from .line_search import SBASParams
from .objective import LOSSES, ObjectiveSpec
from .solvers import SOLVERS, RunConfig
from . import verify  # runs only when cmd_verify first uses it

DEFAULT_BATCH_GRID = (32, 64, 128)
DEFAULT_LAMBDA_GRID = (1e-3, 1e-5, 1e-7)


class UsageError(ValueError):
    pass


def _optional(read):
    return lambda text: None if text.lower() == "none" else read(text)


def _list_of(read):
    """The reader of a non-empty comma list of distinct values."""
    def read_list(text):
        items = tuple(read(s.strip()) for s in text.split(",") if s.strip())
        if not items:
            raise UsageError(f"empty comma list {text!r}")
        if len(set(items)) < len(items):
            raise UsageError(f"repeated value in comma list {text!r}")
        return items
    return read_list


def _checked(read, ok, message):
    """``read``, failing with ``message.format(value)`` where ``ok`` is false."""
    def read_checked(text):
        if not ok(value := read(text)):
            raise UsageError(message.format(value))
        return value
    return read_checked


def _reading(where, read, text):
    try:
        return read(text)
    except ValueError as err:   # the message names the option or config line
        raise UsageError(f"{where}: {err}") from err


def parse_synthetic_spec(text):
    """Parse ``n=...,d=...[,flip=...][,margin=...][,seed=...]`` into
    generator kwargs."""
    kwargs = {"flip": 0.0, "margin": 0.0, "seed": 0}
    seen = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or key not in ("n", "d", "flip", "margin", "seed"):
            raise UsageError(f"bad synthetic spec component {part!r}")
        if key in seen:
            raise UsageError(f"repeated synthetic spec key {key!r}")
        kwargs[key] = float(value) if key in ("flip", "margin") else int(value)
        seen.add(key)
    if "n" not in seen or "d" not in seen:
        raise UsageError("synthetic spec needs at least n=... and d=...")
    return kwargs


def canonical_synthetic(text):
    kw = parse_synthetic_spec(text)
    return (f"n={kw['n']},d={kw['d']},flip={kw['flip']!r},"
            f"margin={kw['margin']!r},seed={kw['seed']}")


def _option(default, read, text):
    return field(default=default, metadata={"read": read, "help": text})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment, and the one table of the command
    line's options: each field is a flag and a config-file key, with its
    default, the reader of its text and its help. The defaults follow the
    benchmark protocol (80/20 split, lambda = 1e-5, ``SBASParams``'
    defaults, mini-batch 32)."""

    dataset: str | None = _option(None, _optional(str), "LibSVM-format data file")
    synthetic: str | None = _option(
        None, _optional(canonical_synthetic),
        "synthetic generator spec: n=..,d=..[,flip=..][,margin=..][,seed=..]")
    solvers: tuple = _option(
        ("saag3", "saag4", "svrg", "vrsgd"),
        _list_of(_checked(str, SOLVERS.__contains__,
                          "unknown solver {!r}; valid kinds: " + ", ".join(SOLVERS))),
        "comma list from: " + ",".join(SOLVERS))
    loss: str = _option(
        "logistic",
        _checked(str, LOSSES.__contains__,
                 "unknown loss {!r}; valid: " + ", ".join(LOSSES)),
        "one of: " + ",".join(LOSSES))
    l1: float = _option(0.0, float, "l1 coefficient (non-smooth part)")
    l2: float = _option(1e-5, float, "l2 coefficient (smooth part)")
    b: int = _option(32, int, "mini-batch size")
    epochs: int = _option(30, int, "number of epochs S")
    seeds: tuple = _option((0,), _list_of(int), "comma list of run seeds")
    eta0: float = _option(SBASParams.eta0, float, "initial line-search step")
    alpha: float = _option(SBASParams.alpha, float,
                           "Armijo sufficient-decrease constant")
    shrink: float = _option(SBASParams.shrink, float, "backtracking shrink factor")
    max_backtracks: int = _option(SBASParams.max_backtracks, int,
                                  "most backtracks per line-search call")
    fixed_eta: float | None = _option(
        None, _optional(float), "bypass the line search with a fixed step (finite, > 0)")
    out: str = _option("trace.csv", str, "output CSV path")
    workers: int = _option(1, _checked(int, lambda w: w >= 1, "workers must be >= 1"),
                           "parallel run workers")
    train_fraction: float = _option(0.8, float,
                                    "share of the rows in the training set")
    split_seed: int = _option(0, int, "seed of the train/test split")


def _format_value(value):
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def echo_config(config):
    """Canonical ``key = value`` lines; feeding them back as a config file
    reproduces the run."""
    return [f"{f.name} = {_format_value(getattr(config, f.name))}"
            for f in fields(config)]


def parse_config_text(text):
    """Parse ``key = value`` lines; blank lines and lines starting with '#'
    or ``note:`` are skipped, and a '#' inside a value is part of it."""
    readers = {f.name: f.metadata["read"] for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "note:")):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in readers:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _reading(f"config line {lineno}", readers[key], value.strip())
    return values


def _build_config(args):
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values.update(parse_config_text(fh.read()))
    for f in fields(ExperimentConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = _reading("--" + f.name.replace("_", "-"),
                                      f.metadata["read"], flag)
    return ExperimentConfig(**values)


def _load_data(config):
    if config.dataset is not None:
        return load_libsvm(config.dataset), f"dataset file {config.dataset}"
    if config.synthetic is not None:
        return (make_synthetic(**parse_synthetic_spec(config.synthetic)),
                f"synthetic generator {config.synthetic}")
    raise UsageError("one of --dataset or --synthetic is required")


def _summary_lines(traces):
    lines = ["solver   seed  final_obj      final_subopt   best_subopt    "
             "final_acc  best_acc"]
    for t in sorted(traces, key=lambda t: (t.solver, t.seed)):
        final = t.points[-1]
        best_sub = min(p.suboptimality for p in t.points)
        accs = [p.test_accuracy for p in t.points]
        best_acc = np.nanmax(accs) if not all(np.isnan(accs)) else float("nan")
        status = "  FAILED: " + t.failure if t.failure else ""
        lines.append(
            f"{t.solver:<8} {t.seed:>4}  {final.objective:<13.6e}  "
            f"{final.suboptimality:<13.6e}  {best_sub:<13.6e}  "
            f"{final.test_accuracy:<9.4f}  {best_acc:<9.4f}{status}")
    return lines


def _grid(config, axis, values, n_train):
    """The points of a sweep as (axis value, batch size, (lambda2, lambda1))
    and the axis values as reported; ``axis=None`` is the configured point."""
    b = min(config.b, n_train)
    reg = (config.l2, config.l1)
    if axis is None:
        return [(None, b, reg)], None
    if values is None:
        values = list(DEFAULT_BATCH_GRID if axis == "batch" else DEFAULT_LAMBDA_GRID)
    if not values:
        raise UsageError("sweep axis values list is empty")
    if axis == "batch":
        if not all(float(v).is_integer() for v in values):
            raise UsageError(f"batch sizes must be whole numbers: {values}")
        values = sorted({min(int(v), n_train) for v in values})
        return [(v, v, reg) for v in values], values
    # a repeated value is one point, in first-seen order
    values = list(dict.fromkeys(values))
    # the grid scales every regularization coefficient that is active
    return [(v, b, (float(v), float(v) if config.l1 > 0 else 0.0))
            for v in values], values


def cmd_run(config, axis=None, values=None):
    """Run every (solver x seed) job at each point of a batch-size or lambda
    grid (the configured point when ``axis`` is None) through ``run_jobs``,
    one F* per regularizer, write one CSV (with an ``axis`` column for a
    sweep) and print a summary. Returns a process exit code."""
    data, provenance = _load_data(config)
    train, test = split_train_test(data, config.train_fraction, config.split_seed)
    points, values = _grid(config, axis, values, train.n)
    if axis is None:
        config = replace(config, b=points[0][1])
    specs = {reg: ObjectiveSpec(config.loss, train, *reg) for _, _, reg in points}
    # the jobs check their parameters before run_jobs computes any F*
    sbas = SBASParams(alpha=config.alpha, shrink=config.shrink, eta0=config.eta0,
                      max_backtracks=config.max_backtracks)
    runs = [(value, RunConfig(solver=kind, objective=specs[reg],
                              epochs=config.epochs, batch_size=b, sbas=sbas,
                              seed=seed, fixed_eta=config.fixed_eta))
            for value, b, reg in points
            for kind in config.solvers for seed in config.seeds]
    traces, optima = run_jobs([job for _, job in runs], test, config.workers)
    if axis is not None:
        for (value, _), trace in zip(runs, traces):
            trace.extra[axis] = value
    where = {specs[reg]: f"lambda = {value}, " if axis == "lambda" else ""
             for value, _, reg in points}
    # the bound precedes the group: parsers read the iterations as its last token
    f_star_notes = [f"note: f_star = {fstar!r} within {reference.bound!r} of the "
                    f"optimum ({where[spec]}reference converged: "
                    f"{reference.converged}, iterations: {reference.iterations})"
                    for spec, (reference, fstar) in optima.items()]
    metadata = echo_config(config) + [f"note: data from {provenance}"]
    if axis is not None:
        metadata.append(f"note: sweep axis = {axis}, values = {values}")
    metadata += [f"note: n_train = {train.n}, n_test = {test.n}, d = {train.d}",
                 *f_star_notes]
    emit_csv(traces, config.out, metadata=metadata,
             extra_fields=() if axis is None else (axis,))
    if axis is None:
        (_, fstar), = optima.values()
        print(f"wrote {config.out} ({len(traces)} traces, F* = {fstar:.12e})")
        for line in _summary_lines(traces):
            print(line)
    else:
        print(f"wrote {config.out} ({len(traces)} traces over {axis} grid {values})")
    return 1 if any(t.failure for t in traces) else 0


def cmd_verify(config, inject_scale_bug=False, out=None):
    """Run the oracle suites (``verify.run_suites``) on a small synthetic
    problem and print one PASS, FAIL or SKIP (a check that did not run) line
    per check; exit 1 if any check fails. When ``out`` is given, the results
    also go to a ``check,passed,detail`` CSV."""
    data = make_synthetic(**parse_synthetic_spec(config.synthetic or "n=24,d=6"))
    results = verify.run_suites(data, config.loss, config.l1, config.l2, inject_scale_bug)
    for name, passed, detail in results:
        status = "SKIP" if passed is None else "PASS" if passed else "FAIL"
        print(f"{status}  {name:<18} {detail}")
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("check", "passed", "detail"))
            writer.writerows(results)
        print(f"wrote {out}")
    return 1 if any(passed is False for _, passed, _ in results) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saag",
        description="Variance-reduced stochastic solvers benchmark and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, names):
        for f in fields(ExperimentConfig):
            if f.name in names:
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               help=f.metadata["help"])

    p_run = sub.add_parser("run", help="run solver x seed jobs, emit CSV")
    p_sweep = sub.add_parser("sweep", help="grid sweep over batch size or lambda")
    for p in (p_run, p_sweep):
        p.add_argument("--config", help="plain-text key = value config file")
        add_options(p, [f.name for f in fields(ExperimentConfig)])
    p_sweep.add_argument("--axis", required=True, choices=("batch", "lambda"))
    p_sweep.add_argument("--values", help="comma list of axis values")
    p_verify = sub.add_parser("verify", help="run the oracle verification suites")
    add_options(p_verify, ("synthetic", "loss", "l1", "l2"))
    p_verify.add_argument("--out", help="also write a check,passed,detail CSV")
    p_verify.add_argument("--inject-scale-bug", action="store_true",
                          help="debug: run the bias identity on SVRG; it must fail")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-1e-3" for an option: "--l1 -1e-3" reads as "--l1=-1e-3"
    for i in reversed(range(1, len(argv))):
        flag, value = argv[i - 1:i + 1]
        if re.fullmatch(r"--[^=]+", flag) and re.match(r"-(\.?\d|inf|nan)", value, re.I):
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    args = build_parser().parse_args(argv)
    values = getattr(args, "values", None)
    try:
        config = _build_config(args)
        if values is not None:
            values = _reading("--values", lambda text: [
                float(v) for v in text.split(",") if v.strip()], values)
        if args.command == "verify":
            return cmd_verify(config, args.inject_scale_bug, args.out)
        return cmd_run(config, getattr(args, "axis", None), values)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
