"""Command-line entry point: single runs, parameter sweeps, and the
verification report.

Configuration comes from defaults, then an optional plain-text ``key = value``
file, then flags (flags win). Every run is fully reproducible from the config
echo written into the output CSV's ``#`` metadata lines.
"""

import argparse
import copy
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import ParseError, load_libsvm, make_synthetic, split_train_test
from .estimators import ENUMERATION_CAP
from .harness import emit_csv, finalize_suboptimality
from .line_search import SBASParams
from .objective import LOSSES, ObjectiveSpec, Regularizer
from .solvers import SOLVERS, RunConfig, reference_optimum, run
from .verify import run_suites

DEFAULT_BATCH_GRID = (32, 64, 128)
DEFAULT_LAMBDA_GRID = (1e-3, 1e-5, 1e-7)


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; defaults follow the benchmark
    protocol (80/20 split, lambda = 1e-5, SBAS alpha 0.1 / shrink 0.5 /
    eta0 1.0 with 10 backtracks, mini-batch 32)."""

    dataset: str | None = None
    synthetic: str | None = None
    solvers: tuple = ("saag3", "saag4", "svrg", "vrsgd")
    loss: str = "logistic"
    l1: float = 0.0
    l2: float = 1e-5
    b: int = 32
    epochs: int = 30
    seeds: tuple = (0,)
    eta0: float = 1.0
    alpha: float = 0.1
    shrink: float = 0.5
    max_backtracks: int = 10
    fixed_eta: float | None = None
    out: str = "trace.csv"
    workers: int = 1
    train_fraction: float = 0.8
    split_seed: int = 0
    ref_budget: int = 500


def _opt_str(text):
    return None if text.lower() == "none" else text


def _opt_float(text):
    return None if text.lower() == "none" else float(text)


def _str_list(text):
    return tuple(s for s in (p.strip() for p in text.split(",")) if s)


def _int_list(text):
    return tuple(int(s) for s in text.split(",") if s.strip())


_FIELDS = {
    # name: (caster of the flag / config-file text, --help text)
    "dataset": (_opt_str, "LibSVM-format data file"),
    "synthetic": (_opt_str,
                  "synthetic generator spec: n=..,d=..[,flip=..][,seed=..]"),
    "solvers": (_str_list, "comma list from: " + ",".join(SOLVERS)),
    "loss": (str, "one of: " + ",".join(LOSSES)),
    "l1": (float, "l1 coefficient (non-smooth part)"),
    "l2": (float, "l2 coefficient (smooth part)"),
    "b": (int, "mini-batch size"),
    "epochs": (int, "number of epochs S"),
    "seeds": (_int_list, "comma list of run seeds"),
    "eta0": (float, "initial line-search step"),
    "alpha": (float, "Armijo sufficient-decrease constant"),
    "shrink": (float, "backtracking shrink factor"),
    "max_backtracks": (int, "most backtracks per line-search call"),
    "fixed_eta": (_opt_float, "bypass the line search with a fixed step"),
    "out": (str, "output CSV path"),
    "workers": (int, "parallel run workers"),
    "train_fraction": (float, "share of the rows in the training set"),
    "split_seed": (int, "seed of the train/test split"),
    "ref_budget": (int, "reference-optimum budget: it stops after "
                        "max(2000, 20 * budget) iterations"),
}


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
    """Parse ``key = value`` lines; '#' comments, blank lines and ``note:``
    lines are skipped."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("note:"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in _FIELDS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _FIELDS[key][0](value.strip())
    return values


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
        kwargs[key] = float(value) if key in ("flip", "margin") else int(value)
        seen.add(key)
    if "n" not in seen or "d" not in seen:
        raise UsageError("synthetic spec needs at least n=... and d=...")
    return kwargs


def canonical_synthetic(text):
    kw = parse_synthetic_spec(text)
    return (f"n={kw['n']},d={kw['d']},flip={kw['flip']!r},"
            f"margin={kw['margin']!r},seed={kw['seed']}")


def _build_config(args):
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values.update(parse_config_text(fh.read()))
    for name, (cast, _) in _FIELDS.items():
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = cast(flag)
    config = ExperimentConfig(**values)
    for kind in config.solvers:
        if kind not in SOLVERS:
            raise UsageError(
                f"unknown solver {kind!r}; valid kinds: {', '.join(SOLVERS)}")
    if config.loss not in LOSSES:
        raise UsageError(f"unknown loss {config.loss!r}; valid: {', '.join(LOSSES)}")
    if config.synthetic is not None:
        config = replace(config, synthetic=canonical_synthetic(config.synthetic))
    return config


def _load_data(config):
    if config.dataset is not None:
        return load_libsvm(config.dataset), f"dataset file {config.dataset}"
    if config.synthetic is not None:
        return (make_synthetic(**parse_synthetic_spec(config.synthetic)),
                f"synthetic generator {config.synthetic}")
    raise UsageError("one of --dataset or --synthetic is required")


def _run_job(job):
    config, test = job
    return run(config, test=test)[1]


def _run_all(jobs, workers):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_job, jobs))
    return [_run_job(job) for job in jobs]


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
    """The points of a sweep as (axis value, batch size, Regularizer), and
    the axis values as reported; ``axis=None`` is the one configured point."""
    b = min(config.b, n_train)
    reg = Regularizer(lambda2=config.l2, lambda1=config.l1)
    if axis is None:
        return [(None, b, reg)], None
    if axis not in ("batch", "lambda"):
        raise UsageError("sweep axis must be 'batch' or 'lambda'")
    if values is None:
        values = list(DEFAULT_BATCH_GRID if axis == "batch" else DEFAULT_LAMBDA_GRID)
    if not values:
        raise UsageError("sweep axis values list is empty")
    if axis == "batch":
        values = sorted({min(int(v), n_train) for v in values})
        return [(v, v, reg) for v in values], values
    # the grid scales every regularization coefficient that is active
    return [(v, b, Regularizer(lambda2=float(v),
                               lambda1=float(v) if config.l1 > 0 else 0.0))
            for v in values], values


def cmd_run(config, axis=None, values=None, out=None):
    """Run every (solver x seed) job at each point of a batch-size or lambda
    grid (the configured point when ``axis`` is None), finalize one F* per
    regularizer, write one CSV (with an ``axis`` column for a sweep) and
    print a summary. Returns a process exit code."""
    data, provenance = _load_data(config)
    train, test = split_train_test(data, config.train_fraction, config.split_seed)
    points, values = _grid(config, axis, values, train.n)
    if axis is None:
        config = replace(config, b=points[0][1])
    specs = {reg: ObjectiveSpec(config.loss, reg, train) for _, _, reg in points}
    sbas = SBASParams(alpha=config.alpha, shrink=config.shrink, eta0=config.eta0,
                      max_backtracks=config.max_backtracks)
    runs = [(value, RunConfig(solver=kind, objective=specs[reg],
                              epochs=config.epochs, batch_size=b, sbas=sbas,
                              seed=seed, fixed_eta=config.fixed_eta))
            for value, b, reg in points
            for kind in config.solvers for seed in config.seeds]
    # gd ignores b, so a batch sweep runs it once per (seed, objective)
    keys = [(job.solver, job.seed, job.objective,
             None if job.solver == "gd" else job.batch_size) for _, job in runs]
    unique = {key: (job, test) for key, (_, job) in zip(keys, runs)}
    done = dict(zip(unique, _run_all(list(unique.values()), config.workers)))
    traces = [copy.deepcopy(done[key]) for key in keys]
    groups = {}
    for (value, job), trace in zip(runs, traces):
        trace.config["b"] = job.batch_size
        if axis is not None:
            trace.extra[axis] = value
        groups.setdefault(job.objective, []).append(trace)
    f_star_notes = []
    for spec, group in groups.items():
        # each regularizer is a different objective and needs its own F*
        reference = reference_optimum(spec, config.ref_budget)
        fstar = finalize_suboptimality(group, reference.value)
        where = f"lambda = {group[0].extra[axis]}, " if axis == "lambda" else ""
        f_star_notes.append(f"note: f_star = {fstar!r} "
                            f"({where}reference converged: {reference.converged})")
    metadata = echo_config(config) + [f"note: data from {provenance}"]
    if axis is not None:
        metadata.append(f"note: sweep axis = {axis}, values = {values}")
    metadata += [f"note: n_train = {train.n}, n_test = {test.n}, d = {train.d}",
                 *f_star_notes]
    path = out or config.out
    emit_csv(traces, path, metadata=metadata,
             extra_fields=() if axis is None else (axis,))
    if axis is None:
        print(f"wrote {path} ({len(traces)} traces, F* = {fstar:.12e})")
        for line in _summary_lines(traces):
            print(line)
    else:
        print(f"wrote {path} ({len(traces)} traces over {axis} grid {values})")
    return 1 if any(t.failure for t in traces) else 0


def cmd_verify(config, inject_scale_bug=False, out=None):
    """Run the oracle suites (``verify.run_suites``) on a small synthetic
    problem; exit nonzero if any check fails. Results go to stdout and, when
    ``out`` is given, to a ``check,passed,detail`` CSV.

    The enumeration-based suites are skipped with a notice when the problem
    exceeds the enumeration cap.
    """
    data = make_synthetic(**parse_synthetic_spec(config.synthetic or "n=24,d=6"))
    results = run_suites(data, config.loss, config.l1, config.l2, inject_scale_bug)
    for name, passed, detail in results:
        if name == "rate-constants" and data.n > ENUMERATION_CAP:
            # the enumeration suites run just before the rate constants
            print(f"SKIP  enumeration suites: n = {data.n} exceeds cap {ENUMERATION_CAP}")
        print(f"{'PASS' if passed else 'FAIL'}  {name:<18} {detail}")
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("check", "passed", "detail"))
            writer.writerows(results)
        print(f"wrote {out}")
    return 0 if all(passed for _, passed, _ in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saag",
        description="Variance-reduced stochastic solvers benchmark and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="plain-text key = value config file")
        for name, (_, text) in _FIELDS.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=text)
        p.add_argument("--solver", dest="solvers",
                       help="single solver (same as --solvers)")

    add_common(sub.add_parser("run", help="run solver x seed jobs, emit CSV"))
    p_sweep = sub.add_parser("sweep", help="grid sweep over batch size or lambda")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=("batch", "lambda"))
    p_sweep.add_argument("--values", help="comma list of axis values")
    p_verify = sub.add_parser("verify", help="run the oracle verification suites")
    add_common(p_verify)
    p_verify.add_argument("--inject-scale-bug", action="store_true",
                          help="debug: use 1/b instead of 1/n in the snap term")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "sweep":
            values = None
            if args.values is not None:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            return cmd_run(config, args.axis, values)
        return cmd_verify(config, inject_scale_bug=args.inject_scale_bug,
                          out=args.out)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ParseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
