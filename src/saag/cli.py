"""Command-line entry point: single runs, parameter sweeps, and the
verification report.

Configuration comes from defaults, then an optional plain-text ``key = value``
file, then flags (flags win). Every run is fully reproducible from the config
echo written into the output CSV's ``#`` metadata lines.
"""

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import ParseError, load_libsvm, make_schedule, make_synthetic, split_train_test
from .estimators import ENUMERATION_CAP, take_snapshot
from .harness import emit_csv, finalize_suboptimality
from .line_search import SBASParams
from .objective import LOSSES, ObjectiveSpec, Regularizer
from .solvers import SOLVERS, RunConfig, reference_optimum, run
from .verify import (RateParams, RegimeError, bias_identity_gap,
                     best_beta, estimate_constants, gradient_check,
                     prox_check, theoretical_rate, unbiasedness_gap,
                     variance_bound_check)

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


_CASTERS = {
    "dataset": _opt_str,
    "synthetic": _opt_str,
    "solvers": _str_list,
    "loss": str,
    "l1": float,
    "l2": float,
    "b": int,
    "epochs": int,
    "seeds": _int_list,
    "eta0": float,
    "alpha": float,
    "shrink": float,
    "max_backtracks": int,
    "fixed_eta": _opt_float,
    "out": str,
    "workers": int,
    "train_fraction": float,
    "split_seed": int,
    "ref_budget": int,
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
        if key not in _CASTERS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _CASTERS[key](value.strip())
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
    for name in _CASTERS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = _CASTERS[name](flag) if isinstance(flag, str) else flag
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
        kw = parse_synthetic_spec(config.synthetic)
        return (make_synthetic(kw["n"], kw["d"], seed=kw["seed"], flip=kw["flip"],
                               margin=kw["margin"]),
                f"synthetic generator {config.synthetic}")
    raise UsageError("one of --dataset or --synthetic is required")


def _run_job(job):
    kind, seed, spec, test, epochs, b, sbas_params, fixed_eta = job
    config = RunConfig(solver=kind, objective=spec, epochs=epochs, batch_size=b,
                       sbas=sbas_params, seed=seed, fixed_eta=fixed_eta)
    _, trace = run(config, test=test)
    return trace


def _run_all(jobs, workers):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_job, jobs))
    return [_run_job(job) for job in jobs]


def _sbas_params(config):
    return SBASParams(alpha=config.alpha, shrink=config.shrink,
                      eta0=config.eta0, max_backtracks=config.max_backtracks)


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


def cmd_run(config, out=None):
    """Run all (solver x seed) jobs, finalize F*, write the CSV, print a
    summary. Returns a process exit code."""
    data, provenance = _load_data(config)
    train, test = split_train_test(data, config.train_fraction, config.split_seed)
    b = min(config.b, train.n)
    if b != config.b:
        config = replace(config, b=b)
    spec = ObjectiveSpec(config.loss, Regularizer(lambda2=config.l2,
                                                  lambda1=config.l1), train)
    sbas_params = _sbas_params(config)
    jobs = [(kind, seed, spec, test, config.epochs, b, sbas_params,
             config.fixed_eta)
            for kind in config.solvers for seed in config.seeds]
    traces = _run_all(jobs, config.workers)
    reference = reference_optimum(spec, config.ref_budget)
    fstar = finalize_suboptimality(traces, reference.value)
    metadata = echo_config(config) + [
        f"note: data from {provenance}",
        f"note: n_train = {train.n}, n_test = {test.n}, d = {train.d}",
        f"note: f_star = {fstar!r} (reference converged: {reference.converged})",
    ]
    path = out or config.out
    emit_csv(traces, path, metadata=metadata)
    print(f"wrote {path} ({len(traces)} traces, F* = {fstar:.12e})")
    for line in _summary_lines(traces):
        print(line)
    return 1 if any(t.failure for t in traces) else 0


def cmd_sweep(config, axis, values=None, out=None):
    """Cross-product runs over a batch-size or regularization grid; one CSV
    with an extra axis column."""
    if axis not in ("batch", "lambda"):
        raise UsageError("sweep axis must be 'batch' or 'lambda'")
    data, provenance = _load_data(config)
    train, test = split_train_test(data, config.train_fraction, config.split_seed)
    if values is None:
        values = list(DEFAULT_BATCH_GRID if axis == "batch" else DEFAULT_LAMBDA_GRID)
    if not values:
        raise UsageError("sweep axis values list is empty")
    if axis == "batch":
        values = sorted({min(int(v), train.n) for v in values})
    sbas_params = _sbas_params(config)
    all_traces = []
    for value in values:
        if axis == "batch":
            b, reg = int(value), Regularizer(lambda2=config.l2, lambda1=config.l1)
        else:
            # the grid scales every regularization coefficient that is active
            b = min(config.b, train.n)
            reg = Regularizer(lambda2=float(value),
                              lambda1=float(value) if config.l1 > 0 else 0.0)
        spec = ObjectiveSpec(config.loss, reg, train)
        jobs = [(kind, seed, spec, test, config.epochs, b, sbas_params,
                 config.fixed_eta)
                for kind in config.solvers for seed in config.seeds]
        traces = _run_all(jobs, config.workers)
        for t in traces:
            t.extra[axis] = value
        if axis == "lambda":
            # each lambda is a different objective and needs its own F*
            reference = reference_optimum(spec, config.ref_budget)
            finalize_suboptimality(traces, reference.value)
        all_traces.extend(traces)
    if axis == "batch":
        spec = ObjectiveSpec(config.loss, Regularizer(lambda2=config.l2,
                                                      lambda1=config.l1), train)
        reference = reference_optimum(spec, config.ref_budget)
        finalize_suboptimality(all_traces, reference.value)
    metadata = echo_config(config) + [
        f"note: data from {provenance}",
        f"note: sweep axis = {axis}, values = {values}",
    ]
    path = out or config.out
    emit_csv(all_traces, path, metadata=metadata, extra_fields=(axis,))
    print(f"wrote {path} ({len(all_traces)} traces over {axis} grid {values})")
    return 1 if any(t.failure for t in all_traces) else 0


def _check(results, name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  {name:<18} {detail}")
    results.append((name, passed, detail))
    return passed


def cmd_verify(config, inject_scale_bug=False, out=None):
    """Run the oracle suites on a small synthetic problem; exit nonzero if
    any check fails. Results go to stdout and, when ``out`` is given, to a
    ``check,passed,detail`` CSV.

    Enumeration-based suites (bias identity, unbiasedness, variance bound)
    are skipped with a notice when the problem exceeds the enumeration cap.
    """
    synthetic = config.synthetic or "n=24,d=6"
    kw = parse_synthetic_spec(synthetic)
    data = make_synthetic(kw["n"], kw["d"], seed=kw["seed"], flip=kw["flip"],
                          margin=kw["margin"])
    rng = np.random.default_rng(7)
    results = []
    ok = True

    # gradient vs central finite differences, all losses
    worst_fd = 0.0
    for loss in LOSSES:
        spec = ObjectiveSpec(loss, Regularizer(lambda2=config.l2), data)
        for _ in range(3):
            worst_fd = max(worst_fd,
                           gradient_check(spec, 0.5 * rng.standard_normal(data.d)))
    ok &= _check(results, "gradient-fd", worst_fd <= 1e-5,
                 f"max rel err {worst_fd:.3e} (tol 1e-5)")

    # prox against scalar brute force
    worst_prox = 0.0
    for _ in range(200):
        reg = Regularizer(lambda1=float(rng.uniform(0.0, 2.0)))
        worst_prox = max(worst_prox, prox_check(
            reg, rng.normal(scale=2.0, size=3), float(rng.uniform(0.05, 3.0))))
    ok &= _check(results, "prox-oracle", worst_prox <= 1e-8,
                 f"max gap {worst_prox:.3e} (tol 1e-8)")

    if data.n > ENUMERATION_CAP:
        print(f"SKIP  enumeration suites: n = {data.n} exceeds cap {ENUMERATION_CAP}")
    else:
        # the expectation identities assume equal batch sizes, so only batch
        # sizes dividing n are enumerated
        divisors = [b for b in (1, 2, max(2, data.n // 3)) if data.n % b == 0]
        spec = ObjectiveSpec(config.loss, Regularizer(lambda2=config.l2), data)
        bias_gap = 0.0
        unbias_gap = 0.0
        for b in sorted(set(divisors)):
            schedule = make_schedule(data.n, b, seed=0)
            snap_denom_bug = b if inject_scale_bug else None
            for _ in range(20):
                w = rng.standard_normal(data.d)
                snap = take_snapshot(spec, rng.standard_normal(data.d))
                bias_gap = max(bias_gap, bias_identity_gap(
                    spec, w, snap, schedule, snap_denom=snap_denom_bug))
                unbias_gap = max(unbias_gap, unbiasedness_gap(spec, w, snap, schedule))
        ok &= _check(results, "bias-identity", bias_gap <= 1e-10,
                     f"max gap {bias_gap:.3e} (tol 1e-10)")
        ok &= _check(results, "unbiasedness", unbias_gap <= 1e-10,
                     f"max gap {unbias_gap:.3e} (tol 1e-10)")

        worst_margin = np.inf
        all_hold = True
        for lam1 in (0.0, max(config.l1, 1e-3)):
            spec_v = ObjectiveSpec(config.loss,
                                   Regularizer(lambda2=config.l2, lambda1=lam1), data)
            constants = estimate_constants(spec_v)
            reference = reference_optimum(spec_v, budget=200)
            b = divisors[-1]
            schedule = make_schedule(data.n, b, seed=1)
            for _ in range(50):
                w = 0.5 * rng.standard_normal(data.d)
                snap = take_snapshot(spec_v, 0.5 * rng.standard_normal(data.d))
                report = variance_bound_check(spec_v, w, snap, schedule,
                                              constants, reference)
                all_hold &= report.passed
                worst_margin = min(worst_margin, report.rhs - report.lhs)
        ok &= _check(results, "variance-bound", all_hold,
                     f"min RHS-LHS margin {worst_margin:.3e}")

    # rate constants: canonical contraction point plus regime handling
    params = RateParams(beta=10.0, c=1.0, m=100, b=10, n=1000)
    report = theoretical_rate(1, params)
    rate_ok = report.contraction and 0.0 < report.C < 1.0
    try:
        theoretical_rate(1, RateParams(beta=1.2, c=1.0, m=100, b=10, n=1000))
        rate_ok = False
    except RegimeError:
        pass
    spec = ObjectiveSpec(config.loss, Regularizer(lambda2=max(config.l2, 1e-6)), data)
    constants = estimate_constants(spec)
    for theorem in (2, 4):
        beta, rep = best_beta(theorem, c=0.05, m=8, b=3, n=24, constants=constants)
        rate_ok &= np.isfinite(rep.C)
    ok &= _check(results, "rate-constants", rate_ok,
                 f"theorem 1 C = {report.C:.6f} at beta=10 (contraction)")

    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("check", "passed", "detail"))
            writer.writerows(results)
        print(f"wrote {out}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saag",
        description="Variance-reduced stochastic solvers benchmark and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="plain-text key = value config file")
        p.add_argument("--dataset", help="LibSVM-format data file")
        p.add_argument("--synthetic",
                       help="synthetic generator spec: n=..,d=..[,flip=..][,seed=..]")
        p.add_argument("--solvers", help="comma list from: " + ",".join(SOLVERS))
        p.add_argument("--solver", dest="solvers",
                       help="single solver (same as --solvers)")
        p.add_argument("--loss", help="one of: " + ",".join(LOSSES))
        p.add_argument("--l1", help="l1 coefficient (non-smooth part)")
        p.add_argument("--l2", help="l2 coefficient (smooth part)")
        p.add_argument("--b", help="mini-batch size")
        p.add_argument("--epochs", help="number of epochs S")
        p.add_argument("--seeds", help="comma list of run seeds")
        p.add_argument("--eta0", help="initial line-search step")
        p.add_argument("--alpha", help="Armijo sufficient-decrease constant")
        p.add_argument("--shrink", help="backtracking shrink factor")
        p.add_argument("--max-backtracks", dest="max_backtracks")
        p.add_argument("--fixed-eta", dest="fixed_eta",
                       help="bypass the line search with a fixed step")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--workers", help="parallel run workers")
        p.add_argument("--train-fraction", dest="train_fraction")
        p.add_argument("--split-seed", dest="split_seed")
        p.add_argument("--ref-budget", dest="ref_budget",
                       help="reference-optimum budget (epoch equivalents)")

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
            return cmd_sweep(config, args.axis, values)
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
