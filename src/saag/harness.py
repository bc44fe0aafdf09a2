"""Per-epoch records, a command's jobs and machine-readable trace output.

Each completed epoch contributes one trace point holding the six criteria the
benchmark plots are built from: objective, suboptimality, test accuracy, and
the cumulative wall seconds / gradient evaluations / epochs they are plotted
against. Metric evaluation itself is excluded from both the wall clock and
the gradient counters.
"""

import copy
import csv
import math
from dataclasses import dataclass, field, fields

from .objective import accuracy, objective_value

SUBOPT_FLOOR = 1e-16

CSV_FIELDS = ("solver", "seed", "epoch", "wall_seconds", "grads_over_n",
              "objective", "suboptimality", "test_accuracy")


@dataclass
class TracePoint:
    epoch: int
    wall_seconds: float
    grads_over_n: float
    fevals: int
    objective: float
    suboptimality: float
    test_accuracy: float


@dataclass(eq=False)
class Trace:
    """One solver run: per-epoch points, config echo, optional failure marker."""

    solver: str
    seed: int
    points: list
    config: dict = field(default_factory=dict)
    failure: str | None = None
    extra: dict = field(default_factory=dict)


def record_epoch(trace, state, test=None):
    """Append one trace point for ``state``, on its config's objective.

    Computing the metrics pauses the (caller-maintained) work clock and adds
    nothing to the gradient counters; suboptimality stays unset until the
    best objective value is known. ``solvers.run`` calls it where the
    overflow and invalid operations of a diverging iterate are not
    reported: its objective reads inf or NaN.
    """
    spec = state.config.objective
    obj = objective_value(spec, state.w)
    acc = accuracy(state.w, test) if test is not None else float("nan")
    trace.points.append(TracePoint(
        epoch=state.epoch,
        wall_seconds=state.work_seconds,
        grads_over_n=state.grads / spec.data.n,
        fevals=state.fevals,
        objective=obj,
        suboptimality=float("nan"),
        test_accuracy=acc,
    ))


def finalize_suboptimality(traces, reference_value=None):
    """Set suboptimality = objective - F* on every point and return F*.

    F* is the best (lowest) objective over all traces, and over the reference
    value when one is given. A floor of 1e-16 keeps the values positive for
    log-scale plotting.
    """
    if not traces:
        raise ValueError("no traces to finalize")
    best = min(p.objective for t in traces for p in t.points)
    if reference_value is not None:
        best = min(best, reference_value)
    for t in traces:
        for p in t.points:
            p.suboptimality = max(p.objective - best, SUBOPT_FLOOR)
    return best


def _run_group(jobs, test):
    from .solvers import run    # at call time: solvers imports this module
    return [trace for _, trace in run(jobs, test=test)]


def run_jobs(jobs, test, workers):
    """Run a command's ``RunConfig`` jobs, then every objective's reference
    optimum. Each distinct job (equal in every field, the objective by
    identity) runs once; gd's batch is every row, so a batch sweep runs it
    once per (seed, objective). The jobs that share their data set, batch
    size and epoch count (one ``solvers.batch_key``; the objectives of a
    lambda sweep share one data set), of every seed, are a group that
    ``solvers.run`` steps through each epoch in lockstep, serially or on a
    pool that maps the groups. With fewer groups than workers, the groups
    are split by seed, and then the largest part in two, round-robin, until
    every worker that has a job runs; the pool has one process per part, at
    most ``workers``, and a single part runs serially. Each reference
    stops once F* is certified to ``solvers.TRACE_ACCURACY`` of the smallest
    gap its objective's traces show, the lowest finite objective they reached
    (``best``). Returns one trace per job, in job order, each its own copy, and
    ``{objective: (ReferenceResult, F*)}``, F* = min(reference, traces)."""
    from .solvers import batch_key, reference_optimum  # as in _run_group
    keys = [tuple(getattr(job, f.name) for f in fields(job)) for job in jobs]
    unique = dict(zip(keys, jobs))

    def grouped(group_key):
        groups = {}
        for key, job in unique.items():
            groups.setdefault(group_key(job), []).append(key)
        return list(groups.values())

    parts = grouped(batch_key)
    if len(parts) < min(workers, len(unique)):
        # a part gathers the batches of each of its seeds: split seeds first
        parts = grouped(lambda job: (batch_key(job), job.seed))
    while len(parts) < min(workers, len(unique)):
        parts.sort(key=len)
        largest = parts.pop()
        parts += [largest[::2], largest[1::2]]
    configs = [[unique[key] for key in part] for part in parts]
    # a fork pool starts all its processes up front, however few the parts
    workers = min(workers, len(parts))
    if workers > 1:
        # imported here, so a command without a pool skips multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_group, configs, [test] * len(parts)))
    else:
        results = [_run_group(group, test) for group in configs]
    done = {key: trace for part, traces in zip(parts, results)
            for key, trace in zip(part, traces)}
    traces = [copy.deepcopy(done[key]) for key in keys]
    optima = {}
    for spec in dict.fromkeys(job.objective for job in jobs):
        own = [t for job, t in zip(jobs, traces) if job.objective is spec]
        best = min((p.objective for t in own for p in t.points
                    if math.isfinite(p.objective)), default=-math.inf)
        reference = reference_optimum(spec, best)
        optima[spec] = reference, finalize_suboptimality(own, reference.value)
    return traces, optima


def _fmt(value):
    return f"{float(value):.17g}"


def emit_csv(traces, path, metadata=(), extra_fields=()):
    """Write traces as one CSV with the fixed header and 17-significant-digit
    reals (exact float round trip).

    Rows are ordered by (solver, seed, epoch). ``metadata`` lines are written
    first, prefixed with '# '. ``extra_fields`` (e.g. a sweep axis) insert
    extra columns after the seed column, with values taken from each trace's
    ``extra`` dict.
    """
    if not traces:
        raise ValueError("no traces to emit")
    header = list(CSV_FIELDS[:2]) + list(extra_fields) + list(CSV_FIELDS[2:])
    ordered = sorted(traces, key=lambda t: (t.solver, t.seed))
    with open(path, "w", newline="") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in ordered:
            extras = [t.extra.get(name, "") for name in extra_fields]
            for p in sorted(t.points, key=lambda q: q.epoch):
                writer.writerow(
                    [t.solver, t.seed] + extras +
                    [p.epoch, _fmt(p.wall_seconds), _fmt(p.grads_over_n),
                     _fmt(p.objective), _fmt(p.suboptimality),
                     _fmt(p.test_accuracy)])


def read_csv(path):
    """Read an emitted CSV back; returns (rows as dicts, metadata lines)."""
    with open(path) as fh:
        lines = fh.readlines()
    metadata = [line[1:].strip() for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    for row in rows:
        row["seed"], row["epoch"] = int(row["seed"]), int(row["epoch"])
        for name in CSV_FIELDS[3:]:
            row[name] = float(row[name])
    return rows, metadata
