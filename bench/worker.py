"""One benchmark repetition: a single ``saag`` command in a fresh interpreter.

Usage (normally started by run.py): ``python3 worker.py '<job json>'``.

The job names the command line, the source tree to import ``saag`` from, the
relative suboptimality target and whether to trace. The worker times the
import, runs ``saag.cli.main`` once, reads the CSV back through
``saag.read_csv``, checks the outputs, and prints one JSON object as its last
line. Untraced, the only hooks are on the two calls ``saag.cli`` makes once
per command (the train/test split and the CSV writer), so the inner loops run
unwrapped.
"""

import json
import math
import os
import resource
import sys
import time

# Gradient evaluations per epoch, in full passes over the training set.
PASSES_PER_EPOCH = {"saag1": 1, "saag3": 1, "gd": 1, "sgd": 1,
                    "saag2": 3, "saag4": 3, "svrg": 3, "vrsgd": 3}


class CommandProbe:
    """Hooks ``saag.cli``'s split and CSV writer to see one command's
    set-up end, training-set size and in-memory traces."""

    def __init__(self, cli):
        self.split_done = None
        self.n_train = None
        self.traces = None
        self.csv_path = None
        split, emit = cli.split_train_test, cli.emit_csv

        def split_hook(*args, **kwargs):
            train, test = split(*args, **kwargs)
            self.n_train = train.n
            self.split_done = time.perf_counter()
            return train, test

        def emit_hook(traces, path, *args, **kwargs):
            self.traces, self.csv_path = traces, path
            return emit(traces, path, *args, **kwargs)

        cli.split_train_test, cli.emit_csv = split_hook, emit_hook


def _key(solver, seed, extra):
    return (solver, int(seed), tuple(str(v) for v in extra))


def _crossing_time(points, target):
    """Work-clock seconds at which the relative gap first reaches ``target``,
    interpolated in log(gap) inside the epoch that crosses it; None if the
    trace never reaches it."""
    gap0 = points[0]["suboptimality"]
    prev = points[0]
    for p in points[1:]:
        if p["suboptimality"] <= target * gap0:
            g_prev = math.log(prev["suboptimality"] / gap0)
            g_cur = math.log(p["suboptimality"] / gap0)
            frac = (g_prev - math.log(target)) / (g_prev - g_cur)
            return prev["wall_seconds"] + frac * (p["wall_seconds"]
                                                  - prev["wall_seconds"])
        prev = p
    return None


def evaluate(traces, rows, n_train, target, exit_code):
    """Check one command's outputs and derive its end-to-end counts.

    ``traces`` are the in-memory traces handed to the CSV writer, ``rows``
    the CSV read back. Every solver run and every check is one operation.
    Returns (ops, values): ops is a list of (name, passed) and values holds
    the per-command sums the end-to-end metrics are made from.
    """
    from saag.harness import CSV_FIELDS
    axis = [k for k in (rows[0] if rows else {}) if k not in CSV_FIELDS]
    by_key = {}
    for r in rows:
        by_key.setdefault(_key(r["solver"], r["seed"], [r[a] for a in axis]),
                          []).append(r)
    ops = []
    keys = set()
    ttt = grads = fevals = work_s = 0.0
    for t in traces:
        key = _key(t.solver, t.seed, [t.extra.get(a, "") for a in axis])
        keys.add(key)
        label = "/".join(str(k) for k in (t.solver,) + key[2])
        pts = sorted(by_key.get(key, []), key=lambda r: r["epoch"])
        cfg = t.config
        ops.append((f"{label}: run has no failure marker", t.failure is None))
        if not pts:
            ops.append((f"{label}: rows in the CSV", False))
            continue
        passes = PASSES_PER_EPOCH.get(t.solver)
        steps = [b["grads_over_n"] - a["grads_over_n"]
                 for a, b in zip(pts, pts[1:])]
        ops.append((f"{label}: grads_over_n per epoch = {passes}",
                    pts[0]["grads_over_n"] == 0.0
                    and len(pts) == cfg["epochs"] + 1
                    and all(abs(s - passes) < 1e-9 for s in steps)))
        crossing = _crossing_time(pts, target)
        ops.append((f"{label}: reaches relative gap {target}",
                    crossing is not None))
        ops.append((f"{label}: final objective <= epoch-0 objective",
                    pts[-1]["objective"] <= pts[0]["objective"]))
        uses_sbas = cfg["fixed_eta"] is None and t.solver != "sgd"
        b = n_train if t.solver == "gd" else cfg["b"]
        calls = (len(t.points) - 1) * -(-n_train // b) if uses_sbas else 0
        evals = t.points[-1].fevals
        ops.append((f"{label}: line-search evals <= (max_backtracks+1)*calls",
                    evals <= (cfg["max_backtracks"] + 1) * calls))
        ttt += crossing if crossing is not None else 0.0
        grads += round(pts[-1]["grads_over_n"] * n_train)
        fevals += evals
        work_s += pts[-1]["wall_seconds"]
    ops.append(("CSV holds exactly the runs' traces and the command exited 0",
                exit_code == 0 and keys == set(by_key)))
    fstar = min((r["objective"] - r["suboptimality"] for r in rows),
                default=math.nan)
    ops.append(("F* read back from the CSV is finite", math.isfinite(fstar)))
    values = {"time_to_target_s": ttt, "grad_evals": grads,
              "oracle_evals": grads + fevals, "work_s": work_s}
    return ops, values


def execute(saag, job, import_s):
    """Run the job's command once; returns the result dictionary."""
    tracer = None
    if job["trace"]:
        from tracer import LayerTracer
        tracer = LayerTracer()
        tracer.install()
    probe = CommandProbe(saag.cli)
    start = time.perf_counter()
    if tracer:
        tracer.active = True
    exit_code = saag.cli.main(job["argv"])
    end = time.perf_counter()
    if tracer:
        tracer.active = False
    wall_s = end - start
    rows, _ = saag.read_csv(probe.csv_path)
    ops, values = evaluate(probe.traces, rows, probe.n_train, job["target"],
                           exit_code)
    e2e = {
        "wall_s": wall_s,
        "setup_s": import_s + (probe.split_done - start),
        "time_to_target_s": values["time_to_target_s"],
        "grad_evals_per_s": values["grad_evals"] / values["work_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "oracle_evals": values["oracle_evals"],
    }
    result = {"ops": ops, "e2e": e2e}
    if tracer:
        layers = tracer.summary()
        layers["trace.wall_s"] = wall_s
        layers["unattributed_s"] = wall_s - sum(
            layers[f"{layer}.self_s"] for layer in tracer.self_s)
        result["layers"] = layers
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    return result


def main():
    job = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    import saag
    import saag.cli
    import_s = time.perf_counter() - start
    src = os.path.realpath(job["src"])
    if not os.path.realpath(saag.__file__).startswith(src + os.sep):
        sys.exit(f"saag imported from {saag.__file__}, not from {src}")
    result = execute(saag, job, import_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
