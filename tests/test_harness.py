import concurrent.futures
import math
import weakref

import numpy as np
import pytest

from saag.data import Dataset, make_synthetic, split_train_test
from saag.harness import (CSV_FIELDS, SUBOPT_FLOOR, emit_csv,
                          finalize_suboptimality, read_csv, run_jobs)
from saag.line_search import SBASParams
from saag.objective import ObjectiveSpec
from saag import solvers
from saag.solvers import (SOLVERS, TRACE_ACCURACY, RunConfig, reference_optimum,
                          run)


def run_toy(kind="saag3", epochs=2, seed=0, with_test=False, **kwargs):
    ds = make_synthetic(20, 4, seed=1)
    if with_test:
        train, test = split_train_test(ds, 0.8, seed=0)
    else:
        train, test = ds, None
    spec = ObjectiveSpec("logistic", train, lambda2=1e-3)
    cfg = RunConfig(solver=kind, objective=spec, epochs=epochs,
                    batch_size=4, seed=seed, **kwargs)
    return run([cfg], test=test)[0]


def test_trace_has_baseline_plus_one_point_per_epoch():
    _, trace = run_toy(epochs=3)
    assert [p.epoch for p in trace.points] == [0, 1, 2, 3]
    assert trace.points[0].grads_over_n == 0.0
    assert trace.points[0].wall_seconds == 0.0


def test_accuracy_recorded_only_with_test_set():
    _, t_no = run_toy(epochs=1)
    assert np.isnan(t_no.points[0].test_accuracy)
    _, t_yes = run_toy(epochs=1, with_test=True)
    assert 0.0 <= t_yes.points[0].test_accuracy <= 1.0


def test_finalize_single_trace_floors_at_minimum():
    _, trace = run_toy(epochs=3)
    fstar = finalize_suboptimality([trace])
    best = min(p.objective for p in trace.points)
    assert fstar == best
    subs = [p.suboptimality for p in trace.points]
    assert min(subs) == SUBOPT_FLOOR
    assert all(s >= SUBOPT_FLOOR for s in subs)


def test_finalize_shared_fstar_and_reference():
    _, t1 = run_toy(kind="saag3", epochs=3)
    _, t2 = run_toy(kind="svrg", epochs=3)
    fstar = finalize_suboptimality([t1, t2])
    assert fstar == min(p.objective for t in (t1, t2) for p in t.points)
    # a reference below every observed objective keeps all points positive
    fstar2 = finalize_suboptimality([t1, t2], reference_value=fstar - 0.5)
    assert fstar2 == fstar - 0.5
    assert all(p.suboptimality > SUBOPT_FLOOR
               for t in (t1, t2) for p in t.points)
    with pytest.raises(ValueError):
        finalize_suboptimality([])


def test_emit_csv_layout_and_roundtrip(tmp_path):
    _, t1 = run_toy(kind="svrg", epochs=2, with_test=True)
    _, t2 = run_toy(kind="saag3", epochs=2, with_test=True)
    finalize_suboptimality([t1, t2])
    path = tmp_path / "out.csv"
    emit_csv([t1, t2], path, metadata=["note: toy"])
    text = path.read_text().splitlines()
    assert text[0] == "# note: toy"
    assert text[1] == ",".join(CSV_FIELDS)
    rows, metadata = read_csv(path)
    assert metadata == ["note: toy"]
    # 2 traces x (epochs + 1) points, ordered by (solver, seed, epoch)
    assert len(rows) == 6
    assert [r["solver"] for r in rows] == ["saag3"] * 3 + ["svrg"] * 3
    by_key = {(r["solver"], r["epoch"]): r for r in rows}
    for trace in (t1, t2):
        for p in trace.points:
            row = by_key[(trace.solver, p.epoch)]
            # 17 significant digits give exact float round trips
            assert row["objective"] == p.objective
            assert row["suboptimality"] == p.suboptimality
            assert row["grads_over_n"] == p.grads_over_n
            assert row["wall_seconds"] == p.wall_seconds


def test_emit_csv_rejects_empty_and_supports_extra_fields(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "x.csv")
    _, trace = run_toy(epochs=1)
    finalize_suboptimality([trace])
    trace.extra["batch"] = 4
    path = tmp_path / "extra.csv"
    emit_csv([trace], path, extra_fields=("batch",))
    rows, _ = read_csv(path)
    assert rows[0]["batch"] == "4"
    header = path.read_text().splitlines()[0]
    assert header == "solver,seed,batch,epoch,wall_seconds,grads_over_n," \
                     "objective,suboptimality,test_accuracy"


def test_fevals_tracked_but_not_emitted(tmp_path):
    _, trace = run_toy(epochs=2)
    assert trace.points[-1].fevals > 0
    finalize_suboptimality([trace])
    emit_csv([trace], tmp_path / "f.csv")
    assert "fevals" not in (tmp_path / "f.csv").read_text()


def test_metric_evaluation_does_not_enter_wall_clock(monkeypatch):
    # a fake clock that only a chunk's gather (2 ticks), a step (1 tick for
    # saag3, 4 for svrg), a snapshot (16 ticks) and metric evaluation (1000
    # ticks) move: per epoch, each run's work clock must rise by every gather
    # it reads and its own steps and snapshot, never by the record
    now = [0.0]

    def advance(fn, ticks):
        def wrapped(*args, **kwargs):
            now[0] += ticks(*args)
            return fn(*args, **kwargs)
        return wrapped

    step = {"saag3": 1.0, "svrg": 4.0}
    monkeypatch.setattr(solvers.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(Dataset, "_gather_chunk",
                        advance(Dataset._gather_chunk, lambda *args: 2.0))
    monkeypatch.setattr(solvers, "inner_step",
                        advance(solvers.inner_step,
                                lambda state, *args: step[state.config.solver]))
    monkeypatch.setattr(solvers, "take_snapshot",
                        advance(solvers.take_snapshot, lambda *args: 16.0))
    monkeypatch.setattr(solvers, "record_epoch",
                        advance(solvers.record_epoch, lambda *args: 1000.0))
    train, test = split_train_test(make_synthetic(20, 4, seed=1), 0.8, seed=0)
    # 8 batches of 2 rows of the dense block, 3 to a chunk: 3 gathers an epoch
    monkeypatch.setattr(Dataset, "PLAN_BYTES", 3 * 8 * 2 * 4)
    spec = ObjectiveSpec("logistic", train, lambda2=1e-3)
    configs = [RunConfig(solver=kind, objective=spec, epochs=7, batch_size=2)
               for kind in step]
    results = run(configs, test=test)
    assert train.block is not None
    for (_, trace), epoch in zip(results, (3 * 2.0 + 8 * 1.0,
                                           3 * 2.0 + 8 * 4.0 + 16.0)):
        assert [p.wall_seconds for p in trace.points] == [epoch * e for e in range(8)]


def lambda_grid_jobs():
    """A two-point lambda grid: gd at b = 2 and 4 (one run) and saag1 at
    b = 4, seeds 0 and 1, per objective."""
    train, test = split_train_test(make_synthetic(30, 4, seed=2, flip=0.1),
                                   0.8, seed=0)
    specs = [ObjectiveSpec("logistic", train, lambda2=lam)
             for lam in (1e-2, 1e-4)]
    jobs = [RunConfig(solver=kind, objective=spec, epochs=2, batch_size=b,
                      seed=seed)
            for spec in specs for kind, b in (("gd", 2), ("gd", 4), ("saag1", 4))
            for seed in (0, 1)]
    return specs, jobs, test


def counted_runs(monkeypatch):
    calls = []
    real = solvers.run
    monkeypatch.setattr(solvers, "run", lambda configs, **kw: (
        calls.extend(configs) or real(configs, **kw)))
    return calls


def test_run_jobs_runs_equal_jobs_once_and_copies_their_traces(monkeypatch):
    specs, jobs, test = lambda_grid_jobs()
    calls = counted_runs(monkeypatch)
    traces, optima = run_jobs(jobs, test, 1)
    # gd's batch is every row: its b = 2 and b = 4 jobs are one run
    assert len(calls) == 8
    assert sorted((c.solver, c.seed) for c in calls if c.objective is specs[0]) == \
        [("gd", 0), ("gd", 1), ("saag1", 0), ("saag1", 1)]
    assert [(t.solver, t.seed) for t in traces] == [(j.solver, j.seed) for j in jobs]
    assert len({id(t) for t in traces}) == len(jobs)
    assert len({id(t.extra) for t in traces}) == len(jobs)
    assert len({id(t.points) for t in traces}) == len(jobs)
    traces[0].extra["batch"] = 2
    assert traces[2].extra == {}
    # the copies of one run are equal, point for point
    assert traces[0].points == traces[2].points
    assert list(optima) == specs


def gathered_roots(views):
    """The arrays a chunk's gather made: the root of its first view, a
    dense block's rows or the CSR triple (the row count after it is no
    array)."""
    roots = []
    for a in views[0][:3] if isinstance(views[0], tuple) else views[:1]:
        while a.base is not None:
            a = a.base
        roots.append(a)
    return roots


@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
def test_run_jobs_draws_and_gathers_once_per_seed_and_epoch(dense, monkeypatch):
    # 4 solvers x 3 seeds x 5 epochs: one schedule per (seed, epoch), not one
    # per run, each of its chunks gathered once, and each chunk's rows freed
    # before the next is gathered, so PLAN_BYTES bounds a whole group
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    n, d, b = 48, 5, 8
    spec = ObjectiveSpec("logistic", make_synthetic(n, d, seed=2, flip=0.1), 1e-3)
    assert (spec.data.block is not None) == dense
    # two batches of b full rows to a chunk: 3 chunks an epoch
    monkeypatch.setattr(Dataset, "PLAN_BYTES", 2 * (8 if dense else 24) * b * d)
    drawn, gathered, alive, refs = [], [], [], []
    draw, gather_chunk = solvers.make_schedule, Dataset._gather_chunk

    def counted_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    def counted_gather(self, rows):
        alive.append(sum(ref() is not None for ref in refs))
        views = gather_chunk(self, rows)
        refs[:] = map(weakref.ref, gathered_roots(views))
        gathered.extend(rows)
        return views

    monkeypatch.setattr(solvers, "make_schedule", counted_draw)
    monkeypatch.setattr(Dataset, "_gather_chunk", counted_gather)
    jobs = [RunConfig(solver=kind, objective=spec, epochs=5, batch_size=b, seed=seed)
            for kind in ("saag3", "saag4", "svrg", "vrsgd") for seed in (0, 1, 2)]
    traces, _ = run_jobs(jobs, None, 1)
    assert all(len(t.points) == 6 for t in traces)
    assert len(drawn) == 15
    assert len(alive) == 15 * 3 and alive == [0] * len(alive)
    assert len(gathered) == 15 * 6
    assert all(np.array_equal(rows, batch) for rows, batch in
               zip(gathered, [batch for s in drawn for batch in s.batches]))


def test_run_jobs_keys_runs_on_every_config_field():
    # jobs that differ only in epochs, fixed_eta or sbas are distinct runs
    spec = ObjectiveSpec("logistic", make_synthetic(40, 4, seed=1), lambda2=1e-3)
    jobs = [RunConfig(solver=kind, objective=spec, epochs=epochs, batch_size=4,
                      **kwargs)
            for kind, epochs, kwargs in (
                ("svrg", 2, {}), ("svrg", 3, {}), ("saag4", 2, {}),
                ("saag4", 2, {"fixed_eta": 0.05}),
                ("saag4", 2, {"sbas": SBASParams(eta0=2.0)}))]
    traces, _ = run_jobs(jobs, None, 1)
    assert [len(t.points) for t in traces] == [3, 4, 3, 3, 3]
    assert [t.config["epochs"] for t in traces] == [2, 3, 2, 2, 2]
    assert [t.config["fixed_eta"] for t in traces] == [None, None, None, 0.05, None]
    assert [t.config["eta0"] for t in traces] == [1.0, 1.0, 1.0, 1.0, 2.0]


def test_trace_config_echoes_every_run_setting():
    # bench/worker.py reads epochs, b, fixed_eta and max_backtracks from it
    spec = ObjectiveSpec("squared_hinge", make_synthetic(20, 4, seed=1),
                         lambda2=1e-3, lambda1=1e-4)
    sbas = SBASParams(alpha=0.2, shrink=0.3, eta0=4.0, max_backtracks=5)
    for fixed_eta in (None, 0.05):
        config = RunConfig(solver="svrg", objective=spec, epochs=2, batch_size=4,
                           sbas=sbas, seed=3, fixed_eta=fixed_eta)
        _, trace = run([config])[0]
        assert trace.config == {
            "solver": "svrg", "epochs": 2, "b": 4, "seed": 3,
            "loss": "squared_hinge", "l2": 1e-3, "l1": 1e-4, "eta0": 4.0,
            "alpha": 0.2, "shrink": 0.3, "max_backtracks": 5,
            "fixed_eta": fixed_eta}


def test_run_jobs_finalizes_each_objective_against_its_reference():
    specs, jobs, test = lambda_grid_jobs()
    traces, optima = run_jobs(jobs, test, 1)
    for spec in specs:
        reference, f_star = optima[spec]
        own = [t for job, t in zip(jobs, traces) if job.objective is spec]
        # the reference runs after the jobs, to the accuracy their traces need
        best = min(p.objective for t in own for p in t.points)
        assert reference.value == reference_optimum(spec, best).value
        assert f_star == min([reference.value] +
                             [p.objective for t in own for p in t.points])
        for t in own:
            for p in t.points:
                assert p.suboptimality == max(p.objective - f_star, SUBOPT_FLOOR)
    assert optima[specs[0]][1] != optima[specs[1]][1]


def point_fields(trace):
    return [(p.epoch, p.grads_over_n, p.fevals, p.objective, p.test_accuracy)
            for p in trace.points]


@pytest.mark.parametrize("layout", ["dense", "csr"])
@pytest.mark.parametrize("lam1", [0.0, 1e-3])
@pytest.mark.parametrize("loss", ["logistic", "least_squares"])
def test_run_jobs_suboptimality_is_within_the_trace_accuracy(monkeypatch, layout,
                                                             lam1, loss):
    if layout == "csr":     # no set fills twice its entries: the CSR passes
        monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 2.0)
    train, test = split_train_test(make_synthetic(40, 5, seed=3, flip=0.1),
                                   0.8, seed=0)
    spec = ObjectiveSpec(loss, train, lambda2=1e-3, lambda1=lam1)
    jobs = [RunConfig(solver=kind, objective=spec, epochs=3, batch_size=4)
            for kind in ("saag4", "svrg")]
    traces, optima = run_jobs(jobs, test, 1)
    assert (train.block is None) == (layout == "csr")
    reference, _ = optima[spec]
    exact = reference_optimum(spec)     # to the 5e-14 * F stop
    points = [p for t in traces for p in t.points]
    exact_star = min([exact.value] + [p.objective for p in points])
    assert reference.converged and reference.iterations <= exact.iterations
    for p in points:
        gap = max(p.objective - exact_star, SUBOPT_FLOOR)
        assert abs(p.suboptimality - gap) <= TRACE_ACCURACY * gap
    assert reference.bound <= TRACE_ACCURACY * min(p.suboptimality for p in points)
    # every other field is the jobs' own, bit for bit
    for job, trace in zip(jobs, traces):
        assert point_fields(trace) == point_fields(run([job], test=test)[0][1])


def test_run_jobs_non_finite_points_cannot_loosen_the_reference(monkeypatch):
    # a diverged point's objective is no gap: best is the finite minimum
    specs, jobs, test = lambda_grid_jobs()
    real = solvers.run

    def diverged(configs, **kw):
        results = real(configs, **kw)
        for _, trace in results:
            trace.points[0].objective = math.nan
            trace.points[1].objective = math.inf
        return results

    monkeypatch.setattr(solvers, "run", diverged)
    traces, optima = run_jobs(jobs, test, 1)
    for spec in specs:
        finite = [p.objective for job, t in zip(jobs, traces)
                  if job.objective is spec for p in t.points
                  if math.isfinite(p.objective)]
        expected = reference_optimum(spec, min(finite))
        assert optima[spec][0].w.tobytes() == expected.w.tobytes()
        assert optima[spec][0].iterations == expected.iterations


def test_run_jobs_on_two_workers_equals_serial():
    _, jobs, test = lambda_grid_jobs()
    serial, serial_optima = run_jobs(jobs, test, 1)
    pooled, pooled_optima = run_jobs(jobs, test, 2)

    def scrub(trace):
        return (trace.solver, trace.seed, trace.config, trace.failure,
                [(p.epoch, p.grads_over_n, p.fevals, p.objective,
                  p.suboptimality, p.test_accuracy) for p in trace.points])

    assert [scrub(t) for t in serial] == [scrub(t) for t in pooled]
    assert [f for _, f in serial_optima.values()] == \
        [f for _, f in pooled_optima.values()]


def test_run_jobs_opens_one_process_per_part_at_most(monkeypatch):
    # a fork pool starts all its processes up front: 64 workers on two
    # groups open 2, and a single job opens none; the fake pool maps in
    # this process, so no process starts
    opened = []

    class FakePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    spec = ObjectiveSpec("logistic", make_synthetic(30, 4, seed=2), lambda2=1e-3)
    jobs = [RunConfig(solver="saag4", objective=spec, epochs=2, batch_size=5, seed=seed)
            for seed in (0, 1)]

    def scrub(traces):
        return [(t.solver, t.seed, t.config, t.failure,
                 [(p.epoch, p.grads_over_n, p.fevals, p.objective,
                   p.suboptimality) for p in t.points]) for t in traces]

    serial, _ = run_jobs(jobs, None, 1)
    assert opened == []
    pooled, _ = run_jobs(jobs, None, 64)
    assert opened == [2]
    assert scrub(pooled) == scrub(serial)
    single, _ = run_jobs(jobs[:1], None, 64)
    assert opened == [2]
    assert scrub(single) == scrub(serial[:1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lambdas", [(0.0, 0.0), (1e-5, 1e-3)],
                         ids=["l2=0", "l2=1e-5,l1=1e-3"])
def test_run_jobs_warns_nothing_at_extreme_margins(lambdas):
    # margins past -709.78 overflow the logistic slope's exp(-t) to inf,
    # for the exact slope +0.0: in the snapshots as in the steps, no
    # RuntimeWarning may escape a run
    spec = ObjectiveSpec("logistic", make_synthetic(60, 5, margin=2000.0), *lambdas)
    jobs = [RunConfig(solver=kind, objective=spec, epochs=3, batch_size=8)
            for kind in SOLVERS]
    traces, _ = run_jobs(jobs, None, 1)
    assert all(t.failure is None and math.isfinite(t.points[-1].objective)
               for t in traces)
