import math

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
    return run(cfg, test=test)


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
    # a fake clock that only epochs (1 tick each) and metric evaluation
    # (1000 ticks each) move; the work clock must see the epoch ticks alone
    now = [0.0]

    def advance(fn, ticks):
        def wrapped(*args, **kwargs):
            now[0] += ticks
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solvers.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(solvers, "run_epoch", advance(solvers.run_epoch, 1.0))
    monkeypatch.setattr(solvers, "record_epoch",
                        advance(solvers.record_epoch, 1000.0))
    train, test = split_train_test(make_synthetic(20, 4, seed=1), 0.8, seed=0)
    spec = ObjectiveSpec("logistic", train, lambda2=1e-3)
    cfg = RunConfig(solver="saag3", objective=spec, epochs=7, batch_size=4)
    _, trace = run(cfg, test=test)
    assert [p.wall_seconds for p in trace.points] == [float(e) for e in range(8)]


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
    monkeypatch.setattr(solvers, "run", lambda config, **kw: (
        calls.append(config) or real(config, **kw)))
    return calls


def test_run_jobs_runs_equal_jobs_once_and_copies_their_traces(monkeypatch):
    specs, jobs, test = lambda_grid_jobs()
    calls = counted_runs(monkeypatch)
    traces, optima = run_jobs(jobs, test, 50, 1)
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


def test_run_jobs_keys_runs_on_every_config_field():
    # jobs that differ only in epochs, fixed_eta or sbas are distinct runs
    spec = ObjectiveSpec("logistic", make_synthetic(40, 4, seed=1), lambda2=1e-3)
    jobs = [RunConfig(solver=kind, objective=spec, epochs=epochs, batch_size=4,
                      **kwargs)
            for kind, epochs, kwargs in (
                ("svrg", 2, {}), ("svrg", 3, {}), ("saag4", 2, {}),
                ("saag4", 2, {"fixed_eta": 0.05}),
                ("saag4", 2, {"sbas": SBASParams(eta0=2.0)}))]
    traces, _ = run_jobs(jobs, None, 50, 1)
    assert [len(t.points) for t in traces] == [3, 4, 3, 3, 3]
    assert [t.config["epochs"] for t in traces] == [2, 3, 2, 2, 2]
    assert [t.config["fixed_eta"] for t in traces] == [None, None, None, 0.05, None]
    assert [t.config["eta0"] for t in traces] == [1.0, 1.0, 1.0, 1.0, 2.0]


def test_run_jobs_finalizes_each_objective_against_its_reference():
    specs, jobs, test = lambda_grid_jobs()
    traces, optima = run_jobs(jobs, test, 50, 1)
    for spec in specs:
        reference, f_star = optima[spec]
        own = [t for job, t in zip(jobs, traces) if job.objective is spec]
        # the reference runs after the jobs, to the accuracy their traces need
        best = min(p.objective for t in own for p in t.points)
        assert reference.value == reference_optimum(spec, 50, best).value
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
    traces, optima = run_jobs(jobs, test, 500, 1)
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
        assert point_fields(trace) == point_fields(run(job, test=test)[1])


def test_run_jobs_non_finite_points_cannot_loosen_the_reference(monkeypatch):
    # a diverged point's objective is no gap: best is the finite minimum
    specs, jobs, test = lambda_grid_jobs()
    real = solvers.run

    def diverged(config, **kw):
        w, trace = real(config, **kw)
        trace.points[0].objective = math.nan
        trace.points[1].objective = math.inf
        return w, trace

    monkeypatch.setattr(solvers, "run", diverged)
    traces, optima = run_jobs(jobs, test, 50, 1)
    for spec in specs:
        finite = [p.objective for job, t in zip(jobs, traces)
                  if job.objective is spec for p in t.points
                  if math.isfinite(p.objective)]
        expected = reference_optimum(spec, 50, min(finite))
        assert optima[spec][0].w.tobytes() == expected.w.tobytes()
        assert optima[spec][0].iterations == expected.iterations


def test_run_jobs_bad_budget_fails_before_any_run(monkeypatch):
    _, jobs, test = lambda_grid_jobs()
    calls = counted_runs(monkeypatch)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        run_jobs(jobs, test, 0, 1)
    assert calls == []


def test_run_jobs_on_two_workers_equals_serial():
    _, jobs, test = lambda_grid_jobs()
    serial, serial_optima = run_jobs(jobs, test, 50, 1)
    pooled, pooled_optima = run_jobs(jobs, test, 50, 2)

    def scrub(trace):
        return (trace.solver, trace.seed, trace.config, trace.failure,
                [(p.epoch, p.grads_over_n, p.fevals, p.objective,
                  p.suboptimality, p.test_accuracy) for p in trace.points])

    assert [scrub(t) for t in serial] == [scrub(t) for t in pooled]
    assert [f for _, f in serial_optima.values()] == \
        [f for _, f in pooled_optima.values()]


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
    traces, _ = run_jobs(jobs, None, 50, 1)
    assert all(t.failure is None and math.isfinite(t.points[-1].objective)
               for t in traces)
