import itertools
import math
import sys
import warnings
import weakref

import numpy as np
import pytest

import saag.estimators as estimators_mod
import saag.objective as objective_mod
import saag.solvers as solvers_mod
from saag.data import Dataset, make_schedule, make_synthetic, split_train_test
from saag.line_search import SBASParams, backtrack
from saag.objective import (LOSSES, ObjectiveSpec, batch_grad,
                            batch_smooth_value, margins, objective_value,
                            scatter, slope_t)
from saag.solvers import (SOLVERS, RunConfig, Stack, init_state, reference_optimum,
                          run, run_epoch, stack_step)

SBAS_SOLVERS = ("saag1", "saag2", "saag3", "saag4", "svrg", "vrsgd", "gd")

EXPECTED_GRADS_PER_EPOCH = {
    "saag1": 1, "saag3": 1,
    "saag2": 3, "saag4": 3, "svrg": 3, "vrsgd": 3,
    "gd": 1, "sgd": 1,
}


def toy_spec(n=24, d=6, lam2=1e-2, lam1=0.0, seed=0, loss="logistic"):
    return ObjectiveSpec(loss, make_synthetic(n, d, seed=seed), lam2, lam1)


@pytest.mark.parametrize("kind", SOLVERS)
def test_gradient_accounting_one_epoch(kind):
    spec = toy_spec()
    cfg = RunConfig(solver=kind, objective=spec, epochs=1, batch_size=6, seed=0)
    _, trace = run([cfg])[0]
    assert trace.points[0].grads_over_n == 0.0
    assert trace.points[-1].grads_over_n == EXPECTED_GRADS_PER_EPOCH[kind]


@pytest.mark.parametrize("lam1", [0.0, 1e-3])
def test_degenerate_equivalence_at_full_batch(lam1):
    spec = toy_spec(n=30, d=5, lam2=1e-2, lam1=lam1)
    n = spec.data.n
    iterates = {}
    for kind in ("saag1", "saag2", "saag3", "saag4", "svrg", "vrsgd", "gd"):
        cfg = RunConfig(solver=kind, objective=spec, epochs=5, batch_size=n, seed=0)
        state = init_state(cfg)
        history = []
        for s in range(5):
            sched = make_schedule(n, n, 0, epoch=s)
            run_epoch([state], sched)
            history.append(state.w.copy())
        iterates[kind] = history
    ref = iterates["gd"]
    for kind, history in iterates.items():
        for a, b in zip(history, ref):
            assert np.linalg.norm(a - b) <= 1e-12, kind


def test_epoch_boundary_equalities(monkeypatch):
    spec = toy_spec(n=20, d=4)
    collected = []
    orig = solvers_mod.stack_step

    def spy(stack, rows, x):
        orig(stack, rows, x)
        (w,) = stack.w
        collected.append(w.copy())

    monkeypatch.setattr(solvers_mod, "stack_step", spy)
    for kind in SOLVERS:
        collected.clear()
        cfg = RunConfig(solver=kind, objective=spec, epochs=1, batch_size=5, seed=1)
        state = init_state(cfg)
        before = state.average
        sched = make_schedule(20, cfg.batch_size, 1, epoch=0)
        run_epoch([state], sched)
        total = np.zeros(4)
        for w in collected:
            total += w
        assert len(collected) == sched.m
        if kind in ("saag3", "saag4", "vrsgd"):     # the readers of the average
            # the average is the sequential sum of the epoch's iterates over m
            assert np.array_equal(state.average, total / sched.m), kind
        else:
            # no other kind reads the average, so none keeps it
            assert state.average is before, kind
            assert np.array_equal(state.average, np.zeros(4)), kind
        if kind == "saag3":
            # next start = iterate average
            assert np.array_equal(state.w, state.average)
        else:
            # start = last iterate (the next snap of saag4/vrsgd is the average)
            assert np.array_equal(state.w, collected[-1]), kind


def test_snap_anchor_rules():
    spec = toy_spec(n=20, d=4)
    for kind, anchor in (("saag1", None), ("saag2", "start"), ("saag3", None),
                         ("saag4", "avg"), ("svrg", "start"), ("vrsgd", "avg"),
                         ("gd", None), ("sgd", None)):
        cfg = RunConfig(solver=kind, objective=spec, epochs=2, batch_size=5, seed=4)
        state = init_state(cfg)
        run_epoch([state], make_schedule(20, 5, 4, epoch=0))
        if anchor is None:
            # no snap point, in either epoch
            assert state.snap is None, kind
            run_epoch([state], make_schedule(20, 5, 4, epoch=1))
            assert state.snap is None, kind
            continue
        # first epoch anchors at the initial point for every snap solver
        assert np.array_equal(state.snap.point, np.zeros(4)), kind
        start = state.w.copy()
        avg = state.average.copy()
        run_epoch([state], make_schedule(20, 5, 4, epoch=1))
        expected = start if anchor == "start" else avg
        assert np.array_equal(state.snap.point, expected), kind


def test_proximal_step_applies_soft_threshold_when_direction_is_zero():
    # a single already-fit point with no l2 term gives a zero direction, so
    # the proximal update reduces to soft-thresholding the iterate
    from saag.data import Dataset
    ds = Dataset([0, 2], [0, 1], [1.0, 1.0], [1.0], d=2)
    spec = ObjectiveSpec("least_squares", ds, lambda1=0.2)
    cfg = RunConfig(solver="gd", objective=spec, epochs=1, batch_size=1)
    state = init_state(cfg)
    state.w = np.array([0.7, 0.3])  # w . x = 1 = y, so the residual is zero
    run_epoch([state], make_schedule(1, 1, 0))      # one step, on row 0
    # eta = eta0 = 1 on a zero direction; threshold = eta * lambda1 = 0.2
    assert np.allclose(state.w, [0.5, 0.1], atol=1e-15)


def test_batch_objective_never_increases_on_accepted_steps(monkeypatch):
    # every accepted step must not increase the mini-batch smooth objective
    spec = toy_spec(n=20, d=4, loss="least_squares", lam2=1e-3)
    orig = solvers_mod.stack_step
    checks = []

    def spy(stack, rows, x):
        before = batch_smooth_value(stack.spec, stack.w[0], rows)
        orig(stack, rows, x)
        (w,) = stack.w
        after = batch_smooth_value(stack.spec, w, rows)
        checks.append(after <= before + 1e-12)

    monkeypatch.setattr(solvers_mod, "stack_step", spy)
    cfg = RunConfig(solver="saag3", objective=spec, epochs=3, batch_size=4, seed=2)
    state = init_state(cfg)
    for s in range(3):
        run_epoch([state], make_schedule(20, 4, 2, epoch=s))
    assert checks and all(checks)


def test_run_single_epoch_full_batch_gd_equals_saag4():
    spec = toy_spec(n=16, d=4)
    w_gd, _ = run([RunConfig(solver="gd", objective=spec, epochs=1,
                             batch_size=16, seed=0)])[0]
    w_s4, _ = run([RunConfig(solver="saag4", objective=spec, epochs=1,
                             batch_size=16, seed=0)])[0]
    assert np.linalg.norm(w_gd - w_s4) <= 1e-12


def record_chunks(monkeypatch):
    """Wrap ``Dataset._gather_chunk`` to keep the bytes of every chunk it
    gathers, summed over the views of its batches."""
    chunks = []
    gather_chunk = Dataset._gather_chunk

    def recorded(self, rows):
        views = gather_chunk(self, rows)
        chunks.append(sum(map(chunk_bytes, views)))
        return views

    monkeypatch.setattr(Dataset, "_gather_chunk", recorded)
    return chunks


def chunk_bytes(gathered):
    """Bytes of gathered signed rows: a dense block's rows, or the CSR
    slots, columns and values (the row count after them is no array)."""
    if isinstance(gathered, np.ndarray):
        return gathered.nbytes
    return sum(a.nbytes for a in gathered[:3])


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def test_gd_run_keeps_no_copy_of_the_training_values(monkeypatch):
    for fill in (0.0, 2.0):     # a dense block, then the CSR arrays
        monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", fill)
        train, test = split_train_test(make_synthetic(60, 5, seed=1), 0.8, 0)
        spec = ObjectiveSpec("logistic", train, lambda2=1e-3)
        cfg = RunConfig(solver="gd", objective=spec, epochs=3, batch_size=8)
        with monkeypatch.context() as m:
            chunks = record_chunks(m)
            w, trace = run([cfg], test=test)[0]
        # gd's one batch is every row, read uncopied: no chunk is gathered
        assert chunks == []
        # the passes read the signed rows: the block or the signed copy of
        # the CSR values, never both
        signed = vars(train).get("signed")
        assert (train.block is None) == (signed is not None)
        stored = [a for a in (train.values, train.block, signed) if a is not None]
        assert len(stored) == 2
        copies = [a for a in _arrays(list(vars(train).values())) for s in stored
                  if np.array_equal(a, s) and not np.shares_memory(a, s)]
        assert copies == []
        # the full batch's stored arrays give the same trace as a gathered copy
        gather = Dataset.gather
        with monkeypatch.context() as m:
            m.setattr(Dataset, "gather", lambda self, rows=None: gather(
                self, np.arange(self.n) if rows is None else rows))
            w_copy, trace_copy = run([cfg], test=test)[0]
        assert np.array_equal(w, w_copy)
        assert [(p.fevals, p.objective, p.test_accuracy) for p in trace.points] == \
            [(p.fevals, p.objective, p.test_accuracy) for p in trace_copy.points]


@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
def test_an_epoch_gathers_each_planned_batch_once(dense, monkeypatch):
    # a planned batch comes with its gathered rows: one epoch of any solver
    # gathers each batch of its schedule once, in its chunk's one gather,
    # also a batch past the chunk bound on its own, and at b = n nothing
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    n, d = 40, 5
    data = make_synthetic(n, d, seed=2, flip=0.1)
    assert (data.block is not None) == dense
    spec = ObjectiveSpec("logistic", data, lambda2=1e-3)
    # 3 rows of 5 values fit in a chunk (9 on the block): b = 1 batches
    # share chunks, b = 16 and n - 1 batches are each past the bound
    monkeypatch.setattr(Dataset, "PLAN_BYTES", 24 * d * 3)
    chunked, fresh = [], []
    gather_chunk, gather = Dataset._gather_chunk, Dataset.gather

    def counted_chunk(self, rows):
        chunked.extend(rows)
        return gather_chunk(self, rows)

    def counted(self, rows=None):
        if rows is not None:
            fresh.append(rows)
        return gather(self, rows)

    monkeypatch.setattr(Dataset, "_gather_chunk", counted_chunk)
    monkeypatch.setattr(Dataset, "gather", counted)
    for b in (1, 16, n - 1, n):
        schedule = make_schedule(n, b, seed=3)
        for kind in SOLVERS:
            state = init_state(RunConfig(solver=kind, objective=spec, epochs=1,
                                         batch_size=b, sbas=SBASParams(eta0=50.0)))
            chunked.clear()
            fresh.clear()
            run_epoch([state], schedule)
            assert fresh == []
            assert len(chunked) == (0 if b == n else schedule.m)
            assert all(np.array_equal(r, s) for r, s in zip(chunked, schedule.batches))
    # the one batch of every row comes with the stored layout itself
    (((_, x),),) = data.plan(make_schedule(n, n, seed=3))
    assert chunked == [] and fresh == []
    if dense:
        assert x is data.block
    else:
        assert all(a is s for a, s in
                   zip(x, (data.row_ids, data.indices, data.signed, n)))


@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
def test_kept_row_ids_keep_no_chunk_alive(dense, monkeypatch):
    # a caller that keeps every batch's row ids through an epoch, as a
    # tracer that meters them does, holds no gathered rows: each chunk's
    # gather is freed once the epoch drops the chunk, before the next
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    n, d, b = 48, 5, 8
    spec = ObjectiveSpec("logistic", make_synthetic(n, d, seed=2, flip=0.1), 1e-3)
    assert (spec.data.block is not None) == dense
    # two batches of b full rows to a chunk: 3 chunks
    monkeypatch.setattr(Dataset, "PLAN_BYTES", 2 * (8 if dense else 24) * b * d)
    kept, refs, alive = [], [], []
    gather_chunk, step = Dataset._gather_chunk, solvers_mod.stack_step

    def recorded(self, rows):
        alive.append(sum(ref() is not None for ref in refs))
        views = gather_chunk(self, rows)
        for view in views:
            for a in [view] if isinstance(view, np.ndarray) else view[:3]:
                while a.base is not None:
                    a = a.base
                refs.append(weakref.ref(a))
        return views

    def keeping(stack, rows, *rest):
        kept.append(rows)
        return step(stack, rows, *rest)

    monkeypatch.setattr(Dataset, "_gather_chunk", recorded)
    monkeypatch.setattr(solvers_mod, "stack_step", keeping)
    state = init_state(RunConfig(solver="svrg", objective=spec, epochs=1, batch_size=b))
    schedule = make_schedule(n, b, seed=0)
    run_epoch([state], schedule)
    assert alive == [0, 0, 0] and refs
    assert all(ref() is None for ref in refs)
    assert len(kept) == schedule.m
    assert all(np.array_equal(rows, batch) for rows, batch in zip(kept, schedule.batches))


# mixes shaped like the benchmark's workloads: (layout, kinds, b, seeds,
# lambda1, fixed step[, line-search parameters])
LADDER = {"eta0": 50.0, "shrink": 0.3, "max_backtracks": 4}
LOCKSTEP_MIXES = {
    "dense-sbas": (True, ("saag3", "saag4", "svrg", "vrsgd"), 8, (0, 1), 0.0, None),
    "csr-l1": (False, ("saag3", "saag4", "svrg", "vrsgd"), 8, (0, 1), 1e-3, None),
    "fixed-b1": (True, ("saag1", "saag2", "sgd"), 1, (0,), 0.0, 0.05),
    # sentinel and whole-ladder rows beside rows that accept at eta0
    "ladder": (True, ("saag2", "svrg", "saag1"), 7, (0, 1), 0.0, None, LADDER),
    "ladder-csr": (False, ("saag2", "svrg", "saag1"), 7, (0, 1), 0.0, None, LADDER),
    # sgd's decaying step beside searched rows, and a tail batch of 6
    "all-kinds": (True, tuple(k for k in SOLVERS if k != "gd"), 7, (0,), 0.0, None),
    "csr-l0": (False, ("saag3", "saag4", "svrg", "vrsgd"), 8, (0, 1), 0.0, None),
}


def solo_bits(result):
    """The bytes of a run's final w and of its points' (objective,
    grads/n, fevals), and its failure marker."""
    w, trace = result
    points = [(p.objective, p.grads_over_n, p.fevals) for p in trace.points]
    return w.tobytes(), np.array(points).tobytes(), trace.failure


@pytest.mark.parametrize("chunked", [False, True], ids=["bound", "low-bound"])
@pytest.mark.parametrize("mix", sorted(LOCKSTEP_MIXES))
def test_lockstep_runs_equal_their_solo_runs(mix, chunked, monkeypatch):
    # runs stepped through each epoch together give each run's solo trace
    # and w, bit for bit, also with every epoch gathered in 3 or more chunks
    dense, kinds, b, seeds, lam1, fixed_eta, *ladder = LOCKSTEP_MIXES[mix]
    sbas = SBASParams(**ladder[0]) if ladder else SBASParams()
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    n, d, epochs = 48, 5, 3
    data = make_synthetic(n, d, seed=9, flip=0.1)
    assert (data.block is not None) == dense
    if chunked:     # a chunk of one batch of b full rows
        monkeypatch.setattr(Dataset, "PLAN_BYTES", (8 if dense else 24) * b * d)
    gathers = record_chunks(monkeypatch)
    spec = ObjectiveSpec("logistic", data, lambda2=1e-3, lambda1=lam1)
    for seed in seeds:
        configs = [RunConfig(solver=kind, objective=spec, epochs=epochs, batch_size=b,
                             seed=seed, fixed_eta=fixed_eta, sbas=sbas) for kind in kinds]
        gathers.clear()
        grouped = run(configs)
        if chunked:
            assert len(gathers) >= 3 * epochs
        assert [solo_bits(r) for r in grouped] == \
            [solo_bits(run([config])[0]) for config in configs]
        # each returned w is its own array, no row of a stack's
        assert not any(np.shares_memory(a, b) for (a, _), (b, _)
                       in itertools.combinations(grouped, 2))


def test_a_failed_run_leaves_its_group_and_the_others_go_on(monkeypatch):
    # svrg's direction is non-finite from its second epoch on: its trace
    # stops there with the failure marker, and the rest of its group runs on
    # to the traces it has alone
    spec = toy_spec(n=48, d=5, lam2=1e-3)
    configs = [RunConfig(solver=kind, objective=spec, epochs=4, batch_size=8)
               for kind in ("saag3", "saag4", "svrg", "vrsgd")]
    solo = [solo_bits(run([config])[0]) for config in configs]
    step = solvers_mod.inner_step

    def failing(state, direct, *args):
        if state.config.solver == "svrg" and state.epoch >= 1:
            direct = lambda rows, x, c: np.full(spec.data.d, math.inf)  # noqa: E731
        return step(state, direct, *args)

    monkeypatch.setattr(solvers_mod, "inner_step", failing)
    results = run(configs)
    _, trace = results[2]
    assert trace.failure == "svrg: non-finite direction at epoch 1, inner step 6"
    assert [p.epoch for p in trace.points] == [0, 1]
    assert [solo_bits(r) for r in results[:2] + results[3:]] == solo[:2] + solo[3:]


def test_failures_leave_the_stack_and_the_other_rows_keep_their_bits(monkeypatch):
    # the run in row 0 fails in the middle of epoch 1, and the other rows
    # keep their solo bits, sgd's decaying step too once its row moves up;
    # then every run fails in one batch, and each trace stops there with
    # its marker, raising nothing
    spec = toy_spec(n=48, d=5, lam2=1e-3)
    step = solvers_mod.inner_step

    def failing(when):
        def inner(state, direct, *args):
            if when(state.config.solver, state):
                direct = lambda rows, x, c: np.full(spec.data.d, math.nan)  # noqa: E731
            return step(state, direct, *args)
        return inner

    for kinds in (("saag3", "saag4", "svrg", "vrsgd"), ("saag3", "sgd", "svrg", "vrsgd")):
        configs = [RunConfig(solver=kind, objective=spec, epochs=4, batch_size=8)
                   for kind in kinds]
        monkeypatch.setattr(solvers_mod, "inner_step", step)
        solo = [solo_bits(run([config])[0]) for config in configs]
        monkeypatch.setattr(solvers_mod, "inner_step",
                            failing(lambda kind, state: kind == "saag3" and state.inner >= 9))
        results = run(configs)
        assert results[0][1].failure == \
            "saag3: non-finite direction at epoch 1, inner step 9"
        assert [p.epoch for p in results[0][1].points] == [0, 1]
        assert [solo_bits(r) for r in results[1:]] == solo[1:]
        monkeypatch.setattr(solvers_mod, "inner_step",
                            failing(lambda kind, state: state.inner >= 14))
        results = run(configs)
        assert [trace.failure for _, trace in results] == \
            [f"{kind}: non-finite direction at epoch 2, inner step 14" for kind in kinds]
        assert all([p.epoch for p in trace.points] == [0, 1, 2] for _, trace in results)


@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
@pytest.mark.parametrize("failing", [False, True], ids=["finite", "sgd-fails"])
def test_row_order_does_not_change_a_run(dense, failing, monkeypatch):
    # a stack sorts its rows by estimator family: configs given in reverse
    # give each config the same w, objectives, fevals and failure, with
    # searched, fixed and decaying rows, l1 and, when sgd fails mid-epoch,
    # a row leaving the stack
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    spec = ObjectiveSpec("logistic", make_synthetic(48, 5, seed=3, flip=0.1), 1e-3, 1e-3)
    assert (spec.data.block is None) != dense
    configs = [RunConfig(solver=kind, objective=spec, epochs=3, batch_size=7, seed=2,
                         fixed_eta=0.05 if kind in ("saag2", "vrsgd") else None)
               for kind in SOLVERS if kind != "gd"]
    if failing:
        step = solvers_mod.inner_step

        def inner(state, direct, *args):
            if state.config.solver == "sgd" and state.inner >= 10:
                direct = lambda rows, x, c: np.full(spec.data.d, math.nan)  # noqa: E731
            return step(state, direct, *args)

        monkeypatch.setattr(solvers_mod, "inner_step", inner)
    given = [solo_bits(result) for result in run(configs)]
    reversed_ = [solo_bits(result) for result in run(configs[::-1])][::-1]
    assert given == reversed_
    assert [failure for _, _, failure in given] == [None] * 6 + (
        ["sgd: non-finite direction at epoch 1, inner step 10"] if failing else [None])


def test_runs_stepped_together_must_share_their_batches():
    spec = toy_spec(n=24, d=4)
    other = toy_spec(n=24, d=4)     # equal rows, another data set object
    base = dict(solver="saag4", objective=spec, epochs=2, batch_size=6, seed=0)
    for change in ({"seed": 1}, {"batch_size": 4}, {"epochs": 3},
                   {"objective": other}):
        with pytest.raises(ValueError, match="must share their data set"):
            run([RunConfig(**base), RunConfig(**dict(base, **change))])
    # another objective on the same data set shares the batches
    lam = ObjectiveSpec("logistic", spec.data, lambda2=1e-4)
    assert len(run([RunConfig(**base), RunConfig(**dict(base, objective=lam))])) == 2


def test_run_is_deterministic():
    spec = toy_spec(n=30, d=5)
    cfg = RunConfig(solver="saag4", objective=spec, epochs=4, batch_size=5, seed=3)
    w1, t1 = run([cfg])[0]
    w2, t2 = run([cfg])[0]
    assert np.array_equal(w1, w2)
    for p1, p2 in zip(t1.points, t2.points):
        assert (p1.epoch, p1.grads_over_n, p1.fevals, p1.objective) == \
            (p2.epoch, p2.grads_over_n, p2.fevals, p2.objective)


def test_sgd_uses_inverse_sqrt_schedule():
    spec = toy_spec(n=8, d=3)
    cfg = RunConfig(solver="sgd", objective=spec, epochs=2, batch_size=4, seed=5,
                    sbas=SBASParams(eta0=0.5))
    w_run, _ = run([cfg])[0]
    w = np.zeros(3)
    k = 0
    for s in range(2):
        for batch in make_schedule(8, 4, 5, epoch=s).batches:
            k += 1
            w = w - (0.5 / math.sqrt(k)) * batch_grad(spec, w, batch)
    assert np.linalg.norm(w_run - w) <= 1e-14


def test_fixed_eta_bypasses_line_search():
    spec = toy_spec(n=12, d=4)
    cfg = RunConfig(solver="svrg", objective=spec, epochs=2, batch_size=4,
                    seed=1, fixed_eta=0.05)
    _, trace = run([cfg])[0]
    assert trace.points[-1].fevals == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", SOLVERS)
def test_nonfinite_direction_aborts_with_partial_trace(kind):
    # a fixed step of 1e8 on least squares overflows within a few dozen
    # steps, in the middle of an epoch at b = 4
    spec = toy_spec(n=8, d=3, loss="least_squares", lam2=0.0)
    cfg = RunConfig(solver=kind, objective=spec, epochs=200, batch_size=4,
                    seed=0, fixed_eta=1e8)
    _, trace = run([cfg])[0]
    assert trace.failure.startswith(f"{kind}: non-finite direction")
    assert 2 <= len(trace.points) < 201
    assert [p.epoch for p in trace.points] == list(range(len(trace.points)))


@pytest.mark.parametrize("kind", SBAS_SOLVERS)
def test_sentinel_streak_leaves_w_unchanged(kind, monkeypatch):
    # with lambda2 > 0 every trial of eta0 = 1e6 shrunk 3 times raises the
    # batch objective, so each search spends max_backtracks + 1 evaluations
    # and returns the 0.0 sentinel
    blocks = []
    ray = solvers_mod.batch_ray

    def counted_ray(*args):
        phi = ray(*args)

        def counted(etas, *among):
            blocks.append(etas.size)
            return phi(etas, *among)

        return counted

    monkeypatch.setattr(solvers_mod, "batch_ray", counted_ray)
    spec = toy_spec(n=16, d=5, lam2=1e-2)
    w0 = np.array([0.5, -0.25, 1.0, 0.125, -2.0])   # dyadic: sums stay exact
    params = SBASParams(eta0=1e6, max_backtracks=3)
    cfg = RunConfig(solver=kind, objective=spec, epochs=1, batch_size=4,
                    sbas=params, seed=0)
    state = init_state(cfg)
    state.w = w0.copy()
    schedule = make_schedule(16, cfg.batch_size, 0)
    run_epoch([state], schedule)
    assert np.array_equal(state.w, w0)
    if kind in ("saag3", "saag4", "vrsgd"):     # the readers of the average
        # a 0.0 step still counts in the average
        assert np.array_equal(state.average, w0)
    assert state.epoch == 1
    assert state.inner == schedule.m
    assert state.fevals == (params.max_backtracks + 1) * schedule.m
    assert state.grads == EXPECTED_GRADS_PER_EPOCH[kind] * 16
    # the first search asks phi for (0, eta0) and then the rest, each later
    # one, after a search that went past eta0, for its whole ladder at once
    assert blocks == [2, 2] + [4] * (schedule.m - 1)
    assert state.backtracked


# every loss with and without l1; the logistic smooth case of a solver is
# named by the solver alone
SEARCH_CASES = [
    pytest.param(kind, loss, lam1, id=kind if (loss, lam1) == ("logistic", 0.0)
                 else f"{kind}-{loss}-l1={lam1}")
    for loss in LOSSES for lam1 in (0.0, 1e-3) for kind in SBAS_SOLVERS]


@pytest.mark.parametrize("kind,loss,lam1", SEARCH_CASES)
def test_margin_space_search_keeps_traces(kind, loss, lam1, monkeypatch):
    # the margin-space search must take the same Armijo decisions as a
    # search over batch_smooth_value(spec, w - eta * d, batch)
    spec = ObjectiveSpec(loss, make_synthetic(60, 8, seed=5, flip=0.1), 1e-4, lam1)
    # eta0 = 50 makes every solver backtrack, so the decisions are tested
    cfg = RunConfig(solver=kind, objective=spec, epochs=4, batch_size=6,
                    sbas=SBASParams(eta0=50.0), seed=2)
    w_fast, fast = run([cfg])[0]

    def plain_ray(spec_, w, rows, x, d, z, dd):
        # the stack's rows, one ray each
        def phi(etas, among):
            return [plain(w[i], d[i], etas) for i in among]

        def plain(w, d, etas):
            return (batch_smooth_value(spec_, w - eta * d, rows) for eta in etas)

        return phi

    monkeypatch.setattr(solvers_mod, "batch_ray", plain_ray)
    w_plain, plain = run([cfg])[0]
    assert [p.fevals for p in fast.points] == [p.fevals for p in plain.points]
    assert [p.objective for p in fast.points] == [p.objective for p in plain.points]
    assert np.array_equal(w_fast, w_plain)
    steps = 4 * (1 if kind == "gd" else 10)
    assert fast.points[-1].fevals > 2 * steps     # the searches backtracked


@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
@pytest.mark.parametrize("lam1", [0.0, 1e-3])
@pytest.mark.parametrize("kind", SBAS_SOLVERS)
def test_one_block_after_a_backtrack_keeps_traces(kind, lam1, dense, monkeypatch):
    # the whole ladder in one block after a search that went past eta0 must
    # give the counts and decisions of (0, eta0) first, with the rest of a
    # row's ladder formed only when eta0 fails; either way each search reads
    # its values once, exactly as many as it counts
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    data = make_synthetic(60, 8, seed=5, flip=0.1)
    assert (data.block is None) != dense
    blocks, counts = [], []
    ray = solvers_mod.batch_ray

    def counted_ray(*args):
        phi = ray(*args)

        def counted(etas, among):
            blocks.append(etas.size)
            return phi(etas, among)

        return counted

    def one_shot(params, values, dd):
        read = []

        def each():
            for value in values:
                read.append(value)
                yield value

        eta, evals = backtrack(params, each(), dd)
        assert len(read) == evals
        counts.append(evals)
        return eta, evals

    def two_blocks(params, phi, stack):
        def rest(i):
            yield from phi(params.steps[2:], [i])[0]

        return [itertools.chain(values, rest(i)) for i, values in
                zip(stack.searched, phi(params.steps[:2], stack.searched))]

    monkeypatch.setattr(solvers_mod, "batch_ray", counted_ray)
    monkeypatch.setattr(solvers_mod, "backtrack", one_shot)
    params = SBASParams(eta0=50.0)
    for loss in LOSSES:
        spec = ObjectiveSpec(loss, data, 1e-4, lam1)
        # eta0 = 50 makes every solver backtrack, so both shapes are asked for
        cfg = RunConfig(solver=kind, objective=spec, epochs=4, batch_size=6,
                        sbas=params, seed=2)
        w_rule, rule = run([cfg])[0]
        assert {2, params.max_backtracks + 1} <= set(blocks), loss
        blocks.clear()
        counts.clear()
        with monkeypatch.context() as m:
            m.setattr(solvers_mod, "_trial_values", two_blocks)
            w_two, two = run([cfg])[0]
        # one (0, eta0) block per search, and a rest block per failed eta0
        rests = [params.max_backtracks - 1] * sum(evals > 2 for evals in counts)
        assert sorted(blocks) == sorted([2] * len(counts) + rests), loss
        blocks.clear()
        counts.clear()
        assert [p.fevals for p in rule.points] == [p.fevals for p in two.points]
        assert [p.objective for p in rule.points] == [p.objective for p in two.points]
        assert np.array_equal(w_rule, w_two), loss


@pytest.mark.parametrize("kind", ["saag2", "saag4", "svrg", "vrsgd"])
@pytest.mark.parametrize("lam1", [0.0, 1e-3])
def test_stored_snap_slopes_keep_traces(kind, lam1, monkeypatch):
    # reading c~_B from the snapshot's slopes, with the batches gathered a
    # chunk at a time, must give the traces of forming it afresh as
    # slope_t(margins(spec, snap.point, batch)) every step
    train, test = split_train_test(make_synthetic(60, 8, seed=6, flip=0.1), 0.8, 0)
    spec = ObjectiveSpec("logistic", train, lambda2=1e-3, lambda1=lam1)
    cfg = RunConfig(solver=kind, objective=spec, epochs=4, batch_size=6, seed=1)
    # 8 batches of 6 rows of 8 values: chunks of 3, 3 and 2 batches
    bound = 3 * 6 * 8 * 8
    monkeypatch.setattr(Dataset, "PLAN_BYTES", bound)
    with monkeypatch.context() as m:
        chunks = record_chunks(m)
        w_stored, stored = run([cfg], test=test)[0]
    assert chunks == [bound, bound, 2 * bound // 3] * 4

    def slopes(spec_, w, x):
        return slope_t(spec_.loss, margins(spec_.data, w, x))

    # each term's slopes at w are the step's c; the snap point's are afresh
    def saag2_afresh(snap, spec_, scatter_, rows, x, c):
        n, k = spec_.data.n, len(rows)
        x = spec_.data.gather(rows)
        return scatter(spec_.data, c / k - slopes(spec_, snap.point, x) / n, x)

    def svrg_afresh(snap, spec_, scatter_, rows, x, c):
        x = spec_.data.gather(rows)
        return scatter(spec_.data, (c - slopes(spec_, snap.point, x)) / len(rows), x)

    monkeypatch.setattr(estimators_mod, "saag2_term", saag2_afresh)
    monkeypatch.setattr(estimators_mod, "svrg_term", svrg_afresh)
    monkeypatch.setattr(solvers_mod, "take_snapshot", lambda spec_, w: (
        estimators_mod.SnapState(w.copy(), batch_grad(spec_, w), None, None)))
    w_afresh, afresh = run([cfg], test=test)[0]
    assert np.array_equal(w_stored, w_afresh)
    assert [(p.objective, p.grads_over_n, p.fevals, p.test_accuracy)
            for p in stored.points] == \
        [(p.objective, p.grads_over_n, p.fevals, p.test_accuracy)
         for p in afresh.points]


def run_bits(kind, data, b, lam1, fixed_eta, loss="logistic"):
    """A fresh spec's run of ``kind``: the spec, and the bytes of its final
    w and of every trace point's (objective, grads/n, fevals)."""
    spec = ObjectiveSpec(loss, data, lambda2=1e-3, lambda1=lam1)
    w, trace = run([RunConfig(solver=kind, objective=spec, epochs=3, batch_size=b,
                              seed=3, fixed_eta=fixed_eta)])[0]
    points = [(p.objective, p.grads_over_n, p.fevals) for p in trace.points]
    return spec, (w.tobytes(), np.array(points).tobytes())


@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
@pytest.mark.parametrize("lam1", [0.0, 1e-3])
@pytest.mark.parametrize("fixed_eta", [None, 0.05], ids=["sbas", "fixed"])
def test_zero_d_operands_keep_traces(dense, lam1, fixed_eta, monkeypatch):
    # the step's and every loss kernel's scalar operands are 0-d arrays; the
    # Python floats they are made from give the same bits, at b = 1, at
    # b = 7 with a tail of 6 and at b = n
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    data = make_synthetic(20, 5, seed=7, flip=0.1)
    assert (data.block is None) != dense
    for b, loss in itertools.product((1, 7, 20), LOSSES):
        for kind in SOLVERS:
            spec, shipped = run_bits(kind, data, b, lam1, fixed_eta, loss)
            assert all(isinstance(x, np.ndarray) and x.ndim == 0
                       for x in spec.scalars(b))
            with monkeypatch.context() as m:
                for name, value in (("ZERO", 0.0), ("HALF", 0.5), ("ONE", 1.0),
                                    ("TWO", 2.0)):
                    m.setattr(objective_mod, name, value)
                m.setattr(objective_mod, "operand", float)
                spec, floats = run_bits(kind, data, b, lam1, fixed_eta, loss)
                assert all(type(x) is float for x in spec.scalars(b))
            assert shipped == floats, (kind, b, loss)


def test_sgd_run_grows_no_module_state():
    # sgd's step eta0 / sqrt(t) changes every step, so nothing may keep it;
    # the spec keeps the operands of its one batch size
    def module_state():
        return {(module, name): (id(value), len(value)
                                 if isinstance(value, (dict, list, set, tuple))
                                 else None)
                for module in list(sys.modules) if module.split(".")[0] == "saag"
                for name, value in vars(sys.modules[module]).items()}

    spec = toy_spec(n=200, d=5)
    before = module_state()
    _, trace = run([RunConfig(solver="sgd", objective=spec, epochs=1, batch_size=1)])[0]
    assert trace.points[-1].grads_over_n == 1.0     # 200 steps
    assert module_state() == before
    assert list(spec._scalars) == [1]


@pytest.mark.parametrize("kind", ["saag1", "svrg", "sgd"])
def test_finite_direction_whose_square_overflows_still_steps(kind, monkeypatch):
    # d.d overflows to inf for entries near 1e200, yet every entry of d is
    # finite, so the fixed steps run, and silently
    spec = toy_spec(n=8, d=3)
    huge = np.array([1e200, -2e200, 3e199])
    with np.errstate(over="ignore"):
        assert float(huge.dot(huge)) == math.inf
    monkeypatch.setattr(solvers_mod, "bind_term", lambda *args: lambda *step: huge)
    cfg = RunConfig(solver=kind, objective=spec, epochs=2, batch_size=4,
                    fixed_eta=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, trace = run([cfg])[0]
    assert trace.failure is None
    assert len(trace.points) == 3
    assert np.array_equal(w, -4 * 1e-300 * huge)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fixed_eta", [None, 0.1])
def test_non_finite_direction_entry_raises(bad, fixed_eta, monkeypatch):
    # one NaN or infinite entry stops the step, searched or fixed, with the
    # run's message, also beside entries whose square overflows
    spec = toy_spec(n=8, d=3)
    for d in (np.array([0.5, bad, -1.0]), np.array([1e200, 0.0, bad])):
        monkeypatch.setattr(solvers_mod, "bind_term", lambda *args, d=d: lambda *step: d)
        cfg = RunConfig(solver="svrg", objective=spec, epochs=1, batch_size=4,
                        fixed_eta=fixed_eta)
        state = init_state(cfg)
        state.snap = estimators_mod.take_snapshot(spec, state.w)
        direct = solvers_mod.bind_term("unbiased", spec, None, state.snap)
        batch = np.array([0, 1, 2, 3])
        stack = Stack([(state, direct)])
        stack_step(stack, batch, spec.data.gather(batch))
        assert state.failure == "svrg: non-finite direction at epoch 0, inner step 0"
        assert not stack.runs
        assert state.inner == 0
        _, trace = run([cfg])[0]
        assert trace.failure == "svrg: non-finite direction at epoch 0, inner step 0"


def test_inner_step_eta_zero_leaves_w_unchanged():
    spec = toy_spec(n=8, d=3)
    # alpha ~ 1 with a single backtrack forces the 0.0 sentinel on an
    # ascent-shaped direction; counters still advance
    params = SBASParams(alpha=0.999999, shrink=0.5, eta0=1e6, max_backtracks=1)
    cfg = RunConfig(solver="gd", objective=spec, epochs=1, batch_size=8, seed=0,
                    sbas=params)
    state = init_state(cfg)
    w0 = state.w.copy()
    run_epoch([state], make_schedule(8, 8, 0))      # one step, on every row
    assert np.array_equal(state.w, w0)
    assert state.inner == 1


def test_invalid_configs_rejected():
    spec = toy_spec(n=8, d=3)
    with pytest.raises(ValueError):
        RunConfig(solver="nope", objective=spec, epochs=1, batch_size=4)
    with pytest.raises(ValueError):
        RunConfig(solver="gd", objective=spec, epochs=0, batch_size=4)
    with pytest.raises(ValueError):
        RunConfig(solver="gd", objective=spec, epochs=1, batch_size=9)
    # gd steps on every row, so an in-range batch size becomes n
    assert RunConfig(solver="gd", objective=spec, epochs=1,
                     batch_size=4).batch_size == 8
    # a fixed step that is not finite and positive would leave w in place
    for eta in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="fixed step"):
            RunConfig(solver="gd", objective=spec, epochs=1, batch_size=4,
                      fixed_eta=eta)


def test_config_counts_must_be_integers():
    # a fractional batch size, epoch count or seed would fail only deep in
    # the run (a slice index, range, the seed of a generator); numpy
    # integers are integers, kept as Python ints
    spec = toy_spec(n=8, d=3)
    base = dict(solver="svrg", objective=spec, epochs=2, batch_size=4, seed=1)
    for name, bad in (("batch_size", 2.5), ("epochs", 1.5), ("seed", 0.5),
                      ("batch_size", 4.0), ("epochs", True), ("seed", "1")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            RunConfig(**{**base, name: bad})
    cfg = RunConfig(**{**base, "epochs": np.int64(2), "batch_size": np.int32(4),
                       "seed": np.uint8(1)})
    assert [(type(v), v) for v in (cfg.epochs, cfg.batch_size, cfg.seed)] == \
        [(int, 2), (int, 4), (int, 1)]
    (w, trace), (w_int, trace_int) = run([cfg])[0], run([RunConfig(**base)])[0]
    assert np.array_equal(w, w_int) and trace.config == trace_int.config


def test_reference_optimum_one_point_least_squares():
    # single point x = 1, y = 1, no regularization: w* = 1, F* = 0
    from saag.data import Dataset
    ds = Dataset([0, 1], [0], [1.0], [1.0], d=1)
    spec = ObjectiveSpec("least_squares", ds)
    ref = reference_optimum(spec)
    assert abs(ref.w[0] - 1.0) <= 1e-8
    assert abs(ref.value) <= 1e-12
    assert ref.converged


def test_reference_optimum_symmetric_logistic():
    # +x and -x with matching labels force w* = 0, F* = ln 2
    from saag.data import Dataset
    ds = Dataset([0, 2, 4], [0, 1, 0, 1], [1.0, 2.0, -1.0, -2.0], [1.0, 1.0], d=2)
    spec = ObjectiveSpec("logistic", ds, lambda2=1e-3)
    ref = reference_optimum(spec)
    assert np.linalg.norm(ref.w) <= 1e-6
    assert abs(ref.value - math.log(2.0)) <= 1e-10


def test_reference_optimum_matches_grid_search_elastic_net():
    spec = toy_spec(n=12, d=2, lam2=5e-2, lam1=2e-2, seed=4)
    ref = reference_optimum(spec)
    # independent oracle: fine grid over the 2-d weight space, then refine
    lo, hi = -3.0, 3.0
    center = np.zeros(2)
    best = np.inf
    for _ in range(4):
        xs = np.linspace(center[0] - (hi - lo) / 2, center[0] + (hi - lo) / 2, 81)
        ys = np.linspace(center[1] - (hi - lo) / 2, center[1] + (hi - lo) / 2, 81)
        for a in xs:
            for b in ys:
                v = objective_value(spec, np.array([a, b]))
                if v < best:
                    best, center = v, np.array([a, b])
        hi, lo = (hi - lo) / 20, -(hi - lo) / 20
    assert ref.value <= best + 1e-6
    assert abs(ref.value - best) <= 1e-6


def test_reference_flags_nonconvergence(monkeypatch):
    # separable logistic with no regularization has no finite minimizer; the
    # objective keeps creeping down, and 2000 products stop it short of the
    # rounding exit (4066 products)
    monkeypatch.setattr(solvers_mod, "PRODUCTS", 2000)
    spec = toy_spec(n=12, d=3, lam2=0.0, seed=7)
    ref = reference_optimum(spec)
    assert not ref.converged


@pytest.mark.parametrize("shape, lam2", [
    ((1000, 50, 4, 0.05, 0.0), 1e-5),
    ((1000, 50, 11, 0.05, 0.0), 1e-5),
    ((500, 20, 0, 0.01, 1.0), 1e-4),
], ids=["4", "11", "margin-1"])
def test_reference_polish_stops_at_rounding_fixed_point(shape, lam2):
    # on the first two problems a 1/L step from a momentum restart point
    # raises F by rounding alone; the polish must stop there, not repeat the
    # same step until its iteration cap. The last is the README's solver
    # comparison set, 400 nearly separable training rows.
    n, d, seed, flip, margin = shape
    data = make_synthetic(n, d, seed=seed, flip=flip, margin=margin)
    train, _ = split_train_test(data, 0.8, seed=0)
    spec = ObjectiveSpec("logistic", train, lambda2=lam2)
    ref = reference_optimum(spec)
    assert ref.converged
    assert ref.iterations < 2000


def sparse_logistic_set():
    # 200 x 300 at 2% fill, labelled by a random hyperplane
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 300)) * (rng.random((200, 300)) < 0.02)
    y = np.where(x @ rng.standard_normal(300) >= 0.0, 1.0, -1.0)
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(x, axis=1))))
    return Dataset(indptr, cols, x[rows, cols], y, 300)


def test_reference_optimum_sparse_passes_match_dense(monkeypatch):
    # below DENSE_PASS_FILL the full passes run in CSR without densifying;
    # the passes on a dense block must reach the same optimum
    ds = sparse_logistic_set()
    with monkeypatch.context() as m:
        m.setattr(Dataset, "dense", lambda self: pytest.fail("densified"))
        sparse = reference_optimum(ObjectiveSpec("logistic", ds, 1e-3, 1e-3))
    assert ds.block is None
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0)
    ds = sparse_logistic_set()
    dense = reference_optimum(ObjectiveSpec("logistic", ds, 1e-3, 1e-3))
    assert ds.block is not None
    assert sparse.converged and dense.converged
    assert abs(sparse.value - dense.value) <= 1e-10 * dense.value
    np.testing.assert_allclose(sparse.w, dense.w, atol=1e-6)


def test_reference_l1_certificate_bounds_the_gap(monkeypatch):
    # with lambda1 > 0 Newton stops on the min-norm subgradient of F at w; a
    # lambda2 this large lets it fire well before the rounding exit, which
    # GAP = 0 leaves as the only stop, and its bound holds against that exit
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), lambda2=1e-2, lambda1=1e-3)
    certified = reference_optimum(spec)
    monkeypatch.setattr(solvers_mod, "GAP", 0.0)
    rounded = reference_optimum(spec)
    assert certified.converged and rounded.converged
    assert certified.iterations < rounded.iterations
    assert abs(certified.value - rounded.value) <= 5e-14 * rounded.value
    assert certified.value - rounded.value <= certified.bound
    assert 0.0 <= rounded.bound < math.inf


def extended_value_and_lower(spec, w):
    # logistic F at w and its certificate's lower bound F - ||s||^2 / (2
    # lambda2) on F*, s the min-norm subgradient, all in np.longdouble
    data = spec.data
    rows = np.repeat(np.arange(data.n), np.diff(data.indptr))
    signed = np.zeros((data.n, data.d), dtype=np.longdouble)
    signed[rows, data.indices] = -data.labels[rows] * data.values.astype(np.longdouble)
    w = w.astype(np.longdouble)
    t = signed @ w
    lam1, lam2 = np.longdouble(spec.lambda1), np.longdouble(spec.lambda2)
    f = np.logaddexp(0.0, t).mean() + lam2 / 2 * w.dot(w) + lam1 * np.abs(w).sum()
    g = signed.T @ (1.0 / (1.0 + np.exp(-t))) / data.n + lam2 * w
    s = np.where(w != 0.0, g + lam1 * np.sign(w),
                 np.sign(g) * np.maximum(np.abs(g) - lam1, 0.0))
    return f, f - s.dot(s) / (2 * lam2)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                    reason="long double is float64 here")
@pytest.mark.parametrize("data", [sparse_logistic_set, lambda: make_synthetic(40, 6, seed=2)],
                         ids=["sparse-200x300", "dense-40x6"])
def test_reference_bound_holds_in_extended_precision(monkeypatch, data):
    # the rounding exit (GAP = 0) gives a point whose extended-precision
    # lower bound on F* is tight; the default call's float value lies above
    # it by F's rounding, which the ROUNDING term of its bound must cover
    spec = ObjectiveSpec("logistic", data(), lambda2=1e-2, lambda1=1e-3)
    default = reference_optimum(spec)
    monkeypatch.setattr(solvers_mod, "GAP", 0.0)
    _, lower = extended_value_and_lower(spec, reference_optimum(spec).w)
    assert default.converged
    assert default.value - lower <= default.bound
    # the certificate term alone would not cover it
    assert default.value - lower > default.bound - solvers_mod.ROUNDING * default.value


def test_reference_optimum_above_dense_limit_uses_csr(monkeypatch):
    # a dense training set whose copy would not fit takes the CSR passes
    # instead of failing in Dataset.dense
    spec = toy_spec(n=40, d=6, lam2=1e-3, lam1=1e-3, seed=2)
    dense = reference_optimum(spec)
    assert spec.data.block is not None
    monkeypatch.setattr(Dataset, "DENSE_LIMIT", spec.data.n * spec.data.d - 1)
    spec = toy_spec(n=40, d=6, lam2=1e-3, lam1=1e-3, seed=2)
    with pytest.raises(ValueError, match="too large to densify"):
        spec.data.dense()
    sparse = reference_optimum(spec)
    assert spec.data.block is None
    assert sparse.converged and dense.converged
    assert abs(sparse.value - dense.value) <= 1e-10 * dense.value


def same_reference(a, b):
    # repr: a NaN bound equals a NaN bound
    return (a.w.tobytes(), a.value, a.iterations, a.converged, repr(a.bound)) == \
        (b.w.tobytes(), b.value, b.iterations, b.converged, repr(b.bound))


@pytest.mark.parametrize("lam1", [0.0, 1e-3])
@pytest.mark.parametrize("best", ["nan", "inf", "-inf", "f_star", "below"])
def test_reference_without_a_usable_best_keeps_the_gap_stop(lam1, best):
    # a best that is no finite value above F cannot move the stop: the
    # iterates, the exit and the bound are the default call's, bit for bit
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), lambda2=1e-2, lambda1=lam1)
    default = reference_optimum(spec)
    assert default.converged and 0.0 < default.bound <= 5e-14 * default.value
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "f_star": default.value, "below": default.value - 1.0}[best]
    assert same_reference(reference_optimum(spec, best=value), default)


def test_reference_at_lambda2_zero_ignores_best(monkeypatch):
    # no certificate without strong convexity: best leaves the run as it is
    monkeypatch.setattr(solvers_mod, "PRODUCTS", 2000)
    spec = toy_spec(n=12, d=3, lam2=0.0, seed=7)
    default = reference_optimum(spec)
    assert not default.converged and math.isnan(default.bound)
    above = objective_value(spec, np.zeros(3))
    assert same_reference(reference_optimum(spec, best=above), default)


def test_reference_stops_at_the_trace_accuracy(monkeypatch):
    # the bound it certifies is TRACE_ACCURACY of the gap best - F, and the
    # iterates are the default call's up to the earlier stop
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), lambda2=1e-2, lambda1=1e-3)
    default = reference_optimum(spec)
    best = default.value + 1e-3
    early = reference_optimum(spec, best=best)
    assert early.converged and early.iterations < default.iterations
    assert 0.0 < early.bound <= solvers_mod.TRACE_ACCURACY * (best - early.value)
    assert 0.0 <= early.value - default.value <= early.bound
    monkeypatch.setattr(solvers_mod, "PRODUCTS", early.iterations)
    # the default call capped where the early one stopped: the same point
    capped = reference_optimum(spec)
    assert not capped.converged and math.isfinite(capped.bound)
    assert capped.bound >= capped.value - default.value
    assert (capped.w.tobytes(), capped.value) == (early.w.tobytes(), early.value)


def test_convergence_on_smooth_toy():
    spec = ObjectiveSpec("logistic", make_synthetic(200, 10, seed=0, margin=4.0), 1e-2)
    ref = reference_optimum(spec)
    init = objective_value(spec, np.zeros(10)) - ref.value
    _, trace = run([RunConfig(solver="saag4", objective=spec, epochs=30,
                              batch_size=8, seed=0)])[0]
    best = min(p.objective for p in trace.points) - ref.value
    assert best <= 1e-3 * init


def test_reference_optimum_ridge_least_squares_matches_normal_equations():
    spec = toy_spec(n=80, d=6, lam2=1e-2, seed=2, loss="least_squares")
    x, y = spec.data.dense(), spec.data.labels
    n, d = x.shape
    w = np.linalg.solve(x.T @ x / n + 1e-2 * np.eye(d), x.T @ y / n)
    ref = reference_optimum(spec)
    exact = objective_value(spec, w)
    assert ref.converged
    assert abs(ref.value - exact) <= 1e-12 * exact
    np.testing.assert_allclose(ref.w, w, atol=1e-6)


def test_reference_small_lambda_separable_finishes_under_cap():
    # the lambda = 1e-7 point of a default lambda sweep on n=30,d=3, with
    # and without l1: Newton reaches the 5e-14 * F certificate, not a
    # rounding exit, and warns nothing
    train, _ = split_train_test(make_synthetic(30, 3), 0.8, seed=0)
    for lam1 in (0.0, 1e-7):
        spec = ObjectiveSpec("logistic", train, lambda2=1e-7, lambda1=lam1)
        ref = reference_optimum(spec)
        assert ref.converged and 0.0 <= ref.bound <= 5e-14 * ref.value
        assert ref.iterations < solvers_mod.PRODUCTS
        assert ref.value <= objective_value(spec, np.zeros(3))


@pytest.mark.parametrize("loss, lam1", [("least_squares", 0.0), ("least_squares", 1e-3),
                                        ("squared_hinge", 1e-3)])
def test_reference_certifies_nearly_collinear_rows(loss, lam1):
    # margin = 2000 rows are nearly parallel: the orthant-wise Newton steps,
    # their projection clipping many coordinates, must still reach the
    # certificate, not stop at a false rounding exit
    train, _ = split_train_test(make_synthetic(60, 5, margin=2000.0), 0.8, seed=0)
    spec = ObjectiveSpec(loss, train, lambda2=1e-5, lambda1=lam1)
    ref = reference_optimum(spec)
    assert ref.converged and 0.0 <= ref.bound <= 5e-14 * ref.value
    assert ref.value <= objective_value(spec, np.zeros(5))


@pytest.mark.parametrize("lam2", [0.0, 1e-3])
def test_reference_cap_bounds_its_products(monkeypatch, lam2):
    # iterations counts the gradient and Hessian-vector products; a cap of
    # k stops at k at most, unconverged, with a bound of its point when
    # lambda2 > 0
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), lambda2=lam2, lambda1=1e-3)
    full = reference_optimum(spec)
    for k in (1, 2, 3, 7, 30):
        monkeypatch.setattr(solvers_mod, "PRODUCTS", k)
        capped = reference_optimum(spec)
        assert capped.iterations <= k and not capped.converged
        if lam2 > 0.0:
            assert capped.bound >= capped.value - full.value
        else:
            assert math.isnan(capped.bound)
    assert full.converged and full.iterations > 30


def test_reference_optimum_empty_rows_and_zero_columns():
    # rows (1, -1, 0, 0), empty and (-2, 2, 0, 0): X times a vector of ones
    # is 0, columns 2 and 3 are empty (no curvature: at lambda2 = 0 their
    # diagonal is 0), and the optimum is (a, -a, 0, 0) with a from a scalar
    # Newton solve
    from saag.data import Dataset
    ds = Dataset([0, 2, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -2.0, 2.0],
                 [1.0, -1.0, 1.0], d=4)

    def sig(t):
        return 0.5 * (1.0 + math.tanh(0.5 * t))

    for lam2 in (0.0, 1e-3):
        spec = ObjectiveSpec("logistic", ds, lambda2=lam2)
        ref = reference_optimum(spec)
        a = 0.0
        for _ in range(50):
            g = (-2.0 * sig(-2.0 * a) + 4.0 * sig(4.0 * a)) / 3.0 + 2.0 * lam2 * a
            h = (4.0 * sig(2.0 * a) * sig(-2.0 * a)
                 + 16.0 * sig(4.0 * a) * sig(-4.0 * a)) / 3.0 + 2.0 * lam2
            a -= g / h
        exact = objective_value(spec, np.array([a, -a, 0.0, 0.0]))
        assert ref.converged
        assert abs(ref.value - exact) <= 1e-12 * exact
        assert ref.w[2] == 0.0 and ref.w[3] == 0.0


def test_reference_optimum_of_all_empty_rows():
    # X = 0: F is ln 2 + lambda2/2 ||w||^2, minimized at w = 0 at once
    from saag.data import Dataset
    ds = Dataset([0, 0, 0], [], [], [1.0, -1.0], d=3)
    for lam2 in (0.0, 1e-3):
        spec = ObjectiveSpec("logistic", ds, lambda2=lam2)
        ref = reference_optimum(spec)
        assert ref.converged and ref.iterations == 1
        assert ref.value == math.log(2.0)
        assert not np.any(ref.w)


def jacobi(spec, z):
    # the Hessian weights and diagonal that _newton_cg hands to CG at margins z
    weights = objective_mod.curvature_t(spec.loss, z) / spec.data.n
    return weights, objective_mod.square_scatter(spec.data)(weights) + spec.lambda2


def test_jacobi_cg_solves_a_diagonal_hessian_in_one_step():
    # one stored value per row, each in its own column: X^T D X is diagonal,
    # so the first preconditioned residual is the Newton step
    ds = Dataset([0, 1, 2, 3], [2, 0, 1], [3.0, -0.5, 40.0], [1.0, -1.0, 1.0], d=4)
    spec = ObjectiveSpec("logistic", ds, lambda2=1e-3)
    w = np.array([0.1, -0.2, 0.3, 0.0])
    z = margins(ds, w)
    weights, diagonal = jacobi(spec, z)
    s = batch_grad(spec, w, z=z)
    fixed = np.zeros(4, dtype=bool)
    p, steps = solvers_mod._conjugate_gradient(spec, weights, diagonal, fixed,
                                               s, float(s.dot(s)), 25)
    assert steps == 1
    np.testing.assert_allclose(p, -s / diagonal, rtol=1e-14)


def test_jacobi_cg_holds_the_fixed_coordinates_at_zero():
    # the coordinates where w_j = s_j = 0 are not free: p stays exactly 0
    # there through every step, while the free ones move
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), 1e-3, 1e-3)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(300) * (rng.random(300) < 0.5)
    z = margins(spec.data, w)
    weights, diagonal = jacobi(spec, z)
    s = batch_grad(spec, w, z=z)
    fixed = (w == 0.0) & (rng.random(300) < 0.5)
    s[fixed] = 0.0
    p, steps = solvers_mod._conjugate_gradient(spec, weights, diagonal, fixed,
                                               s, float(s.dot(s)), 25)
    assert steps > 1 and fixed.sum() > 50
    assert not p[fixed].any() and p[~fixed].any()


def test_jacobi_preconditioner_of_a_zero_curvature_column_is_lambda2():
    # column 1 is stored only in row 0, whose squared hinge margin t = -2 is
    # past the kink: its curvature is 0, so M_1 is lambda2 alone, and the
    # step on it is the l2 term's Newton step back to 0
    ds = Dataset([0, 1, 2], [1, 0], [2.0, 1.0], [1.0, -1.0], d=2)
    spec = ObjectiveSpec("squared_hinge", ds, lambda2=1e-3)
    w = np.array([0.1, 1.0])
    z = margins(ds, w)
    assert z.tolist() == [-2.0, 0.1]
    weights, diagonal = jacobi(spec, z)
    assert diagonal[1] == spec.lambda2 and np.isfinite(diagonal).all()
    s = batch_grad(spec, w, z=z)
    p, _ = solvers_mod._conjugate_gradient(spec, weights, diagonal,
                                           np.zeros(2, dtype=bool), s,
                                           float(s.dot(s)), 25)
    assert np.isfinite(p).all() and p[1] == pytest.approx(-1.0, rel=1e-12)


def test_jacobi_preconditioner_of_a_free_coordinate_with_no_curvature_is_one(monkeypatch):
    # squared hinge + l1 at lambda2 = 0: a free coordinate whose rows are all
    # past the kink has diag(H) = 0; its preconditioner reads 1, and every
    # CG step stays finite
    spec = ObjectiveSpec("squared_hinge", sparse_logistic_set(), lambda2=0.0, lambda1=1e-2)
    seen = []
    cg = solvers_mod._conjugate_gradient

    def spy(spec, weights, preconditioner, fixed, *rest):
        p, steps = cg(spec, weights, preconditioner, fixed, *rest)
        flat = (objective_mod.square_scatter(spec.data)(weights) == 0.0) & ~fixed
        seen.append((preconditioner[flat], p))
        return p, steps

    monkeypatch.setattr(solvers_mod, "_conjugate_gradient", spy)
    ref = reference_optimum(spec)
    read = [m for m, _ in seen if m.size]
    assert read and all((m == 1.0).all() for m in read)
    assert all(np.isfinite(p).all() for _, p in seen)
    assert ref.converged and np.isfinite(ref.w).all()


def test_cg_without_curvature_returns_its_first_direction():
    # all-zero weights at lambda2 = 0: H = 0, so q.Hq = 0 at the first step
    # and CG returns q = -s / M (M = 1, as the reference reads a zero
    # diagonal) after one product
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), lambda2=0.0)
    s = np.random.default_rng(1).standard_normal(300)
    p, steps = solvers_mod._conjugate_gradient(spec, np.zeros(spec.data.n), np.ones(300),
                                               np.zeros(300, dtype=bool), s,
                                               float(s.dot(s)), 25)
    assert steps == 1
    assert np.array_equal(p, -s)


def test_jacobi_reference_certifies_column_scaled_least_squares():
    # columns scaled across 10^-1.5 .. 10^1.5 make X^T X badly scaled: plain
    # CG restarted every CG_STEPS took 5447 products here; the
    # Jacobi-preconditioned CG certifies in 277
    ds = sparse_logistic_set()
    scaled = ds.values * np.logspace(-1.5, 1.5, 300)[ds.indices]
    spec = ObjectiveSpec("least_squares",
                         Dataset(ds.indptr, ds.indices, scaled, ds.labels, 300),
                         lambda2=1e-3)
    ref = reference_optimum(spec)
    assert ref.converged and 0.0 < ref.bound <= 5e-14 * ref.value
    assert ref.iterations <= 300


def test_reference_gradient_past_the_logistic_overflow_warns_nothing(monkeypatch):
    # at lambda2 = 1e-10 Newton's iterates on this separable set reach
    # margins below -709.78, where exp(-t) in the logistic slope overflows to
    # the exact slope +0.0; the reference ignores that overflow as run_epoch
    # does, so no RuntimeWarning escapes
    train, _ = split_train_test(make_synthetic(30, 3), 0.8, seed=0)
    ds = Dataset(train.indptr, train.indices, 10.0 * train.values, train.labels, 3)
    spec = ObjectiveSpec("logistic", ds, lambda2=1e-10)
    lowest = []
    grad = solvers_mod.batch_grad
    monkeypatch.setattr(solvers_mod, "batch_grad", lambda spec, w, z: (
        lowest.append(float(z.min())) or grad(spec, w, z=z)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ref = reference_optimum(spec)
    assert min(lowest) < -709.78
    assert ref.converged and np.isfinite(ref.w).all()


def test_reference_at_lambda2_zero_drives_separable_logistic_below_1e_100():
    # the CI margin-2000 train split has no minimizer at lambda2 = 0: F
    # falls until a step can no longer be seen to lower it, with no
    # certificate (a NaN bound), and the margins pass the logistic overflow
    # on the way without a warning
    train, _ = split_train_test(make_synthetic(60, 5, margin=2000.0), 0.8, seed=0)
    spec = ObjectiveSpec("logistic", train, lambda2=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ref = reference_optimum(spec)
    assert ref.value < 1e-100 and math.isnan(ref.bound)
    assert ref.converged and np.isfinite(ref.w).all()
