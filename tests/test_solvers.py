import itertools
import math
import sys
import warnings

import numpy as np
import pytest

import saag.estimators as estimators_mod
import saag.objective as objective_mod
import saag.solvers as solvers_mod
from saag.data import Dataset, make_schedule, make_synthetic, split_train_test
from saag.estimators import bind
from saag.line_search import SBASParams
from saag.objective import (LOSSES, ObjectiveSpec, batch_grad,
                            batch_smooth_value, margins, objective_value,
                            scatter, slope_t)
from saag.solvers import (SOLVERS, NonFiniteDirection, RunConfig, init_state,
                          reference_optimum, run, run_epoch)

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
    _, trace = run(cfg)
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
            run_epoch(kind, state, spec, sched, cfg.sbas)
            history.append(state.w.copy())
        iterates[kind] = history
    ref = iterates["gd"]
    for kind, history in iterates.items():
        for a, b in zip(history, ref):
            assert np.linalg.norm(a - b) <= 1e-12, kind


def test_epoch_boundary_equalities(monkeypatch):
    spec = toy_spec(n=20, d=4)
    collected = []
    orig = solvers_mod.inner_step

    def spy(kind, direct, state, spec_, batch, sbas_params, fixed_eta=None):
        out = orig(kind, direct, state, spec_, batch, sbas_params, fixed_eta)
        collected.append(state.w.copy())
        return out

    monkeypatch.setattr(solvers_mod, "inner_step", spy)
    for kind in SOLVERS:
        collected.clear()
        cfg = RunConfig(solver=kind, objective=spec, epochs=1, batch_size=5, seed=1)
        state = init_state(cfg)
        before = state.average
        sched = make_schedule(20, cfg.batch_size, 1, epoch=0)
        run_epoch(kind, state, spec, sched, cfg.sbas)
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
        run_epoch(kind, state, spec, make_schedule(20, 5, 4, epoch=0), cfg.sbas)
        if anchor is None:
            # no snap point, in either epoch
            assert state.snap is None, kind
            run_epoch(kind, state, spec, make_schedule(20, 5, 4, epoch=1), cfg.sbas)
            assert state.snap is None, kind
            continue
        # first epoch anchors at the initial point for every snap solver
        assert np.array_equal(state.snap.point, np.zeros(4)), kind
        start = state.w.copy()
        avg = state.average.copy()
        run_epoch(kind, state, spec, make_schedule(20, 5, 4, epoch=1), cfg.sbas)
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
    solvers_mod.inner_step("gd", bind("batch", spec), state, spec, np.array([0]),
                           cfg.sbas)
    # eta = eta0 = 1 on a zero direction; threshold = eta * lambda1 = 0.2
    assert np.allclose(state.w, [0.5, 0.1], atol=1e-15)


def test_batch_objective_never_increases_on_accepted_steps(monkeypatch):
    # every accepted step must not increase the mini-batch smooth objective
    spec = toy_spec(n=20, d=4, loss="least_squares", lam2=1e-3)
    orig = solvers_mod.inner_step
    checks = []

    def spy(kind, direct, state, spec_, batch, sbas_params, fixed_eta=None):
        before = batch_smooth_value(spec_, state.w, batch)
        out = orig(kind, direct, state, spec_, batch, sbas_params, fixed_eta)
        after = batch_smooth_value(spec_, state.w, batch)
        checks.append(after <= before + 1e-12)
        return out

    monkeypatch.setattr(solvers_mod, "inner_step", spy)
    cfg = RunConfig(solver="saag3", objective=spec, epochs=3, batch_size=4, seed=2)
    state = init_state(cfg)
    for s in range(3):
        run_epoch("saag3", state, spec, make_schedule(20, 4, 2, epoch=s), cfg.sbas)
    assert checks and all(checks)


def test_run_single_epoch_full_batch_gd_equals_saag4():
    spec = toy_spec(n=16, d=4)
    w_gd, _ = run(RunConfig(solver="gd", objective=spec, epochs=1,
                            batch_size=16, seed=0))
    w_s4, _ = run(RunConfig(solver="saag4", objective=spec, epochs=1,
                            batch_size=16, seed=0))
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
    slots, columns and values."""
    if isinstance(gathered, np.ndarray):
        return gathered.nbytes
    return sum(a.nbytes for a in gathered)


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
            w, trace = run(cfg, test=test)
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
        with monkeypatch.context() as m:
            m.setattr(Dataset, "gather", lambda self, rows=None: self._gather(
                np.arange(self.n) if rows is None else np.asarray(rows)))
            w_copy, trace_copy = run(cfg, test=test)
        assert np.array_equal(w, w_copy)
        assert [(p.fevals, p.objective, p.test_accuracy) for p in trace.points] == \
            [(p.fevals, p.objective, p.test_accuracy) for p in trace_copy.points]


@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
def test_an_epoch_gathers_each_planned_batch_once(dense, monkeypatch):
    # a planned batch carries its gathered rows: one epoch of any solver
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
    gather_chunk, gather = Dataset._gather_chunk, Dataset._gather

    def counted_chunk(self, rows):
        chunked.extend(rows)
        return gather_chunk(self, rows)

    def counted(self, rows):
        fresh.append(rows)
        return gather(self, rows)

    monkeypatch.setattr(Dataset, "_gather_chunk", counted_chunk)
    monkeypatch.setattr(Dataset, "_gather", counted)
    for b in (1, 16, n - 1, n):
        schedule = make_schedule(n, b, seed=3)
        for kind in SOLVERS:
            state = init_state(RunConfig(solver=kind, objective=spec, epochs=1,
                                         batch_size=b))
            chunked.clear()
            fresh.clear()
            run_epoch(kind, state, spec, schedule, SBASParams(eta0=50.0))
            assert fresh == []
            assert len(chunked) == (0 if b == n else schedule.m)
            assert all(np.array_equal(r, s) for r, s in zip(chunked, schedule.batches))
    # the one batch of every row carries the stored layout itself
    (batch,) = data.plan(make_schedule(n, n, seed=3))
    assert chunked == [] and fresh == []
    if dense:
        assert batch.signed is data.block
    else:
        assert all(a is s for a, s in
                   zip(batch.signed, (data.row_ids, data.indices, data.signed)))


def test_run_is_deterministic():
    spec = toy_spec(n=30, d=5)
    cfg = RunConfig(solver="saag4", objective=spec, epochs=4, batch_size=5, seed=3)
    w1, t1 = run(cfg)
    w2, t2 = run(cfg)
    assert np.array_equal(w1, w2)
    for p1, p2 in zip(t1.points, t2.points):
        assert (p1.epoch, p1.grads_over_n, p1.fevals, p1.objective) == \
            (p2.epoch, p2.grads_over_n, p2.fevals, p2.objective)


def test_sgd_uses_inverse_sqrt_schedule():
    spec = toy_spec(n=8, d=3)
    cfg = RunConfig(solver="sgd", objective=spec, epochs=2, batch_size=4, seed=5,
                    sbas=SBASParams(eta0=0.5))
    w_run, _ = run(cfg)
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
    _, trace = run(cfg)
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
    _, trace = run(cfg)
    assert trace.failure.startswith(f"{kind}: non-finite direction")
    assert 2 <= len(trace.points) < 201
    assert [p.epoch for p in trace.points] == list(range(len(trace.points)))


@pytest.mark.parametrize("kind", SBAS_SOLVERS)
def test_sentinel_streak_leaves_w_unchanged(kind):
    # with lambda2 > 0 every trial of eta0 = 1e6 shrunk 3 times raises the
    # batch objective, so each search spends max_backtracks + 1 evaluations
    # and returns the 0.0 sentinel
    spec = toy_spec(n=16, d=5, lam2=1e-2)
    w0 = np.array([0.5, -0.25, 1.0, 0.125, -2.0])   # dyadic: sums stay exact
    params = SBASParams(eta0=1e6, max_backtracks=3)
    cfg = RunConfig(solver=kind, objective=spec, epochs=1, batch_size=4,
                    sbas=params, seed=0)
    state = init_state(cfg)
    state.w = w0.copy()
    schedule = make_schedule(16, cfg.batch_size, 0)
    run_epoch(kind, state, spec, schedule, params)
    assert np.array_equal(state.w, w0)
    if kind in ("saag3", "saag4", "vrsgd"):     # the readers of the average
        # a 0.0 step still counts in the average
        assert np.array_equal(state.average, w0)
    assert state.epoch == 1
    assert state.inner == schedule.m
    assert state.fevals == (params.max_backtracks + 1) * schedule.m
    assert state.grads == EXPECTED_GRADS_PER_EPOCH[kind] * 16


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
    w_fast, fast = run(cfg)
    monkeypatch.setattr(
        solvers_mod, "batch_ray",
        lambda spec_, w, rows, d, z, dd:
            lambda etas: (batch_smooth_value(spec_, w - eta * d, rows) for eta in etas))
    w_plain, plain = run(cfg)
    assert [p.fevals for p in fast.points] == [p.fevals for p in plain.points]
    assert [p.objective for p in fast.points] == [p.objective for p in plain.points]
    assert np.array_equal(w_fast, w_plain)
    steps = 4 * (1 if kind == "gd" else 10)
    assert fast.points[-1].fevals > 2 * steps     # the searches backtracked


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
        w_stored, stored = run(cfg, test=test)
    assert chunks == [bound, bound, 2 * bound // 3] * 4

    def snap_slopes(spec_, snap, batch):
        return slope_t(spec_.loss, margins(spec_.data, snap.point, batch))

    def saag2_afresh(spec_, w, batch, snap, z=None):
        n, k, lam2 = spec_.data.n, len(batch), spec_.lambda2
        c = (slope_t(spec_.loss, margins(spec_.data, w, batch)) / k
             - snap_slopes(spec_, snap, batch) / n)
        return (scatter(spec_.data, c, batch)
                + lam2 * w - (k / n) * lam2 * snap.point + snap.grad)

    def svrg_afresh(spec_, w, batch, snap, z=None):
        c = ((slope_t(spec_.loss, margins(spec_.data, w, batch))
              - snap_slopes(spec_, snap, batch)) / len(batch))
        return (scatter(spec_.data, c, batch)
                + spec_.lambda2 * (w - snap.point) + snap.grad)

    monkeypatch.setattr(estimators_mod, "saag2_direction", saag2_afresh)
    monkeypatch.setattr(estimators_mod, "svrg_direction", svrg_afresh)
    monkeypatch.setattr(solvers_mod, "take_snapshot", lambda spec_, w: (
        estimators_mod.SnapState(w.copy(), batch_grad(spec_, w), None, None)))
    w_afresh, afresh = run(cfg, test=test)
    assert np.array_equal(w_stored, w_afresh)
    assert [(p.objective, p.grads_over_n, p.fevals, p.test_accuracy)
            for p in stored.points] == \
        [(p.objective, p.grads_over_n, p.fevals, p.test_accuracy)
         for p in afresh.points]


def run_bits(kind, data, b, lam1, fixed_eta, loss="logistic"):
    """A fresh spec's run of ``kind``: the spec, and the bytes of its final
    w and of every trace point's (objective, grads/n, fevals)."""
    spec = ObjectiveSpec(loss, data, lambda2=1e-3, lambda1=lam1)
    w, trace = run(RunConfig(solver=kind, objective=spec, epochs=3, batch_size=b,
                             seed=3, fixed_eta=fixed_eta))
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
                m.setattr(solvers_mod, "operand", float)
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
    _, trace = run(RunConfig(solver="sgd", objective=spec, epochs=1, batch_size=1))
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
    monkeypatch.setattr(solvers_mod, "bind", lambda *args: lambda *step: huge)
    cfg = RunConfig(solver=kind, objective=spec, epochs=2, batch_size=4,
                    fixed_eta=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, trace = run(cfg)
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
        monkeypatch.setattr(solvers_mod, "bind", lambda *args, d=d: lambda *step: d)
        cfg = RunConfig(solver="svrg", objective=spec, epochs=1, batch_size=4,
                        fixed_eta=fixed_eta)
        state = init_state(cfg)
        state.snap = estimators_mod.take_snapshot(spec, state.w)
        direct = solvers_mod.bind("unbiased", spec, None, state.snap)
        with pytest.raises(NonFiniteDirection) as err:
            solvers_mod.inner_step("svrg", direct, state, spec,
                                   np.array([0, 1, 2, 3]), cfg.sbas, fixed_eta)
        assert str(err.value) == "svrg: non-finite direction at epoch 0, inner step 0"
        assert state.inner == 0
        _, trace = run(cfg)
        assert trace.failure == "svrg: non-finite direction at epoch 0, inner step 0"


def test_inner_step_eta_zero_leaves_w_unchanged():
    spec = toy_spec(n=8, d=3)
    cfg = RunConfig(solver="gd", objective=spec, epochs=1, batch_size=8, seed=0)
    state = init_state(cfg)
    w0 = state.w.copy()
    # alpha ~ 1 with a single backtrack forces the 0.0 sentinel on an
    # ascent-shaped direction; counters still advance
    params = SBASParams(alpha=0.999999, shrink=0.5, eta0=1e6, max_backtracks=1)
    solvers_mod.inner_step("gd", bind("batch", spec), state, spec, np.arange(8),
                           params)
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


def test_reference_optimum_one_point_least_squares():
    # single point x = 1, y = 1, no regularization: w* = 1, F* = 0
    from saag.data import Dataset
    ds = Dataset([0, 1], [0], [1.0], [1.0], d=1)
    spec = ObjectiveSpec("least_squares", ds)
    ref = reference_optimum(spec, budget=50)
    assert abs(ref.w[0] - 1.0) <= 1e-8
    assert abs(ref.value) <= 1e-12
    assert ref.converged


def test_reference_optimum_symmetric_logistic():
    # +x and -x with matching labels force w* = 0, F* = ln 2
    from saag.data import Dataset
    ds = Dataset([0, 2, 4], [0, 1, 0, 1], [1.0, 2.0, -1.0, -2.0], [1.0, 1.0], d=2)
    spec = ObjectiveSpec("logistic", ds, lambda2=1e-3)
    ref = reference_optimum(spec, budget=50)
    assert np.linalg.norm(ref.w) <= 1e-6
    assert abs(ref.value - math.log(2.0)) <= 1e-10


def test_reference_optimum_matches_grid_search_elastic_net():
    spec = toy_spec(n=12, d=2, lam2=5e-2, lam1=2e-2, seed=4)
    ref = reference_optimum(spec, budget=300)
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


def test_reference_flags_nonconvergence():
    # separable logistic with no regularization has no finite minimizer; the
    # objective keeps creeping down and the convergence window never closes
    spec = toy_spec(n=12, d=3, lam2=0.0, seed=7)
    ref = reference_optimum(spec, budget=5)
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
    ref = reference_optimum(spec, budget=500)
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
        sparse = reference_optimum(ObjectiveSpec("logistic", ds, 1e-3, 1e-3), budget=300)
    assert ds.block is None
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0)
    ds = sparse_logistic_set()
    dense = reference_optimum(ObjectiveSpec("logistic", ds, 1e-3, 1e-3), budget=300)
    assert ds.block is not None
    assert sparse.converged and dense.converged
    assert abs(sparse.value - dense.value) <= 1e-10 * dense.value
    np.testing.assert_allclose(sparse.w, dense.w, atol=1e-6)


def test_reference_decaying_step_matches_the_global_step(monkeypatch):
    # after each accepted step L first tries DECAY * L; the certificate holds
    # at any L, so the optimum is the one the global step reaches, sooner
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), lambda2=1e-5, lambda1=1e-3)
    local = reference_optimum(spec)
    monkeypatch.setattr(solvers_mod, "DECAY", 1.0)
    fixed = reference_optimum(spec)
    assert local.converged and fixed.converged
    assert abs(local.value - fixed.value) <= 1e-12 * fixed.value
    assert local.iterations < fixed.iterations


def test_reference_l1_certificate_bounds_the_gap(monkeypatch):
    # with lambda1 > 0 the loop stops on a subgradient of F at p; a lambda2
    # this large lets it fire well before the rounding exit
    spec = ObjectiveSpec("logistic", sparse_logistic_set(), lambda2=1e-2, lambda1=1e-3)
    certified = reference_optimum(spec)
    monkeypatch.setattr(solvers_mod, "GAP", 0.0)
    rounded = reference_optimum(spec)
    assert certified.converged and rounded.converged
    assert certified.iterations < rounded.iterations
    assert abs(certified.value - rounded.value) <= 5e-14 * rounded.value


def test_reference_decay_stays_within_reach_of_the_doublings(monkeypatch):
    # with lambda2 = 0 on separable data the curvature vanishes and L decays
    # to its floor, 2^-(MAX_DOUBLINGS // 2) of the first L, so the doublings
    # still reach the global bound and end the search only by rounding
    spec = toy_spec(n=12, d=3, lam2=0.0, seed=7)
    steps = []
    prox = solvers_mod.prox
    monkeypatch.setattr(solvers_mod, "prox",
                        lambda z, step, lam1: steps.append(step) or prox(z, step, lam1))
    ref = reference_optimum(spec, budget=5)
    first = 0.25 * solvers_mod._top_eigenvalue(spec.data) / spec.data.n
    assert not ref.converged
    assert max(steps) * first == pytest.approx(2.0 ** (solvers_mod.MAX_DOUBLINGS // 2),
                                               rel=1e-12)


def test_reference_optimum_above_dense_limit_uses_csr(monkeypatch):
    # a dense training set whose copy would not fit takes the CSR passes
    # instead of failing in Dataset.dense
    spec = toy_spec(n=40, d=6, lam2=1e-3, lam1=1e-3, seed=2)
    dense = reference_optimum(spec, budget=200)
    assert spec.data.block is not None
    monkeypatch.setattr(Dataset, "DENSE_LIMIT", spec.data.n * spec.data.d - 1)
    spec = toy_spec(n=40, d=6, lam2=1e-3, lam1=1e-3, seed=2)
    with pytest.raises(ValueError, match="too large to densify"):
        spec.data.dense()
    sparse = reference_optimum(spec, budget=200)
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


def test_reference_at_lambda2_zero_ignores_best():
    # no certificate without strong convexity: best leaves the run as it is
    spec = toy_spec(n=12, d=3, lam2=0.0, seed=7)
    default = reference_optimum(spec, budget=5)
    assert not default.converged and math.isnan(default.bound)
    above = objective_value(spec, np.zeros(3))
    assert same_reference(reference_optimum(spec, budget=5, best=above), default)


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
    monkeypatch.setattr(solvers_mod, "_iteration_cap", lambda budget: budget)
    # the default call capped where the early one stopped: the same point
    capped = reference_optimum(spec, budget=early.iterations)
    assert not capped.converged and math.isnan(capped.bound)
    assert (capped.w.tobytes(), capped.value) == (early.w.tobytes(), early.value)


def test_reference_optimum_budget_validation():
    spec = toy_spec(n=8, d=3)
    with pytest.raises(ValueError):
        reference_optimum(spec, budget=0)


def test_convergence_on_smooth_toy():
    spec = ObjectiveSpec("logistic", make_synthetic(200, 10, seed=0, margin=4.0), 1e-2)
    ref = reference_optimum(spec, budget=500)
    init = objective_value(spec, np.zeros(10)) - ref.value
    _, trace = run(RunConfig(solver="saag4", objective=spec, epochs=30,
                             batch_size=8, seed=0))
    best = min(p.objective for p in trace.points) - ref.value
    assert best <= 1e-3 * init


def test_reference_backtracks_from_a_low_curvature_estimate(monkeypatch):
    # least squares has curvature exactly lambda_max(X^T X) / n, so a 10x
    # low power-iteration result makes the first steps too long; the search
    # on L must double it back, keeping every accepted iterate's F falling
    spec = toy_spec(n=60, d=8, lam2=1e-3, seed=1, loss="least_squares")
    exact = reference_optimum(spec)
    top = solvers_mod._top_eigenvalue
    monkeypatch.setattr(solvers_mod, "_top_eigenvalue",
                        lambda *args: top(*args) / 10.0)
    forced = reference_optimum(spec)
    assert exact.converged and forced.converged
    assert abs(forced.value - exact.value) <= 1e-12 * exact.value
    # a cap of k iterations returns the k-th iterate of the same loop
    monkeypatch.setattr(solvers_mod, "_iteration_cap", lambda budget: budget)
    values = [reference_optimum(spec, budget=k).value for k in range(1, 41)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


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
    # the lambda = 1e-7 point of a default lambda sweep on n=30,d=3: the
    # extrapolated margins drift from X v and the bound test fails by
    # rounding alone, so the search on L must be bounded
    train, _ = split_train_test(make_synthetic(30, 3), 0.8, seed=0)
    spec = ObjectiveSpec("logistic", train, lambda2=1e-7)
    ref = reference_optimum(spec)
    assert ref.converged
    assert ref.iterations < solvers_mod._iteration_cap(500)
    assert ref.value <= objective_value(spec, np.zeros(3))


def test_reference_optimum_empty_rows_and_zero_columns(monkeypatch):
    # rows (1, -1, 0, 0), empty and (-2, 2, 0, 0): X times the power
    # iteration's start vector of ones is 0, columns 2 and 3 are empty, and
    # the optimum is (a, -a, 0, 0) with a from a scalar Newton solve
    from saag.data import Dataset
    ds = Dataset([0, 2, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -2.0, 2.0],
                 [1.0, -1.0, 1.0], d=4)
    lam2 = 1e-3
    spec = ObjectiveSpec("logistic", ds, lambda2=lam2)
    tops = []
    top = solvers_mod._top_eigenvalue
    monkeypatch.setattr(solvers_mod, "_top_eigenvalue",
                        lambda *args: tops.append(top(*args)) or tops[-1])
    ref = reference_optimum(spec)
    assert tops == [0.0]

    def sig(t):
        return 0.5 * (1.0 + math.tanh(0.5 * t))

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
