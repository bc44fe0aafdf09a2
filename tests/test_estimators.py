import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saag.data import Dataset, make_schedule, make_synthetic
from saag.estimators import (bind, make_table, saag1_direction,
                             saag2_direction, svrg_direction, take_snapshot)
from saag.objective import (LOSSES, ObjectiveSpec, batch_grad,
                            margins, scatter, slope_t)
from saag.verify import estimator_mean_bruteforce


def spec_for(n, d, seed=0, lam2=1e-2, loss="logistic"):
    return ObjectiveSpec(loss, make_synthetic(n, d, seed=seed), lambda2=lam2)


def dense_component(spec, w, i):
    # logistic loss term i: gradient -y sigma(-y x.w) x
    assert spec.loss == "logistic"
    x, y = spec.data.dense()[i], spec.data.labels[i]
    return -y / (1.0 + np.exp(y * (x @ w))) * x


def test_saag1_first_call_uses_only_the_batch():
    spec = spec_for(8, 3)
    table = make_table(spec)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(3)
    batch = np.array([1, 4])
    d = saag1_direction(table, spec, w, batch, margins(spec.data, w, batch))
    assert np.allclose(d, batch_grad(spec, w, batch), atol=1e-15)
    assert list(np.flatnonzero(table.slopes)) == [1, 4]


def test_saag1_full_batch_is_full_gradient():
    spec = spec_for(8, 3)
    table = make_table(spec)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(3)
    d = saag1_direction(table, spec, w, np.arange(8), margins(spec.data, w))
    assert np.array_equal(d, batch_grad(spec, w))
    assert np.all(table.slopes != 0.0)


def test_saag1_matches_direct_recomputation():
    # after one full epoch at frozen w, the direction equals the fresh batch
    # mean plus the stale out-of-batch sum at weight 1/n, plus the l2 term
    spec = spec_for(8, 3, lam2=5e-2)
    table = make_table(spec)
    rng = np.random.default_rng(2)
    w_hist = [rng.standard_normal(3) for _ in range(4)]
    sched = make_schedule(8, 2, seed=3)
    stored = {}
    for w, batch in zip(w_hist, sched.batches):
        saag1_direction(table, spec, w, batch, margins(spec.data, w, batch))
        for i in batch:
            stored[i] = dense_component(spec, w, i)
    w = rng.standard_normal(3)
    for batch in make_schedule(8, 2, seed=4).batches:
        got = saag1_direction(table, spec, w, batch, margins(spec.data, w, batch))
        for i in batch:
            stored[i] = dense_component(spec, w, i)
        fresh = sum(stored[i] for i in batch)
        stale = sum(stored[i] for i in range(8) if i not in set(batch.tolist()))
        expected = fresh / len(batch) + stale / 8 + spec.lambda2 * w
        assert np.linalg.norm(got - expected) <= 1e-13
        # out-of-batch part equals ((n-b)/n) * mean of stored gradients
        mean_stale = stale / (8 - len(batch))
        assert np.allclose(stale / 8, (8 - len(batch)) / 8 * mean_stale)


def test_table_aggregate_consistency():
    spec = spec_for(12, 4, lam2=1e-3)
    table = make_table(spec)
    rng = np.random.default_rng(5)
    for epoch in range(6):
        sched = make_schedule(12, 3, seed=9, epoch=epoch)
        for batch in sched.batches:
            w = rng.standard_normal(4)
            saag1_direction(table, spec, w, batch, margins(spec.data, w, batch))
    rebuilt = scatter(spec.data, table.slopes)
    rel = np.linalg.norm(table.aggregate - rebuilt) / max(np.linalg.norm(rebuilt), 1e-300)
    assert rel <= 1e-12


def test_saag2_full_batch_collapses():
    spec = spec_for(6, 3)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(3)
    snap = take_snapshot(spec, rng.standard_normal(3))
    d = saag2_direction(spec, w, np.arange(6), snap, margins(spec.data, w))
    assert np.linalg.norm(d - batch_grad(spec, w)) <= 1e-14


def test_saag2_at_snap_point_closed_form():
    # with w = w~ on equal batches the direction is
    # (1 - 1/m) grad f_B(w~) + grad f(w~)
    spec = spec_for(6, 3, lam2=2e-2)
    rng = np.random.default_rng(7)
    wt = rng.standard_normal(3)
    snap = take_snapshot(spec, wt)
    sched = make_schedule(6, 2, seed=0)
    for batch in sched.batches:
        d = saag2_direction(spec, wt, batch, snap, margins(spec.data, wt, batch))
        expect = (1 - 1 / sched.m) * batch_grad(spec, wt, batch) + snap.grad
        assert np.linalg.norm(d - expect) <= 1e-14


@pytest.mark.parametrize("n,b", [(4, 1), (4, 2), (4, 4),
                                 (6, 1), (6, 2), (6, 6),
                                 (8, 1), (8, 2), (8, 8)])
def test_bias_identity_over_grid(n, b):
    spec = spec_for(n, 3, seed=n + b, lam2=1e-2)
    sched = make_schedule(n, b, seed=0)
    rng = np.random.default_rng(100 + n + b)
    for _ in range(5):
        w = rng.standard_normal(3)
        snap = take_snapshot(spec, rng.standard_normal(3))
        mean = estimator_mean_bruteforce("biased", spec, w, snap, sched)
        expected = (batch_grad(spec, w)
                    + (sched.m - 1) / sched.m * batch_grad(spec, snap.point))
        assert np.linalg.norm(mean - expected) <= 1e-10


@pytest.mark.parametrize("n,b", [(4, 1), (4, 2), (6, 2), (8, 2)])
def test_svrg_unbiased_over_grid(n, b):
    spec = spec_for(n, 3, seed=n * b, lam2=1e-2)
    sched = make_schedule(n, b, seed=1)
    rng = np.random.default_rng(n * 10 + b)
    for _ in range(5):
        w = rng.standard_normal(3)
        snap = take_snapshot(spec, rng.standard_normal(3))
        mean = estimator_mean_bruteforce("unbiased", spec, w, snap, sched)
        assert np.linalg.norm(mean - batch_grad(spec, w)) <= 1e-10


def test_svrg_at_snap_returns_snap_gradient_exactly():
    spec = spec_for(6, 3)
    rng = np.random.default_rng(8)
    wt = rng.standard_normal(3)
    snap = take_snapshot(spec, wt)
    batch = np.array([0, 3])
    d = svrg_direction(spec, wt, batch, snap, margins(spec.data, wt, batch))
    assert np.array_equal(d, snap.grad)


def test_sgd_direction_cases():
    spec = spec_for(6, 3, lam2=3e-2)
    rng = np.random.default_rng(9)
    w = rng.standard_normal(3)
    sgd = bind("batch", spec)
    assert np.array_equal(sgd(w, np.arange(6), None), batch_grad(spec, w))
    single = sgd(w, np.array([4]), None)
    assert np.allclose(single, dense_component(spec, w, 4) + spec.lambda2 * w,
                       atol=1e-15)
    sched = make_schedule(6, 2, seed=2)
    mean = estimator_mean_bruteforce("batch", spec, w, None, sched)
    assert np.linalg.norm(mean - batch_grad(spec, w)) <= 1e-12


def test_degenerate_equivalence_all_estimators():
    spec = spec_for(10, 4, lam2=1e-2)
    rng = np.random.default_rng(10)
    w = rng.standard_normal(4)
    snap = take_snapshot(spec, w.copy())
    batch = np.arange(10)
    fg = batch_grad(spec, w)
    table = make_table(spec)
    z = margins(spec.data, w, batch)
    for d in (saag1_direction(table, spec, w, batch, z),
              saag2_direction(spec, w, batch, snap, z),
              svrg_direction(spec, w, batch, snap, z),
              bind("batch", spec)(w, batch, None)):
        assert np.linalg.norm(d - fg) <= 1e-12


def test_bruteforce_mean_resets_table_state():
    spec = spec_for(8, 3)
    table = make_table(spec)
    rng = np.random.default_rng(11)
    w, batch = rng.standard_normal(3), np.array([0, 1])
    saag1_direction(table, spec, w, batch, margins(spec.data, w, batch))
    before = copy.deepcopy(table)
    sched = make_schedule(8, 2, seed=5)
    m1 = estimator_mean_bruteforce("table", spec, rng.standard_normal(3), table, sched)
    assert np.array_equal(table.slopes, before.slopes)
    assert np.array_equal(table.aggregate, before.aggregate)


def test_bruteforce_rejects_large_n():
    spec = spec_for(80, 3)
    sched = make_schedule(80, 8, seed=0)
    with pytest.raises(ValueError, match="enumerate"):
        estimator_mean_bruteforce("batch", spec, np.zeros(3), None, sched)
    with pytest.raises(ValueError, match="unknown"):
        small = spec_for(6, 3)
        estimator_mean_bruteforce("nope", small, np.zeros(3), None,
                                  make_schedule(6, 2, seed=0))


def sparse_spec(n, d, seed, fill=0.2):
    # CSR rows of a random matrix with about ``fill`` of its entries stored
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * (rng.random((n, d)) < fill)
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    data = Dataset(indptr, cols, x[rows, cols], labels, d)
    return ObjectiveSpec("logistic", data, lambda2=1e-2)


@pytest.mark.parametrize("layout", ["dense", "sparse"])
def test_snapshot_slopes_restricted_to_a_batch_are_the_batch_slopes(layout, monkeypatch):
    # the snap term reads c~[B] from the snapshot's full pass; it must be
    # bit-equal to the slopes of a batch pass at w~. On the dense block
    # that needs one dot per row: X @ w restricted to B differs from
    # X[B] @ w in the last bit at some d
    n = 64
    if layout == "dense":
        specs = [spec_for(n, d, seed=d) for d in (1, 5, 6, 7, 30, 50)]
    else:
        monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 2.0)
        specs = [sparse_spec(n, 30, seed=3)]
    rng = np.random.default_rng(12)
    for spec in specs:
        snap = take_snapshot(spec, rng.standard_normal(spec.data.d))
        assert (spec.data.block is not None) == (layout == "dense")
        assert np.array_equal(snap.grad, batch_grad(spec, snap.point))
        for b in (1, 7, 32, n):
            for epoch in range(3):
                for batch in make_schedule(n, b, seed=4, epoch=epoch).batches:
                    fresh = slope_t(spec.loss, margins(spec.data, snap.point, batch))
                    assert np.array_equal(snap.slopes[batch], fresh)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([9, 17, 30]), st.integers(1, 6),
       st.sampled_from([0.3, 1.0, 0.0]), st.integers(0, 5),
       st.sampled_from(LOSSES), st.sampled_from([1.0, 1e2, 2e3]))
@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
def test_folded_snap_directions_are_the_two_scatter_formula(dense, n, d, fill, seed,
                                                            kind, scale):
    # the snap directions scatter one slope vector over B: c/k - c~_B/n
    # (saag2) or (c - c~_B)/k (svrg). They must equal the separate scatters
    # of c and c~_B to 1e-12 of the summed terms' magnitude, at b in
    # {1, 16, n - 1 (a short tail), n}, with empty rows, several chunk
    # bounds and margins up to |t| ~ 1e4
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
        data = sparse_spec(n, d, seed, fill).data
        assert (data.block is not None) == dense
    spec = ObjectiveSpec(kind, data, lambda2=1e-2)
    lam2 = spec.lambda2
    rng = np.random.default_rng(seed)
    # the logistic slope's exp(-t) overflows at t < -709.78, for its exact 0
    with np.errstate(over="ignore"):
        snap = take_snapshot(spec, scale * rng.uniform(-1.0, 1.0, d))
        w = scale * rng.uniform(-1.0, 1.0, d)
        x = np.abs(data.dense())
        rest = lam2 * (np.abs(w) + np.abs(snap.point)) + np.abs(snap.grad)
        for b in (1, min(16, n), n - 1, n):
            schedule = make_schedule(n, b, seed)
            want = []
            for batch in schedule.batches:
                k = len(batch)
                c, old_c = slope_t(kind, margins(data, w, batch)), snap.slopes[batch]
                cur, old = scatter(data, c, batch), scatter(data, old_c, batch)
                want.append((
                    cur / k - old / n + lam2 * w - (k / n) * lam2 * snap.point + snap.grad,
                    (cur - old) / k + lam2 * (w - snap.point) + snap.grad,
                    (np.abs(c) + np.abs(old_c)) @ x[batch] / k + rest))
            for bound in (Dataset.PLAN_BYTES, 3 * 24 * d * b + 7, 24 * d * b, 8 * d):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(Dataset, "PLAN_BYTES", bound)
                    for batch, (saag2, svrg, size) in zip(data.plan(schedule), want,
                                                            strict=True):
                        z = margins(data, w, batch)
                        assert np.all(np.abs(saag2_direction(spec, w, batch, snap, z) - saag2)
                                      <= 1e-12 * size)
                        assert np.all(np.abs(svrg_direction(spec, w, batch, snap, z) - svrg)
                                      <= 1e-12 * size)


def test_direction_rejects_an_unknown_kind():
    spec = spec_for(6, 3)
    with pytest.raises(ValueError, match="unknown estimator family 'nope'"):
        bind("nope", spec)(np.zeros(3), np.array([0, 1]), None)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from([9, 17, 30]), st.integers(1, 6),
       st.sampled_from([0.3, 1.0, 0.0]), st.integers(0, 5),
       st.sampled_from(LOSSES), st.sampled_from([1.0, 1e2]))
@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
def test_snap_directions_read_the_scaled_slopes_bit_for_bit(dense, n, d, fill, seed,
                                                           kind, scale):
    # SAAG-II/IV read c~_B/n from the snapshot's c~/n; the direction must be
    # scatter(c/k - c~_B/n) plus the l2 and mu~ terms to the bit, planned or
    # not, at b in {1, 16, n - 1 (a short tail), n}, with empty rows
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
        data = sparse_spec(n, d, seed, fill).data
        assert (data.block is not None) == dense
    spec = ObjectiveSpec(kind, data, lambda2=1e-2)
    lam2 = spec.lambda2
    rng = np.random.default_rng(seed)
    snap = take_snapshot(spec, scale * rng.uniform(-1.0, 1.0, d))
    assert np.array_equal(snap.scaled, snap.slopes / n)
    w = scale * rng.uniform(-1.0, 1.0, d)
    for b in (1, min(16, n), n - 1, n):
        schedule = make_schedule(n, b, seed)
        for batch in data.plan(schedule):
            k = len(batch)
            c = slope_t(kind, margins(data, w, batch)) / k - snap.slopes[batch] / n
            want = (scatter(data, c, batch)
                    + lam2 * w - (k / n) * lam2 * snap.point + snap.grad)
            z = margins(data, w, batch)
            assert np.array_equal(saag2_direction(spec, w, batch, snap, z), want)
            assert np.array_equal(bind("biased", spec, None, snap)(w, batch, z), want)
