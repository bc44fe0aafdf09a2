"""Property tests of the loss kernel, on both data layouts, against plain
dense numpy over the unsigned rows and the labels."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saag.data import Dataset, make_schedule
from saag.line_search import SBASParams, backtrack
from saag.objective import (LOSSES, ObjectiveSpec, accuracy,
                            batch_grad, batch_ray, batch_smooth_value, loss_t,
                            margins, objective_value, scatter, slope_t)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def dense_loss(kind, t):
    """Loss at agreement t = y * z, by formulas independent of the kernel."""
    if kind == "logistic":
        return np.maximum(0.0, -t) + np.log1p(np.exp(-np.abs(t)))
    if kind == "squared_hinge":
        return np.where(t < 1.0, (1.0 - t) ** 2, 0.0)
    return 0.5 * (t - 1.0) ** 2     # (z - y)^2 / 2 with y = +-1


def dense_slope(kind, z, y):
    """Slope c along x at margins z = x . w (the loss's gradient is c x), by
    formulas independent of the kernel."""
    if kind == "logistic":
        # -y sigma(-t) for t = y z, split on the sign of t
        t = y * z
        e = np.exp(-np.abs(t))
        return -y * np.where(t > 0.0, e, 1.0) / (1.0 + e)
    if kind == "squared_hinge":
        return np.where(y * z < 1.0, -2.0 * y * (1.0 - y * z), 0.0)
    return z - y


@st.composite
def problems(draw):
    """A dense matrix with empty rows and unused columns allowed, its
    dataset on a dense block or on CSR arrays, weights up to |margin| ~ 1e4,
    and a batch: one row, every row, None (every row) or an unsorted
    subset."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 6))
    keep = draw(arrays(bool, (n, d)))
    vals = draw(arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0)))
    x = np.where(keep, vals, 0.0)
    y = draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    scale = draw(st.sampled_from([1.0, 1e3]))
    w = scale * draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0)))
    rows = draw(st.one_of(
        st.integers(0, n - 1).map(lambda i: np.array([i])),
        st.just(np.arange(n)),
        st.just(None),
        st.permutations(range(n)).flatmap(
            lambda p: st.integers(1, n).map(lambda k: np.array(p[:k])))))
    r, c = np.nonzero(x)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(x, axis=1))])
    data = Dataset(indptr, c, x[r, c], y, d)
    # the fill constant fixes the layout when the block is first asked for
    dense = draw(st.booleans())
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
        assert (data.block is not None) == dense
    return x, y, w, rows, data


def close(a, b, scale):
    return np.allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


def layout(data, dense):
    """``data`` with its passes fixed to the dense block or the CSR arrays."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
        assert (data.block is not None) == dense
    return data


@st.composite
def matrices(draw, sizes):
    """A random matrix with ``sizes`` rows, empty rows and unused columns
    allowed, and labels."""
    n = draw(st.sampled_from(sizes))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    fill = draw(st.sampled_from([0.5, 1.0, 0.1]))
    x = np.where(rng.random((n, d)) < fill, rng.uniform(-3.0, 3.0, (n, d)), 0.0)
    return x, np.where(rng.random(n) < 0.5, -1.0, 1.0), rng


def dataset(x, y):
    r, c = np.nonzero(x)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(x, axis=1))])
    return Dataset(indptr, c, x[r, c], y, x.shape[1])


@SETTINGS
@given(problems())
def test_csr_primitives_match_dense(problem):
    x, y, w, rows, data = problem
    xb = x if rows is None else x[rows]
    assert np.array_equal(data.dense(), x)
    assert np.array_equal(data.subset(np.arange(data.n)).dense(), x)
    if rows is not None:
        assert np.array_equal(data.subset(rows).dense(), xb)
    yb = y if rows is None else y[rows]
    # the primitives read the rows signed by their labels, -y_i x_i
    t = margins(data, w, data.gather(rows))
    assert t.shape == (xb.shape[0],)
    assert close(t, -yb * (xb @ w), np.abs(xb) @ np.abs(w) + 1.0)
    c = np.linspace(-2.0, 2.0, xb.shape[0])
    assert close(scatter(data, c, data.gather(rows)), xb.T @ (-yb * c),
                 np.abs(xb.T) @ np.abs(c) + 1.0)
    # the stored values stay unsigned, as dense() does above
    assert np.array_equal(data.values, x[np.nonzero(x)])


@SETTINGS
@given(problems(), st.sampled_from(LOSSES))
def test_loss_and_slope_match_dense(problem, kind):
    x, y, w, rows, data = problem
    yb = y if rows is None else y[rows]
    z = (x if rows is None else x[rows]) @ w
    got_loss = loss_t(kind, -yb * z)
    with np.errstate(over="ignore"):    # the logistic slope's exp(-t) at t < -709.78
        got_slope = slope_t(kind, -yb * z)
    assert np.all(np.isfinite(got_loss)) and np.all(np.isfinite(got_slope))
    assert np.allclose(got_loss, dense_loss(kind, yb * z), rtol=1e-12, atol=1e-300)
    # the gradient is c (-y x), so c times -y is the slope along x
    assert np.allclose(-yb * got_slope, dense_slope(kind, z, yb),
                       rtol=1e-12, atol=1e-300)


@SETTINGS
@given(problems(), st.sampled_from(LOSSES))
def test_batch_value_and_gradient_match_dense(problem, kind):
    x, y, w, rows, data = problem
    lam2 = 1e-2
    spec = ObjectiveSpec(kind, data, lambda2=lam2, lambda1=0.5)
    xb, yb = (x, y) if rows is None else (x[rows], y[rows])
    z = xb @ w
    value = np.mean(dense_loss(kind, yb * z)) + 0.5 * lam2 * (w @ w)
    grad = xb.T @ dense_slope(kind, z, yb) / len(yb) + lam2 * w
    # margins carry rounding ~1e-16 |x||w|, which the loss scales by |slope|
    slack = (np.abs(dense_slope(kind, z, yb)) + 1.0) @ (np.abs(xb) @ np.abs(w) + 1.0)
    assert abs(batch_smooth_value(spec, w, rows) - value) <= 1e-12 * (abs(value) + slack)
    with np.errstate(over="ignore"):    # the logistic slope's exp(-t) at t < -709.78
        assert np.allclose(batch_grad(spec, w, rows), grad, rtol=1e-9,
                           atol=1e-12 * (np.abs(grad).max() + slack))
    full = np.mean(dense_loss(kind, y * (x @ w))) + 0.5 * lam2 * (w @ w)
    assert np.isclose(objective_value(spec, w), full + 0.5 * np.abs(w).sum(),
                      rtol=1e-12, atol=1e-12 * (full + 1.0))


@SETTINGS
@given(problems(), st.sampled_from(LOSSES),
       st.sampled_from([1.0, 0.5 ** 7, 0.5 ** 29, 3.0]), st.data())
def test_batch_ray_matches_batch_value(problem, kind, eta, draw):
    x, y, w, rows, data = problem
    scale = draw.draw(st.sampled_from([1.0, 1e3]))
    d = scale * draw.draw(arrays(np.float64, data.d, elements=st.floats(-1.0, 1.0)))
    lam2 = 1e-2
    spec = ObjectiveSpec(kind, data, lambda2=lam2)
    phi = ray(spec, w, rows, d, margins(data, w, data.gather(rows)), float(d @ d))
    base, value = phi(np.array([0.0, eta]))
    # the search's reference value at eta = 0 is the same float
    assert base == batch_smooth_value(spec, w, rows)
    v = w - eta * d
    want = batch_smooth_value(spec, v, rows)
    # the two sides round the margins and the l2 term differently, by about
    # 1e-16 of |x|(|w| + eta |d|) and of |w|^2 + 2 eta |w.d| + eta^2 |d|^2
    xb, yb = (x, y) if rows is None else (x[rows], y[rows])
    reach = np.abs(xb) @ (np.abs(w) + eta * np.abs(d)) + 1.0
    slack = ((np.abs(dense_slope(kind, xb @ v, yb)) + 1.0) @ reach
             + lam2 * (w @ w + 2.0 * eta * abs(w @ d) + eta * eta * (d @ d)))
    assert abs(value - want) <= 1e-12 * (abs(want) + slack)


def margin_loss(kind, z, y):
    """The losses written over unsigned margins z: the signed-margin kernel
    and the search must match them bit for bit."""
    if kind == "logistic":
        return np.maximum(-y * z, np.log1p(np.exp(np.minimum(-y * z, 36.0))))
    if kind == "squared_hinge":
        return np.maximum(0.0, 1.0 - y * z) ** 2
    return 0.5 * (z - y) ** 2


def margin_slope(kind, z, y):
    """The slopes along the unsigned rows, written over unsigned margins z:
    the gradient over the signed rows must match them bit for bit."""
    if kind == "logistic":
        return -y * (1.0 / (1.0 + np.exp(y * z)))
    if kind == "squared_hinge":
        return -2.0 * y * np.maximum(0.0, 1.0 - y * z)
    return z - y


def unsigned(data):
    """The dataset's rows in its layout, unsigned: with every label -1, the
    signed rows -y_i x_i are the rows x_i."""
    twin = Dataset(data.indptr, data.indices, data.values, -np.ones(data.n), data.d)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Dataset, "DENSE_PASS_FILL", 2.0 if data.block is None else 0.0)
        assert (twin.block is None) == (data.block is None)
    return twin


def ray(spec, w, rows, d, z, dd):
    """The trial values of one run (rows None: every row): ``batch_ray`` on
    a stack of one, as a function of the steps."""
    rows = np.arange(spec.data.n) if rows is None else rows
    x = spec.data.gather(rows)
    phi = batch_ray(spec, w[None], rows, d[None], z[None], margins(spec.data, d, x)[None],
                    [dd])
    return lambda etas: phi(etas, [0])[0]


@SETTINGS
@given(problems(), st.sampled_from(LOSSES),
       st.sampled_from([0.0, 1.0, 0.5 ** 7, 0.5 ** 29, 3.0]), st.data())
def test_batch_ray_trials_are_the_margin_formula_bit_for_bit(problem, kind, eta, draw):
    # signing each row once by y = +-1 must not move a margin, a trial or
    # a gradient by a bit
    x, y, w, rows, data = problem
    scale = draw.draw(st.sampled_from([1.0, 1e3]))
    d = scale * draw.draw(arrays(np.float64, data.d, elements=st.floats(-1.0, 1.0)))
    lam2 = 1e-2
    spec = ObjectiveSpec(kind, data, lambda2=lam2)
    yb = y if rows is None else y[rows]
    twin = unsigned(data)
    signed, rows_of_twin = data.gather(rows), twin.gather(rows)
    z, u = margins(twin, w, rows_of_twin), margins(twin, d, rows_of_twin)
    t = margins(data, w, signed)
    assert np.array_equal(t, -yb * z)
    assert np.array_equal(loss_t(kind, t), margin_loss(kind, z, yb))
    with np.errstate(over="ignore"):    # the logistic slope's exp(-t) at t < -709.78
        assert np.array_equal(scatter(data, slope_t(kind, t), signed),
                              scatter(twin, margin_slope(kind, z, yb), rows_of_twin))
    l2 = 0.5 * lam2 * (float(w @ w) - 2.0 * eta * float(w @ d)
                       + eta * eta * float(d @ d))
    want = float(margin_loss(kind, z - eta * u, yb).sum()) / z.size + l2
    # the inner step hands over the signed margins and d.d it already formed
    assert list(ray(spec, w, rows, d, t, float(d @ d))(np.array([eta]))) == [want]


def sequential_backtrack(params, phi, dd):
    """The search one trial at a time, phi(eta) a float: the ladder must
    take its decisions and report its counts."""
    base = phi(0.0)
    evals, eta, value = 1, params.eta0, None
    for _ in range(params.max_backtracks):
        value, tried = phi(eta), eta
        evals += 1
        if value <= base - params.alpha * dd * eta:
            return eta, evals
        eta *= params.shrink
    return (tried, evals) if value < base else (0.0, evals)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(matrices([1, 9, 33, 130, 300]), st.sampled_from([1, 2, 10]),
       st.sampled_from([1.0, 50.0]), st.sampled_from([1.0, 1e3]), st.data())
@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
@pytest.mark.parametrize("kind", LOSSES)
def test_trial_ladder_is_the_sequential_search_bit_for_bit(
        kind, dense, matrix, tries, eta0, scale, draw):
    # one block of trials must give each trial's float as the 1-d sum does
    # (pairwise past 8 terms, in blocks of 128), and the search the decision
    # and count of one trial at a time
    x, y, rng = matrix
    data = layout(dataset(x, y), dense)
    n, d = x.shape
    rows = draw.draw(st.sampled_from([None, np.arange(n), np.sort(rng.permutation(n)[:n // 2 + 1])]))
    w, v = scale * rng.uniform(-1.0, 1.0, d), rng.uniform(-3.0, 3.0, d)
    spec = ObjectiveSpec(kind, data, lambda2=1e-2)
    params = SBASParams(shrink=0.3, eta0=eta0, max_backtracks=tries)
    z, u = margins(data, w, data.gather(rows)), margins(data, v, data.gather(rows))
    ww, wv, vv = float(w @ w), float(w @ v), float(v @ v)

    def one(eta):
        return (float(np.add.reduce(loss_t(kind, z - eta * u))) / z.size
                + 0.005 * (ww - 2.0 * eta * wv + eta * eta * vv))

    steps = params.steps
    assert not steps.flags.writeable
    assert steps.size == tries + 1 and steps[0] == 0.0 and steps[1] == eta0
    for j in range(2, tries + 1):     # each trial is the one before times shrink
        assert steps[j] == steps[j - 1] * 0.3
    phi = ray(spec, w, rows, v, z, vv)
    want = [one(eta) for eta in steps.tolist()]
    assert list(phi(steps)) == want
    assert list(phi(steps[:2])) + list(phi(steps[2:])) == want
    # the blocks the values come from cannot change a search
    search = sequential_backtrack(params, one, vv)
    assert backtrack(params, phi(steps), vv) == search
    assert backtrack(params, chain(phi(steps[:2]), phi(steps[2:])), vv) == search


@SETTINGS
@given(problems())
def test_accuracy_matches_dense(problem):
    x, y, w, rows, data = problem
    z = x @ w
    # a margin that is not exactly 0 must be clear of it, or rounding may
    # flip the predicted sign
    scale = np.abs(x) @ np.abs(w)
    assume(np.all((scale == 0.0) | (np.abs(z) > 1e-9 * scale)))
    assert accuracy(w, data) == np.mean(np.where(z >= 0.0, 1.0, -1.0) == y)


def test_empty_row_and_unused_column():
    # row 1 is empty and column 2 is never used
    data = Dataset([0, 2, 2, 3], [0, 1, 1], [1.0, -2.0, 3.0], [1.0, -1.0, 1.0], d=3)
    w = np.array([1.0, 2.0, 5.0])
    # the signed margins -y X w of X w = (-3, 0, 6)
    assert np.array_equal(margins(data, w), [3.0, 0.0, -6.0])
    assert np.array_equal(margins(data, w, data.gather([1])), [0.0])
    assert np.array_equal(scatter(data, np.array([7.0]), data.gather([1])), np.zeros(3))
    assert np.array_equal(scatter(data, np.array([1.0, 1.0, 1.0])), [-1.0, -1.0, 0.0])
    spec = ObjectiveSpec("logistic", data)
    # an empty row has margin 0: loss ln 2, gradient 0
    assert batch_smooth_value(spec, w, [1]) == np.log(2.0)
    assert np.array_equal(batch_grad(spec, w, [1]), np.zeros(3))
    phi = ray(spec, w, [1], np.ones(3), margins(data, w, data.gather([1])), 3.0)
    assert list(phi(np.array([0.5]))) == [np.log(2.0)]
    with pytest.raises(ValueError):
        ray(spec, w, [], np.ones(3), margins(data, w, data.gather([])), 3.0)


def chunk_bytes(gathered):
    """Bytes of gathered signed rows: a dense block's rows, or the CSR
    slots, columns and values."""
    return sum(a.nbytes for a in parts(gathered))


def parts(gathered):
    """The arrays of a gather: the rows of a dense block, or the CSR triple
    (the row count that follows it is no array)."""
    return [gathered] if isinstance(gathered, np.ndarray) else list(gathered[:3])


def chunk_of(view):
    """The arrays a planned view is part of: its chunk's (m, b, d) block,
    or the chunk's CSR slots, columns and values."""
    roots = []
    for a in parts(view):
        while a.base is not None:
            a = a.base
        roots.append(a)
    return roots


@settings(max_examples=25, deadline=None, derandomize=True)
@given(matrices([9, 17, 40]), st.integers(0, 3))
@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
def test_planned_chunks_are_fresh_gathers_bit_for_bit(dense, matrix, seed):
    # a planned batch must read as the rows of a fresh gather, to the bit,
    # as a view of one gather of its chunk, at b in {1, 16, n - 1 (a short
    # tail), n} and chunk bounds from the default down to one batch's rows
    # and below
    x, y, rng = matrix
    data = layout(dataset(x, y), dense)
    n, d = x.shape
    c, w = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, d)
    for b in (1, min(16, n), n - 1, n):
        schedule = make_schedule(n, b, seed, epoch=1)
        fresh = [data.gather(batch) for batch in schedule.batches]
        terms = [scatter(data, c[batch], got) for batch, got in zip(schedule.batches, fresh)]
        for bound in (Dataset.PLAN_BYTES, 3 * 24 * d * b + 7, 24 * d * b, 8 * d * b, 24, 0):
            seen, chunks = [], []
            with pytest.MonkeyPatch.context() as m:
                m.setattr(Dataset, "PLAN_BYTES", bound)
                for batch, got in chain.from_iterable(data.plan(schedule)):
                    k = len(seen)
                    seen.append(batch)
                    assert type(batch) is np.ndarray and not batch.flags.writeable
                    assert np.array_equal(batch, schedule.batches[k])
                    if b == n:
                        # every row: the stored layout, uncopied
                        assert all(a is r for a, r in zip(parts(got), parts(data.gather())))
                    else:
                        roots = chunk_of(got)
                        if not chunks or roots[0] is not chunks[-1][0][0]:
                            chunks.append((roots, []))     # a new chunk
                        chunks[-1][1].append(got)
                        # a view of the chunk (an empty part shares no memory)
                        assert all(a.size == 0 or np.shares_memory(a, r)
                                   for a, r in zip(parts(got), roots))
                    assert all(a.dtype == f.dtype and np.array_equal(a, f) for a, f in
                               zip(parts(got), parts(fresh[k])))
                    if not dense:   # and the same row count
                        assert got[3] == fresh[k][3] == len(batch)
                    assert np.array_equal(scatter(data, c[batch], got), terms[k])
                    assert np.array_equal(margins(data, w, got),
                                          margins(data, w, fresh[k]))
            assert len(seen) == schedule.m
            # the views of a chunk's batches are its one gather, within the
            # bound unless it is one batch past the bound on its own
            for roots, views in chunks:
                assert all(all(a is r for a, r in zip(chunk_of(v), roots)) for v in views)
                assert sum(map(chunk_bytes, views)) == chunk_bytes(roots)
                assert chunk_bytes(roots) <= bound or len(views) == 1


def gaussian(n, d, seed, scale):
    """A scaled Gaussian (n, d) matrix, random labels and the generator."""
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n, d))
    return x, np.where(rng.random(n) < 0.5, -1.0, 1.0), rng


@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 16), st.sampled_from([1e-3, 1.0, 1e3]))
@pytest.mark.parametrize("d", [1, 5, 50])
@pytest.mark.parametrize("b", [1, 2, 7, 16, 32, 256])
def test_dense_scatter_is_the_matmul_bit_for_bit(b, d, seed, scale):
    # the block scatter is c.dot(X_B); it must equal c @ X_B, the form the
    # traces were first taken with, to the bit, for every batch of a
    # schedule with a short tail (b > 1), through the plan's views, and in
    # a full pass
    n = 2 * b + max(1, b // 3)
    x, y, rng = gaussian(n, d, seed, scale)
    data = layout(dataset(x, y), True)
    c = rng.standard_normal(n) * rng.choice([1e-8, 1.0, 1e8], n)
    schedule = make_schedule(n, b, seed)
    assert b == 1 or len(schedule.batches[-1]) < b
    for batch, x in chain.from_iterable(data.plan(schedule)):
        assert np.array_equal(scatter(data, c[batch], x), c[batch] @ data.block[batch])
    assert np.array_equal(scatter(data, c), c @ data.block)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 16), st.sampled_from([1e-3, 1.0, 1e3]))
@pytest.mark.parametrize("dense", [True, False], ids=["block", "csr"])
@pytest.mark.parametrize("d", [1, 5, 50])
def test_batch_margins_are_the_full_pass_bit_for_bit(d, dense, seed, scale):
    # a full pass of margins restricted to B must equal the batch's own
    # margins to the bit (np.vecdot on the block: one dot per row, where
    # X_B.dot(w) sums in another order), planned or gathered afresh, at
    # b in {1, 2, 7, 16, 32} with a short tail
    n = 75
    x, y, rng = gaussian(n, d, seed, scale)
    data = layout(dataset(x, y), dense)
    w = rng.standard_normal(d) * scale
    full = margins(data, w)
    for b in (1, 2, 7, 16, 32):
        schedule = make_schedule(n, b, seed, epoch=1)
        for batch, x in chain.from_iterable(data.plan(schedule)):
            assert np.array_equal(margins(data, w, x), full[batch])
            assert np.array_equal(margins(data, w, data.gather(batch)), full[batch])
