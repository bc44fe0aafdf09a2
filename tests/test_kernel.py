"""Property tests of the loss kernel, on both data layouts, against plain
dense numpy over the unsigned rows and the labels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saag.data import Dataset
from saag.objective import (LOSSES, ObjectiveSpec, Regularizer, accuracy,
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
    t = margins(data, w, rows)
    assert t.shape == (xb.shape[0],)
    assert close(t, -yb * (xb @ w), np.abs(xb) @ np.abs(w) + 1.0)
    c = np.linspace(-2.0, 2.0, xb.shape[0])
    assert close(scatter(data, c, rows), xb.T @ (-yb * c),
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
    spec = ObjectiveSpec(kind, Regularizer(lambda2=lam2, lambda1=0.5), data)
    xb, yb = (x, y) if rows is None else (x[rows], y[rows])
    z = xb @ w
    value = np.mean(dense_loss(kind, yb * z)) + 0.5 * lam2 * (w @ w)
    grad = xb.T @ dense_slope(kind, z, yb) / len(yb) + lam2 * w
    # margins carry rounding ~1e-16 |x||w|, which the loss scales by |slope|
    slack = (np.abs(dense_slope(kind, z, yb)) + 1.0) @ (np.abs(xb) @ np.abs(w) + 1.0)
    assert abs(batch_smooth_value(spec, w, rows) - value) <= 1e-12 * (abs(value) + slack)
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
    spec = ObjectiveSpec(kind, Regularizer(lambda2=lam2), data)
    phi = batch_ray(spec, w, rows, d)
    # the search's reference value at eta = 0 is the same float
    assert phi(0.0) == batch_smooth_value(spec, w, rows)
    v = w - eta * d
    want = batch_smooth_value(spec, v, rows)
    # the two sides round the margins and the l2 term differently, by about
    # 1e-16 of |x|(|w| + eta |d|) and of |w|^2 + 2 eta |w.d| + eta^2 |d|^2
    xb, yb = (x, y) if rows is None else (x[rows], y[rows])
    reach = np.abs(xb) @ (np.abs(w) + eta * np.abs(d)) + 1.0
    slack = ((np.abs(dense_slope(kind, xb @ v, yb)) + 1.0) @ reach
             + lam2 * (w @ w + 2.0 * eta * abs(w @ d) + eta * eta * (d @ d)))
    assert abs(phi(eta) - want) <= 1e-12 * (abs(want) + slack)


def margin_loss(kind, z, y):
    """The losses written over unsigned margins z: the signed-margin kernel
    and the search must match them bit for bit."""
    if kind == "logistic":
        return np.logaddexp(0.0, -y * z)
    if kind == "squared_hinge":
        return np.maximum(0.0, 1.0 - y * z) ** 2
    return 0.5 * (z - y) ** 2


def margin_slope(kind, z, y):
    """The slopes along the unsigned rows, written over unsigned margins z:
    the gradient over the signed rows must match them bit for bit."""
    if kind == "logistic":
        return -y * np.exp(-np.logaddexp(0.0, y * z))
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
    spec = ObjectiveSpec(kind, Regularizer(lambda2=lam2), data)
    yb = y if rows is None else y[rows]
    twin = unsigned(data)
    z, u = margins(twin, w, rows), margins(twin, d, rows)
    t = margins(data, w, rows)
    assert np.array_equal(t, -yb * z)
    assert np.array_equal(loss_t(kind, t), margin_loss(kind, z, yb))
    assert np.array_equal(scatter(data, slope_t(kind, t), rows),
                          scatter(twin, margin_slope(kind, z, yb), rows))
    l2 = 0.5 * lam2 * (float(w @ w) - 2.0 * eta * float(w @ d)
                       + eta * eta * float(d @ d))
    want = float(margin_loss(kind, z - eta * u, yb).sum()) / z.size + l2
    assert batch_ray(spec, w, rows, d)(eta) == want
    # the inner step hands over the signed margins and d.d it already formed
    assert batch_ray(spec, w, rows, d, t, float(d @ d))(eta) == want


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
    assert np.array_equal(margins(data, w, [1]), [0.0])
    assert np.array_equal(scatter(data, np.array([7.0]), [1]), np.zeros(3))
    assert np.array_equal(scatter(data, np.array([1.0, 1.0, 1.0])), [-1.0, -1.0, 0.0])
    spec = ObjectiveSpec("logistic", Regularizer(), data)
    # an empty row has margin 0: loss ln 2, gradient 0
    assert batch_smooth_value(spec, w, [1]) == np.log(2.0)
    assert np.array_equal(batch_grad(spec, w, [1]), np.zeros(3))
    assert batch_ray(spec, w, [1], np.ones(3))(0.5) == np.log(2.0)
    with pytest.raises(ValueError):
        batch_ray(spec, w, [], np.ones(3))
