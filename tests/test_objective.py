import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from saag.data import Dataset, make_synthetic
from saag.objective import (CURVATURE, LOSSES, ObjectiveSpec, accuracy,
                            batch_grad, batch_smooth_value, curvature_t, loss_t,
                            objective_value, prox, slope_t, square_scatter)


def tiny(loss, lam2=0.0, lam1=0.0, n=5, d=4, seed=0):
    return ObjectiveSpec(loss, make_synthetic(n, d, seed=seed), lam2, lam1)


def test_objective_values_at_zero():
    w = np.zeros(4)
    assert objective_value(tiny("logistic"), w) == pytest.approx(np.log(2.0), abs=1e-15)
    assert objective_value(tiny("squared_hinge"), w) == pytest.approx(1.0, abs=1e-15)
    # l1 regularizer contributes nothing at w = 0
    assert objective_value(tiny("logistic", lam1=5.0), w) == pytest.approx(np.log(2.0))


def test_component_grad_closed_forms():
    # a component gradient is the gradient of a one-row batch
    spec = tiny("logistic")
    w = np.zeros(4)
    x = spec.data.dense()
    for i in range(spec.data.n):
        g = batch_grad(spec, w, [i])
        # sigma(0) = 1/2, so the slope is -y/2
        assert np.allclose(g, -0.5 * spec.data.labels[i] * x[i])

    # squared hinge is flat once the margin reaches 1
    ds = Dataset([0, 1], [0], [1.0], [1.0], d=1)
    spec = ObjectiveSpec("squared_hinge", ds)
    assert np.array_equal(batch_grad(spec, np.array([2.0]), [0]), [0.0])

    spec = ObjectiveSpec("least_squares", ds)
    g = batch_grad(spec, np.array([0.0]), [0])
    assert np.allclose(g, [-1.0])

    with pytest.raises(IndexError):
        batch_grad(spec, np.array([0.0]), [1])


def test_batch_grad_cases():
    spec = tiny("logistic", lam2=0.05)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(4)
    allidx = np.arange(spec.data.n)
    assert np.array_equal(batch_grad(spec, w, allidx), batch_grad(spec, w))
    g1 = batch_grad(spec, w, np.array([2]))
    x, y = spec.data.dense()[2], spec.data.labels[2]
    comp = -y / (1.0 + np.exp(y * (x @ w))) * x   # -y sigma(-y x.w) x
    assert np.allclose(g1, comp + 0.05 * w, atol=1e-15)
    with pytest.raises(ValueError):
        batch_grad(spec, w, np.array([], dtype=int))
    with pytest.raises(ValueError, match="empty batch"):
        batch_smooth_value(spec, w, np.array([], dtype=int))


def _fd_gradient(spec, w, batch, h=1e-6):
    fd = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        fd[j] = (batch_smooth_value(spec, w + e, batch)
                 - batch_smooth_value(spec, w - e, batch)) / (2 * h)
    return fd


@pytest.mark.parametrize("loss", LOSSES)
def test_gradients_match_finite_differences(loss):
    rng = np.random.default_rng(7)
    spec = tiny(loss, lam2=1e-2, n=5, d=4, seed=3)
    for trial in range(5):
        w = rng.standard_normal(4)
        for batch in (np.arange(5), np.array([0, 3])):
            g = batch_grad(spec, w, batch)
            fd = _fd_gradient(spec, w, batch)
            rel = np.abs(g - fd) / np.maximum.reduce(
                [np.abs(g), np.abs(fd), np.full_like(g, 1e-8)])
            assert np.max(rel) <= 1e-5


def _prox_scalar_golden(z, eta, lam1, iters=80):
    # golden-section minimization of (1/(2*eta))(t-z)^2 + lam1*|t|;
    # extended precision resolves the flat bottom below the 1e-8 tolerance
    z, eta, lam1 = np.longdouble(z), np.longdouble(eta), np.longdouble(lam1)
    phi = lambda t: (t - z) ** 2 / (2 * eta) + lam1 * abs(t)
    lo, hi = -abs(z) - 1, abs(z) + 1
    inv = (np.sqrt(np.longdouble(5.0)) - 1) / 2
    a = hi - inv * (hi - lo)
    b = lo + inv * (hi - lo)
    fa, fb = phi(a), phi(b)
    for _ in range(iters):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - inv * (hi - lo)
            fa = phi(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv * (hi - lo)
            fb = phi(b)
    return 0.5 * (lo + hi)


def test_prox_soft_threshold():
    out = prox(np.array([0.0, 2.0, -0.3]), 2.0, 0.25)  # eta*lam1 = 0.5
    assert np.allclose(out, [0.0, 1.5, 0.0], atol=1e-15)
    # lambda1 = 0 leaves the input unchanged
    z = np.array([1.0, -2.0])
    assert np.array_equal(prox(z, 0.7, 0.0), z)
    with pytest.raises(ValueError):
        prox(z, 0.0, 0.25)


def test_prox_is_the_float_threshold_form_bit_for_bit():
    # the 0-d ZERO operand must give the bits of a Python-float 0.0,
    # signed zeros and entries at the threshold included
    rng = np.random.default_rng(12)
    z = np.concatenate([rng.normal(scale=2.0, size=200), [0.0, -0.0, 0.5, -0.5]])
    for eta, lam1 in ((2.0, 0.25), (0.3, 1e-3), (1e-9, 7.0)):
        t = eta * lam1
        want = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        got = prox(z, eta, lam1)
        assert got.tobytes() == want.tobytes()


def test_prox_matches_scalar_minimizer():
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = float(rng.normal(scale=2.0))
        eta = float(rng.uniform(0.05, 3.0))
        lam1 = float(rng.uniform(0.0, 2.0))
        closed = prox(np.array([z]), eta, lam1)[0]
        assert abs(closed - _prox_scalar_golden(z, eta, lam1)) <= 1e-8


def test_accuracy():
    ds = make_synthetic(40, 3, seed=5)
    # replay the generator's rng to recover the planted direction
    rng = np.random.default_rng(5)
    rng.standard_normal((40, 3))
    w_true = rng.standard_normal(3)
    assert accuracy(w_true, ds) == 1.0
    margins = ds.labels * (ds.dense() @ w_true)
    assert np.all(margins > 1e-9)
    assert accuracy(-w_true, ds) == 0.0
    # w = 0 predicts +1 everywhere (sign(0) -> +1)
    assert accuracy(np.zeros(3), ds) == np.mean(ds.labels == 1.0)


@pytest.mark.parametrize("loss", LOSSES)
def test_convexity_witness(loss):
    spec = tiny(loss, lam2=1e-3, lam1=1e-3, n=6, d=4, seed=2)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        mid = objective_value(spec, 0.5 * (a + b))
        avg = 0.5 * (objective_value(spec, a) + objective_value(spec, b))
        assert mid <= avg + 1e-12


def test_nonnegative_losses():
    rng = np.random.default_rng(9)
    for loss in ("logistic", "squared_hinge"):
        spec = tiny(loss, n=6, d=4, seed=8)
        for _ in range(50):
            assert objective_value(spec, 3.0 * rng.standard_normal(4)) >= 0.0


def test_unknown_loss_rejected():
    with pytest.raises(ValueError):
        ObjectiveSpec("hinge", make_synthetic(3, 2, seed=0))
    for bad in (dict(lambda2=-1.0), dict(lambda2=np.nan), dict(lambda2=np.inf),
                dict(lambda1=np.nan), dict(lambda1=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            ObjectiveSpec("logistic", make_synthetic(3, 2, seed=0), **bad)


def _softplus_and_sigmoid(t):
    """log(1 + e^t) and 1 / (1 + e^-t) at the float t, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(t)
        e = (-x if t >= 0.0 else x).exp()      # e <= 1, never overflows
        # 1 + e keeps only e's leading digits: for a small e the series
        # of log1p, to 1e-45 relative
        log1p = e - e * e / 2 + e * e * e / 3 if e < Decimal("1e-15") else (1 + e).ln()
        if t >= 0.0:
            return x + log1p, 1 / (1 + e)
        return log1p, e / (1 + e)


def _ulps(got, want):
    """|got - want| in units of the float spacing just below |want|."""
    near = abs(float(want))
    if Decimal(near) > abs(want):
        near = math.nextafter(near, 0.0)
    return float(abs(Decimal(float(got)) - want) / Decimal(math.ulp(near)))


def test_logistic_kernel_is_accurate_at_extreme_margins():
    # against a 50-digit oracle: the loss within 1 ULP everywhere, the slope
    # within 2 ULP wherever the true slope is >= 1e-300, and neither less
    # accurate than the logaddexp forms, in the whole ULPs the bounds count
    cap = np.arange(33.0, 37.0 + 1e-9, 0.125)
    edges = [np.nextafter(36.0, 0.0), np.nextafter(36.0, 99.0)]
    half = np.concatenate([[0.0, 1e-300, 709.0, 710.0, 745.0, 1e308], cap, edges])
    t = np.concatenate([half, -half])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        loss = loss_t("logistic", t)        # the loss cannot overflow
    with np.errstate(over="ignore"):
        slope = slope_t("logistic", t)
        old_slope = np.exp(-np.logaddexp(0.0, -t))
    old_loss = np.logaddexp(0.0, t)
    worst = dict.fromkeys(("loss", "old loss", "slope", "old slope"), 0.0)
    for i, ti in enumerate(t.tolist()):
        true_loss, true_slope = _softplus_and_sigmoid(ti)
        for name, got, want in (("loss", loss, true_loss),
                                ("old loss", old_loss, true_loss),
                                ("slope", slope, true_slope),
                                ("old slope", old_slope, true_slope)):
            if "slope" in name and true_slope < Decimal("1e-300"):
                assert 0.0 <= got[i] <= 1e-300, (name, ti, got[i])
            else:
                worst[name] = max(worst[name], _ulps(got[i], want))
    assert worst["loss"] <= 1.0 and worst["slope"] <= 2.0, worst
    assert math.ceil(worst["loss"]) <= math.ceil(worst["old loss"]), worst
    assert math.ceil(worst["slope"]) <= math.ceil(worst["old slope"]), worst
    # the limits are exact, +0.0 included, and NaN propagates
    with np.errstate(over="ignore"):
        ends = np.array([-np.inf, -1e308, 1e308, np.inf, np.nan])
        loss, slope = loss_t("logistic", ends), slope_t("logistic", ends)
    assert loss[:4].tolist() == [0.0, 0.0, 1e308, np.inf]
    assert slope[:4].tolist() == [0.0, 0.0, 1.0, 1.0]
    assert not np.signbit(slope[:2]).any() and not np.signbit(loss[:2]).any()
    assert np.isnan(loss[4]) and np.isnan(slope[4])
    assert slope_t("logistic", np.array([0.0, -0.0])).tolist() == [0.5, 0.5]


@pytest.mark.parametrize("kind", LOSSES)
def test_curvature_is_the_slope_derivative(kind):
    # central differences of slope_t, away from the squared hinge's kink
    t = np.linspace(-8.0, 8.0, 161) + 0.0123
    h = 1e-6
    numeric = (slope_t(kind, t + h) - slope_t(kind, t - h)) / (2.0 * h)
    np.testing.assert_allclose(curvature_t(kind, t), numeric, rtol=1e-5, atol=1e-5)
    # its peak is the loss's bound; 0.0, the logistic peak, is on the grid
    grid = curvature_t(kind, np.linspace(-4.0, 4.0, 801))
    assert float(grid.max()) == CURVATURE[kind] and (grid >= 0.0).all()
    # exp(-t) overflows at t = -2000, where the logistic slope is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ends = curvature_t(kind, np.array([-2000.0, 2000.0]))
    assert ends.tolist() == {"logistic": [0.0, 0.0], "squared_hinge": [0.0, 2.0],
                             "least_squares": [1.0, 1.0]}[kind]


@pytest.mark.parametrize("dense", [False, True], ids=["csr", "dense"])
def test_square_scatter_is_the_hessian_diagonal(monkeypatch, dense):
    # c -> diag(X^T diag(c) X) in either layout: the CSR arrays below
    # DENSE_PASS_FILL, the dense block at or above it
    monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", 0.0 if dense else 2.0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.6)
    x[3], x[:, 4] = 0.0, 0.0    # an empty row and an empty column
    labels = np.where(rng.random(7) < 0.5, 1.0, -1.0)
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(x, axis=1))))
    ds = Dataset(indptr, cols, x[rows, cols], labels, 5)
    c = rng.random(7)
    diagonal = square_scatter(ds)(c)
    assert (ds.block is not None) == dense
    np.testing.assert_allclose(diagonal, np.diag(x.T @ np.diag(c) @ x), rtol=1e-14)
    assert diagonal[4] == 0.0
