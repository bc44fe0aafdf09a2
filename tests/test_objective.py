import numpy as np
import pytest

from saag.data import Dataset, make_synthetic
from saag.objective import (LOSSES, ObjectiveSpec, Regularizer, accuracy,
                            batch_grad, batch_smooth_value, objective_value,
                            prox)


def tiny(loss, lam2=0.0, lam1=0.0, n=5, d=4, seed=0):
    return ObjectiveSpec(loss, Regularizer(lambda2=lam2, lambda1=lam1),
                         make_synthetic(n, d, seed=seed))


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
    spec = ObjectiveSpec("squared_hinge", Regularizer(), ds)
    assert np.array_equal(batch_grad(spec, np.array([2.0]), [0]), [0.0])

    spec = ObjectiveSpec("least_squares", Regularizer(), ds)
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
    reg = Regularizer(lambda1=0.25)
    out = prox(np.array([0.0, 2.0, -0.3]), 2.0, reg)  # eta*lam1 = 0.5
    assert np.allclose(out, [0.0, 1.5, 0.0], atol=1e-15)
    # lambda1 = 0 leaves the input unchanged
    z = np.array([1.0, -2.0])
    assert np.array_equal(prox(z, 0.7, Regularizer(lambda2=3.0)), z)
    with pytest.raises(ValueError):
        prox(z, 0.0, reg)


def test_prox_matches_scalar_minimizer():
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = float(rng.normal(scale=2.0))
        eta = float(rng.uniform(0.05, 3.0))
        lam1 = float(rng.uniform(0.0, 2.0))
        closed = prox(np.array([z]), eta, Regularizer(lambda1=lam1))[0]
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
        ObjectiveSpec("hinge", Regularizer(), make_synthetic(3, 2, seed=0))
    for bad in (dict(lambda2=-1.0), dict(lambda2=np.nan), dict(lambda2=np.inf),
                dict(lambda1=np.nan), dict(lambda1=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            Regularizer(**bad)
