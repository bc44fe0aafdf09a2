"""Losses, regularizers, objective/gradient evaluation, and the l1 prox map.

The smooth part f of the composite objective F = f + g is the mean loss plus
the l2 term (lambda2/2)||w||^2; the non-smooth part g is lambda1*||w||_1 and
is handled exclusively by the proximal operator. A linear model meets its
data only through the margins z = X_B w and the slopes c with
grad loss_i = c_i x_i, so every loss has one vectorized implementation over
margins and every gradient is a scatter X_B^T c.
"""

from dataclasses import dataclass

import numpy as np

LOSSES = ("logistic", "squared_hinge", "least_squares")

# Bound on each loss's second derivative in the margin.
CURVATURE = {"logistic": 0.25, "squared_hinge": 2.0, "least_squares": 1.0}


@dataclass(frozen=True)
class Regularizer:
    """lambda2 scales the smooth l2 term, lambda1 the non-smooth l1 term."""

    lambda2: float = 0.0
    lambda1: float = 0.0

    def __post_init__(self):
        if self.lambda2 < 0 or self.lambda1 < 0:
            raise ValueError("regularization coefficients must be >= 0")


@dataclass(eq=False)
class ObjectiveSpec:
    """Loss kind + regularizer + dataset; immutable during a solver run."""

    loss: str
    reg: Regularizer
    data: object

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")


def loss_t(kind, t):
    """Per-point losses at signed margins t = -y z, labels y = +-1: every
    loss is a function of t alone."""
    if kind == "logistic":
        return np.logaddexp(0.0, t)
    if kind == "squared_hinge":
        return np.maximum(0.0, 1.0 + t) ** 2
    return 0.5 * (t + 1.0) ** 2     # (z - y)^2 / 2, as (1 - y z)^2 = (z - y)^2


def loss(kind, z, y):
    """Per-point losses at margins ``z`` with labels ``y`` = +-1 (no
    regularization)."""
    return loss_t(kind, -y * z)


def slope(kind, z, y):
    """Per-point slopes c at margins ``z``: the gradient of loss i is c_i x_i."""
    if kind == "logistic":
        # -y * sigmoid(-y z); logaddexp keeps exp from overflowing
        return -y * np.exp(-np.logaddexp(0.0, y * z))
    if kind == "squared_hinge":
        return -2.0 * y * np.maximum(0.0, 1.0 - y * z)
    return z - y


def margins(data, w, rows=None):
    """Margins X_B w of the rows of a batch (every row when None).

    On a dense block each margin is one dot product of its row, summed in
    the same order in a full pass and in any batch, so a full pass
    restricted to B is bit-equal to the batch's margins (X @ w under BLAS
    is not).
    """
    gathered = data.gather(rows)
    if isinstance(gathered, np.ndarray):
        return np.vecdot(gathered, w)
    local, cols, vals = gathered
    return np.bincount(local, weights=vals * w[cols],
                       minlength=data.n if rows is None else len(rows))


def scatter(data, c, rows=None):
    """Dense X_B^T c: the batch's rows weighted by ``c`` and summed."""
    gathered = data.gather(rows)
    if isinstance(gathered, np.ndarray):
        return c @ gathered
    local, cols, vals = gathered
    return np.bincount(cols, weights=vals * c[local], minlength=data.d)


def _batch_labels(data, rows):
    return data.labels if rows is None else data.labels[rows]


def slope_sum(spec, w, rows=None, z=None):
    """Dense sum of c_i * x_i over a batch (every row when None); ``z`` is
    the batch's margins X_B w when the caller has them."""
    data = spec.data
    if z is None:
        z = margins(data, w, rows)
    return scatter(data, slope(spec.loss, z, _batch_labels(data, rows)), rows)


def batch_grad(spec, w, rows=None, z=None):
    """Mean gradient of the smooth part over a batch (every row when None):
    (1/|B|) sum_{i in B} grad loss_i(w) + lambda2 * w. ``z`` is as in
    ``slope_sum``.
    """
    k = spec.data.n if rows is None else len(rows)
    if k == 0:
        raise ValueError("empty batch")
    return slope_sum(spec, w, rows, z) / k + spec.reg.lambda2 * w


def full_grad(spec, w):
    """Gradient of the smooth part over the whole dataset."""
    return batch_grad(spec, w)


def batch_smooth_value(spec, w, rows=None):
    """Mini-batch smooth objective: mean loss over the batch plus the l2 term.

    This is the quantity the stochastic line search compares; the l1 term is
    excluded because the proximal step handles it after the gradient step.
    """
    if rows is not None and len(rows) == 0:
        raise ValueError("empty batch")
    data = spec.data
    losses = loss(spec.loss, margins(data, w, rows), _batch_labels(data, rows))
    return float(losses.sum()) / losses.size + 0.5 * spec.reg.lambda2 * float(w @ w)


def batch_ray(spec, w, rows, direction, z=None, dd=None):
    """phi(eta) = batch_smooth_value(spec, w - eta * direction, rows) in O(b)
    per call. X_B w (``z``, formed here when None), X_B d (every row when
    ``rows`` is None), w.w, w.d and d.d (``dd``, likewise) are formed once,
    and the margins are signed once: with t = -y X_B w and y X_B d, a trial
    is loss_t(t + eta y X_B d) and one sum, four array calls for the
    logistic loss. As y = +-1, every sign flip is exact, so each trial is
    bit-equal to the loss at the margins X_B w - eta X_B d."""
    if rows is not None and len(rows) == 0:
        raise ValueError("empty batch")
    data, kind = spec.data, spec.loss
    y = _batch_labels(data, rows)
    if z is None:
        z = margins(data, w, rows)
    t, tu = -y * z, y * margins(data, direction, rows)
    ww, wd = float(w @ w), float(w @ direction)
    if dd is None:
        dd = float(direction @ direction)
    half, b = 0.5 * spec.reg.lambda2, t.size

    def phi(eta):
        return (float(np.add.reduce(loss_t(kind, t + eta * tu))) / b
                + half * (ww - 2.0 * eta * wd + eta * eta * dd))

    return phi


def objective_value(spec, w):
    """Full composite objective F(w) = mean loss + l2 term + l1 term."""
    return batch_smooth_value(spec, w) + spec.reg.lambda1 * float(np.abs(w).sum())


def prox(z, eta, reg):
    """Proximal map of eta * lambda1 * ||.||_1: coordinatewise soft-threshold.

    With lambda1 = 0 this returns z unchanged (the l2 term lives in the smooth
    part, not here).
    """
    if eta <= 0.0:
        raise ValueError(f"step size must be positive, got {eta}")
    z = np.asarray(z, dtype=np.float64)
    if reg.lambda1 == 0.0:
        return z.copy()
    t = eta * reg.lambda1
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def accuracy(w, test):
    """Fraction of test points with sign(w . x) equal to the label.

    sign(0) counts as +1.
    """
    if test.n == 0:
        raise ValueError("empty test set")
    pred = np.where(margins(test, w) >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == test.labels))

