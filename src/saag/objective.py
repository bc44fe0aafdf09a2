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


@dataclass(frozen=True)
class Regularizer:
    """lambda2 scales the smooth l2 term, lambda1 the non-smooth l1 term."""

    lambda2: float = 0.0
    lambda1: float = 0.0

    def __post_init__(self):
        if self.lambda2 < 0 or self.lambda1 < 0:
            raise ValueError("regularization coefficients must be >= 0")

    @property
    def smooth_only(self):
        return self.lambda1 == 0.0


@dataclass(eq=False)
class ObjectiveSpec:
    """Loss kind + regularizer + dataset; immutable during a solver run."""

    loss: str
    reg: Regularizer
    data: object

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")


def loss(kind, z, y):
    """Per-point losses at margins ``z`` with labels ``y`` (no regularization)."""
    if kind == "logistic":
        return np.logaddexp(0.0, -y * z)
    if kind == "squared_hinge":
        return np.maximum(0.0, 1.0 - y * z) ** 2
    return 0.5 * (z - y) ** 2


def slope(kind, z, y):
    """Per-point slopes c at margins ``z``: the gradient of loss i is c_i x_i."""
    if kind == "logistic":
        # -y * sigmoid(-y z); logaddexp keeps exp from overflowing
        return -y * np.exp(-np.logaddexp(0.0, y * z))
    if kind == "squared_hinge":
        return -2.0 * y * np.maximum(0.0, 1.0 - y * z)
    return z - y


def margins(data, w, rows=None):
    """Margins X_B w of the rows of a batch (every row when None)."""
    local, cols, vals = data.gather(rows)
    return np.bincount(local, weights=vals * w[cols],
                       minlength=data.n if rows is None else len(rows))


def scatter(data, c, rows=None):
    """Dense X_B^T c: the batch's rows weighted by ``c`` and summed."""
    local, cols, vals = data.gather(rows)
    return np.bincount(cols, weights=vals * c[local], minlength=data.d)


def _batch_labels(data, rows):
    return data.labels if rows is None else data.labels[rows]


def slope_sum(spec, w, rows=None):
    """Dense sum of c_i * x_i over a batch (every row when None)."""
    data = spec.data
    c = slope(spec.loss, margins(data, w, rows), _batch_labels(data, rows))
    return scatter(data, c, rows)


def batch_grad(spec, w, rows=None):
    """Mean gradient of the smooth part over a batch (every row when None):
    (1/|B|) sum_{i in B} grad loss_i(w) + lambda2 * w.
    """
    k = spec.data.n if rows is None else len(rows)
    if k == 0:
        raise ValueError("empty batch")
    return slope_sum(spec, w, rows) / k + spec.reg.lambda2 * w


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


def batch_ray(spec, w, rows, direction):
    """phi(eta) = batch_smooth_value(spec, w - eta * direction, rows) in O(b)
    per call: X_B w, X_B d (every row when ``rows`` is None), w.w, w.d and
    d.d are formed once."""
    if rows is not None and len(rows) == 0:
        raise ValueError("empty batch")
    data, kind = spec.data, spec.loss
    y = _batch_labels(data, rows)
    z, u = margins(data, w, rows), margins(data, direction, rows)
    ww, wd = float(w @ w), float(w @ direction)
    dd = float(direction @ direction)
    half = 0.5 * spec.reg.lambda2

    def phi(eta):
        losses = loss(kind, z - eta * u, y)
        return (float(losses.sum()) / losses.size
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


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness constant L and strong-convexity constant mu (L >= mu >= 0)."""

    L: float
    mu: float

    def __post_init__(self):
        if self.L <= 0 or self.mu < 0 or self.L < self.mu:
            raise ValueError("constants must satisfy L >= mu >= 0 and L > 0")


def estimate_constants(spec):
    """Curvature constants from the data: L bounds every component Hessian.

    logistic: L = max ||x_i||^2 / 4 + lambda2
    squared hinge: L = 2 max ||x_i||^2 + lambda2
    least squares: L = max ||x_i||^2 + lambda2
    mu = lambda2 in all cases.
    """
    data = spec.data
    max_sq = float(np.bincount(data.row_ids, weights=data.values ** 2,
                               minlength=data.n).max())
    lam2 = spec.reg.lambda2
    if spec.loss == "logistic":
        lipschitz = max_sq / 4.0 + lam2
    elif spec.loss == "squared_hinge":
        lipschitz = 2.0 * max_sq + lam2
    else:
        lipschitz = max_sq + lam2
    return ProblemConstants(L=lipschitz, mu=lam2)
