"""Losses, regularizers, objective/gradient evaluation, and the l1 prox map.

The smooth part f of the composite objective F = f + g is the mean loss plus
the l2 term (lambda2/2)||w||^2; the non-smooth part g is lambda1*||w||_1 and
is handled exclusively by the proximal operator. A linear model meets its
data only through the signed margins t = -y X_B w, the margins of the rows
-y_i x_i that the dataset stores, and the slopes c with
grad loss_i = c_i (-y_i x_i). So every loss has one vectorized
implementation over t, and every gradient is a scatter over the signed rows.
"""

from dataclasses import dataclass

import numpy as np

LOSSES = ("logistic", "squared_hinge", "least_squares")

# Bound on each loss's second derivative in the margin.
CURVATURE = {"logistic": 0.25, "squared_hinge": 2.0, "least_squares": 1.0}


def operand(x):
    """``x`` as a 0-d float64 array, the form of the inner step's scalar
    operands: on 5 entries a ufunc took ~0.83 us with one against ~1.2 us
    with a Python float, to the same bits. Each is formed at import or once
    per spec, never per step."""
    return np.array(x, dtype=np.float64)


ZERO, HALF, ONE, TWO = map(operand, (0.0, 0.5, 1.0, 2.0))

# Above about 34, log1p(exp(t)) rounds to t: the logistic loss clips its
# exp operand here, so it cannot overflow.
CAP = operand(36.0)


@dataclass(eq=False)
class ObjectiveSpec:
    """Loss kind + dataset + the coefficients of the smooth l2 term (lambda2)
    and the non-smooth l1 term (lambda1); immutable during a solver run."""

    loss: str
    data: object
    lambda2: float = 0.0
    lambda1: float = 0.0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")
        if not (0.0 <= self.lambda2 < np.inf and 0.0 <= self.lambda1 < np.inf):
            raise ValueError("regularization coefficients must be finite and >= 0")
        self._scalars = {}

    def scalars(self, k):
        """(k, n, lambda2, (k / n) * lambda2) as ``operand``s for a batch of
        k rows, formed on the first call for each k and kept: at most n
        entries, and a run reads b, its tail batch's size and n."""
        if k not in self._scalars:
            n, lam2 = self.data.n, self.lambda2
            self._scalars[k] = tuple(map(operand, (k, n, lam2, (k / n) * lam2)))
        return self._scalars[k]


def loss_t(kind, t):
    """Per-point losses at signed margins t = -y z, y = +-1: every loss is a
    function of t alone."""
    if kind == "logistic":
        # softplus(t) within 1 ULP in four array calls: numpy's exp and
        # log1p are vectorized where logaddexp is a scalar loop
        return np.maximum(t, np.log1p(np.exp(np.minimum(t, CAP))))
    if kind == "squared_hinge":
        return np.maximum(ZERO, ONE + t) ** 2
    return HALF * (t + ONE) ** 2    # (z - y)^2 / 2, as (1 - y z)^2 = (z - y)^2


def slope_t(kind, t):
    """Per-point slopes c = d loss_t / dt at signed margins t: the gradient
    of loss i is c_i times its signed row -y_i x_i."""
    if kind == "logistic":
        # sigmoid(t) within 2 ULP; below t = -709.78 exp(-t) overflows to
        # inf for the exact slope +0.0, so a caller that can meet such
        # margins ignores "over"
        return ONE / (ONE + np.exp(-t))
    if kind == "squared_hinge":
        return TWO * np.maximum(ZERO, ONE + t)
    return t + ONE


def curvature_t(kind, t):
    """Per-point curvatures d slope_t / dt at signed margins t, at most
    ``CURVATURE[kind]``: the weights of the loss's Hessian X^T diag X. The
    squared hinge's is its generalized second derivative, 0 from the kink
    t = -1 down."""
    if kind == "logistic":
        with np.errstate(over="ignore"):    # exp(-t) = inf is the slope 0
            c = slope_t(kind, t)
        return c * (ONE - c)
    if kind == "squared_hinge":
        return np.where(t > -ONE, TWO, ZERO)
    return np.ones_like(t)


def margins(data, w, x=None):
    """Signed margins t = -y X_B w of a batch's signed rows ``x``, what
    ``data.gather`` gives for the batch (every row when None), of one point
    w, or of each row of a (k, d) stack w as a (k, b) array.

    On a dense block each margin is one dot product of its row, summed in
    the same order in a full pass, in any batch and in a stack, so a full
    pass restricted to B is bit-equal to the batch's margins (X @ w under
    BLAS is not). On CSR data a stack's rows are one ``bincount`` each: a
    stacked one, with a bin range per row, is slower.
    """
    x = data.gather() if x is None else x
    if isinstance(x, np.ndarray):
        return np.vecdot(x, w[..., None, :])
    local, cols, vals, size = x
    if w.ndim == 1:
        return np.bincount(local, weights=vals * w[cols], minlength=size)
    return np.array([np.bincount(local, weights=vals * v[cols], minlength=size)
                     for v in w])


def scatter(data, c, x=None):
    """Dense sum of c_i (-y_i x_i): the batch's signed rows ``x`` (every row
    when None), as in ``margins``, weighted by ``c``."""
    x = data.gather() if x is None else x
    if isinstance(x, np.ndarray):
        return c.dot(x)
    local, cols, vals, _ = x
    if not cols.size:   # bincount gives integer zeros for no entries
        return np.zeros(data.d)
    return np.bincount(cols, weights=vals * c[local], minlength=data.d)


def square_scatter(data):
    """The map c -> sum_i c_i x_i^2 (entrywise) over every row: the diagonal
    of X^T diag(c) X, a ``scatter`` over the squared entries, which are
    formed here once (block^2 on a dense block, values^2 in CSR)."""
    gathered = data.gather()
    if isinstance(gathered, np.ndarray):
        squares = gathered * gathered
        return lambda c: c.dot(squares)
    local, cols, vals, _ = gathered
    squares = vals * vals
    return lambda c: np.bincount(cols, weights=squares * c[local], minlength=data.d)


def batch_grad(spec, w, rows=None, z=None):
    """Mean gradient of the smooth part over a batch (every row when None):
    (1/|B|) sum_{i in B} grad loss_i(w) + lambda2 * w. ``z`` is the batch's
    signed margins when the caller has them.
    """
    size = spec.data.n if rows is None else len(rows)
    if size == 0:
        raise ValueError("empty batch")
    k, _, lam2, _ = spec.scalars(size)
    x = spec.data.gather(rows)
    c = slope_t(spec.loss, margins(spec.data, w, x) if z is None else z)
    return scatter(spec.data, c, x) / k + lam2 * w


def batch_smooth_value(spec, w, rows=None, z=None):
    """Mini-batch smooth objective: mean loss over the batch plus the l2 term.
    ``z`` is the batch's signed margins when the caller has them.

    This is the quantity the stochastic line search compares; the l1 term is
    excluded because the proximal step handles it after the gradient step.
    """
    if rows is not None and len(rows) == 0:
        raise ValueError("empty batch")
    z = margins(spec.data, w, spec.data.gather(rows)) if z is None else z
    losses = loss_t(spec.loss, z)
    return float(losses.sum()) / losses.size + 0.5 * spec.lambda2 * float(w.dot(w))


def batch_ray(spec, w, rows, x, direction, z, dd):
    """phi(etas, among) iterates, for each row index i of ``among``,
    batch_smooth_value(spec, w[i] - eta * direction[i], rows) over the steps
    of the 1-d array ``etas``, in O(b) per step, for a stack of k runs on
    one batch: its row ids ``rows`` and signed rows ``x``, the (k, d)
    iterates ``w`` and ``direction``, the (k, b) signed margins ``z`` of w
    and the k floats ``dd`` = d.d. It gives a list of such iterables.

    The margins u of d, w.w and w.d are formed once, stacked, so the steps
    of one call are one (runs, len(etas), b) block loss_t(z - eta u) summed
    along its last axis, four array calls for the logistic loss, and each
    value is the float a step of one run on its own gives."""
    if len(rows) == 0:
        raise ValueError("empty batch")
    u = margins(spec.data, direction, x)
    ww, wd = np.vecdot(w, w).tolist(), np.vecdot(w, direction).tolist()
    half, b, kind = 0.5 * spec.lambda2, z.shape[1], spec.loss

    def ray(sums, etas, ww, wd, dd):
        return (s / b + half * (ww - 2.0 * eta * wd + eta * eta * dd)
                for s, eta in zip(sums, etas))

    def phi(etas, among):
        zs, us = (z, u) if len(among) == len(z) else (z[among], u[among])
        sums = np.add.reduce(loss_t(kind, zs[:, None] - etas[:, None] * us[:, None]),
                             axis=2)
        steps = etas.tolist()
        return [ray(row, steps, ww[i], wd[i], dd[i])
                for i, row in zip(among, sums.tolist())]

    return phi


def objective_value(spec, w, z=None):
    """Full composite objective F(w) = mean loss + l2 term + l1 term; ``z``
    is w's signed margins when the caller has them."""
    return batch_smooth_value(spec, w, z=z) + spec.lambda1 * float(np.abs(w).sum())


def prox(z, eta, lambda1):
    """Proximal map of eta * lambda1 * ||.||_1: coordinatewise soft-threshold.
    ``eta`` is a float, or a (k, 1) column of one step per row of a stack z.

    With lambda1 = 0 this returns z unchanged (the l2 term lives in the smooth
    part, not here).
    """
    if (np.asarray(eta) <= 0.0).any():
        raise ValueError(f"step size must be positive, got {eta}")
    z = np.asarray(z, dtype=np.float64)
    if lambda1 == 0.0:
        return z.copy()
    # max(|z| - eta lambda1, 0) sign(z), in place on one new array: a
    # stack's rows stay in cache
    out = np.abs(z)
    out -= eta * lambda1
    np.maximum(out, ZERO, out=out)
    out *= np.sign(z)
    return out


def accuracy(w, test):
    """Fraction of test points with sign(w . x) equal to the label.

    sign(0) counts as +1; w . x = -y t is exact, as y = +-1.
    """
    y = test.labels
    pred = np.where(-y * margins(test, w) >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == y))

