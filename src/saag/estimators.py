"""Gradient-direction constructions for the solver family.

Four estimators are provided: the SAAG-I/III incremental gradient table, the
biased SAAG-II/IV snap-point estimator (fresh batch term at 1/b, stale snap
term at 1/n), the unbiased SVRG/VR-SGD estimator (both terms at 1/b), and the
plain mini-batch gradient of GD/SGD. ``bind`` maps a family of ``solvers.KINDS``
to its estimator, bound to the table or snap state of an epoch. The l2
contribution is always applied analytically at the point each term is
evaluated at, never from stale storage. The scalar operands (k, n,
lambda2) are the spec's 0-d ``scalars``. The caller passes the batch as
its row ids and its signed rows x (``Dataset.gather``), and ``c``, the
batch's slopes at w: ``slope_t`` of its signed margins.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .objective import margins, scatter, slope_t


@dataclass(eq=False)
class SnapState:
    """Snap point w~ with its full smooth gradient mu~, the slope
    c~_i = slope_t(t_i(w~)) of every point and c~/n, the weights of the
    SAAG-II/IV snap term, all from one pass per move."""

    point: np.ndarray
    grad: np.ndarray
    slopes: np.ndarray
    scaled: np.ndarray


def take_snapshot(spec, w):
    """Freeze a snap point; its slopes give the full gradient (n evaluations)."""
    w = np.asarray(w, dtype=np.float64)
    data = spec.data
    _, n, lam2, _ = spec.scalars(data.n)
    slopes = slope_t(spec.loss, margins(data, w))
    grad = scatter(data, slopes) / n + lam2 * w
    return SnapState(w.copy(), grad, slopes, slopes / n)


@dataclass(eq=False)
class GradTable:
    """Per-point gradient storage for the incremental (table) estimators.

    Gradients of linear-model losses are collinear with the data row, so one
    slope per point suffices; ``aggregate`` maintains the dense sum of all
    stored slopes times their signed rows incrementally. Slots start at
    slope 0, so no hidden full-gradient pass is needed at startup.
    """

    slopes: np.ndarray
    aggregate: np.ndarray


def make_table(spec):
    return GradTable(np.zeros(spec.data.n), np.zeros(spec.data.d))


def saag1_direction(table, spec, w, rows, x, c):
    """Incremental-table direction; refreshes the batch slots in place.

    Fresh gradients for the batch enter at weight 1/|B|; out-of-batch stored
    gradients enter at weight 1/n, so the stale remainder is averaged over
    the whole dataset and the direction collapses to the full gradient at
    |B| = n. Work is O(|B| * nnz) per call.
    """
    data = spec.data
    size = len(rows)
    k, n, lam2, _ = spec.scalars(size)
    # slots never refreshed hold slope 0, so the change is c - stored in every slot
    table.aggregate += scatter(data, c - table.slopes[rows], x)
    table.slopes[rows] = c
    fresh = scatter(data, c, x)
    if size == data.n:
        # out-of-batch set is empty; the stale term is exactly zero
        return fresh / k + lam2 * w
    return fresh / k + (table.aggregate - fresh) / n + lam2 * w


def saag2_direction(snap, spec, w, rows, x, c):
    """Biased snap-point direction:
    (1/|B|) sum_B grad f_i(w) - (1/n) sum_B grad f_i(w~) + mu~.

    The asymmetric 1/|B| vs 1/n scaling is what makes the estimator biased;
    the mean over a partition of equal batches is
    grad f(w) + ((m-1)/m) grad f(w~). Each component gradient carries its l2
    share at its own evaluation point, so the identity holds exactly for any
    lambda2. For a linear model both sums run over the batch's signed rows,
    so the direction is one scatter of c_i/|B| - c~_i/n over B, with c~_B/n
    read from the snapshot.
    """
    k, _, lam2, share = spec.scalars(len(rows))     # share = (k / n) * lam2
    c = c / k - snap.scaled[rows]
    return scatter(spec.data, c, x) + lam2 * w - share * snap.point + snap.grad


def svrg_direction(snap, spec, w, rows, x, c):
    """Unbiased control-variate direction:
    (1/|B|) sum_B (grad f_i(w) - grad f_i(w~)) + mu~, one scatter of
    (c_i - c~_i)/|B| over B.

    At w = w~ the slopes cancel exactly and the direction equals mu~.
    """
    k, _, lam2, _ = spec.scalars(len(rows))
    c = (c - snap.slopes[rows]) / k
    return scatter(spec.data, c, x) + lam2 * (w - snap.point) + snap.grad


def batch_direction(spec, w, rows, x, c):
    """Plain mini-batch gradient of GD/SGD: one scatter of c_i/|B| over B
    (``objective.batch_grad`` from the slopes)."""
    k, _, lam2, _ = spec.scalars(len(rows))
    return scatter(spec.data, c, x) / k + lam2 * w


def bind(family, spec, table=None, snap=None):
    """The estimator of ``family`` as a function of (w, rows, x, c): "table"
    reads and refreshes ``table``, "biased" and "unbiased" read ``snap``.
    A solver binds once per epoch, so its steps pay no dispatch."""
    if family == "table":
        return partial(saag1_direction, table, spec)
    if family == "biased":
        return partial(saag2_direction, snap, spec)
    if family == "unbiased":
        return partial(svrg_direction, snap, spec)
    if family == "batch":
        return partial(batch_direction, spec)
    raise ValueError(f"unknown estimator family {family!r}")
