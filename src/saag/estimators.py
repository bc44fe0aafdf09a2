"""Gradient-direction constructions for the solver family.

Four estimators are provided: the SAAG-I/III incremental gradient table, the
biased SAAG-II/IV snap-point estimator (fresh batch term at 1/b, stale snap
term at 1/n), the unbiased SVRG/VR-SGD estimator (both terms at 1/b), and the
plain mini-batch gradient of GD/SGD. ``direction`` maps a solver kind to its
estimator. The l2 contribution is always applied analytically at the point
each term is evaluated at, never from stale storage.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .objective import (batch_grad, margins, scatter, scatter_batches,
                        slope_sum, slope_t)

ENUMERATION_CAP = 64

TABLE_KINDS = ("saag1", "saag3")


@dataclass(eq=False)
class SnapState:
    """Snap point w~ with its full smooth gradient mu~ and the slope
    c~_i = slope_t(t_i(w~)) of every point, all from one pass per move, and
    the snap terms of the planned chunk (see ``plan_snap_terms``)."""

    point: np.ndarray
    grad: np.ndarray
    slopes: np.ndarray
    # id(batch) -> (batch, scatter(c~[B], B)), holding the batch as
    # Dataset's plan does
    terms: dict = field(default_factory=dict, repr=False)


def take_snapshot(spec, w):
    """Freeze a snap point; its slopes give the full gradient (n evaluations)."""
    w = np.asarray(w, dtype=np.float64)
    data = spec.data
    slopes = slope_t(spec.loss, margins(data, w))
    grad = scatter(data, slopes) / data.n + spec.reg.lambda2 * w
    return SnapState(w.copy(), grad, slopes)


def plan_snap_terms(spec, snap, batches, rows, gathered):
    """Form the snap term scatter(c~[B], B) of every batch of a chunk of
    ``Dataset.plan`` in one pass, for the snap directions to read; an
    unplanned chunk (``rows`` None) leaves them to form their own."""
    terms = () if rows is None else scatter_batches(spec.data, snap.slopes,
                                                    rows, gathered)
    snap.terms = {id(batch): (batch, term) for batch, term in zip(batches, terms)}


def _snap_term(data, snap, batch):
    planned = snap.terms.get(id(batch))
    return scatter(data, snap.slopes[batch], batch) if planned is None else planned[1]


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


def saag1_direction(table, spec, w, batch, z=None):
    """Incremental-table direction; refreshes the batch slots in place.

    Fresh gradients for the batch enter at weight 1/|B|; out-of-batch stored
    gradients enter at weight 1/n, so the stale remainder is averaged over
    the whole dataset and the direction collapses to the full gradient at
    |B| = n. Work is O(|B| * nnz) per call. ``z`` is the batch's signed
    margins when the caller has them.
    """
    data = spec.data
    n = data.n
    k = len(batch)
    if z is None:
        z = margins(data, w, batch)
    c = slope_t(spec.loss, z)
    # slots never refreshed hold slope 0, so the change is c - stored in every slot
    table.aggregate += scatter(data, c - table.slopes[batch], batch)
    table.slopes[batch] = c
    fresh = scatter(data, c, batch)
    if k == n:
        # out-of-batch set is empty; the stale term is exactly zero
        return fresh / k + spec.reg.lambda2 * w
    return fresh / k + (table.aggregate - fresh) / n + spec.reg.lambda2 * w


def saag2_direction(spec, w, batch, snap, z=None):
    """Biased snap-point direction:
    (1/|B|) sum_B grad f_i(w) - (1/n) sum_B grad f_i(w~) + mu~.

    The asymmetric 1/|B| vs 1/n scaling is what makes the estimator biased;
    the mean over a partition of equal batches is
    grad f(w) + ((m-1)/m) grad f(w~). Each component gradient carries its l2
    share at its own evaluation point, so the identity holds exactly for any
    lambda2. The snap term reads the stored slopes c~_B; ``z`` is as in
    ``saag1_direction``.
    """
    n = spec.data.n
    k = len(batch)
    lam2 = spec.reg.lambda2
    cur = slope_sum(spec, w, batch, z)
    old = _snap_term(spec.data, snap, batch)
    return (cur / k - old / n
            + lam2 * w - (k / n) * lam2 * snap.point
            + snap.grad)


def svrg_direction(spec, w, batch, snap, z=None):
    """Unbiased control-variate direction:
    (1/|B|) sum_B (grad f_i(w) - grad f_i(w~)) + mu~.

    At w = w~ the correction cancels exactly and the direction equals mu~.
    ``z`` is as in ``saag1_direction``.
    """
    k = len(batch)
    cur = slope_sum(spec, w, batch, z)
    old = _snap_term(spec.data, snap, batch)
    return (cur - old) / k + spec.reg.lambda2 * (w - snap.point) + snap.grad


def direction(kind, spec, w, batch, table=None, snap=None, z=None):
    """The direction of solver ``kind`` at w over ``batch``: the table kinds
    read and refresh ``table``, the snap kinds read ``snap``. ``z`` is the
    batch's signed margins when the caller has them."""
    if kind in TABLE_KINDS:
        return saag1_direction(table, spec, w, batch, z)
    if kind in ("saag2", "saag4"):
        return saag2_direction(spec, w, batch, snap, z)
    if kind in ("svrg", "vrsgd"):
        return svrg_direction(spec, w, batch, snap, z)
    if kind in ("gd", "sgd"):
        return batch_grad(spec, w, batch, z)
    raise ValueError(f"unknown estimator kind {kind!r}")


def estimator_mean_bruteforce(kind, spec, w, state, schedule):
    """Exact mean of an estimator over every batch of a schedule.

    ``state`` is the table of a table kind, else the snap state (None for
    GD/SGD). Each batch starts from a copy of the table, so every batch sees
    the same starting table. Only enumerable problems are accepted (n <= 64).
    """
    n = spec.data.n
    if n > ENUMERATION_CAP:
        raise ValueError(f"n = {n} too large to enumerate (cap {ENUMERATION_CAP})")
    table, snap = (state, None) if kind in TABLE_KINDS else (None, state)
    total = np.zeros(spec.data.d)
    for batch in schedule.batches:
        total += direction(kind, spec, w, batch, copy.deepcopy(table), snap)
    return total / schedule.m
