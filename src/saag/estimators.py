"""Gradient-direction constructions for the solver family.

Four estimators are provided: the SAAG-I/III incremental gradient table, the
biased SAAG-II/IV snap-point estimator (fresh batch term at 1/b, stale snap
term at 1/n), the unbiased SVRG/VR-SGD estimator (both terms at 1/b), and the
plain mini-batch direction. The l2 contribution is always applied analytically
at the point each term is evaluated at, never from stale storage.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .objective import batch_grad, full_grad, margins, scatter, slope, slope_sum

ENUMERATION_CAP = 64


@dataclass(eq=False)
class SnapState:
    """Snap point w~ with its full smooth gradient, recomputed on every move."""

    point: np.ndarray
    grad: np.ndarray


def take_snapshot(spec, w):
    """Freeze a snap point and compute its full gradient (n evaluations)."""
    w = np.asarray(w, dtype=np.float64)
    return SnapState(w.copy(), full_grad(spec, w))


@dataclass(eq=False)
class GradTable:
    """Per-point gradient storage for the incremental (table) estimators.

    Gradients of linear-model losses are collinear with the data row, so one
    slope per point suffices; ``aggregate`` maintains the dense sum of all
    stored slope * x_i incrementally. Slots start at zero with ``known``
    False, so no hidden full-gradient pass is needed at startup.
    """

    slopes: np.ndarray
    known: np.ndarray
    aggregate: np.ndarray


def make_table(spec):
    return GradTable(np.zeros(spec.data.n), np.zeros(spec.data.n, dtype=bool),
                     np.zeros(spec.data.d))


def table_aggregate_recomputed(table, spec):
    """Dense sum implied by the stored slots; debug check for drift."""
    return scatter(spec.data, np.where(table.known, table.slopes, 0.0))


def saag1_direction(table, spec, w, batch):
    """Incremental-table direction; refreshes the batch slots in place.

    Fresh gradients for the batch enter at weight 1/|B|; out-of-batch stored
    gradients enter at weight 1/n, so the stale remainder is averaged over
    the whole dataset and the direction collapses to the full gradient at
    |B| = n. Work is O(|B| * nnz) per call.
    """
    data = spec.data
    n = data.n
    k = len(batch)
    c = slope(spec.loss, margins(data, w, batch), data.labels[batch])
    # unknown slots hold slope 0, so the change is c - stored in every slot
    table.aggregate += scatter(data, c - table.slopes[batch], batch)
    table.slopes[batch] = c
    table.known[batch] = True
    fresh = scatter(data, c, batch)
    if k == n:
        # out-of-batch set is empty; the stale term is exactly zero
        return fresh / k + spec.reg.lambda2 * w
    return fresh / k + (table.aggregate - fresh) / n + spec.reg.lambda2 * w


def saag2_direction(spec, w, batch, snap, snap_denom=None):
    """Biased snap-point direction:
    (1/|B|) sum_B grad f_i(w) - (1/n) sum_B grad f_i(w~) + mu~.

    The asymmetric 1/|B| vs 1/n scaling is what makes the estimator biased;
    the mean over a partition of equal batches is
    grad f(w) + ((m-1)/m) grad f(w~). Each component gradient carries its l2
    share at its own evaluation point, so the identity holds exactly for any
    lambda2. ``snap_denom`` exists only to inject a wrong scaling for
    mutation checks; leave it None for the real estimator.
    """
    n = spec.data.n
    denom = n if snap_denom is None else snap_denom
    k = len(batch)
    lam2 = spec.reg.lambda2
    cur = slope_sum(spec, w, batch)
    old = slope_sum(spec, snap.point, batch)
    return (cur / k - old / denom
            + lam2 * w - (k / denom) * lam2 * snap.point
            + snap.grad)


def svrg_direction(spec, w, batch, snap):
    """Unbiased control-variate direction:
    (1/|B|) sum_B (grad f_i(w) - grad f_i(w~)) + mu~.

    At w = w~ the correction cancels exactly and the direction equals mu~.
    """
    k = len(batch)
    cur = slope_sum(spec, w, batch)
    old = slope_sum(spec, snap.point, batch)
    return (cur - old) / k + spec.reg.lambda2 * (w - snap.point) + snap.grad


def sgd_direction(spec, w, batch):
    """Plain mini-batch gradient, no control variate."""
    return batch_grad(spec, w, batch)


def estimator_mean_bruteforce(kind, spec, w, state, schedule, snap_denom=None):
    """Exact mean of an estimator over every batch of a schedule.

    Table state is reset between evaluations so each batch sees the same
    starting table. Only enumerable problems are accepted (n <= 64).
    """
    n = spec.data.n
    if n > ENUMERATION_CAP:
        raise ValueError(f"n = {n} too large to enumerate (cap {ENUMERATION_CAP})")
    total = np.zeros(spec.data.d)
    for batch in schedule.batches:
        if kind in ("saag1", "saag3"):
            table = copy.deepcopy(state)
            total += saag1_direction(table, spec, w, batch)
        elif kind in ("saag2", "saag4"):
            total += saag2_direction(spec, w, batch, state, snap_denom=snap_denom)
        elif kind in ("svrg", "vrsgd"):
            total += svrg_direction(spec, w, batch, state)
        elif kind == "sgd":
            total += sgd_direction(spec, w, batch)
        else:
            raise ValueError(f"unknown estimator kind {kind!r}")
    return total / schedule.m
