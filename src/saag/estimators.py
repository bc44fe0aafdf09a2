"""Gradient-direction constructions for the solver family.

Four estimators are provided: the SAAG-I/III incremental gradient table, the
biased SAAG-II/IV snap-point estimator (fresh batch term at 1/b, stale snap
term at 1/n), the unbiased SVRG/VR-SGD estimator (both terms at 1/b), and the
plain mini-batch gradient of GD/SGD. Each estimator gives its own term, the
scatter of its slopes; ``bind_term`` maps a family of ``solvers.KINDS`` to
it, bound to the table or snap state of an epoch. The d-vector terms of
every family (the l2 term, the snap point's and mu~) are ``Terms``, added on
a stack of runs at once; ``bind`` gives one run's whole direction as a stack
of one. The l2 contribution is always applied analytically at the point
each term is evaluated at, never from stale storage. The scalar operands
(k, n, lambda2) are the spec's 0-d ``scalars``. The caller passes the batch
as its row ids and its signed rows x (``Dataset.gather``), and ``c``, the
batch's slopes at w: ``slope_t`` of its signed margins.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .objective import margins, scatter, slope_t

FAMILIES = ("table", "batch", "biased", "unbiased")     # a stack's row order


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


def saag1_term(table, spec, scatter, rows, x, c):
    """Incremental-table term; refreshes the batch slots in place.

    Fresh gradients for the batch enter at weight 1/|B|; out-of-batch stored
    gradients enter at weight 1/n, so the stale remainder is averaged over
    the whole dataset and the direction collapses to the full gradient at
    |B| = n. Work is O(|B| * nnz) per call.
    """
    size = len(rows)
    k, n, _, _ = spec.scalars(size)
    # slots never refreshed hold slope 0, so the change is c - stored in every slot
    table.aggregate += scatter(c - table.slopes[rows], x)
    table.slopes[rows] = c
    fresh = scatter(c, x)
    if size == spec.data.n:
        # out-of-batch set is empty; the stale term is exactly zero
        return fresh / k
    return fresh / k + (table.aggregate - fresh) / n


def saag2_term(snap, spec, scatter, rows, x, c):
    """Biased snap-point term of
    (1/|B|) sum_B grad f_i(w) - (1/n) sum_B grad f_i(w~) + mu~.

    The asymmetric 1/|B| vs 1/n scaling is what makes the estimator biased;
    the mean over a partition of equal batches is
    grad f(w) + ((m-1)/m) grad f(w~). Each component gradient carries its l2
    share at its own evaluation point (``Terms``), so the identity holds
    exactly for any lambda2. For a linear model both sums run over the
    batch's signed rows, so the term is one scatter of c_i/|B| - c~_i/n
    over B, with c~_B/n read from the snapshot.
    """
    k = spec.scalars(len(rows))[0]
    return scatter(c / k - snap.scaled[rows], x)


def svrg_term(snap, spec, scatter, rows, x, c):
    """Unbiased control-variate term of
    (1/|B|) sum_B (grad f_i(w) - grad f_i(w~)) + mu~, one scatter of
    (c_i - c~_i)/|B| over B.

    At w = w~ the slopes cancel exactly and the direction equals mu~.
    """
    k = spec.scalars(len(rows))[0]
    return scatter((c - snap.slopes[rows]) / k, x)


def batch_term(spec, scatter, rows, x, c):
    """Plain mini-batch gradient term of GD/SGD: one scatter of c_i/|B|
    over B (``objective.batch_grad`` from the slopes)."""
    return scatter(c, x) / spec.scalars(len(rows))[0]


def bind_term(family, spec, table=None, snap=None):
    """The term of ``family`` as a function of (rows, x, c): "table" reads
    and refreshes ``table``, "biased" and "unbiased" read ``snap``. A solver
    binds once per epoch, so its steps pay no dispatch. On a dense block
    the scatter is bound as ``np.ndarray.dot``, the call
    ``objective.scatter`` makes there, without its Python frame and layout
    test."""
    data = spec.data
    dot = np.ndarray.dot if data.block is not None else partial(scatter, data)
    if family == "table":
        return partial(saag1_term, table, spec, dot)
    if family == "biased":
        return partial(saag2_term, snap, spec, dot)
    if family == "unbiased":
        return partial(svrg_term, snap, spec, dot)
    if family == "batch":
        return partial(batch_term, spec, dot)
    raise ValueError(f"unknown estimator family {family!r}")


class Terms:
    """The d-vector terms of a stack of runs whose rows are in ``FAMILIES``
    order, from each row's family and snap state (None without one).
    ``add`` puts them in place on the stacked terms of the runs' estimators,
    one ufunc call per family slice: lambda2 w on table, batch and biased
    rows, lambda2 (w - w~) on unbiased ones, -(k/n) lambda2 w~ on biased
    ones and mu~ on both snap families. A row's terms come in the order of
    its run's direction on its own, on the same operands, so every row has
    that direction's bits."""

    def __init__(self, families, snaps):
        k = len(families)
        first = sum(family in ("table", "batch") for family in families)
        unbiased = first + families.count("biased")
        point = np.array([snap.point for snap in snaps[first:]])
        self.grad = np.array([snap.grad for snap in snaps[first:]])
        # each family slice of rows, None when it is empty
        self.plain = slice(unbiased) if unbiased else None
        self.snapped = slice(first, None) if first < k else None
        self.biased = ((slice(first, unbiased), point[:unbiased - first])
                       if first < unbiased else None)
        self.unbiased = ((slice(unbiased, None), point[unbiased - first:])
                         if unbiased < k else None)

    def add(self, spec, size, d, w):
        """The directions of the (k, d) stacked terms ``d`` at the iterates
        ``w``, for a batch of ``size`` rows, in place."""
        _, _, lam2, share = spec.scalars(size)
        if self.plain is not None:
            rows = d[self.plain]
            rows += lam2 * w[self.plain]
        if self.biased is not None:
            at, point = self.biased
            rows = d[at]
            rows -= share * point
        if self.unbiased is not None:
            at, point = self.unbiased
            step = w[at] - point
            step *= lam2        # lambda2 (w - w~) with no second temporary
            rows = d[at]
            rows += step
        if self.snapped is not None:
            rows = d[self.snapped]
            rows += self.grad
        return d


def bind(family, spec, table=None, snap=None):
    """The direction of one run of ``family`` as a function of
    (w, rows, x, c): its term (``bind_term``) plus the family's terms
    (``Terms``), as a stack of one."""
    term, terms = bind_term(family, spec, table, snap), Terms([family], [snap])
    return lambda w, rows, x, c: terms.add(spec, len(rows), term(rows, x, c)[None],
                                           w[None])[0]


def saag1_direction(table, spec, w, rows, x, c):
    """One SAAG-I/III direction (``saag1_term``), through ``bind``."""
    return bind("table", spec, table)(w, rows, x, c)


def saag2_direction(snap, spec, w, rows, x, c):
    """One SAAG-II/IV direction (``saag2_term``), through ``bind``."""
    return bind("biased", spec, snap=snap)(w, rows, x, c)


def svrg_direction(snap, spec, w, rows, x, c):
    """One SVRG/VR-SGD direction (``svrg_term``), through ``bind``."""
    return bind("unbiased", spec, snap=snap)(w, rows, x, c)
