"""Epoch-structured drivers for the SAAG family and baselines.

Every solver shares the same inner step: build a direction from its
estimator, pick a step size with the stochastic Armijo search (or a fixed /
scheduled step), then apply the smooth update w <- w - eta*d when lambda1 = 0
or the proximal update w <- prox(w - eta*d) otherwise. The solvers differ in
their estimator and in the epoch-boundary rules for the snap point and the
starting iterate.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import make_schedule
from .estimators import (GradTable, SnapState, make_table, saag1_direction,
                         saag2_direction, sgd_direction, svrg_direction,
                         take_snapshot)
from .harness import Trace, record_epoch
from .line_search import SBASParams, backtrack
from .objective import batch_ray, loss, margins, prox, scatter, slope

SOLVERS = ("saag1", "saag2", "saag3", "saag4", "svrg", "vrsgd", "gd", "sgd")

_TABLE_KINDS = ("saag1", "saag3")

# Stored share of the n*d entries below which a full pass is cheaper in CSR
# than as a dense BLAS product (800x800 at 1%: 47 us against 435 us; the two
# cost the same near 5%).
DENSE_PASS_FILL = 0.05

# Bound on each loss's second derivative in the margin.
CURVATURE = {"logistic": 0.25, "squared_hinge": 2.0, "least_squares": 1.0}
POWER_PASSES = 30       # behind the reference optimum's first estimate of L
MAX_DOUBLINGS = 60      # of L, while one reference iteration seeks its step


class NonFiniteDirection(RuntimeError):
    """A solver produced a non-finite direction; the run is aborted."""


@dataclass
class Counters:
    grads: int = 0      # component-gradient evaluations
    fevals: int = 0     # line-search function evaluations
    inner: int = 0      # global inner-step count across epochs


@dataclass(eq=False)
class EpochState:
    """Mutable per-run state owned by a single solver run."""

    w: np.ndarray
    iterate_sum: np.ndarray
    epoch: int = 0
    snap: SnapState | None = None
    table: GradTable | None = None
    avg_prev: np.ndarray | None = None
    counters: Counters = field(default_factory=Counters)
    work_seconds: float = 0.0


@dataclass(eq=False)
class RunConfig:
    """Everything one solver run needs; deterministic given the seed."""

    solver: str
    objective: object
    epochs: int
    batch_size: int
    sbas: SBASParams = SBASParams()
    seed: int = 0
    fixed_eta: float | None = None
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        n = self.objective.data.n
        if not 1 <= self.batch_size <= n:
            raise ValueError(f"batch size {self.batch_size} out of range [1, {n}]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def init_state(config):
    spec = config.objective
    if config.w0 is None:
        w = np.zeros(spec.data.d)
    else:
        w = np.asarray(config.w0, dtype=np.float64).copy()
    state = EpochState(w=w, iterate_sum=np.zeros(spec.data.d))
    if config.solver in _TABLE_KINDS:
        state.table = make_table(spec)
    if config.solver in ("saag4", "vrsgd"):
        state.avg_prev = w.copy()
    return state


def inner_step(kind, state, spec, batch, sbas_params, fixed_eta=None):
    """One mini-batch step: direction, step size, update, iterate accumulation.

    A step size of 0 (the line-search sentinel) leaves w unchanged but still
    advances the counters and the iterate sum.
    """
    c = state.counters
    k = len(batch)
    if kind in _TABLE_KINDS:
        d = saag1_direction(state.table, spec, state.w, batch)
        c.grads += k
    elif kind in ("saag2", "saag4"):
        d = saag2_direction(spec, state.w, batch, state.snap)
        c.grads += 2 * k
    elif kind in ("svrg", "vrsgd"):
        d = svrg_direction(spec, state.w, batch, state.snap)
        c.grads += 2 * k
    elif kind in ("gd", "sgd"):
        d = sgd_direction(spec, state.w, batch)
        c.grads += k
    else:
        raise ValueError(f"unknown solver {kind!r}")
    if not np.all(np.isfinite(d)):
        raise NonFiniteDirection(
            f"{kind}: non-finite direction at epoch {state.epoch}, "
            f"inner step {c.inner}")
    c.inner += 1
    if fixed_eta is not None:
        eta = fixed_eta
    elif kind == "sgd":
        eta = sbas_params.eta0 / math.sqrt(c.inner)
    else:
        eta, evals = backtrack(sbas_params, batch_ray(spec, state.w, batch, d),
                               float(d @ d))
        c.fevals += evals
    if eta > 0.0:
        z = state.w - eta * d
        state.w = prox(z, eta, spec.reg) if spec.reg.lambda1 > 0 else z
    state.iterate_sum += state.w
    return state


def run_epoch(kind, state, spec, schedule, sbas_params, fixed_eta=None):
    """One epoch: snap bookkeeping, m inner steps, boundary rule.

    Snap rules at epoch start: saag2 and svrg anchor at the current iterate
    (the previous epoch's last point); saag4 and vrsgd anchor at the previous
    epoch's iterate average. Boundary rules at epoch end: saag3 restarts from
    the iterate average, saag4/vrsgd store the average for the next snap and
    keep the last iterate as the next start.
    """
    n = spec.data.n
    if kind in ("saag2", "svrg"):
        state.snap = take_snapshot(spec, state.w)
        state.counters.grads += n
    elif kind in ("saag4", "vrsgd"):
        state.snap = take_snapshot(spec, state.avg_prev)
        state.counters.grads += n
    state.iterate_sum[:] = 0.0
    for batch in schedule.batches:
        inner_step(kind, state, spec, batch, sbas_params, fixed_eta)
    if kind == "saag3":
        state.w = state.iterate_sum / schedule.m
    elif kind in ("saag4", "vrsgd"):
        state.avg_prev = state.iterate_sum / schedule.m
    state.epoch += 1
    return state


def run(config, test=None, metric_stride=1):
    """Run a solver for S epochs and record a trace point per epoch.

    The trace gets an epoch-0 baseline before any work. Metric evaluation is
    excluded from the recorded wall time and from the gradient counters. On a
    non-finite direction the run stops and the partial trace carries a
    failure marker. Returns (final w, Trace).
    """
    spec = config.objective
    kind = config.solver
    n = spec.data.n
    b = n if kind == "gd" else config.batch_size
    state = init_state(config)
    trace = Trace(solver=kind, seed=config.seed, points=[],
                  config=_config_echo(config))
    record_epoch(trace, state, spec, test)
    for s in range(config.epochs):
        schedule = make_schedule(n, b, config.seed, epoch=s)
        start = time.perf_counter()
        try:
            run_epoch(kind, state, spec, schedule, config.sbas, config.fixed_eta)
        except NonFiniteDirection as err:
            state.work_seconds += time.perf_counter() - start
            trace.failure = str(err)
            break
        state.work_seconds += time.perf_counter() - start
        if (s + 1) % metric_stride == 0 or s + 1 == config.epochs:
            record_epoch(trace, state, spec, test)
    return state.w, trace


def _config_echo(config):
    return {
        "solver": config.solver,
        "epochs": config.epochs,
        "b": config.batch_size,
        "seed": config.seed,
        "loss": config.objective.loss,
        "l2": config.objective.reg.lambda2,
        "l1": config.objective.reg.lambda1,
        "eta0": config.sbas.eta0,
        "alpha": config.sbas.alpha,
        "shrink": config.sbas.shrink,
        "max_backtracks": config.sbas.max_backtracks,
        "fixed_eta": config.fixed_eta,
    }


@dataclass(eq=False)
class ReferenceResult:
    w: np.ndarray
    value: float
    converged: bool
    iterations: int


def _iteration_cap(budget):
    """Most iterations the reference optimum takes for a ``budget``."""
    return max(2000, 20 * budget)


def _top_eigenvalue(xw, xtc, d):
    """lambda_max(X^T X) from below, by power iteration from a vector of
    ones; 0.0 when a pass meets ||X u|| = 0."""
    u = np.full(d, 1.0 / math.sqrt(d))
    for _ in range(POWER_PASSES):
        q = xw(u)
        top = float(q @ q)      # u^T X^T X u with ||u|| = 1
        if top == 0.0:
            break
        u = xtc(q)
        u /= math.sqrt(float(u @ u))
    return top


def reference_optimum(spec, budget=500):
    """High-accuracy minimizer of the composite objective, for suboptimality.

    Restarted FISTA from w = 0 (Beck & Teboulle 2009; O'Donoghue & Candes
    2015) at the step 1/L of the full mean loss: L starts at CURVATURE *
    lambda_max(X^T X) / n + lambda2 and doubles until the quadratic upper
    bound holds, so every accepted iterate lowers F. It stops, converged,
    once the gradient mapping L||p - v|| <= sqrt(lambda2 * 1e-13 * F), so
    F(p) - F* <= 5e-14 * F by strong convexity, or at a rounding fixed
    point; unconverged after max(2000, 20 * budget) iterations. Each
    iteration takes one pass over X and one over X^T, on a dense copy when
    at least 5% of the entries are stored and n*d <= Dataset.DENSE_LIMIT
    (BLAS beats the sparse kernel there), else on the CSR kernel.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    data = spec.data
    n, y = data.n, data.labels
    lam1, lam2 = spec.reg.lambda1, spec.reg.lambda2
    size = n * data.d
    if data.indices.size < DENSE_PASS_FILL * size or size > data.DENSE_LIMIT:
        xw, xtc = partial(margins, data), partial(scatter, data)
    else:
        x = data.dense()
        xw, xtc = x.__matmul__, x.T.__matmul__

    def smooth(z, w):
        return float(np.mean(loss(spec.loss, z, y))) + 0.5 * lam2 * float(w @ w)

    def grad(z, w):
        return xtc(slope(spec.loss, z, y)) / n + lam2 * w

    # when the power iteration meets the null space, the trace bound
    top = _top_eigenvalue(xw, xtc, data.d) or float(data.values @ data.values)
    # f is constant when both terms vanish, and any step fits
    lipschitz = CURVATURE[spec.loss] * top / n + lam2 or 1.0

    w, zw = np.zeros(data.d), np.zeros(n)
    fw = smooth(zw, w)
    v, zv, t, restarted = w, zw, 1.0, True      # as after a momentum restart
    for iterations in range(1, _iteration_cap(budget) + 1):
        # zv is extrapolated unless v = w; as it drifts from X v it can fail
        fresh = restarted   # the bound test, so form it afresh before L grows
        g, fv = grad(zv, v), smooth(zv, v)
        for _ in range(MAX_DOUBLINGS):
            step = 1.0 / lipschitz
            p = prox(v - step * g, step, spec.reg)
            zp = xw(p)
            fp = smooth(zp, p)
            move = p - v
            if fp <= fv + float(g @ move) + 0.5 * lipschitz * float(move @ move):
                break
            if fresh:
                lipschitz *= 2.0
            else:
                zv = xw(v)
                g, fv, fresh = grad(zv, v), smooth(zv, v), True
        else:               # no L fits: v is a fixed point up to rounding
            converged = True
            break
        fp += lam1 * float(np.abs(p).sum())
        converged = lipschitz ** 2 * float(move @ move) <= lam2 * 1e-13 * fw
        if fp < fw:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            v, zv = p + beta * (p - w), zp + beta * (zp - zw)
            w, zw, fw, t, restarted = p, zp, fp, t_new, False
        elif restarted:     # a step from w cannot raise F but by rounding
            converged = True
        else:               # F failed to fall: restart the momentum
            v, zv, t, restarted = w, zw, 1.0, True
        if converged:
            break
    return ReferenceResult(w, fw, converged, iterations)
