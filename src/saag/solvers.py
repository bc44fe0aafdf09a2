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

import numpy as np

from .data import make_schedule
from .estimators import (TABLE_KINDS, GradTable, SnapState, direction,
                         make_table, plan_snap_terms, take_snapshot)
from .harness import Trace, record_epoch
from .line_search import SBASParams, backtrack
from .objective import (CURVATURE, batch_grad, batch_ray, loss_t, margins,
                        prox, scatter)

SOLVERS = ("saag1", "saag2", "saag3", "saag4", "svrg", "vrsgd", "gd", "sgd")

POWER_PASSES = 30       # behind the reference optimum's first estimate of L
MAX_DOUBLINGS = 60      # of L, while one reference iteration seeks its step
DECAY = 0.9             # of L, tried first after an accepted reference step
GAP = 1e-13             # of lambda2 * F: bound on a squared reference certificate


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
        if self.fixed_eta is not None and not 0.0 < self.fixed_eta < math.inf:
            raise ValueError(f"fixed step {self.fixed_eta} must be finite and > 0")


def init_state(config):
    spec = config.objective
    if config.w0 is None:
        w = np.zeros(spec.data.d)
    else:
        w = np.asarray(config.w0, dtype=np.float64).copy()
    state = EpochState(w=w, iterate_sum=np.zeros(spec.data.d))
    if config.solver in TABLE_KINDS:
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
    # the batch's signed margins serve both the direction and the search
    z = margins(spec.data, state.w, batch)
    d = direction(kind, spec, state.w, batch, state.table, state.snap, z)
    # a snap kind counts its snap term too: grads is the algorithm's logical
    # count, although the snap slopes are read from the snapshot's pass
    c.grads += len(batch) * (1 if state.snap is None else 2)
    dd = float(d @ d)
    # a finite d whose d.d overflows (entries past ~1e154) still runs
    if not math.isfinite(dd) and not np.isfinite(d).all():
        raise NonFiniteDirection(
            f"{kind}: non-finite direction at epoch {state.epoch}, "
            f"inner step {c.inner}")
    c.inner += 1
    if fixed_eta is not None:
        eta = fixed_eta
    elif kind == "sgd":
        eta = sbas_params.eta0 / math.sqrt(c.inner)
    else:
        phi = batch_ray(spec, state.w, batch, d, z, dd)
        eta, evals = backtrack(sbas_params, phi, dd)
        c.fevals += evals
    if eta > 0.0:
        v = state.w - eta * d
        state.w = prox(v, eta, spec.reg) if spec.reg.lambda1 > 0 else v
    state.iterate_sum += state.w
    return state


def run_epoch(kind, state, spec, schedule, sbas_params, fixed_eta=None):
    """One epoch: snap bookkeeping, m inner steps, boundary rule. The
    batches are gathered, and their snap terms formed, a chunk at a time
    (``Dataset.plan``).

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
    for batches, rows, gathered in spec.data.plan(schedule):
        if state.snap is not None:
            plan_snap_terms(spec, state.snap, batches, rows, gathered)
        for batch in batches:
            inner_step(kind, state, spec, batch, sbas_params, fixed_eta)
    if kind == "saag3":
        state.w = state.iterate_sum / schedule.m
    elif kind in ("saag4", "vrsgd"):
        state.avg_prev = state.iterate_sum / schedule.m
    state.epoch += 1
    return state


def run(config, test=None):
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


def _top_eigenvalue(data):
    """lambda_max(X^T X), which the signed rows share, from below, by power
    iteration from a vector of ones; 0.0 when a pass meets ||X u|| = 0."""
    u = np.full(data.d, 1.0 / math.sqrt(data.d))
    for _ in range(POWER_PASSES):
        q = margins(data, u)
        top = float(q @ q)      # u^T X^T X u with ||u|| = 1
        if top == 0.0:
            break
        u = scatter(data, q)
        u /= math.sqrt(float(u @ u))
    return top


def reference_optimum(spec, budget=500):
    """High-accuracy minimizer of the composite objective, for suboptimality.

    Restarted FISTA from w = 0 (Beck & Teboulle 2009; O'Donoghue & Candes
    2015) at a local step 1/L of the full mean loss (Scheinberg, Goldfarb &
    Bai 2014): L starts at CURVATURE * lambda_max(X^T X) / n + lambda2,
    doubles until the quadratic upper bound holds, and after each step that
    lowers F the next iteration first tries DECAY * L, never below lambda2
    nor 2^-(MAX_DOUBLINGS // 2) of the first L. It stops, converged, once
    a subgradient s of F has ||s||^2 <= lambda2 * GAP * F, so
    F(p) - F* <= ||s||^2 / (2 lambda2) <= 5e-14 * F by strong convexity
    whatever L the bound held at, or at a rounding fixed point; unconverged
    after max(2000, 20 * budget) iterations. With lambda1 = 0, s is the
    gradient mapping L(v - p), the gradient at v, and F(p) <= F(v) where
    the bound holds. With lambda1 > 0 the gradient mapping is no
    subgradient; once it passes the test, s = grad f(p) - grad f(v) +
    L(v - p), which lies in dF(p) by the prox's optimality condition, must
    pass too, at the cost of one more pass over X^T. The certificate needs
    lambda2 > 0: with lambda2 = 0 the loop stops converged only where a
    step no longer moves p or no longer lowers F, and otherwise runs to its
    cap unconverged. Each iteration takes one pass over X and one over
    X^T, in the layout the dataset chose (``Dataset.block``).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    data, n = spec.data, spec.data.n
    lam1, lam2 = spec.reg.lambda1, spec.reg.lambda2

    def smooth(z, w):
        return float(loss_t(spec.loss, z).sum()) / n + 0.5 * lam2 * float(w @ w)

    # when the power iteration meets the null space, the trace bound
    top = _top_eigenvalue(data) or float(data.values @ data.values)
    # f is constant when both terms vanish, and any step fits
    lipschitz = CURVATURE[spec.loss] * top / n + lam2 or 1.0
    # below lambda2 no step fits but by rounding; the second bound keeps the
    # global L within MAX_DOUBLINGS of any L the decay reaches when lambda2 = 0
    floor = max(lam2, lipschitz * 2.0 ** -(MAX_DOUBLINGS // 2))

    w, zw = np.zeros(data.d), np.zeros(n)
    fw = smooth(zw, w)
    v, zv, t, restarted = w, zw, 1.0, True      # as after a momentum restart
    for iterations in range(1, _iteration_cap(budget) + 1):
        # zv is extrapolated unless v = w; as it drifts from X v it can fail
        fresh = restarted   # the bound test, so form it afresh before L grows
        g, fv = batch_grad(spec, v, z=zv), smooth(zv, v)
        for _ in range(MAX_DOUBLINGS):
            step = 1.0 / lipschitz
            p = prox(v - step * g, step, spec.reg)
            zp = margins(data, p)
            fp = smooth(zp, p)
            move = p - v
            if fp <= fv + float(g @ move) + 0.5 * lipschitz * float(move @ move):
                break
            if fresh:
                lipschitz *= 2.0
            else:
                zv = margins(data, v)
                g, fv, fresh = batch_grad(spec, v, z=zv), smooth(zv, v), True
        else:               # no L fits: v is a fixed point up to rounding
            converged = True
            break
        fp += lam1 * float(np.abs(p).sum())
        bound = lam2 * GAP * fw
        converged = lipschitz ** 2 * float(move @ move) <= bound
        if converged and lam1 > 0.0:
            s = batch_grad(spec, p, z=zp) - g - lipschitz * move
            converged = float(s @ s) <= bound
        if fp < fw:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            v, zv = p + beta * (p - w), zp + beta * (zp - zw)
            w, zw, fw, t, restarted = p, zp, fp, t_new, False
            lipschitz = max(DECAY * lipschitz, floor)
        elif restarted:     # a step from w cannot raise F but by rounding
            converged = True
        else:               # F failed to fall: restart the momentum
            v, zv, t, restarted = w, zw, 1.0, True
        if converged:
            break
    return ReferenceResult(w, fw, converged, iterations)
