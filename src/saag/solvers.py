"""Epoch-structured drivers for the SAAG family and baselines.

Every solver shares the same inner step: build a direction from its
estimator, pick a step size with the stochastic Armijo search (or a fixed /
scheduled step), then apply the smooth update w <- w - eta*d when lambda1 = 0
or the proximal update w <- prox(w - eta*d) otherwise. The solvers differ in
their estimator and in the epoch-boundary rules for the snap point and the
starting iterate: one ``KINDS`` row per solver.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import make_schedule
from .estimators import GradTable, SnapState, bind, make_table, take_snapshot
from .harness import Trace, record_epoch
from .line_search import SBASParams, backtrack
from .objective import (CURVATURE, batch_grad, batch_ray, batch_smooth_value,
                        margins, operand, prox, scatter)


@dataclass(frozen=True)
class Kind:
    """One solver's rules; "last" and "average" are the previous epoch's."""
    family: str                 # of estimators.bind
    snap: str | None = None     # each epoch's snap point: "last" or "average"
    start: str = "last"         # each epoch's start: "last" or "average"
    full_batch: bool = False    # gd: b = n
    decay: bool = False         # sgd: eta0 / sqrt(t) unless the step is fixed


KINDS = {
    "saag1": Kind("table"),
    "saag2": Kind("biased", snap="last"),
    "saag3": Kind("table", start="average"),
    "saag4": Kind("biased", snap="average"),
    "svrg": Kind("unbiased", snap="last"),
    "vrsgd": Kind("unbiased", snap="average"),
    "gd": Kind("batch", full_batch=True),
    "sgd": Kind("batch", decay=True),
}
SOLVERS = tuple(KINDS)

POWER_PASSES = 30       # behind the reference optimum's first estimate of L
MAX_DOUBLINGS = 60      # of L, while one reference iteration seeks its step
DECAY = 0.9             # of L, tried first after an accepted reference step
GAP = 1e-13             # of lambda2 * F: bound on a squared reference certificate
TRACE_ACCURACY = 1e-6   # of the traces' smallest gap: the reference's stop


class NonFiniteDirection(RuntimeError):
    """A solver produced a non-finite direction; the run is aborted."""


@dataclass(eq=False)
class EpochState:
    """Mutable state of one solver run: the iterate, the previous epoch's
    iterate average (zeros unless the kind uses it and has run an epoch),
    the snap state or gradient table, and the work counters."""

    w: np.ndarray
    average: np.ndarray
    epoch: int = 0
    snap: SnapState | None = None
    table: GradTable | None = None
    grads: int = 0
    fevals: int = 0
    inner: int = 0
    work_seconds: float = 0.0


@dataclass(eq=False)
class RunConfig:
    """Everything one solver run needs; deterministic given the seed.
    Gradient descent steps on every row, so its ``batch_size`` is set to n."""

    solver: str
    objective: object
    epochs: int
    batch_size: int
    sbas: SBASParams = SBASParams()
    seed: int = 0
    fixed_eta: float | None = None

    def __post_init__(self):
        if self.solver not in KINDS:
            raise ValueError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        n = self.objective.data.n
        if not 1 <= self.batch_size <= n:
            raise ValueError(f"batch size {self.batch_size} out of range [1, {n}]")
        if KINDS[self.solver].full_batch:
            self.batch_size = n
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.fixed_eta is not None and not 0.0 < self.fixed_eta < math.inf:
            raise ValueError(f"fixed step {self.fixed_eta} must be finite and > 0")


def init_state(config):
    spec = config.objective
    table = make_table(spec) if KINDS[config.solver].family == "table" else None
    return EpochState(w=np.zeros(spec.data.d), average=np.zeros(spec.data.d),
                      table=table)


def inner_step(kind, direct, state, spec, batch, sbas_params, fixed_eta=None):
    """One mini-batch step of solver ``kind``: the direction
    ``direct(w, batch, z)`` (its estimator, bound by ``run_epoch``), step
    size and update. ``fixed_eta`` is > 0, a float or, as ``run`` passes
    it, an ``operand``.

    A step size of 0 (the line-search sentinel) leaves w unchanged but still
    advances the counters.
    """
    # the batch's signed margins serve both the direction and the search
    z = margins(spec.data, state.w, batch)
    d = direct(state.w, batch, z)
    # a snap kind counts its snap term too: grads is the algorithm's logical
    # count, although the snap slopes are read from the snapshot's pass
    state.grads += len(batch) * (1 if state.snap is None else 2)
    dd = float(d.dot(d))
    # a finite d whose d.d overflows (entries past ~1e154) still runs
    if not math.isfinite(dd) and not np.isfinite(d).all():
        raise NonFiniteDirection(
            f"{kind}: non-finite direction at epoch {state.epoch}, "
            f"inner step {state.inner}")
    state.inner += 1
    if fixed_eta is not None:
        eta = fixed_eta
    else:
        if KINDS[kind].decay:
            eta = sbas_params.eta0 / math.sqrt(state.inner)
        else:
            phi = batch_ray(spec, state.w, batch, d, z, dd)
            eta, evals = backtrack(sbas_params, phi, dd)
            state.fevals += evals
        if not eta > 0.0:       # the sentinel: w stays
            return state
    v = state.w - eta * d
    # prox's scalar work on eta is faster on a float
    state.w = prox(v, float(eta), spec.lambda1) if spec.lambda1 > 0 else v
    return state


def run_epoch(kind, state, spec, schedule, sbas_params, fixed_eta=None):
    """One epoch: snap bookkeeping, m inner steps, boundary rule, as the
    kind's ``KINDS`` row says; a kind using ``state.average`` sets it to the
    mean of the epoch's m iterates. The estimator is bound to the epoch's
    table or snap state once, and the batches are gathered a chunk at a time
    (``Dataset.plan``). Overflow is not reported inside the snapshot and the
    steps: a logistic slope whose exp(-t) overflows is the exact +0.0, a
    finite direction whose d.d overflows still steps, and a non-finite one
    raises ``NonFiniteDirection``.
    """
    row = KINDS[kind]
    averaging = "average" in (row.snap, row.start)
    total = np.zeros_like(state.w)
    with np.errstate(over="ignore"):
        if row.snap is not None:
            anchor = state.average if row.snap == "average" else state.w
            state.snap = take_snapshot(spec, anchor)
            state.grads += spec.data.n
        direct = bind(row.family, spec, state.table, state.snap)
        for batch in spec.data.plan(schedule):
            inner_step(kind, direct, state, spec, batch, sbas_params, fixed_eta)
            if averaging:
                total += state.w
    if averaging:
        state.average = total / schedule.m
    if row.start == "average":
        state.w = state.average
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
    fixed_eta = None if config.fixed_eta is None else operand(config.fixed_eta)
    state = init_state(config)
    trace = Trace(solver=kind, seed=config.seed, points=[],
                  config=_config_echo(config))
    record_epoch(trace, state, spec, test)
    for s in range(config.epochs):
        schedule = make_schedule(spec.data.n, config.batch_size, config.seed,
                                 epoch=s)
        start = time.perf_counter()
        try:
            run_epoch(kind, state, spec, schedule, config.sbas, fixed_eta)
        except NonFiniteDirection as err:
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
        "l2": config.objective.lambda2,
        "l1": config.objective.lambda1,
        "eta0": config.sbas.eta0,
        "alpha": config.sbas.alpha,
        "shrink": config.sbas.shrink,
        "max_backtracks": config.sbas.max_backtracks,
        "fixed_eta": config.fixed_eta,
    }


@dataclass(eq=False)
class ReferenceResult:
    """``bound`` >= value - F*, certified; NaN without a certificate (a
    rounding exit, the cap, or lambda2 = 0)."""
    w: np.ndarray
    value: float
    converged: bool
    iterations: int
    bound: float


def _iteration_cap(budget):
    """Most iterations the reference optimum takes for a ``budget``."""
    return max(2000, 20 * budget)


def _top_eigenvalue(data):
    """lambda_max(X^T X), which the signed rows share, from below, by power
    iteration from a vector of ones; 0.0 when a pass meets ||X u|| = 0."""
    u = np.full(data.d, 1.0 / math.sqrt(data.d))
    for _ in range(POWER_PASSES):
        q = margins(data, u)
        top = float(q.dot(q))   # u^T X^T X u with ||u|| = 1
        if top == 0.0:
            break
        u = scatter(data, q)
        u /= math.sqrt(float(u.dot(u)))
    return top


def reference_optimum(spec, budget=500, best=-math.inf):
    """High-accuracy minimizer of the composite objective, for suboptimality.

    Restarted FISTA from w = 0 (Beck & Teboulle 2009; O'Donoghue & Candes
    2015) at a local step 1/L of the full mean loss (Scheinberg, Goldfarb &
    Bai 2014): L starts at CURVATURE * lambda_max(X^T X) / n + lambda2,
    doubles until the quadratic upper bound holds, and after each step that
    lowers F the next iteration first tries DECAY * L, never below lambda2
    nor 2^-(MAX_DOUBLINGS // 2) of the first L. It stops, converged, once
    a subgradient s of F has
    ||s||^2 <= lambda2 * max(GAP * F, 2 * TRACE_ACCURACY * (best - F)), so
    F(p) - F* <= ||s||^2 / (2 lambda2) <= max(5e-14 * F, 1e-6 * (best - F))
    by strong convexity whatever L the bound held at (the result's
    ``bound``), or at a rounding fixed point; unconverged after
    max(2000, 20 * budget) iterations. ``best`` is the lowest objective the
    traces reached: a gap best - F* then reads within a relative 1e-6 of
    its true value. A ``best`` that is NaN, infinite or <= F leaves the
    5e-14 * F stop, and so the iterates, as without it; the iterates up to
    the stop never depend on ``best``. With lambda1 = 0, s is the
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
    lam1, lam2 = spec.lambda1, spec.lambda2

    # when the power iteration meets the null space, the trace bound
    top = _top_eigenvalue(data) or float(data.values.dot(data.values))
    # f is constant when both terms vanish, and any step fits
    lipschitz = CURVATURE[spec.loss] * top / n + lam2 or 1.0
    # below lambda2 no step fits but by rounding; the second bound keeps the
    # global L within MAX_DOUBLINGS of any L the decay reaches when lambda2 = 0
    floor = max(lam2, lipschitz * 2.0 ** -(MAX_DOUBLINGS // 2))

    w, zw = np.zeros(data.d), np.zeros(n)
    fw = batch_smooth_value(spec, w, z=zw)
    v, zv, t, restarted = w, zw, 1.0, True      # as after a momentum restart
    certified = math.nan
    for iterations in range(1, _iteration_cap(budget) + 1):
        # zv is extrapolated unless v = w; as it drifts from X v it can fail
        fresh = restarted   # the bound test, so form it afresh before L grows
        g, fv = batch_grad(spec, v, z=zv), batch_smooth_value(spec, v, z=zv)
        for _ in range(MAX_DOUBLINGS):
            step = 1.0 / lipschitz
            p = prox(v - step * g, step, lam1)
            zp = margins(data, p)
            fp = batch_smooth_value(spec, p, z=zp)
            move = p - v
            moved = float(move.dot(move))
            if fp <= fv + float(g.dot(move)) + 0.5 * lipschitz * moved:
                break
            if fresh:
                lipschitz *= 2.0
            else:
                zv = margins(data, v)
                g, fv = batch_grad(spec, v, z=zv), batch_smooth_value(spec, v, z=zv)
                fresh = True
        else:               # no L fits: v is a fixed point up to rounding
            converged = True
            break
        fp += lam1 * float(np.abs(p).sum())
        bound = lam2 * GAP * fw
        if best - fw < math.inf:    # false at a NaN or infinite best
            bound = max(bound, 2.0 * lam2 * TRACE_ACCURACY * (best - fw))
        squared = lipschitz ** 2 * moved
        if squared <= bound and lam1 > 0.0:
            s = batch_grad(spec, p, z=zp) - g - lipschitz * move
            squared = float(s.dot(s))
        converged = squared <= bound
        if converged and lam2 > 0.0:
            certified = squared / (2.0 * lam2)
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
    return ReferenceResult(w, fw, converged, iterations, certified)
