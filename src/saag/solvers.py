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
from .estimators import (GradTable, SnapState, make_table, saag1_direction,
                         saag2_direction, sgd_direction, svrg_direction,
                         take_snapshot)
from .harness import Trace, record_epoch
from .line_search import SBASParams, backtrack
from .objective import (batch_ray, estimate_constants, loss, margin_ray,
                        margins, prox, scatter, slope)

SOLVERS = ("saag1", "saag2", "saag3", "saag4", "svrg", "vrsgd", "gd", "sgd")

_TABLE_KINDS = ("saag1", "saag3")

# Stored share of the n*d entries below which a full pass is cheaper in CSR
# than as a dense BLAS product (800x800 at 1%: 47 us against 435 us; the two
# cost the same near 5%).
DENSE_PASS_FILL = 0.05


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


def reference_optimum(spec, budget=500):
    """High-accuracy minimizer of the composite objective, for suboptimality.

    Phase 1 runs `budget` full-gradient steps sized by the backtracking-Armijo
    search (proximal when lambda1 > 0); phase 2 polishes with an accelerated
    proximal-gradient sweep at fixed step 1/L, tracking the best objective
    ever seen. The result is flagged unconverged when the objective still
    moved by more than 1e-12 (relative) over the last ten polish iterations.
    Full passes use a dense copy of the training set, where BLAS beats the
    sparse kernel, when at least 5% of the entries are stored and the copy
    fits (n*d <= Dataset.DENSE_LIMIT); otherwise they use the CSR kernel.
    Each Armijo trial of phase 1 costs O(n) in margin space.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    data = spec.data
    y = data.labels
    lam1, lam2 = spec.reg.lambda1, spec.reg.lambda2
    size = data.n * data.d
    if data.indices.size < DENSE_PASS_FILL * size or size > data.DENSE_LIMIT:
        def xw(w):
            return margins(data, w)

        def xtc(c):
            return scatter(data, c)
    else:
        x = data.dense()

        def xw(w):
            return x @ w

        def xtc(c):
            return x.T @ c

    def smooth_grad(w, z):
        return xtc(slope(spec.loss, z, y)) / data.n + lam2 * w

    def total_value(w):
        return (float(np.mean(loss(spec.loss, xw(w), y))) + 0.5 * lam2 * float(w @ w)
                + lam1 * float(np.abs(w).sum()))

    w = np.zeros(data.d)
    params = SBASParams(alpha=0.1, shrink=0.5, eta0=1.0, max_backtracks=30)
    best_w = w.copy()
    best_f = total_value(w)
    for _ in range(budget):
        zw = xw(w)
        g = smooth_grad(w, zw)
        eta, _ = backtrack(params, margin_ray(spec.loss, lam2, y, zw, xw(g), w, g),
                           float(g @ g))
        if eta == 0.0:
            break
        z = w - eta * g
        w = prox(z, eta, spec.reg) if lam1 > 0 else z
        f = total_value(w)
        if f < best_f:
            best_f, best_w = f, w.copy()

    lipschitz = max(estimate_constants(spec).L, 1e-12)
    step = 1.0 / lipschitz
    polish = max(2000, 20 * budget)
    v = w.copy()
    t = 1.0
    f_prev = total_value(w)
    window = [f_prev]
    converged = False
    restarted = True        # v = w and t = 1, as after a momentum restart
    for it in range(polish):
        iterations = budget + it + 1
        g = smooth_grad(v, xw(v))
        z = v - step * g
        w_new = prox(z, step, spec.reg) if lam1 > 0 else z
        f_new = total_value(w_new)
        if f_new > f_prev:
            if restarted:
                # a 1/L prox-gradient step from w cannot raise F in exact
                # arithmetic, so w is a fixed point up to rounding
                converged = True
                break
            # objective went up: restart the momentum from the last iterate
            v = w.copy()
            t = 1.0
            restarted = True
            continue
        restarted = False
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        v = w_new + ((t - 1.0) / t_new) * (w_new - w)
        w, t, f_prev = w_new, t_new, f_new
        if f_new < best_f:
            best_f, best_w = f_new, w_new.copy()
        window.append(f_new)
        if len(window) > 10:
            window.pop(0)
            spread = max(window) - min(window)
            scale = max(abs(window[-1]), 1e-300)
            if spread <= 1e-12 * scale:
                converged = True
                break
    return ReferenceResult(best_w, best_f, converged, iterations)
