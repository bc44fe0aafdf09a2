"""Epoch-structured drivers for the SAAG family and baselines.

Every solver shares the same inner step: build a direction from its
estimator, pick a step size with the stochastic Armijo search (or a fixed /
scheduled step), then apply the smooth update w <- w - eta*d when lambda1 = 0
or the proximal update w <- prox(w - eta*d) otherwise. The solvers differ in
their estimator and in the epoch-boundary rules for the snap point and the
starting iterate: one ``KINDS`` row per solver. Runs that share their
batches step through each epoch's schedule together (``run``), each batch
in one stacked step of the runs that share their objective and line search
(``stack_step``).
"""

import math
import time
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .data import make_schedule
from .estimators import (FAMILIES, GradTable, SnapState, Terms, bind_term, make_table,
                         take_snapshot)
from .harness import Trace, record_epoch
from .line_search import SBASParams, backtrack
from .objective import (batch_grad, batch_ray, curvature_t, margins,
                        objective_value, prox, scatter, slope_t, square_scatter)


@dataclass(frozen=True)
class Kind:
    """One solver's rules; "last" and "average" are the previous epoch's."""
    family: str                 # of estimators.bind_term
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

GAP = 5e-14             # of F: the reference's stop on its bound without a best
TRACE_ACCURACY = 1e-6   # of the traces' smallest gap: the reference's stop
ROUNDING = 4 * 2.0 ** -52    # of F: 4 eps, a reference value's rounding, in its bound
CG_STEPS = 25           # most conjugate-gradient steps per reference Newton step
PRODUCTS = 10_000       # most gradient and Hessian-vector products per reference
ARMIJO = 1e-4           # sufficient-decrease share of a reference Newton step


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
        for name in ("epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            setattr(self, name, int(value))
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


@dataclass(eq=False)
class EpochState:
    """Mutable state of one solver run: its config, the iterate (during an
    epoch its ``Stack`` row holds it), the previous epoch's iterate average
    (zeros unless the kind uses it and has run an epoch), the snap state or
    gradient table, the work counters, whether the run's last search went
    past eta0, and the message of the non-finite direction that stopped the
    run (None while it runs)."""

    config: RunConfig
    w: np.ndarray
    average: np.ndarray
    epoch: int = 0
    snap: SnapState | None = None
    table: GradTable | None = None
    grads: int = 0
    fevals: int = 0
    inner: int = 0
    work_seconds: float = 0.0
    backtracked: bool = False
    failure: str | None = None


def init_state(config):
    spec = config.objective
    table = make_table(spec) if KINDS[config.solver].family == "table" else None
    return EpochState(config, w=np.zeros(spec.data.d), average=np.zeros(spec.data.d),
                      table=table)


def batch_key(config):
    """What fixes a run's batches: its data set (by identity), batch size,
    seed and epoch count. Runs with one key share every epoch's schedule,
    so ``run`` steps them through it together."""
    return id(config.objective.data), config.batch_size, config.seed, config.epochs


def _family(state):
    return KINDS[state.config.solver].family


def inner_step(state, direct, rows, x, c):
    """The estimator's term of run ``state`` on the batch of row ids
    ``rows`` and signed rows ``x``: ``direct(rows, x, c)``, bound by
    ``run_epoch``, at the batch's slopes c at the run's iterate. Counts its
    gradients; ``stack_step`` adds the d-vector terms, tests the direction,
    counts the step, picks the step size and moves w.
    """
    # a snap kind counts its snap term too: grads is the algorithm's logical
    # count, although the snap slopes are read from the snapshot's pass
    state.grads += len(rows) * (1 if state.snap is None else 2)
    return direct(rows, x, c)


class Stack:
    """The live runs of a lockstep group that share their objective and
    line search, stepped as one (``stack_step``): per run (state, bound
    estimator term), in the estimator families' order (``FAMILIES``), so
    each family's d-vector terms (``terms``) take one slice of rows; their
    iterates as the rows of ``w``, the sums of the epoch's iterates as those
    of ``total`` when a kind reads the average, and each run's share of the
    stacked work not yet on its clock. Each run's solver, fixed step,
    objective and line search are its config's."""

    def __init__(self, runs):
        runs = sorted(runs, key=lambda run: FAMILIES.index(_family(run[0])))
        config = runs[0][0].config
        self.spec, self.sbas, self.runs = config.objective, config.sbas, runs
        self.w = np.array([state.w for state, _ in runs])
        kinds = [KINDS[state.config.solver] for state, _ in runs]
        self.total = (np.zeros_like(self.w) if any(
            "average" in (row.snap, row.start) for row in kinds) else None)
        self.shared = 0.0
        self._index()

    def _index(self):
        """The rows that search and those that decay, the fixed steps (0 for
        the others), them as a column when all are fixed, and the rows'
        d-vector terms."""
        states = [state for state, _ in self.runs]
        self.terms = Terms([_family(state) for state in states],
                           [state.snap for state in states])
        configs = [state.config for state in states]
        self.searched = [i for i, config in enumerate(configs)
                         if config.fixed_eta is None and not KINDS[config.solver].decay]
        self.decayed = [i for i, config in enumerate(configs)
                        if config.fixed_eta is None and KINDS[config.solver].decay]
        self.etas = [config.fixed_eta or 0.0 for config in configs]
        self.step = (None if self.searched or self.decayed
                     else np.array(self.etas)[:, None])

    def settle(self, rows=()):
        """Put ``shared`` on every run's clock, then take the runs of
        ``rows`` out, each with its w."""
        for state, _ in self.runs:
            state.work_seconds += self.shared
        self.shared = 0.0
        if rows:
            keep = [i for i in range(len(self.runs)) if i not in rows]
            for i in rows:
                self.runs[i][0].w = self.w[i].copy()
            self.runs, self.w = [self.runs[i] for i in keep], self.w[keep]
            if self.total is not None:
                self.total = self.total[keep]
            self._index()


def stack_step(stack, rows, x):
    """One step of every run of ``stack`` on the batch of row ids ``rows``
    and signed rows ``x`` (``Dataset.plan``). Stacked: the signed
    margins z of the rows and their slopes, then, once each run's
    ``inner_step`` has given its estimator's term, the d-vector terms of
    the directions d (``Terms``) and d.d, the search's ray (``batch_ray``)
    and trial block, and the update w - eta d with eta per row, through
    ``prox`` when lambda1 > 0. Per run: ``inner_step``, the step size (the
    fixed step, sgd's eta0 / sqrt(t) or ``backtrack`` on the row's trial
    values) and the counters. The trial block is the whole ladder when a
    searched row's last search went past eta0, else (0, eta0). A row whose
    search returns 0 (the sentinel) steps with eta0 as a stand-in and is
    then put back to its old w, bit for bit.

    A direction is tested by its d.d, entrywise only when d.d is not
    finite, so a finite d whose d.d overflows (entries past ~1e154) still
    steps. A run whose direction is not finite keeps the message in
    ``state.failure`` and leaves the stack, with its step uncounted.

    A run's ``work_seconds`` grows by its ``inner_step`` and by a 1/k share
    of the rest, so the k clocks add up to the step's time.
    """
    clock = time.perf_counter
    start = clock()
    spec, params, w = stack.spec, stack.sbas, stack.w
    z = margins(spec.data, w, x)
    c = slope_t(spec.loss, z)
    mark = clock()
    shared = mark - start
    terms = []
    for (state, direct), ci in zip(stack.runs, c):
        terms.append(inner_step(state, direct, rows, x, ci))
        now = clock()
        state.work_seconds += now - mark
        mark = now
    d = stack.terms.add(spec, len(rows), np.array(terms), w)
    dds = np.vecdot(d, d).tolist()
    if not math.isfinite(sum(dds)):
        failed = [i for i, dd in enumerate(dds)
                  if not math.isfinite(dd) and not np.isfinite(d[i]).all()]
        if failed:
            for i in failed:
                state = stack.runs[i][0]
                state.failure = (f"{state.config.solver}: non-finite direction at "
                                 f"epoch {state.epoch}, inner step {state.inner}")
            stack.settle(failed)
            if not stack.runs:
                return
            w, z, d = stack.w, np.delete(z, failed, axis=0), np.delete(d, failed, axis=0)
            dds = [dd for i, dd in enumerate(dds) if i not in failed]
    runs, still = stack.runs, []
    for state, _ in runs:
        state.inner += 1
    step = stack.step       # every row's fixed step, if all are fixed
    if step is None:
        etas = stack.etas.copy()
        for i in stack.decayed:
            etas[i] = params.eta0 / math.sqrt(runs[i][0].inner)
        rays = (_trial_values(params, batch_ray(spec, w, rows, x, d, z, dds), stack)
                if stack.searched else [])
        for i, values in zip(stack.searched, rays):
            state = runs[i][0]
            eta, evals = backtrack(params, values, dds[i])
            state.fevals += evals
            state.backtracked = evals > 2
            etas[i] = eta or params.eta0    # the sentinel's stand-in, put back below
            if not eta:
                still.append(i)
        step = np.array(etas)[:, None]
    new = w - step * d
    if spec.lambda1 > 0.0:
        new = prox(new, step, spec.lambda1)
    for i in still:
        new[i] = w[i]
    stack.w = new
    if stack.total is not None:
        stack.total += new
    stack.shared += (shared + clock() - mark) / len(runs)


def _trial_values(params, phi, stack):
    """The searched rows' trial values in ``params.steps`` order, one
    iterable per row for ``backtrack`` (``stack_step``), and the blocks of
    ``phi`` they come from: the whole ladder of every row in one block when
    one of them went past eta0 in its last search, else (0, eta0) and, for
    a row whose search reads past eta0, the rest of its ladder then."""
    searched = stack.searched
    if any(stack.runs[i][0].backtracked for i in searched):
        return phi(params.steps, searched)

    def rest(i):
        yield from phi(params.steps[2:], [i])[0]

    return [chain(values, rest(i))
            for i, values in zip(searched, phi(params.steps[:2], searched))]


def run_epoch(states, schedule):
    """One epoch of every run of ``states``, which share ``schedule``, in
    lockstep. Per run, the snap bookkeeping as its kind's ``KINDS`` row says,
    and its estimator bound to the epoch's table or snap state once; the
    runs that share their objective and line search form a ``Stack``, whose
    rows hold their iterates through the epoch. Then each chunk of the
    schedule's batches (``Dataset.plan``) is gathered once, every stack
    steps through it (``stack_step``), and it is dropped before the next is
    gathered. Per run, the boundary rule last: a kind using
    ``state.average`` sets it to the mean of the epoch's m iterates.

    Overflow is not reported inside the snapshots and the steps: a logistic
    slope whose exp(-t) overflows is the exact +0.0, a finite direction whose
    d.d overflows still steps, and a run whose direction is not finite
    keeps the message in ``state.failure`` and leaves the epoch, while the
    others go on.

    A run's ``work_seconds`` grows by its own snapshot, ``inner_step``s and
    boundary, by the gather of each chunk it reads, timed once for the
    group, and by a 1/k share of the rest of its k-run stack's steps: one
    clock pair per run and chunk, and k + 3 clock reads per stack and batch.
    """
    clock = time.perf_counter
    groups = {}
    with np.errstate(over="ignore"):
        for state in states:
            start = clock()
            config = state.config
            spec, row = config.objective, KINDS[config.solver]
            if row.snap is not None:
                anchor = state.average if row.snap == "average" else state.w
                state.snap = take_snapshot(spec, anchor)
                state.grads += spec.data.n
            direct = bind_term(row.family, spec, state.table, state.snap)
            groups.setdefault((spec, config.sbas), []).append((state, direct))
            state.work_seconds += clock() - start
        stacks = [Stack(runs) for runs in groups.values()]
        start = clock()
        for chunk in states[0].config.objective.data.plan(schedule):
            gathered = clock() - start
            for stack in stacks:
                stack.shared += gathered
            for rows, x in chunk:
                for stack in stacks:
                    if stack.runs:      # empty once all its runs failed
                        stack_step(stack, rows, x)
            stacks = [stack for stack in stacks if stack.runs]
            del chunk, x    # its rows are freed before the next gather
            if not stacks:
                break
            start = clock()
    for stack in stacks:
        stack.settle()
        for i, (state, _) in enumerate(stack.runs):
            start = clock()
            row = KINDS[state.config.solver]
            state.w = stack.w[i]
            if "average" in (row.snap, row.start):
                state.average = stack.total[i] / schedule.m
            if row.start == "average":
                state.w = state.average
            state.epoch += 1
            state.work_seconds += clock() - start


def run(configs, test=None):
    """Run ``configs``, runs that share their batches (one ``batch_key``),
    for their S epochs in lockstep, and record a trace point per run and
    epoch. Each epoch's schedule is drawn once for all of them, and
    ``run_epoch`` gathers each of its chunks once; a group of one is a
    single run.

    Each trace gets an epoch-0 baseline before any work. Metric evaluation
    is excluded from the recorded wall time and from the gradient counters.
    A run whose direction is not finite stops there, its partial trace
    carries a failure marker, and the others go on. Returns a (final w,
    Trace) per config, in order.
    """
    first = configs[0]
    if any(batch_key(config) != batch_key(first) for config in configs):
        raise ValueError("runs stepped together must share their data set, "
                         "batch size, seed and epochs")
    runs = [(init_state(config), Trace(solver=config.solver, seed=config.seed,
                                       points=[], config=_config_echo(config)))
            for config in configs]
    for state, trace in runs:
        record_epoch(trace, state, test)
    n = first.objective.data.n
    live = runs
    for s in range(first.epochs):
        run_epoch([state for state, _ in live],
                  make_schedule(n, first.batch_size, first.seed, epoch=s))
        for state, trace in live:
            if state.failure is None:
                record_epoch(trace, state, test)
            else:
                trace.failure = state.failure
        live = [(state, trace) for state, trace in live if state.failure is None]
        if not live:
            break
    # each w its own array, not a row of a stack's
    return [(np.array(state.w), trace) for state, trace in runs]


def _config_echo(config):
    spec = config.objective
    return {"solver": config.solver, "epochs": config.epochs,
            "b": config.batch_size, "seed": config.seed, "loss": spec.loss,
            "l2": spec.lambda2, "l1": spec.lambda1, **asdict(config.sbas),
            "fixed_eta": config.fixed_eta}


@dataclass(eq=False)
class ReferenceResult:
    """``bound`` >= value - F*, certified at every exit when lambda2 > 0;
    NaN when lambda2 = 0. ``iterations`` counts the gradient and
    Hessian-vector products, each one pass over X and one over X^T, at most
    ``PRODUCTS``; ``converged`` is False only at that cap."""
    w: np.ndarray
    value: float
    converged: bool
    iterations: int
    bound: float


# as in run_epoch: a logistic slope whose exp(-t) overflows is the exact +0.0
@np.errstate(over="ignore")
def reference_optimum(spec, best=-math.inf):
    """High-accuracy minimizer of the composite objective, for suboptimality.

    An orthant-wise truncated Newton method runs from w = 0: the Newton-CG
    of liblinear's TRON (Lin, Weng & Keerthi, JMLR 2008) with an Armijo
    line search in place of the trust region, made orthant-wise for the l1
    term as in OWL-QN (Andrew & Gao, ICML 2007).

    Each step forms the margins z of w afresh (the certificate is on w),
    g = grad f(w) and the min-norm subgradient s of F: g + lambda1 sign(w_j)
    where w_j != 0, else the soft threshold of g_j by lambda1. The free
    coordinates are w_j != 0 or s_j != 0, and the orthant of w is sign(w),
    -sign(s) where w_j = 0. Conjugate gradients (``_conjugate_gradient``)
    from 0 on H p = -s, H = X^T diag(curvature_t(z)) X / n + lambda2 I, over
    the free coordinates, preconditioned by diag(H) (Hsia, Chiang & Lin,
    ACML 2018), stop at ||r|| <= min(0.5, ||s||) ||s||, or after
    CG_STEPS = 25. The squared entries of X are formed once per call
    (``square_scatter``), and diag(H) from them once per step in one pass,
    which ``iterations`` does not count. The step w(a) = P(w + a p), where P
    zeroes each coordinate that leaves the orthant, takes a = 1, 1/2, ...
    until F falls with F(w(a)) <= F(w) + ARMIJO * s.(w(a) - w),
    ARMIJO = 1e-4. The accepted trial's margins, formed from its point, are
    the next step's z.

    With lambda2 > 0 F is strongly convex, and ``bound`` =
    ||s||^2 / (2 lambda2) + ROUNDING * F: the first term bounds F(w) - F*,
    the second the rounding of the float F(w) (4 eps of F), so
    value - F* <= bound. It stops, converged, once bound <=
    max(GAP * F, TRACE_ACCURACY * (best - F)) = max(5e-14 * F,
    1e-6 * (best - F)). ``best`` is the lowest objective the traces reached:
    a gap best - F* then reads within a relative 1e-6 of its true value. A
    ``best`` that is NaN, infinite or <= F leaves the 5e-14 * F stop; the
    iterates never depend on ``best``.

    With lambda2 = 0 no certificate exists, ``bound`` is NaN, and H may be
    singular: a free coordinate with no curvature has preconditioner 1, and
    CG stops on a direction of no curvature (Dembo & Steihaug, Math. Prog.
    1983).

    At every lambda2 it stops converged where s = 0, or at the rounding
    exit: a step whose sufficient decrease is below F's rounding and that
    does not lower F, so w is optimal up to rounding. After PRODUCTS =
    10,000 gradient and Hessian-vector products it stops unconverged.
    ``bound`` is that of the returned point at every exit.
    """
    data, n = spec.data, spec.data.n
    lam1, lam2 = spec.lambda1, spec.lambda2
    w, z = np.zeros(data.d), np.zeros(n)
    f = objective_value(spec, w, z=z)
    diagonal = square_scatter(data)
    products = 0
    while True:
        g = batch_grad(spec, w, z=z)
        products += 1
        s = g if lam1 == 0.0 else np.where(
            w != 0.0, g + lam1 * np.sign(w),
            np.sign(g) * np.maximum(np.abs(g) - lam1, 0.0))
        squared = float(s.dot(s))
        bound = squared / (2.0 * lam2) + ROUNDING * f if lam2 > 0.0 else math.nan
        limit = GAP * f
        if best - f < math.inf:     # false at a NaN or infinite best
            limit = max(limit, TRACE_ACCURACY * (best - f))
        converged = bound <= limit or squared == 0.0
        # the cap keeps one product for the gradient after a step
        room = min(CG_STEPS, PRODUCTS - products - 1)
        if converged or room < 1:
            break
        fixed = (w == 0.0) & (s == 0.0)
        weights = curvature_t(spec.loss, z) / n
        preconditioner = diagonal(weights) + lam2
        # no curvature and no lambda2 on a coordinate: its step is unscaled
        preconditioner[preconditioner == 0.0] = 1.0
        p, steps = _conjugate_gradient(spec, weights, preconditioner, fixed, s,
                                       squared, room)
        products += steps
        if lam1 > 0.0:
            orthant = np.where(w != 0.0, np.sign(w), -np.sign(s))
        a = 1.0
        while True:
            trial = w + a * p
            if lam1 > 0.0:
                trial = np.where(trial * orthant > 0.0, trial, 0.0)
            zt = margins(data, trial)
            ft = objective_value(spec, trial, z=zt)
            decrease = ARMIJO * float(s.dot(trial - w))
            # accepted, or no step can be seen to lower F
            if ft < f and ft <= f + decrease or f + decrease == f:
                break
            a *= 0.5
        if not ft < f:          # w is optimal up to rounding
            converged = True
            break
        w, z, f = trial, zt, ft
    return ReferenceResult(w, f, converged, products, bound)


def _conjugate_gradient(spec, weights, preconditioner, fixed, s, squared, steps):
    """(p, products): conjugate gradients from p = 0 on H p = -s with the
    ``fixed`` coordinates (where s is 0) held at 0,
    H = X^T diag(weights) X + lambda2 I, preconditioned by the diagonal of H
    (``preconditioner``, > 0), until ||r|| <= min(0.5, ||s||) ||s||
    (||s||^2 = ``squared``) or ``steps`` products; each product is one pass
    over X and one over X^T. At a direction q with q.Hq <= 0 (H singular
    along q, lambda2 = 0) it stops with p, or with q at the first step: the
    preconditioned descent direction -s / M."""
    data, lam2 = spec.data, spec.lambda2
    target = min(0.25, squared) * squared
    # s and every H q are 0 on the fixed coordinates, so r and r / M are too
    p, r = np.zeros_like(s), -s
    q = r / preconditioner
    rz = float(r.dot(q))
    for step in range(1, steps + 1):
        hq = scatter(data, weights * margins(data, q)) + lam2 * q
        hq[fixed] = 0.0
        curvature = float(q.dot(hq))
        if curvature <= 0.0:
            return (q if step == 1 else p), step
        alpha = rz / curvature
        p += alpha * q
        r = r - alpha * hq
        if float(r.dot(r)) <= target:
            break
        z = r / preconditioner
        rz, previous = float(r.dot(z)), rz
        q = z + (rz / previous) * q
    return p, step
