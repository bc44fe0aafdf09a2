"""Computable embodiments of the analysis: the curvature constants L and
mu, the variance factor alpha(b), empirical variance-bound checks, the
linear-rate constants C for the four smoothness / strong-convexity regimes,
and the oracle suites of ``saag verify`` (``run_suites``).

Expectations are exact enumerations over a schedule's partition batches,
read as the solvers read them (``Dataset.plan``, ``estimators.bind``);
this distribution choice is recorded in every report.
"""

import copy
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import make_schedule
from .estimators import bind, take_snapshot
from .objective import (CURVATURE, LOSSES, ObjectiveSpec, batch_grad,
                        batch_smooth_value, margins, objective_value, prox)
from .solvers import reference_optimum

ENUMERATION_CAP = 64


class RegimeError(ValueError):
    """Rate-constant parameters violate a validity condition of the bound."""


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness constant L and strong-convexity constant mu (L >= mu >= 0)."""

    L: float
    mu: float

    def __post_init__(self):
        if self.L <= 0 or self.mu < 0 or self.L < self.mu:
            raise ValueError("constants must satisfy L >= mu >= 0 and L > 0")


def estimate_constants(spec):
    """Curvature constants from the data: L = CURVATURE[loss] *
    max ||x_i||^2 + lambda2 bounds every component Hessian, and
    mu = lambda2."""
    data = spec.data
    max_sq = float(np.bincount(data.row_ids, weights=data.values ** 2,
                               minlength=data.n).max())
    lam2 = spec.lambda2
    return ProblemConstants(L=CURVATURE[spec.loss] * max_sq + lam2, mu=lam2)


def alpha_b(n, b):
    """Variance factor (n - b) / (b * (n - 1)) as an exact rational.

    Equals 1 at b = 1 and 0 at b = n, and decreases in b.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    return Fraction(n - b, b * (n - 1))


def _enumerable(spec):
    """The n of ``spec``; a ValueError when n exceeds ENUMERATION_CAP."""
    n = spec.data.n
    if n > ENUMERATION_CAP:
        raise ValueError(f"n = {n} too large to enumerate (cap {ENUMERATION_CAP})")
    return n


def estimator_mean_bruteforce(family, spec, w, state, schedule):
    """Exact mean of the estimator of ``family`` (``estimators.bind``) over
    every batch of a schedule (``Dataset.plan``).

    ``state`` is the table of the "table" family, else the snap state (None
    for "batch"). Each batch binds its own copy of the table, so every batch
    sees the same starting table. Only enumerable problems are accepted.
    """
    _enumerable(spec)
    table, snap = (state, None) if family == "table" else (None, state)
    total = np.zeros(spec.data.d)
    for batch in spec.data.plan(schedule):
        direct = bind(family, spec, copy.deepcopy(table), snap)
        total += direct(w, batch, margins(spec.data, w, batch))
    return total / schedule.m


@dataclass
class VarianceBoundReport:
    lhs: float
    rhs: float
    r_const: float
    passed: bool
    ragged: bool
    note: str


def variance_bound_check(spec, w, snap, schedule, constants, reference):
    """Check the variance bound of the "biased" snap estimator by enumeration.

    LHS is the exact mean of ||direction(B) - grad f(w)||^2 over the
    schedule's batches. RHS is
        8 L a [F(w) - F*] + 8 L (a m^2 + (m-1)^2) / m^2 [F(w~) - F*] + R'
    with a = alpha(b) and R' = 2 (m-1)^2 R / m^2, where R is the largest
    squared batch-gradient norm at the reference optimum. For smooth problems
    (lambda1 = 0) F is just the smooth objective, so the same formula covers
    both regimes.
    """
    n = _enumerable(spec)
    g = batch_grad(spec, w)
    direct = bind("biased", spec, snap=snap)
    lhs = r_max = 0.0
    for batch in spec.data.plan(schedule):
        diff = direct(w, batch, margins(spec.data, w, batch)) - g
        lhs += float(diff @ diff)
        gb = batch_grad(spec, reference.w, batch)
        r_max = max(r_max, float(gb @ gb))
    lhs /= schedule.m
    m = schedule.m
    a = float(alpha_b(n, schedule.b)) if n >= 2 else 0.0
    r_const = 2.0 * (m - 1) ** 2 / m ** 2 * r_max
    bracket_w = objective_value(spec, w) - reference.value
    bracket_snap = objective_value(spec, snap.point) - reference.value
    big_l = constants.L
    rhs = (8.0 * big_l * a * bracket_w
           + 8.0 * big_l * (a * m ** 2 + (m - 1) ** 2) / m ** 2 * bracket_snap
           + r_const)
    ragged = n % schedule.b != 0
    note = "expectation over partition batches"
    if ragged:
        note += "; n = m*b does not hold exactly (ragged last batch)"
    return VarianceBoundReport(lhs=lhs, rhs=rhs, r_const=r_const,
                               passed=lhs <= rhs, ragged=ragged, note=note)


@dataclass(frozen=True)
class RateParams:
    """Free analysis constant beta > 1, the start-vs-snap coupling constant c
    (0 < c << m), and the problem sizes."""

    beta: float
    c: float
    m: int
    b: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 1 <= self.b <= self.n:
            raise ValueError("b out of range")
        if not 0 < self.c <= self.m:
            raise ValueError("need 0 < c <= m (and c small compared to m)")


@dataclass
class RateReport:
    C: float
    C_exact: Fraction
    contraction: bool
    note: str


def theoretical_rate(theorem, params, constants=None):
    """Evaluate the linear-rate constant C for one of the four regimes.

    Theorem 1: smooth regularizer, no strong convexity.
    Theorem 2: smooth regularizer, strong convexity (needs L, mu).
    Theorem 3: non-smooth regularizer, no strong convexity.
    Theorem 4: non-smooth regularizer, strong convexity (needs L, mu).

    All arithmetic is exact rational; a RegimeError names the violated
    condition when a denominator is not positive. The reported contraction
    flag is C < 1; convergence then holds up to an additive neighborhood
    constant driven by the batch gradients at the optimum, which vanishes at
    b = n.
    """
    if theorem not in (1, 2, 3, 4):
        raise ValueError("theorem must be 1, 2, 3 or 4")
    a = alpha_b(params.n, params.b) if params.n >= 2 else Fraction(0)
    beta = Fraction(params.beta)
    c = Fraction(params.c)
    m = Fraction(params.m)
    note = "contraction holds up to a neighborhood constant (batch gradients at the optimum)"
    if params.n != params.m * params.b:
        note += f"; approximate: n = {params.n} but m*b = {params.m * params.b}"

    if theorem in (1, 3):
        denom = beta - 1 - 4 * a
        if denom <= 0:
            raise RegimeError(
                f"theorem {theorem} requires beta > 1 + 4*alpha(b) = {float(1 + 4 * a)}")
        c_exact = (4 * a / denom) * (c / m) \
            + 4 * (a * m ** 2 + (m - 1) ** 2) / (m ** 2 * denom)
    else:
        if constants is None:
            raise ValueError(f"theorem {theorem} needs problem constants L and mu")
        if constants.mu <= 0:
            raise RegimeError(f"theorem {theorem} requires strong convexity (mu > 0)")
        if beta <= 1:
            raise RegimeError(f"theorem {theorem} requires beta > 1")
        big_l = Fraction(constants.L)
        mu = Fraction(constants.mu)
        bm1 = beta - 1
        # theorems 2 and 4 share the denominator and differ in one numerator
        # term: q = 4a/(beta-1) for theorem 2, cq/m for theorem 4
        q, drift = 4 * a / bm1, c * (m - 1) / m ** 2
        num = (c * big_l * beta / (m * mu)
               + 4 * (a * m ** 2 + (m - 1) ** 2) / (m ** 2 * bm1)
               - drift + (q if theorem == 2 else c * q / m))
        den = 1 - q - drift + c * q / m
        if den <= 0:
            raise RegimeError(
                f"theorem {theorem} denominator is not positive at beta = {params.beta}")
        c_exact = num / den
    return RateReport(C=float(c_exact), C_exact=c_exact,
                      contraction=c_exact < 1, note=note)


def best_beta(theorem, c, m, b, n, constants=None):
    """Search a 200-point log grid beta in [1.01, 1e4] for the smallest C.

    Invalid regimes on the grid are skipped; returns (beta, RateReport) or
    raises RegimeError when no grid point is valid.
    """
    best = None
    for beta in np.logspace(np.log10(1.01), 4.0, 200):
        try:
            report = theoretical_rate(
                theorem, RateParams(beta=float(beta), c=c, m=m, b=b, n=n), constants)
        except RegimeError:
            continue
        if best is None or report.C < best[1].C:
            best = (float(beta), report)
    if best is None:
        raise RegimeError(f"no valid beta in [1.01, 1e4] for theorem {theorem}")
    return best


# ---------------------------------------------------------------------------
# verification suites (library side of the `verify` command)

def gradient_check(spec, w):
    """Max relative coordinate error of the analytic full gradient against
    central finite differences (step 1e-6) of the smooth objective."""
    h = 1e-6
    g = batch_grad(spec, w)
    worst = 0.0
    for j, e in enumerate(h * np.eye(w.size)):
        fd = (batch_smooth_value(spec, w + e)
              - batch_smooth_value(spec, w - e)) / (2 * h)
        denom = max(abs(g[j]), abs(fd), 1e-8)
        worst = max(worst, abs(g[j] - fd) / denom)
    return worst


def prox_check(lambda1, z, eta):
    """Gap between the closed-form prox and a scalar brute-force minimizer of
    (1/(2 eta)) (t - z)^2 + lambda1 |t|, refined over four passes of a
    4001-point grid.

    The grid search runs in extended precision so the objective stays
    resolvable near its flat bottom."""
    grid = 4001
    best_err = 0.0
    eta_l = np.longdouble(eta)
    lam1 = np.longdouble(lambda1)
    for zj in np.atleast_1d(z):
        zl = np.longdouble(zj)
        lo, hi = -abs(zl) - 1, abs(zl) + 1
        t_best = np.longdouble(0.0)
        for _ in range(4):
            ts = np.linspace(lo, hi, grid, dtype=np.longdouble)
            vals = (ts - zl) ** 2 / (2 * eta_l) + lam1 * np.abs(ts)
            t_best = ts[int(np.argmin(vals))]
            span = (hi - lo) / (grid - 1)
            lo, hi = t_best - 2 * span, t_best + 2 * span
        closed = prox(np.array([zj]), eta, lambda1)[0]
        best_err = max(best_err, abs(float(closed - t_best)))
    return best_err


def bias_identity_gap(spec, w, snap, schedule, family="biased"):
    """Norm of mean_B[direction] - grad f(w) - ((m-1)/m) grad f(w~) for ``family``.

    Exactly zero in expectation for the "biased" family on an equal-size
    partition; "unbiased" misses it by ((m-1)/m) ||grad f(w~)||.
    """
    mean = estimator_mean_bruteforce(family, spec, w, snap, schedule)
    m = schedule.m
    expected = batch_grad(spec, w) + (m - 1) / m * batch_grad(spec, snap.point)
    return float(np.linalg.norm(mean - expected))


def unbiasedness_gap(spec, w, snap, schedule):
    """Norm of mean_B[unbiased direction] - grad f(w)."""
    mean = estimator_mean_bruteforce("unbiased", spec, w, snap, schedule)
    return float(np.linalg.norm(mean - batch_grad(spec, w)))


def run_suites(data, loss, l1, l2, inject_scale_bug=False):
    """The oracle suites of ``saag verify`` on ``data``, in order; returns
    [(check, passed, detail)].

    Above ENUMERATION_CAP the enumeration-based suites (bias identity,
    unbiasedness, variance bound) are one ("enumeration", None, reason) row.
    ``inject_scale_bug`` checks the bias identity on the unbiased SVRG
    estimator, which on equal batches is the biased one with its snap term
    scaled by 1/b instead of 1/n; that suite must then fail.
    """
    ObjectiveSpec(loss, data, l2, l1)     # a bad l1 or l2 fails before any suite
    rng = np.random.default_rng(7)
    results = []

    # gradient vs central finite differences, all losses
    worst_fd = 0.0
    for kind in LOSSES:
        spec = ObjectiveSpec(kind, data, l2)
        for _ in range(3):
            worst_fd = max(worst_fd,
                           gradient_check(spec, 0.5 * rng.standard_normal(data.d)))
    results.append(("gradient-fd", worst_fd <= 1e-5,
                    f"max rel err {worst_fd:.3e} (tol 1e-5)"))

    # prox against scalar brute force
    worst_prox = 0.0
    for _ in range(200):
        worst_prox = max(worst_prox, prox_check(
            float(rng.uniform(0.0, 2.0)), rng.normal(scale=2.0, size=3),
            float(rng.uniform(0.05, 3.0))))
    results.append(("prox-oracle", worst_prox <= 1e-8,
                    f"max gap {worst_prox:.3e} (tol 1e-8)"))

    if data.n > ENUMERATION_CAP:
        results.append(("enumeration", None,
                        f"skipped: n = {data.n} exceeds cap {ENUMERATION_CAP}"))
    else:
        # the expectation identities assume equal batch sizes, so only batch
        # sizes dividing n are enumerated
        divisors = [b for b in (1, 2, max(2, data.n // 3)) if data.n % b == 0]
        spec = ObjectiveSpec(loss, data, l2)
        estimator = "unbiased" if inject_scale_bug else "biased"
        bias_gap = unbias_gap = 0.0
        for b in sorted(set(divisors)):
            schedule = make_schedule(data.n, b, seed=0)
            for _ in range(20):
                w = rng.standard_normal(data.d)
                snap = take_snapshot(spec, rng.standard_normal(data.d))
                bias_gap = max(bias_gap, bias_identity_gap(
                    spec, w, snap, schedule, estimator))
                unbias_gap = max(unbias_gap, unbiasedness_gap(spec, w, snap, schedule))
        results.append(("bias-identity", bias_gap <= 1e-10,
                        f"max gap {bias_gap:.3e} (tol 1e-10)"))
        results.append(("unbiasedness", unbias_gap <= 1e-10,
                        f"max gap {unbias_gap:.3e} (tol 1e-10)"))

        # at b = n (m = 1) the right side is 0 and the left side rounding
        below = [b for b in divisors if b < data.n]
        if not below:
            results.append(("variance-bound", None,
                            f"skipped: no batch size below n = {data.n}"))
        else:
            schedule = make_schedule(data.n, below[-1], seed=1)
            worst_margin, all_hold = np.inf, True
            for lam1 in (0.0, max(l1, 1e-3)):
                spec_v = ObjectiveSpec(loss, data, l2, lam1)
                constants = estimate_constants(spec_v)
                reference = reference_optimum(spec_v, budget=200)
                for _ in range(50):
                    w = 0.5 * rng.standard_normal(data.d)
                    snap = take_snapshot(spec_v, 0.5 * rng.standard_normal(data.d))
                    report = variance_bound_check(spec_v, w, snap, schedule,
                                                  constants, reference)
                    all_hold &= report.passed
                    worst_margin = min(worst_margin, report.rhs - report.lhs)
            results.append(("variance-bound", all_hold,
                            f"min RHS-LHS margin {worst_margin:.3e}"))

    # rate constants: canonical contraction point plus regime handling
    params = RateParams(beta=10.0, c=1.0, m=100, b=10, n=1000)
    report = theoretical_rate(1, params)
    rate_ok = report.contraction and 0.0 < report.C < 1.0
    try:
        theoretical_rate(1, RateParams(beta=1.2, c=1.0, m=100, b=10, n=1000))
        rate_ok = False
    except RegimeError:
        pass
    spec = ObjectiveSpec(loss, data, max(l2, 1e-6))
    constants = estimate_constants(spec)
    for theorem in (2, 4):
        _, rep = best_beta(theorem, c=0.05, m=8, b=3, n=24, constants=constants)
        rate_ok &= np.isfinite(rep.C)
    results.append(("rate-constants", rate_ok,
                    f"theorem 1 C = {report.C:.6f} at beta=10 (contraction)"))
    return [(check, passed if passed is None else bool(passed), detail)
            for check, passed, detail in results]
