"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values come from independent oracles coded in this module (batch
enumeration, finite differences, scalar brute-force minimization, exact
rational re-evaluation), never from the code paths under test.
"""

import time
from fractions import Fraction

import numpy as np

from saag.cli import ExperimentConfig, echo_config
from saag.data import make_schedule, make_synthetic
from saag.estimators import bind, take_snapshot
from saag.harness import finalize_suboptimality
from saag.line_search import SBASParams, backtrack
from saag.objective import (LOSSES, ObjectiveSpec, batch_grad,
                            batch_ray, batch_smooth_value, margins,
                            objective_value, prox, slope_t)
from saag.solvers import (RunConfig, init_state, reference_optimum, run,
                          run_epoch)
from saag.verify import RateParams, RegimeError, estimate_constants, theoretical_rate


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def logistic_spec(n, d, lam2=1e-2, lam1=0.0, seed=0, margin=0.0, flip=0.0):
    data = make_synthetic(n, d, seed=seed, margin=margin, flip=flip)
    return ObjectiveSpec("logistic", data, lambda2=lam2, lambda1=lam1)


def operands(spec, w, batch):
    """The batch's signed rows and its slopes at w, as an estimator reads them."""
    x = spec.data.gather(batch)
    return x, slope_t(spec.loss, margins(spec.data, w, x))


def enumerate_mean(spec, w, snap, schedule):
    # independent of estimator_mean_bruteforce: plain loop and sum
    total = np.zeros(spec.data.d)
    for batch in schedule.batches:
        total += bind("biased", spec, snap=snap)(w, batch, *operands(spec, w, batch))
    return total / schedule.m


def test_criterion_1_bias_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (4, 6, 8):
        for b in (1, 2):
            spec = logistic_spec(n, 3, lam2=1e-2, seed=n + b)
            schedule = make_schedule(n, b, seed=0)
            m = schedule.m
            for _ in range(20):
                w = rng.standard_normal(3)
                snap = take_snapshot(spec, rng.standard_normal(3))
                mean = enumerate_mean(spec, w, snap, schedule)
                expected = (batch_grad(spec, w)
                            + (m - 1) / m * batch_grad(spec, snap.point))
                worst = max(worst, float(np.linalg.norm(mean - expected)))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-10,
           f"bias identity: max gap {worst:.2e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_2_unbiasedness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in (4, 6, 8):
        for b in (1, 2):
            spec = logistic_spec(n, 3, lam2=1e-2, seed=2 * n + b)
            schedule = make_schedule(n, b, seed=0)
            for _ in range(20):
                w = rng.standard_normal(3)
                snap = take_snapshot(spec, rng.standard_normal(3))
                total = np.zeros(3)
                for batch in schedule.batches:
                    total += bind("unbiased", spec, snap=snap)(
                        w, batch, *operands(spec, w, batch))
                gap = np.linalg.norm(total / schedule.m - batch_grad(spec, w))
                worst = max(worst, float(gap))
    report(2, worst <= 1e-10, f"unbiasedness: max gap {worst:.2e} (tol 1e-10)")


def test_criterion_3_variance_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    all_hold = True
    worst_margin = np.inf
    for lam1 in (0.0, 1e-3):  # smooth and elastic net
        spec = logistic_spec(6, 4, lam2=1e-2, lam1=lam1, seed=3)
        constants = estimate_constants(spec)
        ref = reference_optimum(spec)
        schedule = make_schedule(6, 2, seed=1)
        m = schedule.m
        a = (6 - 2) / (2 * (6 - 1))
        r_max = max(float(np.linalg.norm(batch_grad(spec, ref.w, batch)) ** 2)
                    for batch in schedule.batches)
        r_prime = 2.0 * (m - 1) ** 2 / m ** 2 * r_max
        for _ in range(50):
            w = rng.standard_normal(4)
            snap = take_snapshot(spec, rng.standard_normal(4))
            g = batch_grad(spec, w)
            lhs = np.mean([
                float(np.linalg.norm(bind("biased", spec, snap=snap)(
                    w, batch, *operands(spec, w, batch)) - g) ** 2)
                for batch in schedule.batches])
            rhs = (8 * constants.L * a * (objective_value(spec, w) - ref.value)
                   + 8 * constants.L * (a * m ** 2 + (m - 1) ** 2) / m ** 2
                   * (objective_value(spec, snap.point) - ref.value)
                   + r_prime)
            all_hold &= lhs <= rhs
            worst_margin = min(worst_margin, rhs - lhs)
    elapsed = time.perf_counter() - start
    report(3, all_hold,
           f"variance bounds: 100 samples hold, min RHS-LHS {worst_margin:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(104)
    h = 1e-6
    worst = 0.0
    for loss in LOSSES:
        spec = ObjectiveSpec(loss, make_synthetic(5, 4, seed=44), lambda2=1e-2)
        for _ in range(5):
            w = rng.standard_normal(4)
            batch = np.arange(5)
            g = batch_grad(spec, w, batch)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (batch_smooth_value(spec, w + e, batch)
                      - batch_smooth_value(spec, w - e, batch)) / (2 * h)
                rel = abs(g[j] - fd) / max(abs(g[j]), abs(fd), 1e-8)
                worst = max(worst, rel)
    report(4, worst <= 1e-5,
           f"gradients vs finite differences: max rel err {worst:.2e} (tol 1e-5)")


def brute_force_prox_scalar(z, eta, lam1):
    # extended precision keeps the objective resolvable near its flat bottom
    z, eta, lam1 = np.longdouble(z), np.longdouble(eta), np.longdouble(lam1)
    lo, hi = -abs(z) - 1, abs(z) + 1
    t = np.longdouble(0.0)
    for _ in range(4):
        ts = np.linspace(lo, hi, 4001, dtype=np.longdouble)
        vals = (ts - z) ** 2 / (2 * eta) + lam1 * np.abs(ts)
        t = ts[int(np.argmin(vals))]
        span = (hi - lo) / 4000
        lo, hi = t - 2 * span, t + 2 * span
    return float(t)


def test_criterion_5_prox_oracle():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        z = float(rng.normal(scale=2.0))
        eta = float(rng.uniform(0.05, 3.0))
        lam1 = float(rng.uniform(0.0, 2.0))
        closed = prox(np.array([z]), eta, lam1)[0]
        worst = max(worst, abs(closed - brute_force_prox_scalar(z, eta, lam1)))
    report(5, worst <= 1e-8, f"prox vs brute force: max gap {worst:.2e} (tol 1e-8)")


def test_criterion_6_degenerate_equivalence():
    spec = logistic_spec(200, 10, lam2=1e-2, seed=0, margin=4.0)
    n = spec.data.n
    kinds = ("saag1", "saag2", "saag3", "saag4", "svrg", "vrsgd", "gd")
    iterates = {}
    for kind in kinds:
        cfg = RunConfig(solver=kind, objective=spec, epochs=5, batch_size=n, seed=0)
        state = init_state(cfg)
        history = []
        for s in range(5):
            run_epoch([state], {0: make_schedule(n, n, 0, epoch=s)})
            history.append(state.w.copy())
        iterates[kind] = history
    worst = 0.0
    for kind in kinds:
        for a, b in zip(iterates[kind], iterates["gd"]):
            worst = max(worst, float(np.linalg.norm(a - b)))
    report(6, worst <= 1e-12,
           f"b=n equivalence over 5 epochs, 7 solvers: max gap {worst:.2e} (tol 1e-12)")


def test_criterion_7_convergence_at_desk_scale():
    start = time.perf_counter()
    spec = logistic_spec(200, 10, lam2=1e-2, seed=0, margin=4.0)
    ref = reference_optimum(spec)
    traces = {}
    for kind in ("saag3", "saag4", "svrg", "vrsgd"):
        cfg = RunConfig(solver=kind, objective=spec, epochs=30, batch_size=8, seed=0)
        _, trace = run([cfg])[0]
        traces[kind] = trace
    finalize_suboptimality(list(traces.values()), ref.value)
    init = objective_value(spec, np.zeros(10)) - ref.value
    ratios = {kind: min(p.objective - ref.value for p in t.points) / init
              for kind, t in traces.items()}
    elapsed = time.perf_counter() - start
    ok = all(r <= 1e-3 for r in ratios.values())
    detail = " ".join(f"{k}={v:.1e}" for k, v in ratios.items())
    report(7, ok, f"suboptimality ratios within 30 epochs (tol 1e-3): {detail}, "
                  f"{elapsed:.1f}s")


def test_criterion_8_gradient_accounting():
    expected = {"saag1": 1.0, "saag3": 1.0, "saag2": 3.0, "saag4": 3.0,
                "svrg": 3.0, "vrsgd": 3.0, "gd": 1.0, "sgd": 1.0}
    spec = logistic_spec(24, 6, lam2=1e-3, seed=8)
    got = {}
    for kind in expected:
        cfg = RunConfig(solver=kind, objective=spec, epochs=1, batch_size=6, seed=0)
        _, trace = run([cfg])[0]
        got[kind] = trace.points[-1].grads_over_n
    ok = all(got[k] == expected[k] for k in expected)
    report(8, ok, "grads/n after one epoch: "
           + " ".join(f"{k}={got[k]:g}" for k in sorted(got)))


def test_criterion_9_rate_constants():
    params = RateParams(beta=10.0, c=1.0, m=100, b=10, n=1000)
    rep = theoretical_rate(1, params)
    # independent re-evaluation of the printed expression, exact rationals
    a = Fraction(1000 - 10, 10 * (1000 - 1))
    denom = Fraction(10) - 1 - 4 * a
    term1 = (4 * a / denom) * Fraction(1, 100)
    term2 = Fraction(4) * (a * Fraction(100) ** 2 + Fraction(99) ** 2) \
        / (Fraction(100) ** 2 * denom)
    independent = term1 + term2
    gap = abs(rep.C - float(independent))
    regime_raised = False
    try:
        theoretical_rate(1, RateParams(beta=1.1, c=1.0, m=100, b=10, n=1000))
    except RegimeError:
        regime_raised = True
    ok = (rep.C_exact == independent and gap <= 1e-12
          and rep.contraction and rep.C < 1.0 and regime_raised)
    report(9, ok, f"theorem 1: C = {rep.C:.6f} < 1, exact match "
                  f"(gap {gap:.1e}), invalid beta raises")


def test_criterion_10_sbas_contract():
    spec = logistic_spec(24, 5, lam2=1e-2, seed=10)
    params = SBASParams()
    rng = np.random.default_rng(110)
    ok = True
    max_evals = 0
    worst_trial = 0.0
    for _ in range(50):
        batch = np.sort(rng.choice(24, size=6, replace=False))
        w = rng.standard_normal(5)
        direction = batch_grad(spec, w, batch) if rng.random() < 0.5 \
            else rng.standard_normal(5)
        trials = []
        dd = float(direction @ direction)
        # the search runs over the batch's ray as the inner step forms it,
        # on a stack of one run
        x = spec.data.gather(batch)
        ray = batch_ray(spec, w[None], batch, direction[None],
                        margins(spec.data, w, x)[None],
                        margins(spec.data, direction, x)[None], [dd])

        def values(etas, ray=ray, trials=trials):
            for eta, value in zip(etas.tolist(), ray(etas, [0])[0]):
                trials.append((eta, value))
                yield value

        eta, evals = backtrack(params, values(params.steps), dd)
        max_evals = max(max_evals, evals, len(trials))
        # each value compared is the batch objective at its trial step
        for step, value in trials:
            want = batch_smooth_value(spec, w - step * direction, batch)
            worst_trial = max(worst_trial, abs(value - want) / (1.0 + abs(want)))
        if eta > 0.0:
            base = batch_smooth_value(spec, w, batch)
            stepped = batch_smooth_value(spec, w - eta * direction, batch)
            armijo = stepped <= base - params.alpha * eta * float(
                direction @ direction)
            ok &= armijo or stepped < base
    # constructed ascent case: moving along -d climbs the parabola
    w, d = np.array([1.0]), np.array([-1.0])
    ascent = lambda etas: (0.5 * float((w - eta * d) @ (w - eta * d)) for eta in etas)
    eta0, _ = backtrack(params, ascent(params.steps), float(d @ d))
    ok &= eta0 == 0.0 and max_evals <= 11 and worst_trial <= 1e-12
    report(10, ok, f"SBAS: trials are the batch objective (gap {worst_trial:.1e}), "
                   f"accepted steps satisfy Armijo/decrease, "
                   f"ascent returns 0.0, max {max_evals} evals (<= 11)")


def test_criterion_11_stability():
    spec = logistic_spec(200, 10, lam2=1e-2, seed=0, margin=3.0, flip=0.01)
    ref = reference_optimum(spec)
    stds = {"saag1": [], "saag3": []}
    for seed in range(5):
        for kind in stds:
            cfg = RunConfig(solver=kind, objective=spec, epochs=30,
                            batch_size=8, seed=seed)
            _, trace = run([cfg])[0]
            subs = np.maximum([p.objective - ref.value
                               for p in trace.points[1:]], 1e-16)
            stds[kind].append(float(np.std(np.log10(subs))))
    med1 = float(np.median(stds["saag1"]))
    med3 = float(np.median(stds["saag3"]))
    report(11, med3 <= med1,
           f"stability: median log-suboptimality std saag3 {med3:.3f} "
           f"<= saag1 {med1:.3f} over 5 seeds")


def test_criterion_12_config_echo_defaults():
    lines = echo_config(ExperimentConfig())
    wanted = ("alpha = 0.1", "shrink = 0.5", "eta0 = 1.0",
              "max_backtracks = 10", "l2 = 1e-05", "train_fraction = 0.8")
    missing = [w for w in wanted if w not in lines]
    report(12, not missing,
           "config echo defaults: " + ("all present" if not missing
                                       else f"missing {missing}"))
