from fractions import Fraction

import numpy as np
import pytest

from saag.data import make_schedule, make_synthetic
from saag.estimators import take_snapshot
from saag.objective import (ObjectiveSpec, batch_grad,
                            batch_smooth_value)
from saag.solvers import reference_optimum
from saag.verify import (ProblemConstants, RateParams, RegimeError,
                         alpha_b, best_beta, bias_identity_gap,
                         estimate_constants, gradient_check, prox_check,
                         run_suites, theoretical_rate, unbiasedness_gap,
                         variance_bound_check)

SUITES = ("gradient-fd", "prox-oracle", "bias-identity", "unbiasedness",
          "variance-bound", "rate-constants")


def test_alpha_b_values():
    assert alpha_b(2, 1) == 1
    assert alpha_b(100, 100) == 0
    assert alpha_b(100, 10) == Fraction(90, 990)
    with pytest.raises(ValueError):
        alpha_b(1, 1)
    with pytest.raises(ValueError):
        alpha_b(10, 0)
    with pytest.raises(ValueError):
        alpha_b(10, 11)


def test_alpha_b_decreasing_in_b():
    for n in range(2, 51):
        vals = [alpha_b(n, b) for b in range(1, n + 1)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_estimate_constants_closed_forms():
    from saag.data import Dataset
    ds = Dataset([0, 1], [0], [2.0], [1.0], d=2)
    c = estimate_constants(ObjectiveSpec("logistic", ds))
    assert c.L == 1.0 and c.mu == 0.0
    c = estimate_constants(ObjectiveSpec("logistic", ds, lambda2=1e-5))
    assert c.mu == 1e-5
    c = estimate_constants(ObjectiveSpec("squared_hinge", ds))
    assert c.L == 8.0
    c = estimate_constants(ObjectiveSpec("least_squares", ds))
    assert c.L == 4.0


def quadratic_bound_check(spec, constants, n_pairs, seed):
    """Worst sampled violation of the quadratic upper bound implied by L,
    f_i(y) <= f_i(x) + grad f_i(x)^T (y - x) + L/2 ||y - x||^2 (<= 0 when
    the bound holds at every sample)."""
    rng = np.random.default_rng(seed)
    d = spec.data.d
    worst = -np.inf
    for _ in range(n_pairs):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        row = [int(rng.integers(spec.data.n))]
        fx = batch_smooth_value(spec, x, row)
        fy = batch_smooth_value(spec, y, row)
        gx = batch_grad(spec, x, row)
        bound = fx + float(gx @ (y - x)) + 0.5 * constants.L * float((y - x) @ (y - x))
        worst = max(worst, fy - bound)
    return worst


@pytest.mark.parametrize("loss", ["logistic", "squared_hinge", "least_squares"])
def test_quadratic_upper_bound_certified_by_L(loss):
    spec = ObjectiveSpec(loss, make_synthetic(5, 4, seed=6), lambda2=1e-3)
    constants = estimate_constants(spec)
    worst = quadratic_bound_check(spec, constants, n_pairs=1000, seed=0)
    assert worst <= 1e-9


def test_gradient_check_and_prox_check():
    spec = ObjectiveSpec("logistic", make_synthetic(5, 4, seed=1), lambda2=1e-2)
    rng = np.random.default_rng(2)
    assert gradient_check(spec, rng.standard_normal(4)) <= 1e-5
    assert prox_check(0.7, rng.normal(size=4), 0.9) <= 1e-8


def test_variance_bound_over_sample_grid():
    rng = np.random.default_rng(3)
    data = make_synthetic(6, 4, seed=3)
    for lam1 in (0.0, 1e-3):
        spec = ObjectiveSpec("logistic", data, lambda2=1e-2, lambda1=lam1)
        constants = estimate_constants(spec)
        reference = reference_optimum(spec, budget=300)
        sched = make_schedule(6, 2, seed=1)
        for _ in range(50):
            w = rng.standard_normal(4)
            snap = take_snapshot(spec, rng.standard_normal(4))
            report = variance_bound_check(spec, w, snap, sched, constants,
                                          reference)
            assert report.passed
            assert not report.ragged


def test_variance_bound_at_optimum_and_full_batch():
    data = make_synthetic(6, 4, seed=4)
    spec = ObjectiveSpec("logistic", data, lambda2=1e-2)
    constants = estimate_constants(spec)
    reference = reference_optimum(spec, budget=300)
    # w = w~ = w*: both brackets vanish and the bound reduces to R'
    snap = take_snapshot(spec, reference.w)
    sched = make_schedule(6, 2, seed=2)
    rep = variance_bound_check(spec, reference.w, snap, sched, constants,
                               reference)
    assert rep.passed
    assert rep.rhs == pytest.approx(rep.r_const, rel=1e-6)
    # b = n: single batch, m = 1, LHS = 0
    full = make_schedule(6, 6, seed=2)
    rep = variance_bound_check(spec, reference.w, snap, full, constants,
                               reference)
    assert rep.lhs <= 1e-20 and rep.r_const == 0.0


def test_variance_bound_rejects_large_n():
    data = make_synthetic(80, 3, seed=0)
    spec = ObjectiveSpec("logistic", data, lambda2=1e-2)
    constants = estimate_constants(spec)
    snap = take_snapshot(spec, np.zeros(3))
    with pytest.raises(ValueError, match="enumerate"):
        variance_bound_check(spec, np.zeros(3), snap,
                             make_schedule(80, 8, seed=0), constants,
                             reference_optimum(spec, budget=10))


def test_bias_mutation_detected():
    # the snap term at 1/b instead of 1/n (the unbiased estimator on equal
    # batches) must break the bias identity
    data = make_synthetic(8, 3, seed=5)
    spec = ObjectiveSpec("logistic", data, lambda2=1e-2)
    sched = make_schedule(8, 2, seed=0)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(3)
    snap = take_snapshot(spec, rng.standard_normal(3))
    assert bias_identity_gap(spec, w, snap, sched) <= 1e-10
    assert unbiasedness_gap(spec, w, snap, sched) <= 1e-10
    assert bias_identity_gap(spec, w, snap, sched, "unbiased") > 1e-6


def test_oracles_read_the_batches_and_estimator_the_solvers_run(monkeypatch):
    # every batch comes from Dataset.plan and the variance bound's direction
    # from estimators.bind, so a mutant of the estimator module reaches it
    import saag.estimators as estimators
    from saag.data import Dataset
    from saag.verify import estimator_mean_bruteforce
    spec = ObjectiveSpec("logistic", make_synthetic(6, 4, seed=3), lambda2=1e-2)
    constants = estimate_constants(spec)
    reference = reference_optimum(spec, budget=300)
    sched = make_schedule(6, 2, seed=1)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(4)
    snap = take_snapshot(spec, rng.standard_normal(4))
    planned = []
    plan = Dataset.plan
    monkeypatch.setattr(Dataset, "plan", lambda data, schedule: (
        planned.append(schedule) or plan(data, schedule)))
    lhs = variance_bound_check(spec, w, snap, sched, constants, reference).lhs
    estimator_mean_bruteforce("biased", spec, w, snap, sched)
    assert planned == [sched, sched]
    saag2 = estimators.saag2_direction
    monkeypatch.setattr(estimators, "saag2_direction",
                        lambda *args: 2.0 * saag2(*args))
    doubled = variance_bound_check(spec, w, snap, sched, constants, reference)
    assert doubled.lhs != lhs


def test_theorem1_canonical_value():
    report = theoretical_rate(1, RateParams(beta=10.0, c=1.0, m=100, b=10, n=1000))
    a = Fraction(990, 9990)
    denom = Fraction(10) - 1 - 4 * a
    expected = (4 * a / denom) * Fraction(1, 100) \
        + 4 * (a * 10000 + 99 ** 2) / (10000 * denom)
    assert report.C_exact == expected
    assert abs(report.C - float(expected)) <= 1e-15
    assert report.contraction and report.C == pytest.approx(0.5022, abs=1e-4)


def test_theorem_regime_errors():
    with pytest.raises(RegimeError, match="beta"):
        theoretical_rate(1, RateParams(beta=1.2, c=1.0, m=100, b=10, n=1000))
    with pytest.raises(RegimeError, match="strong convexity"):
        theoretical_rate(2, RateParams(beta=5.0, c=1.0, m=10, b=10, n=100),
                         ProblemConstants(L=1.0, mu=0.0))
    with pytest.raises(ValueError, match="constants"):
        theoretical_rate(4, RateParams(beta=5.0, c=1.0, m=10, b=10, n=100))
    with pytest.raises(ValueError):
        theoretical_rate(5, RateParams(beta=5.0, c=1.0, m=10, b=10, n=100))


def test_theorem1_full_batch_contracts_to_zero():
    report = theoretical_rate(1, RateParams(beta=2.0, c=1.0, m=1, b=6, n=6))
    assert report.C_exact == 0
    assert report.contraction


def test_ragged_batch_flagged_in_note():
    report = theoretical_rate(1, RateParams(beta=10.0, c=1.0, m=4, b=3, n=10))
    assert "approximate" in report.note


def test_rate_constants_monotone_in_beta():
    params = dict(c=1.0, m=20, b=5, n=100)
    a = float(alpha_b(100, 5))
    # theorems 1/3: C is strictly decreasing across the whole valid range
    for theorem in (1, 3):
        grid = np.linspace(1 + 4 * a + 0.5, 200.0, 40)
        vals = [theoretical_rate(theorem, RateParams(beta=float(b_), **params)).C
                for b_ in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))
    # theorems 2/4: finite on the valid regime, locally continuous, and
    # decreasing from the regime boundary down to the grid minimum (at large
    # beta the L*beta/mu term takes over and C grows again)
    constants = ProblemConstants(L=2.0, mu=0.05)
    for theorem in (2, 4):
        grid = np.linspace(1.5, 400.0, 400)
        vals = []
        for b_ in grid:
            try:
                vals.append(theoretical_rate(
                    theorem, RateParams(beta=float(b_), **params), constants).C)
            except RegimeError:
                vals.append(None)
        valid = [(g, v) for g, v in zip(grid, vals) if v is not None]
        assert len(valid) > 100
        assert all(np.isfinite(v) for _, v in valid)
        seq = [v for _, v in valid]
        imin = int(np.argmin(seq))
        assert all(x >= y for x, y in zip(seq[:imin], seq[1:imin + 1]))
        for beta0 in (valid[imin][0], valid[len(valid) // 2][0], valid[-1][0]):
            c0 = theoretical_rate(theorem,
                                  RateParams(beta=beta0, **params), constants).C
            c1 = theoretical_rate(theorem,
                                  RateParams(beta=beta0 + 1e-6, **params),
                                  constants).C
            assert abs(c1 - c0) <= 1e-4 * max(1.0, abs(c0))


def test_best_beta_search():
    beta, report = best_beta(1, c=1.0, m=100, b=10, n=1000)
    assert report.contraction
    # the found beta is no worse than a few hand-picked candidates
    for cand in (5.0, 10.0, 100.0):
        cand_c = theoretical_rate(1, RateParams(beta=cand, c=1.0, m=100,
                                                b=10, n=1000)).C
        assert report.C <= cand_c + 1e-12
    with pytest.raises(RegimeError):
        best_beta(2, c=1.0, m=10, b=2, n=20,
                  constants=ProblemConstants(L=1.0, mu=0.0))


def test_rate_params_validation():
    with pytest.raises(ValueError):
        RateParams(beta=2.0, c=0.0, m=10, b=2, n=20)
    with pytest.raises(ValueError):
        RateParams(beta=2.0, c=11.0, m=10, b=2, n=20)
    with pytest.raises(ValueError):
        RateParams(beta=2.0, c=1.0, m=0, b=2, n=20)
    with pytest.raises(ValueError):
        ProblemConstants(L=0.5, mu=1.0)


def test_run_suites_default_problem_passes_every_check():
    results = run_suites(make_synthetic(24, 6), "logistic", 0.0, 1e-5)
    assert tuple(name for name, _, _ in results) == SUITES
    assert all(passed is True for _, passed, _ in results)
    assert all(isinstance(detail, str) and detail for _, _, detail in results)


def test_run_suites_leaves_out_enumeration_above_cap():
    results = run_suites(make_synthetic(80, 4), "logistic", 0.0, 1e-5)
    assert [name for name, _, _ in results] == [
        "gradient-fd", "prox-oracle", "enumeration", "rate-constants"]
    assert [passed for _, passed, _ in results] == [True, True, None, True]
    assert results[2][2] == "skipped: n = 80 exceeds cap 64"


def test_run_suites_checks_the_variance_bound_below_the_full_batch():
    # at b = n (m = 1) the bound's right side is exactly 0 and its left side
    # rounding: n = 2 checks b = 1, and n = 1 has no batch size to check
    results = run_suites(make_synthetic(2, 1), "logistic", 0.0, 1e-5)
    assert tuple(name for name, _, _ in results) == SUITES
    assert all(passed is True for _, passed, _ in results)
    results = run_suites(make_synthetic(1, 3), "logistic", 0.0, 1e-5)
    assert tuple(name for name, _, _ in results) == SUITES
    assert [passed for _, passed, _ in results] == [True] * 4 + [None, True]
    assert results[4][2] == "skipped: no batch size below n = 1"


def test_run_suites_scale_bug_fails_only_the_bias_identity():
    results = run_suites(make_synthetic(24, 6), "logistic", 0.0, 1e-5,
                         inject_scale_bug=True)
    assert tuple(name for name, _, _ in results) == SUITES
    assert [name for name, passed, _ in results if not passed] == ["bias-identity"]
