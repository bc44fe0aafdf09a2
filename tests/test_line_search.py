from itertools import chain

import numpy as np
import pytest

from saag.line_search import SBASParams, backtrack


def quad(scale=1.0):
    return lambda v: 0.5 * scale * float(v @ v)


def ray(f, w, d, params=SBASParams()):
    """The values backtrack reads: f at w - eta * d for each step of
    ``params.steps``, formed when it is read."""
    return (f(w - eta * d) for eta in params.steps.tolist())


def one_shot(values):
    """An iterator that reads ``values`` once, and the list of the values
    read from it so far."""
    read = []

    def each():
        for value in values:
            read.append(value)
            yield value

    return each(), read


def blocks(f, w, d, params, whole, formed):
    """The values of ``ray`` from eager blocks of steps, the size of each
    block put on ``formed`` when it is formed: every step in one block, or
    (0, eta0) and then, once a value past eta0 is read, the rest."""
    def block(etas):
        formed.append(etas.size)
        return [f(w - eta * d) for eta in etas.tolist()]

    def rest():
        yield from block(params.steps[2:])

    return block(params.steps) if whole else chain(block(params.steps[:2]), rest())


def test_accepts_unit_step_on_easy_quadratic():
    # f(w) = w^2/2 at w = 1 along d = 1: f(0) = 0 <= 0.5 - 0.1 = 0.4
    w, d = np.array([1.0]), np.array([1.0])
    eta, evals = backtrack(SBASParams(), ray(quad(), w, d), 1.0)
    assert eta == 1.0
    assert evals == 2


def test_zero_direction_returns_eta0_with_equality():
    w, d = np.array([1.0]), np.array([0.0])
    params = SBASParams(eta0=0.7)
    eta, _ = backtrack(params, ray(quad(), w, d, params), 0.0)
    assert eta == 0.7


def test_ascent_direction_returns_zero_sentinel():
    calls = []

    def f(v):
        calls.append(1)
        return 0.5 * float(v @ v)

    # moving along -d = +1 from w = 1 only increases f
    eta, evals = backtrack(SBASParams(), ray(f, np.array([1.0]), np.array([-1.0])), 1.0)
    assert eta == 0.0
    assert evals == len(calls) == 11  # max_backtracks + 1


def test_backtracks_on_stiff_quadratic():
    params = SBASParams()
    w = np.array([1.0])
    d = np.array([100.0])  # gradient of 50*w^2 at w=1
    eta, _ = backtrack(params, ray(quad(100.0), w, d, params), float(d @ d))
    assert eta > 0.0
    assert quad(100.0)(w - eta * d) <= quad(100.0)(w) - params.alpha * eta * float(d @ d)


def test_fallback_returns_last_tried_step_on_strict_decrease():
    # alpha so demanding that no trial satisfies Armijo, yet the smallest trial
    # still strictly reduces f: the last tried step is returned
    params = SBASParams(alpha=0.9999)
    w = np.array([1.0])
    d = np.array([1.0])
    eta, evals = backtrack(params, ray(quad(), w, d, params), float(d @ d))
    assert eta == pytest.approx(0.5 ** 9)
    assert evals == 11
    assert quad()(w - eta * d) < quad()(w)


@pytest.mark.parametrize("whole", [False, True], ids=["two_blocks", "one_block"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["accept", "sentinel"])
def test_single_trial_asks_for_no_empty_block(whole, sign):
    # with max_backtracks = 1 the ladder is (0, eta0) from either block
    # shape: an accept or the sentinel after 2 values read, and no block
    # formed for the rest
    formed = []
    w, d = np.array([1.0]), np.array([sign])
    params = SBASParams(max_backtracks=1)
    values, read = one_shot(blocks(quad(), w, d, params, whole, formed))
    eta, evals = backtrack(params, values, 1.0)
    assert (eta, evals) == ((1.0, 2) if sign > 0 else (0.0, 2))
    assert len(read) == evals and formed == [2]


def test_contract_on_random_problems():
    rng = np.random.default_rng(0)
    params = SBASParams()
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        a = rng.standard_normal((dim, dim))
        h = a @ a.T + 0.1 * np.eye(dim)
        c = rng.standard_normal(dim)
        f = lambda v: 0.5 * float(v @ h @ v) + float(c @ v)
        w = rng.standard_normal(dim)
        d = rng.standard_normal(dim)
        count = [0]

        def counted(v, f=f, count=count):
            count[0] += 1
            return f(v)

        # lazy values are formed once per counted evaluation
        values, read = one_shot(ray(counted, w, d))
        eta, evals = backtrack(params, values, float(d @ d))
        assert evals == len(read) == count[0] <= params.max_backtracks + 1
        if eta > 0.0:
            armijo = f(w - eta * d) <= f(w) - params.alpha * eta * float(d @ d)
            assert armijo or f(w - eta * d) < f(w)
        # either block shape gives the same search, read to its count, and
        # the rest of the ladder is formed only when eta0 fails
        for whole in (False, True):
            formed = []
            values, read = one_shot(blocks(f, w, d, params, whole, formed))
            assert backtrack(params, values, float(d @ d)) == (eta, evals)
            assert len(read) == evals
            rest = [params.max_backtracks - 1] if evals > 2 else []
            assert formed == ([params.max_backtracks + 1] if whole else [2] + rest)


def test_param_validation():
    for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(shrink=0.0),
                dict(shrink=1.0), dict(eta0=0.0), dict(eta0=np.nan), dict(eta0=np.inf),
                dict(max_backtracks=0)):
        with pytest.raises(ValueError):
            SBASParams(**bad)
    # a float or a bool count would fail only at a run's first search
    for bad in (3.0, True):
        with pytest.raises(ValueError, match="max_backtracks"):
            SBASParams(max_backtracks=bad)
