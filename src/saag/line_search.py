"""Stochastic backtracking-Armijo line search evaluated on one mini-batch."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SBASParams:
    """Sufficient-decrease constant, backtrack factor, initial step, and the
    number of backtracking trials."""

    alpha: float = 0.1
    shrink: float = 0.5
    eta0: float = 1.0
    max_backtracks: int = 10

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")
        if not 0.0 < self.eta0 < np.inf:
            raise ValueError("eta0 must be finite and > 0")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")

    @cached_property
    def steps(self):
        """0.0, then the trial steps eta0 * shrink^j for j < max_backtracks,
        each the one before times shrink, as a read-only array."""
        steps = [0.0, self.eta0]
        for _ in range(self.max_backtracks - 1):
            steps.append(steps[-1] * self.shrink)
        steps = np.array(steps)
        steps.flags.writeable = False
        return steps


def backtrack(params, phi, dd):
    """Backtracking-Armijo search along a ray.

    ``phi(etas)`` gives the objective at w - eta * d for each step of the
    array ``etas``, in order, as an iterable, and ``dd`` is ||d||^2. Tries
    eta = eta0 * shrink^j for j = 0..max_backtracks-1 and returns the first
    (largest) step satisfying the Armijo condition

        phi(eta) <= phi(0) - alpha * eta * ||d||^2.

    If no trial satisfies it, the last tried step is returned anyway when it
    strictly reduced phi; otherwise 0.0 signals the caller to skip the
    update. At most max_backtracks + 1 evaluations of phi are spent, each
    counted. ``phi`` is asked for 0 and eta0 first and, only when eta0
    fails, for the other trials in one call; no value past the last one
    counted is read, so a lazy ``phi`` evaluates once per count.

    Returns (eta, n_evals).
    """
    steps = params.steps
    trials = _trials(phi, steps)
    _, base = next(trials)
    gain = params.alpha * dd
    evals = 1
    for eta, value in trials:
        evals += 1
        if value <= base - eta * gain:
            return eta, evals
    if value < base:
        return eta, evals
    return 0.0, evals


def _trials(phi, steps):
    yield from zip(steps[:2].tolist(), phi(steps[:2]))
    if steps.size > 2:
        yield from zip(steps[2:].tolist(), phi(steps[2:]))

