"""Stochastic backtracking-Armijo line search evaluated on one mini-batch."""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, count, repeat
from operator import mul

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
        if type(self.max_backtracks) is not int or self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1 and an int, "
                             f"got {self.max_backtracks!r}")

    @cached_property
    def ladder(self):
        """The trial steps eta0 * shrink^j for j < max_backtracks, each the
        one before times shrink."""
        return tuple(accumulate(repeat(self.shrink, self.max_backtracks - 1),
                                mul, initial=self.eta0))

    @cached_property
    def steps(self):
        """0.0, then the ladder, as a read-only array."""
        steps = np.array((0.0, *self.ladder))
        steps.flags.writeable = False
        return steps


def backtrack(params, values, dd):
    """Backtracking-Armijo search along a ray.

    ``values`` iterates the objective phi(eta) at w - eta * d for the steps
    0 and then eta = eta0 * shrink^j for j = 0..max_backtracks-1
    (``params.steps``), in order, and ``dd`` is ||d||^2. Returns the first
    (largest) step satisfying the Armijo condition

        phi(eta) <= phi(0) - alpha * eta * ||d||^2.

    If no trial satisfies it, the last tried step is returned anyway when it
    strictly reduced phi; otherwise 0.0 signals the caller to skip the
    update. At most max_backtracks + 1 values are read, each counted: an
    accept at trial j counts j + 2. No value past the last one counted is
    read, so a lazy ``values`` evaluates once per count.

    Returns (eta, n_evals).
    """
    values = iter(values)
    base = next(values)
    gain = params.alpha * dd
    for evals, eta, value in zip(count(2), params.ladder, values):
        if value <= base - eta * gain:
            return eta, evals
    if value < base:
        return eta, evals
    return 0.0, evals
