"""Stochastic backtracking-Armijo line search evaluated on one mini-batch."""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, repeat
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

    @cached_property
    def blocks(self):
        """The blocks ``backtrack`` hands ``phi``, by ``whole``: (0, eta0)
        and then the rest, or every step in one."""
        return (self.steps[:2], self.steps[2:]), (self.steps,)


def backtrack(params, phi, dd, whole=False):
    """Backtracking-Armijo search along a ray.

    ``phi(etas)`` gives the objective at w - eta * d for each step of the
    array ``etas``, in order, as an iterable, and ``dd`` is ||d||^2. Tries
    eta = eta0 * shrink^j for j = 0..max_backtracks-1 and returns the first
    (largest) step satisfying the Armijo condition

        phi(eta) <= phi(0) - alpha * eta * ||d||^2.

    If no trial satisfies it, the last tried step is returned anyway when it
    strictly reduced phi; otherwise 0.0 signals the caller to skip the
    update. At most max_backtracks + 1 evaluations of phi are spent, each
    counted: an accept at trial j counts j + 2. ``phi`` is asked for every
    step in one call when ``whole`` is true, else for 0 and eta0 and, only
    when eta0 fails, for the rest in a second call; no value past the last
    one counted is read, so a lazy ``phi`` evaluates once per count.

    Returns (eta, n_evals).
    """
    values = chain.from_iterable(map(phi, params.blocks[whole]))
    base = next(values)
    gain = params.alpha * dd
    for evals, eta, value in zip(count(2), params.ladder, values):
        if value <= base - eta * gain:
            return eta, evals
    if value < base:
        return eta, evals
    return 0.0, evals
