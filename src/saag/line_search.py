"""Stochastic backtracking-Armijo line search evaluated on one mini-batch."""

from dataclasses import dataclass


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
        if self.eta0 <= 0.0:
            raise ValueError("eta0 must be positive")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


def backtrack(params, phi, dd):
    """Backtracking-Armijo search along a ray.

    ``phi(eta)`` is the objective at w - eta * d and ``dd`` is ||d||^2.
    Tries eta = eta0 * shrink^j for j = 0..max_backtracks-1 and returns the
    first (largest) step satisfying the Armijo condition

        phi(eta) <= phi(0) - alpha * eta * ||d||^2.

    If no trial satisfies it, the last tried step is returned anyway when it
    strictly reduced phi; otherwise 0.0 signals the caller to skip the
    update. At most max_backtracks + 1 evaluations of phi are spent, each
    counted.

    Returns (eta, n_evals).
    """
    base = phi(0.0)
    evals = 1
    gain = params.alpha * dd
    eta = params.eta0
    trial_val = None
    trial_eta = 0.0
    for _ in range(params.max_backtracks):
        trial_eta = eta
        trial_val = phi(eta)
        evals += 1
        if trial_val <= base - eta * gain:
            return eta, evals
        eta *= params.shrink
    if trial_val < base:
        return trial_eta, evals
    return 0.0, evals


def sbas(params, f_batch, w, direction):
    """Backtracking-Armijo search along -direction using only the batch
    objective ``f_batch``; the contract is that of ``backtrack``.

    Returns (eta, n_evals).
    """
    return backtrack(params, lambda eta: f_batch(w - eta * direction),
                     float(direction @ direction))
