"""Nonmonotone acceptance machinery shared by both solvers.

A HistoryWindow keeps the last m+1 potential values; a candidate step is
accepted when its potential drops below the window maximum by at least
(alpha/2) times the squared step length. A line search that exhausts its
backtrack budget either stalled on rounding (`LineSearchStalled`) or
failed (`BacktrackCapError`); `cap_error` tells which.
"""

import math
from collections import deque


class HistoryWindow:
    """Ring of the (m+1) most recent (iteration index, potential) pairs."""

    def __init__(self, memory):
        if memory < 0:
            raise ValueError("memory must be nonnegative")
        self.memory = memory
        self._ring = deque(maxlen=memory + 1)

    def push(self, index, value):
        if self._ring and index <= self._ring[-1][0]:
            raise ValueError("indices must be strictly increasing")
        self._ring.append((index, value))

    def __len__(self):
        return len(self._ring)

    def entries(self):
        return list(self._ring)


def window_max(window):
    """(max stored potential, largest index attaining it)."""
    if len(window) == 0:
        raise ValueError("window is empty")
    best_val = None
    best_idx = None
    for idx, val in window.entries():
        if best_val is None or val >= best_val:  # >=: ties go to the larger index
            best_val = val
            best_idx = idx
    return best_val, best_idx


def accept(candidate, window, alpha, step_sq):
    """Nonmonotone acceptance test, non-strict and with zero slack."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if step_sq < 0:
        raise ValueError("step_sq must be nonnegative")
    bound, _ = window_max(window)
    return candidate <= bound - 0.5 * alpha * step_sq


def backtrack_params(l, beta0, tau0, eta1, eta2, tau_min):
    """Backtracking schedule: beta = beta0*eta1^l, tau = max(tau0*eta2^l, tau_min)."""
    if not (0 < eta1 < 1 and 0 < eta2 < 1):
        raise ValueError("eta1, eta2 must lie in (0, 1)")
    if tau_min <= 0:
        raise ValueError("tau_min must be positive")
    beta = beta0 * eta1**l
    tau = max(tau0 * eta2**l, tau_min)
    return beta, tau


class BacktrackCapError(RuntimeError):
    """Inner line search exhausted its backtrack budget.

    The run that raises it sets `records` to its Trace so far.
    """

    def __init__(self, k, cap, last_candidate):
        super().__init__(f"iteration {k}: line search exceeded {cap} backtracks")
        self.k = k
        self.cap = cap
        self.last_candidate = last_candidate


class LineSearchStalled(Exception):
    """Inner line search exhausted its backtrack budget, but only rounding
    rejected its last candidate: the run stops at the current iterate with
    stop reason "stalled"."""

    def __init__(self, k):
        super().__init__(f"iteration {k}: line search stalled on rounding")
        self.k = k


# How many ulp of the window bound count as rounding in `stalled`. The
# potential is a sum of many rounded terms, so a candidate that should
# pass can land a few ulp above the bound: pgls on the desk logistic
# instance 103 misses by 1 ulp (2.8e-14 at F = 138.6) with a required
# decrease of 3.3e-29.
STALL_ULPS = 4


def stalled(candidate, window, alpha, step_sq):
    """True when the required decrease (alpha/2)*step_sq and the
    candidate's miss of the window bound are both within STALL_ULPS ulp of
    that bound: in exact arithmetic the test could go either way, so
    rounding decides it, not the method."""
    bound, _ = window_max(window)
    slack = STALL_ULPS * math.ulp(bound)
    return 0.5 * alpha * step_sq <= slack and candidate - bound <= slack


def cap_error(k, cap, last_candidate, value, window, alpha, step_sq):
    """The exception for a line search at iteration k that used up its cap
    of backtracks, given its last candidate, that candidate's potential
    `value` and its squared step: LineSearchStalled if it `stalled`,
    BacktrackCapError otherwise. Checked only at the cap, never per trial,
    since further backtracks may still pass the test."""
    if stalled(value, window, alpha, step_sq):
        return LineSearchStalled(k)
    return BacktrackCapError(k, cap, last_candidate)
