"""Nonmonotone line-search machinery shared by both solver families.

A run's window is a `collections.deque(maxlen=m + 1)` of (k, potential)
pairs, oldest first; a candidate step is accepted when its potential drops
below the window maximum by at least (alpha/2) times the squared step
length. `backtrack_params` is the one backtracking schedule of both
families. A line search that exhausts its backtrack budget either stalled
on rounding (`LineSearchStalled`) or failed (`BacktrackCapError`);
`cap_error` tells which. `nesterov` and `bb_ratio` give the two
initializations of a line search, its extrapolation weight and its
Barzilai-Borwein step. The step that accepts an iterate decides both for
the next step, and the state it returns carries them: beta0 with the
Nesterov counter t, and tau0 (PALM: tau1_0 and tau2_0). The validated
configs (`PgConfig.validated`, `PalmConfig.validated`) check the factors,
the first step sizes, the step-size floor, alpha, m and max_backtracks
once per run, the rules both share through `check_schedule`, so nothing
here checks them again per trial.

Every solver, line search or baseline, runs through `run_loop`: its start
state comes with the window and record of `run_start`, and each accepted
step's record comes from `step_record`. A run returns a `RunResult`.
"""

import math
import time
from array import array
from collections import deque
from dataclasses import dataclass, field, replace

from .trace import Trace, TraceRecord


def _sq(a):
    a = a.ravel()
    return float(a @ a)


def _dot(a, b):
    return float(a.ravel() @ b.ravel())


def window_max(window):
    """(max stored potential, largest index attaining it) of a non-empty
    window of (k, potential) pairs, oldest first. A NaN potential is never
    taken, except as the oldest entry, which then stays the maximum."""
    best_idx, best_val = window[0]
    for idx, val in window:
        if val >= best_val:  # >=: ties go to the larger index
            best_idx, best_val = idx, val
    return best_val, best_idx


def accept(candidate, window, alpha, step_sq):
    """Nonmonotone acceptance test, non-strict and with zero slack."""
    bound, _ = window_max(window)
    return candidate <= bound - 0.5 * alpha * step_sq


def nesterov(t, beta_max):
    """(beta, t_next) from the Nesterov counter t >= 1: the next counter
    t_next = (1 + sqrt(1 + 4*t^2))/2 and the weight (t - 1)/t_next capped
    at beta_max. The step that accepts x^k calls it with its own counter
    to fix beta_{k,0}, the weight of the step from x^k."""
    if t < 1.0:
        raise ValueError("the Nesterov counter must be >= 1")
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
    return min((t - 1.0) / t_next, beta_max), t_next


def bb_ratio(d_sq, dh_sq, inner, lo, hi, prev):
    """Safeguarded Barzilai-Borwein step from a secant pair (d, dh), given
    ||d||^2, ||dh||^2 and <d, dh>: the smaller of the two BB ratios, `hi`
    when the curvature <d, dh> is not positive against a relative guard,
    clipped to [lo, hi]. A zero d has no ratio: the step stays `prev`,
    the one it would replace."""
    if d_sq == 0.0:
        return prev
    guard = 1e-12 * math.sqrt(d_sq) * math.sqrt(dh_sq)
    if inner <= guard:
        candidate = hi
    else:
        candidate = min(d_sq / inner, inner / dh_sq)
    return max(min(candidate, hi), lo)


def backtrack_params(l, beta0, eta, tau_min, *steps):
    """The backtracking schedule of both families at trial l: beta0*eta^l,
    then max(tau0*eta_i^l, tau_min) for each (tau0, eta_i) of `steps`. PG
    passes (tau0, eta2) with eta = eta1; PALM passes (tau1_0, eta1) and
    (tau2_0, eta2) with eta = eta."""
    return (beta0 * eta**l,
            *[max(tau0 * eta_i**l, tau_min) for tau0, eta_i in steps])


def backtracks_to(start, target, eta):
    """Backtracks l that bring the schedule's start*eta^l to `target`: 0
    when start <= target, inf when target is 0, else the ceiling of
    log(target/start)/log(eta). The inner-loop bounds add these up."""
    if start <= target:
        return 0
    if target == 0.0:
        return math.inf
    return math.ceil(math.log(target / start) / math.log(eta))


def check_beta_max(beta_max):
    """Raise ValueError unless the extrapolation cap lies in [0, inf)."""
    if not 0.0 <= beta_max < math.inf:
        raise ValueError("beta_max must lie in [0, inf)")


def check_schedule(config, *factors):
    """Raise ValueError naming the field unless m and max_backtracks are
    nonnegative, beta_max lies in [0, inf) and each factor named in
    `factors` in (0, 1): the config rules both families share."""
    for name in ("m", "max_backtracks"):
        if getattr(config, name) < 0:
            raise ValueError(f"{name} must be nonnegative")
    check_beta_max(config.beta_max)
    for name in factors:
        if not 0.0 < getattr(config, name) < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")


def variant_config(variants, default, name, base=None):
    """`base`, or `default()`, with the overrides `variants[name]`; an
    unknown name raises ValueError. Each family binds its own pair."""
    if name not in variants:
        raise ValueError(f"unknown variant {name!r}; one of {', '.join(variants)}")
    return replace(default() if base is None else base, **variants[name])


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


def run_start(config, objective):
    """(window, record) at z^0, where every difference of the iterate pair
    is zero and so the potential equals the objective: the window holds
    (0, objective) with memory `config.m`, or is None without a config
    (the baselines), and the record is the start row of the trace."""
    window = None
    if config is not None:
        window = deque([(0, objective)], maxlen=config.m + 1)
    record = TraceRecord(
        k=0, time_s=0.0, objective=objective, potential=objective,
        step_norm=0.0, witness_norm=math.inf, beta=0.0, tau1=0.0, ell=0,
    )
    return window, record


def step_record(window, k, objective, potential, step_sq, witness_norm,
                beta, tau1, tau2=0.0, backtracks=0):
    """The TraceRecord of accepted step k, after appending (k, potential)
    to the window; its ell is the window maximum's index, or k for a run
    without a window."""
    ell = k
    if window is not None:
        window.append((k, potential))
        _, ell = window_max(window)
    return TraceRecord(
        k=k, time_s=0.0, objective=objective, potential=potential,
        step_norm=math.sqrt(step_sq), witness_norm=witness_norm, beta=beta,
        tau1=tau1, tau2=tau2, backtracks=backtracks, ell=ell,
    )


@dataclass
class RunResult:
    """Outcome of one solver run.

    `records` is the run's `Trace`, one record per iterate from the start
    point on, and `reason` the stop rule of `run_loop` that ended it.
    `meta` maps each line-search initialization the backtrack-count
    bound is replayed from (beta0 and tau0; the PALM family has tau1_0,
    tau2_0 and the block moduli L1k = L1(y^k), L2k1 = L2(x^{k+1})) to a
    float array with one entry per accepted iteration. `palm.palm_run`
    forms L1k and L2k1 after its loop, from the iterates' Gram matrices in
    one batched eigen-solve per block; no step computes them. It is
    diagnostic data, not part of the trace CSV, and empty for the
    fixed-step baselines and for a run that accepted no step. `extras`
    holds the validated config and the bounds a run derives (empty for
    the baselines).
    """

    x: object
    records: Trace
    reason: str
    meta: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def init_columns(inits):
    """A run's per-iteration initialization dicts (same keys) as one float
    array per key, the form `RunResult.meta` keeps."""
    return {key: array("d", [init[key] for init in inits])
            for key in (inits[0] if inits else ())}


def run_loop(step, state, record, config, sq_norm, trace_sink=None):
    """The outer loop every solver runs: `step(state)` returns (next state,
    its TraceRecord, init dict or None) for one accepted iteration, and
    `record` is the start point's.

    `trace_sink`, if given, receives the start record and then each
    accepted record before the stop rules see it. The rules are tested in
    this order: the witness norm below `config.stop_tol` times
    max(1, sqrt(sq_norm(state))) ("tolerance"; `sq_norm` is called once
    per accepted step, and a zero stop_tol turns the rule off), then the
    record's time over `config.time_budget` ("time_budget"), then
    `config.max_iters` steps taken ("max_iters"). A negative count, and a
    `stop_tol` or `time_budget` that is negative or NaN (which would turn
    its rule off, or stop after the first step), raise ValueError before
    the first step. A step that raises
    LineSearchStalled ends the run at the last accepted state ("stalled");
    a BacktrackCapError propagates with the trace so far as its `records`.
    Returns (final state, Trace, reason, meta from the init dicts).
    """
    if config.max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    for name in ("stop_tol", "time_budget"):
        if not getattr(config, name) >= 0.0:
            raise ValueError(f"{name} must lie in [0, inf]")
    records = [record]
    if trace_sink:
        trace_sink(record)
    inits = []
    reason = "max_iters"
    start = time.perf_counter()
    for _ in range(config.max_iters):
        try:
            state, record, init = step(state)
        except LineSearchStalled:
            reason = "stalled"
            break
        except BacktrackCapError as e:
            e.records = Trace(records)  # trace so far, for persistence by callers
            raise
        record.time_s = time.perf_counter() - start
        records.append(record)
        if init is not None:
            inits.append(init)
        if trace_sink:
            trace_sink(record)
        if record.witness_norm < config.stop_tol * max(1.0, math.sqrt(sq_norm(state))):
            reason = "tolerance"
            break
        if record.time_s > config.time_budget:
            reason = "time_budget"
            break
    return state, Trace(records), reason, init_columns(inits)
