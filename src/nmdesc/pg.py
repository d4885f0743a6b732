"""Proximal gradient with extrapolation and nonmonotone line search, its
degenerations, and the FISTA / restarted-FISTA baselines.

The solver state carries the iterate pair z^k = (x^k, x^{k-1}); acceptance
is tested on the potential H_delta(z) = F(x) + (delta/2)*||x - u||^2. Named
variants:

* pgenls -- full method (window m > 0, extrapolation on)
* pgnls  -- beta_max = 0
* pgels  -- m = 0
* pgls   -- delta = 0, beta_max = 0, m = 0 (plain monotone line search)
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import nls
from .nls import (
    RunResult,
    _dot,
    _sq,
    accept,
    backtrack_params,
    backtracks_to,
    bb_ratio,
    cap_error,
    check_schedule,
    nesterov,
    run_loop,
    run_start,
    step_record,
)


@dataclass
class PgConfig:
    m: int = 5
    delta: float = 0.01
    alpha: float = 1e-5
    tau_min: float = None  # default 1e-3/(2*(alpha+delta)+L) at validation
    tau_max: float = 1e6
    beta_max: float = 1.0
    eta1: float = 0.05
    eta2: float = 0.1
    max_backtracks: int = 60
    stop_tol: float = 1e-8
    max_iters: int = 1000
    time_budget: float = math.inf
    tau0: float = None  # default 1/L; logistic experiments use 10/||A~||

    def validated(self, lipschitz):
        """Fill step-bound defaults from L and check the config invariants."""
        cfg = replace(self)
        L = float(lipschitz)
        check_schedule(cfg, "eta1", "eta2")
        if cfg.delta == 0.0:
            if cfg.beta_max != 0.0 or cfg.m != 0:
                raise ValueError("delta=0 requires beta_max=0 and m=0")
        elif not 0.0 < cfg.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if cfg.delta > 0.0 and not 0.0 < cfg.alpha < cfg.delta / 2.0:
            raise ValueError("alpha must lie in (0, delta/2)")
        if cfg.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        barrier = 1.0 / (2.0 * (cfg.alpha + cfg.delta) + L)
        if cfg.tau_min is None:
            cfg.tau_min = 1e-3 * barrier
        if not 0.0 < cfg.tau_min <= barrier < cfg.tau_max:
            raise ValueError(
                f"need 0 < tau_min <= {barrier:.3e} < tau_max for this problem"
            )
        if cfg.tau0 is None:
            cfg.tau0 = 1.0 / L
        if not cfg.tau0 > 0.0:
            raise ValueError("tau0 must be positive")
        return cfg


PG_VARIANTS = {
    "pgenls": {},
    "pgnls": {"beta_max": 0.0},
    "pgels": {"m": 0},
    "pgls": {"delta": 0.0, "beta_max": 0.0, "m": 0},
}


# variant_config(name, base=None): the PgConfig of a named variant
variant_config = partial(nls.variant_config, PG_VARIANTS, PgConfig)


@dataclass
class IterateState:
    """Solver state at z^k = (x^k, x^{k-1}): what the next step reads.

    `window` is the run's history window, a deque of the last m+1
    (k, potential) pairs that each step appends to (None for FISTA). The
    step that accepted x^k decided the next step's initialization: beta0
    from the Nesterov counter t (`nls.nesterov`), tau0 from its own secant
    (`bb_init_tau`). The oracle results of accepted points are carried, so
    no point is evaluated twice: grad f(x^k) serves the zero-extrapolation
    trial, and the linear images z of x^k and x^{k-1} (the problem's
    `smooth` returns them; None if it has none) give the image of an
    extrapolated point y = x^k + beta*d without evaluating it from y.
    d_sq is ||d||^2, formed by the line-search step that took d (0 at the
    start; FISTA's steps neither read nor set it).

    `ahead` is the pair (y, grad f(y)) at the point y = x^k + beta0*d of
    the next step's first trial, where beta0 > 0 (None otherwise), taken
    in the same product as grad f(x^k) (see `_accepted_grads`): a first
    trial with beta = beta0 evaluates nothing at y.
    """

    x: np.ndarray
    d: np.ndarray                      # x^k - x^{k-1}
    window: deque
    d_sq: float = None                 # ||d||^2
    t: float = 1.0
    beta0: float = 0.0
    k: int = 0
    tau0: float = None
    grad_x: np.ndarray = None          # grad f(x^k)
    z: np.ndarray = None               # linear image of x^k (the margins)
    z_prev: np.ndarray = None          # linear image of x^{k-1}
    ahead: tuple = None                # (y, grad f(y)) of the next first trial


def _extrapolate(z, z_prev, beta):
    """Linear image of y = x + beta*(x - x_prev) from those of x and x_prev
    (None where either is unknown): a multiply-add instead of a product
    with the problem's matrix. The images are refreshed from every accepted
    point, so the rounding of one extrapolation does not accumulate."""
    if z is None or z_prev is None:
        return None
    return z + beta * (z - z_prev)


def _accepted_grads(grad, x_new, step, z_new, z, beta_next):
    """(grad f(x^{k+1}), ahead) for an accepted point x^{k+1} = x^k + step
    whose evaluation gave `grad` and the linear image z_new (z is x^k's).
    When the next step's beta0 `beta_next` is positive, ahead is
    (y, grad f(y)) at that step's first trial point y = x^{k+1} +
    beta_next*step, with both gradients from one `grad((y, z_y))`; y and
    its image z_y are formed as the next step would form them, to the
    bit. Otherwise ahead is None and grad() is asked alone."""
    if beta_next == 0.0:
        return grad(), None
    y = x_new + beta_next * step
    g_new, g_y = grad((y, _extrapolate(z_new, z, beta_next)))
    return g_new, (y, g_y)


def bb_init_tau(d, d_sq, d_prev, d_prev_sq, grads, delta, tau_min, tau_max, prev_tau):
    """Barzilai-Borwein step initialization on the smoothed pair space at
    z^{k+1} = (x^{k+1}, x^k), from the steps d = x^{k+1} - x^k and d_prev =
    x^k - x^{k-1}, their squared norms d_sq and d_prev_sq, and grads =
    (grad f(x^{k+1}), grad f(x^k)); a zero secant keeps prev_tau
    (`nls.bb_ratio`).

    The gradient of the smooth part over z = (x, u) is (grad f(x) +
    delta*(x-u), -delta*(x-u)), and x - u is d at z^{k+1} and d_prev at
    z^k, so the secant pair is (d, d_prev) against that gradient's
    difference.
    """
    gx, gxp = grads
    dd, dd_prev = delta * d, delta * d_prev
    dzeta_a = gx + dd - gxp - dd_prev
    dzeta_b = dd_prev - dd
    dzeta_sq = _sq(dzeta_a) + _sq(dzeta_b)
    inner = _dot(d, dzeta_a) + _dot(d_prev, dzeta_b)
    return bb_ratio(d_sq + d_prev_sq, dzeta_sq, inner, tau_min, tau_max, prev_tau)


def safe_beta_bound_pg(tau, lipschitz, delta):
    """Extrapolation bound under which the acceptance test cannot fail
    (for step sizes below the 1/(2*alpha+2*delta+L) barrier)."""
    radicand = delta * (tau - tau * tau * lipschitz)
    if radicand <= 0.0:
        return 0.0
    return math.sqrt(radicand / (4.0 * (1.0 + tau * lipschitz) ** 2))


def backtrack_bound_pg(tau0, beta0, config, lipschitz):
    """Upper bound on the inner-loop count implied by the safe-step analysis."""
    target = 1.0 / (2.0 * config.alpha + 2.0 * config.delta + lipschitz)
    beta_floor = min(
        safe_beta_bound_pg(config.tau_min, lipschitz, config.delta),
        safe_beta_bound_pg(target, lipschitz, config.delta),
    )
    return (backtracks_to(tau0, target, config.eta2)
            + backtracks_to(beta0, beta_floor, config.eta1) + 1)


def subgrad_witness_pg(x_new, y, tau, grad_new, grad_y, delta, step):
    """Norm of the subgradient witness (wa, -delta*step) at z^{k+1} =
    (x^{k+1}, x^k), from the prox optimality condition of the accepted
    step (y^k, tau_k); `step` is x^{k+1} - x^k."""
    # delta*(x^k - x^{k+1}) is -(delta*step) to the bit: rounding is symmetric
    w = delta * step
    wa = grad_new - grad_y - (x_new - y) / tau + w
    return math.sqrt(_sq(wa) + _sq(w))


def h2_constant_pg(config, lipschitz):
    """Relative-error constant: sqrt(2)*[(L + 1/tau_min)(1+beta_max) + 2*delta]."""
    return math.sqrt(2.0) * (
        (lipschitz + 1.0 / config.tau_min) * (1.0 + config.beta_max)
        + 2.0 * config.delta
    )


def start_state(problem, x0, config=None):
    """(state, record) at z^0 = (x0, x0), from one evaluation at x0. A
    line-search config gives the state its history window, holding
    (0, H_delta(z^0) = F(x0)), and tau0 clipped to [tau_min, tau_max];
    FISTA's state (config None) has neither."""
    x0 = np.asarray(x0, dtype=np.float64)
    f0, grad0, z0 = problem.smooth(x0)
    window, record = run_start(config, f0 + problem.g.value(x0))
    tau0 = (None if config is None
            else min(max(config.tau0, config.tau_min), config.tau_max))
    state = IterateState(x=x0.copy(), d=np.zeros_like(x0), window=window, d_sq=0.0,
                         tau0=tau0, grad_x=grad0(), z=z0, z_prev=z0)
    return state, record


def pg_step(state, problem, config):
    """One outer iteration: backtracking inner loop until acceptance.

    The state's step d = x^k - x^{k-1} and ||d||^2, formed once by the step
    that took d, serve the extrapolated points, the step norm and the next
    initialization; a trial forms its step x^{k+1} - x^k and that step's
    squared norm once, for the step norm and the potential, and the
    accepted trial's serve the witness and become the next state's d and
    d_sq. Each trial candidate is evaluated once: its value gives the
    potential and the record's objective, and only the accepted one is
    asked for its gradient, carried as grad f(x^{k+1}). The accepted step
    decides the next beta0 (`nls.nesterov`) and tau0 (`bb_init_tau`, which
    evaluates nothing); when beta0 is positive, that gradient comes with
    the gradient at the next step's first trial point from one product
    (`_accepted_grads`), carried as the state's `ahead`: the first trial
    with beta = beta0 > 0 reads it, and a later trial with beta > 0
    evaluates the gradient at its y, from the extrapolated linear image of
    the iterates. Returns (new state, TraceRecord, init dict).
    When the inner loop exhausts its budget it raises `nls.cap_error`'s
    exception: LineSearchStalled if rounding alone rejected the last
    candidate, else BacktrackCapError carrying it.
    """
    beta0, x, d, d_sq = state.beta0, state.x, state.d, state.d_sq
    gx, z = state.grad_x, state.z

    for l in range(config.max_backtracks + 1):
        beta, tau = backtrack_params(
            l, beta0, config.eta1, config.tau_min, (state.tau0, config.eta2)
        )
        if beta == 0.0:
            y, gy = x, gx
        elif l == 0:  # beta = beta0, which the last step formed y with
            y, gy = state.ahead
        else:
            y = x + beta * d
            _, grad_y, _ = problem.smooth(y, _extrapolate(z, state.z_prev, beta))
            gy = grad_y()
        candidate = problem.g.prox(y - tau * gy, tau)
        step = candidate - x
        new_sq = _sq(step)
        # with delta = 0 the potential carries no coupling term to pay for
        # the previous step, so the classical single-step criterion applies
        step_sq = new_sq + d_sq if config.delta > 0.0 else new_sq
        f_cand, grad_cand, z_new = problem.smooth(candidate)
        F_cand = f_cand + problem.g.value(candidate)
        # H_delta(z^{k+1}) = F(x^{k+1}) + (delta/2)*||x^{k+1} - x^k||^2
        h_cand = F_cand + 0.5 * config.delta * new_sq
        if accept(h_cand, state.window, config.alpha, step_sq):
            break
    else:
        raise cap_error(state.k, config.max_backtracks, candidate, h_cand,
                        state.window, config.alpha, step_sq)

    beta_next, t_next = nesterov(state.t, config.beta_max)
    grad_new, ahead = _accepted_grads(grad_cand, candidate, step, z_new, z,
                                      beta_next)
    tau_next = bb_init_tau(step, new_sq, d, d_sq, (grad_new, gx), config.delta,
                           config.tau_min, config.tau_max, prev_tau=state.tau0)
    wnorm = subgrad_witness_pg(candidate, y, tau, grad_new, gy, config.delta, step)
    new_state = IterateState(
        x=candidate, d=step, window=state.window, d_sq=new_sq, t=t_next,
        beta0=beta_next, k=state.k + 1, tau0=tau_next, grad_x=grad_new, z=z_new,
        z_prev=z, ahead=ahead,
    )
    record = step_record(new_state.window, new_state.k, F_cand, h_cand, step_sq,
                         wnorm, beta, tau, backtracks=l)
    return new_state, record, {"beta0": beta0, "tau0": state.tau0}


def pg_run(problem, x0, config, trace_sink=None):
    """Run the line-search method from x0 until the stopping rule fires.

    The result's stop reason is "tolerance", "max_iters", "time_budget", or
    "stalled" (the line search stalled on rounding; x is the last accepted
    iterate). `trace_sink` is `nls.run_loop`'s.
    """
    cfg = config.validated(problem.lipschitz)
    state, record = start_state(problem, x0, cfg)
    state, records, reason, meta = run_loop(
        lambda s: pg_step(s, problem, cfg), state, record, cfg,
        lambda s: _sq(s.x), trace_sink,
    )
    return RunResult(
        x=state.x, records=records, reason=reason, meta=meta,
        extras={"config": cfg, "h2_bound": h2_constant_pg(cfg, problem.lipschitz)},
    )


# -- FISTA baselines -----------------------------------------------------------

def _fista_step(state, problem, tau, restart):
    """One FISTA iteration from `state` (see `fista_run`); returns (state,
    TraceRecord, None)."""
    x, beta = state.x, state.beta0
    y, gy = (x, state.grad_x) if beta == 0.0 else state.ahead
    x_new = problem.g.prox(y - tau * gy, tau)
    step = x_new - x
    k = state.k + 1
    beta_next, t_next = nesterov(state.t, math.inf)
    if restart and (k % 250 == 0 or _dot(y - x_new, step) > 0.0):
        beta_next, t_next = 0.0, 1.0  # the start state's
    f, grad, z_new = problem.smooth(x_new)
    g_new, ahead = _accepted_grads(grad, x_new, step, z_new, state.z, beta_next)
    F = f + problem.g.value(x_new)
    wnorm = subgrad_witness_pg(x_new, y, tau, g_new, gy, 0.0, step)
    new_state = IterateState(
        x=x_new, d=step, window=None, t=t_next, beta0=beta_next, k=k,
        grad_x=g_new, z=z_new, z_prev=state.z, ahead=ahead,
    )
    return new_state, step_record(None, k, F, F, _sq(step), wnorm, beta, tau), None


def fista_run(problem, x0, config, restart=False):
    """Fixed-step FISTA (tau = 1/L). With `restart`, the Nesterov counter
    and weight reset to the start state's when k is a multiple of 250 or
    the momentum turns against the step direction (<y^k - x^{k+1},
    x^{k+1} - x^k> > 0).

    Each iterate is evaluated once, for its objective and the gradient the
    witness and a zero-extrapolation step reuse. y^k is never evaluated:
    where it differs from x^k, its gradient came with grad f(x^k) from one
    product, asked by the step that accepted x^k once the restart test had
    fixed beta_k (see `IterateState.ahead`)."""
    tau = 1.0 / problem.lipschitz
    state, record = start_state(problem, x0)
    record.tau1 = tau
    state, records, reason, _ = run_loop(
        lambda s: _fista_step(s, problem, tau, restart), state, record, config,
        lambda s: _sq(s.x),
    )
    return RunResult(x=state.x, records=records, reason=reason)
