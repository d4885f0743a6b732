"""Proximal alternating linearized minimization with extrapolation and a
nonmonotone line search, plus the classical PALM / PALMe baselines.

State is the four-tuple z^k = (x^k, y^k, x^{k-1}, y^{k-1}); acceptance uses
the potential Upsilon_delta(z) = Psi(x, y) + (delta/2)(||x-u||^2+||y-v||^2).
Named variants:

* palmenls -- full method
* palmnls  -- beta_max = 0
* palmels  -- m = 0
* palmls   -- beta_max = 0 and m = 0
* palm     -- baseline, fixed steps 1/L1(y^k), 1/L2(x^{k+1}), no search
* palme    -- the same with Nesterov extrapolation
"""

import math
import warnings
from array import array
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .nls import (
    BacktrackCapError,
    RunResult,
    _dot,
    _sq,
    accept,
    backtrack_params,
    bb_ratio,
    cap_error,
    extrapolation,
    run_loop,
    run_start,
    step_record,
)


@dataclass
class PalmConfig:
    m: int = 5
    delta: float = 0.01
    alpha: float = 1e-5
    tau_lo: float = 1e-8
    tau_hi: float = 1e8
    beta_max: float = 1.0
    eta: float = 0.01    # backtracking factor for beta
    eta1: float = 0.5    # for tau_1
    eta2: float = 0.5    # for tau_2
    max_backtracks: int = 60
    stop_tol: float = 1e-8
    max_iters: int = 500
    time_budget: float = math.inf
    tau1_0: float = None  # default 100/L1(y^0)
    tau2_0: float = None  # default 100/L2(x^1), approximated with x^0

    def validated(self, lipschitz_start):
        cfg = replace(self)
        for name in ("m", "max_backtracks"):
            if getattr(cfg, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 <= cfg.beta_max < math.inf:
            raise ValueError("beta_max must lie in [0, inf)")
        if not 0.0 < cfg.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < cfg.alpha <= cfg.delta / 2.0:
            raise ValueError("alpha must lie in (0, delta/2]")
        barrier = 1.0 / (lipschitz_start + cfg.delta + 2.0 * cfg.alpha)
        if not 0.0 < cfg.tau_lo < barrier < cfg.tau_hi:
            raise ValueError(
                f"need 0 < tau_lo < {barrier:.3e} < tau_hi at the start point"
            )
        for name in ("eta", "eta1", "eta2"):
            v = getattr(cfg, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        return cfg


PALM_VARIANTS = {
    "palmenls": {},
    "palmnls": {"beta_max": 0.0},
    "palmels": {"m": 0},
    "palmls": {"beta_max": 0.0, "m": 0},
}


def variant_config(name, base=None):
    if name not in PALM_VARIANTS:
        raise ValueError(f"unknown PALM variant {name!r}")
    cfg = base if base is not None else PalmConfig()
    return replace(cfg, **PALM_VARIANTS[name])


@dataclass
class BlockIterateState:
    """Iterate z^k = (x, y, x_prev, y_prev): what the next step reads.

    `window` is the run's history window, a deque of the last m+1
    (k, potential) pairs that each step appends to (None for the
    baselines), and t_prev, t_cur the Nesterov counters. The state carries
    the coupling's gradients at (x, y): gx = grad_x H(x, y) and
    gy = grad_y H(x, y), from the evaluation that gave the point's
    objective. The next step reuses gx and gy in its Barzilai-Borwein
    initialization, with the last initializations tau1_init_prev and
    tau2_init_prev, and gx as the trial gradient of a zero-extrapolation
    trial, whose x~ is x. After an accepted step the state also carries
    that step's extrapolation weight beta_last and its trial's
    gy_trial = grad_y H(x, y~): after a step with beta_last = 0, y~ is
    y_prev, so gy_trial is the initialization's grad_y H(x, y_prev). The
    baselines' start state has no gy.
    """

    x: np.ndarray
    y: np.ndarray
    x_prev: np.ndarray
    y_prev: np.ndarray
    window: deque
    t_prev: float = 1.0
    t_cur: float = 1.0
    k: int = 0
    tau1_init_prev: float = None
    tau2_init_prev: float = None
    beta_last: float = None  # extrapolation of the last accepted step
    gy_trial: np.ndarray = None
    gx: np.ndarray = None
    gy: np.ndarray = None


def step_differences(state):
    """(x - x_prev, y - y_prev, ||x - x_prev||^2, ||y - y_prev||^2) of a
    state: what its Barzilai-Borwein initialization, extrapolated points,
    step norm and witness are formed from."""
    dx = state.x - state.x_prev
    dy = state.y - state.y_prev
    return dx, dy, _sq(dx), _sq(dy)


def bb_init_tau_blocks(state, problem, tau_lo, tau_hi, diffs):
    """Per-block Barzilai-Borwein initializations.

    The x secant uses gradients at the CURRENT y^k; the y secant uses the
    CURRENT x^k. A zero block difference reuses the previous initialization.
    The gradients at (x^k, y^k) come from the state, and so does
    grad_y H(x^k, y^{k-1}) after a step without extrapolation. `diffs` is
    the state's `step_differences`.
    """
    dx, dy, dx_sq, dy_sq = diffs
    _, grad_x, _ = problem.coupling(state.x_prev, state.y)
    dhx = state.gx - grad_x()
    if state.beta_last == 0.0:
        gy_prev = state.gy_trial
    else:
        _, _, grad_y = problem.coupling(state.x, state.y_prev)
        gy_prev = grad_y()
    dhy = state.gy - gy_prev
    tau1, tau2 = state.tau1_init_prev, state.tau2_init_prev
    if dx_sq != 0.0:
        tau1 = bb_ratio(dx_sq, _sq(dhx), _dot(dx, dhx), tau_lo, tau_hi)
    if dy_sq != 0.0:
        tau2 = bb_ratio(dy_sq, _sq(dhy), _dot(dy, dhy), tau_lo, tau_hi)
    return tau1, tau2


def safe_beta_bound_palm(tau1, tau2, L1k, L2k1, delta):
    """Extrapolation bound from the two-block descent analysis; 0 when a
    step size is at or above 1/(L_block + delta)."""
    def block(tau, L):
        slack = 1.0 / tau - L - delta
        if slack <= 0.0:
            return 0.0
        denom = L * slack + (1.0 / tau - L) ** 2
        return math.sqrt(0.25 * delta * slack / denom)

    return min(block(tau1, L1k), block(tau2, L2k1))


def backtrack_bound_palm(tau1_0, tau2_0, beta0, config, L1k, L2k1):
    """Upper bound on the inner-loop count implied by the safe-step analysis,
    from the logged initializations and block moduli."""
    L = max(L1k, L2k1)
    target = 1.0 / (L + config.delta + 2.0 * config.alpha)

    def steps_tau(tau0, eta):
        if tau0 <= target:
            return 0
        return math.ceil(math.log(target / tau0) / math.log(eta))

    l_tau = max(steps_tau(tau1_0, config.eta1), steps_tau(tau2_0, config.eta2))
    floor = min(
        safe_beta_bound_palm(config.tau_lo, config.tau_lo, L1k, L2k1, config.delta),
        safe_beta_bound_palm(target, target, L1k, L2k1, config.delta),
    )
    if beta0 <= floor:
        l_beta = 0
    elif floor == 0.0:
        l_beta = math.inf
    else:
        l_beta = math.ceil(math.log(floor / beta0) / math.log(config.eta))
    return l_tau + l_beta + 1


def subgrad_witness_palm(state, points, taus, trial_grads, delta, steps):
    """Norm of the subgradient witness (w1, w2, -delta*dx, -delta*dy) at
    z^{k+1}, from the two prox optimality conditions of the accepted step
    that led to `state`: its extrapolated points `points` = (x~, y~), its
    step sizes `taus` = (tau1, tau2), its trial gradients `trial_grads` =
    (grad_x H(x~, y^k), grad_y H(x^{k+1}, y~)), and the gradients at the
    new point that the state carries. `steps` is the step's (dx, dy) =
    (x^{k+1} - x^k, y^{k+1} - y^k)."""
    x, y = state.x, state.y
    xt, yt = points
    tau1, tau2 = taus
    gx_trial, gy_trial = trial_grads
    dx, dy = steps
    # delta*(x_prev - x) is -(delta*dx) to the bit: rounding is symmetric
    w3 = delta * dx
    w4 = delta * dy
    w1 = state.gx - gx_trial - (x - xt) / tau1 + w3
    w2 = state.gy - gy_trial - (y - yt) / tau2 + w4
    return math.sqrt(_sq(w1) + _sq(w2) + _sq(w3) + _sq(w4))


def h2_constant_palm(config, M, L2bar):
    """Relative-error constant 2*delta + 2*max(1,beta_max)*(M + 2/tau_lo + L2bar)."""
    return 2.0 * config.delta + 2.0 * max(1.0, config.beta_max) * (
        M + 2.0 / config.tau_lo + L2bar
    )


def palm_step(state, problem, config):
    """One outer iteration of the line-search method.

    Both block updates are recomputed on every backtrack: the x block at the
    extrapolated x with y^k fixed, then the y block at the extrapolated y
    with the NEW x. A trial with beta = 0 takes its x block at x^k itself,
    with the gradient the state carries there. Each trial evaluates the
    coupling at its point for the potential; only the accepted trial's
    evaluation is asked for the gradients at the new point. These and the
    accepted trial's gradients go on the returned state, for the witness
    and the next step's initialization. The step differences x^k - x^{k-1}
    and y^k - y^{k-1} and their squared norms are formed once, at the top,
    for the initialization, the extrapolated points and the step norm; a
    trial forms its own differences x^{k+1} - x^k and y^{k+1} - y^k once,
    for the step norm and the potential, and the accepted trial's serve
    the witness. Returns (state, TraceRecord, init dict of beta0, tau1_0
    and tau2_0). The block moduli L1(y^k) and L2(x^{k+1}) are not computed
    here: `palm_run` forms them for the whole run at its end. At the
    backtrack cap it raises `nls.cap_error`'s exception, as `pg_step` does.
    """
    beta0, t_next = extrapolation(config, state.t_prev, state.t_cur)

    diffs = step_differences(state)
    dx, dy, dx_sq, dy_sq = diffs
    if state.k >= 1:
        tau1_0, tau2_0 = bb_init_tau_blocks(
            state, problem, config.tau_lo, config.tau_hi, diffs
        )
    else:
        tau1_0 = min(max(config.tau1_0, config.tau_lo), config.tau_hi)
        tau2_0 = min(max(config.tau2_0, config.tau_lo), config.tau_hi)

    for l in range(config.max_backtracks + 1):
        beta, tau1, tau2 = backtrack_params(
            l, beta0, config.eta, config.tau_lo,
            (tau1_0, config.eta1), (tau2_0, config.eta2),
        )
        if beta == 0.0:
            xt, yt, gx_trial = state.x, state.y, state.gx
        else:
            xt = state.x + beta * dx
            yt = state.y + beta * dy
            _, grad_x, _ = problem.coupling(xt, state.y)
            gx_trial = grad_x()
        x_new = problem.f.prox(xt - tau1 * gx_trial, tau1)
        _, _, grad_y = problem.coupling(x_new, yt)
        gy_trial = grad_y()
        y_new = problem.g.prox(yt - tau2 * gy_trial, tau2)
        dx_new = x_new - state.x
        dy_new = y_new - state.y
        new_sq = _sq(dx_new) + _sq(dy_new)
        step_sq = new_sq + dx_sq + dy_sq
        obj, grad_x, grad_y = problem.objective(x_new, y_new)
        # Upsilon_delta(z^{k+1}) = Psi + (delta/2)(||x^{k+1}-x^k||^2 + ||y^{k+1}-y^k||^2)
        ups = obj + 0.5 * config.delta * new_sq
        if accept(ups, state.window, config.alpha, step_sq):
            break
    else:
        raise cap_error(state.k, config.max_backtracks, (x_new, y_new), ups,
                        state.window, config.alpha, step_sq)

    new_state = BlockIterateState(
        x=x_new, y=y_new, x_prev=state.x, y_prev=state.y,
        window=state.window, t_prev=state.t_cur, t_cur=t_next, k=state.k + 1,
        tau1_init_prev=tau1_0, tau2_init_prev=tau2_0, beta_last=beta,
        gy_trial=gy_trial, gx=grad_x(), gy=grad_y(),
    )
    wnorm = subgrad_witness_palm(new_state, (xt, yt), (tau1, tau2),
                                 (gx_trial, gy_trial), config.delta,
                                 (dx_new, dy_new))
    record = step_record(new_state.window, new_state.k, obj, ups, step_sq,
                         wnorm, beta, tau1, tau2, backtracks=l)
    init = {"beta0": beta0, "tau1_0": tau1_0, "tau2_0": tau2_0}
    return new_state, record, init


def _run_moduli(grams_y, grams_x, L_start, config):
    """(L1k, L2k1, L_run) of a run from its kept Gram matrices, with one
    batched eigvalsh per block: each top eigenvalue equals, bit for bit,
    the one eigvalsh gives for its matrix alone, since the batched call
    runs the same LAPACK solver on each matrix in turn. Warns once if
    tau_lo is not below the step-size barrier at L_run."""
    moduli = [
        array("d", np.linalg.eigvalsh(np.stack(grams))[:, -1] if grams else ())
        for grams in (grams_y, grams_x)
    ]
    L_run = max([L_start, *moduli[0], *moduli[1]])
    if config.tau_lo >= 1.0 / (L_run + config.delta + 2.0 * config.alpha):
        warnings.warn(
            "running Lipschitz estimate violates the tau_lo bound",
            RuntimeWarning,
        )
    return moduli[0], moduli[1], L_run


def start_state(problem, x0, y0, config=None):
    """(state, record) at z^0 = (x0, y0, x0, y0), from one evaluation at
    (x0, y0). A line-search config gives the state its history window,
    holding (0, Upsilon(z^0) = Psi(x0, y0)), and grad_y H there; the
    baselines' state (config None) has neither, since they never read
    them."""
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    obj0, grad_x, grad_y = problem.objective(x0, y0)
    window, record = run_start(config, obj0)
    state = BlockIterateState(
        x=x0.copy(), y=y0.copy(), x_prev=x0.copy(), y_prev=y0.copy(),
        window=window, gx=grad_x(), gy=None if config is None else grad_y(),
    )
    return state, record


def palm_run(problem, x0, y0, config, trace_sink=None):
    """Run the line-search method from (x0, y0) until a stopping rule fires.

    The result's stop reason is "tolerance", "max_iters", "time_budget", or
    "stalled", as for `pg.pg_run`, and `trace_sink` is `nls.run_loop`'s. Its
    extras carry the running Lipschitz estimate L_run (the largest block
    modulus at the start point and at every accepted iteration), the
    observed ball radii, and the relative-error bound computed from them.
    The per-iteration moduli L1(y^k) and L2(x^{k+1}) go into `meta` next to
    the initializations (`meta` is empty when no step was accepted). The
    problem must give `gram`: each step keeps gram(y^k) and gram(x^{k+1})
    (r x r, about 0.9 kB each at r = 10), and `_run_moduli` turns them into
    moduli once the loop ends. It then issues a RuntimeWarning, once, if
    tau_lo is not below the step-size barrier 1/(L_run + delta + 2*alpha);
    a run that raises `BacktrackCapError` gets the same check, over the
    iterations it accepted, before the error propagates.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    L1_0, L2_0 = problem.L1(y0), problem.L2(x0)
    L_start = max(L1_0, L2_0)
    cfg = config.validated(L_start)
    if cfg.tau1_0 is None:
        cfg.tau1_0 = 100.0 / max(L1_0, 1e-12)
    if cfg.tau2_0 is None:
        cfg.tau2_0 = 100.0 / max(L2_0, 1e-12)

    grams_y, grams_x = [], []  # gram(y^k) and gram(x^{k+1}) per iteration
    radii = [math.sqrt(_sq(x0)), math.sqrt(_sq(y0))]  # largest ||x^k||, ||y^k||

    def step(state):
        y_k = state.y
        state, record, init = palm_step(state, problem, cfg)
        grams_y.append(problem.gram(y_k))
        grams_x.append(problem.gram(state.x))
        return state, record, init

    def sq_norm(state):
        x_sq, y_sq = _sq(state.x), _sq(state.y)
        radii[0] = max(radii[0], math.sqrt(x_sq))
        radii[1] = max(radii[1], math.sqrt(y_sq))
        return x_sq + y_sq

    state, record = start_state(problem, x0, y0, cfg)
    try:
        state, records, reason, meta = run_loop(
            step, state, record, cfg, sq_norm, trace_sink)
    except BacktrackCapError:
        _run_moduli(grams_y, grams_x, L_start, cfg)
        raise
    L1k, L2k1, L_run = _run_moduli(grams_y, grams_x, L_start, cfg)
    if meta:
        meta["L1k"], meta["L2k1"] = L1k, L2k1
    R1 = (1.0 + 2.0 * cfg.beta_max) * radii[0]
    R2 = (1.0 + 2.0 * cfg.beta_max) * radii[1]
    extras = {"config": cfg, "L_run": L_run, "R1": R1, "R2": R2}
    if problem.lipschitz_ball_bounds is not None:
        M, L2bar = problem.lipschitz_ball_bounds(R1, R2)
        extras["h2_bound"] = h2_constant_palm(cfg, M, L2bar)
    return RunResult(
        x=(state.x, state.y), records=records, reason=reason,
        meta=meta, extras=extras,
    )


# -- baselines -------------------------------------------------------------------

def _baseline_step(state, problem, config, extrapolate):
    """One classical PALM (PALMe with `extrapolate`) iteration from `state`
    (see `palm_baseline_run`); returns (state, TraceRecord, None)."""
    x, y = state.x, state.y
    if extrapolate:
        beta, t_next = extrapolation(config, state.t_prev, state.t_cur)
    else:
        beta, t_next = 0.0, state.t_cur
    tau1 = 1.0 / max(problem.L1(y), 1e-12)
    if beta == 0.0:
        xt, yt, gx_trial = x, y, state.gx
    else:
        xt = x + beta * (x - state.x_prev)
        yt = y + beta * (y - state.y_prev)
        _, grad_x, _ = problem.coupling(xt, y)
        gx_trial = grad_x()
    x_new = problem.f.prox(xt - tau1 * gx_trial, tau1)
    tau2 = 1.0 / max(problem.L2(x_new), 1e-12)
    _, _, grad_y = problem.coupling(x_new, yt)
    gy_trial = grad_y()
    y_new = problem.g.prox(yt - tau2 * gy_trial, tau2)
    steps = (x_new - x, y_new - y)
    obj, grad_x, grad_y = problem.objective(x_new, y_new)
    new_state = BlockIterateState(
        x=x_new, y=y_new, x_prev=x, y_prev=y, window=None,
        t_prev=state.t_cur, t_cur=t_next, k=state.k + 1,
        gx=grad_x(), gy=grad_y(),
    )
    wnorm = subgrad_witness_palm(new_state, (xt, yt), (tau1, tau2),
                                 (gx_trial, gy_trial), 0.0, steps)
    record = step_record(None, new_state.k, obj, obj,
                         _sq(steps[0]) + _sq(steps[1]), wnorm, beta, tau1, tau2)
    return new_state, record, None


def palm_baseline_run(problem, x0, y0, config, extrapolate=False):
    """Classical PALM: fixed steps 1/L1(y^k) then 1/L2(x^{k+1}), no line
    search. With `extrapolate`, the prox steps are taken at Nesterov-
    extrapolated points (PALMe). The coupling is evaluated once at each
    distinct point: the evaluation that gives an iterate's objective also
    gives its gradients, for the witness and, where beta = 0, for the next
    iteration's x block at x^k."""
    state, record = start_state(problem, x0, y0)
    state, records, reason, _ = run_loop(
        lambda s: _baseline_step(s, problem, config, extrapolate),
        state, record, config, lambda s: _sq(s.x) + _sq(s.y),
    )
    return RunResult(x=(state.x, state.y), records=records, reason=reason)
