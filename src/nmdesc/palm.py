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
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .nls import HistoryWindow, window_max, accept, BacktrackCapError
from .pg import RunResult, init_columns, nesterov_beta
from .trace import Trace, TraceRecord


def _sq(a):
    a = np.ravel(a)
    return float(a @ a)


def _dot(a, b):
    return float(np.ravel(a) @ np.ravel(b))


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
    beta_rule: str = "nesterov"

    def validated(self, lipschitz_start):
        cfg = replace(self)
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
        if cfg.beta_rule not in ("nesterov", "constant"):
            raise ValueError("beta_rule must be 'nesterov' or 'constant'")
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
    """Iterate z^k = (x, y, x_prev, y_prev) with the line-search history.

    After an accepted step the state also carries the step's extrapolation
    weight, extrapolated points and step sizes, the gradients its trial
    computed (gx_trial = grad_x(xt_last, y_prev), gy_trial =
    grad_y(x, yt_last)), and the gradients at the new point
    (gx = grad_x(x, y), gy = grad_y(x, y)). The witness uses all four. The
    next step reuses gx and gy in its Barzilai-Borwein initialization and
    gx as the trial gradient of a zero-extrapolation trial, whose x~ is x;
    after a step with beta_last = 0, yt_last is y_prev, so gy_trial is also
    the initialization's grad_y(x, y_prev). Where a gradient is None it is
    computed from the problem.
    """

    x: np.ndarray
    y: np.ndarray
    x_prev: np.ndarray
    y_prev: np.ndarray
    window: HistoryWindow
    t_prev: float = 1.0
    t_cur: float = 1.0
    k: int = 0
    tau1_init_prev: float = None
    tau2_init_prev: float = None
    beta_last: float = None  # extrapolation of the last accepted step
    xt_last: np.ndarray = None  # extrapolated points of the last accepted step
    yt_last: np.ndarray = None
    tau1_last: float = None
    tau2_last: float = None
    gx_trial: np.ndarray = None
    gy_trial: np.ndarray = None
    gx: np.ndarray = None
    gy: np.ndarray = None


def _grad(carried, grad, x, y):
    return grad(x, y) if carried is None else carried


def _upsilon(objective, x, y, u, v, delta):
    """Upsilon_delta = Psi(x, y) + (delta/2)(||x-u||^2 + ||y-v||^2), given
    the objective Psi(x, y)."""
    return objective + 0.5 * delta * (_sq(x - u) + _sq(y - v))


def _bb_ratio(d, dh, lo, hi, prev):
    d_sq = _sq(d)
    if d_sq == 0.0:
        return prev
    dh_sq = _sq(dh)
    inner = _dot(d, dh)
    guard = 1e-12 * math.sqrt(d_sq) * math.sqrt(dh_sq)
    if inner <= guard:
        candidate = hi
    else:
        candidate = min(d_sq / inner, inner / dh_sq)
    return max(min(candidate, hi), lo)


def bb_init_tau_blocks(state, problem, tau_lo, tau_hi):
    """Per-block Barzilai-Borwein initializations.

    The x secant uses gradients at the CURRENT y^k; the y secant uses the
    CURRENT x^k. A zero block difference reuses the previous initialization.
    The gradients at (x^k, y^k) come from the state when it carries them,
    and so does grad_y(x^k, y^{k-1}) after a step without extrapolation.
    """
    dx = state.x - state.x_prev
    dy = state.y - state.y_prev
    gx = _grad(state.gx, problem.grad_x, state.x, state.y)
    gy = _grad(state.gy, problem.grad_y, state.x, state.y)
    gy_prev = state.gy_trial if state.beta_last == 0.0 else None
    dhx = gx - problem.grad_x(state.x_prev, state.y)
    dhy = gy - _grad(gy_prev, problem.grad_y, state.x, state.y_prev)
    tau1 = _bb_ratio(dx, dhx, tau_lo, tau_hi, state.tau1_init_prev)
    tau2 = _bb_ratio(dy, dhy, tau_lo, tau_hi, state.tau2_init_prev)
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


def subgrad_witness_palm(state, problem, delta):
    """Subgradient witness at z^{k+1} from the two prox optimality conditions
    of the last accepted step; requires the logged extrapolated points.
    Gradients the state carries are used as they are, the others computed."""
    x, y = state.x, state.y
    xp, yp = state.x_prev, state.y_prev
    xt, yt = state.xt_last, state.yt_last
    w1 = (
        _grad(state.gx, problem.grad_x, x, y)
        - _grad(state.gx_trial, problem.grad_x, xt, yp)
        - (x - xt) / state.tau1_last
        + delta * (x - xp)
    )
    w2 = (
        _grad(state.gy, problem.grad_y, x, y)
        - _grad(state.gy_trial, problem.grad_y, x, yt)
        - (y - yt) / state.tau2_last
        + delta * (y - yp)
    )
    w3 = delta * (xp - x)
    w4 = delta * (yp - y)
    norm = math.sqrt(_sq(w1) + _sq(w2) + _sq(w3) + _sq(w4))
    return (w1, w2, w3, w4), norm


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
    with the gradient the state carries there (evaluated once if it carries
    none). The accepted trial's gradients and the gradients at the new
    point go on the returned state, for the witness and the next step's
    initialization. Returns (state, TraceRecord, init dict).
    """
    if config.beta_rule == "nesterov":
        beta0, t_next = nesterov_beta(state.t_prev, state.t_cur)
        beta0 = min(beta0, config.beta_max)
    else:
        beta0, t_next = config.beta_max, state.t_cur

    if state.k >= 1:
        tau1_0, tau2_0 = bb_init_tau_blocks(
            state, problem, config.tau_lo, config.tau_hi
        )
    else:
        tau1_0 = min(max(config.tau1_0, config.tau_lo), config.tau_hi)
        tau2_0 = min(max(config.tau2_0, config.tau_lo), config.tau_hi)

    gx = state.gx
    x_new = None
    for l in range(config.max_backtracks + 1):
        beta = beta0 * config.eta**l
        tau1 = max(tau1_0 * config.eta1**l, config.tau_lo)
        tau2 = max(tau2_0 * config.eta2**l, config.tau_lo)
        if beta == 0.0:
            gx = _grad(gx, problem.grad_x, state.x, state.y)
            xt, yt, gx_trial = state.x, state.y, gx
        else:
            xt = state.x + beta * (state.x - state.x_prev)
            yt = state.y + beta * (state.y - state.y_prev)
            gx_trial = problem.grad_x(xt, state.y)
        x_new = problem.f_prox(xt - tau1 * gx_trial, tau1)
        gy_trial = problem.grad_y(x_new, yt)
        y_new = problem.g_prox(yt - tau2 * gy_trial, tau2)
        step_sq = (
            _sq(x_new - state.x)
            + _sq(y_new - state.y)
            + _sq(state.x - state.x_prev)
            + _sq(state.y - state.y_prev)
        )
        obj = problem.objective(x_new, y_new)
        ups = _upsilon(obj, x_new, y_new, state.x, state.y, config.delta)
        if accept(ups, state.window, config.alpha, step_sq):
            break
    else:
        raise BacktrackCapError(state.k, config.max_backtracks, (x_new, y_new))

    new_state = BlockIterateState(
        x=x_new, y=y_new, x_prev=state.x, y_prev=state.y,
        window=state.window, t_prev=state.t_cur, t_cur=t_next, k=state.k + 1,
        tau1_init_prev=tau1_0, tau2_init_prev=tau2_0, beta_last=beta,
        xt_last=xt, yt_last=yt, tau1_last=tau1, tau2_last=tau2,
        gx_trial=gx_trial, gy_trial=gy_trial,
        gx=problem.grad_x(x_new, y_new), gy=problem.grad_y(x_new, y_new),
    )
    _, wnorm = subgrad_witness_palm(new_state, problem, config.delta)
    new_state.window.push(state.k + 1, ups)
    _, ell = window_max(new_state.window)
    record = TraceRecord(
        k=state.k + 1,
        time_s=0.0,
        objective=obj,
        potential=ups,
        step_norm=math.sqrt(step_sq),
        witness_norm=wnorm,
        beta=beta,
        tau1=tau1,
        tau2=tau2,
        backtracks=l,
        ell=ell,
    )
    init = {
        "beta0": beta0,
        "tau1_0": tau1_0,
        "tau2_0": tau2_0,
        "L1k": problem.L1(state.y),
        "L2k1": problem.L2(x_new),
    }
    return new_state, record, init


def palm_run(problem, x0, y0, config, trace_sink=None):
    """Run the line-search method from (x0, y0) until a stopping rule fires.

    The result's extras carry the running Lipschitz estimate, the observed
    ball radii, and the relative-error bound computed from them.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    L_start = max(problem.L1(y0), problem.L2(x0))
    cfg = config.validated(L_start)
    if cfg.tau1_0 is None:
        cfg.tau1_0 = 100.0 / max(problem.L1(y0), 1e-12)
    if cfg.tau2_0 is None:
        cfg.tau2_0 = 100.0 / max(problem.L2(x0), 1e-12)

    window = HistoryWindow(cfg.m)
    obj0 = problem.objective(x0, y0)
    ups0 = _upsilon(obj0, x0, y0, x0, y0, cfg.delta)
    window.push(0, ups0)
    state = BlockIterateState(
        x=x0.copy(), y=y0.copy(), x_prev=x0.copy(), y_prev=y0.copy(),
        window=window,
    )
    rec = TraceRecord(
        k=0, time_s=0.0, objective=obj0,
        potential=ups0, step_norm=0.0, witness_norm=math.inf,
        beta=0.0, tau1=0.0, tau2=0.0, ell=0,
    )
    records = [rec]
    if trace_sink:
        trace_sink(rec)
    L_run = L_start
    max_x = math.sqrt(_sq(x0))
    max_y = math.sqrt(_sq(y0))
    start = time.perf_counter()
    reason = "max_iters"
    inits = []
    for _ in range(cfg.max_iters):
        try:
            state, rec, init = palm_step(state, problem, cfg)
        except BacktrackCapError as e:
            e.records = Trace(records)
            raise
        rec.time_s = time.perf_counter() - start
        records.append(rec)
        inits.append(init)
        if trace_sink:
            trace_sink(rec)
        L_run = max(L_run, init["L1k"], init["L2k1"])
        if cfg.tau_lo >= 1.0 / (L_run + cfg.delta + 2.0 * cfg.alpha):
            warnings.warn(
                "running Lipschitz estimate violates the tau_lo bound",
                RuntimeWarning,
            )
        max_x = max(max_x, math.sqrt(_sq(state.x)))
        max_y = max(max_y, math.sqrt(_sq(state.y)))
        scale = max(1.0, math.sqrt(_sq(state.x) + _sq(state.y)))
        if rec.witness_norm <= cfg.stop_tol * scale:
            reason = "tolerance"
            break
        if rec.time_s > cfg.time_budget:
            reason = "time_budget"
            break

    R1 = (1.0 + 2.0 * cfg.beta_max) * max_x
    R2 = (1.0 + 2.0 * cfg.beta_max) * max_y
    extras = {"config": cfg, "L_run": L_run, "R1": R1, "R2": R2}
    if problem.lipschitz_ball_bounds is not None:
        M, L2bar = problem.lipschitz_ball_bounds(R1, R2)
        extras["h2_bound"] = h2_constant_palm(cfg, M, L2bar)
    return RunResult(
        x=(state.x, state.y), records=Trace(records), reason=reason,
        meta=init_columns(inits), extras=extras,
    )


# -- baselines -------------------------------------------------------------------

def palm_baseline_run(problem, x0, y0, config, extrapolate=False, trace_sink=None):
    """Classical PALM: fixed steps 1/L1(y^k) then 1/L2(x^{k+1}), no line
    search. With `extrapolate`, the prox steps are taken at Nesterov-
    extrapolated points (PALMe). An iteration with beta = 0 takes its x
    block at x^k with grad_x(x^k, y^k), carried from the witness of the
    iteration before."""
    x = np.asarray(x0, dtype=np.float64).copy()
    y = np.asarray(y0, dtype=np.float64).copy()
    x_prev, y_prev = x.copy(), y.copy()
    t_prev, t_cur = 1.0, 1.0
    gx = None  # grad_x(x, y), once known
    obj = problem.objective(x, y)
    rec = TraceRecord(
        k=0, time_s=0.0, objective=obj, potential=obj, step_norm=0.0,
        witness_norm=math.inf, beta=0.0, tau1=0.0, tau2=0.0, ell=0,
    )
    records = [rec]
    if trace_sink:
        trace_sink(rec)
    start = time.perf_counter()
    reason = "max_iters"
    for k in range(config.max_iters):
        if extrapolate:
            beta, t_next = nesterov_beta(t_prev, t_cur)
            beta = min(beta, config.beta_max)
        else:
            beta, t_next = 0.0, t_cur
        tau1 = 1.0 / max(problem.L1(y), 1e-12)
        if beta == 0.0:
            xt, yt = x, y
            gx_trial = _grad(gx, problem.grad_x, x, y)
        else:
            xt = x + beta * (x - x_prev)
            yt = y + beta * (y - y_prev)
            gx_trial = problem.grad_x(xt, y)
        x_new = problem.f_prox(xt - tau1 * gx_trial, tau1)
        tau2 = 1.0 / max(problem.L2(x_new), 1e-12)
        gy_trial = problem.grad_y(x_new, yt)
        y_new = problem.g_prox(yt - tau2 * gy_trial, tau2)
        step = math.sqrt(_sq(x_new - x) + _sq(y_new - y))
        gx = problem.grad_x(x_new, y_new)
        probe = BlockIterateState(
            x=x_new, y=y_new, x_prev=x, y_prev=y, window=None,
            xt_last=xt, yt_last=yt, tau1_last=tau1, tau2_last=tau2,
            gx_trial=gx_trial, gy_trial=gy_trial, gx=gx,
        )
        _, wnorm = subgrad_witness_palm(probe, problem, 0.0)
        x_prev, y_prev, x, y = x, y, x_new, y_new
        t_prev, t_cur = t_cur, t_next
        obj = problem.objective(x, y)
        rec = TraceRecord(
            k=k + 1, time_s=time.perf_counter() - start,
            objective=obj, potential=obj,
            step_norm=step, witness_norm=wnorm, beta=beta,
            tau1=tau1, tau2=tau2, ell=k + 1,
        )
        records.append(rec)
        if trace_sink:
            trace_sink(rec)
        if wnorm <= config.stop_tol * max(1.0, math.sqrt(_sq(x) + _sq(y))):
            reason = "tolerance"
            break
        if rec.time_s > config.time_budget:
            reason = "time_budget"
            break
    return RunResult(x=(x, y), records=Trace(records), reason=reason)
