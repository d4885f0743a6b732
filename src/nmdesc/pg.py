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
import time
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .nls import HistoryWindow, window_max, accept, backtrack_params, BacktrackCapError
from .trace import Trace, TraceRecord


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
    beta_rule: str = "nesterov"  # or "constant" (beta_{k,0} = beta_max)

    def validated(self, lipschitz):
        """Fill step-bound defaults from L and check the config invariants."""
        cfg = replace(self)
        L = float(lipschitz)
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
        if not (0 < cfg.eta1 < 1 and 0 < cfg.eta2 < 1):
            raise ValueError("eta1, eta2 must lie in (0, 1)")
        if cfg.beta_rule not in ("nesterov", "constant"):
            raise ValueError("beta_rule must be 'nesterov' or 'constant'")
        return cfg


PG_VARIANTS = {
    "pgenls": {},
    "pgnls": {"beta_max": 0.0},
    "pgels": {"m": 0},
    "pgls": {"delta": 0.0, "beta_max": 0.0, "m": 0},
}


def variant_config(name, base=None):
    """PgConfig for a named variant, starting from `base` (or defaults)."""
    if name not in PG_VARIANTS:
        raise ValueError(f"unknown PG variant {name!r}")
    cfg = base if base is not None else PgConfig()
    return replace(cfg, **PG_VARIANTS[name])


@dataclass
class IterateState:
    """Solver state at z^k = (x^k, x^{k-1}).

    The oracle results of accepted points are carried, so no point is
    evaluated twice: grad f(x^k) and grad f(x^{k-1}) serve the BB
    initialization, the witness and the zero-extrapolation trial, and the
    linear images z of x^k and x^{k-1} (the problem's `smooth` returns
    them; None if it has none) give the image of an extrapolated point
    y = x^k + beta*(x^k - x^{k-1}) without evaluating it from y. A state
    built without them gets grad f(x^k) from one evaluation in `pg_step`.
    """

    x: np.ndarray
    x_prev: np.ndarray
    window: HistoryWindow
    t_prev: float = 1.0
    t_cur: float = 1.0
    k: int = 0
    # cached quantities for the BB initialization and the witness replay
    grad_x: np.ndarray = None          # grad f(x^k)
    grad_x_prev: np.ndarray = None     # grad f(x^{k-1})
    z: np.ndarray = None               # linear image of x^k (the margins)
    z_prev: np.ndarray = None          # linear image of x^{k-1}
    x_prev2: np.ndarray = None         # x^{k-2}
    tau_init_prev: float = None
    y_last: np.ndarray = None          # y^{k-1} of the last accepted step
    tau_last: float = None


def _sq(a):
    a = np.ravel(a)
    return float(a @ a)


def potential_H(F, x, u, delta):
    """H_delta((x, u)) = F(x) + (delta/2)*||x - u||^2, given the objective
    F = F(x)."""
    return F + 0.5 * delta * _sq(x - u)


def _extrapolate(z, z_prev, beta):
    """Linear image of y = x + beta*(x - x_prev) from those of x and x_prev
    (None where either is unknown): a multiply-add instead of a product
    with the problem's matrix. The images are refreshed from every accepted
    point, so the rounding of one extrapolation does not accumulate."""
    if z is None or z_prev is None:
        return None
    return z + beta * (z - z_prev)


def nesterov_beta(t_prev, t_cur):
    """Extrapolation weight (t_{k-1}-1)/t_k and the next counter."""
    if t_prev < 1.0 or t_cur < 1.0:
        raise ValueError("Nesterov counters must be >= 1")
    beta0 = (t_prev - 1.0) / t_cur
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_cur * t_cur))
    return beta0, t_next


def bb_init_tau(z, z_prev, grads, delta, tau_min, tau_max, prev_tau):
    """Barzilai-Borwein step initialization on the smoothed pair space.

    z = (x^k, x^{k-1}), z_prev = (x^{k-1}, x^{k-2}), and grads =
    (grad f(x^k), grad f(x^{k-1})). The gradient of the smooth part over
    z = (x, u) is (grad f(x) + delta*(x-u), -delta*(x-u)).
    """
    x, u = z
    xp, up = z_prev
    dz_a = x - xp
    dz_b = u - up
    dz_sq = _sq(dz_a) + _sq(dz_b)
    if dz_sq == 0.0:
        return prev_tau
    gx, gxp = grads
    dzeta_a = gx + delta * (x - u) - gxp - delta * (xp - up)
    dzeta_b = -delta * (x - u) + delta * (xp - up)
    dzeta_sq = _sq(dzeta_a) + _sq(dzeta_b)
    inner = float(np.ravel(dz_a) @ np.ravel(dzeta_a)) + float(
        np.ravel(dz_b) @ np.ravel(dzeta_b)
    )
    guard = 1e-12 * math.sqrt(dz_sq) * math.sqrt(dzeta_sq)
    if inner <= guard:
        candidate = tau_max
    else:
        candidate = min(dz_sq / inner, inner / dzeta_sq)
    return max(min(candidate, tau_max), tau_min)


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
    if tau0 <= target:
        l1 = 0
    else:
        l1 = math.ceil(math.log(target / tau0) / math.log(config.eta2))
    beta_floor = min(
        safe_beta_bound_pg(config.tau_min, lipschitz, config.delta),
        safe_beta_bound_pg(target, lipschitz, config.delta),
    )
    if beta0 <= beta_floor:
        l2 = 0
    elif beta_floor == 0.0:
        l2 = math.inf  # beta must decay to 0; only beta0 == 0 is safe
    else:
        l2 = math.ceil(math.log(beta_floor / beta0) / math.log(config.eta1))
    return l1 + l2 + 1


def subgrad_witness_pg(x_new, x_old, y_last, tau_last, grad_new, grad_y, delta):
    """Subgradient witness at z^{k+1} = (x^{k+1}, x^k), from the prox
    optimality condition of the accepted step (y^k, tau_k)."""
    wa = grad_new - grad_y - (x_new - y_last) / tau_last + delta * (x_new - x_old)
    wb = delta * (x_old - x_new)
    norm = math.sqrt(_sq(wa) + _sq(wb))
    return (wa, wb), norm


def h2_constant_pg(config, lipschitz):
    """Relative-error constant: sqrt(2)*[(L + 1/tau_min)(1+beta_max) + 2*delta]."""
    return math.sqrt(2.0) * (
        (lipschitz + 1.0 / config.tau_min) * (1.0 + config.beta_max)
        + 2.0 * config.delta
    )


@dataclass
class RunResult:
    """Outcome of one solver run.

    `records` is the run's `Trace`, one record per iterate from the start
    point on. `meta` maps each line-search initialization the backtrack-count
    bound is replayed from (beta0 and tau0; the PALM family has tau1_0,
    tau2_0 and the block moduli L1k, L2k1) to a float array with one entry
    per accepted iteration. It is diagnostic data, not part of the trace
    CSV, and empty for the fixed-step baselines.
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


def pg_step(state, problem, config):
    """One outer iteration: backtracking inner loop until acceptance.

    Each trial candidate is evaluated once: its value gives the potential
    and the record's objective, and the accepted one's gradient is carried
    as grad f(x^{k+1}). A trial with beta > 0 also evaluates the gradient
    at y, from the extrapolated linear image of the iterates. Returns (new
    state, TraceRecord, init dict). Raises BacktrackCapError carrying the
    last rejected candidate when the inner loop exhausts its budget.
    """
    if config.beta_rule == "nesterov":
        beta0, t_next = nesterov_beta(state.t_prev, state.t_cur)
        beta0 = min(beta0, config.beta_max)
    else:
        beta0, t_next = config.beta_max, state.t_cur

    if state.k >= 1 and state.x_prev2 is not None:
        tau0 = bb_init_tau(
            (state.x, state.x_prev),
            (state.x_prev, state.x_prev2),
            (state.grad_x, state.grad_x_prev),
            config.delta, config.tau_min, config.tau_max,
            prev_tau=state.tau_init_prev,
        )
    else:
        tau0 = min(max(config.tau0, config.tau_min), config.tau_max)

    gx, z = state.grad_x, state.z
    if gx is None:
        _, gx, z = problem.smooth(state.x)
    candidate = None
    for l in range(config.max_backtracks + 1):
        beta, tau = backtrack_params(
            l, beta0, tau0, config.eta1, config.eta2, config.tau_min
        )
        if beta == 0.0:
            y, gy = state.x, gx
        else:
            y = state.x + beta * (state.x - state.x_prev)
            _, gy, _ = problem.smooth(y, _extrapolate(z, state.z_prev, beta))
        candidate = problem.g_prox(y - tau * gy, tau)
        # with delta = 0 the potential carries no coupling term to pay for
        # the previous step, so the classical single-step criterion applies
        step_sq = _sq(candidate - state.x)
        if config.delta > 0.0:
            step_sq += _sq(state.x - state.x_prev)
        f_cand, grad_new, z_new = problem.smooth(candidate)
        F_cand = f_cand + problem.g_value(candidate)
        h_cand = potential_H(F_cand, candidate, state.x, config.delta)
        if accept(h_cand, state.window, config.alpha, step_sq):
            break
    else:
        raise BacktrackCapError(state.k, config.max_backtracks, candidate)

    _, wnorm = subgrad_witness_pg(
        candidate, state.x, y, tau, grad_new, gy, config.delta
    )

    new_state = IterateState(
        x=candidate,
        x_prev=state.x,
        window=state.window,
        t_prev=state.t_cur,
        t_cur=t_next,
        k=state.k + 1,
        grad_x=grad_new,
        grad_x_prev=gx,
        z=z_new,
        z_prev=z,
        x_prev2=state.x_prev,
        tau_init_prev=tau0,
        y_last=y,
        tau_last=tau,
    )
    new_state.window.push(state.k + 1, h_cand)
    _, ell = window_max(new_state.window)
    record = TraceRecord(
        k=state.k + 1,
        time_s=0.0,
        objective=F_cand,
        potential=h_cand,
        step_norm=math.sqrt(step_sq),
        witness_norm=wnorm,
        beta=beta,
        tau1=tau,
        backtracks=l,
        ell=ell,
    )
    return new_state, record, {"beta0": beta0, "tau0": tau0}


def pg_run(problem, x0, config, trace_sink=None):
    """Run the line-search method from x0 until the stopping rule fires.

    The result's stop reason is "tolerance", "max_iters", or "time_budget".
    """
    cfg = config.validated(problem.lipschitz)
    x0 = np.asarray(x0, dtype=np.float64)
    window = HistoryWindow(cfg.m)
    f0, g0, z0 = problem.smooth(x0)
    F0 = f0 + problem.g_value(x0)
    h0 = potential_H(F0, x0, x0, cfg.delta)
    window.push(0, h0)
    state = IterateState(x=x0.copy(), x_prev=x0.copy(), window=window,
                         grad_x=g0, z=z0, z_prev=z0)
    rec = TraceRecord(
        k=0, time_s=0.0, objective=F0, potential=h0,
        step_norm=0.0, witness_norm=math.inf, beta=0.0, tau1=0.0, ell=0,
    )
    records = [rec]
    if trace_sink:
        trace_sink(rec)
    start = time.perf_counter()
    reason = "max_iters"
    inits = []
    for _ in range(cfg.max_iters):
        try:
            state, rec, init = pg_step(state, problem, cfg)
        except BacktrackCapError as e:
            e.records = Trace(records)  # trace so far, for persistence by callers
            raise
        rec.time_s = time.perf_counter() - start
        records.append(rec)
        inits.append(init)
        if trace_sink:
            trace_sink(rec)
        scale = max(1.0, math.sqrt(_sq(state.x)))
        if rec.witness_norm <= cfg.stop_tol * scale:
            reason = "tolerance"
            break
        if rec.time_s > cfg.time_budget:
            reason = "time_budget"
            break
    return RunResult(
        x=state.x, records=Trace(records), reason=reason, meta=init_columns(inits),
        extras={"config": cfg, "h2_bound": h2_constant_pg(cfg, problem.lipschitz)},
    )


# -- FISTA baselines -----------------------------------------------------------

def fista_run(problem, x0, config, restart=False, trace_sink=None):
    """Fixed-step FISTA (tau = 1/L). With `restart`, the Nesterov counters
    reset to 1 when k is a multiple of 250 or the momentum turns against
    the step direction (<y^k - x^{k+1}, x^{k+1} - x^k> > 0).

    Each iterate is evaluated once, for its objective and the gradient the
    witness and a zero-extrapolation step reuse; y^k is evaluated only when
    it differs from x^k, from the extrapolated linear images of the
    iterates (see `IterateState`)."""
    x = np.asarray(x0, dtype=np.float64).copy()
    x_prev = x.copy()
    tau = 1.0 / problem.lipschitz
    t_prev, t_cur = 1.0, 1.0
    f, gx, z = problem.smooth(x)
    z_prev = z
    F = f + problem.g_value(x)
    rec = TraceRecord(
        k=0, time_s=0.0, objective=F, potential=F, step_norm=0.0,
        witness_norm=math.inf, beta=0.0, tau1=tau, ell=0,
    )
    records = [rec]
    if trace_sink:
        trace_sink(rec)
    start = time.perf_counter()
    reason = "max_iters"
    for k in range(config.max_iters):
        beta, t_next = nesterov_beta(t_prev, t_cur)
        if beta == 0.0:
            y, gy = x, gx
        else:
            y = x + beta * (x - x_prev)
            _, gy, _ = problem.smooth(y, _extrapolate(z, z_prev, beta))
        x_new = problem.g_prox(y - tau * gy, tau)
        f, g_new, z_new = problem.smooth(x_new)
        F = f + problem.g_value(x_new)
        _, wnorm = subgrad_witness_pg(x_new, x, y, tau, g_new, gy, 0.0)
        step = math.sqrt(_sq(x_new - x))
        t_prev, t_cur = t_cur, t_next
        if restart and (
            (k + 1) % 250 == 0
            or float(np.ravel(y - x_new) @ np.ravel(x_new - x)) > 0.0
        ):
            t_prev, t_cur = 1.0, 1.0
        x_prev, x = x, x_new
        gx, z_prev, z = g_new, z, z_new
        rec = TraceRecord(
            k=k + 1, time_s=time.perf_counter() - start,
            objective=F, potential=F,
            step_norm=step, witness_norm=wnorm, beta=beta, tau1=tau,
            ell=k + 1,
        )
        records.append(rec)
        if trace_sink:
            trace_sink(rec)
        if wnorm <= config.stop_tol * max(1.0, math.sqrt(_sq(x))):
            reason = "tolerance"
            break
        if rec.time_s > config.time_budget:
            reason = "time_budget"
            break
    return RunResult(x=x, records=Trace(records), reason=reason)


def refista_run(problem, x0, config, trace_sink=None):
    return fista_run(problem, x0, config, restart=True, trace_sink=trace_sink)
