"""Output checks built only on numpy and the benchmark's own formulas.

Nothing here imports nmdesc: every quantity the program reports is either
recomputed from the problem data with independent code, or tested against a
property the method must have. Each check raises CheckFailed with a message
naming what disagreed.
"""

import csv
import re

import numpy as np

# floating-point slack for comparisons that the program makes exactly; the
# benchmark recomputes the same quantity in another summation order
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- objectives -------------------------------------------------------------------

def logreg_objective(A_tilde, b, lam, mu, x):
    """sum log(1+exp(-b*(A~x))) + (mu/2)||x||^2 + lam*|supp(x without intercept)|."""
    z = A_tilde @ x
    loss = float(np.sum(np.logaddexp(0.0, -b * z)))
    return loss + 0.5 * mu * float(x @ x) + lam * int(np.count_nonzero(x[:-1]))


def logreg_grad(A_tilde, b, mu, x):
    z = A_tilde @ x
    # d/dz log(1+exp(-b z)) = -b * sigmoid(-b z), written with exp of -|t|
    t = -b * z
    sig = np.where(t >= 0, 1.0 / (1.0 + np.exp(-np.abs(t))),
                   np.exp(-np.abs(t)) / (1.0 + np.exp(-np.abs(t))))
    return A_tilde.T @ (-b * sig) + mu * x


def mc_objective(inst, U, V):
    """0.5*||P_Omega(UV^T - M)||^2 + (mu/2)(||U||^2 + ||V||^2)
    + lam*(nonzero columns of U + nonzero columns of V)."""
    resid = np.sum(U[inst.rows] * V[inst.cols], axis=1) - inst.obs
    value = 0.5 * float(resid @ resid)
    for X in (U, V):
        value += 0.5 * inst.mu * float(np.sum(X * X))
        value += inst.lam * int(np.count_nonzero(np.any(X != 0.0, axis=0)))
    return value


def check_objective(reported, recomputed, what):
    scale = max(1.0, abs(recomputed))
    _require(
        abs(reported - recomputed) <= REL_TOL * scale,
        f"{what}: trace objective {float(reported)!r} != recomputed {recomputed!r}",
    )


# -- stationarity ------------------------------------------------------------------

def pg_fixed_point_residual(A_tilde, b, lam, mu, x, tau):
    """||x - T(x - tau*grad f(x))|| / tau for the hard threshold T of lam*||.||_0
    (the last coordinate is the unpenalized intercept)."""
    v = x - tau * logreg_grad(A_tilde, b, mu, x)
    t = np.where(v * v >= 2.0 * tau * lam, v, 0.0)
    t[-1] = v[-1]
    return float(np.linalg.norm(x - t)) / tau


def check_stationarity(residual, stop_tol, x, factor):
    limit = factor * stop_tol * max(1.0, float(np.linalg.norm(x)))
    _require(
        residual <= limit,
        f"fixed-point residual {residual:.3e} exceeds {factor:g} x stop_tol scale {limit:.3e}",
    )


# -- recovery ----------------------------------------------------------------------

def recovery_error(U, V, U_star, V_star):
    """||UV^T - U*V*^T||_F / ||U*V*^T||_F; the zero estimate scores 1."""
    truth = U_star @ V_star.T
    return float(np.linalg.norm(U @ V.T - truth) / np.linalg.norm(truth))


def check_recovery(error, bound, what):
    _require(error < bound,
             f"{what}: relative recovery error {error:.4f} is not below {bound}")


# -- nonmonotone decrease ------------------------------------------------------------

def decrease_violation(potentials, steps, a, m, slack=0.0):
    """First k at which potential(k+1) + a*step(k+1)^2 exceeds the largest of
    potentials k-m..k (plus `slack` times its magnitude), or None."""
    pot = np.asarray(potentials, dtype=np.float64)
    steps = np.asarray(steps, dtype=np.float64)
    for k in range(len(pot) - 1):
        bound = pot[max(0, k - m): k + 1].max()
        if pot[k + 1] + a * steps[k + 1] ** 2 > bound + slack * abs(bound):
            return k
    return None


def check_decrease(potentials, steps, alpha, m, what):
    """The acceptance rule of both solvers, replayed from the trace with the
    rounding slack of recomputing step^2 from the logged step norm."""
    k = decrease_violation(potentials, steps, 0.5 * alpha, m, slack=1e-12)
    _require(k is None, f"{what}: nonmonotone decrease condition fails at k={k}")


# -- trace CSV ----------------------------------------------------------------------

TRACE_FIELDS = ("k", "time_s", "objective", "potential", "step_norm",
                "witness_norm", "beta", "tau1", "tau2", "backtracks", "ell")


def parse_trace(path):
    """Column name -> numpy array, from the CSV layout the program documents
    (version row, header row, one row per iterate)."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    _require(len(rows) >= 3, f"{path}: fewer than one data row")
    header = rows[1]
    _require(all(c in header for c in TRACE_FIELDS), f"{path}: missing columns")
    _require(all(len(r) == len(header) for r in rows[2:]), f"{path}: ragged rows")
    data = np.array(rows[2:], dtype=np.float64)
    return {name: data[:, header.index(name)] for name in TRACE_FIELDS}


def check_consecutive_k(trace, what):
    k = trace["k"]
    _require(
        len(k) >= 2 and np.array_equal(k, np.arange(len(k))),
        f"{what}: iteration column is not 0, 1, 2, ...",
    )


def check_round_trip(trace, objectives, potentials, what):
    """A trace written with 17 significant digits parses back bit-exactly."""
    check_consecutive_k(trace, what)
    _require(
        np.array_equal(trace["objective"], np.asarray(objectives))
        and np.array_equal(trace["potential"], np.asarray(potentials)),
        f"{what}: trace CSV does not round-trip the solver records",
    )


# -- evolution curves ------------------------------------------------------------------

def parse_curves(path):
    """E(t) CSV: header 't,<solver>,...' -> (grid, {solver: column})."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    header = rows[0]
    data = np.array(rows[1:], dtype=np.float64)
    return data[:, 0], {name: data[:, i] for i, name in enumerate(header) if i > 0}


def recompute_curves(per_trial, grid):
    """Average over trials of the normalized best-objective-so-far curves.

    per_trial: list of {solver: (times, objectives)} for one instance each.
    Each trial is normalized by its own start value and its best value over
    all solvers; a solver is averaged over the trials in which it finished.
    """
    sums, counts = {}, {}
    for traces in per_trial:
        if len(traces) < 2:
            continue
        f0 = next(iter(traces.values()))[1][0]
        f_min = min(float(np.min(obj)) for _, obj in traces.values())
        for name, (times, obj) in traces.items():
            best = np.minimum.accumulate(obj)
            idx = np.searchsorted(times, grid, side="right") - 1
            e = np.where(idx >= 0, (best[np.maximum(idx, 0)] - f_min) / (f0 - f_min), 1.0)
            sums[name] = sums.get(name, 0.0) + e
            counts[name] = counts.get(name, 0) + 1
    return {name: sums[name] / counts[name] for name in sums}


def check_curves(curves, expected, what):
    _require(set(curves) == set(expected),
             f"{what}: solver columns {sorted(curves)} != {sorted(expected)}")
    for name, e in curves.items():
        _require(e[0] == 1.0, f"{what}: E[{name}] starts at {e[0]!r}, not 1")
        _require(bool(np.all(np.diff(e) <= 1e-12)), f"{what}: E[{name}] increases")
        _require(bool(np.all((e >= -1e-12) & (e <= 1.0 + 1e-12))),
                 f"{what}: E[{name}] leaves [0, 1]")
        # a column averaged over trials reaches 0 only when one solver
        # attains the lowest objective in every trial; the recomputation
        # reaches 0 in exactly those cases, so this covers it
        _require(np.allclose(e, expected[name], rtol=0.0, atol=1e-9),
                 f"{what}: E[{name}] differs from the recomputation from traces")


# -- command output ----------------------------------------------------------------

_H1 = re.compile(r"^H1 \(a=\S+, m=(\d+)\): (pass|FAIL at k=(\d+)) over (\d+) steps$", re.M)
_KSETS = re.compile(r"\|K1\|=(\d+) \|K2\|=(\d+) \|K31\|=(\d+)")
_RHO = re.compile(r"linear fit: rho=(\S+) ")


def check_diag_output(text, trace, a, m, what):
    """H1 verdict printed by `diag` equals the exact replay with the same a
    and m; the index-set sizes are nested as defined."""
    h1 = _H1.search(text)
    ks = _KSETS.search(text)
    _require(h1 is not None and ks is not None, f"{what}: unparsable diag output {text!r}")
    k = decrease_violation(trace["potential"], trace["step_norm"], a, m)
    printed = None if h1.group(2) == "pass" else int(h1.group(3))
    _require(printed == k, f"{what}: diag H1 says {h1.group(2)!r}, replay gives {k}")
    n1, n2, n31 = (int(g) for g in ks.groups())
    _require(n2 <= n1 and n31 <= n1, f"{what}: |K2|={n2} or |K31|={n31} exceeds |K1|={n1}")


def check_rates_output(text, what):
    match = _RHO.search(text)
    _require(match is not None, f"{what}: unparsable rates output {text!r}")
    rho = float(match.group(1))
    _require(0.0 < rho < 1.0, f"{what}: rate rho={rho} outside (0, 1)")
    return rho
