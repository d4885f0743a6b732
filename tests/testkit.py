"""Toy problems and reference implementations shared by the tests and
`benchmarks/bench_kernels.py`.

Not named `conftest.py`: `perfbench/` has a top-level `conftest.py` too,
and when one pytest run collects both directories, `from conftest import`
finds whichever of the two was imported first.
"""

import io
import math

import numpy as np

from nmdesc.problems import CompositeProblem
from nmdesc.prox import ProxSpec
from nmdesc.trace import write_trace_csv


def quadratic_problem(A=None, dim=2, lam=0.0):
    """F(x) = 0.5*x'Ax + lam*||x||_0 with A symmetric positive definite
    (identity by default)."""
    if A is None:
        A = np.eye(dim)
    A = np.asarray(A, dtype=np.float64)
    L = float(np.linalg.eigvalsh(A).max())

    def smooth(x, z=None):
        g = A @ x

        def grad(ahead=None):
            return g if ahead is None else (g, A @ ahead[0])

        return 0.5 * float(x @ g), grad, None

    return CompositeProblem(
        smooth=smooth,
        g=ProxSpec(kind="l0_vector", lam=lam),
        lipschitz=L,
    )


def objective(problem, x):
    """F(x) = f(x) + g(x) of a CompositeProblem, from its oracle and g."""
    return problem.smooth(x)[0] + problem.g.value(x)


def f_grad(problem, x):
    """grad f(x) of a CompositeProblem, from its oracle."""
    return problem.smooth(x)[1]()


def flat_problem():
    """F identically zero: every point is a fixed point."""

    def smooth(x, z=None):
        def grad(ahead=None):
            g = np.zeros_like(x)
            return g if ahead is None else (g, np.zeros_like(ahead[0]))

        return 0.0, grad, None

    return CompositeProblem(
        smooth=smooth,
        g=ProxSpec(kind="l0_vector", lam=0.0),
        lipschitz=1.0,
    )


def nesterov_ref(t_prev, t_cur):
    """The two-counter Nesterov recurrence, independent of `nls.nesterov`:
    the weight (t_prev - 1)/t_cur of a step from counters (t_prev, t_cur),
    and the next counter (1 + sqrt(1 + 4*t_cur^2))/2. Counters start at
    (1, 1) and shift to (t_cur, next) after each step."""
    return (t_prev - 1.0) / t_cur, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_cur * t_cur))


def add_at_grads(U, V, rows, cols, obs):
    """Both block gradients of 0.5*||P_Omega(UV^T - M)||_F^2 by unbuffered
    scatter-adds over the observations: the reference for both forms of
    the matrix-completion oracle."""
    resid = np.einsum("ij,ij->i", U[rows], V[cols]) - obs
    gU = np.zeros_like(U)
    gV = np.zeros_like(V)
    np.add.at(gU, rows, resid[:, None] * V[cols])
    np.add.at(gV, cols, resid[:, None] * U[rows])
    return gU, gV


def trace_csv_string(trace, zero_times=False):
    buf = io.StringIO()
    write_trace_csv(buf, trace, zero_times=zero_times)
    return buf.getvalue()


# -- per-record diagnostics: the references for the columnar ones ----------------
# Each takes a sequence of TraceRecords (a Trace iterates as one) and loops
# over it as the diagnostics once did. Powers are Python float `**`.

def ell_indices_ref(records, m):
    pot = np.array([r.potential for r in records])
    out = np.zeros(len(pot), dtype=np.int64)
    for k in range(len(pot)):
        win = pot[max(0, k - m) : k + 1]
        out[k] = k - int(np.argmax(win[::-1]))
    return out


def verify_H1_ref(records, a, m):
    """(passed, first_violation, checked)"""
    records = list(records)
    pot = np.array([r.potential for r in records])
    for k in range(len(records) - 1):
        bound = pot[max(0, k - m) : k + 1].max()
        if pot[k + 1] + a * records[k + 1].step_norm ** 2 > bound:
            return False, k, k + 1
    return True, None, len(records) - 1


def verify_H2_ref(records, b):
    """(passed, max_ratio, first_violation, zero_step_violation)"""
    max_ratio = 0.0
    for r in records:
        if r.k == 0 or r.witness_norm == 0.0:
            continue
        if r.step_norm == 0.0:
            return False, math.inf, r.k, True
        ratio = r.witness_norm / r.step_norm
        max_ratio = max(max_ratio, ratio)
        if r.witness_norm > b * r.step_norm:
            return False, ratio, r.k, False
    return True, max_ratio, None, False


def classify_ksets_ref(records, a, theta, m, omega_star=None):
    """(flags, gaps, omega_star): flags[j] = (in_K1, in_K2, in_K31) for
    j >= 1."""
    records = list(records)
    ells = ell_indices_ref(records, m)
    pot = np.array([r.potential for r in records])
    if omega_star is None:
        omega_star = pot[ells[-1]]
    gaps = np.empty(len(records) - 1)
    flags = {}
    for j in range(1, len(records)):
        gap = pot[ells[j]] - pot[j]
        step = records[j].step_norm
        gaps[j - 1] = gap
        in_k1 = gap >= 0.5 * a * step**2
        in_k2 = in_k1 and gap < 0.5 * a * step ** (1.0 / theta)
        in_k31 = (in_k1 and not in_k2
                  and (omega_star - pot[j]) > 0.25 * a * step ** (1.0 / theta))
        flags[j] = (bool(in_k1), bool(in_k2), bool(in_k31))
    return flags, gaps, float(omega_star)


def rate_fit_tail_ref(records):
    records = list(records)
    objs = np.array([r.objective for r in records])
    gaps = objs[:-1] - objs[-1]
    start = 0
    for r in records[1:]:
        if r.backtracks == 0:
            start = r.k
            break
    post = gaps[start:]
    return post[len(post) // 2 :]


def polyline_points_ref(series, logy=False):
    """The `points` attribute of every polyline of `svgplot.line_plot_svg`,
    each point through its own pair of scalar closures."""
    from nmdesc.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH

    xs_all, ys_all = [], []
    for xv, yv in series.values():
        for x, y in zip(xv, yv):
            if not (logy and y <= 0):
                xs_all.append(float(x))
                ys_all.append(float(y))
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo * 10.0 if logy else y_lo + 1.0
    y_lo_t, y_hi_t = (math.log10(y_lo), math.log10(y_hi)) if logy else (y_lo, y_hi)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        t = math.log10(y) if logy else y
        return MARGIN_T + plot_h - (t - y_lo_t) / (y_hi_t - y_lo_t) * plot_h

    out = []
    for xv, yv in series.values():
        current = []
        for x, y in zip(xv, yv):
            if logy and y <= 0:
                if current:
                    out.append(" ".join(current))
                current = []
                continue
            current.append(f"{px(float(x)):.2f},{py(float(y)):.2f}")
        if current:
            out.append(" ".join(current))
    return out
