"""Trace verification and convergence diagnostics.

Everything here is a pure function of a `trace.Trace`, computed on its
columns: the decrease condition (H1) and relative-error condition (H2)
replays, the index-set classification driving the summability checks, rate
fitting, and the normalized objective-evolution curves used for solver
comparisons.

Powers of step norms go through the scalar libm `pow` (`math.pow`, which
is what Python's float `**` calls), never numpy's array `**`: on some CPUs
the array form rounds differently (x**2 is the product x*x, and general
powers take a vectorized path), and one ulp at an H1 or K-set boundary
flips a verdict or a flag that a replay with scalar `**` gets the other way.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# rows of windows per argmax in ell_indices, so that a long memory does
# not copy an n x (m+1) array at once
_WINDOW_ELEMENTS = 1 << 16


def _pow(values, exponent):
    """values**exponent element by element through libm pow."""
    return np.fromiter(map(math.pow, values.tolist(), repeat(exponent)),
                       dtype=np.float64, count=len(values))


def _check_constant(name, value):
    """Raise ValueError unless the condition constant `name` is finite and
    nonnegative: a NaN, infinite or negative one empties the check it
    scales, which then passes every trace."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must lie in [0, inf)")


def ell_indices(trace, m):
    """ell(k) for every k: the LARGEST index attaining the max potential
    over the window [max(0, k-m), k]. A NaN counts as the maximum; the
    last NaN of the window is taken."""
    if m < 0:
        raise ValueError("memory m must be nonnegative")
    pot = trace.column("potential")
    n = len(pot)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    m = min(m, n - 1)
    # row k is pot[k-m .. k] reversed, with -inf before the start, so
    # argmax (the first maximizer, or the first NaN) is the last one of
    # the window
    padded = np.concatenate((np.full(m, -np.inf), pot))
    windows = sliding_window_view(padded, m + 1)[:, ::-1]
    offset = np.empty(n, dtype=np.int64)
    block = max(1, _WINDOW_ELEMENTS // (m + 1))
    for lo in range(0, n, block):
        offset[lo : lo + block] = windows[lo : lo + block].argmax(axis=1)
    return np.arange(n) - offset


@dataclass
class H1Report:
    passed: bool
    first_violation: int = None
    checked: int = 0


def verify_H1(trace, a, m):
    """Check the nonmonotone decrease condition with zero slack:
    potential(k+1) + a*step(k+1)^2 <= max potential over [k-m, k]; `a`
    must lie in [0, inf)."""
    _check_constant("a", a)
    pot = trace.column("potential")
    if len(pot) < 2:
        return H1Report(passed=True, checked=len(pot) - 1)
    # the window maximum is the potential at ell(k)
    bound = pot[ell_indices(trace, m)[:-1]]
    lhs = pot[1:] + a * _pow(trace.column("step_norm")[1:], 2.0)
    bad = np.flatnonzero(lhs > bound)
    if bad.size:
        k = int(bad[0])
        return H1Report(passed=False, first_violation=k, checked=k + 1)
    return H1Report(passed=True, checked=len(pot) - 1)


@dataclass
class H2Report:
    passed: bool
    max_ratio: float
    first_violation: int = None
    zero_step_violation: bool = False


def verify_H2(trace, b):
    """Check the relative-error condition witness_norm <= b*step_norm.

    A zero step with a nonzero witness is flagged specially (the ratio is
    infinite); zero witness always passes, and so do the rows with k = 0.
    `b` must lie in [0, inf).
    """
    _check_constant("b", b)
    k = trace.column("k")
    witness = trace.column("witness_norm")
    step = trace.column("step_norm")
    checked = (k != 0) & (witness != 0.0)
    zero_step = checked & (step == 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        ratio = np.divide(witness, step, out=np.zeros_like(witness),
                          where=checked & ~zero_step)
        fails = zero_step | (checked & (witness > b * step))
    if fails.any():
        i = int(np.argmax(fails))
        if zero_step[i]:
            return H2Report(passed=False, max_ratio=math.inf,
                            first_violation=int(k[i]), zero_step_violation=True)
        return H2Report(passed=False, max_ratio=float(ratio[i]),
                        first_violation=int(k[i]))
    # the largest ratio above 0.0; NaN ratios are passed over
    above = ratio[ratio > 0.0]
    return H2Report(passed=True, max_ratio=float(above.max()) if above.size else 0.0)


@dataclass
class KsetReport:
    """Per-step index-set memberships.

    k1[j-1], k2[j-1], k31[j-1] and k32[j-1] are the memberships of the step
    producing iterate j (j >= 1), as boolean arrays. gaps[j-1] is the
    potential gap Phi(x^{ell(j)}) - Phi(x^j); steps[j-1] is the logged step
    norm. The limit value omega_star is ESTIMATED by the final window
    maximum.
    """

    k1: np.ndarray
    k2: np.ndarray
    k31: np.ndarray
    k32: np.ndarray
    gaps: np.ndarray
    steps: np.ndarray
    a: float
    theta: float
    m: int
    omega_star: float


def classify_ksets(trace, a, theta, m, omega_star=None):
    """Classify each step into the summability index sets.

    K1: gap >= (a/2)*step^2; K2: additionally gap < (a/2)*step^(1/theta);
    K31 (subset of K1 minus K2): omega* - potential(j) > (a/4)*step^(1/theta).
    K32 collects the rest of K1. `a` must lie in [0, inf).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    _check_constant("a", a)
    ells = ell_indices(trace, m)
    pot = trace.column("potential")
    if omega_star is None:
        omega_star = pot[ells[-1]]
    gaps = pot[ells[1:]] - pot[1:]
    steps = trace.column("step_norm")[1:].copy()
    step_pow = _pow(steps, 1.0 / theta)
    k1 = gaps >= 0.5 * a * _pow(steps, 2.0)
    k2 = k1 & (gaps < 0.5 * a * step_pow)
    k31 = k1 & ~k2 & ((omega_star - pot[1:]) > 0.25 * a * step_pow)
    return KsetReport(
        k1=k1, k2=k2, k31=k31, k32=k1 & ~(k2 | k31), gaps=gaps, steps=steps,
        a=a, theta=theta, m=m, omega_star=float(omega_star),
    )


def condition_partial_sums(trace, report):
    """Cumulative sums of sqrt(gap) over K1 and over K2 u K31, plus the
    fixed power-law reference curve sum_j 3000/sqrt(j^2.1)."""
    sqrt_gap = np.sqrt(np.maximum(report.gaps, 0.0))
    ks = np.arange(1, len(report.gaps) + 1, dtype=np.float64)
    return {
        "k1_partial": np.cumsum(np.where(report.k1, sqrt_gap, 0.0)),
        "k231_partial": np.cumsum(np.where(report.k2 | report.k31, sqrt_gap, 0.0)),
        # a fixed curve, not a replay of the solver: numpy's array power
        "reference": np.cumsum(3000.0 / np.sqrt(ks**2.1)),
    }


@dataclass
class RateFit:
    mode: str
    rate: float        # contraction factor rho (linear) or log-log slope
    r_squared: float
    theta: float = None
    points: int = 0


# the fewest positive gaps a rate is fitted to
MIN_FIT_POINTS = 20


class TooShortToFit(ValueError):
    """A gap series with fewer than MIN_FIT_POINTS positive values before
    its first nonpositive one; `points` is how many it has."""

    def __init__(self, points):
        super().__init__(f"need at least {MIN_FIT_POINTS} positive gap values "
                         f"to fit a rate, got {points}")
        self.points = points


def fit_rate(gaps, mode):
    """Fit a decay model to a positive gap series.

    linear: least-squares of log(gap) vs k; returns rho = exp(slope).
    sublinear: log(gap) vs log(k); the KL exponent theta is recovered from
    slope = (1-theta)/(1-2*theta). The series is cut at its first
    nonpositive entry; TooShortToFit is raised when fewer than
    MIN_FIT_POINTS entries remain.
    """
    gaps = np.asarray(gaps, dtype=np.float64)
    pos = gaps > 0.0
    if not pos.all():
        first_bad = int(np.argmin(pos))
        warnings.warn(
            f"truncating gap series at first nonpositive entry (index {first_bad})"
        )
        gaps = gaps[:first_bad]
    if len(gaps) < MIN_FIT_POINTS:
        raise TooShortToFit(len(gaps))
    k = np.arange(1, len(gaps) + 1, dtype=np.float64)
    logg = np.log(gaps)
    if mode == "linear":
        slope, intercept = np.polyfit(k, logg, 1)
        pred = slope * k + intercept
        if slope >= 0.0:
            raise ValueError("gap series does not decay; no linear rate")
        r2 = _r_squared(logg, pred)
        return RateFit(mode=mode, rate=math.exp(slope), r_squared=r2,
                       points=len(gaps))
    if mode == "sublinear":
        logk = np.log(k)
        slope, intercept = np.polyfit(logk, logg, 1)
        if slope >= 0.0:
            raise ValueError("gap series does not decay; no sublinear rate")
        pred = slope * logk + intercept
        theta = (1.0 - slope) / (1.0 - 2.0 * slope)
        return RateFit(mode=mode, rate=slope, r_squared=_r_squared(logg, pred),
                       theta=theta, points=len(gaps))
    raise ValueError(f"unknown fit mode {mode!r}")


def _r_squared(y, pred):
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def rate_fit_tail(trace):
    """Objective-gap tail used for rate fitting: the last half of the
    post-transient iterations, where the transient ends at the first
    backtrack-free step. The gap is measured against the final objective.
    A trace with no rows has no gaps."""
    objs = trace.column("objective")
    if not len(objs):
        return objs
    gaps = objs[:-1] - objs[-1]
    free = np.flatnonzero(trace.column("backtracks")[1:] == 0)
    start = int(trace.column("k")[1 + free[0]]) if free.size else 0
    post = gaps[start:]
    return post[len(post) // 2 :]


def evolution_curve(traces, grid):
    """Normalized best-objective-so-far E(t) per solver on a shared grid.

    traces: mapping name -> Trace, all on the same instance (identical
    starting objective). The floor objective is the best value any solver
    logged, so every curve lies in [0, 1] and ends at 0 for the winner.
    """
    grid = np.asarray(grid, dtype=np.float64)
    objectives = {name: t.column("objective") for name, t in traces.items()}
    f0 = next(iter(objectives.values()))[0]
    f_min = min(min(objs.tolist()) for objs in objectives.values())
    if f0 == f_min:
        raise ValueError("degenerate instance: starting objective equals the minimum")
    curves = {}
    for name, objs in objectives.items():
        best = np.minimum.accumulate(objs)
        idx = np.searchsorted(traces[name].column("time_s"), grid, side="right") - 1
        e = np.ones_like(grid)
        have = idx >= 0
        e[have] = (best[idx[have]] - f_min) / (f0 - f_min)
        curves[name] = e
    return curves

