"""Closed-form proximal mappings for the nonsmooth regularizers.

Both mappings are set-valued exactly at their thresholds; ties are resolved
by keeping the nonzero candidate so that solver traces are deterministic.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ProxSpec:
    """A nonsmooth regularizer: its parameters, `value(x)` and `prox(v, tau)`,
    which returns the prox point together with the regularizer's value there.

    kind
        "l0_vector": lam * ||x||_0 applied coordinate-wise, skipping
        `skip_indices` (e.g. an unregularized intercept).
        "ridge_l20_columns": (mu/2)*||X||_F^2 + lam * (number of nonzero
        columns of X).
    """

    kind: str
    lam: float
    mu: float = 0.0
    skip_indices: frozenset = field(default_factory=frozenset)

    # skip_indices as an index array, built once for `value` and `prox_l0`
    _skip: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_skip", np.array(sorted(self.skip_indices), dtype=np.intp))
        if self.kind not in ("l0_vector", "ridge_l20_columns"):
            raise ValueError(f"unknown prox kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and nonnegative")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and nonnegative")

    def value(self, x):
        """Evaluate the regularizer at x. The solvers call it at their start
        points only: every later point is a prox point, whose value the
        prox returns."""
        if self.kind == "l0_vector":
            x = np.asarray(x)
            return self.lam * (np.count_nonzero(x) - np.count_nonzero(x[self._skip]))
        X = np.asarray(x)
        ncols = np.count_nonzero(X.any(axis=0))
        return 0.5 * self.mu * float((X * X).sum()) + self.lam * ncols

    def prox(self, v, tau):
        """(z, g(z)): the prox z of tau times the regularizer g at v, and
        g's value at z, from what the prox forms (see `prox_l0` and
        `prox_ridge_l20_columns`)."""
        if self.kind == "l0_vector":
            return prox_l0(v, tau, self)
        return prox_ridge_l20_columns(v, tau, self)


def prox_l0(v, tau, spec):
    """Prox of lam*||.||_0: keep coordinate i iff v_i^2 >= 2*tau*lam.

    Coordinates listed in spec.skip_indices pass through unchanged.
    Ties (v_i^2 == 2*tau*lam) keep v_i. Returns (z, g(z)), where g(z) is
    lam times the count of kept coordinates outside skip_indices: a kept
    v_i is nonzero when the threshold 2*tau*lam is positive, and with
    lam = 0 the value is 0 whatever is kept.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = np.asarray(v, dtype=np.float64)
    keep = v * v >= 2.0 * tau * spec.lam
    keep[spec._skip] = True
    kept = int(np.count_nonzero(keep)) - len(spec._skip)
    return np.where(keep, v, 0.0), spec.lam * kept


def prox_ridge_l20_columns(V, tau, spec):
    """Prox of (mu/2)||.||_F^2 + lam*||.||_{2,0} acting on whole columns.

    Per column c the surviving candidate is c/(1+tau*mu); it is kept iff
    ||c||^2 >= 2*lam*tau*(1+tau*mu), otherwise the column is zeroed.
    Ties keep the scaled candidate. Returns (Z, g(Z)), with g(Z) from the
    column sums ||c||^2 the test forms: (mu/2)*shrink^2 times the sum of
    ||c||^2 over the kept columns, plus lam per kept column.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    V = np.asarray(V, dtype=np.float64)
    scale = 1.0 + tau * spec.mu
    shrink = 1.0 / scale
    colsq = (V * V).sum(axis=0)
    keep = colsq >= 2.0 * spec.lam * tau * scale
    out = V * shrink
    out[:, ~keep] = 0.0
    kept = int(np.count_nonzero(keep))
    value = 0.5 * spec.mu * shrink * shrink * float(colsq @ keep) + spec.lam * kept
    return out, value


def prox_objective(z, v, tau, spec):
    """(1/(2*tau))*||z - v||^2 + g(z), the objective the prox minimizes."""
    z = np.asarray(z, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.sum((z - v) ** 2)) / (2.0 * tau) + spec.value(z)
