"""Nonmonotone line-search proximal descent solvers with convergence diagnostics.

Two solver families over composite objectives:

* ``pg``   -- proximal gradient with extrapolation and a nonmonotone line
  search (plus monotone / no-extrapolation degenerations, FISTA, reFISTA).
* ``palm`` -- proximal alternating linearized minimization with extrapolation
  and a nonmonotone line search (plus degenerations and the classical
  PALM / PALMe baselines).

The ``diagnostics`` module replays solver traces and empirically checks the
decrease and relative-error conditions the convergence theory relies on.
"""

from .linalg import RngStream, spectral_norm
from .prox import ProxSpec, prox_l0, prox_ridge_l20_columns
from .nls import HistoryWindow, window_max, accept, backtrack_params

__all__ = [
    "RngStream",
    "spectral_norm",
    "ProxSpec",
    "prox_l0",
    "prox_ridge_l20_columns",
    "HistoryWindow",
    "window_max",
    "accept",
    "backtrack_params",
]

__version__ = "0.1.0"
