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

__version__ = "0.1.0"
