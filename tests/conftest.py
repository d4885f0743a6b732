"""Shared test fixtures and toy problems."""

import numpy as np

from nmdesc.problems import CompositeProblem
from nmdesc.prox import ProxSpec


def quadratic_problem(A=None, dim=2, lam=0.0):
    """F(x) = 0.5*x'Ax + lam*||x||_0 with A symmetric positive definite
    (identity by default)."""
    if A is None:
        A = np.eye(dim)
    A = np.asarray(A, dtype=np.float64)
    L = float(np.linalg.eigvalsh(A).max())

    def smooth(x, z=None):
        grad = A @ x
        return 0.5 * float(x @ grad), grad, None

    return CompositeProblem(
        smooth=smooth,
        g_spec=ProxSpec(kind="l0_vector", lam=lam),
        lipschitz=L,
        dim=A.shape[0],
    )


def flat_problem(dim=2):
    """F identically zero: every point is a fixed point."""
    return CompositeProblem(
        smooth=lambda x, z=None: (0.0, np.zeros_like(x), None),
        g_spec=ProxSpec(kind="l0_vector", lam=0.0),
        lipschitz=1.0,
        dim=dim,
    )


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
