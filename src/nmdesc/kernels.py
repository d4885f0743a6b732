"""Hot numeric kernels: numba-compiled with a pure-numpy fallback.

Set the environment variable ``NMDESC_NO_NUMBA=1`` before import to force
the numpy path (useful on platforms without a working numba install, and
for the kernel benchmark in ``benchmarks/``). Both paths are deterministic;
they may differ in the last few ulps because of summation order.
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("NMDESC_NO_NUMBA", "0") not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

__all__ = [
    "USE_NUMBA",
    "block_index",
    "masked_residual",
    "masked_block_grad",
    "masked_dense_residual",
    "masked_dense_grad",
    "logistic_loss_terms",
]


def block_index(own, other, obs):
    """The observed index set sorted by one block's index, for
    `masked_block_grad`.

    `own` holds each observation's row index in that block's factor (the
    rows of Omega for U, its columns for V) and `other` its row index in the
    other factor. Returns (own, other, obs) permuted into a stable sort on
    `own`, the start of each run of equal `own` values, and those values.
    """
    order = np.argsort(own, kind="stable")
    own_sorted = own[order]
    starts = np.flatnonzero(np.diff(own_sorted, prepend=-1))
    return own_sorted, other[order], obs[order], starts, own_sorted[starts]


# -- dense masked form: BLAS-bound numpy, the same in every backend -------------

def masked_dense_residual(U, V, flat, obs, P):
    """r_t = (UV^T)[Omega_t] - obs[t], with UV^T formed in the caller's
    n1 x n2 buffer P and Omega given as row-major flat indices into it.

    The dense form of `masked_residual`: one matrix product and one gather
    of |Omega| entries, for index sets dense enough that forming UV^T costs
    less than gathering a row pair per observation.
    """
    np.matmul(U, V.T, out=P)
    return P.take(flat) - obs


def masked_dense_grad(U, V, flat, obs, P, D, block):
    """One block's gradient of 0.5*||P_Omega(UV^T - M)||_F^2 in dense form:
    D V for the U block (`block` 0), D^T U for the V block (`block` 1).

    D is the caller's C-contiguous n1 x n2 buffer of the masked residual.
    Only its Omega entries are written, so it must be zero off Omega when
    first passed and stays so between calls. P is the buffer of
    `masked_dense_residual`. Omega's entries must be distinct (a repeated
    index would keep one residual); sorted flat indices scatter fastest.
    """
    D.reshape(-1)[flat] = masked_dense_residual(U, V, flat, obs, P)
    return D @ V if block == 0 else D.T @ U


# -- numpy reference implementations ----------------------------------------

def _masked_residual_np(U, V, rows, cols, obs):
    """r_t = <U[rows[t]], V[cols[t]]> - obs[t] over the observed index set."""
    return np.einsum("ij,ij->i", U.take(rows, axis=0), V.take(cols, axis=0)) - obs


def _masked_block_grad_np(A, B, own, other, obs, starts, ids):
    """Gradient of 0.5*||P_Omega(UV^T - M)||_F^2 in the factor A, with B the
    other factor and the index arrays from `block_index` for A's block.

    The residual is evaluated in A's sorted order, so the gathered rows of B
    serve both the residual and the gradient terms, and each row of the
    gradient is one segment sum. Rows of A with no observation get zeros.
    """
    B_other = B.take(other, axis=0)
    resid = np.einsum("ij,ij->i", A.take(own, axis=0), B_other) - obs
    grad = np.zeros_like(A)
    grad[ids] = np.add.reduceat(resid[:, None] * B_other, starts, axis=0)
    return grad


def _logistic_loss_terms_np(z, b):
    """Per-sample stable loss log(1+exp(-b*z)) and weight -b/(1+exp(b*z)).

    exp(b*z) overflows to inf on saturated margins, which sends w to -0.0
    or 0.0 as it should; the overflow warning is suppressed.
    """
    t = -b * z
    with np.errstate(over="ignore"):
        loss = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
        w = -b / (1.0 + np.exp(b * z))
    return loss, w


# -- numba implementations ---------------------------------------------------

if USE_NUMBA:

    @njit(cache=True)
    def _masked_residual_nb(U, V, rows, cols, obs):
        p = rows.shape[0]
        r = U.shape[1]
        out = np.empty(p)
        for t in range(p):
            acc = 0.0
            i = rows[t]
            j = cols[t]
            for c in range(r):
                acc += U[i, c] * V[j, c]
            out[t] = acc - obs[t]
        return out

    @njit(cache=True)
    def _masked_block_grad_nb(A, B, own, other, obs, starts, ids):
        # the loop accumulates in sorted order and needs no segment bounds
        r = A.shape[1]
        grad = np.zeros_like(A)
        for t in range(own.shape[0]):
            i = own[t]
            j = other[t]
            acc = 0.0
            for c in range(r):
                acc += A[i, c] * B[j, c]
            rt = acc - obs[t]
            for c in range(r):
                grad[i, c] += rt * B[j, c]
        return grad

    @njit(cache=True)
    def _logistic_loss_terms_nb(z, b):
        n = z.shape[0]
        loss = np.empty(n)
        w = np.empty(n)
        for i in range(n):
            t = -b[i] * z[i]
            if t > 0.0:
                loss[i] = t + np.log1p(np.exp(-t))
            else:
                loss[i] = np.log1p(np.exp(t))
            w[i] = -b[i] / (1.0 + np.exp(-t))
        return loss, w

    masked_residual = _masked_residual_nb
    masked_block_grad = _masked_block_grad_nb
    logistic_loss_terms = _logistic_loss_terms_nb
else:
    masked_residual = _masked_residual_np
    masked_block_grad = _masked_block_grad_np
    logistic_loss_terms = _logistic_loss_terms_np
