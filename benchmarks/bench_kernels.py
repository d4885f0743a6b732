"""Compare the compiled and pure-numpy kernel paths.

Run twice to cover both backends:

    python3 benchmarks/bench_kernels.py
    NMDESC_NO_NUMBA=1 python3 benchmarks/bench_kernels.py

Each kernel is timed over repeated calls after a warm-up (which also pays
any compilation cost), and the two paths are cross-checked for agreement
on the same inputs. A second section times the per-block gradient of the
matrix-completion oracle (`masked_block_grad`, residual and segment sums
over a sorted index set) against one block of the `np.add.at` reference at
the desk size of the PALM experiments: 200 x 200, rank 10, 8000 observed
entries. A third times one evaluation of a PG iterate on the desk logistic
instance (n = 200, p = 2000): three separate oracle calls for its value,
gradient and objective, one `smooth` call, and one `smooth` call given the
margins A~x (as for an extrapolated point).
"""

import time

import numpy as np

from nmdesc import kernels, problems
from nmdesc.kernels import (
    _logistic_loss_terms_np,
    _masked_block_grad_np,
    _masked_grads_np,
    _masked_residual_np,
)


def timeit(fn, *args, repeat=20):
    fn(*args)  # warm-up / compile
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    rng = np.random.default_rng(0)
    n1, n2, r, m = 500, 500, 10, 40000
    U = rng.standard_normal((n1, r))
    V = rng.standard_normal((n2, r))
    rows = rng.integers(0, n1, m)
    cols = rng.integers(0, n2, m)
    obs = rng.standard_normal(m)
    z = rng.standard_normal(200000)
    b = np.where(rng.standard_normal(200000) >= 0, 1.0, -1.0)

    backend = "numba" if kernels.USE_NUMBA else "numpy"
    print(f"active backend: {backend}")

    resid = kernels.masked_residual(U, V, rows, cols, obs)
    resid_ref = _masked_residual_np(U, V, rows, cols, obs)
    assert np.allclose(resid, resid_ref, rtol=1e-12, atol=1e-12)
    gU, gV = kernels.masked_grads(U, V, rows, cols, resid)
    gU_ref, gV_ref = _masked_grads_np(U, V, rows, cols, resid)
    assert np.allclose(gU, gU_ref, rtol=1e-10, atol=1e-10)
    assert np.allclose(gV, gV_ref, rtol=1e-10, atol=1e-10)
    loss, w = kernels.logistic_loss_terms(z, b)
    loss_ref, w_ref = _logistic_loss_terms_np(z, b)
    assert np.allclose(loss, loss_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(w, w_ref, rtol=1e-12, atol=1e-12)
    print("cross-check against numpy reference: ok")

    cases = [
        ("masked_residual", kernels.masked_residual, (U, V, rows, cols, obs)),
        ("masked_grads", kernels.masked_grads, (U, V, rows, cols, resid)),
        ("logistic_loss_terms", kernels.logistic_loss_terms, (z, b)),
    ]
    for name, fn, args in cases:
        best = timeit(fn, *args)
        print(f"{name:22s} {best * 1e3:9.3f} ms  [{backend}]")
    block_grads(rng, backend)
    pg_point()


def grad_u_reference(U, V, rows, cols, obs):
    """One block of the `np.add.at` reference, with its residual."""
    resid = _masked_residual_np(U, V, rows, cols, obs)
    gU = np.zeros_like(U)
    np.add.at(gU, rows, resid[:, None] * V[cols])
    return gU


def block_grads(rng, backend):
    n1, n2, r, m = 200, 200, 10, 8000
    U = rng.standard_normal((n1, r))
    V = rng.standard_normal((n2, r))
    rows = rng.integers(0, n1, m)
    cols = rng.integers(0, n2, m)
    obs = rng.standard_normal(m)
    by_row = kernels.block_index(rows, cols, obs)
    by_col = kernels.block_index(cols, rows, obs)

    resid = _masked_residual_np(U, V, rows, cols, obs)
    gU_ref, gV_ref = _masked_grads_np(U, V, rows, cols, resid)
    for fn in (kernels.masked_block_grad, _masked_block_grad_np):
        assert np.allclose(fn(U, V, *by_row), gU_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(fn(V, U, *by_col), gV_ref, rtol=1e-12, atol=1e-12)
    print("block gradients against the np.add.at reference: ok")

    cases = [
        ("grad_U add.at (ref)", grad_u_reference, (U, V, rows, cols, obs)),
        ("grad_U block_grad", kernels.masked_block_grad, (U, V, *by_row)),
        ("grad_V block_grad", kernels.masked_block_grad, (V, U, *by_col)),
    ]
    print(f"desk size: {n1}x{n2}, r={r}, {m} observations")
    for name, fn, args in cases:
        best = timeit(fn, *args, repeat=100)
        print(f"{name:22s} {best * 1e3:9.3f} ms  [{backend}]")


def pg_point():
    inst = problems.gen_logreg(n=200, p=2000, s=20, seed=101, lam=1.0, mu=1e-3)
    prob = problems.logreg_problem(inst)
    x = np.random.default_rng(1).standard_normal(inst.p + 1) * 0.01
    z = inst.A_tilde @ x

    def separate(x):
        # value, gradient and objective each from a full oracle call
        value = problems.logreg_value_grad(x, inst)[0]
        grad = problems.logreg_value_grad(x, inst)[1]
        objective = problems.logreg_value_grad(x, inst)[0] + prob.g_value(x)
        return value, grad, objective

    def one_call(x, z=None):
        value, grad, _ = prob.smooth(x, z)
        return value, grad, value + prob.g_value(x)

    ref = separate(x)
    for got in (one_call(x), one_call(x, z)):
        assert got[0] == ref[0] and got[2] == ref[2]
        assert np.array_equal(got[1], ref[1])
    print("one PG point evaluation against three separate calls: ok")

    cases = [
        ("value+grad+objective", separate, (x,)),
        ("smooth", one_call, (x,)),
        ("smooth, given margins", one_call, (x, z)),
    ]
    print(f"desk logistic: n={inst.n}, p={inst.p}")
    for name, fn, args in cases:
        best = timeit(fn, *args, repeat=100)
        print(f"{name:22s} {best * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
