"""Time the numeric kernels and check them against numpy references.

Run twice to cover both backends:

    python3 benchmarks/bench_kernels.py
    NMDESC_NO_NUMBA=1 python3 benchmarks/bench_kernels.py

Each kernel is timed over repeated calls after a warm-up (which also pays
any compilation cost), and checked for agreement with a reference on the
same inputs. The sections:

* the active backend's masked residual and logistic loss terms against
  their numpy implementations;
* one block gradient of the matrix-completion oracle at the desk size of
  the PALM experiments (200 x 200, rank 10, 8000 draws): the `np.add.at`
  reference, the sorted-segment form (`masked_block_grad`) and the dense
  masked form (`masked_dense_grad`, with the buffers a problem owns);
* both forms over matrix size x observed density, with the form the rule
  in `problems.mc_oracle_form` picks for each point, and per size the
  ratio n1*n2/|Omega| where the dense form stops winning, which is where
  the rule's ratio constant comes from;
* one evaluation of a PG iterate on the desk logistic instance (n = 200,
  p = 2000): three separate oracle calls for its value, gradient and
  objective, one `smooth` call, and one `smooth` call given the margins
  A~x (as for an extrapolated point).
"""

import time

import numpy as np

from nmdesc import kernels, problems
from nmdesc.kernels import _logistic_loss_terms_np, _masked_residual_np


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
    loss, w = kernels.logistic_loss_terms(z, b)
    loss_ref, w_ref = _logistic_loss_terms_np(z, b)
    assert np.allclose(loss, loss_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(w, w_ref, rtol=1e-12, atol=1e-12)
    print("cross-check against numpy reference: ok")

    cases = [
        ("masked_residual", kernels.masked_residual, (U, V, rows, cols, obs)),
        ("logistic_loss_terms", kernels.logistic_loss_terms, (z, b)),
    ]
    for name, fn, args in cases:
        best = timeit(fn, *args)
        print(f"{name:22s} {best * 1e3:9.3f} ms  [{backend}]")
    block_grads(rng, backend)
    density_sweep()
    pg_point()


def grad_reference(A, B, own, other, obs):
    """One block's gradient by unbuffered scatter-adds, the reference: A is
    the block's factor and `own` each observation's row in it."""
    resid = _masked_residual_np(A, B, own, other, obs)
    grad = np.zeros_like(A)
    np.add.at(grad, own, resid[:, None] * B[other])
    return grad


class Forms:
    """Both forms of the block gradients on one index set, with the index
    arrays and buffers a problem would build once."""

    def __init__(self, n1, n2, rows, cols, obs):
        self.by_row = kernels.block_index(rows, cols, obs)
        self.by_col = kernels.block_index(cols, rows, obs)
        order = np.argsort(rows * n2 + cols)  # row-major, as mc_problem sorts
        self.flat = rows[order] * n2 + cols[order]
        self.obs = obs[order]
        self.P = np.empty((n1, n2))
        self.D = np.zeros((n1, n2))

    def segment(self, U, V):
        return (kernels.masked_block_grad(U, V, *self.by_row),
                kernels.masked_block_grad(V, U, *self.by_col))

    def dense(self, U, V):
        args = (self.flat, self.obs, self.P, self.D)
        return (kernels.masked_dense_grad(U, V, *args, 0),
                kernels.masked_dense_grad(U, V, *args, 1))


def block_grads(rng, backend):
    n1, n2, r, m = 200, 200, 10, 8000
    U = rng.standard_normal((n1, r))
    V = rng.standard_normal((n2, r))
    # 8000 draws with repeats collapsed, as gen_mc does: about 6700 entries
    draws = rng.integers(0, n1 * n2, m)
    _, first = np.unique(draws, return_index=True)
    flat = draws[np.sort(first)]
    rows, cols = np.divmod(flat, n2)
    obs = rng.standard_normal(len(flat))
    forms = Forms(n1, n2, rows, cols, obs)
    gU_ref = grad_reference(U, V, rows, cols, obs)
    gV_ref = grad_reference(V, U, cols, rows, obs)
    for gU, gV in (forms.segment(U, V), forms.dense(U, V)):
        assert np.allclose(gU, gU_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(gV, gV_ref, rtol=1e-12, atol=1e-12)
    print("block gradients against the np.add.at reference: ok")

    dense = (forms.flat, forms.obs, forms.P, forms.D)
    cases = [
        ("grad_U add.at (ref)", grad_reference, (U, V, rows, cols, obs)),
        ("grad_U segment", kernels.masked_block_grad, (U, V, *forms.by_row)),
        ("grad_V segment", kernels.masked_block_grad, (V, U, *forms.by_col)),
        ("grad_U dense", kernels.masked_dense_grad, (U, V, *dense, 0)),
        ("grad_V dense", kernels.masked_dense_grad, (U, V, *dense, 1)),
    ]
    print(f"desk size: {n1}x{n2}, r={r}, {len(flat)} observed entries")
    for name, fn, args in cases:
        best = timeit(fn, *args, repeat=100)
        print(f"{name:22s} {best * 1e3:9.3f} ms  [{backend}]")


SIZES = (200, 500, 1000, 2000)
DENSITIES = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.1, 0.2)


def density_sweep(r=10):
    """Per block gradient, both forms with buffers, over size x density."""
    rng = np.random.default_rng(1)
    print(f"\nper block gradient over size x density (rank {r}); "
          "'rule' is the form mc_oracle_form picks")
    print(f"{'n1=n2':>6s} {'density':>8s} {'|Omega|':>8s} {'n1n2/|Omega|':>13s} "
          f"{'segment ms':>11s} {'dense ms':>9s} {'faster':>8s} {'rule':>8s}")
    for n in SIZES:
        U = rng.standard_normal((n, r))
        V = rng.standard_normal((n, r))
        # densities ascend, so the ratio n1*n2/|Omega| descends
        dense_from = segment_to = None
        for density in DENSITIES:
            m = int(density * n * n)
            flat = np.sort(rng.choice(n * n, m, replace=False))
            rows, cols = np.divmod(flat, n)
            obs = rng.standard_normal(m)
            forms = Forms(n, n, rows, cols, obs)
            seg = forms.segment(U, V)
            den = forms.dense(U, V)
            for a, b in zip(seg, den):
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(a).max())
            repeat = 20 if n <= 500 else 5
            t_seg = timeit(forms.segment, U, V, repeat=repeat) / 2
            t_den = timeit(forms.dense, U, V, repeat=repeat) / 2
            ratio = n * n / m
            faster = "dense" if t_den < t_seg else "segment"
            if faster == "dense":
                dense_from = ratio if dense_from is None else dense_from
            else:
                segment_to = ratio
            rule = problems.mc_oracle_form(n, n, m)
            print(f"{n:6d} {density:8.3f} {m:8d} {ratio:13.1f} "
                  f"{t_seg * 1e3:11.3f} {t_den * 1e3:9.3f} {faster:>8s} {rule:>8s}")
            del forms
        print(f"{n:6d} crossover: dense first wins at n1n2/|Omega| = "
              f"{dense_from or float('nan'):.1f}, segment last wins at "
              f"{segment_to or float('nan'):.1f}")
    print(f"rule: dense when n1*n2 <= {problems.DENSE_MAX_RATIO} * |Omega| and "
          f"n1*n2*8 B <= {problems.DENSE_MAX_BYTES / 2**20:.0f} MiB per buffer")


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
    print("\none PG point evaluation against three separate calls: ok")

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
