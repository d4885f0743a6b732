"""Time the numeric kernels and check them against references.

    python3 benchmarks/bench_kernels.py

Each kernel is timed over repeated calls after a warm-up, and checked for
agreement with a reference on the same inputs. The sections:

* the masked residual against the gather (UV^T)[rows, cols] - obs, and
  the logistic loss terms against `np.logaddexp`;
* the matrix-completion coupling at the desk size of the PALM experiments
  (200 x 200, rank 10, 8000 draws): the `np.add.at` reference of
  `tests/testkit.py`, and in each form the residual and one block
  gradient from it: the sorted-segment form (`masked_residual`,
  `masked_block_grad`) and the dense masked form (`masked_dense_residual`,
  `masked_dense_scatter`, `masked_dense_grad`, with the buffers a problem
  owns). The dense residual, formed on the transposed view V^T as the
  oracle forms it, is timed next to the product on a C-order copy of V^T,
  which is faster but not always bit-equal: the script counts the entries
  where the two differ at the desk size and at 120 x 230;
* both forms over matrix size x observed density, per block gradient with
  both gradients taken from one residual and, in the dense form, one
  scatter of it (as at an accepted PALM point), with the form the rule in
  `problems.mc_oracle_form` picks for each point, and per size the ratio
  n1*n2/|Omega| where the dense form stops winning, which is where the
  rule's ratio constant comes from;
* one evaluation of a PG iterate on the desk logistic instance (n = 200,
  p = 2000): three separate oracle calls for its value, gradient and
  objective, one `smooth` call, and one `smooth` call given the margins
  A~x (as for an extrapolated point);
* the logistic margins A~x over the support size |S| of x, at the desk
  size (200 x 2001), at two sizes either side of the rule's size bound
  (100 x 2001 and 100 x 1001) and at the size `cli-batch` benches
  (60 x 301): the dense product against `np.flatnonzero` plus the support
  product x[S] @ A~^T[S], with the form the rule in `problems.margins_form`
  picks, and per size the largest |S| where the support product still
  wins, which is where the rule's constants come from;
* the post-processing of a solve on the 947-row desk trace (`pgenls` on
  logistic instance 101, to stop_tol 1e-6): `write_trace_csv`,
  `read_trace_csv`, `diag`'s `read_trace_rows` and `write_flagged_csv`
  (the `_ksets.csv` write), the `diag` analysis (ell, H1, K-sets,
  partial sums) next to the per-record reference loops of
  `tests/testkit.py`, which it is checked against, and the partial-sum
  `line_plot_svg`.
"""

import os
import sys
import tempfile
import time

import numpy as np

from nmdesc import cli, diagnostics, kernels, problems, svgplot, trace

# the references the kernels and the columnar diagnostics are tested against
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from testkit import (  # noqa: E402
    add_at_grads,
    classify_ksets_ref,
    ell_indices_ref,
    verify_H1_ref,
)


def timeit(fn, *args, repeat=20):
    fn(*args)  # warm-up
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

    resid = kernels.masked_residual(U, V, rows, cols, obs)
    assert np.allclose(resid, (U @ V.T)[rows, cols] - obs, rtol=1e-12, atol=1e-12)
    loss, w = kernels.logistic_loss_terms(z, b)
    assert np.allclose(loss, np.logaddexp(0.0, -b * z), rtol=1e-12, atol=1e-12)
    assert np.allclose(w, -b * np.exp(-np.logaddexp(0.0, b * z)), rtol=1e-12, atol=1e-12)
    print("residual and logistic terms against their references: ok")

    cases = [
        ("masked_residual", kernels.masked_residual, (U, V, rows, cols, obs)),
        ("logistic_loss_terms", kernels.logistic_loss_terms, (z, b)),
    ]
    for name, fn, args in cases:
        best = timeit(fn, *args)
        print(f"{name:22s} {best * 1e3:9.3f} ms")
    block_grads(rng)
    density_sweep()
    pg_point()
    margins_sweep()
    post_processing()


class Forms:
    """Both forms of the block gradients on one index set, with the index
    arrays and buffers a problem would build once; each method returns
    both gradients from one residual, as `mc_problem`'s coupling does."""

    def __init__(self, n1, n2, rows, cols, obs):
        self.omega = (rows, cols, obs)
        self.by_row = kernels.block_index(rows, cols)
        self.by_col = kernels.block_index(cols, rows)
        order = np.argsort(rows * n2 + cols)  # row-major, as mc_problem sorts
        self.flat = rows[order] * n2 + cols[order]
        self.obs = obs[order]
        self.P = np.empty((n1, n2))
        self.D = np.zeros((n1, n2))

    def segment(self, U, V):
        resid = kernels.masked_residual(U, V, *self.omega)
        return (kernels.masked_block_grad(U, V, resid, *self.by_row),
                kernels.masked_block_grad(V, U, resid, *self.by_col))

    def dense(self, U, V):
        resid = kernels.masked_dense_residual(U, V, self.flat, self.obs, self.P)
        kernels.masked_dense_scatter(self.flat, resid, self.D)
        return (kernels.masked_dense_grad(U, V, self.D, 0),
                kernels.masked_dense_grad(U, V, self.D, 1))


def c_order_residual(U, V, flat, obs, P):
    """The dense residual with the product taken on a C-order copy of V^T,
    which runs without a transposed operand."""
    np.matmul(U, np.ascontiguousarray(V.T), out=P)
    return P.take(flat) - obs


def c_order_differences(n1, n2, r, rng):
    """Entries of UV^T where the product on a C-order copy of V^T differs
    from that on the view V^T, for random factors of one shape."""
    U = rng.standard_normal((n1, r))
    V = rng.standard_normal((n2, r))
    return int(np.count_nonzero(U @ V.T != U @ np.ascontiguousarray(V.T)))


def block_grads(rng):
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
    gU_ref, gV_ref = add_at_grads(U, V, rows, cols, obs)
    for gU, gV in (forms.segment(U, V), forms.dense(U, V)):
        assert np.allclose(gU, gU_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(gV, gV_ref, rtol=1e-12, atol=1e-12)
    print("block gradients against the np.add.at reference: ok")

    resid = kernels.masked_residual(U, V, rows, cols, obs)
    dense_resid = kernels.masked_dense_residual(U, V, forms.flat, forms.obs, forms.P)
    for shape in ((n1, n2), (120, 230)):
        print(f"UV^T on a C-order V^T against the view V^T, {shape[0]}x{shape[1]}, "
              f"r={r}: {c_order_differences(*shape, r, rng)} entries differ")
    kernels.masked_dense_scatter(forms.flat, dense_resid, forms.D)
    cases = [
        ("grad_U+V add.at (ref)", add_at_grads, (U, V, rows, cols, obs)),
        ("residual segment", kernels.masked_residual, (U, V, rows, cols, obs)),
        ("grad_U segment", kernels.masked_block_grad, (U, V, resid, *forms.by_row)),
        ("grad_V segment", kernels.masked_block_grad, (V, U, resid, *forms.by_col)),
        ("residual dense", kernels.masked_dense_residual,
         (U, V, forms.flat, forms.obs, forms.P)),
        ("residual C-order V^T", c_order_residual,
         (U, V, forms.flat, forms.obs, forms.P)),
        ("scatter dense", kernels.masked_dense_scatter,
         (forms.flat, dense_resid, forms.D)),
        ("grad_U dense", kernels.masked_dense_grad, (U, V, forms.D, 0)),
        ("grad_V dense", kernels.masked_dense_grad, (U, V, forms.D, 1)),
    ]
    print(f"desk size: {n1}x{n2}, r={r}, {len(flat)} observed entries")
    for name, fn, args in cases:
        best = timeit(fn, *args, repeat=100)
        print(f"{name:22s} {best * 1e3:9.3f} ms")


SIZES = (200, 500, 1000, 2000)
DENSITIES = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.1, 0.2)


def density_sweep(r=10):
    """Per block gradient, both forms with buffers, over size x density:
    half the time of one residual and both gradients from it (with one
    scatter in the dense form)."""
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


SUPPORT_SIZES = (0, 1, 5, 10, 20, 50, 75, 100, 150, 200, 250, 300, 350, 400, 500,
                 700, 1000, 2001)


def margins_sweep():
    """Dense A~x against the support product, over |S| at two sizes."""
    rng = np.random.default_rng(2)
    print("\nlogistic margins over the support size |S| of x (one call, "
          "flatnonzero included); 'rule' is the form margins_form picks")
    print(f"{'n':>4s} {'p+1':>5s} {'|S|':>5s} {'dense us':>9s} {'support us':>11s} "
          f"{'faster':>8s} {'rule':>8s}")
    for n, p in ((200, 2000), (100, 2000), (100, 1000), (60, 300)):
        inst = problems.gen_logreg(n=n, p=p, s=5, seed=101)
        A = inst.A_tilde
        AT = A.T  # C-contiguous, as gen_logreg stores it

        def support(x):
            S = np.flatnonzero(x)
            return x[S] @ AT[S]

        dim = p + 1
        support_to = None
        for size in (k for k in SUPPORT_SIZES if k <= dim):
            x = np.zeros(dim)
            x[rng.choice(dim, size, replace=False)] = rng.standard_normal(size)
            dense = A @ x
            assert np.allclose(support(x), dense, rtol=1e-12,
                               atol=1e-12 * max(np.abs(dense).max(), 1.0))
            t_den = timeit(lambda: A @ x, repeat=300)
            t_sup = timeit(support, x, repeat=300)
            faster = "support" if t_sup < t_den else "dense"
            if faster == "support":
                support_to = size
            rule = problems.margins_form(n, dim, size)
            print(f"{n:4d} {dim:5d} {size:5d} {t_den * 1e6:9.1f} {t_sup * 1e6:11.1f} "
                  f"{faster:>8s} {rule:>8s}")
        print(f"{n:4d} {dim:5d} support product last wins at |S| = {support_to}")
    print(f"rule: support when n*(p+1) >= {problems.SUPPORT_MIN_ENTRIES} and "
          f"{problems.SUPPORT_MAX_SHARE}*|S| < p+1")


def post_processing(a=5e-6, m=5, theta=0.5):
    """What `nmdesc diag` does to a desk trace, part by part, with the
    constants of the solver (a = alpha/2, m)."""
    inst = problems.gen_logreg(n=200, p=2000, s=20, seed=101, lam=1.0, mu=1e-3)
    records = cli.solve("pgenls", inst, {"stop_tol": "1e-6", "max_iters": "20000"},
                        seed=101).records

    def analysis(tr):
        h1 = diagnostics.verify_H1(tr, a=a, m=m)
        report = diagnostics.classify_ksets(tr, a=a, theta=theta, m=m)
        return h1, report, diagnostics.condition_partial_sums(tr, report)

    def analysis_ref(recs):
        return verify_H1_ref(recs, a, m), classify_ksets_ref(recs, a, theta, m)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        trace.write_trace_csv(path, records)
        parsed = trace.read_trace_csv(path)
        heads = trace.read_trace_rows(path)[1]
        as_records = list(parsed)
        h1, report, sums = analysis(parsed)
        assert np.array_equal(diagnostics.ell_indices(parsed, m),
                              ell_indices_ref(as_records, m))
        (passed, first, checked), (flags, gaps, _) = analysis_ref(as_records)
        assert (h1.passed, h1.first_violation, h1.checked) == (passed, first, checked)
        got = np.column_stack([report.k1, report.k2, report.k31]).tolist()
        assert got == [list(flags[j]) for j in range(1, len(parsed))]
        assert np.array_equal(report.gaps, gaps)
        print("\ndiag analysis against the per-record reference loops: ok")

        ks = np.arange(1, len(report.gaps) + 1)
        series = {"K1 partial sum": (ks, sums["k1_partial"]),
                  "reference 3000/sqrt(k^2.1)": (ks, sums["reference"])}
        cases = [
            ("write_trace_csv", trace.write_trace_csv, (path, records)),
            ("read_trace_csv", trace.read_trace_csv, (path,)),
            ("read_trace_rows", trace.read_trace_rows, (path,)),
            ("write_flagged_csv", trace.write_flagged_csv,
             (os.path.join(tmp, "ksets.csv"), heads, parsed)),
            ("ell_indices", diagnostics.ell_indices, (parsed, m)),
            ("ell_indices (ref)", ell_indices_ref, (as_records, m)),
            ("verify_H1", diagnostics.verify_H1, (parsed, a, m)),
            ("verify_H1 (ref)", verify_H1_ref, (as_records, a, m)),
            ("classify_ksets", diagnostics.classify_ksets, (parsed, a, theta, m)),
            ("classify_ksets (ref)", classify_ksets_ref, (as_records, a, theta, m)),
            ("diag analysis", analysis, (parsed,)),
            ("diag analysis (ref)", analysis_ref, (as_records,)),
            ("line_plot_svg", svgplot.line_plot_svg, (series,)),
        ]
        print(f"desk trace: {len(records)} rows, a={a:g}, m={m}, theta={theta:g}")
        for name, fn, args in cases:
            best = timeit(fn, *args, repeat=30)
            print(f"{name:22s} {best * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
