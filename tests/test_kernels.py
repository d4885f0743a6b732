"""The numeric kernels agree with independent references."""

import math

import numpy as np
import pytest

from testkit import add_at_grads
from nmdesc import kernels
from nmdesc.linalg import RngStream


def random_mc_inputs(seed=0, n1=17, n2=13, r=3, p=60):
    rng = RngStream(seed)
    U = rng.standard_normal(n1 * r).reshape(n1, r)
    V = rng.standard_normal(n2 * r).reshape(n2, r)
    rows = np.array([int(x * n1) % n1 for x in rng.uniform(0.0, 1.0, p)],
                    dtype=np.int64)
    cols = np.array([int(x * n2) % n2 for x in rng.uniform(0.0, 1.0, p)],
                    dtype=np.int64)
    obs = rng.standard_normal(p)
    return U, V, rows, cols, obs


def test_active_backend_matches_reference_residual():
    U, V, rows, cols, obs = random_mc_inputs()
    ref = (U @ V.T)[rows, cols] - obs
    out = kernels.masked_residual(U, V, rows, cols, obs)
    assert np.allclose(out, ref, rtol=1e-13, atol=1e-15)


def segment_grads(U, V, rows, cols, obs):
    """Both block gradients in the sorted-segment form, from one residual."""
    resid = kernels.masked_residual(U, V, rows, cols, obs)
    return (kernels.masked_block_grad(U, V, resid, *kernels.block_index(rows, cols)),
            kernels.masked_block_grad(V, U, resid, *kernels.block_index(cols, rows)))


def test_active_backend_matches_reference_grads():
    # repeated draws included: the segment form sums them as the reference does
    U, V, rows, cols, obs = random_mc_inputs(seed=1)
    gU_ref, gV_ref = add_at_grads(U, V, rows, cols, obs)
    gU, gV = segment_grads(U, V, rows, cols, obs)
    assert np.allclose(gU, gU_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(gV, gV_ref, rtol=1e-13, atol=1e-15)


def sparse_mask_inputs(seed, n1=30, n2=25, r=4, p=120):
    """Distinct observations from the first two thirds of the rows and
    columns only, so the rest of each factor is unobserved."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n1, r))
    V = rng.standard_normal((n2, r))
    flat = rng.choice((2 * n1 // 3) * (2 * n2 // 3), p, replace=False)
    rows, cols = np.divmod(flat, 2 * n2 // 3)
    obs = rng.standard_normal(p)
    return U, V, rows, cols, obs


def dense_grads(U, V, rows, cols, obs, D=None):
    """Both block gradients in the dense form, from one residual, with fresh
    buffers unless a residual buffer D is passed."""
    P = np.empty((U.shape[0], V.shape[0]))
    D = np.zeros_like(P) if D is None else D
    flat = rows * V.shape[0] + cols
    resid = kernels.masked_dense_residual(U, V, flat, obs, P)
    kernels.masked_dense_scatter(flat, resid, D)
    return kernels.masked_dense_grad(U, V, D, 0), kernels.masked_dense_grad(U, V, D, 1)


@pytest.mark.parametrize("seed", range(5))
def test_block_grads_match_reference_with_unobserved_rows(seed):
    U, V, rows, cols, obs = sparse_mask_inputs(seed)
    gU_ref, gV_ref = add_at_grads(U, V, rows, cols, obs)
    segment = segment_grads(U, V, rows, cols, obs)
    unobserved_rows = np.setdiff1d(np.arange(U.shape[0]), rows)
    unobserved_cols = np.setdiff1d(np.arange(V.shape[0]), cols)
    assert len(unobserved_rows) > 0 and len(unobserved_cols) > 0
    for gU, gV in (segment, dense_grads(U, V, rows, cols, obs)):
        assert np.allclose(gU, gU_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(gV, gV_ref, rtol=1e-12, atol=0.0)
        assert np.all(gU[unobserved_rows] == 0.0)
        assert np.all(gV[unobserved_cols] == 0.0)


def test_dense_residual_buffer_stays_zero_off_omega():
    U, V, rows, cols, obs = sparse_mask_inputs(7)
    D = np.zeros((U.shape[0], V.shape[0]))
    off = np.ones(D.shape, dtype=bool)
    off[rows, cols] = False
    first = dense_grads(U, V, rows, cols, obs, D)
    for scale in (2.0, -0.5):  # other points through the same buffer
        dense_grads(scale * U, V, rows, cols, obs, D)
        assert np.all(D[off] == 0.0)
    again = dense_grads(U, V, rows, cols, obs, D)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_dense_residual_matches_gather():
    # the residual is taken from the bits of the product on a C-order copy
    # of V^T (not always those of the view product U @ V.T), for r = 1 and
    # r = 10 on square and non-square shapes too
    cases = [(3, 30, 25, 4, 120)] + [
        (r, n1, n2, r, n1 * n2 // 6)
        for r in (1, 10) for n1, n2 in ((200, 200), (120, 230), (230, 120))
    ]
    for seed, n1, n2, r, p in cases:
        U, V, rows, cols, obs = sparse_mask_inputs(seed, n1, n2, r, p)
        P = np.empty((n1, n2))
        resid = kernels.masked_dense_residual(U, V, rows * n2 + cols, obs, P)
        ref = kernels.masked_residual(U, V, rows, cols, obs)
        assert np.allclose(resid, ref, rtol=1e-13, atol=1e-15)
        product = U @ np.ascontiguousarray(V.T)
        assert np.array_equal(P, product)
        assert np.array_equal(resid, product[rows, cols] - obs)


def test_block_index_segments():
    own = np.array([3, 0, 3, 1, 0, 3])
    other = np.arange(6) * 10
    order, other_s, starts, ids = kernels.block_index(own, other)
    assert order.tolist() == [1, 4, 3, 0, 2, 5]  # stable within a segment
    assert own[order].tolist() == [0, 0, 1, 3, 3, 3]
    assert other_s.tolist() == [10, 40, 30, 0, 20, 50]
    assert starts.tolist() == [0, 2, 3]
    assert ids.tolist() == [0, 1, 3]


def logistic_terms(z, b):
    """(loss, w) at margins z, formed as the logistic oracle forms them: the
    weights from the t = -b*z of the loss terms."""
    loss, t = kernels.logistic_loss_terms(z, b)
    assert np.array_equal(t, -b * z)
    return loss, kernels.logistic_weights(-t, b)


def test_logistic_saturated_margins_do_not_warn():
    import warnings

    z = np.array([-1e4, -800.0, 0.0, 800.0, 1e4])
    b = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, w = logistic_terms(z, b)
    assert np.all(np.isfinite(loss)) and np.all(np.isfinite(w))
    assert loss[0] == 1e4 and w[1] == 0.0


def test_active_backend_matches_reference_logistic():
    rng = RngStream(2)
    z = 50.0 * rng.standard_normal(200)
    z[:4] = [-1e4, -800.0, 800.0, 1e4]  # saturated margins
    b = np.where(rng.standard_normal(200) >= 0.0, 1.0, -1.0)
    loss_ref = np.logaddexp(0.0, -b * z)
    # w = -b/(1+exp(b*z)) = -b*sigmoid(-b*z), by the overflow-free logistic
    w_ref = -b * np.exp(-np.logaddexp(0.0, b * z))
    loss, w = logistic_terms(z, b)
    assert np.allclose(loss, loss_ref, rtol=1e-13, atol=1e-300)
    assert np.allclose(w, w_ref, rtol=1e-13, atol=1e-300)
    assert np.all(np.isfinite(loss)) and np.all(np.isfinite(w))
    # the weights keep the bits of their defining formula, whose exp
    # overflows on the saturated margins
    with np.errstate(over="ignore"):
        assert np.array_equal(w, -b / (1.0 + np.exp(b * z)))

    # against 50-digit arithmetic, within a few ulp of the correctly rounded
    # values, at the edges of exp's range (709.78: exp(t) near the largest
    # double; 745: exp(-t) below the smallest subnormal) and beyond
    mpmath = pytest.importorskip("mpmath")
    margins = [0.0, 1.0, 30.0, 709.78, 745.0, 1e4]
    z = np.array([sign * m for m in margins for sign in (1.0, -1.0)] * 2)
    b = np.repeat([1.0, -1.0], len(z) // 2)
    loss, w = logistic_terms(z, b)
    with mpmath.workdps(50):
        for zi, bi, loss_i, w_i in zip(z, b, loss, w):
            s = mpmath.mpf(bi) * mpmath.mpf(zi)  # b*z, exact
            loss_ref = float(mpmath.log1p(mpmath.exp(-s)))
            w_ref = float(-mpmath.mpf(bi) / (1 + mpmath.exp(s)))
            assert abs(loss_i - loss_ref) <= 4 * math.ulp(loss_ref), (zi, bi)
            assert abs(w_i - w_ref) <= 4 * math.ulp(w_ref), (zi, bi)


def test_kernel_benchmark_script_imports_and_names_exist():
    # import the script as a module, without running main(), and resolve
    # every nmdesc module attribute it names, so a renamed function fails here
    import ast
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "benchmarks", "bench_kernels.py")
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with open(path) as f:
        tree = ast.parse(f.read())
    modules = ("cli", "diagnostics", "kernels", "problems", "svgplot", "trace")
    named = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert ("kernels", "masked_block_grad") in named
    missing = [f"{m}.{a}" for m, a in sorted(named) if not hasattr(getattr(bench, m), a)]
    assert missing == []
