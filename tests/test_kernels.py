"""Compiled kernels agree with the numpy reference implementations."""

import numpy as np
import pytest

from conftest import add_at_grads
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
    ref = kernels._masked_residual_np(U, V, rows, cols, obs)
    out = kernels.masked_residual(U, V, rows, cols, obs)
    assert np.allclose(out, ref, rtol=1e-13, atol=1e-15)


def test_active_backend_matches_reference_grads():
    # repeated draws included: the segment form sums them as the reference does
    U, V, rows, cols, obs = random_mc_inputs(seed=1)
    gU_ref, gV_ref = add_at_grads(U, V, rows, cols, obs)
    gU = kernels.masked_block_grad(U, V, *kernels.block_index(rows, cols, obs))
    gV = kernels.masked_block_grad(V, U, *kernels.block_index(cols, rows, obs))
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
    """Both block gradients in the dense form, with fresh buffers unless a
    residual buffer D is passed."""
    P = np.empty((U.shape[0], V.shape[0]))
    D = np.zeros_like(P) if D is None else D
    flat = rows * V.shape[0] + cols
    return (kernels.masked_dense_grad(U, V, flat, obs, P, D, 0),
            kernels.masked_dense_grad(U, V, flat, obs, P, D, 1))


@pytest.mark.parametrize("seed", range(5))
def test_block_grads_match_reference_with_unobserved_rows(seed):
    U, V, rows, cols, obs = sparse_mask_inputs(seed)
    gU_ref, gV_ref = add_at_grads(U, V, rows, cols, obs)
    segment = (kernels.masked_block_grad(U, V, *kernels.block_index(rows, cols, obs)),
               kernels.masked_block_grad(V, U, *kernels.block_index(cols, rows, obs)))
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
    U, V, rows, cols, obs = sparse_mask_inputs(3)
    P = np.empty((U.shape[0], V.shape[0]))
    r = kernels.masked_dense_residual(U, V, rows * V.shape[0] + cols, obs, P)
    ref = kernels._masked_residual_np(U, V, rows, cols, obs)
    assert np.allclose(r, ref, rtol=1e-13, atol=1e-15)
    assert np.array_equal(P, U @ V.T)


def test_block_index_segments():
    own = np.array([3, 0, 3, 1, 0, 3])
    other = np.arange(6)
    obs = np.arange(6) * 10.0
    own_s, other_s, obs_s, starts, ids = kernels.block_index(own, other, obs)
    assert own_s.tolist() == [0, 0, 1, 3, 3, 3]
    assert other_s.tolist() == [1, 4, 3, 0, 2, 5]  # stable within a segment
    assert obs_s.tolist() == [10.0, 40.0, 30.0, 0.0, 20.0, 50.0]
    assert starts.tolist() == [0, 2, 3]
    assert ids.tolist() == [0, 1, 3]


def test_logistic_saturated_margins_do_not_warn():
    import warnings

    z = np.array([-1e4, -800.0, 0.0, 800.0, 1e4])
    b = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, w = kernels._logistic_loss_terms_np(z, b)
    assert np.all(np.isfinite(loss)) and np.all(np.isfinite(w))
    assert loss[0] == 1e4 and w[1] == 0.0


def test_active_backend_matches_reference_logistic():
    rng = RngStream(2)
    z = 50.0 * rng.standard_normal(200)  # include saturated margins
    b = np.where(rng.standard_normal(200) >= 0.0, 1.0, -1.0)
    loss_ref, w_ref = kernels._logistic_loss_terms_np(z, b)
    loss, w = kernels.logistic_loss_terms(z, b)
    assert np.allclose(loss, loss_ref, rtol=1e-13, atol=1e-300)
    assert np.allclose(w, w_ref, rtol=1e-13, atol=1e-300)
    assert np.all(np.isfinite(loss)) and np.all(np.isfinite(w))


@pytest.mark.skipif(not kernels.USE_NUMBA, reason="numba backend disabled")
def test_compiled_functions_are_bound():
    assert kernels.masked_residual is kernels._masked_residual_nb
    assert kernels.masked_block_grad is kernels._masked_block_grad_nb
    assert kernels.logistic_loss_terms is kernels._logistic_loss_terms_nb


def test_numpy_fallback_env_flag(tmp_path):
    import os
    import subprocess
    import sys

    import nmdesc

    code = (
        "import nmdesc.kernels as k\n"
        "assert not k.USE_NUMBA\n"
        "assert k.masked_residual is k._masked_residual_np\n"
        "assert k.masked_block_grad is k._masked_block_grad_np\n"
    )
    # the directory that holds the nmdesc imported here, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(nmdesc.__file__)))
    env = {"NMDESC_NO_NUMBA": "1", "PATH": "/usr/bin:/bin", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
