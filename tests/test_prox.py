"""Proximal mappings against exhaustive support-enumeration oracles.

The oracles come first and are deliberately brute force: they try every
support pattern, solve the restricted quadratic exactly, and return the
best objective. The closed forms must match them.
"""

import itertools

import numpy as np
import pytest

from nmdesc.linalg import RngStream
from nmdesc.prox import ProxSpec, prox_l0, prox_objective, prox_ridge_l20_columns


def oracle_l0(v, tau, lam):
    """Best (objective, point) over all 2^d supports; on a support the
    restricted minimizer of (1/2tau)||z-v||^2 is z = v."""
    d = len(v)
    best_obj, best_z = None, None
    for mask in itertools.product([0, 1], repeat=d):
        z = np.where(np.array(mask, dtype=bool), v, 0.0)
        obj = float(np.sum((z - v) ** 2)) / (2.0 * tau) + lam * sum(mask)
        if best_obj is None or obj < best_obj - 0.0:
            best_obj, best_z = obj, z
    return best_obj, best_z


def oracle_ridge_l20(V, tau, lam, mu):
    """Best objective over all column supports; on a kept column the
    restricted minimizer of (1/2tau)||z-c||^2 + (mu/2)||z||^2 is
    z = c/(1+tau*mu)."""
    d = V.shape[1]
    shrink = 1.0 / (1.0 + tau * mu)
    best_obj, best_Z = None, None
    for mask in itertools.product([0, 1], repeat=d):
        Z = V * shrink * np.array(mask, dtype=np.float64)[None, :]
        obj = (
            float(np.sum((Z - V) ** 2)) / (2.0 * tau)
            + 0.5 * mu * float(np.sum(Z * Z))
            + lam * sum(mask)
        )
        if best_obj is None or obj < best_obj:
            best_obj, best_Z = obj, Z
    return best_obj, best_Z


class TestProxL0:
    def test_threshold_example(self):
        spec = ProxSpec(kind="l0_vector", lam=0.5)
        out, value = prox_l0(np.array([2.0, 0.1]), 1.0, spec)
        assert np.array_equal(out, [2.0, 0.0]) and value == 0.5

    def test_lambda_zero_identity(self):
        spec = ProxSpec(kind="l0_vector", lam=0.0)
        v = np.array([0.3, -0.2, 0.0])
        assert np.array_equal(prox_l0(v, 2.0, spec)[0], v)

    def test_tie_keeps_value(self):
        # v^2 == 2*tau*lam exactly
        spec = ProxSpec(kind="l0_vector", lam=0.5)
        v = np.array([1.0])
        assert prox_l0(v, 1.0, spec)[0][0] == 1.0

    def test_value_counts_nonzeros_outside_skip_indices(self):
        rng = RngStream(7)
        for skip in (frozenset(), frozenset([0]), frozenset([4]), frozenset([1, 3])):
            spec = ProxSpec(kind="l0_vector", lam=0.5, skip_indices=skip)
            for _ in range(20):
                x = np.where(rng.uniform(0.0, 1.0, 5) < 0.5, 0.0, 1.0)
                brute = sum(1 for i in range(5) if i not in skip and x[i] != 0.0)
                assert spec.value(x) == 0.5 * brute

    def test_skip_indices_pass_through(self):
        spec = ProxSpec(kind="l0_vector", lam=100.0, skip_indices=frozenset([1]))
        out, value = prox_l0(np.array([0.5, 0.5]), 1.0, spec)
        assert np.array_equal(out, [0.0, 0.5]) and value == 0.0

    def test_matches_enumeration_oracle(self):
        rng = RngStream(101)
        for trial in range(200):
            d = 1 + trial % 12
            v = rng.standard_normal(d)
            tau = float(rng.uniform(0.05, 2.0))
            lam = float(rng.uniform(0.0, 1.0))
            spec = ProxSpec(kind="l0_vector", lam=lam)
            out, _ = prox_l0(v, tau, spec)
            obj = prox_objective(out, v, tau, spec)
            oracle_obj, _ = oracle_l0(v, tau, lam)
            assert obj <= oracle_obj + 1e-12 * max(1.0, abs(oracle_obj))


class TestProxRidgeL20:
    def test_column_threshold_example(self):
        spec = ProxSpec(kind="ridge_l20_columns", lam=0.5, mu=0.0)
        V = np.array([[0.9, 1.1]])
        out, value = prox_ridge_l20_columns(V, 1.0, spec)
        assert np.array_equal(out, [[0.0, 1.1]]) and value == 0.5

    def test_no_regularization_identity(self):
        spec = ProxSpec(kind="ridge_l20_columns", lam=0.0, mu=0.0)
        V = RngStream(1).standard_normal((3, 4))
        assert np.array_equal(prox_ridge_l20_columns(V, 1.5, spec)[0], V)

    def test_tie_keeps_scaled_column(self):
        tau, lam, mu = 1.0, 0.5, 1.0
        norm_sq = 2.0 * lam * tau * (1.0 + tau * mu)  # exact threshold
        c = np.zeros((3, 1))
        c[0, 0] = np.sqrt(norm_sq)
        spec = ProxSpec(kind="ridge_l20_columns", lam=lam, mu=mu)
        out, _ = prox_ridge_l20_columns(c, tau, spec)
        assert out[0, 0] == pytest.approx(c[0, 0] / (1.0 + tau * mu))

    def test_matches_enumeration_oracle(self):
        rng = RngStream(202)
        for trial in range(200):
            rows = 1 + trial % 5
            cols = 1 + trial % 6
            V = rng.standard_normal((rows, cols))
            tau = float(rng.uniform(0.05, 2.0))
            lam = float(rng.uniform(0.0, 1.0))
            mu = float(rng.uniform(0.0, 0.5))
            spec = ProxSpec(kind="ridge_l20_columns", lam=lam, mu=mu)
            out, _ = prox_ridge_l20_columns(V, tau, spec)
            obj = (
                float(np.sum((out - V) ** 2)) / (2.0 * tau) + spec.value(out)
            )
            oracle_obj, _ = oracle_ridge_l20(V, tau, lam, mu)
            assert obj <= oracle_obj + 1e-12 * max(1.0, abs(oracle_obj))


class TestSpecProx:
    def test_each_kind_takes_its_own_prox_bit_for_bit(self):
        rng = RngStream(505)
        l0 = ProxSpec(kind="l0_vector", lam=0.3, skip_indices=frozenset([0, 7]))
        ridge = ProxSpec(kind="ridge_l20_columns", lam=0.3, mu=0.2)
        for _ in range(50):
            tau = float(rng.uniform(0.1, 3.0))
            v = rng.standard_normal(8)
            V = rng.standard_normal((5, 4))
            (z, gz), (z_ref, gz_ref) = l0.prox(v, tau), prox_l0(v, tau, l0)
            assert z.tobytes() == z_ref.tobytes() and gz == gz_ref
            (Z, gZ), (Z_ref, gZ_ref) = ridge.prox(V, tau), prox_ridge_l20_columns(V, tau, ridge)
            assert Z.tobytes() == Z_ref.tobytes() and gZ == gZ_ref
        # a ridge spec shrinks the columns it keeps, where the l0 prox would not
        V = np.array([[1.0, 0.1], [1.0, 0.1]])
        shrunk = 1.0 / 1.2
        assert np.array_equal(ridge.prox(V, 1.0)[0], [[shrunk, 0.0], [shrunk, 0.0]])
        assert np.array_equal(prox_l0(V, 1.0, ridge)[0], [[1.0, 0.0], [1.0, 0.0]])


    @pytest.mark.parametrize("lam, mu", [(0.3, 0.2), (0.3, 0.0), (0.0, 0.2)])
    def test_prox_value_is_the_regularizer_at_the_point(self, lam, mu):
        # the l0 value from the kept count is the value at the point to the
        # bit; the ridge value, from the column sums of the input, agrees
        # with the one from the point's own entries within rounding
        rng = RngStream(606)
        l0 = ProxSpec(kind="l0_vector", lam=lam, skip_indices=frozenset([0, 7]))
        ridge = ProxSpec(kind="ridge_l20_columns", lam=lam, mu=mu)
        for _ in range(50):
            tau = float(rng.uniform(0.1, 3.0))
            z, gz = l0.prox(rng.standard_normal(8), tau)
            assert gz == l0.value(z)
            Z, gZ = ridge.prox(rng.standard_normal((5, 4)), tau)
            assert gZ == pytest.approx(ridge.value(Z), rel=1e-15, abs=0.0)


class TestProperties:
    def test_prox_never_worse_than_input(self):
        rng = RngStream(303)
        for _ in range(100):
            v = rng.standard_normal(6)
            tau = float(rng.uniform(0.1, 3.0))
            lam = float(rng.uniform(0.0, 1.0))
            spec = ProxSpec(kind="l0_vector", lam=lam)
            out, _ = prox_l0(v, tau, spec)
            assert prox_objective(out, v, tau, spec) <= spec.value(v) + 1e-12

    def test_support_monotone_in_lambda(self):
        rng = RngStream(404)
        for _ in range(100):
            v = rng.standard_normal(8)
            tau = float(rng.uniform(0.1, 2.0))
            lams = sorted(rng.uniform(0.0, 2.0, size=2).tolist())
            small, _ = prox_l0(v, tau, ProxSpec(kind="l0_vector", lam=lams[0]))
            large, _ = prox_l0(v, tau, ProxSpec(kind="l0_vector", lam=lams[1]))
            assert np.count_nonzero(large) <= np.count_nonzero(small)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProxSpec(kind="nope", lam=1.0)
        with pytest.raises(ValueError):
            ProxSpec(kind="l0_vector", lam=-1.0)
        with pytest.raises(ValueError):
            prox_l0(np.ones(2), 0.0, ProxSpec(kind="l0_vector", lam=1.0))
