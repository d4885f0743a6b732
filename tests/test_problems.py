"""Instance generators, evaluation surfaces, and serialization."""

import math

import tracemalloc

import numpy as np
import pytest

from testkit import add_at_grads, objective
from nmdesc import kernels, problems
from nmdesc.linalg import RngStream
from nmdesc.problems import (
    McInstance,
    gen_logreg,
    gen_mc,
    load_instance,
    logreg_problem,
    logreg_value_grad,
    margins_form,
    mc_oracle_form,
    mc_problem,
    mc_row_marginals,
    save_instance,
    sparsity_metrics,
)


class TestGenLogreg:
    def test_basic_shape_and_labels(self):
        inst = gen_logreg(n=40, p=60, s=5, seed=3)
        assert inst.A_tilde.shape == (40, 61)
        assert np.array_equal(inst.A_tilde[:, -1], np.ones(40))
        assert set(np.unique(inst.b)) <= {-1.0, 1.0}
        assert 0.0 < inst.eps < 1.0

    def test_planted_support_exact(self):
        inst = gen_logreg(n=10, p=50, s=7, seed=11)
        assert np.count_nonzero(inst.x_hat) == 7
        assert np.array_equal(np.sort(np.nonzero(inst.x_hat)[0]),
                              inst.support)

    def test_seed_determinism(self):
        a = gen_logreg(n=15, p=20, s=4, seed=5)
        b = gen_logreg(n=15, p=20, s=4, seed=5)
        c = gen_logreg(n=15, p=20, s=4, seed=6)
        assert np.array_equal(a.A_tilde, b.A_tilde)
        assert np.array_equal(a.b, b.b)
        assert not np.array_equal(a.A_tilde, c.A_tilde)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_logreg(n=5, p=3, s=4, seed=0)

    def test_design_is_transpose_backed(self, tmp_path):
        # A_tilde is the transpose view of a C-contiguous (p+1) x n array,
        # equal to [A, 1] built with hstack, from the generator and the loader
        n, p = 15, 20
        inst = gen_logreg(n=n, p=p, s=4, seed=5)
        A = RngStream(5).standard_normal((n, p))  # the generator's first draw
        reference = np.hstack([A, np.ones((n, 1))])
        path = str(tmp_path / "inst.txt")
        save_instance(path, inst)
        for got in (inst.A_tilde, load_instance(path).A_tilde):
            assert got.T.flags.c_contiguous and got.T.shape == (p + 1, n)
            assert np.array_equal(got, reference)


class TestLogRegSurface:
    def test_value_and_grad_at_zero(self):
        inst = gen_logreg(n=12, p=8, s=2, seed=1, mu=0.0)
        x = np.zeros(9)
        value, grad = logreg_value_grad(x, inst)
        assert value == pytest.approx(12 * math.log(2.0), rel=1e-14)
        expected = inst.A_tilde.T @ (-inst.b / 2.0)
        assert np.allclose(grad(), expected, rtol=1e-14)

    def test_gradient_matches_finite_differences(self):
        inst = gen_logreg(n=20, p=10, s=3, seed=7, mu=1e-3)
        rng = RngStream(2)
        x = rng.standard_normal(11)
        grad = logreg_value_grad(x, inst)[1]()
        h = 1e-6
        for i in range(11):
            e = np.zeros(11)
            e[i] = h
            fd = (logreg_value_grad(x + e, inst)[0]
                  - logreg_value_grad(x - e, inst)[0]) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_overflow_safe_at_huge_margins(self):
        inst = gen_logreg(n=10, p=5, s=2, seed=4)
        for scale in (1e3, -1e3):
            x = np.full(6, scale)
            value, grad = logreg_value_grad(x, inst)
            assert math.isfinite(value)
            assert np.all(np.isfinite(grad()))

    def test_problem_lipschitz_and_intercept_skip(self):
        inst = gen_logreg(n=10, p=6, s=2, seed=9, lam=100.0, mu=1e-8)
        prob = logreg_problem(inst)
        norm_A = np.linalg.norm(inst.A_tilde, 2)
        assert prob.lipschitz == pytest.approx(0.25 * norm_A**2 + 1e-8,
                                               rel=1e-12)
        # huge penalty zeroes the features but never the intercept
        v = np.ones(7)
        out = prob.g.prox(v, tau=1.0)
        assert np.array_equal(out[:-1], np.zeros(6))
        assert out[-1] == 1.0

    @pytest.mark.parametrize("n, p", [(200, 2000), (40, 10)])
    def test_exact_norm_and_lipschitz(self, n, p):
        # both sides of the Gram choice: wide (n < p+1) and tall designs
        inst = gen_logreg(n=n, p=p, s=3, seed=101, lam=1.0, mu=1e-3)
        prob = logreg_problem(inst)
        norm = np.linalg.norm(inst.A_tilde, 2)
        assert prob.operator_norm == pytest.approx(norm, rel=1e-13)
        assert prob.lipschitz == pytest.approx(0.25 * norm**2 + 1e-3, rel=1e-13)

    def test_smooth_with_given_margins(self):
        inst = gen_logreg(n=20, p=10, s=3, seed=7, mu=1e-3)
        prob = logreg_problem(inst)
        x = RngStream(3).standard_normal(11)
        value, grad, z = prob.smooth(x)
        assert np.array_equal(z, inst.A_tilde @ x)
        ref_value, ref_grad = logreg_value_grad(x, inst)
        assert value == ref_value and np.array_equal(grad(), ref_grad())
        # given margins are used as they are, not recomputed
        v2, g2, z2 = prob.smooth(np.zeros(11), z)
        assert z2 is z
        loss, _ = kernels.logistic_loss_terms(z, inst.b)
        assert v2 == float(np.sum(loss))

    def test_support_margins_match_dense_on_both_sides_of_the_rule(self):
        inst = gen_logreg(n=200, p=2000, s=20, seed=101, lam=1.0, mu=1e-3)
        prob = logreg_problem(inst)
        dim = inst.p + 1
        edge = (dim - 1) // 8  # the largest support the rule takes sparse
        rng = RngStream(4)
        forms = set()
        for size in (0, 1, 20, edge, edge + 1, 1000, dim):
            x = np.zeros(dim)
            x[rng.choice_subset(dim, size)] = rng.standard_normal(size)
            forms.add(margins_form(inst.n, dim, size))
            _, _, z = prob.smooth(x)
            dense = inst.A_tilde @ x
            assert np.linalg.norm(z - dense) <= 1e-12 * max(np.linalg.norm(dense), 1e-300)
        assert margins_form(inst.n, dim, edge) == "support"
        assert margins_form(inst.n, dim, edge + 1) == "dense"
        assert forms == {"support", "dense"}
        # too small for the support product: dense at any support
        assert margins_form(60, 301, 0) == "dense"

    def test_problem_allocates_no_design_copy(self):
        inst = gen_logreg(n=200, p=2000, s=20, seed=101, lam=1.0, mu=1e-3)
        tracemalloc.start()
        try:
            prob = logreg_problem(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no n x (p+1) array (3.2 MB); the 200 x 200 Gram matrix is 0.32 MB
        assert peak < 200 * 2001 * 8 / 4
        assert prob.operator_norm > 0.0

    def test_coercive_along_rays(self):
        inst = gen_logreg(n=10, p=6, s=2, seed=13, mu=1e-2)
        prob = logreg_problem(inst)
        d = RngStream(1).standard_normal(7)
        vals = [objective(prob, t * d) for t in (10.0, 100.0, 1000.0)]
        assert vals[0] < vals[1] < vals[2]


class TestRowMarginals:
    def test_normalized_and_banded(self):
        p = mc_row_marginals(100)
        assert p.sum() == pytest.approx(1.0)
        base = p[49]            # index 50: baseline band
        assert p[4] == pytest.approx(2.0 * base)    # index 5 in [1, 10]
        assert p[14] == pytest.approx(4.0 * base)   # index 15 in (10, 20]
        assert p[9] == pytest.approx(4.0 * base)    # boundary takes 4x

    def test_empirical_frequencies(self):
        p = mc_row_marginals(20)
        rng = RngStream(0)
        draws = rng.multinomial_indices(p, 100000)
        freq = np.bincount(draws, minlength=20) / 100000.0
        se = np.sqrt(p * (1.0 - p) / 100000.0)
        assert np.all(np.abs(freq - p) <= 3.5 * se)


class TestGenMc:
    def test_noiseless_observations_exact(self):
        inst = gen_mc(n1=12, n2=10, r_star=2, num_samples=40, sigma=0.0,
                      seed=5)
        truth = np.einsum("ij,ij->i", inst.U_star[inst.rows],
                          inst.V_star[inst.cols])
        assert np.array_equal(inst.obs, truth)
        assert inst.r == 4

    def test_dedup_and_determinism(self):
        a = gen_mc(n1=8, n2=8, r_star=2, num_samples=60, sigma=0.1, seed=2)
        b = gen_mc(n1=8, n2=8, r_star=2, num_samples=60, sigma=0.1, seed=2)
        assert a.num_obs <= 60
        assert len(set(zip(a.rows.tolist(), a.cols.tolist()))) == a.num_obs
        assert np.array_equal(a.obs, b.obs)

    def test_relative_noise_scale(self):
        inst = gen_mc(n1=30, n2=30, r_star=3, num_samples=300, sigma=0.2,
                      seed=8)
        truth = np.einsum("ij,ij->i", inst.U_star[inst.rows],
                          inst.V_star[inst.cols])
        noise = inst.obs - truth
        assert np.linalg.norm(noise) == pytest.approx(
            0.2 * np.linalg.norm(truth), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_mc(n1=4, n2=4, r_star=5, num_samples=10, sigma=0.1, seed=0)

    @pytest.mark.parametrize("size", [
        {"n1": 0}, {"n2": 0}, {"r_star": 0}, {"r": 0}, {"num_samples": 0},
        {"num_samples": -3}, {"r": -1},
    ])
    def test_sizes_below_one_rejected(self, size):
        params = dict(n1=4, n2=4, r_star=2, num_samples=10, sigma=0.1, seed=0)
        with pytest.raises(ValueError):
            gen_mc(**{**params, **size})


def one_of_each_form(n1, n2, dense_draws, segment_draws, seed, r):
    """Two instances of one size with r_star 2, from draw counts on either
    side of the rule's ratio: the first takes the dense form, the second
    the sorted-segment form."""
    out = []
    for draws, form in ((dense_draws, "dense"), (segment_draws, "segment")):
        inst = gen_mc(n1=n1, n2=n2, r_star=2, num_samples=draws, sigma=0.1,
                      seed=seed, r=r)
        assert mc_oracle_form(n1, n2, inst.num_obs) == form
        out.append(inst)
    return out


def random_factors(inst, seed):
    rng = RngStream(seed)
    U = rng.standard_normal(inst.n1 * inst.r).reshape(inst.n1, inst.r)
    V = rng.standard_normal(inst.n2 * inst.r).reshape(inst.n2, inst.r)
    return U, V


def evaluate(prob, U, V):
    """(H, grad_x, grad_y) at (U, V) from one coupling evaluation."""
    h, gx, gy = prob.coupling(U, V)
    return h, gx(), gy()


def both_forms(monkeypatch):
    """Yields "dense", then "segment" while the rule's ratio is 0, so that
    `mc_problem` builds the dense form where the rule picks it and then the
    sorted-segment form on the same instance."""
    yield "dense"
    with monkeypatch.context() as patch:
        patch.setattr(problems, "DENSE_MAX_RATIO", 0)
        yield "segment"


class TestMcSurface:
    def test_zero_residual_at_planted_factors(self, monkeypatch):
        inst = gen_mc(n1=10, n2=9, r_star=2, num_samples=30, sigma=0.0,
                      seed=3, r=2)
        for form in both_forms(monkeypatch):
            assert mc_oracle_form(10, 9, inst.num_obs) == form
            h, gU, gV = evaluate(mc_problem(inst), inst.U_star, inst.V_star)
            assert h == pytest.approx(0.0, abs=1e-24)
            assert np.allclose(gU, 0.0, atol=1e-12)
            assert np.allclose(gV, 0.0, atol=1e-12)

    def test_full_mask_matches_dense_formulas(self, monkeypatch):
        inst = gen_mc(n1=4, n2=3, r_star=1, num_samples=6, sigma=0.0, seed=6)
        rows, cols = np.divmod(np.arange(12), 3)
        M = np.arange(12, dtype=np.float64).reshape(4, 3)
        full = inst.__class__(
            n1=4, n2=3, r_star=1, r=2, rows=rows, cols=cols,
            obs=M.ravel(), sigma=0.0, lam=1.0, mu=1e-10,
            U_star=inst.U_star, V_star=inst.V_star, seed=6,
            samples_requested=12,
        )
        rng = RngStream(4)
        U = rng.standard_normal(8).reshape(4, 2)
        V = rng.standard_normal(6).reshape(3, 2)
        R = U @ V.T - M
        for form in both_forms(monkeypatch):
            assert mc_oracle_form(4, 3, 12) == form
            prob = mc_problem(full)
            h, gU, gV = evaluate(prob, U, V)
            assert h == pytest.approx(0.5 * np.sum(R * R), rel=1e-12)
            assert np.allclose(gU, R @ V, rtol=1e-12)
            assert np.allclose(gV, R.T @ U, rtol=1e-12)
        assert prob.L1(V) == pytest.approx(np.linalg.norm(V, 2) ** 2, rel=1e-12)
        assert prob.L2(U) == pytest.approx(np.linalg.norm(U, 2) ** 2, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        # every partial derivative of the coupling the solvers call, in
        # both forms
        for inst in one_of_each_form(24, 20, 40, 20, seed=9, r=2):
            prob = mc_problem(inst)
            U, V = random_factors(inst, 7)
            _, gU, gV = evaluate(prob, U, V)
            h = 1e-6
            for X, g, shift in ((U, gU, lambda E: (U + E, V, U - E, V)),
                                (V, gV, lambda E: (U, V + E, U, V - E))):
                for idx in np.ndindex(X.shape):
                    E = np.zeros(X.shape)
                    E[idx] = h
                    Up, Vp, Um, Vm = shift(E)
                    hp, hm = prob.coupling(Up, Vp)[0], prob.coupling(Um, Vm)[0]
                    fd = (hp - hm) / (2.0 * h)
                    assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_problem_oracle_matches_joint_evaluation(self):
        # 45 and 20 draws on 30 x 25: some rows and columns go unobserved
        for inst in one_of_each_form(30, 25, 45, 20, seed=8, r=3):
            assert len(np.unique(inst.rows)) < 30 and len(np.unique(inst.cols)) < 25
            prob = mc_problem(inst)
            U, V = random_factors(inst, 11)
            gU, gV = add_at_grads(U, V, inst.rows, inst.cols, inst.obs)
            resid = np.einsum("ij,ij->i", U[inst.rows], V[inst.cols]) - inst.obs
            h, gU_got, gV_got = evaluate(prob, U, V)
            assert h == pytest.approx(0.5 * float(resid @ resid), rel=1e-13)
            assert np.allclose(gU_got, gU, rtol=1e-12, atol=0.0)
            assert np.allclose(gV_got, gV, rtol=1e-12, atol=0.0)

    def test_block_moduli_exact_on_near_equal_singular_values(self):
        rng = np.random.default_rng(5)
        Q1, _ = np.linalg.qr(rng.standard_normal((50, 4)))
        Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        V = Q1 @ np.diag([3.0, 3.0 - 1e-4, 1.0, 0.5]) @ Q2.T
        prob = mc_problem(gen_mc(n1=8, n2=50, r_star=2, num_samples=30,
                                 sigma=0.1, seed=1, r=4))
        assert prob.L1(V) == pytest.approx(np.linalg.norm(V, 2) ** 2, rel=1e-12)
        assert prob.L2(V) == pytest.approx(np.linalg.norm(V, 2) ** 2, rel=1e-12)
        assert prob.L1(np.zeros((50, 4))) == 0.0

    def test_block_modulus_property(self, monkeypatch):
        # the U-block gradient is Lipschitz with modulus sigma_max(V)^2
        inst = gen_mc(n1=8, n2=7, r_star=2, num_samples=30, sigma=0.1,
                      seed=12, r=3)
        for form in both_forms(monkeypatch):
            assert mc_oracle_form(8, 7, inst.num_obs) == form
            prob = mc_problem(inst)
            rng = RngStream(3)
            V = rng.standard_normal(21).reshape(7, 3)
            L1 = prob.L1(V)
            for _ in range(20):
                U1 = rng.standard_normal(24).reshape(8, 3)
                U2 = rng.standard_normal(24).reshape(8, 3)
                diff = np.linalg.norm(evaluate(prob, U1, V)[1] - evaluate(prob, U2, V)[1])
                assert diff <= L1 * np.linalg.norm(U1 - U2) * (1.0 + 1e-9)


class TestOracleForm:
    def test_rule_on_benchmark_and_sparse_instances(self):
        desk = gen_mc(n1=200, n2=200, r_star=5, num_samples=8000, sigma=0.1, seed=1)
        batch = gen_mc(n1=40, n2=40, r_star=2, num_samples=600, sigma=0.1, seed=0)
        assert desk.num_obs == 6715
        assert mc_oracle_form(200, 200, desk.num_obs) == "dense"
        assert mc_oracle_form(40, 40, batch.num_obs) == "dense"
        # 2 % observed: too sparse; 1e4 x 1e4 at 10 %: buffers of 800 MB
        assert mc_oracle_form(1000, 1000, 20000) == "segment"
        assert mc_oracle_form(10**4, 10**4, 10**7) == "segment"
        assert mc_oracle_form(2000, 2000, 200000) == "dense"
        assert mc_oracle_form(2100, 2100, 300000) == "segment"

    @staticmethod
    def flat_instance(n, num_obs, seed=0):
        rng = np.random.default_rng(seed)
        rows, cols = np.divmod(rng.choice(n * n, num_obs, replace=False), n)
        return McInstance(
            n1=n, n2=n, r_star=1, r=2, rows=rows, cols=cols,
            obs=rng.standard_normal(num_obs), sigma=0.0, lam=1.0, mu=1e-10,
            U_star=np.zeros((n, 1)), V_star=np.zeros((n, 1)), seed=seed,
            samples_requested=num_obs,
        )

    @staticmethod
    def build_peak(inst):
        tracemalloc.start()
        try:
            mc_problem(inst)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_segment_form_allocates_no_buffer(self):
        buffer = 1000 * 1000 * 8
        sparse = self.flat_instance(1000, 20000)
        assert mc_oracle_form(1000, 1000, sparse.num_obs) == "segment"
        assert self.build_peak(sparse) < buffer / 4
        # the dense form's two buffers show in the same measurement
        dense = self.flat_instance(400, 20000)
        assert mc_oracle_form(400, 400, dense.num_obs) == "dense"
        assert self.build_peak(dense) >= 2 * 400 * 400 * 8

    def test_interleaved_problems_match_fresh_ones(self):
        # two problems on one instance, each with its own buffers, called in
        # turn at different points, return what a fresh problem returns
        inst = gen_mc(n1=40, n2=40, r_star=2, num_samples=600, sigma=0.1, seed=0)
        points = [random_factors(inst, s) for s in range(4)]
        a, b = mc_problem(inst), mc_problem(inst)
        for _ in range(2):
            for i, (U, V) in enumerate(points):
                prob = a if i % 2 else b
                got = evaluate(prob, U, V)
                want = evaluate(mc_problem(inst), U, V)
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1])
                assert np.array_equal(got[2], want[2])

    def test_gradients_of_an_earlier_evaluation_survive_later_ones(self):
        # the dense form's P and D buffers are overwritten by every
        # evaluation; a gradient asked of an earlier one is still its own
        inst = gen_mc(n1=40, n2=40, r_star=2, num_samples=600, sigma=0.1, seed=0)
        assert mc_oracle_form(40, 40, inst.num_obs) == "dense"
        prob = mc_problem(inst)
        points = [random_factors(inst, s) for s in range(3)]
        held = [prob.coupling(U, V) for U, V in points]
        for U, V in points:  # later evaluations through the same buffers
            evaluate(prob, 2.0 * U, V)
        for (h, gx, gy), (U, V) in zip(reversed(held), reversed(points)):
            want = evaluate(mc_problem(inst), U, V)
            assert h == want[0]
            assert np.array_equal(gy(), want[2])
            assert np.array_equal(gx(), want[1])

    def test_interleaved_gradient_requests_match_fresh_evaluations(self, monkeypatch):
        # the dense form scatters an evaluation's residual into D once, for
        # the first gradient asked of it, and again only when D holds
        # another evaluation's residual: grad_x at A, grad_y at B, grad_y
        # at A and grad_x at A take three scatters
        inst = gen_mc(n1=40, n2=40, r_star=2, num_samples=600, sigma=0.1, seed=0)
        assert mc_oracle_form(40, 40, inst.num_obs) == "dense"
        scatters = []
        scatter = kernels.masked_dense_scatter
        monkeypatch.setattr(kernels, "masked_dense_scatter",
                            lambda *args: scatters.append(1) or scatter(*args))
        prob = mc_problem(inst)
        A, B = random_factors(inst, 1), random_factors(inst, 2)
        at_a, at_b = prob.coupling(*A), prob.coupling(*B)
        got = [at_a[1](), at_b[2](), at_a[2](), at_a[1]()]
        assert len(scatters) == 3
        want = [evaluate(mc_problem(inst), *point)[block]
                for point, block in ((A, 1), (B, 2), (A, 2), (A, 1))]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestSparsityMetrics:
    def test_vector_support_with_skip(self):
        x = np.array([1.0, 0.0, -2.0, 3.0])
        assert sparsity_metrics(x=x) == {"support": 3}
        assert sparsity_metrics(x=x, skip_indices=(3,)) == {"support": 2}

    def test_factor_column_counts(self):
        U = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        V = np.zeros((4, 3))
        out = sparsity_metrics(factors=(U, V))
        assert out == {"cols_U": 2, "cols_V": 0}

    def test_recount_oracle(self):
        rng = RngStream(5)
        U = rng.standard_normal(12).reshape(4, 3)
        U[:, 1] = 0.0
        out = sparsity_metrics(factors=(U, U))
        brute = sum(1 for j in range(3) if np.any(U[:, j] != 0.0))
        assert out["cols_U"] == brute


class TestSerialization:
    def test_logreg_round_trip(self, tmp_path):
        inst = gen_logreg(n=9, p=7, s=3, seed=21, lam=0.3, mu=1e-9)
        path = str(tmp_path / "inst.txt")
        save_instance(path, inst)
        back = load_instance(path)
        assert np.array_equal(back.A_tilde, inst.A_tilde)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.x_hat, inst.x_hat)
        assert np.array_equal(back.support, inst.support)
        assert (back.lam, back.mu, back.seed, back.eps) == \
            (inst.lam, inst.mu, inst.seed, inst.eps)

    def test_mc_round_trip(self, tmp_path):
        inst = gen_mc(n1=6, n2=5, r_star=2, num_samples=15, sigma=0.05,
                      seed=17, lam=2.0)
        path = str(tmp_path / "inst.txt")
        save_instance(path, inst)
        back = load_instance(path)
        assert np.array_equal(back.obs, inst.obs)
        assert np.array_equal(back.rows, inst.rows)
        assert np.array_equal(back.cols, inst.cols)
        assert np.array_equal(back.U_star, inst.U_star)
        assert back.r == inst.r and back.sigma == inst.sigma

    def test_mc_rank_below_one_rejected(self, tmp_path):
        inst = gen_mc(n1=6, n2=5, r_star=2, num_samples=15, sigma=0.05, seed=17)
        path = tmp_path / "inst.txt"
        save_instance(str(path), inst)
        header, rest = path.read_text().split("\n", 1)
        path.write_text(header.replace(f"r={inst.r}", "r=0") + "\n" + rest)
        with pytest.raises(ValueError, match="r >= 1"):
            load_instance(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mystery n=1\n")
        with pytest.raises(ValueError):
            load_instance(str(path))
