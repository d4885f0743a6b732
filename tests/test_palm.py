"""Two-block line-search solver and the fixed-step baselines."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import trace_csv_string
from nmdesc.linalg import RngStream
from nmdesc.nls import HistoryWindow, accept, window_max
from nmdesc.palm import (
    BlockIterateState,
    PalmConfig,
    backtrack_bound_palm,
    bb_init_tau_blocks,
    h2_constant_palm,
    palm_baseline_run,
    palm_run,
    palm_step,
    safe_beta_bound_palm,
    subgrad_witness_palm,
    variant_config,
)
from nmdesc.pg import nesterov_beta
from nmdesc.problems import BlockProblem, gen_mc, mc_oracle_form, mc_problem


def decoupled_problem():
    """H = 0; both blocks carry quadratic prox-friendly terms 0.5*||.||^2."""
    return BlockProblem(
        f_value=lambda x: 0.5 * float(np.sum(x * x)),
        f_prox=lambda v, tau: v / (1.0 + tau),
        g_value=lambda y: 0.5 * float(np.sum(y * y)),
        g_prox=lambda v, tau: v / (1.0 + tau),
        H=lambda x, y: 0.0,
        grad_x=lambda x, y: np.zeros_like(x),
        grad_y=lambda x, y: np.zeros_like(y),
        L1=lambda y: 1.0,
        L2=lambda x: 1.0,
    )


def bilinear_problem():
    """H(x, y) = x.y in 1-d, no nonsmooth terms."""
    return BlockProblem(
        f_value=lambda x: 0.0,
        f_prox=lambda v, tau: v,
        g_value=lambda y: 0.0,
        g_prox=lambda v, tau: v,
        H=lambda x, y: float(x @ y),
        grad_x=lambda x, y: y.copy(),
        grad_y=lambda x, y: x.copy(),
        L1=lambda y: 1.0,
        L2=lambda x: 1.0,
    )


def coupled_quadratic(Q):
    """H(x, y) = 0.5*x'Qx + x.y + 0.5*||y||^2."""
    return BlockProblem(
        f_value=lambda x: 0.0,
        f_prox=lambda v, tau: v,
        g_value=lambda y: 0.0,
        g_prox=lambda v, tau: v,
        H=lambda x, y: 0.5 * float(x @ (Q @ x)) + float(x @ y)
        + 0.5 * float(y @ y),
        grad_x=lambda x, y: Q @ x + y,
        grad_y=lambda x, y: x + y,
        L1=lambda y: float(np.linalg.eigvalsh(Q).max()),
        L2=lambda x: 1.0,
    )


def counted_oracles(problem):
    """The problem with grad_x, grad_y and H counted; returns (problem,
    Counter of calls by name)."""
    calls = Counter()

    def counted(name):
        fn = getattr(problem, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    names = ("grad_x", "grad_y", "H")
    return replace(problem, **{n: counted(n) for n in names}), calls


def fresh_state(x0, y0, problem, cfg):
    window = HistoryWindow(cfg.m)
    window.push(0, problem.objective(x0, y0))  # Upsilon at equal pairs
    return BlockIterateState(
        x=x0.copy(), y=y0.copy(), x_prev=x0.copy(), y_prev=y0.copy(),
        window=window,
    )


class TestPalmStep:
    def test_decoupled_reduces_to_per_block_prox(self):
        prob = decoupled_problem()
        tau = 0.2
        cfg = PalmConfig(beta_max=0.0, beta_rule="constant",
                         tau1_0=tau, tau2_0=tau).validated(1.0)
        x0, y0 = np.array([1.0, -2.0]), np.array([3.0])
        state = fresh_state(x0, y0, prob, cfg)
        new_state, rec, _ = palm_step(state, prob, cfg)
        assert rec.backtracks == 0
        assert np.allclose(new_state.x, x0 / (1.0 + tau), rtol=1e-15)
        assert np.allclose(new_state.y, y0 / (1.0 + tau), rtol=1e-15)

    def test_joint_fixed_point(self):
        prob = bilinear_problem()
        cfg = PalmConfig(tau1_0=0.1, tau2_0=0.1).validated(1.0)
        zero = np.zeros(1)
        state = fresh_state(zero, zero, prob, cfg)
        new_state, rec, _ = palm_step(state, prob, cfg)
        assert rec.step_norm == 0.0
        assert rec.backtracks == 0
        assert rec.witness_norm == 0.0

    def test_bilinear_matches_scalar_recursion(self):
        prob = bilinear_problem()
        tau = 0.05
        cfg = PalmConfig(beta_max=0.0, beta_rule="constant",
                         tau1_0=tau, tau2_0=tau).validated(1.0)
        x0, y0 = np.array([0.3]), np.array([0.4])
        state = fresh_state(x0, y0, prob, cfg)
        new_state, rec, _ = palm_step(state, prob, cfg)
        # hand recursion: x1 = x0 - tau*y0, then y1 = y0 - tau*x1
        x1 = x0 - tau * y0
        y1 = y0 - tau * x1
        assert new_state.x[0] == pytest.approx(x1[0], rel=1e-12)
        assert new_state.y[0] == pytest.approx(y1[0], rel=1e-12)

    def test_y_update_uses_fresh_x(self):
        # perturbing the sequencing to the OLD x gives a different iterate
        prob = bilinear_problem()
        tau = 0.05
        cfg = PalmConfig(beta_max=0.0, beta_rule="constant",
                         tau1_0=tau, tau2_0=tau).validated(1.0)
        x0, y0 = np.array([0.3]), np.array([0.4])
        state = fresh_state(x0, y0, prob, cfg)
        new_state, _, _ = palm_step(state, prob, cfg)
        y_stale = y0 - tau * x0  # old-x variant
        assert new_state.y[0] != pytest.approx(y_stale[0], rel=1e-12)


class TestBbBlocks:
    def test_quadratic_hessian_ratio(self):
        prob = coupled_quadratic(2.0 * np.eye(2))
        cfg = PalmConfig().validated(2.0)
        x1, x0 = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        y = np.array([0.5, 0.5])
        state = BlockIterateState(
            x=x1, y=y, x_prev=x0, y_prev=y, window=None,
            tau1_init_prev=9.0, tau2_init_prev=9.0,
        )
        tau1, tau2 = bb_init_tau_blocks(state, prob, cfg.tau_lo, cfg.tau_hi)
        assert tau1 == pytest.approx(0.5, rel=1e-12)
        assert tau2 == 9.0  # y did not move: previous init reused

    def test_orthogonal_secant_guard(self):
        prob = bilinear_problem()  # grad_y(x, .) constant in y
        state = BlockIterateState(
            x=np.array([1.0]), y=np.array([2.0]),
            x_prev=np.array([1.0]), y_prev=np.array([0.0]), window=None,
            tau1_init_prev=1.0, tau2_init_prev=1.0,
        )
        _, tau2 = bb_init_tau_blocks(state, prob, 1e-8, 1e8)
        assert tau2 == 1e8

    def test_random_instance_matches_hand_ratios(self):
        rng = RngStream(8)
        Q = np.diag([1.0, 3.0])
        prob = coupled_quadratic(Q)
        x1, x0 = rng.standard_normal(2), rng.standard_normal(2)
        y1, y0 = rng.standard_normal(2), rng.standard_normal(2)
        state = BlockIterateState(
            x=x1, y=y1, x_prev=x0, y_prev=y0, window=None,
            tau1_init_prev=1.0, tau2_init_prev=1.0,
        )
        dx, dy = x1 - x0, y1 - y0
        dhx = Q @ dx            # grad_x difference at the CURRENT y
        dhy = dy                # grad_y difference at the CURRENT x
        def expected(d, dh):
            inner = float(d @ dh)
            return max(min(float(d @ d) / inner,
                           inner / float(dh @ dh), 1e8), 1e-8)
        tau1, tau2 = bb_init_tau_blocks(state, prob, 1e-8, 1e8)
        assert tau1 == pytest.approx(expected(dx, dhx), rel=1e-12)
        assert tau2 == pytest.approx(expected(dy, dhy), rel=1e-12)


class TestSafeBetaBound:
    def test_vanishes_at_boundary(self):
        # 1/tau - L - delta -> 0 from above drives the bound to zero
        delta, L = 0.01, 1.0
        tau = 1.0 / (L + delta)
        assert safe_beta_bound_palm(tau, 0.25, L, L, delta) < 1e-7
        assert safe_beta_bound_palm(tau, 0.25, L, L, delta) < \
            safe_beta_bound_palm(0.5 * tau, 0.25, L, L, delta)

    def test_symmetric_blocks(self):
        val = safe_beta_bound_palm(0.25, 0.25, 1.0, 1.0, 0.01)
        slack = 4.0 - 1.0 - 0.01
        expected = math.sqrt(0.25 * 0.01 * slack / (1.0 * slack + 9.0))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_acceptance_under_safe_parameters(self):
        # below the safe bounds the very first inner trial must pass
        Q = np.diag([1.0, 2.0])
        prob = coupled_quadratic(Q)
        L = 2.0
        cfg0 = PalmConfig()
        tau = 0.9 / (L + cfg0.delta + 2.0 * cfg0.alpha)
        beta = 0.9 * safe_beta_bound_palm(tau, tau, L, L, cfg0.delta)
        cfg = PalmConfig(beta_max=beta, beta_rule="constant",
                         tau1_0=tau, tau2_0=tau).validated(L)
        rng = RngStream(3)
        state = fresh_state(rng.standard_normal(2), rng.standard_normal(2),
                            prob, cfg)
        # give the state a nonzero previous step so extrapolation is active
        state.x_prev = state.x - 0.01 * rng.standard_normal(2)
        state.y_prev = state.y - 0.01 * rng.standard_normal(2)
        _, rec, _ = palm_step(state, prob, cfg)
        assert rec.backtracks == 0


class TestWitnessAndInvariants:
    def small_mc(self, seed=0):
        inst = gen_mc(n1=20, n2=20, r_star=2, num_samples=150, sigma=0.1,
                      seed=seed, lam=0.5)
        prob = mc_problem(inst)
        rng = RngStream(seed).spawn(1)
        u0 = rng.standard_normal((20, inst.r)) / math.sqrt(inst.r)
        v0 = rng.standard_normal((20, inst.r)) / math.sqrt(inst.r)
        return prob, u0, v0

    def test_reused_gradients_match_recomputation(self):
        # the witness and the BB initialization from the gradients a step
        # carries equal, bit for bit, those recomputed from the problem
        prob, u0, v0 = self.small_mc()
        vcfg = palm_run(prob, u0, v0, PalmConfig(max_iters=0)).extras["config"]
        state = fresh_state(u0, v0, prob, vcfg)
        for _ in range(20):
            state, rec, _ = palm_step(state, prob, vcfg)
            bare = replace(state, gx_trial=None, gy_trial=None, gx=None, gy=None)
            _, norm = subgrad_witness_palm(bare, prob, vcfg.delta)
            assert rec.witness_norm == norm
            assert bb_init_tau_blocks(state, prob, vcfg.tau_lo, vcfg.tau_hi) == \
                bb_init_tau_blocks(bare, prob, vcfg.tau_lo, vcfg.tau_hi)

    def test_oracle_calls_per_iteration(self):
        # per step with l backtracks: l+1 trials (grad_x, grad_y, H each),
        # the gradients at the new point, and from k = 1 on the two BB
        # secant gradients at the previous iterate. A trial with beta = 0
        # takes grad_x(x^k, y^k) from the state (one evaluation at the fresh
        # start, which carries none), and after a step with beta = 0 the BB
        # secant's grad_y(x^k, y^{k-1}) is that step's trial gradient.
        prob, u0, v0 = self.small_mc(seed=3)
        counting, calls = counted_oracles(prob)
        for name in ("palmenls", "palmnls"):
            cfg = variant_config(name, PalmConfig(max_iters=0))
            vcfg = palm_run(prob, u0, v0, cfg).extras["config"]
            state = fresh_state(u0, v0, counting, vcfg)
            betas = []
            for k in range(15):
                calls.clear()
                state, rec, _ = palm_step(state, counting, vcfg)
                trials = rec.backtracks + 1
                bb = 1 if k >= 1 else 0
                x_trials = trials if rec.beta > 0.0 else (1 if k == 0 else 0)
                y_bb = bb if k >= 1 and betas[-1] > 0.0 else 0
                assert calls == {"grad_x": x_trials + 1 + bb,
                                 "grad_y": trials + 1 + y_bb, "H": trials}
                betas.append(rec.beta)
            if name == "palmnls":
                assert set(betas) == {0.0}
            else:  # the first two Nesterov weights are 0
                assert betas[:2] == [0.0, 0.0] and min(betas[2:]) > 0.0

    def test_baseline_oracle_calls_per_iteration(self):
        # without extrapolation an iteration's grad_x(x^k, y^k) is the one
        # its predecessor's witness evaluated: one grad_x per iteration (two
        # in the first), two grad_y (trial and witness), one H (objective)
        prob, u0, v0 = self.small_mc(seed=3)
        counting, calls = counted_oracles(prob)
        result = palm_baseline_run(counting, u0, v0, PalmConfig(max_iters=20, stop_tol=-1.0))
        assert len(result.records) == 21
        assert calls == {"grad_x": 21, "grad_y": 40, "H": 21}

    def test_near_equal_singular_values_do_not_stop_a_solve(self):
        # an iterate of this instance has sigma1 = 20.224, sigma2 = 20.214,
        # where power iteration for the block modulus did not converge
        seed = 2880641671
        inst = gen_mc(n1=200, n2=200, r_star=5, num_samples=8000, sigma=0.1,
                      seed=seed)
        prob = mc_problem(inst)
        rng = RngStream(seed).spawn(1)
        u0 = rng.standard_normal((200, inst.r)) / math.sqrt(inst.r)
        v0 = rng.standard_normal((200, inst.r)) / math.sqrt(inst.r)
        truth = inst.U_star @ inst.V_star.T
        for name in ("palmnls", "palmls"):
            result = palm_run(prob, u0, v0,
                              variant_config(name, PalmConfig(max_iters=150)))
            assert len(result.records) == 151
            U, V = result.x
            assert np.linalg.norm(U @ V.T - truth) / np.linalg.norm(truth) < 0.5

    def test_h1_h2_on_mc_run(self):
        from nmdesc.diagnostics import verify_H1, verify_H2

        prob, u0, v0 = self.small_mc(seed=4)
        result = palm_run(prob, u0, v0, PalmConfig(max_iters=60))
        vcfg = result.extras["config"]
        assert verify_H1(result.records, a=vcfg.alpha / 2.0, m=vcfg.m).passed
        h2 = verify_H2(result.records, b=result.extras["h2_bound"])
        assert h2.passed

    def test_backtrack_counts_within_bound(self):
        prob, u0, v0 = self.small_mc(seed=9)
        result = palm_run(prob, u0, v0, PalmConfig(max_iters=60))
        vcfg = result.extras["config"]
        meta = result.meta
        assert len(meta["beta0"]) == len(result.records) - 1
        for i, rec in enumerate(result.records[1:]):
            bound = backtrack_bound_palm(
                meta["tau1_0"][i], meta["tau2_0"][i], meta["beta0"][i], vcfg,
                meta["L1k"][i], meta["L2k1"][i],
            )
            assert rec.backtracks <= bound

    def test_monotone_variant_potential_nonincreasing(self):
        prob, u0, v0 = self.small_mc(seed=2)
        cfg = variant_config("palmls", PalmConfig(max_iters=40))
        result = palm_run(prob, u0, v0, cfg)
        pots = [r.potential for r in result.records]
        assert all(b <= a + 1e-15 for a, b in zip(pots, pots[1:]))

    def test_h2_constant_formula(self):
        cfg = PalmConfig(delta=0.01, beta_max=1.0, tau_lo=1e-2)
        assert h2_constant_palm(cfg, M=3.0, L2bar=2.0) == pytest.approx(
            2 * 0.01 + 2 * 1.0 * (3.0 + 200.0 + 2.0)
        )


# -- beta = 0 steps reuse the gradients at the current point -------------------

def _sq(a):
    a = np.ravel(a)
    return float(a @ a)


def reference_palm(prob, x0, y0, cfg, iters):
    """The line-search method with every gradient evaluated where it is
    used and every trial point extrapolated, x + beta*(x - x_prev) also at
    beta = 0: records (k, objective, potential, step, witness, beta, tau1,
    tau2, backtracks, ell) as a reference for the reused gradients."""
    window = HistoryWindow(cfg.m)
    ups = prob.objective(x0, y0)  # Upsilon at equal pairs
    window.push(0, ups)
    x, y, xp, yp = x0.copy(), y0.copy(), x0.copy(), y0.copy()
    t_prev, t_cur = 1.0, 1.0
    taus = (None, None)
    out = [(0, prob.objective(x, y), ups, 0.0, math.inf, 0.0, 0.0, 0.0, 0, 0)]
    for k in range(iters):
        beta0, t_next = nesterov_beta(t_prev, t_cur)
        beta0 = min(beta0, cfg.beta_max)
        if k >= 1:
            bare = BlockIterateState(x=x, y=y, x_prev=xp, y_prev=yp, window=None,
                                     tau1_init_prev=taus[0], tau2_init_prev=taus[1])
            taus = bb_init_tau_blocks(bare, prob, cfg.tau_lo, cfg.tau_hi)
        else:
            taus = (min(max(cfg.tau1_0, cfg.tau_lo), cfg.tau_hi),
                    min(max(cfg.tau2_0, cfg.tau_lo), cfg.tau_hi))
        for l in range(cfg.max_backtracks + 1):
            beta = beta0 * cfg.eta**l
            tau1 = max(taus[0] * cfg.eta1**l, cfg.tau_lo)
            tau2 = max(taus[1] * cfg.eta2**l, cfg.tau_lo)
            xt = x + beta * (x - xp)
            xn = prob.f_prox(xt - tau1 * prob.grad_x(xt, y), tau1)
            yt = y + beta * (y - yp)
            yn = prob.g_prox(yt - tau2 * prob.grad_y(xn, yt), tau2)
            step_sq = _sq(xn - x) + _sq(yn - y) + _sq(x - xp) + _sq(y - yp)
            obj = prob.objective(xn, yn)
            # Upsilon_delta = Psi + (delta/2)(||x^{k+1}-x^k||^2 + ||y^{k+1}-y^k||^2)
            ups = obj + 0.5 * cfg.delta * (_sq(xn - x) + _sq(yn - y))
            if accept(ups, window, cfg.alpha, step_sq):
                break
        bare = BlockIterateState(x=xn, y=yn, x_prev=x, y_prev=y, window=None,
                                 xt_last=xt, yt_last=yt, tau1_last=tau1, tau2_last=tau2)
        _, wnorm = subgrad_witness_palm(bare, prob, cfg.delta)
        window.push(k + 1, ups)
        _, ell = window_max(window)
        out.append((k + 1, obj, ups, math.sqrt(step_sq), wnorm, beta, tau1, tau2, l, ell))
        x, y, xp, yp = xn, yn, x, y
        t_prev, t_cur = t_cur, t_next
    return out, (x, y)


def reference_baseline(prob, x0, y0, cfg, extrapolate):
    """`palm_baseline_run` with every gradient evaluated where it is used:
    records (k, objective, step, witness, beta, tau1, tau2)."""
    x, y = x0.copy(), y0.copy()
    xp, yp = x.copy(), y.copy()
    t_prev, t_cur = 1.0, 1.0
    out = [(0, prob.objective(x, y), 0.0, math.inf, 0.0, 0.0, 0.0)]
    for k in range(cfg.max_iters):
        if extrapolate:
            beta, t_next = nesterov_beta(t_prev, t_cur)
            beta = min(beta, cfg.beta_max)
        else:
            beta, t_next = 0.0, t_cur
        tau1 = 1.0 / max(prob.L1(y), 1e-12)
        xt = x + beta * (x - xp)
        xn = prob.f_prox(xt - tau1 * prob.grad_x(xt, y), tau1)
        tau2 = 1.0 / max(prob.L2(xn), 1e-12)
        yt = y + beta * (y - yp)
        yn = prob.g_prox(yt - tau2 * prob.grad_y(xn, yt), tau2)
        bare = BlockIterateState(x=xn, y=yn, x_prev=x, y_prev=y, window=None,
                                 xt_last=xt, yt_last=yt, tau1_last=tau1, tau2_last=tau2)
        _, wnorm = subgrad_witness_palm(bare, prob, 0.0)
        step = math.sqrt(_sq(xn - x) + _sq(yn - y))
        x, y, xp, yp = xn, yn, x, y
        t_prev, t_cur = t_cur, t_next
        out.append((k + 1, prob.objective(x, y), step, wnorm, beta, tau1, tau2))
    return out, (x, y)


def mc_start(n1, n2, num_samples, seed):
    """An instance, its problem and the start `nmdesc run` takes: 200 x 200
    with 8000 draws is the desk instance of the benchmark (dense form),
    300 x 300 with 2000 draws a sparse one (sorted-segment form)."""
    inst = gen_mc(n1=n1, n2=n2, r_star=5, num_samples=num_samples, sigma=0.1,
                  seed=seed)
    rng = RngStream(seed).spawn(1)
    u0 = rng.standard_normal((n1, inst.r)) / math.sqrt(inst.r)
    v0 = rng.standard_normal((n2, inst.r)) / math.sqrt(inst.r)
    return inst, mc_problem(inst), u0, v0


MC_FORMS = {"dense": (200, 200, 8000, 1), "segment": (300, 300, 2000, 5)}


class TestZeroExtrapolationReuse:
    @pytest.mark.parametrize("form", sorted(MC_FORMS))
    @pytest.mark.parametrize("name", ["palmnls", "palmls", "palmenls"])
    def test_trace_equals_recomputation(self, name, form):
        inst, prob, u0, v0 = mc_start(*MC_FORMS[form])
        assert mc_oracle_form(inst.n1, inst.n2, inst.num_obs) == form
        cfg = variant_config(name, PalmConfig(max_iters=50, stop_tol=-1.0))
        result = palm_run(prob, u0, v0, cfg)
        got = [(r.k, r.objective, r.potential, r.step_norm, r.witness_norm,
                r.beta, r.tau1, r.tau2, r.backtracks, r.ell) for r in result.records]
        ref, (x, y) = reference_palm(prob, u0, v0, result.extras["config"], 50)
        assert got == ref
        assert np.array_equal(result.x[0], x) and np.array_equal(result.x[1], y)

    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_baseline_trace_equals_recomputation(self, extrapolate):
        inst, prob, u0, v0 = mc_start(*MC_FORMS["dense"])
        cfg = PalmConfig(max_iters=50, stop_tol=-1.0)
        result = palm_baseline_run(prob, u0, v0, cfg, extrapolate=extrapolate)
        got = [(r.k, r.objective, r.step_norm, r.witness_norm, r.beta, r.tau1, r.tau2)
               for r in result.records]
        ref, (x, y) = reference_baseline(prob, u0, v0, cfg, extrapolate)
        assert got == ref
        assert np.array_equal(result.x[0], x) and np.array_equal(result.x[1], y)


class TestBaselines:
    def test_decoupled_palm_is_proximal_minimization(self):
        prob = decoupled_problem()
        x0, y0 = np.array([2.0]), np.array([-3.0])
        cfg = PalmConfig(max_iters=1, stop_tol=-1.0)
        result = palm_baseline_run(prob, x0, y0, cfg)
        x, y = result.x
        assert x[0] == pytest.approx(2.0 / 2.0)  # tau = 1/L = 1
        assert y[0] == pytest.approx(-3.0 / 2.0)

    def test_palm_objective_monotone(self):
        inst = gen_mc(n1=15, n2=15, r_star=2, num_samples=90, sigma=0.1,
                      seed=6, lam=0.2)
        prob = mc_problem(inst)
        rng = RngStream(6).spawn(1)
        u0 = rng.standard_normal((15, inst.r))
        v0 = rng.standard_normal((15, inst.r))
        result = palm_baseline_run(prob, u0, v0, PalmConfig(max_iters=50))
        objs = [r.objective for r in result.records]
        assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))

    def test_palme_with_zero_beta_equals_palm(self):
        prob = bilinear_problem()
        x0, y0 = np.array([0.4]), np.array([0.2])
        cfg = PalmConfig(max_iters=10, stop_tol=-1.0, beta_max=0.0)
        a = palm_baseline_run(prob, x0, y0, cfg, extrapolate=False)
        b = palm_baseline_run(prob, x0, y0, cfg, extrapolate=True)
        assert trace_csv_string(a.records, zero_times=True) == \
            trace_csv_string(b.records, zero_times=True)

    def test_bilinear_baseline_matches_hand_recursion(self):
        prob = bilinear_problem()
        x, y = np.array([0.3]), np.array([0.4])
        cfg = PalmConfig(max_iters=5, stop_tol=-1.0)
        result = palm_baseline_run(prob, x, y, cfg)
        for _ in range(5):
            x = x - y      # tau1 = 1/L1 = 1
            y = y - x      # tau2 = 1/L2 = 1, uses the fresh x
        rx, ry = result.x
        assert rx[0] == pytest.approx(x[0], rel=1e-12)
        assert ry[0] == pytest.approx(y[0], rel=1e-12)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PalmConfig(delta=0.0).validated(1.0)
        with pytest.raises(ValueError):
            PalmConfig(alpha=0.5, delta=0.01).validated(1.0)
        with pytest.raises(ValueError):
            PalmConfig(tau_lo=10.0).validated(1.0)
        with pytest.raises(ValueError):
            variant_config("nope")
