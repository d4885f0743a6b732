"""Two-block line-search solver and the fixed-step baselines."""

import math
import warnings
from collections import Counter, deque
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from testkit import nesterov_ref, trace_csv_string
from nmdesc.linalg import RngStream
from nmdesc import palm as palm_mod
from nmdesc.nls import BacktrackCapError, accept, backtrack_params, window_max
from nmdesc.palm import (
    PalmConfig,
    backtrack_bound_palm,
    bb_init_tau_blocks,
    h2_constant_palm,
    palm_baseline_run,
    palm_run,
    palm_step,
    safe_beta_bound_palm,
    start_state,
    subgrad_witness_palm,
    variant_config,
)
from nmdesc.problems import BlockProblem, gen_mc, mc_oracle_form, mc_problem


# regularizers of the toy problems: any object with value and prox will do
NONE = SimpleNamespace(value=lambda x: 0.0, prox=lambda v, tau: v)
HALF_SQ = SimpleNamespace(value=lambda x: 0.5 * float(np.sum(x * x)),
                          prox=lambda v, tau: v / (1.0 + tau))


def decoupled_problem():
    """H = 0; both blocks carry quadratic prox-friendly terms 0.5*||.||^2."""
    return BlockProblem(
        f=HALF_SQ,
        g=HALF_SQ,
        coupling=lambda x, y: (0.0, lambda: np.zeros_like(x),
                               lambda: np.zeros_like(y)),
        L1=lambda y: 1.0,
        L2=lambda x: 1.0,
    )


def bilinear_problem():
    """H(x, y) = x.y in 1-d, no nonsmooth terms."""
    return BlockProblem(
        f=NONE,
        g=NONE,
        coupling=lambda x, y: (float(x @ y), lambda: y.copy(), lambda: x.copy()),
        L1=lambda y: 1.0,
        L2=lambda x: 1.0,
    )


def coupled_quadratic(Q):
    """H(x, y) = 0.5*x'Qx + x.y + 0.5*||y||^2."""
    return BlockProblem(
        f=NONE,
        g=NONE,
        coupling=lambda x, y: (
            0.5 * float(x @ (Q @ x)) + float(x @ y) + 0.5 * float(y @ y),
            lambda: Q @ x + y,
            lambda: x + y,
        ),
        L1=lambda y: float(np.linalg.eigvalsh(Q).max()),
        L2=lambda x: 1.0,
    )


def counted_oracles(problem):
    """The problem with its coupling evaluations, the block gradients asked
    of them and its block moduli counted; returns (problem, Counter of
    calls by name: "coupling", "grad_x", "grad_y", "L1", "L2")."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def coupling(x, y):
        h, grad_x, grad_y = problem.coupling(x, y)
        return h, counted("grad_x", grad_x), counted("grad_y", grad_y)

    return replace(problem, coupling=counted("coupling", coupling),
                   L1=counted("L1", problem.L1), L2=counted("L2", problem.L2)), calls


def grad_x(problem, x, y):
    return problem.coupling(x, y)[1]()


def grad_y(problem, x, y):
    return problem.coupling(x, y)[2]()


def x_secant(problem, x, y, x_prev):
    """grad_x H(x, y) - grad_x H(x_prev, y), each gradient evaluated where
    it is taken."""
    return grad_x(problem, x, y) - grad_x(problem, x_prev, y)


def x_trial_grad(problem, x, y, x_prev, beta):
    """grad_x H at x~ = x + beta*(x - x_prev) with y fixed, as `palm_step`
    takes it: the gradient at x itself when beta = 0, else gx + beta*dhx
    from the gradient gx at (x, y) and the secant dhx to (x_prev, y)."""
    gx = grad_x(problem, x, y)
    if beta == 0.0:
        return gx
    return gx + beta * x_secant(problem, x, y, x_prev)


def bb_inits(problem, x, y, x_prev, y_prev, prev_taus, tau_lo, tau_hi):
    """The Barzilai-Borwein initializations at (x, y) after a step from
    (x_prev, y_prev), from its steps and their squared norms, and the
    secants of the coupling's gradients at (x, y), from one evaluation,
    against the cross gradients grad_x H(x_prev, y) and grad_y H(x,
    y_prev), each evaluated where it is used."""
    _, gx, gy = problem.coupling(x, y)
    dx, dy = x - x_prev, y - y_prev
    return bb_init_tau_blocks(
        (dx, dy), (_sq(dx), _sq(dy)),
        (gx() - grad_x(problem, x_prev, y), gy() - grad_y(problem, x, y_prev)),
        prev_taus, tau_lo, tau_hi)


def validated(problem, x0, y0, config=None):
    """`config` (default PalmConfig()) validated at the start (x0, y0), as
    `palm_run` validates it."""
    config = PalmConfig() if config is None else config
    return config.validated(problem.L1(y0), problem.L2(x0))


class TestPalmStep:
    def test_decoupled_reduces_to_per_block_prox(self):
        prob = decoupled_problem()
        tau = 0.2
        cfg = PalmConfig(beta_max=0.0, tau1_0=tau, tau2_0=tau).validated(1.0, 1.0)
        x0, y0 = np.array([1.0, -2.0]), np.array([3.0])
        state = start_state(prob, x0, y0, cfg)[0]
        new_state, rec, _ = palm_step(state, prob, cfg)
        assert rec.backtracks == 0
        assert np.allclose(new_state.x, x0 / (1.0 + tau), rtol=1e-15)
        assert np.allclose(new_state.y, y0 / (1.0 + tau), rtol=1e-15)

    def test_joint_fixed_point(self):
        prob = bilinear_problem()
        cfg = PalmConfig(tau1_0=0.1, tau2_0=0.1).validated(1.0, 1.0)
        zero = np.zeros(1)
        state = start_state(prob, zero, zero, cfg)[0]
        new_state, rec, _ = palm_step(state, prob, cfg)
        assert rec.step_norm == 0.0
        assert rec.backtracks == 0
        assert rec.witness_norm == 0.0

    def test_bilinear_matches_scalar_recursion(self):
        prob = bilinear_problem()
        tau = 0.05
        cfg = PalmConfig(beta_max=0.0, tau1_0=tau, tau2_0=tau).validated(1.0, 1.0)
        x0, y0 = np.array([0.3]), np.array([0.4])
        state = start_state(prob, x0, y0, cfg)[0]
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
        cfg = PalmConfig(beta_max=0.0, tau1_0=tau, tau2_0=tau).validated(1.0, 1.0)
        x0, y0 = np.array([0.3]), np.array([0.4])
        state = start_state(prob, x0, y0, cfg)[0]
        new_state, _, _ = palm_step(state, prob, cfg)
        y_stale = y0 - tau * x0  # old-x variant
        assert new_state.y[0] != pytest.approx(y_stale[0], rel=1e-12)


class TestBbBlocks:
    def test_quadratic_hessian_ratio(self):
        prob = coupled_quadratic(2.0 * np.eye(2))
        cfg = PalmConfig().validated(2.0, 1.0)
        x1, x0 = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        y = np.array([0.5, 0.5])
        tau1, tau2 = bb_inits(prob, x1, y, x0, y, (9.0, 9.0), cfg.tau_lo, cfg.tau_hi)
        assert tau1 == pytest.approx(0.5, rel=1e-12)
        assert tau2 == 9.0  # y did not move: previous init reused

    def test_orthogonal_secant_guard(self):
        prob = bilinear_problem()  # grad_y(x, .) constant in y
        _, tau2 = bb_inits(prob, np.array([1.0]), np.array([2.0]),
                           np.array([1.0]), np.array([0.0]), (1.0, 1.0), 1e-8, 1e8)
        assert tau2 == 1e8

    def test_random_instance_matches_hand_ratios(self):
        rng = RngStream(8)
        Q = np.diag([1.0, 3.0])
        prob = coupled_quadratic(Q)
        x1, x0 = rng.standard_normal(2), rng.standard_normal(2)
        y1, y0 = rng.standard_normal(2), rng.standard_normal(2)
        dx, dy = x1 - x0, y1 - y0
        dhx = Q @ dx            # grad_x difference at the CURRENT y
        dhy = dy                # grad_y difference at the CURRENT x
        def expected(d, dh):
            inner = float(d @ dh)
            return max(min(float(d @ d) / inner,
                           inner / float(dh @ dh), 1e8), 1e-8)
        tau1, tau2 = bb_inits(prob, x1, y1, x0, y0, (1.0, 1.0), 1e-8, 1e8)
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
        cfg = PalmConfig(beta_max=beta, tau1_0=tau, tau2_0=tau).validated(L, 1.0)
        rng = RngStream(3)
        state = start_state(prob, rng.standard_normal(2), rng.standard_normal(2),
                            cfg)[0]
        # Nesterov counters at 10 give the weight 0.9, capped at beta_max
        state.t, state.beta0 = 10.0, min(nesterov_ref(10.0, 10.0)[0], beta)
        # give the state a nonzero previous step so extrapolation is active,
        # with its squared norms and the x secant it ends
        state.dx = 0.01 * rng.standard_normal(2)
        state.dy = 0.01 * rng.standard_normal(2)
        state.dx_sq, state.dy_sq = _sq(state.dx), _sq(state.dy)
        state.dhx = x_secant(prob, state.x, state.y, state.x - state.dx)
        _, rec, _ = palm_step(state, prob, cfg)
        assert rec.beta == beta > 0.0
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
        # the steps, their squared norms, the gradient and the x secant a
        # step carries, the next initializations it decides from the four
        # gradients at and next to the new point, and the witness, equal,
        # bit for bit, those formed from the iterates and taken straight
        # from the oracle, after steps with beta = 0 (whose y~ is y^k, so
        # the trial's y gradient is the cross gradient) and with beta > 0
        # (whose x trial gradient is gx + beta*dhx)
        prob, u0, v0 = self.small_mc()
        vcfg = validated(prob, u0, v0)
        state = start_state(prob, u0, v0, vcfg)[0]
        assert not state.dhx.any() and state.dx_sq == state.dy_sq == 0.0
        betas = set()
        x_before = state.x  # x^{k-1} of the step from prev; x^{-1} = x^0
        for _ in range(20):
            prev = state
            state, rec, _ = palm_step(state, prob, vcfg)
            xt, yt = extrapolated(prev, rec.beta)
            assert np.array_equal(state.dx, state.x - prev.x)
            assert np.array_equal(state.dy, state.y - prev.y)
            assert (state.dx_sq, state.dy_sq) == (_sq(state.dx), _sq(state.dy))
            assert np.array_equal(state.gx, grad_x(prob, state.x, state.y))
            assert np.array_equal(state.dhx, x_secant(prob, state.x, state.y, prev.x))
            assert (state.tau1_0, state.tau2_0) == bb_inits(
                prob, state.x, state.y, prev.x, prev.y, (prev.tau1_0, prev.tau2_0),
                vcfg.tau_lo, vcfg.tau_hi)
            assert rec.witness_norm == witness_norm(
                prob, state.x, state.y, prev.x, prev.y, xt, yt, rec.tau1, rec.tau2,
                vcfg.delta, x_trial_grad(prob, prev.x, prev.y, x_before, rec.beta))
            x_before = prev.x
            betas.add(rec.beta > 0.0)
        assert betas == {False, True}

    def test_oracle_calls_per_iteration(self, monkeypatch):
        # the start state evaluates the coupling once and asks it for
        # grad_x only. Per step with l backtracks: l+1 trials, each
        # evaluating the coupling for grad_y at (x^{k+1}, y~) and for H at
        # (x^{k+1}, y^{k+1}); the accepted trial's last evaluation gives the
        # gradients at the new point, two fewer evaluations than H, grad_x
        # and grad_y there separately; and at acceptance the next BB
        # secant's cross gradients: grad_x(x^k, y^{k+1}) always, and
        # grad_y(x^{k+1}, y^k) only after beta > 0, since with beta = 0 it
        # is the trial's own. The BB initialization runs once per step and
        # evaluates nothing. A trial takes its x gradient from the state:
        # grad_x(x^k, y^k) with beta = 0, and with beta > 0 that plus beta
        # times the carried x secant. A rejected trial asks for no gradient
        # at its point. No step computes a block modulus (the Counter has
        # no "L1" or "L2").
        prob, u0, v0 = self.small_mc(seed=3)
        counting, calls = counted_oracles(prob)
        inits = []

        def counted_init(*args):
            before = Counter(calls)
            taus = bb_init_tau_blocks(*args)
            inits.append(calls == before)
            return taus

        monkeypatch.setattr(palm_mod, "bb_init_tau_blocks", counted_init)
        for name in ("palmenls", "palmnls"):
            vcfg = validated(prob, u0, v0, variant_config(name))
            calls.clear()
            state = start_state(counting, u0, v0, vcfg)[0]
            assert calls == {"coupling": 1, "grad_x": 1}
            betas = []
            for k in range(15):
                calls.clear()
                inits.clear()
                state, rec, _ = palm_step(state, counting, vcfg)
                trials = rec.backtracks + 1
                y_cross = 1 if rec.beta > 0.0 else 0
                assert calls == {"coupling": 2 * trials + 1 + y_cross,
                                 "grad_x": 1 + 1,
                                 "grad_y": trials + 1 + y_cross}
                assert inits == [True]
                betas.append(rec.beta)
            if name == "palmnls":
                assert set(betas) == {0.0}
            else:  # the first two Nesterov weights are 0
                assert betas[:2] == [0.0, 0.0] and min(betas[2:]) > 0.0

    def test_baseline_oracle_calls_per_iteration(self):
        # one coupling evaluation per distinct point: the start, and per
        # iteration (x^{k+1}, y^k) for the y block's gradient and the new
        # iterate, whose evaluation gives its objective and both gradients;
        # without extrapolation the next x block takes grad_x(x^k, y^k)
        # from it. Its steps are 1/L1(y^k) and 1/L2(x^{k+1}): two moduli
        # per iteration
        prob, u0, v0 = self.small_mc(seed=3)
        counting, calls = counted_oracles(prob)
        result = palm_baseline_run(counting, u0, v0, PalmConfig(max_iters=20, stop_tol=0.0))
        assert len(result.records) == 21
        assert calls == {"coupling": 41, "grad_x": 21, "grad_y": 40, "L1": 20, "L2": 20}

    def test_run_computes_moduli_only_at_the_start(self):
        # L1 and L2 are called once each, at (x^0, y^0); the per-iteration
        # moduli come from the Gram matrices at the end of the run. A run
        # that accepts no step has no initializations and no moduli in meta
        prob, u0, v0 = self.small_mc(seed=3)
        counting, calls = counted_oracles(prob)
        result = palm_run(counting, u0, v0, PalmConfig(max_iters=10, stop_tol=0.0))
        assert list(result.meta) == ["beta0", "tau1_0", "tau2_0", "L1k", "L2k1"]
        assert len(result.meta["L1k"]) == len(result.meta["L2k1"]) == 10
        assert calls["L1"] == calls["L2"] == 1
        assert palm_run(prob, u0, v0, PalmConfig(max_iters=0)).meta == {}

    @pytest.mark.parametrize("form", ["dense", "segment"])
    def test_block_moduli_equal_per_point_moduli(self, form):
        # meta's L1k and L2k1, from one batched eigen-solve per block at the
        # end of the run, equal L1(y^k) and L2(x^{k+1}) of a palm_step
        # replay bit for bit, and L_run is the largest of them and the
        # start's moduli
        inst, prob, u0, v0 = mc_start(*MC_FORMS[form])
        for name in ("palmenls", "palmnls"):
            cfg = variant_config(name, PalmConfig(max_iters=40, stop_tol=0.0))
            result = palm_run(prob, u0, v0, cfg)
            vcfg = result.extras["config"]
            state = start_state(prob, u0, v0, vcfg)[0]
            L1k, L2k1 = [], []
            for _ in range(40):
                y_k = state.y
                state, _, _ = palm_step(state, prob, vcfg)
                L1k.append(prob.L1(y_k))
                L2k1.append(prob.L2(state.x))
            assert list(result.meta["L1k"]) == L1k
            assert list(result.meta["L2k1"]) == L2k1
            assert result.extras["L_run"] == max([prob.L1(v0), prob.L2(u0)] + L1k + L2k1)

    def test_tau_lo_warning_once_from_the_run_estimate(self, monkeypatch):
        # planted factors scaled by 0.9: on seed 0 the moduli grow from 22.37
        # to 24.35 and pass a tau_lo just under the start's barrier, on
        # seed 0 at scale 0.95 they never pass the start's value. A run cut
        # by the backtrack cap at iteration 30 is checked over the 30
        # iterations it accepted before the error propagates
        def run(seed, scale, fail_at=None):
            inst = gen_mc(n1=20, n2=20, r_star=2, num_samples=200, sigma=0.01,
                          seed=seed, lam=0.01, r=2)
            prob = mc_problem(inst)
            u0, v0 = scale * inst.U_star, scale * inst.V_star
            L_start = max(prob.L1(v0), prob.L2(u0))
            cfg = PalmConfig(max_iters=40)
            tau_lo = 0.999 / (L_start + cfg.delta + 2.0 * cfg.alpha)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if fail_at is None:
                    result = palm_run(prob, u0, v0, replace(cfg, tau_lo=tau_lo))
                    assert len(result.records) == 41
                    return L_start, result.extras["L_run"], tau_lo, caught
                with pytest.raises(BacktrackCapError) as err:
                    palm_run(prob, u0, v0, replace(cfg, tau_lo=tau_lo))
                assert len(err.value.records) == fail_at + 1
                return caught

        L_start, L_run, tau_lo, caught = run(0, 0.9)
        assert L_run > L_start
        assert tau_lo >= 1.0 / (L_run + 0.01 + 2e-5)
        assert [str(w.message) for w in caught] == [
            "running Lipschitz estimate violates the tau_lo bound"]
        assert caught[0].category is RuntimeWarning
        L_start, L_run, _, caught = run(0, 0.95)
        assert L_run == L_start and caught == []

        step = palm_mod.palm_step

        def capped(state, problem, config):
            if state.k == 30:
                raise BacktrackCapError(state.k, config.max_backtracks, None)
            return step(state, problem, config)

        monkeypatch.setattr(palm_mod, "palm_step", capped)
        assert [str(w.message) for w in run(0, 0.9, fail_at=30)] == [
            "running Lipschitz estimate violates the tau_lo bound"]
        assert run(0, 0.95, fail_at=30) == []

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


def reference_palm(prob, x0, y0, cfg, iters, t0=1.0):
    """The line-search method with every gradient evaluated where it is
    used and every trial point extrapolated, x + beta*(x - x_prev) also at
    beta = 0, from Nesterov counters t0: records (k, objective, potential,
    step, witness, beta, tau1, tau2, backtracks, ell) as a reference for
    the reused gradients. The x trial gradient at beta > 0 is taken as
    `palm_step` takes it, from the gradients at (x, y) and (x_prev, y)
    (`x_trial_grad`): it differs from grad_x H(x~, y) in the last bits."""
    ups = prob.objective(x0, y0)[0]  # Upsilon at equal pairs
    window = deque([(0, ups)], maxlen=cfg.m + 1)
    x, y, xp, yp = x0.copy(), y0.copy(), x0.copy(), y0.copy()
    t_prev, t_cur = t0, t0
    taus = (None, None)
    out = [(0, ups, ups, 0.0, math.inf, 0.0, 0.0, 0.0, 0, 0)]
    for k in range(iters):
        beta0, t_next = nesterov_ref(t_prev, t_cur)
        beta0 = min(beta0, cfg.beta_max)
        if k >= 1:
            taus = bb_inits(prob, x, y, xp, yp, taus, cfg.tau_lo, cfg.tau_hi)
        else:
            taus = (min(max(cfg.tau1_0, cfg.tau_lo), cfg.tau_hi),
                    min(max(cfg.tau2_0, cfg.tau_lo), cfg.tau_hi))
        for l in range(cfg.max_backtracks + 1):
            beta = beta0 * cfg.eta**l
            tau1 = max(taus[0] * cfg.eta1**l, cfg.tau_lo)
            tau2 = max(taus[1] * cfg.eta2**l, cfg.tau_lo)
            xt = x + beta * (x - xp)
            gxt = x_trial_grad(prob, x, y, xp, beta)
            xn = prob.f.prox(xt - tau1 * gxt, tau1)
            yt = y + beta * (y - yp)
            yn = prob.g.prox(yt - tau2 * grad_y(prob, xn, yt), tau2)
            step_sq = _sq(xn - x) + _sq(yn - y) + _sq(x - xp) + _sq(y - yp)
            obj = prob.objective(xn, yn)[0]
            # Upsilon_delta = Psi + (delta/2)(||x^{k+1}-x^k||^2 + ||y^{k+1}-y^k||^2)
            ups = obj + 0.5 * cfg.delta * (_sq(xn - x) + _sq(yn - y))
            if accept(ups, window, cfg.alpha, step_sq):
                break
        wnorm = witness_norm(prob, xn, yn, x, y, xt, yt, tau1, tau2, cfg.delta, gxt)
        window.append((k + 1, ups))
        _, ell = window_max(window)
        out.append((k + 1, obj, ups, math.sqrt(step_sq), wnorm, beta, tau1, tau2, l, ell))
        x, y, xp, yp = xn, yn, x, y
        t_prev, t_cur = t_cur, t_next
    return out, (x, y)


def witness_norm(prob, x, y, x_prev, y_prev, xt, yt, tau1, tau2, delta,
                 gx_trial=None):
    """The witness norm of a step from (x_prev, y_prev) through (xt, yt) to
    (x, y), with its four gradients evaluated where they are used, or with
    the x trial gradient `gx_trial` where it is given."""
    _, gx, gy = prob.coupling(x, y)
    if gx_trial is None:
        gx_trial = grad_x(prob, xt, y_prev)
    return subgrad_witness_palm(
        (x, y), (xt, yt), (tau1, tau2), (gx(), gy()),
        (gx_trial, grad_y(prob, x, yt)), delta, (x - x_prev, y - y_prev))


def extrapolated(state, beta):
    """The points (x~, y~) a step from `state` took its prox steps at, from
    the record's beta, formed as palm_step forms them."""
    if beta == 0.0:
        return state.x, state.y
    return state.x + beta * state.dx, state.y + beta * state.dy


def reference_baseline(prob, x0, y0, cfg, extrapolate):
    """`palm_baseline_run` with every gradient evaluated where it is used:
    records (k, objective, step, witness, beta, tau1, tau2)."""
    x, y = x0.copy(), y0.copy()
    xp, yp = x.copy(), y.copy()
    t_prev, t_cur = 1.0, 1.0
    out = [(0, prob.objective(x, y)[0], 0.0, math.inf, 0.0, 0.0, 0.0)]
    for k in range(cfg.max_iters):
        if extrapolate:
            beta, t_next = nesterov_ref(t_prev, t_cur)
            beta = min(beta, cfg.beta_max)
        else:
            beta, t_next = 0.0, t_cur
        tau1 = 1.0 / max(prob.L1(y), 1e-12)
        xt = x + beta * (x - xp)
        xn = prob.f.prox(xt - tau1 * grad_x(prob, xt, y), tau1)
        tau2 = 1.0 / max(prob.L2(xn), 1e-12)
        yt = y + beta * (y - yp)
        yn = prob.g.prox(yt - tau2 * grad_y(prob, xn, yt), tau2)
        wnorm = witness_norm(prob, xn, yn, x, y, xt, yt, tau1, tau2, 0.0)
        step = math.sqrt(_sq(xn - x) + _sq(yn - y))
        x, y, xp, yp = xn, yn, x, y
        t_prev, t_cur = t_cur, t_next
        out.append((k + 1, prob.objective(x, y)[0], step, wnorm, beta, tau1, tau2))
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


class TestSecantTrialGradient:
    @pytest.mark.parametrize("form", sorted(MC_FORMS))
    def test_secant_x_trial_gradient(self, form):
        # every x trial with beta > 0, backtracks too, takes its prox step
        # from gx + beta*dhx, to the bit; that gradient matches a fresh
        # evaluation of grad_x H(x~, y^k) within 1e-13 relative. Every
        # other step starts from step sizes 100 times too long, so that it
        # backtracks
        inst, prob, u0, v0 = mc_start(*MC_FORMS[form])
        assert mc_oracle_form(inst.n1, inst.n2, inst.num_obs) == form
        prox_args = []

        def prox(v, tau):
            prox_args.append((v, tau))
            return prob.f.prox(v, tau)

        recording = replace(prob, f=SimpleNamespace(value=prob.f.value, prox=prox))
        vcfg = validated(prob, u0, v0)
        state = start_state(prob, u0, v0, vcfg)[0]
        checked, backtracked = 0, 0
        for k in range(40):
            prox_args.clear()
            if k % 2:
                state = replace(state, tau1_0=100.0 * state.tau1_0,
                                tau2_0=100.0 * state.tau2_0)
            prev = state
            state, rec, _ = palm_step(state, recording, vcfg)
            for l, (v, tau1) in enumerate(prox_args):
                beta, _, _ = backtrack_params(
                    l, prev.beta0, vcfg.eta, vcfg.tau_lo,
                    (prev.tau1_0, vcfg.eta1), (prev.tau2_0, vcfg.eta2))
                if beta == 0.0:
                    continue
                xt = prev.x + beta * prev.dx
                gx_trial = prev.gx + beta * prev.dhx
                assert np.array_equal(v, xt - tau1 * gx_trial)
                fresh = grad_x(prob, xt, prev.y)
                assert np.linalg.norm(gx_trial - fresh) <= 1e-13 * np.linalg.norm(fresh)
                checked += 1
                backtracked += l > 0
        assert checked > 30 and backtracked > 0


class TestZeroExtrapolationReuse:
    @pytest.mark.parametrize("form", sorted(MC_FORMS))
    @pytest.mark.parametrize("name", ["palmnls", "palmls", "palmenls"])
    def test_trace_equals_recomputation(self, name, form):
        inst, prob, u0, v0 = mc_start(*MC_FORMS[form])
        assert mc_oracle_form(inst.n1, inst.n2, inst.num_obs) == form
        cfg = variant_config(name, PalmConfig(max_iters=50, stop_tol=0.0))
        result = palm_run(prob, u0, v0, cfg)
        got = [(r.k, r.objective, r.potential, r.step_norm, r.witness_norm,
                r.beta, r.tau1, r.tau2, r.backtracks, r.ell) for r in result.records]
        ref, (x, y) = reference_palm(prob, u0, v0, result.extras["config"], 50)
        assert got == ref
        assert np.array_equal(result.x[0], x) and np.array_equal(result.x[1], y)

    @pytest.mark.parametrize("form", sorted(MC_FORMS))
    def test_constant_beta_trace_equals_recomputation(self, form):
        # beta_{k,0} = beta_max > 0 from k = 0 on, where x~ = x^0 + beta*0:
        # Nesterov counters that start at 10 give weights of 0.9 and more,
        # capped at beta_max
        inst, prob, u0, v0 = mc_start(*MC_FORMS[form])
        cfg = validated(prob, u0, v0, PalmConfig(beta_max=0.3))
        state, record = start_state(prob, u0, v0, cfg)
        state.t, state.beta0 = 10.0, min(nesterov_ref(10.0, 10.0)[0], cfg.beta_max)
        records, inits = [record], []
        for _ in range(50):
            state, record, init = palm_step(state, prob, cfg)
            records.append(record)
            inits.append(init["beta0"])
        got = [(r.k, r.objective, r.potential, r.step_norm, r.witness_norm,
                r.beta, r.tau1, r.tau2, r.backtracks, r.ell) for r in records]
        assert inits == [0.3] * 50 and got[1][5] > 0.0
        ref, (x, y) = reference_palm(prob, u0, v0, cfg, 50, t0=10.0)
        assert got == ref
        assert np.array_equal(state.x, x) and np.array_equal(state.y, y)

    @pytest.mark.parametrize("extrapolate, beta_max", [
        pytest.param(False, 1.0, id="False"),
        pytest.param(True, 1.0, id="True"),
        pytest.param(True, 0.3, id="True-beta_max-0.3"),
    ])
    def test_baseline_trace_equals_recomputation(self, extrapolate, beta_max):
        inst, prob, u0, v0 = mc_start(*MC_FORMS["dense"])
        cfg = PalmConfig(max_iters=50, stop_tol=0.0, beta_max=beta_max)
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
        cfg = PalmConfig(max_iters=1, stop_tol=0.0)
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
        cfg = PalmConfig(max_iters=10, stop_tol=0.0, beta_max=0.0)
        a = palm_baseline_run(prob, x0, y0, cfg, extrapolate=False)
        b = palm_baseline_run(prob, x0, y0, cfg, extrapolate=True)
        assert trace_csv_string(a.records, zero_times=True) == \
            trace_csv_string(b.records, zero_times=True)

    def test_bilinear_baseline_matches_hand_recursion(self):
        prob = bilinear_problem()
        x, y = np.array([0.3]), np.array([0.4])
        cfg = PalmConfig(max_iters=5, stop_tol=0.0)
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
            PalmConfig(delta=0.0).validated(1.0, 1.0)
        with pytest.raises(ValueError):
            PalmConfig(alpha=0.5, delta=0.01).validated(1.0, 1.0)
        with pytest.raises(ValueError):
            PalmConfig(tau_lo=10.0).validated(1.0, 1.0)
        for beta_max in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta_max"):
                PalmConfig(beta_max=beta_max).validated(1.0, 1.0)
        with pytest.raises(ValueError):
            variant_config("nope")

    def test_first_steps_from_start_moduli(self):
        # 100/L1(y^0) and 100/L2(x^0), a modulus of 0 taken as 1e-12; a
        # configured step size is kept
        cfg = PalmConfig().validated(4.0, 0.0)
        assert (cfg.tau1_0, cfg.tau2_0) == (100.0 / 4.0, 100.0 / 1e-12)
        cfg = PalmConfig(tau1_0=0.5).validated(4.0, 2.0)
        assert (cfg.tau1_0, cfg.tau2_0) == (0.5, 100.0 / 2.0)
