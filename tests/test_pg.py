"""Single-block line-search solver and FISTA baselines."""

import math
from dataclasses import replace

import numpy as np
import pytest

from testkit import f_grad, flat_problem, objective, quadratic_problem, trace_csv_string
from nmdesc.linalg import RngStream
from nmdesc.pg import (
    PgConfig,
    backtrack_bound_pg,
    bb_init_tau,
    fista_run,
    h2_constant_pg,
    nesterov_beta,
    pg_run,
    pg_step,
    potential_H,
    safe_beta_bound_pg,
    start_state,
    subgrad_witness_pg,
    variant_config,
)


class TestPotential:
    def test_delta_zero_is_objective(self):
        prob = quadratic_problem()
        x = np.array([1.0, 2.0])
        F = objective(prob, x)
        assert potential_H(F, x, np.zeros(2), 0.0) == F

    def test_equal_points_drop_coupling(self):
        prob = quadratic_problem()
        x = np.array([1.0, 2.0])
        F = objective(prob, x)
        assert potential_H(F, x, x, 0.3) == F

    def test_hand_value(self):
        prob = quadratic_problem(dim=2)
        x = np.array([1.0, 0.0])
        u = np.array([0.0, 0.0])
        assert potential_H(objective(prob, x), x, u, 0.4) == pytest.approx(0.7)


class TestNesterov:
    def test_seed_values(self):
        beta0, t1 = nesterov_beta(1.0, 1.0)
        assert beta0 == 0.0
        assert t1 == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)

    def test_second_beta_zero(self):
        _, t1 = nesterov_beta(1.0, 1.0)
        beta1, t2 = nesterov_beta(1.0, t1)
        assert beta1 == 0.0
        beta2, _ = nesterov_beta(t1, t2)
        assert beta2 == pytest.approx(0.2817, abs=1e-4)
        assert t2 == pytest.approx(2.1935, abs=1e-4)

    def test_counter_domain(self):
        with pytest.raises(ValueError):
            nesterov_beta(0.5, 1.0)


def grads(problem, x, x_prev):
    return f_grad(problem, x), f_grad(problem, x_prev)


class TestBbInit:
    def test_parallel_secant(self):
        # grad f = 2x and delta = 0: secant ratio is exactly 1/2
        prob = quadratic_problem(A=2.0 * np.eye(2))
        x1, x0 = np.array([1.0, 1.0]), np.array([0.0, 0.0])
        u = np.array([0.5, 0.5])
        tau = bb_init_tau((x1, u), (x0, u), grads(prob, x1, x0), 0.0, 1e-6, 1e6,
                          prev_tau=9.0)
        assert tau == pytest.approx(0.5, rel=1e-12)

    def test_zero_inner_product_guard(self):
        prob = flat_problem()
        x1, x0 = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        u = np.array([0.0, 0.0])
        tau = bb_init_tau((x1, u), (x0, u), grads(prob, x1, x0), 0.0, 1e-6, 1e6,
                          prev_tau=9.0)
        assert tau == 1e6

    def test_zero_displacement_returns_previous(self):
        prob = quadratic_problem()
        x = np.array([1.0, 2.0])
        u = np.array([0.0, 0.0])
        tau = bb_init_tau((x, u), (x, u), grads(prob, x, x), 0.1, 1e-6, 1e6,
                          prev_tau=7.0)
        assert tau == 7.0

    def test_matches_hand_formula(self):
        rng = RngStream(5)
        A = np.diag([1.0, 2.0, 3.0])
        prob = quadratic_problem(A=A)
        delta = 0.2
        x1, x0 = rng.standard_normal(3), rng.standard_normal(3)
        u1, u0 = rng.standard_normal(3), rng.standard_normal(3)
        dz = np.concatenate([x1 - x0, u1 - u0])
        g = lambda x, u: np.concatenate([A @ x + delta * (x - u), -delta * (x - u)])
        dzeta = g(x1, u1) - g(x0, u0)
        inner = float(dz @ dzeta)
        expected = max(
            min(float(dz @ dz) / inner, inner / float(dzeta @ dzeta), 1e6), 1e-6
        )
        tau = bb_init_tau((x1, u1), (x0, u0), grads(prob, x1, x0), delta, 1e-6, 1e6,
                          prev_tau=1.0)
        assert tau == pytest.approx(expected, rel=1e-12)


class TestPgStep:
    def test_fixed_point_accepted_immediately(self):
        prob = quadratic_problem()
        cfg = PgConfig().validated(prob.lipschitz)
        x0 = np.zeros(2)
        state = start_state(prob, x0, cfg)[0]
        new_state, rec, _ = pg_step(state, prob, cfg)
        assert rec.step_norm == 0.0
        assert rec.backtracks == 0
        assert np.array_equal(new_state.x, x0)
        assert rec.witness_norm == 0.0

    def test_gradient_step_closed_form(self):
        prob = quadratic_problem()
        tau = 1.0 / (2.0 * (1e-5 + 0.01) + 1.0 + 1.0)  # below the barrier
        cfg = PgConfig(beta_max=0.0, beta_rule="constant", tau0=tau)
        cfg = cfg.validated(prob.lipschitz)
        x0 = np.array([2.0, -1.0])
        state = start_state(prob, x0, cfg)[0]
        _, rec, init = pg_step(state, prob, cfg)
        assert init["tau0"] == tau
        expected = (1.0 - tau) * x0
        assert rec.step_norm == pytest.approx(
            np.linalg.norm(np.concatenate([expected - x0, x0 - x0]))
        )

    def test_huge_lambda_thresholds_everything(self):
        prob = quadratic_problem(lam=1e6)
        cfg = PgConfig().validated(prob.lipschitz)
        x0 = np.array([0.5, -0.25])
        state = start_state(prob, x0, cfg)[0]
        new_state, _, _ = pg_step(state, prob, cfg)
        assert np.array_equal(new_state.x, np.zeros(2))


class TestWitness:
    def test_fixed_point_witness_zero(self):
        prob = quadratic_problem()
        x = np.zeros(2)
        _, norm = subgrad_witness_pg(x, x, x, 0.1, f_grad(prob, x), f_grad(prob, x), 0.01)
        assert norm == 0.0

    def test_replay_recomputation_matches(self):
        prob = quadratic_problem(A=np.diag([1.0, 3.0]))
        cfg = PgConfig(max_iters=10, stop_tol=0.0).validated(prob.lipschitz)
        state = start_state(prob, np.array([1.0, -2.0]), cfg)[0]
        for _ in range(5):
            prev_x = state.x
            state, rec, _ = pg_step(state, prob, cfg)
            # independent recomputation from the logged quantities
            wa = (
                f_grad(prob, state.x)
                - f_grad(prob, state.y_last)
                - (state.x - state.y_last) / state.tau_last
                + cfg.delta * (state.x - prev_x)
            )
            wb = cfg.delta * (prev_x - state.x)
            norm = math.sqrt(float(wa @ wa) + float(wb @ wb))
            assert rec.witness_norm == pytest.approx(norm, rel=1e-12, abs=1e-15)

    def test_h2_bound_holds_on_quadratic_run(self):
        prob = quadratic_problem(A=np.diag([0.5, 2.0]), lam=0.01)
        cfg = PgConfig(max_iters=200)
        result = pg_run(prob, np.array([3.0, -4.0]), cfg)
        b = result.extras["h2_bound"]
        assert b == h2_constant_pg(result.extras["config"], prob.lipschitz)
        for rec in result.records[1:]:
            assert rec.witness_norm <= b * rec.step_norm + 1e-12


class TestSafeBetaBound:
    def test_vanishes_at_endpoints(self):
        assert safe_beta_bound_pg(1e-12, 1.0, 0.01) < 1e-6
        assert safe_beta_bound_pg(1.0, 1.0, 0.01) == 0.0

    def test_hand_value(self):
        val = safe_beta_bound_pg(0.25, 1.0, 0.01)
        expected = math.sqrt(0.01 * (0.25 - 0.0625) / (4.0 * (1.0 + 0.25) ** 2))
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.01732, abs=1e-5)

    def test_backtrack_counts_within_bound(self):
        prob = quadratic_problem(A=np.diag([1.0, 4.0]), lam=0.05)
        cfg = PgConfig(max_iters=100)
        result = pg_run(prob, np.array([2.0, 2.0]), cfg)
        vcfg = result.extras["config"]
        meta = result.meta
        assert len(meta["tau0"]) == len(result.records) - 1
        for rec, tau0, beta0 in zip(result.records[1:], meta["tau0"], meta["beta0"]):
            bound = backtrack_bound_pg(tau0, beta0, vcfg, prob.lipschitz)
            assert rec.backtracks <= bound


class TestRunAndVariants:
    def test_converges_on_quadratic(self):
        prob = quadratic_problem()
        result = pg_run(prob, np.array([1.0, 1.0]), PgConfig(max_iters=500))
        assert result.reason == "tolerance"
        assert np.linalg.norm(result.x) < 1e-6

    def test_h1_replay_from_trace(self):
        from nmdesc.diagnostics import verify_H1

        prob = quadratic_problem(lam=0.02)
        cfg = PgConfig(max_iters=100)
        result = pg_run(prob, np.array([2.0, -3.0]), cfg)
        vcfg = result.extras["config"]
        assert verify_H1(result.records, a=vcfg.alpha / 2.0, m=vcfg.m).passed

    def test_degeneration_equivalence(self):
        prob = quadratic_problem(lam=0.01)
        x0 = np.array([1.5, -0.5])
        via_variant = pg_run(prob, x0, variant_config("pgls", PgConfig(max_iters=50)))
        explicit = pg_run(
            prob, x0, PgConfig(delta=0.0, beta_max=0.0, m=0, max_iters=50)
        )
        assert trace_csv_string(via_variant.records, zero_times=True) == \
            trace_csv_string(explicit.records, zero_times=True)

    def test_pgls_stalls_on_desk_instance_103(self):
        # the monotone search meets a candidate that misses its bound by one
        # ulp while owing a decrease of 1e-29: the run stops at the last
        # accepted iterate instead of raising BacktrackCapError
        from nmdesc.diagnostics import verify_H1

        inst, prob = desk_logreg(103)
        base = PgConfig(max_iters=20000, stop_tol=1e-6,
                        tau0=10.0 / prob.operator_norm)
        result = pg_run(prob, np.zeros(inst.p + 1), variant_config("pgls", base))
        assert result.reason == "stalled"
        last = result.records[-1]
        assert 100 < last.k < 20000
        assert last.objective == objective(prob, result.x)
        cfg = result.extras["config"]
        assert verify_H1(result.records, a=cfg.alpha / 2.0, m=cfg.m).passed

    def test_config_validation(self):
        prob = quadratic_problem()
        with pytest.raises(ValueError):
            PgConfig(delta=0.0).validated(prob.lipschitz)  # needs beta_max=0, m=0
        with pytest.raises(ValueError):
            PgConfig(alpha=0.01, delta=0.01).validated(prob.lipschitz)
        with pytest.raises(ValueError):
            PgConfig(tau_min=10.0).validated(prob.lipschitz)
        with pytest.raises(ValueError):
            variant_config("nope")


class TestFista:
    def test_periodic_restart_resets_beta(self):
        # flat objective: the gradient trigger never fires (inner product 0),
        # so only the periodic reset can zero the weight
        prob = flat_problem()
        cfg = PgConfig(max_iters=260, stop_tol=-1.0)
        result = fista_run(prob, np.zeros(2), cfg, restart=True)
        betas = {r.k: r.beta for r in result.records}
        assert betas[250] > 0.9
        assert betas[251] == 0.0

    def test_no_restart_without_flag(self):
        prob = flat_problem()
        cfg = PgConfig(max_iters=260, stop_tol=-1.0)
        result = fista_run(prob, np.zeros(2), cfg)
        betas = {r.k: r.beta for r in result.records}
        assert betas[251] > 0.9

    def test_restarted_run_monotone_on_strongly_convex(self):
        prob = quadratic_problem(A=np.diag([1.0, 50.0]))
        cfg = PgConfig(max_iters=400)
        result = fista_run(prob, np.array([1.0, 1.0]), cfg, restart=True)
        objs = [r.objective for r in result.records]
        assert objs[-1] < 1e-10
        # gradient-descent oracle with the same step never beats the
        # restarted momentum method at the end
        x = np.array([1.0, 1.0])
        for _ in range(len(objs) - 1):
            x = x - (1.0 / prob.lipschitz) * f_grad(prob, x)
        assert objs[-1] <= objective(prob, x) + 1e-12


# -- one oracle evaluation per point ----------------------------------------------

def desk_logreg(seed=101):
    from nmdesc.problems import gen_logreg, logreg_problem

    inst = gen_logreg(n=200, p=2000, s=20, seed=seed, lam=1.0, mu=1e-3)
    return inst, logreg_problem(inst)


def small_logreg(seed=0):
    from nmdesc.problems import gen_logreg, logreg_problem

    inst = gen_logreg(n=60, p=300, s=5, seed=seed, lam=1.0, mu=1e-3)
    return inst, logreg_problem(inst)


def counting(problem):
    """The problem with its `smooth` oracle counted; returns (problem, log),
    where log gets one entry per evaluation: whether z was passed in."""
    log = []

    def smooth(x, z=None):
        log.append(z is not None)
        return problem.smooth(x, z)

    return replace(problem, smooth=smooth), log


def from_scratch(problem):
    """The problem without a linear image: every evaluation starts from x."""
    return replace(problem, smooth=lambda x, z=None: problem.smooth(x)[:2] + (None,))


def pg_steps(problem, cfg, x0, steps):
    """(state before, new state, record, init) for `steps` pg_step calls
    from the state pg_run starts with."""
    cfg = cfg.validated(problem.lipschitz)
    state, _ = start_state(problem, x0, cfg)
    out = []
    for _ in range(steps):
        new_state, rec, init = pg_step(state, problem, cfg)
        out.append((state, new_state, rec, init))
        state = new_state
    return cfg, out


def reference_fista(problem, x0, config, restart=False):
    """FISTA with every quantity evaluated where it is used, as a reference
    for the carried values of `fista_run`: objective records of (k, F, beta,
    step, witness)."""
    x = np.asarray(x0, dtype=np.float64).copy()
    x_prev = x.copy()
    tau = 1.0 / problem.lipschitz
    t_prev, t_cur = 1.0, 1.0
    out = [(0, objective(problem, x), 0.0, 0.0, math.inf)]
    for k in range(config.max_iters):
        beta, t_next = nesterov_beta(t_prev, t_cur)
        y = x if beta == 0.0 else x + beta * (x - x_prev)
        gy = f_grad(problem, y)
        x_new = problem.g_prox(y - tau * gy, tau)
        _, wnorm = subgrad_witness_pg(x_new, x, y, tau, f_grad(problem, x_new), gy, 0.0)
        step = math.sqrt(float((x_new - x) @ (x_new - x)))
        t_prev, t_cur = t_cur, t_next
        if restart and ((k + 1) % 250 == 0 or float((y - x_new) @ (x_new - x)) > 0.0):
            t_prev, t_cur = 1.0, 1.0
        x_prev, x = x, x_new
        out.append((k + 1, objective(problem, x), beta, step, wnorm))
    return out


class TestOracleEvaluations:
    @pytest.mark.parametrize("name", ["pgenls", "pgnls", "pgels", "pgls"])
    def test_evaluations_per_step(self, name):
        inst, prob = small_logreg()
        prob, log = counting(prob)
        base = PgConfig(max_iters=50, stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        cfg, steps = pg_steps(prob, variant_config(name, base),
                              np.zeros(inst.p + 1), 50)
        expected = 1  # the start point
        extrapolated = 0
        for _, _, rec, init in steps:
            trials = rec.backtracks + 1
            # one evaluation per trial candidate, one more at y when beta > 0
            with_y = trials if init["beta0"] > 0.0 else 0
            expected += trials + with_y
            extrapolated += with_y
        assert len(log) == expected
        # every evaluation at y gets the extrapolated margins
        assert sum(log) == extrapolated
        if name in ("pgnls", "pgls"):
            assert extrapolated == 0
        else:
            assert extrapolated > 0

    def test_run_evaluates_start_once(self):
        inst, prob = small_logreg()
        prob, log = counting(prob)
        result = pg_run(prob, np.zeros(inst.p + 1),
                        variant_config("pgnls", PgConfig(max_iters=20, stop_tol=0.0)))
        iters = len(result.records) - 1
        backtracks = sum(r.backtracks for r in result.records[1:])
        assert len(log) == 1 + iters + backtracks

    @pytest.mark.parametrize("restart", [False, True])
    def test_fista_evaluates_each_point_once(self, restart):
        inst, prob = small_logreg()
        prob, log = counting(prob)
        result = fista_run(prob, np.zeros(inst.p + 1),
                           PgConfig(max_iters=50, stop_tol=0.0), restart=restart)
        at_y = sum(1 for r in result.records[1:] if r.beta > 0.0)
        # the start, each new iterate, and y^k wherever it differs from x^k
        assert len(log) == 1 + 50 + at_y
        assert sum(log) == at_y


class TestCarriedValues:
    @pytest.mark.parametrize("name", ["pgnls", "pgls"])
    def test_pg_records_equal_recomputation(self, name):
        inst, prob = desk_logreg()
        base = PgConfig(stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        cfg, steps = pg_steps(prob, variant_config(name, base),
                              np.zeros(inst.p + 1), 50)
        for state, new, rec, _ in steps:
            F = objective(prob, new.x)
            assert rec.objective == F
            assert rec.potential == F + 0.5 * cfg.delta * float(
                (new.x - state.x) @ (new.x - state.x))
            assert np.array_equal(new.grad_x, f_grad(prob, new.x))
            _, wnorm = subgrad_witness_pg(
                new.x, state.x, new.y_last, new.tau_last,
                f_grad(prob, new.x), f_grad(prob, new.y_last), cfg.delta)
            assert rec.witness_norm == wnorm

    @pytest.mark.parametrize("restart", [False, True])
    def test_fista_trace_equals_recomputation(self, restart):
        # without a linear image, y^k is evaluated from y^k itself, so the
        # carried values must reproduce the reference bit for bit
        inst, prob = desk_logreg()
        prob = from_scratch(prob)
        cfg = PgConfig(max_iters=50, stop_tol=0.0)
        result = fista_run(prob, np.zeros(inst.p + 1), cfg, restart=restart)
        got = [(r.k, r.objective, r.beta, r.step_norm, r.witness_norm)
               for r in result.records]
        assert got == reference_fista(prob, np.zeros(inst.p + 1), cfg, restart)
        assert all(r.potential == r.objective for r in result.records)

    def test_extrapolated_margins_match_scratch_gradient(self):
        inst, prob = desk_logreg()
        worst = [0.0, 0.0]

        def smooth(x, z=None):
            value, grad, z_out = prob.smooth(x, z)
            if z is not None:
                _, grad_ref, z_ref = prob.smooth(x)
                worst[0] = max(worst[0], np.linalg.norm(z - z_ref) / np.linalg.norm(z_ref))
                worst[1] = max(worst[1], np.linalg.norm(grad - grad_ref)
                               / np.linalg.norm(grad_ref))
            return value, grad, z_out

        checked = replace(prob, smooth=smooth)
        base = PgConfig(stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        _, steps = pg_steps(checked, variant_config("pgenls", base),
                            np.zeros(inst.p + 1), 50)
        assert sum(init["beta0"] > 0.0 for _, _, _, init in steps) > 40
        assert 0.0 < worst[1] <= 1e-12
        assert worst[0] <= 1e-12
