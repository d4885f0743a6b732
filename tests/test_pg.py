"""Single-block line-search solver and FISTA baselines."""

import math
from dataclasses import replace

import numpy as np
import pytest

from testkit import (
    f_grad,
    flat_problem,
    nesterov_ref,
    objective,
    quadratic_problem,
    trace_csv_string,
    windowed,
)
from nmdesc import pg as pg_mod
from nmdesc.linalg import RngStream
from nmdesc.nls import nesterov
from nmdesc.pg import (
    PgConfig,
    backtrack_bound_pg,
    bb_init_tau,
    fista_run,
    h2_constant_pg,
    pg_run,
    pg_step,
    safe_beta_bound_pg,
    start_state,
    subgrad_witness_pg,
    variant_config,
)


class TestPotential:
    """The potential H_delta(z^k) = F(x^k) + (delta/2)*||x^k - x^{k-1}||^2
    that the records carry."""

    def test_delta_zero_is_objective(self):
        prob = quadratic_problem(A=np.diag([1.0, 3.0]), lam=0.01)
        result = pg_run(prob, np.array([3.0, -4.0]), variant_config("pgls"))
        assert len(result.records) > 2
        assert all(r.potential == r.objective for r in result.records)

    def test_equal_points_drop_coupling(self):
        prob = quadratic_problem()
        x = np.array([1.0, 2.0])
        cfg = PgConfig(delta=0.3, alpha=0.1).validated(prob.lipschitz)
        _, record = start_state(prob, x, cfg)
        assert record.potential == record.objective == objective(prob, x)

    def test_hand_value(self):
        # one gradient step of size 1/2 on 0.5*||x||^2 from (1, 0) lands at
        # (1/2, 0): F = 1/8, and the coupling adds 0.2*||(1/2, 0)||^2 = 1/20
        prob = quadratic_problem(dim=2)
        cfg = PgConfig(delta=0.4, beta_max=0.0, tau0=0.5).validated(prob.lipschitz)
        state, start = start_state(prob, np.array([1.0, 0.0]), cfg)
        _, rec = pg_step(state, start.potential, prob, cfg)
        assert rec.objective == pytest.approx(0.125)
        assert rec.potential == pytest.approx(0.175)


class TestNesterov:
    def test_seed_values(self):
        # the start state's counter 1 gives the second step's weight
        beta1, t1 = nesterov(1.0, 1.0)
        assert beta1 == 0.0
        assert t1 == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)

    def test_second_beta_zero(self):
        # steps 1 and 2 have weight 0, step 3 the first positive one
        beta1, t1 = nesterov(1.0, 1.0)
        assert beta1 == 0.0
        beta2, t2 = nesterov(t1, 1.0)
        assert beta2 == pytest.approx(0.2817, abs=1e-4)
        assert t2 == pytest.approx(2.1935, abs=1e-4)

    def test_counter_domain(self):
        with pytest.raises(ValueError):
            nesterov(0.5, 1.0)


def extrapolated(state, beta):
    """The point y^k a step from `state` took its prox step at, from the
    record's beta, formed as pg_step forms it."""
    if beta == 0.0:
        return state.x
    return state.x + beta * state.d


def bb_from_points(problem, x2, x1, x0, delta, prev_tau, tau_min=1e-6, tau_max=1e6):
    """`bb_init_tau` at z^{k+1} = (x2, x1) after z^k = (x1, x0), from the
    steps and squared norms pg_step forms and the difference of fresh
    gradients."""
    d, d_prev = x2 - x1, x1 - x0
    return bb_init_tau(d, float(d @ d), d_prev, float(d_prev @ d_prev),
                       f_grad(problem, x2) - f_grad(problem, x1), delta,
                       tau_min, tau_max, prev_tau=prev_tau)


class TestBbInit:
    def test_parallel_secant(self):
        # grad f = 2x and delta = 0: secant ratio is exactly 1/2
        prob = quadratic_problem(A=2.0 * np.eye(2))
        x1, x0 = np.array([1.0, 1.0]), np.array([0.0, 0.0])
        tau = bb_from_points(prob, x1, x0, x0, 0.0, prev_tau=9.0)
        assert tau == pytest.approx(0.5, rel=1e-12)

    def test_zero_inner_product_guard(self):
        prob = flat_problem()
        x1, x0 = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        tau = bb_from_points(prob, x1, x0, x0, 0.0, prev_tau=9.0)
        assert tau == 1e6

    def test_zero_displacement_returns_previous(self):
        prob = quadratic_problem()
        x = np.array([1.0, 2.0])
        tau = bb_from_points(prob, x, x, x, 0.1, prev_tau=7.0)
        assert tau == 7.0

    def test_matches_hand_formula(self):
        rng = RngStream(5)
        A = np.diag([1.0, 2.0, 3.0])
        prob = quadratic_problem(A=A)
        delta = 0.2
        x2, x1, x0 = (rng.standard_normal(3) for _ in range(3))
        dz = np.concatenate([x2 - x1, x1 - x0])
        g = lambda x, u: np.concatenate([A @ x + delta * (x - u), -delta * (x - u)])
        dzeta = g(x2, x1) - g(x1, x0)
        inner = float(dz @ dzeta)
        expected = max(
            min(float(dz @ dz) / inner, inner / float(dzeta @ dzeta), 1e6), 1e-6
        )
        tau = bb_from_points(prob, x2, x1, x0, delta, prev_tau=1.0)
        assert tau == pytest.approx(expected, rel=1e-12)


class TestPgStep:
    def test_fixed_point_accepted_immediately(self):
        prob = quadratic_problem()
        cfg = PgConfig().validated(prob.lipschitz)
        x0 = np.zeros(2)
        state, start = start_state(prob, x0, cfg)
        new_state, rec = pg_step(state, start.potential, prob, cfg)
        assert rec.step_norm == 0.0
        assert rec.backtracks == 0
        assert np.array_equal(new_state.x, x0)
        assert rec.witness_norm == 0.0

    def test_gradient_step_closed_form(self):
        prob = quadratic_problem()
        tau = 1.0 / (2.0 * (1e-5 + 0.01) + 1.0 + 1.0)  # below the barrier
        cfg = PgConfig(beta_max=0.0, tau0=tau)
        cfg = cfg.validated(prob.lipschitz)
        x0 = np.array([2.0, -1.0])
        state, start = start_state(prob, x0, cfg)
        _, rec = pg_step(state, start.potential, prob, cfg)
        assert state.tau0 == tau
        expected = (1.0 - tau) * x0
        assert rec.step_norm == pytest.approx(
            np.linalg.norm(np.concatenate([expected - x0, x0 - x0]))
        )

    def test_huge_lambda_thresholds_everything(self):
        prob = quadratic_problem(lam=1e6)
        cfg = PgConfig().validated(prob.lipschitz)
        x0 = np.array([0.5, -0.25])
        state, start = start_state(prob, x0, cfg)
        new_state, _ = pg_step(state, start.potential, prob, cfg)
        assert np.array_equal(new_state.x, np.zeros(2))


class TestWitness:
    def test_fixed_point_witness_zero(self):
        prob = quadratic_problem()
        x = np.zeros(2)
        norm = subgrad_witness_pg(f_grad(prob, x) - f_grad(prob, x), x - x, 0.0, 0.1, 0.01,
                                  0.0, x - x)
        assert norm == 0.0

    def test_replay_recomputation_matches(self):
        prob = quadratic_problem(A=np.diag([1.0, 3.0]))
        cfg = PgConfig(max_iters=10, stop_tol=0.0).validated(prob.lipschitz)
        state, start = start_state(prob, np.array([1.0, -2.0]), cfg)
        step = windowed(pg_step, start, cfg.m, prob, cfg)
        for _ in range(5):
            prev = state
            prev_x = prev.x
            state, rec = step(state)
            # independent recomputation from the logged quantities
            y = extrapolated(prev, rec.beta)
            wa = (
                f_grad(prob, state.x)
                - f_grad(prob, y)
                - (state.x - y) / rec.tau1
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
        # the stalled step adds no initializations: one per accepted step
        assert list(result.meta) == ["beta0", "tau0"]
        assert all(len(col) == last.k for col in result.meta.values())

    def test_config_validation(self):
        prob = quadratic_problem()
        with pytest.raises(ValueError):
            PgConfig(delta=0.0).validated(prob.lipschitz)  # needs beta_max=0, m=0
        with pytest.raises(ValueError):
            PgConfig(alpha=0.01, delta=0.01).validated(prob.lipschitz)
        with pytest.raises(ValueError):
            PgConfig(tau_min=10.0).validated(prob.lipschitz)
        for beta_max in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta_max"):
                PgConfig(beta_max=beta_max).validated(prob.lipschitz)
        with pytest.raises(ValueError):
            variant_config("nope")


class TestFista:
    def test_periodic_restart_resets_beta(self):
        # flat objective: the gradient trigger never fires (inner product 0),
        # so only the periodic reset can zero the weight
        prob = flat_problem()
        cfg = PgConfig(max_iters=260, stop_tol=0.0)
        result = fista_run(prob, np.zeros(2), cfg, restart=True)
        betas = {r.k: r.beta for r in result.records}
        assert betas[250] > 0.9
        assert betas[251] == 0.0

    def test_no_restart_without_flag(self):
        prob = flat_problem()
        cfg = PgConfig(max_iters=260, stop_tol=0.0)
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
    """The problem with its `smooth` oracle counted; returns (problem, log,
    asked), where log gets one entry per evaluation, whether z was passed
    in, and asked one per gradient product asked of an evaluation, whether
    it carried a look-ahead point (which it forwards)."""
    log, asked = [], []

    def smooth(x, z=None):
        log.append(z is not None)
        value, grad, z_out = problem.smooth(x, z)

        def counted_grad(ahead=None):
            asked.append(ahead is not None)
            return grad() if ahead is None else grad(ahead)

        return value, counted_grad, z_out

    return replace(problem, smooth=smooth), log, asked


def from_scratch(problem):
    """The problem without a linear image: every evaluation starts from its
    point, and a look-ahead point is evaluated on its own."""

    def smooth(x, z=None):
        value, grad, _ = problem.smooth(x)

        def grad_from_scratch(ahead=None):
            if ahead is None:
                return grad()
            return grad(), problem.smooth(ahead[0])[1]()

        return value, grad_from_scratch, None

    return replace(problem, smooth=smooth)


def pg_steps(problem, cfg, x0, steps):
    """(state before, new state, record) for `steps` pg_step calls from the
    state pg_run starts with."""
    cfg = cfg.validated(problem.lipschitz)
    state, start = start_state(problem, x0, cfg)
    step = windowed(pg_step, start, cfg.m, problem, cfg)
    out = []
    for _ in range(steps):
        new_state, rec = step(state)
        out.append((state, new_state, rec))
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
        beta, t_next = nesterov_ref(t_prev, t_cur)
        y = x if beta == 0.0 else x + beta * (x - x_prev)
        gy = f_grad(problem, y)
        x_new, _ = problem.g.prox(y - tau * gy, tau)
        step_sq = float((x_new - x) @ (x_new - x))
        wnorm = subgrad_witness_pg(f_grad(problem, x_new) - gy, x_new - x, step_sq, tau,
                                   0.0, beta, x - x_prev)
        step = math.sqrt(step_sq)
        t_prev, t_cur = t_cur, t_next
        if restart and ((k + 1) % 250 == 0 or float((y - x_new) @ (x_new - x)) > 0.0):
            t_prev, t_cur = 1.0, 1.0
        x_prev, x = x, x_new
        out.append((k + 1, objective(problem, x), beta, step, wnorm))
    return out


def counted_steps(problem, cfg, x0, steps):
    """`pg_steps` on the `counting` view of the problem, with each step's
    own counts: (state before, new state, record, counts), where counts =
    (evaluations, evaluations given z, gradient products, products with a
    look-ahead point)."""
    prob, log, asked = counting(problem)
    cfg = cfg.validated(prob.lipschitz)
    state, start = start_state(prob, x0, cfg)
    assert (len(log), len(asked)) == (1, 1)  # the start point
    step = windowed(pg_step, start, cfg.m, prob, cfg)
    out = []
    for _ in range(steps):
        del log[:], asked[:]
        new_state, rec = step(state)
        counts = (len(log), sum(log), len(asked), sum(asked))
        out.append((state, new_state, rec, counts))
        state = new_state
    return cfg, out


def assert_exact_step_counts(cfg, steps):
    """Each step evaluates each trial candidate once and y only at trials
    l >= 1 with beta > 0 (from the extrapolated margins); it asks one
    gradient product at the accepted candidate, carrying the look-ahead
    point exactly when the next step's beta0 > 0, and one per y it
    evaluated. Each step's beta0, and the beta its record shows, equal, bit
    for bit, those of the two-counter recurrence capped at beta_max.
    Returns the number of y evaluations."""
    at_y = 0
    t_prev, t_cur = 1.0, 1.0
    for state, new, rec, counts in steps:
        beta0, t_next = nesterov_ref(t_prev, t_cur)
        beta0 = min(beta0, cfg.beta_max)
        t_prev, t_cur = t_cur, t_next
        assert state.beta0 == beta0
        assert rec.beta == beta0 * cfg.eta1**rec.backtracks
        trials = rec.backtracks + 1
        with_y = rec.backtracks if beta0 > 0.0 else 0
        ahead = new.beta0 > 0.0
        assert (new.ahead is not None) == ahead
        assert counts == (trials + with_y, with_y, 1 + with_y, int(ahead))
        at_y += with_y
    return at_y


class TestOracleEvaluations:
    @pytest.mark.parametrize("name, beta_max", [
        *(pytest.param(name, 1.0, id=name)
          for name in ("pgenls", "pgnls", "pgels", "pgls")),
        pytest.param("pgenls", 0.3, id="pgenls-beta_max-0.3"),
    ])
    def test_evaluations_per_step(self, name, beta_max):
        inst, prob = small_logreg()
        base = PgConfig(max_iters=50, stop_tol=0.0, tau0=10.0 / prob.operator_norm,
                        beta_max=beta_max)
        cfg, steps = counted_steps(prob, variant_config(name, base),
                                   np.zeros(inst.p + 1), 50)
        assert_exact_step_counts(cfg, steps)
        if beta_max < 1.0:  # the cap decides most weights
            assert sum(state.beta0 == beta_max for state, *_ in steps) > 40
        look_aheads = sum(counts[3] for *_, counts in steps)
        if name in ("pgnls", "pgls"):
            assert look_aheads == 0
        else:
            # an accepted first trial with beta > 0: one product, no y
            first = [counts for state, _, rec, counts in steps
                     if state.beta0 > 0.0 and rec.backtracks == 0]
            assert first and all(c[:3] == (1, 0, 1) for c in first)
            assert look_aheads > 40

    def test_gradients_only_where_used(self):
        # a rejected candidate's gradient is never asked for: one product
        # at the start, one per accepted candidate, one per y evaluated
        inst, prob = desk_logreg()
        base = PgConfig(stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        cfg, steps = counted_steps(prob, variant_config("pgenls", base),
                                   np.zeros(inst.p + 1), 50)
        rejected = sum(rec.backtracks for _, _, rec, _ in steps)
        at_y = assert_exact_step_counts(cfg, steps)
        assert rejected > 0 and at_y > 0
        assert sum(counts[2] for *_, counts in steps) == len(steps) + at_y

    @pytest.mark.parametrize("name", ["pgnls", "pgls"])
    def test_no_look_ahead_without_extrapolation(self, name):
        inst, prob = desk_logreg()
        prob, log, asked = counting(prob)
        base = PgConfig(stop_tol=1e-6, tau0=10.0 / prob.operator_norm)
        result = pg_run(prob, np.zeros(inst.p + 1), variant_config(name, base))
        assert result.reason == "tolerance"
        assert len(asked) == len(result.records) and not any(asked)
        assert not any(log)

    def test_bb_init_once_per_step_evaluating_nothing(self, monkeypatch):
        # the step that accepts x^{k+1} decides the next tau0 from what it
        # holds: one call per accepted step, the last one included, with no
        # evaluation and no gradient product inside it
        inst, prob = small_logreg()
        prob, log, asked = counting(prob)
        bb, inits = pg_mod.bb_init_tau, []

        def counted_init(*args, **kwargs):
            before = (len(log), len(asked))
            tau = bb(*args, **kwargs)
            inits.append(before == (len(log), len(asked)))
            return tau

        monkeypatch.setattr(pg_mod, "bb_init_tau", counted_init)
        result = pg_run(prob, np.zeros(inst.p + 1),
                        variant_config("pgenls", PgConfig(max_iters=30, stop_tol=0.0)))
        assert len(result.records) == 31 and inits == [True] * 30

    def test_run_evaluates_start_once(self):
        inst, prob = small_logreg()
        prob, log, _ = counting(prob)
        result = pg_run(prob, np.zeros(inst.p + 1),
                        variant_config("pgnls", PgConfig(max_iters=20, stop_tol=0.0)))
        iters = len(result.records) - 1
        backtracks = sum(r.backtracks for r in result.records[1:])
        assert len(log) == 1 + iters + backtracks

    @pytest.mark.parametrize("name", ["pgenls", "pgnls", "pgels", "pgls", "fista"])
    def test_regularizer_value_at_start_and_weights_only_for_gradients(
            self, name, monkeypatch):
        # each prox returns g's value at its point, so `ProxSpec.value` runs
        # once per run, at the start point, never per trial; the logistic
        # weights are formed once per gradient product asked (the
        # look-ahead's two columns in one call), so a rejected trial, whose
        # gradient is never asked for, forms none
        from nmdesc import kernels, prox

        values, weights = [], []
        value, logistic_weights = prox.ProxSpec.value, kernels.logistic_weights

        def counted_value(spec, x):
            values.append(len(x))
            return value(spec, x)

        def counted_weights(*args, **kwargs):
            weights.append(args[0].shape)
            return logistic_weights(*args, **kwargs)

        monkeypatch.setattr(prox.ProxSpec, "value", counted_value)
        monkeypatch.setattr(kernels, "logistic_weights", counted_weights)
        inst, prob = desk_logreg()
        prob, log, asked = counting(prob)
        cfg = PgConfig(max_iters=50, stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        if name == "fista":
            result = fista_run(prob, np.zeros(inst.p + 1), cfg)
        else:
            result = pg_run(prob, np.zeros(inst.p + 1), variant_config(name, cfg))
        assert len(result.records) == 51
        assert values == [inst.p + 1]
        assert weights == [(inst.n, 2) if ahead else (inst.n,) for ahead in asked]
        # one call at the start, one per accepted point and one per y
        # evaluated at a backtrack (the evaluations given z); none for the
        # rejected candidates
        rejected = sum(r.backtracks for r in result.records[1:])
        assert len(weights) == 1 + 50 + sum(log)
        assert (rejected > 0) == (name != "fista")

    @pytest.mark.parametrize("restart", [False, True])
    def test_fista_evaluates_each_point_once(self, restart):
        inst, prob = small_logreg()
        counted, log, asked = counting(prob)
        result = fista_run(counted, np.zeros(inst.p + 1),
                           PgConfig(max_iters=50, stop_tol=0.0), restart=restart)
        # the weights of steps 2..51: step k asked for the look-ahead at
        # y^{k+1} exactly when beta_{k+1} > 0 (step 51 from a longer run)
        longer = fista_run(prob, np.zeros(inst.p + 1),
                           PgConfig(max_iters=51, stop_tol=0.0), restart=restart)
        betas = [r.beta for r in longer.records[2:]]
        # the start and each new iterate, never y^k; one gradient product
        # at each, with y^{k+1} wherever it differs from x^{k+1}
        assert len(log) == 1 + 50 and not any(log)
        assert len(asked) == 1 + 50
        assert asked == [False] + [beta > 0.0 for beta in betas]
        if restart:
            assert 0.0 in betas


class TestCarriedValues:
    @pytest.mark.parametrize("name", ["pgnls", "pgls"])
    def test_pg_records_equal_recomputation(self, name):
        inst, prob = desk_logreg()
        base = PgConfig(stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        cfg, steps = pg_steps(prob, variant_config(name, base),
                              np.zeros(inst.p + 1), 50)
        x_prev = steps[0][0].x  # z^0 = (x0, x0)
        for state, new, rec in steps:
            F = objective(prob, new.x)
            assert rec.objective == F
            assert rec.potential == F + 0.5 * cfg.delta * float(
                (new.x - state.x) @ (new.x - state.x))
            assert np.array_equal(new.grad_x, f_grad(prob, new.x))
            y = extrapolated(state, rec.beta)
            step = new.x - state.x
            wnorm = subgrad_witness_pg(f_grad(prob, new.x) - f_grad(prob, y), step,
                                       float(step @ step), rec.tau1, cfg.delta,
                                       rec.beta, state.d)
            assert rec.witness_norm == wnorm
            assert new.tau0 == bb_from_points(prob, new.x, state.x, x_prev, cfg.delta,
                                              state.tau0, cfg.tau_min, cfg.tau_max)
            x_prev = state.x

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

    @pytest.mark.parametrize("size, drop_margins", [
        ("small", False),  # 60 x 301: dense margins
        ("desk", False),   # 200 x 2001: margins over the support
        ("desk", True),    # no z_y: the problem forms y's margins itself
    ])
    def test_look_ahead_matches_fresh_gradients(self, size, drop_margins):
        inst, prob = desk_logreg() if size == "desk" else small_logreg()
        worst, seen = [0.0, 0.0], []

        def rel(g, ref):
            return np.linalg.norm(g - ref) / np.linalg.norm(ref)

        def smooth(x, z=None):
            value, grad, z_out = prob.smooth(x, z)

            def checked_grad(ahead=None):
                if ahead is None:
                    return grad()
                y, z_y = ahead
                gx, gy = grad((y, None if drop_margins else z_y))
                worst[0] = max(worst[0], rel(gx, f_grad(prob, x)))
                worst[1] = max(worst[1], rel(gy, f_grad(prob, y)))
                seen.append(z_y is not None)
                return gx, gy

            return value, checked_grad, z_out

        checked = replace(prob, smooth=smooth)
        base = PgConfig(stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        pg_steps(checked, variant_config("pgenls", base), np.zeros(inst.p + 1), 50)
        # the solver always has y's margins to give
        assert len(seen) > 40 and all(seen)
        assert worst[0] <= 1e-13 and worst[1] <= 1e-13

    def test_extrapolated_margins_match_scratch_gradient(self):
        inst, prob = desk_logreg()
        worst = [0.0, 0.0]

        def smooth(x, z=None):
            value, grad, z_out = prob.smooth(x, z)
            if z is not None:
                _, grad_ref, z_ref = prob.smooth(x)
                worst[0] = max(worst[0], np.linalg.norm(z - z_ref) / np.linalg.norm(z_ref))
                g, g_ref = grad(), grad_ref()
                worst[1] = max(worst[1], np.linalg.norm(g - g_ref) / np.linalg.norm(g_ref))
            return value, grad, z_out

        checked = replace(prob, smooth=smooth)
        base = PgConfig(stop_tol=0.0, tau0=10.0 / prob.operator_norm)
        _, steps = pg_steps(checked, variant_config("pgenls", base),
                            np.zeros(inst.p + 1), 50)
        assert sum(state.beta0 > 0.0 for state, _, _ in steps) > 40
        assert 0.0 < worst[1] <= 1e-12
        assert worst[0] <= 1e-12
