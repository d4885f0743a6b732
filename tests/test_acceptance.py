"""End-to-end acceptance suite.

Runs both solver families on seeded desk-scale instances and checks the
descent and relative-error invariants on every accepted trace, the
line-search effort bound, prox and gradient oracles, tail decay rates,
partial-sum flattening, the qualitative variant comparisons, and replay
determinism of the benchmark harness. The whole module is budgeted to
finish in well under ten minutes on a small machine.
"""

import math
import time
import warnings

import numpy as np
import pytest

from nmdesc.cli import main
from nmdesc.diagnostics import (
    RATE_COLUMNS,
    classify_ksets,
    condition_partial_sums,
    fit_rate,
    rate_fit_tail,
    verify_H1,
    verify_H2,
)
from nmdesc.linalg import RngStream
from nmdesc.nls import BacktrackCapError
from nmdesc.palm import (
    PalmConfig,
    backtrack_bound_palm,
    palm_baseline_run,
    palm_run,
)
from nmdesc.palm import variant_config as palm_variant
from nmdesc.pg import PgConfig, backtrack_bound_pg, pg_run
from nmdesc.pg import variant_config as pg_variant
from nmdesc.problems import (
    gen_logreg,
    gen_mc,
    logreg_problem,
    logreg_value_grad,
    mc_oracle_form,
    mc_problem,
    sparsity_metrics,
)
from nmdesc.prox import ProxSpec, prox_l0, prox_objective, prox_ridge_l20_columns
from nmdesc.trace import write_trace_csv

SEEDS = range(100, 120)


def logreg_run(seed, lam, mu, stop_tol, max_iters, variant="pgenls"):
    """One classification run at the shared desk scale (n=200, p=2000)."""
    inst = gen_logreg(n=200, p=2000, s=20, seed=seed, lam=lam, mu=mu)
    prob = logreg_problem(inst, lam=lam)
    # tau0 = 10/||A~||, as `nmdesc run` takes it
    cfg = pg_variant(variant, PgConfig(max_iters=max_iters,
                                       tau0=10.0 / prob.operator_norm, stop_tol=stop_tol))
    return prob, pg_run(prob, np.zeros(inst.p + 1), cfg)


def mc_start(inst, seed):
    rng = RngStream(seed).spawn(1)
    u0 = rng.standard_normal((inst.n1, inst.r)) / math.sqrt(inst.r)
    v0 = rng.standard_normal((inst.n2, inst.r)) / math.sqrt(inst.r)
    return u0, v0


@pytest.fixture(scope="module")
def pg_suite():
    """Twenty seeded runs of the extrapolated nonmonotone method on the
    classification family; shared across the invariant checks below."""
    out = []
    for seed in SEEDS:
        prob, res = logreg_run(seed, lam=1.0, mu=1e-3,
                               stop_tol=1e-6, max_iters=4000)
        assert res.reason == "tolerance"
        out.append((prob, res))
    return out


@pytest.fixture(scope="module")
def palm_suite():
    """Twenty seeded alternating runs on the completion family
    (200 x 200, planted rank 5, factor width 10)."""
    out = []
    for seed in SEEDS:
        inst = gen_mc(n1=200, n2=200, r_star=5, num_samples=8000,
                      sigma=0.1, seed=seed, lam=1.0)
        prob = mc_problem(inst)
        u0, v0 = mc_start(inst, seed)
        cfg = palm_variant("palmenls", PalmConfig(max_iters=150))
        out.append((prob, palm_run(prob, u0, v0, cfg)))
    return out


class TestProxEnumeration:
    """Closed-form prox outputs against exhaustive support search."""

    def test_vector_prox_500_instances(self):
        start = time.perf_counter()
        rng = RngStream(2024)
        for trial in range(500):
            d = 1 + trial % 12
            v = rng.standard_normal(d)
            tau = float(rng.uniform(0.05, 3.0))
            lam = float(rng.uniform(0.0, 1.5))
            spec = ProxSpec(kind="l0_vector", lam=lam)
            out = prox_l0(v, tau, spec)
            masks = ((np.arange(2**d)[:, None] >> np.arange(d)) & 1) == 1
            objs = (np.where(masks, 0.0, v * v).sum(axis=1) / (2.0 * tau)
                    + lam * masks.sum(axis=1))
            best = int(np.argmin(objs))
            assert np.array_equal(out != 0.0, masks[best])
            got = prox_objective(out, v, tau, spec)
            assert got <= objs[best] * (1.0 + 1e-12) + 1e-15
        assert time.perf_counter() - start < 10.0

    def test_column_prox_500_instances(self):
        start = time.perf_counter()
        rng = RngStream(2025)
        for trial in range(500):
            rows = 1 + trial % 5
            cols = 1 + trial % 6
            V = rng.standard_normal(rows * cols).reshape(rows, cols)
            tau = float(rng.uniform(0.05, 3.0))
            lam = float(rng.uniform(0.0, 1.5))
            mu = float(rng.uniform(0.0, 0.5))
            spec = ProxSpec(kind="ridge_l20_columns", lam=lam, mu=mu)
            out = prox_ridge_l20_columns(V, tau, spec)
            shrink = 1.0 / (1.0 + tau * mu)
            masks = ((np.arange(2**cols)[:, None] >> np.arange(cols)) & 1) == 1
            colsq = np.sum(V * V, axis=0)
            # per kept column the restricted minimizer is shrink * column
            kept_cost = (colsq * (shrink - 1.0) ** 2 / (2.0 * tau)
                         + 0.5 * mu * shrink**2 * colsq + lam)
            dropped_cost = colsq / (2.0 * tau)
            objs = np.where(masks, kept_cost, dropped_cost).sum(axis=1)
            best = int(np.argmin(objs))
            assert np.array_equal(np.any(out != 0.0, axis=0), masks[best])
            got = prox_objective(out, V, tau, spec)
            assert got <= objs[best] * (1.0 + 1e-12) + 1e-15
        assert time.perf_counter() - start < 10.0


def test_sufficient_decrease_holds_on_all_traces(pg_suite, palm_suite):
    for prob, res in list(pg_suite) + list(palm_suite):
        cfg = res.extras["config"]
        report = verify_H1(res.records, a=cfg.alpha / 2.0, m=cfg.m)
        assert report.passed
        assert report.first_violation is None
        assert report.checked == len(res.records) - 1


def test_relative_error_bound_holds_on_all_traces(pg_suite, palm_suite):
    worst = 0.0
    for prob, res in list(pg_suite) + list(palm_suite):
        b = res.extras["h2_bound"]
        report = verify_H2(res.records, b=b)
        assert report.passed
        assert report.max_ratio <= b
        worst = max(worst, report.max_ratio / b)
    print(f"largest witness ratio at {worst:.3e} of its bound")


def test_backtrack_counts_stay_within_bound(pg_suite, palm_suite):
    for prob, res in pg_suite:
        cfg = res.extras["config"]
        backtracks = [r.backtracks for r in res.records[1:]]
        assert len(res.meta["tau0"]) == len(backtracks)
        for l, tau0, beta0 in zip(backtracks, res.meta["tau0"], res.meta["beta0"]):
            assert l <= backtrack_bound_pg(tau0, beta0, cfg, prob.lipschitz)
    for prob, res in palm_suite:
        cfg = res.extras["config"]
        backtracks = [r.backtracks for r in res.records[1:]]
        assert len(res.meta["beta0"]) == len(backtracks)
        columns = (res.meta[key] for key in ("tau1_0", "tau2_0", "beta0", "L1k", "L2k1"))
        for l, tau1_0, tau2_0, beta0, L1k, L2k1 in zip(backtracks, *columns):
            assert l <= backtrack_bound_palm(tau1_0, tau2_0, beta0, cfg, L1k, L2k1)


class TestGradientProbes:
    """Central finite differences along random unit directions."""

    def test_logistic_gradient(self):
        start = time.perf_counter()
        inst = gen_logreg(n=40, p=60, s=5, seed=7, lam=0.5, mu=1e-2)
        rng = RngStream(11)
        h = 1e-6
        for _ in range(100):
            x = rng.standard_normal(inst.p + 1)
            d = rng.standard_normal(inst.p + 1)
            d /= np.linalg.norm(d)
            fp, _ = logreg_value_grad(x + h * d, inst)
            fm, _ = logreg_value_grad(x - h * d, inst)
            g = logreg_value_grad(x, inst)[1]()
            exact = float(g @ d)
            assert abs((fp - fm) / (2.0 * h) - exact) <= 1e-5 * max(1.0, abs(exact))
        assert time.perf_counter() - start < 30.0

    def test_completion_gradients(self):
        # the coupling oracle the solvers call, in both forms:
        # 80 draws on 15 x 12 take the dense form, 80 on 60 x 50 the
        # sorted-segment form
        start = time.perf_counter()
        for n1, n2, form in ((15, 12, "dense"), (60, 50, "segment")):
            inst = gen_mc(n1=n1, n2=n2, r_star=2, num_samples=80, sigma=0.1,
                          seed=3)
            assert mc_oracle_form(n1, n2, inst.num_obs) == form
            prob = mc_problem(inst)
            rng = RngStream(13)
            h = 1e-6
            for _ in range(100):
                U = rng.standard_normal(inst.n1 * inst.r).reshape(inst.n1, inst.r)
                V = rng.standard_normal(inst.n2 * inst.r).reshape(inst.n2, inst.r)
                dU = rng.standard_normal(U.size).reshape(U.shape)
                dV = rng.standard_normal(V.size).reshape(V.shape)
                scale = math.sqrt(float(np.sum(dU * dU) + np.sum(dV * dV)))
                dU /= scale
                dV /= scale
                hp = prob.coupling(U + h * dU, V + h * dV)[0]
                hm = prob.coupling(U - h * dU, V - h * dV)[0]
                _, grad_x, grad_y = prob.coupling(U, V)
                gU, gV = grad_x(), grad_y()
                exact = float(np.sum(gU * dU) + np.sum(gV * dV))
                assert abs((hp - hm) / (2.0 * h) - exact) <= 1e-5 * max(1.0, abs(exact))
        assert time.perf_counter() - start < 30.0


class TestTailRates:
    def test_geometric_tail_on_most_seeds(self, pg_suite):
        ok = 0
        for prob, res in pg_suite:
            tail = rate_fit_tail(*map(res.records.column, RATE_COLUMNS))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    fit = fit_rate(tail, "linear")
                except ValueError:
                    continue
            ok += fit.r_squared >= 0.9
        assert ok >= 16

    def test_fit_recovers_planted_rates(self):
        gaps = 1000.0 * 0.92 ** np.arange(1, 301)
        fit = fit_rate(gaps, "linear")
        assert abs(fit.rate - 0.92) <= 0.02 * 0.92
        k = np.arange(1, 301, dtype=np.float64)
        fit = fit_rate(k**-2.0, "sublinear")
        assert abs(fit.theta - 0.6) <= 0.02 * 0.6


@pytest.mark.parametrize("lam", [0.01, 10.0])
def test_partial_sum_curve_flattens(lam, tmp_path, capsys):
    prob, res = logreg_run(100, lam=lam, mu=1e-3,
                           stop_tol=1e-9, max_iters=12000)
    cfg = res.extras["config"]
    report = classify_ksets(res.records, a=cfg.alpha / 2.0, theta=0.5,
                            m=cfg.m)
    sums = condition_partial_sums(res.records, report)
    k1 = sums["k1_partial"]
    assert np.all(np.isfinite(k1))
    assert k1[-1] <= sums["reference"][-1]
    assert k1[-1] - k1[-2] < 1e-6

    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), res.records)
    prefix = str(tmp_path / "diag")
    assert main(["diag", str(trace), "--b", "1e9",
                 "--out-prefix", prefix]) == 0
    capsys.readouterr()
    with open(prefix + "_partial_sums.svg") as f:
        svg = f.read()
    assert "K1 partial sum" in svg
    assert "reference 3000/sqrt(k^2.1)" in svg


def best_objective(records):
    return min(r.objective for r in records)


def test_nonmonotone_window_wins_at_small_penalty():
    """At a small sparsity weight the windowed acceptance reaches at least
    as good an objective as the single-step variant on most seeds."""
    wins = 0
    for seed in SEEDS:
        best = {}
        for name in ("pgenls", "pgels"):
            try:
                prob, res = logreg_run(seed, lam=0.1, mu=1e-3,
                                       stop_tol=1e-5, max_iters=4000,
                                       variant=name)
                records = res.records
            except BacktrackCapError as e:
                records = e.records
            best[name] = best_objective(records)
        wins += best["pgenls"] <= best["pgels"]
    assert wins >= 12


def factor_cols(res):
    metrics = sparsity_metrics(factors=res.x)
    return max(metrics["cols_U"], metrics["cols_V"])


def test_nonmonotone_alternating_finds_lower_column_counts():
    """With a mid-range column penalty the line-search variants settle on
    factorizations with at most as many active columns as the fixed-step
    baselines on most seeds."""
    wins = 0
    for seed in SEEDS:
        inst = gen_mc(n1=200, n2=200, r_star=5, num_samples=8000,
                      sigma=0.1, seed=seed, lam=200.0)
        prob = mc_problem(inst)
        u0, v0 = mc_start(inst, seed)
        cols = {}
        for name in ("palmnls", "palmls"):
            cfg = palm_variant(name, PalmConfig(max_iters=300))
            try:
                cols[name] = factor_cols(palm_run(prob, u0, v0, cfg))
            except BacktrackCapError:
                cols[name] = inst.r + 1
        for name, extra in (("palm", False), ("palme", True)):
            res = palm_baseline_run(prob, u0, v0, PalmConfig(max_iters=300),
                                    extrapolate=extra)
            cols[name] = factor_cols(res)
        wins += (cols["palmnls"] <= cols["palme"]
                 and cols["palmls"] <= cols["palm"])
    assert wins >= 12


BENCH_CONFIG = """\
[problem]
kind = logreg
n = 40
p = 60
s = 4
seed = 5

[bench]
solvers = pgenls,pgels
trials = 2
grid_points = 25
out_dir = {out_dir}

[solver.pgenls]
max_iters = 120
stop_tol = 0

[solver.pgels]
max_iters = 120
stop_tol = 0
"""


def test_bench_replay_is_byte_identical(tmp_path, capsys):
    paths = []
    for tag in ("one", "two"):
        out_dir = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(BENCH_CONFIG.format(out_dir=out_dir))
        assert main(["bench", str(cfg), "--replay"]) == 0
        paths.append(out_dir / "bench_e.csv")
    capsys.readouterr()
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()
