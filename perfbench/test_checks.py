"""Each output check accepts a real program output and rejects a corrupted
copy of it.

Run with ``python3 -m pytest perfbench``.
"""

import contextlib
import io

import numpy as np
import pytest

import checks
from checks import CheckFailed
from nmdesc import cli, linalg, palm, pg, problems, trace


@pytest.fixture(scope="module")
def logreg_run():
    inst = problems.gen_logreg(n=40, p=80, s=4, seed=5, lam=1.0, mu=1e-3)
    prob = problems.logreg_problem(inst)
    tau0 = 10.0 / linalg.spectral_norm(inst.A_tilde, tol=1e-8)
    cfg = pg.variant_config("pgenls", pg.PgConfig(max_iters=3000, stop_tol=1e-6, tau0=tau0))
    res = pg.pg_run(prob, np.zeros(inst.p + 1), cfg)
    assert res.reason == "tolerance"
    return inst, res


@pytest.fixture(scope="module")
def mc_run():
    inst = problems.gen_mc(40, 40, 2, 800, 0.1, seed=3, lam=1.0)
    u0, v0 = cli.default_start(inst, 3)
    cfg = palm.variant_config("palmenls", palm.PalmConfig(max_iters=100))
    return inst, palm.palm_run(problems.mc_problem(inst), u0, v0, cfg)


def _objective(inst, x):
    return checks.logreg_objective(inst.A_tilde, inst.b, inst.lam, inst.mu, x)


def test_objective_rejects_perturbed_iterate(logreg_run):
    inst, res = logreg_run
    reported = res.records[-1].objective
    checks.check_objective(reported, _objective(inst, res.x), "ok")
    x = res.x.copy()
    x[np.flatnonzero(x[:-1])[0]] *= 1.01
    with pytest.raises(CheckFailed):
        checks.check_objective(reported, _objective(inst, x), "perturbed")


def test_mc_objective_rejects_perturbed_factor(mc_run):
    inst, res = mc_run
    U, V = res.x
    reported = res.records[-1].objective
    checks.check_objective(reported, checks.mc_objective(inst, U, V), "ok")
    V = V.copy()
    V[0, np.flatnonzero(np.any(V != 0.0, axis=0))[0]] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_objective(reported, checks.mc_objective(inst, U, V), "perturbed")


def test_recovery_rejects_poor_estimate(mc_run):
    inst, res = mc_run
    U, V = res.x
    checks.check_recovery(checks.recovery_error(U, V, inst.U_star, inst.V_star), 0.5, "ok")
    # the start point, and the estimate with one factor sign-flipped
    for bad in (cli.default_start(inst, 3), (U, -V)):
        with pytest.raises(CheckFailed):
            checks.check_recovery(
                checks.recovery_error(*bad, inst.U_star, inst.V_star), 0.5, "poor")


def test_decrease_rejects_raised_palm_potential(mc_run):
    _, res = mc_run
    cfg = res.extras["config"]
    pot = [r.potential for r in res.records]
    steps = [r.step_norm for r in res.records]
    checks.check_decrease(pot, steps, cfg.alpha, cfg.m, "ok")
    pot[40] = max(pot[34:40]) + 1e-6 * abs(pot[40])
    with pytest.raises(CheckFailed):
        checks.check_decrease(pot, steps, cfg.alpha, cfg.m, "raised")


def test_stationarity_rejects_perturbed_iterate(logreg_run):
    inst, res = logreg_run
    tau = res.records[-1].tau1

    def residual(x):
        return checks.pg_fixed_point_residual(inst.A_tilde, inst.b, inst.lam, inst.mu, x, tau)

    checks.check_stationarity(residual(res.x), 1e-6, res.x, 10.0)
    x = res.x.copy()
    x[np.flatnonzero(x[:-1] == 0.0)[0]] = 1e-2
    with pytest.raises(CheckFailed):
        checks.check_stationarity(residual(x), 1e-6, x, 10.0)


def test_decrease_rejects_raised_potential(logreg_run):
    _, res = logreg_run
    cfg = res.extras["config"]
    pot = [r.potential for r in res.records]
    steps = [r.step_norm for r in res.records]
    checks.check_decrease(pot, steps, cfg.alpha, cfg.m, "ok")
    pot[len(pot) // 2] = max(pot[: len(pot) // 2]) + 1.0
    with pytest.raises(CheckFailed):
        checks.check_decrease(pot, steps, cfg.alpha, cfg.m, "raised")


def test_trace_rejects_dropped_row_and_changed_value(logreg_run, tmp_path):
    _, res = logreg_run
    path = str(tmp_path / "t.csv")
    trace.write_trace_csv(path, res.records)
    objs = [r.objective for r in res.records]
    pots = [r.potential for r in res.records]
    checks.check_round_trip(checks.parse_trace(path), objs, pots, "ok")
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:5] + lines[6:])
    with pytest.raises(CheckFailed):
        checks.check_consecutive_k(checks.parse_trace(path), "dropped")
    trace.write_trace_csv(path, res.records)
    objs[-1] = np.nextafter(objs[-1], np.inf)
    with pytest.raises(CheckFailed):
        checks.check_round_trip(checks.parse_trace(path), objs, pots, "changed")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_diag_and_rates_checks_reject_altered_output(logreg_run, tmp_path):
    _, res = logreg_run
    path = str(tmp_path / "t.csv")
    trace.write_trace_csv(path, res.records)
    m = res.extras["config"].m
    text = _run(["diag", path, "--a", "5e-06", "--m", str(m),
                 "--out-prefix", str(tmp_path / "d")])
    parsed = checks.parse_trace(path)
    checks.check_diag_output(text, parsed, 5e-6, m, "ok")
    # a trace that violates H1 while diag reports a pass
    bad = dict(parsed, potential=parsed["potential"].copy())
    bad["potential"][3] = parsed["potential"][0] + 1.0
    with pytest.raises(CheckFailed):
        checks.check_diag_output(text, bad, 5e-6, m, "verdict")
    nested = text.replace("|K2|=", "|K2|=9999", 1)
    with pytest.raises(CheckFailed):
        checks.check_diag_output(nested, parsed, 5e-6, m, "nesting")
    rates = _run(["rates", path])
    assert 0.0 < checks.check_rates_output(rates, "ok") < 1.0
    with pytest.raises(CheckFailed):
        checks.check_rates_output(rates.replace("rho=", "rho=1"), "rho")


def test_curves_reject_increase_and_mismatch(tmp_path):
    out = tmp_path / "bench"
    cfg = tmp_path / "b.cfg"
    cfg.write_text(
        "[problem]\nkind = logreg\nn = 30\np = 60\ns = 3\nlam = 1.0\nmu = 1e-3\n"
        "seed = 9\n[bench]\nsolvers = pgenls,pgnls,fista\ntrials = 2\n"
        f"out_dir = {out}\n")
    _run(["bench", str(cfg)])
    per_trial = []
    for t in range(2):
        traces = {}
        for name in ("pgenls", "pgnls", "fista"):
            tr = checks.parse_trace(str(out / f"trace_{name}_trial{t}.csv"))
            traces[name] = (tr["time_s"], tr["objective"])
        per_trial.append(traces)
    grid, curves = checks.parse_curves(str(out / "bench_e.csv"))
    expected = checks.recompute_curves(per_trial, grid)
    checks.check_curves(curves, expected, "ok")
    rising = {k: v.copy() for k, v in curves.items()}
    rising["pgnls"][-1] = rising["pgnls"][-2] + 0.1
    with pytest.raises(CheckFailed):
        checks.check_curves(rising, expected, "rising")
    shifted = {k: np.where(v < 1.0, v * 0.9, v) for k, v in curves.items()}
    with pytest.raises(CheckFailed):
        checks.check_curves(shifted, expected, "shifted")
    dropped = dict(curves)
    del dropped["fista"]
    with pytest.raises(CheckFailed):
        checks.check_curves(dropped, expected, "dropped column")
