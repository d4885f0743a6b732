"""The span tracer of `perfbench/tracing.py` installs on this package.

It wraps functions by name, some of them private or methods, and the
benchmark's per-layer metrics read the spans of named functions. A rename
here would otherwise show only when the traced benchmark runs.
"""

import importlib.util
import os

from nmdesc import cli, problems, prox

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_sees_the_solver_layers():
    tracer = load_tracing().Tracer()
    originals = (cli._bench_trial, cli.solve, prox.ProxSpec.value, prox.prox_l0)
    tracer.install()
    try:
        assert cli._bench_trial is not originals[0]
        problem = {"kind": "logreg", "n": "30", "p": "50", "s": "3", "lam": "1.0"}
        opts = {"max_iters": "20", "stop_tol": "0"}
        out = cli._bench_trial({"problem": problem}, ["pgenls", "fista"],
                               {"pgenls": opts, "fista": opts}, 2, 0, None)
        assert list(out) == ["pgenls", "fista"]
        tracer.mark()  # the PALM solve's spans in a phase of their own
        mc = problems.gen_mc(20, 20, 2, 200, 0.1, seed=3)
        cli.solve("palmenls", mc, {"max_iters": "5"}, seed=3)
    finally:
        tracer.uninstall()
    assert (cli._bench_trial, cli.solve, prox.ProxSpec.value, prox.prox_l0) == originals
    pg_phase, palm_phase = tracer.phases[-2:]
    for name in ("cli._bench_trial", "cli.solve", "problems.logreg_value_grad",
                 "kernels.logistic_loss_terms", "prox.prox_l0", "prox.ProxSpec.value",
                 "nls.accept", "nls.backtrack_params", "nls.window_max",
                 "pg.pg_step", "pg.bb_init_tau"):
        assert pg_phase[name].calls > 0, name
    # both families run the one line search of `nls`
    for name in ("cli.solve", "prox.prox_ridge_l20_columns", "prox.ProxSpec.value",
                 "nls.accept", "nls.backtrack_params", "nls.window_max",
                 "palm.palm_step", "palm.bb_init_tau_blocks",
                 "palm.subgrad_witness_palm"):
        assert palm_phase[name].calls > 0, name
    # the run's loop scans its window once at the start and once per
    # accepted step: 20 pgenls steps (FISTA keeps no window), 5 palmenls
    assert pg_phase["nls.window_max"].calls == 21
    assert palm_phase["nls.window_max"].calls == 6
