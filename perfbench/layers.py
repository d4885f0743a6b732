"""Per-layer metrics of a traced run, computed from its span totals.

`.s` is busy seconds per solve, `.self_s` busy seconds minus the time its
child spans (same thread) cover, per solve, and `.calls_per_iter` calls per
accepted outer iteration, all over the timed part of the run.
`problems.gen.s` adds the one set-up the traced run makes, and
`linalg.spectral_norm.setup_calls` counts that set-up alone. A layer a
workload does not use reads 0.
"""

from tracing import Totals


def per_layer(phases, tally, jobs):
    """Metrics from the tracer's phases: set-up first, the timed part last."""
    setup, timed = phases[0], phases[-1]
    solves = max(tally.solves, 1)
    iters = max(tally.iterations, 1)

    def t(name):
        return timed.get(name, Totals())

    def per_iter(name):
        return t(name).calls / iters, "count"

    def per_solve(name):
        return t(name).busy / solves, "s"

    def self_per_solve(name):
        return t(name).self_time / solves, "s"

    def gen_busy(phase):
        return sum(phase.get(n, Totals()).busy
                   for n in ("problems.gen_logreg", "problems.gen_mc"))

    accept = t("nls.accept")
    bench_wall = t("cli.cmd_bench").busy
    trial_busy = t("cli._bench_trial").busy
    out = {
        "problems.logreg_value_grad.calls_per_iter": per_iter("problems.logreg_value_grad"),
        "problems.logreg_value_grad.s": per_solve("problems.logreg_value_grad"),
        "problems.mc_H_and_grads.calls_per_iter": per_iter("problems.mc_H_and_grads"),
        "problems.mc_H_and_grads.s": per_solve("problems.mc_H_and_grads"),
        "problems.gen.s": ((gen_busy(setup) + gen_busy(timed)) / solves, "s"),
        "kernels.logistic_loss_terms.calls_per_iter": per_iter("kernels.logistic_loss_terms"),
        "kernels.logistic_loss_terms.s": per_solve("kernels.logistic_loss_terms"),
        "kernels.masked_residual.calls_per_iter": per_iter("kernels.masked_residual"),
        "kernels.masked_residual.s": per_solve("kernels.masked_residual"),
        "kernels.masked_grads.calls_per_iter": per_iter("kernels.masked_grads"),
        "kernels.masked_grads.s": per_solve("kernels.masked_grads"),
        # bytes of the arrays each call reads and writes, from their sizes
        "kernels.masked_grads.computed_bytes": (
            t("kernels.masked_grads").notes.get("bytes", 0) / iters, "B/iter"),
        "linalg.spectral_norm.calls_per_iter": per_iter("linalg.spectral_norm"),
        "linalg.spectral_norm.s": per_solve("linalg.spectral_norm"),
        "linalg.spectral_norm.setup_calls": (
            setup.get("linalg.spectral_norm", Totals()).calls, "count"),
        "prox.prox_l0.calls_per_iter": per_iter("prox.prox_l0"),
        "prox.prox_l0.s": per_solve("prox.prox_l0"),
        "prox.prox_ridge_l20_columns.calls_per_iter": per_iter("prox.prox_ridge_l20_columns"),
        "prox.prox_ridge_l20_columns.s": per_solve("prox.prox_ridge_l20_columns"),
        "prox.ProxSpec.value.s": per_solve("prox.ProxSpec.value"),
        "nls.accept.calls_per_iter": per_iter("nls.accept"),
        "nls.window_max.s": per_solve("nls.window_max"),
        "nls.accept_ratio": (
            accept.notes.get("accepted", 0) / max(accept.calls, 1), "ratio"),
        "pg.pg_step.self_s": self_per_solve("pg.pg_step"),
        "pg.bb_init_tau.s": per_solve("pg.bb_init_tau"),
        "palm.palm_step.self_s": self_per_solve("palm.palm_step"),
        "palm.bb_init_tau_blocks.s": per_solve("palm.bb_init_tau_blocks"),
        "palm.subgrad_witness_palm.s": per_solve("palm.subgrad_witness_palm"),
        "trace.write_trace_csv.s": per_solve("trace.write_trace_csv"),
        "trace.read_trace_csv.s": per_solve("trace.read_trace_csv"),
        "trace.bytes_written": (
            t("trace.write_trace_csv").notes.get("bytes", 0) / solves, "B/solve"),
        "diagnostics.verify_H1.s": per_solve("diagnostics.verify_H1"),
        "diagnostics.classify_ksets.s": per_solve("diagnostics.classify_ksets"),
        "diagnostics.fit_rate.s": per_solve("diagnostics.fit_rate"),
        "diagnostics.evolution_curve.s": per_solve("diagnostics.evolution_curve"),
        "svgplot.write_line_plot.s": per_solve("svgplot.write_line_plot"),
        "cli.solve.s": per_solve("cli.solve"),
        "cli.bench.trial_busy_s": (trial_busy / solves, "s"),
        "cli.bench.overlap": (
            trial_busy / (bench_wall * jobs) if bench_wall > 0 else 0.0, "ratio"),
        "traced.solves_per_s": (len(tally.solve_s) / tally.wall_s, "1/s"),
    }
    return out
