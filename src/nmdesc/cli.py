"""Command-line front end.

Subcommands:

* gen    -- write a synthetic problem instance to a text file
* run    -- run one solver from a config file, emit a trace CSV
* bench  -- run several solvers over trials, emit E(t) CSV + SVG
* diag   -- classify a trace's index sets, emit K-set CSV + SVG
* rates  -- fit a decay rate to a trace's objective gaps

Configs are flat ``key = value`` text with ``[section]`` headers. The env
var NMDESC_SEED overrides any configured seed. Exit codes: 0 success
(including a `rates` trace too short to fit, which says so, and a solve
whose line search stalled on rounding, stop reason "stalled"), 2 usage or
config error or a malformed instance file, 3 solver failure, 4 I/O
failure.
"""

import argparse
import csv
import functools
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import palm, pg, problems
from .diagnostics import (
    MIN_FIT_POINTS,
    TooShortToFit,
    classify_ksets,
    condition_partial_sums,
    evolution_curve,
    fit_rate,
    rate_fit_tail,
    verify_H1,
    verify_H2,
)
from .linalg import RngStream
from .nls import BacktrackCapError
from .svgplot import write_line_plot
from .trace import (
    TraceParseError,
    read_trace_csv,
    read_trace_rows,
    write_flagged_csv,
    write_trace_csv,
)

PG_SOLVERS = tuple(pg.PG_VARIANTS)
PALM_SOLVERS = tuple(palm.PALM_VARIANTS)
BASELINES = ("fista", "refista", "palm", "palme")
ALL_SOLVERS = PG_SOLVERS + PALM_SOLVERS + BASELINES


class UsageError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


# -- config parsing --------------------------------------------------------------

def parse_config(text):
    """Flat key=value sections. Lines starting with # are comments."""
    sections = {}
    current = None
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise UsageError(f"config line {n}: expected key = value")
        if current is None:
            raise UsageError(f"config line {n}: key outside any [section]")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def _solver_config(cls, options):
    """A `cls` config with `options` set, each parsed by the type its field
    is annotated with, int or float (`float` takes every spelling of inf)."""
    kinds = {f.name: f.type for f in fields(cls)}
    updates = {}
    for key, value in options.items():
        if key not in kinds:
            raise UsageError(f"unknown solver option {key!r}")
        updates[key] = kinds[key](value)
    return replace(cls(), **updates)


def effective_seed(configured):
    env = os.environ.get("NMDESC_SEED")
    if env is not None:
        return int(env)
    return int(configured)


# -- problem construction --------------------------------------------------------

def build_instance(section, seed):
    """Build or load an instance from a [problem] config section."""
    if "instance" in section:
        return problems.load_instance(section["instance"])
    kind = section.get("kind")

    def need(key):
        if key not in section:
            raise UsageError(f"[problem] kind = {kind} needs {key} = ...")
        return int(section[key])

    if kind == "logreg":
        return problems.gen_logreg(
            n=need("n"), p=need("p"), s=need("s"),
            seed=seed, lam=float(section.get("lam", 0.1)),
            mu=float(section.get("mu", 1e-10)),
        )
    if kind == "mc":
        r = section.get("r")
        return problems.gen_mc(
            n1=need("n1"), n2=need("n2"),
            r_star=need("rstar"), num_samples=need("samples"),
            sigma=float(section.get("sigma", 0.1)), seed=seed,
            r=None if r is None else int(r),
            lam=float(section.get("lam", 1.0)),
            mu=float(section.get("mu", 1e-10)),
        )
    raise UsageError("problem kind must be 'logreg' or 'mc' (or give instance=PATH)")


def default_start(instance, seed):
    """Deterministic starting point for an instance: zeros for the vector
    model, seeded Gaussian factors for the factor model."""
    if isinstance(instance, problems.LogRegInstance):
        return np.zeros(instance.p + 1)
    rng = RngStream(seed).spawn(1)
    u0 = rng.standard_normal((instance.n1, instance.r)) / math.sqrt(instance.r)
    v0 = rng.standard_normal((instance.n2, instance.r)) / math.sqrt(instance.r)
    return u0, v0


def solve(name, instance, options, seed, lam=None):
    """Dispatch one solver by name on an instance; returns a RunResult.

    The problem is built here for this solve alone: a matrix-completion
    problem owns buffers that its oracles overwrite, so two solves must not
    share one.
    """
    if name not in ALL_SOLVERS:
        raise UsageError(f"unknown solver {name!r}")
    start = default_start(instance, seed)
    if name in PG_SOLVERS + ("fista", "refista"):
        if not isinstance(instance, problems.LogRegInstance):
            raise UsageError(f"solver {name!r} needs a logreg instance")
        problem = problems.logreg_problem(instance, lam=lam)
        cfg = _solver_config(pg.PgConfig, options)
        if cfg.tau0 is None:
            cfg = replace(cfg, tau0=10.0 / problem.operator_norm)
        if name in PG_SOLVERS:
            cfg = pg.variant_config(name, cfg)
            return pg.pg_run(problem, start, cfg)
        return pg.fista_run(problem, start, cfg, restart=(name == "refista"))
    if not isinstance(instance, problems.McInstance):
        raise UsageError(f"solver {name!r} needs an mc instance")
    problem = problems.mc_problem(instance, lam=lam)
    cfg = _solver_config(palm.PalmConfig, options)
    u0, v0 = start
    if name in PALM_SOLVERS:
        cfg = palm.variant_config(name, cfg)
        return palm.palm_run(problem, u0, v0, cfg)
    return palm.palm_baseline_run(
        problem, u0, v0, cfg, extrapolate=(name == "palme")
    )


def result_summary(name, instance, result):
    lines = [
        f"solver: {name}",
        f"iterations: {result.records[-1].k}",
        f"final objective: {result.records[-1].objective:.10g}",
        f"stop reason: {result.reason}",
        f"wall time: {result.records[-1].time_s:.3f} s",
    ]
    if isinstance(instance, problems.LogRegInstance):
        metrics = problems.sparsity_metrics(
            x=result.x, skip_indices=(instance.p,)
        )
        lines.append(f"support size: {metrics['support']}")
    else:
        metrics = problems.sparsity_metrics(factors=result.x)
        lines.append(
            f"nonzero columns: U={metrics['cols_U']} V={metrics['cols_V']}"
        )
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------

def cmd_gen(args):
    section = {key: str(value) for key, value in vars(args).items()
               if value is not None and key not in ("command", "family", "seed", "out")}
    instance = build_instance({"kind": args.family, **section}, args.seed)
    problems.save_instance(args.out, instance)
    if args.family == "logreg":
        norm = problems.logreg_problem(instance).operator_norm
        print(
            f"logreg instance: n={instance.n} p={instance.p} s={instance.s} "
            f"seed={instance.seed} ||A~||={norm:.6g} -> {args.out}"
        )
    else:
        frac = instance.num_obs / (instance.n1 * instance.n2)
        print(
            f"mc instance: {instance.n1}x{instance.n2} rstar={instance.r_star} "
            f"r={instance.r} seed={instance.seed} |Omega|={instance.num_obs} "
            f"({frac:.3%} observed) -> {args.out}"
        )
    return 0


def cmd_run(args):
    with open(args.config) as f:
        cfg = parse_config(f.read())
    if "problem" not in cfg or "solver" not in cfg:
        raise UsageError("config needs [problem] and [solver] sections")
    seed = effective_seed(cfg["problem"].get("seed", 0))
    instance = build_instance(cfg["problem"], seed)
    solver_opts = dict(cfg["solver"])
    name = solver_opts.pop("name", None)
    if name is None:
        raise UsageError("[solver] section needs name=...")
    out = cfg.get("output", {}).get("trace", "trace.csv")
    _ensure_parent(out)
    try:
        result = solve(name, instance, solver_opts, seed)
    except BacktrackCapError as e:
        if getattr(e, "records", None):
            write_trace_csv(out, e.records, zero_times=args.replay)
            print(f"partial trace ({len(e.records)} rows) -> {out}", file=sys.stderr)
        raise SolverError(str(e)) from e
    write_trace_csv(out, result.records, zero_times=args.replay)
    print(result_summary(name, instance, result))
    print(f"trace ({len(result.records)} rows) -> {out}")
    return 0


def _bench_trial(cfg, solvers, solver_opts, base_seed, trial, lam):
    """Run every solver of one bench trial; returns name -> RunResult for
    the solvers that succeeded, after a note on stderr for each that failed."""
    seed = base_seed + trial
    instance = build_instance(cfg["problem"], seed)
    out = {}
    for name in solvers:
        try:
            out[name] = solve(name, instance, solver_opts.get(name, {}), seed, lam=lam)
        except BacktrackCapError as e:
            print(f"note: solver {name} failed trial {trial}: {e}", file=sys.stderr)
    return out


def cmd_bench(args):
    with open(args.config) as f:
        cfg = parse_config(f.read())
    if "problem" not in cfg or "bench" not in cfg:
        raise UsageError("config needs [problem] and [bench] sections")
    bench = cfg["bench"]
    solvers = [s.strip() for s in bench.get("solvers", "").split(",") if s.strip()]
    if len(solvers) < 2:
        raise UsageError("bench needs at least 2 solvers (solvers=a,b,...)")
    trials = int(bench.get("trials", 1))
    if trials < 1:
        raise UsageError("bench needs at least 1 trial")
    grid_points = int(bench.get("grid_points", 50))
    if grid_points < 2:
        raise UsageError("bench needs grid_points >= 2")
    lam = bench.get("lam")
    lam = None if lam is None else float(lam)
    out_dir = bench.get("out_dir", "bench_out")
    os.makedirs(out_dir, exist_ok=True)
    base_seed = effective_seed(cfg["problem"].get("seed", 0))
    solver_opts = {
        name: dict(cfg.get(f"solver.{name}", {})) for name in solvers
    }

    # persist each trial's traces and keep them on the time axis; replay
    # mode uses the iteration count as a deterministic stand-in for wall time
    alive = set()
    trial_traces = []
    for t in range(trials):
        traces = {}
        for name, result in _bench_trial(cfg, solvers, solver_opts, base_seed,
                                         t, lam).items():
            alive.add(name)
            trace = result.records
            write_trace_csv(os.path.join(out_dir, f"trace_{name}_trial{t}.csv"),
                            trace, zero_times=args.replay)
            if args.replay:
                trace = trace.replace(time_s=trace.column("k").astype(np.float64))
            traces[name] = trace
        trial_traces.append(traces)
    for name in solvers:
        if name not in alive:
            print(f"note: solver {name} failed all trials; excluded", file=sys.stderr)
    if len(alive) < 2:
        raise SolverError("fewer than 2 solvers produced any successful trial")

    # shared evaluation grid
    t_max = max([0.0] + [trace.column("time_s")[-1].item()
                         for traces in trial_traces for trace in traces.values()])
    grid = np.linspace(0.0, t_max if t_max > 0 else 1.0, grid_points)
    per_trial = [evolution_curve(traces, grid)
                 for traces in trial_traces if len(traces) >= 2]
    if not per_trial:
        raise SolverError("no trial had 2 or more successful solvers")
    # average each solver over the trials where it appears
    curves = {}
    for name in solvers:
        rows = [trial[name] for trial in per_trial if name in trial]
        if rows:
            curves[name] = np.mean(rows, axis=0)

    csv_path = os.path.join(out_dir, "bench_e.csv")
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["t"] + list(curves))
        for i, t in enumerate(grid):
            w.writerow(
                [format(float(t), ".17g")]
                + [format(float(curves[name][i]), ".17g") for name in curves]
            )
    svg_path = os.path.join(out_dir, "bench_e.svg")
    write_line_plot(
        svg_path,
        {name: (grid, curves[name]) for name in curves},
        title="objective evolution",
        xlabel="iterations" if args.replay else "time (s)",
        ylabel="E(t)",
        logy=True,
    )
    print(f"E(t) over {len(per_trial)} trial(s), {len(curves)} solvers -> {csv_path}")
    print(f"plot -> {svg_path}")
    return 0


def cmd_diag(args):
    trace, heads = read_trace_rows(args.trace)
    if len(trace) < 2:
        raise UsageError("trace has no accepted iterations to classify")
    # a trace read without a witness column has NaN witnesses
    has_witness = not np.isnan(trace.column("witness_norm")).all()
    if not has_witness:
        print("warning: no witness column or values; skipping the "
              "relative-error check", file=sys.stderr)
    # every check runs before the first verdict is printed, so a constant
    # that one of them rejects exits 2 with no verdict at all
    h1 = verify_H1(trace, a=args.a, m=args.m)
    h2 = verify_H2(trace, b=args.b) if has_witness and args.b is not None else None
    report = classify_ksets(trace, a=args.a, theta=args.theta, m=args.m)
    status = "pass" if h1.passed else f"FAIL at k={h1.first_violation}"
    print(f"H1 (a={args.a:g}, m={args.m}): {status} over {h1.checked} steps")
    if h2 is not None:
        status = "pass" if h2.passed else f"FAIL at k={h2.first_violation}"
        print(f"H2 (b={args.b:g}): {status}, max ratio {h2.max_ratio:.6g}")
    sums = condition_partial_sums(trace, report)
    print(
        f"K-sets (theta={args.theta:g}, omega* estimated {report.omega_star:.10g}): "
        f"|K1|={np.count_nonzero(report.k1)} |K2|={np.count_nonzero(report.k2)} "
        f"|K31|={np.count_nonzero(report.k31)}"
    )
    prefix = args.out_prefix
    _ensure_parent(prefix + "_ksets.csv")
    # the trace was read for this call alone: flag it in place, on the rows
    # whose k is a step's position j (1 <= j < len); other rows keep theirs.
    # Each row is written back as read, with only its flags formatted anew
    k = trace.column("k")
    rows = (k >= 1) & (k < len(trace))
    step = k[rows] - 1
    for name, flags in (("in_K1", report.k1), ("in_K2", report.k2),
                        ("in_K31", report.k31)):
        trace.column(name)[rows] = flags[step]
    write_flagged_csv(prefix + "_ksets.csv", heads, trace)
    ks = np.arange(1, len(report.gaps) + 1)
    write_line_plot(
        prefix + "_partial_sums.svg",
        {
            "K1 partial sum": (ks, sums["k1_partial"]),
            "reference 3000/sqrt(k^2.1)": (ks, sums["reference"]),
        },
        title="partial sums",
        xlabel="k",
        ylabel="cumulative sqrt(gap)",
    )
    print(f"K-set CSV -> {prefix}_ksets.csv")
    print(f"partial-sum plot -> {prefix}_partial_sums.svg")
    return 0


def cmd_rates(args):
    tail = rate_fit_tail(read_trace_csv(args.trace))
    try:
        fit = fit_rate(tail, mode=args.mode)
    except TooShortToFit as e:
        print(f"too short to fit: {e.points} leading positive tail gaps, "
              f"{MIN_FIT_POINTS} needed")
        return 0
    if fit.mode == "linear":
        print(
            f"linear fit: rho={fit.rate:.6g} R^2={fit.r_squared:.4f} "
            f"({fit.points} tail points)"
        )
    else:
        print(
            f"sublinear fit: slope={fit.rate:.6g} theta={fit.theta:.6g} "
            f"R^2={fit.r_squared:.4f} ({fit.points} tail points)"
        )
    return 0


def _ensure_parent(path):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


# -- entry point -----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="nmdesc",
        description="nonmonotone line-search solvers and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a problem instance")
    fam = g.add_subparsers(dest="family", required=True)
    gl = fam.add_parser("logreg")
    gl.add_argument("--n", type=int, required=True)
    gl.add_argument("--p", type=int, required=True)
    gl.add_argument("--s", type=int, required=True)
    gl.add_argument("--seed", type=int, required=True)
    gl.add_argument("--lam", type=float)
    gl.add_argument("--mu", type=float)
    gl.add_argument("--out", default="logreg_instance.txt")
    gm = fam.add_parser("mc")
    gm.add_argument("--n1", type=int, required=True)
    gm.add_argument("--n2", type=int, required=True)
    gm.add_argument("--rstar", type=int, required=True)
    gm.add_argument("--samples", type=int, required=True)
    gm.add_argument("--sigma", type=float)
    gm.add_argument("--seed", type=int, required=True)
    gm.add_argument("--r", type=int)
    gm.add_argument("--lam", type=float)
    gm.add_argument("--mu", type=float)
    gm.add_argument("--out", default="mc_instance.txt")

    r = sub.add_parser("run", help="run one solver from a config file")
    r.add_argument("config")
    r.add_argument("--replay", action="store_true",
                   help="zero wall-time columns for byte-exact comparisons")

    b = sub.add_parser("bench", help="compare solvers, emit E(t) CSV and SVG")
    b.add_argument("config")
    b.add_argument("--replay", action="store_true")
    b.add_argument("--jobs", type=int, default=1, choices=(1,),
                   help="trials run one after another; only 1 is accepted")

    d = sub.add_parser("diag", help="index-set diagnostics for a trace CSV")
    d.add_argument("trace")
    d.add_argument("--a", type=float, default=0.5e-5,
                   help="gap coefficient (default alpha/2 for alpha=1e-5)")
    d.add_argument("--theta", type=float, default=0.5)
    d.add_argument("--m", type=int, default=5)
    d.add_argument("--b", type=float, default=None,
                   help="relative-error constant; enables the H2 check")
    d.add_argument("--out-prefix", default="diag")

    ra = sub.add_parser("rates", help="fit a decay rate to a trace")
    ra.add_argument("trace")
    ra.add_argument("--mode", choices=("linear", "sublinear"), default="linear")
    return parser


@functools.cache
def _parser():
    """The argparse tree, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    handlers = {
        "gen": cmd_gen,
        "run": cmd_run,
        "bench": cmd_bench,
        "diag": cmd_diag,
        "rates": cmd_rates,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, TraceParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SolverError, BacktrackCapError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
