"""Paired A/B timing of one benchmark workload's solves, or of their
post-processing, on two source trees.

    python3 benchmarks/ab.py OLD NEW WORKLOAD [--rounds N] [--post]

OLD and NEW are roots of source trees (directories holding `src/nmdesc`
and `perfbench/`), and WORKLOAD is one of `perfbench`'s workloads:
logreg-pg, mc-palm or cli-batch. The tool starts one worker process per
tree. Each worker imports `nmdesc` from its tree's `src`, as
`trace_digest.py` does, and builds the workload's solve set once from its
tree's `perfbench/workloads.py`: its instances, problems, start points and
solver configurations. For cli-batch that is the solves of its two `bench`
configs (`cli.solve` on each trial's instance, as `nmdesc bench` calls
it). Without `--post` the operations timed are these solves.

With `--post` (logreg-pg and mc-palm, whose solves `perfbench` follows
with `workloads.post_solve`), each worker runs every solve of its set
once, untimed, and keeps the result. The operation timed for a solve is then
`workloads.post_solve` on its result, as `perfbench` runs it after each
solve: the trace CSV write, `nmdesc diag` and `nmdesc rates`, into a
temporary directory of the worker's own. A solve that raises there ends
the run.

After one untimed warm-up round, each round runs every operation of the
set once in each worker, one at a time: the two workers never run at
once. The two operations of a pair run back to back, OLD first or NEW
first, alternating from pair to pair and, for each operation, from round
to round (ABBA). Each operation is timed in its worker by CPU time
(`time.process_time`) and wall time (`time.perf_counter`).

The report gives, over all pairs, the median NEW/OLD ratio of CPU time
and of wall time, with a distribution-free 95 % interval for that median
from the order statistics of the paired ratios. A ratio below 1 means
NEW is faster. Then one line per solver name (the part of an operation's
label after its "/") gives the same median and interval of CPU time over
that solver's pairs, and their count. Pairs whose two solves ended at different iteration
counts are flagged, since their times do not compare like for like; an
operation that raises is reported and its pair left out of the ratios.
With `--post`, a pair counts only when the exit codes and output of
`diag` and `rates` are the same on both sides; one that differs is
reported and left out. An A/A run (OLD and NEW the same tree) shows the
interval that the host's drift alone gives. The exit code is 1 when a
pair was flagged or left out, else 0.

The workers run with one BLAS thread, as `perfbench/run.py` sets it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

WORKLOADS = ("logreg-pg", "mc-palm", "cli-batch")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- worker ---------------------------------------------------------------------

def solve_set(workload):
    """[(label, solve)] of a workload, each solve a function of no
    arguments that returns a `RunResult`, from the `perfbench` and `nmdesc`
    that `import` finds."""
    import numpy as np
    import workloads as wl
    from nmdesc import cli, palm, pg, problems

    solves = []
    if workload == "logreg-pg":
        for s, inst, prob, tau0 in wl.setup_logreg(wl.LOGREG_SEEDS):
            for name in wl.PG_SOLVERS:
                cfg = pg.variant_config(name, pg.PgConfig(
                    max_iters=wl.PG_MAX_ITERS, stop_tol=wl.PG_STOP_TOL, tau0=tau0))
                x0 = np.zeros(inst.p + 1)
                solves.append((f"{s}/{name}", lambda p=prob, x0=x0, c=cfg:
                               pg.pg_run(p, x0, c)))
    elif workload == "mc-palm":
        for s, names, inst, prob, u0, v0 in wl.setup_mc():
            for name in names:
                cfg = palm.variant_config(name, palm.PalmConfig(max_iters=wl.PALM_MAX_ITERS))
                solves.append((f"{s}/{name}", lambda p=prob, u0=u0, v0=v0, c=cfg:
                               palm.palm_run(p, u0, v0, c)))
    elif workload == "cli-batch":
        configs = (
            ("logreg", wl.BATCH_LOGREG, wl.BATCH_LOGREG_SEED, wl.BATCH_LOGREG_SOLVERS,
             wl.BATCH_LOGREG_OPTIONS, wl.BATCH_LOGREG_TRIALS),
            ("mc", wl.BATCH_MC, wl.BATCH_MC_SEED, wl.BATCH_MC_SOLVERS,
             wl.BATCH_MC_OPTIONS, wl.BATCH_MC_TRIALS),
        )
        for kind, params, base, names, options, trials in configs:
            cfg = cli.parse_config(wl.bench_config(kind, params, base, names, options,
                                                   trials, os.devnull))
            for t in range(trials):
                seed = base + t
                inst = cli.build_instance(cfg["problem"], seed)
                for name in names:
                    opts = dict(cfg.get(f"solver.{name}", {}))
                    solves.append((f"{kind}{t}/{name}", lambda n=name, i=inst, o=opts,
                                   s=seed: cli.solve(n, i, o, s)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return solves


def post_op(directory, label, res):
    """The post-processing of one solve's result `res`, as an operation of
    no arguments: `workloads.post_solve` with the trace at a path in
    `directory` named from `label`. The operation returns {"out": text},
    the exit codes and output of `diag` and `rates` with `directory` taken
    out of them, so that two workers' texts compare."""
    import workloads as wl

    path = os.path.join(directory, label.replace("/", "_") + ".csv")

    def op():
        log = []
        wl.post_solve(wl.Tally(), path, res, log)
        [(_, _, _, (dcode, dtext), (rcode, rtext))] = log
        text = f"diag: exit {dcode}\n{dtext}rates: exit {rcode}\n{rtext}"
        return {"out": text.replace(directory, "DIR")}
    return op


def serve(ops):
    """Write the labels of `ops` as one JSON line, then answer each index
    read from stdin with one JSON line: CPU and wall seconds, the error
    (None if the operation ran) and what the operation returned."""
    print(json.dumps([label for label, _ in ops]), flush=True)
    for line in sys.stdin:
        _, op = ops[int(line)]
        fields, error = {}, None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            fields = op()
        except Exception as e:  # a failed operation is reported, not fatal
            traceback.print_exc()
            error = f"{type(e).__name__}: {e}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        print(json.dumps({"cpu": cpu, "wall": wall, "error": error, **fields}), flush=True)


def worker(tree, workload, post):
    """Serve timed operations of `tree`'s solve set: its solves, each
    returning {"k": final k}, or with `post` their post-processing."""
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import nmdesc

    if not os.path.abspath(nmdesc.__file__).startswith(os.path.join(tree, "src")):
        raise SystemExit(f"nmdesc imported from {nmdesc.__file__}, not from {tree}")
    solves = solve_set(workload)
    if not post:
        serve([(label, lambda s=solve: {"k": s().records[-1].k})
               for label, solve in solves])
        return
    with tempfile.TemporaryDirectory(prefix="nmdesc-ab-") as directory:
        serve([(label, post_op(directory, label, solve())) for label, solve in solves])


# -- driver ---------------------------------------------------------------------

def start_worker(tree, workload, post):
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    env.pop("NMDESC_SEED", None)
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", tree, workload]
        + ["--post"] * post,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    return proc, reply(proc)


def reply(proc):
    """The next JSON line a worker writes; SystemExit if it has exited."""
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"worker {' '.join(proc.args[3:])} exited with "
                         f"code {proc.wait()}")
    return json.loads(line)


def timed(proc, index):
    proc.stdin.write(f"{index}\n")
    proc.stdin.flush()
    return reply(proc)


def median_interval(values, level=0.95):
    """(median, low, high): the median of `values` and a distribution-free
    interval for it of coverage at least `level`, from the order statistics
    x_(j) and x_(n+1-j) with the largest j such that P(Bin(n, 1/2) < j) <=
    (1 - level)/2; (median, nan, nan) when n is too small for one."""
    xs = sorted(values)
    n = len(xs)
    tail, j, cdf = (1.0 - level) / 2.0, 0, 0.0
    while j < n:
        p_j = math.comb(n, j) / 2.0**n  # P(Bin(n, 1/2) = j)
        if cdf + p_j > tail:
            break
        cdf += p_j
        j += 1
    if j == 0:
        return statistics.median(xs), math.nan, math.nan
    return statistics.median(xs), xs[j - 1], xs[n - j]


def solver_lines(cpu_pairs):
    """One report line per solver, in the order the solvers first appear
    in `cpu_pairs`, the (label, NEW/OLD CPU-time ratio) of each pair: the
    median ratio over the solver's pairs, its 95 % interval
    (`median_interval`) and the number of pairs. A label names its solver
    after its last "/"."""
    by_solver = {}
    for label, ratio in cpu_pairs:
        by_solver.setdefault(label.rsplit("/", 1)[-1], []).append(ratio)
    lines = []
    for name, ratios in by_solver.items():
        med, lo, hi = median_interval(ratios)
        lines.append(f"  {name:9s} CPU NEW/OLD median {med:.4f}, 95% interval "
                     f"[{lo:.4f}, {hi:.4f}], {len(ratios)} pairs")
    return lines


def run_pairs(old, new, workload, rounds, post=False):
    """Run `rounds` timed rounds of paired operations (solves, or with
    `post` their post-processing) and print the report; returns the number
    of pairs flagged or left out."""
    workers = []
    try:
        for tree in (old, new):
            workers.append(start_worker(tree, workload, post))
        (a, labels), (b, labels_b) = workers
        if labels != labels_b:
            raise SystemExit("the two trees build different solve sets")
        for i in range(len(labels)):  # warm-up, untimed
            timed(a, i)
            timed(b, i)
        ratios = {"cpu": [], "wall": []}
        cpu_pairs = []  # (label, CPU ratio) of each pair, for `solver_lines`
        flagged, left_out, differ = [], [], []
        for r in range(rounds):
            for i, label in enumerate(labels):
                if (i + r) % 2 == 0:
                    t_old, t_new = timed(a, i), timed(b, i)
                else:
                    t_new, t_old = timed(b, i), timed(a, i)
                if t_old["error"] or t_new["error"]:
                    left_out.append((r, label, t_old["error"], t_new["error"]))
                    continue
                if t_old.get("out") != t_new.get("out"):
                    differ.append((r, label, t_old["out"], t_new["out"]))
                    continue
                if t_old.get("k") != t_new.get("k"):
                    flagged.append((r, label, t_old["k"], t_new["k"]))
                for key in ratios:
                    ratios[key].append(t_new[key] / t_old[key])
                cpu_pairs.append((label, ratios["cpu"][-1]))
    finally:
        for proc, _ in workers:
            proc.stdin.close()
            proc.wait()
            proc.stdout.close()

    what = "post-processing ops" if post else "solves"
    print(f"{workload}: {len(ratios['cpu'])} pairs ({rounds} rounds x {len(labels)} "
          f"{what}), OLD {old}, NEW {new}")
    for key, name in (("cpu", "CPU time"), ("wall", "wall time")):
        med, lo, hi = median_interval(ratios[key]) if ratios[key] else (math.nan,) * 3
        print(f"  {name:9s} NEW/OLD median {med:.4f}, 95% interval [{lo:.4f}, {hi:.4f}]")
    for line in solver_lines(cpu_pairs):
        print(line)
    if post:
        print(f"  pairs left out on different diag or rates output: {len(differ)}")
        for r, label, out_old, out_new in differ:
            print(f"    round {r} {label}:\n      OLD {out_old!r}\n      NEW {out_new!r}")
    else:
        print(f"  pairs with different iteration counts: {len(flagged)}")
        for r, label, k_old, k_new in flagged:
            print(f"    round {r} {label}: k {k_old} against {k_new}")
    print(f"  pairs left out on a failed operation: {len(left_out)}")
    for r, label, e_old, e_new in left_out:
        print(f"    round {r} {label}: OLD {e_old}, NEW {e_new}")
    return len(flagged) + len(left_out) + len(differ)


def main(argv):
    if argv[1:2] == ["--worker"]:
        worker(*argv[2:4], post=argv[4:5] == ["--post"])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=10,
                        help="timed rounds, each one pair per solve (default 10)")
    parser.add_argument("--post", action="store_true",
                        help="time each solve's trace write, diag and rates, "
                             "not the solve")
    args = parser.parse_args(argv[1:])
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.post and args.workload == "cli-batch":
        parser.error("--post: cli-batch post-processes inside its bench command")
    return 1 if run_pairs(args.old, args.new, args.workload, args.rounds, args.post) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
