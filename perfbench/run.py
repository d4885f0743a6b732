"""Solver benchmark for nmdesc.

    python3 perfbench/run.py --workload logreg-pg --seed 1 --seconds 15 --trace 0

Runs one workload (logreg-pg, mc-palm or cli-batch) from the root of a
checkout, checks the program's outputs, and prints one JSON object as the
last line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. Diagnostics go to
standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: every workload solves one problem at a time (cli-batch
# runs `bench --jobs 1`). Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# a configured seed must reach the program unchanged
os.environ.pop("NMDESC_SEED", None)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("logreg-pg", "mc-palm", "cli-batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import nmdesc from this checkout's source tree; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "nmdesc", "__init__.py")):
        sys.exit(f"perfbench: no nmdesc sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import numpy  # noqa: F401  (loaded first: its import is not nmdesc's)

    t0 = time.perf_counter()
    import nmdesc.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(nmdesc.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported nmdesc from {nmdesc.cli.__file__}, not {SRC}")
    return import_s


def environment():
    import numpy as np
    from nmdesc import kernels

    import workloads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "bench_jobs": workloads.BATCH_JOBS,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": "numba" if kernels.USE_NUMBA else "numpy",
    }


def main(argv=None):
    args = parse_args(argv)
    import_s = import_program()
    import checks
    import layers
    import workloads
    from tracing import Tracer

    out_dir = os.path.join(HERE, "out", args.workload)
    workloads.reset_dir(out_dir)
    run = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        # the traced run sets up once: its spans count one set-up
        repeats = 1 if args.trace else workloads.SETUP_REPEATS
        mark = tracer.mark if tracer is not None else None
        tally, setup_s, check = run(args.seed, args.seconds, out_dir, repeats, mark)
    finally:
        if tracer is not None:
            tracer.uninstall()

    correct = True
    try:
        check()
    except checks.CheckFailed as e:
        correct = False
        print(f"perfbench: check failed: {e}", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = workloads.end_to_end(tally, setup_s, import_s, peak_rss_mb)
    else:
        metrics = layers.per_layer(tracer.phases, tally, workloads.BATCH_JOBS)
    env = environment()
    print(f"perfbench: {args.workload} seed={args.seed} rounds={tally.rounds} "
          f"solves={len(tally.solve_s)} env={json.dumps(env)} "
          f"setup_samples={[round(s, 4) for s in setup_s]}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
