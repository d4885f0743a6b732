"""Print one md5 per solve of a fixed 48-solve set, and a total.

    python3 benchmarks/trace_digest.py TREE

TREE is the root of a source tree (the directory holding `src/nmdesc`);
the solves import `nmdesc` from there. Each line's md5 covers the solve's
zero-time trace CSV, its final point, its `meta`, its stop reason and its
final k, so two trees print the same lines exactly when every solve gives
the same bits. After the md5, each line shows the stop reason and final
k, the final objective (`repr`, all 17 digits) and the nonzero count of
the final point (of U and V together for matrix completion). A refactor
that must keep the solver arithmetic checks it with one diff:

    python3 benchmarks/trace_digest.py OLD > old.txt
    python3 benchmarks/trace_digest.py NEW > new.txt
    diff old.txt new.txt

A change that may move last bits shows in the same diff which solves
moved, whether their k, stop reason or support changed, and by how much
their objectives differ. `solve_lines` yields the lines without the
total; `tests/test_trace_digest.py` runs it against the lines checked in
at `tests/data/trace_digest.txt`.

The set runs all 12 solvers through `cli.solve`: the PG family with FISTA
and restarted FISTA on four logistic instances (60 x 300, seeds 0 and 1,
300 iterations; 200 x 2000, seeds 101 and 103, 20000 iterations; both to
stop_tol 1e-6), and the PALM family with the two baselines on four
matrix-completion instances at 150 iterations (200 x 200 with 8000 draws,
seeds 1 and 2880641671; 300 x 300 with 2000 draws, seed 5, which takes
the sorted-segment oracle form; 40 x 30 with 600 draws, seed 7). A solve
that raises `BacktrackCapError` is digested from its partial trace and
the error message, and shows its last accepted objective.
"""

import hashlib
import io
import os
import sys

import numpy as np

LOGREG_SOLVERS = ("pgenls", "pgnls", "pgels", "pgls", "fista", "refista")
MC_SOLVERS = ("palmenls", "palmnls", "palmels", "palmls", "palm", "palme")

# (label, generator, parameters, seeds, solver options)
SETS = (
    ("logreg60x300", "gen_logreg", dict(n=60, p=300, s=5, lam=1.0, mu=1e-3),
     (0, 1), {"max_iters": "300", "stop_tol": "1e-6"}),
    ("logreg200x2000", "gen_logreg", dict(n=200, p=2000, s=20, lam=1.0, mu=1e-3),
     (101, 103), {"max_iters": "20000", "stop_tol": "1e-6"}),
    ("mc200x200", "gen_mc",
     dict(n1=200, n2=200, r_star=5, num_samples=8000, sigma=0.1, lam=1.0),
     (1, 2880641671), {"max_iters": "150"}),
    ("mc300x300", "gen_mc",
     dict(n1=300, n2=300, r_star=5, num_samples=2000, sigma=0.1, lam=1.0),
     (5,), {"max_iters": "150"}),
    ("mc40x30", "gen_mc",
     dict(n1=40, n2=30, r_star=2, num_samples=600, sigma=0.1, lam=1.0),
     (7,), {"max_iters": "150"}),
)


def digest(write_trace_csv, records, x, meta, reason, k):
    """md5 of one solve's zero-time trace, final point, meta, reason and k."""
    buf = io.StringIO()
    write_trace_csv(buf, records, zero_times=True)
    h = hashlib.md5(buf.getvalue().encode())
    for part in (x if isinstance(x, tuple) else (x,)):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    for key in sorted(meta):
        h.update(key.encode())
        h.update(np.asarray(meta[key], dtype=np.float64).tobytes())
    h.update(f"{reason}:{k}".encode())
    return h.hexdigest()


def solve_lines():
    """One line per solve of the set, in order: label, seed, solver, md5,
    then the stop reason, k, F and nnz (see the module docstring). The
    solves use the `nmdesc` that `import` finds."""
    from nmdesc import cli, problems
    from nmdesc.nls import BacktrackCapError
    from nmdesc.trace import write_trace_csv

    for label, gen, params, seeds, options in SETS:
        solvers = LOGREG_SOLVERS if gen == "gen_logreg" else MC_SOLVERS
        for seed in seeds:
            instance = getattr(problems, gen)(seed=seed, **params)
            for name in solvers:
                try:
                    res = cli.solve(name, instance, options, seed)
                    k = res.records[-1].k
                    line = digest(write_trace_csv, res.records, res.x, res.meta,
                                  res.reason, k)
                    nnz = sum(np.count_nonzero(part) for part in
                              (res.x if isinstance(res.x, tuple) else (res.x,)))
                    end = (f"{res.reason} k={k} F={res.records[-1].objective!r} "
                           f"nnz={nnz}")
                except BacktrackCapError as e:
                    line = digest(write_trace_csv, e.records, (), {}, str(e), e.k)
                    end = f"error k={e.k} F={e.records[-1].objective!r} nnz=-"
                yield f"{label} seed={seed} {name:9s} {line} {end}"


def main(argv):
    if len(argv) != 2:
        print("usage: trace_digest.py TREE", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[1]), "src"))
    total = hashlib.md5()
    for line in solve_lines():
        total.update(line.split()[3].encode())
        print(line)
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
