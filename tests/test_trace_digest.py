"""The 48 solves of `benchmarks/trace_digest.py` against the lines checked in
at `tests/data/trace_digest.txt`.

Per solve the stop reason, the final k and the nonzero count of the final
point must be equal, and the final objective F must agree within 1e-12
relative. The md5s stay in the data file, as a refactor's reference for
`diff`, but are not asserted: they cover every bit of the traces, and
those depend on the BLAS. The lines were recorded with numpy 2.4.6 on
OpenBLAS 0.3.31 (Haswell kernels) under Python 3.11. The set takes about
6 s. A change that moves a pinned field regenerates the file with

    python3 benchmarks/trace_digest.py . | head -n 48 > tests/data/trace_digest.txt

and `git diff` then shows which solves moved.
"""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "benchmarks", "trace_digest.py")
EXPECTED = os.path.join(HERE, "data", "trace_digest.txt")


def parse(line):
    """(solve, (reason, k, nnz), F) of one digest line, where solve is
    (label, seed, solver)."""
    label, seed, name, _, reason, *fields = line.split()
    values = dict(field.split("=", 1) for field in fields)
    return (label, seed, name), (reason, values["k"], values["nnz"]), float(values["F"])


def test_solves_match_recorded_lines():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    with open(EXPECTED) as f:
        expected = [parse(line) for line in f]
    got = [parse(line) for line in digest.solve_lines()]
    assert len(expected) == 48
    assert [solve for solve, _, _ in got] == [solve for solve, _, _ in expected]
    for (solve, end, F), (_, end_ref, F_ref) in zip(got, expected):
        assert end == end_ref, solve
        assert F == pytest.approx(F_ref, rel=1e-12, abs=0.0), solve
