"""The order-statistic interval of `benchmarks/ab.py`, and one of its
post-processing operations."""

import importlib.util
import math
import os

from nmdesc import problems
from nmdesc.cli import solve

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "benchmarks", "ab.py")
PERFBENCH = os.path.join(HERE, "..", "perfbench")


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_median_interval_order_statistics():
    # the tabulated 95 % ranks: x_(6) and x_(15) of 20, x_(1) and x_(6) of
    # 6, x_(40) and x_(61) of 100; below 6 values no interval reaches 95 %
    ab = load_ab()
    assert ab.median_interval(list(range(20, 0, -1))) == (10.5, 6, 15)
    assert ab.median_interval([3.0, 1.0, 2.0, 6.0, 5.0, 4.0]) == (3.5, 1.0, 6.0)
    assert ab.median_interval(list(range(1, 101))) == (50.5, 40, 61)
    med, lo, hi = ab.median_interval([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and math.isnan(lo) and math.isnan(hi)


def test_median_interval_coverage():
    # the interval's coverage 1 - 2*P(Bin(n, 1/2) < j) is at least 95 %,
    # and one rank further in it would be below
    ab = load_ab()
    for n in range(6, 200):
        _, lo, _ = ab.median_interval(list(range(1, n + 1)))
        tail = sum(math.comb(n, i) for i in range(lo)) / 2.0**n
        assert 1.0 - 2.0 * tail >= 0.95
        assert 1.0 - 2.0 * (tail + math.comb(n, lo) / 2.0**n) < 0.95


def test_post_op_writes_the_trace_and_runs_diag_and_rates(tmp_path, monkeypatch):
    # what `--post` times for one solve: its trace CSV, then `diag` and
    # `rates` on it, with the worker's directory taken out of their output
    monkeypatch.syspath_prepend(PERFBENCH)
    ab = load_ab()
    inst = problems.gen_logreg(n=60, p=300, s=5, seed=0, lam=1.0, mu=1e-3)
    res = solve("pgenls", inst, {"max_iters": "300", "stop_tol": "1e-6"}, 0)
    op = ab.post_op(str(tmp_path), "0/pgenls", res)
    out = op()["out"]
    lines = out.splitlines()
    assert lines[0] == "diag: exit 0" and lines[1].startswith("H1 (a=")
    assert "K-set CSV -> DIR/diag_0_pgenls_ksets.csv" in lines
    assert lines[-2] == "rates: exit 0"
    assert lines[-1].startswith(("linear fit: rho=", "too short to fit: "))
    assert str(tmp_path) not in out
    assert sorted(os.listdir(tmp_path)) == [
        "0_pgenls.csv", "diag_0_pgenls_ksets.csv", "diag_0_pgenls_partial_sums.svg"]
    assert op()["out"] == out
