"""The order-statistic interval of `benchmarks/ab.py`."""

import importlib.util
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "benchmarks", "ab.py")


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
