"""One round of each workload of `perfbench/workloads.py`, then its output
checks.

The benchmark calls the package by name (`pg.variant_config`,
`palm.variant_config`, `cli.main` and the solvers), so a name it uses that
moves or breaks would otherwise show only when the benchmark runs. Each
workload runs one round (`seconds` = 0) into the test's own directory and
must fail no operation. Its mean iterations per solve, the benchmark's
`iters_per_solve`, are pinned as `tests/data/trace_digest.txt` pins the
digest's iteration counts: a change that moves them says so. One round
takes about 4 s (`logreg-pg`), 0.4 s (`mc-palm`) and 0.7 s (`cli-batch`).
"""

import importlib
import os
import statistics

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")

# logreg-pg: 9766 iterations over its 12 solves; pgls on instance 103 stalls
# on rounding at k = 141 (ROADMAP item 7), and its k moves with the last bits
ITERS_PER_SOLVE = {"logreg-pg": 9766 / 12, "mc-palm": 150.0, "cli-batch": 213.5}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield importlib.import_module("workloads")


# `rates` warns when it truncates a gap series, as on cli-batch's traces
@pytest.mark.filterwarnings("ignore:truncating gap series")
@pytest.mark.parametrize("name", sorted(ITERS_PER_SOLVE))
def test_one_round_passes_its_checks(workloads, tmp_path, name):
    tally, setup_s, check = workloads.WORKLOADS[name](1, 0.0, str(tmp_path), 1, None)
    check()
    assert tally.rounds == 1 and len(setup_s) == 1
    assert tally.attempted > 0
    assert tally.failed == 0
    assert statistics.fmean(tally.iters) == ITERS_PER_SOLVE[name]
