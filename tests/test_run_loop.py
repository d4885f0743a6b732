"""The outer loop all four run functions share: its stop rules, what the
trace sink receives, and the trace a backtrack-cap error carries."""

import numpy as np
import pytest

from testkit import quadratic_problem
from nmdesc import palm, pg
from nmdesc.nls import BacktrackCapError
from nmdesc.problems import gen_mc, mc_problem

X0 = np.array([3.0, -4.0])
MC = gen_mc(n1=20, n2=20, r_star=2, num_samples=150, sigma=0.1, seed=0, lam=0.5)
U0, V0 = np.full((20, MC.r), 0.5), np.full((20, MC.r), -0.25)


def quad():
    return quadratic_problem(A=np.diag([1.0, 3.0]), lam=0.01)


# name: (module, step function the run looks up there, run(config options,
# **run keywords), whether it takes a trace sink)
RUNS = {
    "pg_run": (pg, "pg_step", lambda kw, **run: pg.pg_run(
        quad(), X0, pg.PgConfig(**kw), **run), True),
    "fista_run": (pg, "_fista_step", lambda kw, **run: pg.fista_run(
        quad(), X0, pg.PgConfig(**kw), **run), False),
    "palm_run": (palm, "palm_step", lambda kw, **run: palm.palm_run(
        mc_problem(MC), U0, V0, palm.PalmConfig(**kw), **run), True),
    "palm_baseline_run": (palm, "_baseline_step", lambda kw, **run: palm.palm_baseline_run(
        mc_problem(MC), U0, V0, palm.PalmConfig(**kw), **run), False),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_loop_contract(name, monkeypatch):
    module, step_name, run, has_sink = RUNS[name]
    seen = []

    def solve(**options):
        # the witness test fires only at a zero witness, which these runs
        # never reach; a run with a sink must hand it exactly the records
        # it returns or raises with
        seen.clear()
        sink = {"trace_sink": seen.append} if has_sink else {}
        result = run({"stop_tol": 0.0, **options}, **sink)
        if has_sink:
            assert seen == list(result.records)
        return result

    result = solve(time_budget=0.0)
    assert (result.reason, len(result.records)) == ("time_budget", 2)

    result = solve(max_iters=0)
    assert (result.reason, len(result.records), result.meta) == ("max_iters", 1, {})

    result = solve(max_iters=6)
    assert (result.reason, len(result.records)) == ("max_iters", 7)

    with pytest.raises(ValueError, match="max_iters must be nonnegative"):
        solve(max_iters=-5)
    assert seen == []

    # a negative or NaN tolerance turned the witness test off, a NaN budget
    # the time test, and a negative budget stopped after one step
    for option in ("stop_tol", "time_budget"):
        for value in (-1.0, float("nan")):
            with pytest.raises(ValueError, match=rf"{option} must lie in \[0, inf\]"):
                solve(**{option: value})
    assert seen == []

    step = getattr(module, step_name)

    def capped(state, *args):
        if state.k == 4:
            raise BacktrackCapError(state.k, 60, None)
        return step(state, *args)

    monkeypatch.setattr(module, step_name, capped)
    with pytest.raises(BacktrackCapError) as err:
        solve(max_iters=6)
    assert len(err.value.records) == 5
    if has_sink:
        assert seen == list(err.value.records)
