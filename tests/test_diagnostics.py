"""Trace verification, index-set classification, rate fits, E(t) curves."""

import math

import numpy as np
import pytest

from testkit import (
    classify_ksets_ref,
    ell_indices_ref,
    rate_fit_tail_ref,
    verify_H1_ref,
    verify_H2_ref,
)
from nmdesc.diagnostics import (
    RATE_COLUMNS,
    TooShortToFit,
    classify_ksets,
    condition_partial_sums,
    ell_indices,
    evolution_curve,
    fit_rate,
    rate_fit_tail,
    verify_H1,
    verify_H2,
)
from nmdesc.trace import Trace, TraceRecord


def rec(k, pot, step, obj=None, witness=0.0, backtracks=0, time=None):
    return TraceRecord(
        k=k, time_s=float(k if time is None else time),
        objective=float(pot if obj is None else obj), potential=float(pot),
        step_norm=float(step), witness_norm=float(witness),
        beta=0.0, tau1=0.1, backtracks=backtracks,
    )


def records_from(pots, steps, **kw):
    return Trace(rec(k, p, s, **kw) for k, (p, s) in enumerate(zip(pots, steps)))


class TestEllIndices:
    def test_tie_takes_largest(self):
        recs = records_from([3.0, 5.0, 5.0, 2.0], [0.0] * 4)
        assert ell_indices(recs, m=3).tolist() == [0, 1, 2, 2]

    def test_memory_zero_is_identity(self):
        recs = records_from([4.0, 9.0, 1.0], [0.0] * 3)
        assert ell_indices(recs, m=0).tolist() == [0, 1, 2]

    def test_window_clipping(self):
        recs = records_from([9.0, 1.0, 2.0, 1.5], [0.0] * 4)
        assert ell_indices(recs, m=1).tolist() == [0, 0, 2, 2]


# a NaN, infinite or negative constant empties the check it scales: H1
# and H2 then passed every trace (0 stays valid, as the tests below use it)
BAD_CONSTANTS = [math.nan, math.inf, -math.inf, -1.0]


class TestVerifyH1:
    @pytest.mark.parametrize("a", BAD_CONSTANTS)
    def test_rejects_a_constant_that_empties_it(self, a):
        recs = records_from([5.0, 4.0, 4.5, 3.0], [0.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"a must lie in \[0, inf\)"):
            verify_H1(recs, a=a, m=0)

    def test_monotone_trace_passes_with_zero_a(self):
        recs = records_from([5.0, 4.0, 3.0], [1.0, 1.0, 1.0])
        report = verify_H1(recs, a=0.0, m=0)
        assert report.passed and report.checked == 2

    def test_exact_bound_passes(self):
        # potential drop exactly a*step^2
        recs = records_from([5.0, 5.0 - 0.5 * 4.0], [0.0, 2.0])
        assert verify_H1(recs, a=0.5, m=5).passed

    def test_inflated_potential_fails_at_index(self):
        recs = records_from([5.0, 4.0, 4.5, 3.0], [0.0, 1.0, 1.0, 1.0])
        report = verify_H1(recs, a=1.0, m=0)
        assert not report.passed
        assert report.first_violation == 1

    def test_window_rescues_spike(self):
        # the same spike passes once the window remembers the older max
        recs = records_from([5.0, 4.0, 4.5, 3.0], [0.0, 1.0, 0.0, 1.0])
        assert verify_H1(recs, a=0.5, m=2).passed


class TestVerifyH2:
    @pytest.mark.parametrize("b", BAD_CONSTANTS)
    def test_rejects_a_constant_that_empties_it(self, b):
        recs = Trace([rec(0, 2.0, 0.0), rec(1, 1.0, 0.5, witness=2.0)])
        with pytest.raises(ValueError, match=r"b must lie in \[0, inf\)"):
            verify_H2(recs, b=b)

    def test_zero_witness_passes(self):
        recs = records_from([2.0, 1.0], [0.0, 1.0])
        report = verify_H2(recs, b=0.0)
        assert report.passed and report.max_ratio == 0.0

    def test_k0_witness_ignored(self):
        recs = Trace([rec(0, 2.0, 0.0, witness=math.inf), rec(1, 1.0, 1.0)])
        assert verify_H2(recs, b=1.0).passed

    def test_ratio_violation_reported(self):
        recs = Trace([rec(0, 2.0, 0.0), rec(1, 1.0, 0.5, witness=2.0)])
        report = verify_H2(recs, b=3.0)
        assert not report.passed
        assert report.first_violation == 1
        assert report.max_ratio == pytest.approx(4.0)

    def test_zero_step_nonzero_witness(self):
        recs = Trace([rec(0, 2.0, 0.0), rec(1, 2.0, 0.0, witness=1.0)])
        report = verify_H2(recs, b=100.0)
        assert not report.passed
        assert report.zero_step_violation
        assert report.max_ratio == math.inf


class TestClassifyKsets:
    def test_memory_zero_with_moving_steps_gives_empty_k1(self):
        recs = records_from([3.0, 2.0, 1.0], [0.0, 0.5, 0.5])
        report = classify_ksets(recs, a=1.0, theta=0.5, m=0)
        assert not report.k1.any()

    def test_boundary_gap_is_in_k1(self):
        # gap exactly (a/2)*step^2; membership is non-strict
        recs = records_from([1.0, 1.0 - 0.5 * 2.0 * 0.25], [0.0, 0.5])
        report = classify_ksets(recs, a=2.0, theta=0.5, m=1)
        assert report.k1[0]

    def test_hand_table(self):
        pots = [1.0, 0.98, 0.979, 0.779]
        steps = [0.0, 0.1, 2.0, 0.5]
        recs = records_from(pots, steps)
        report = classify_ksets(recs, a=1.0, theta=0.75, m=1,
                                omega_star=0.9)
        flags = np.column_stack([report.k1, report.k2, report.k31])
        assert flags.tolist() == [[True, True, False], [False, False, False],
                                  [True, False, True]]
        assert not report.k32.any()
        assert report.gaps[0] == pytest.approx(0.02)
        assert report.steps[2] == 0.5

    def test_default_omega_star_is_final_window_max(self):
        pots = [1.0, 0.98, 0.979, 0.779]
        recs = records_from(pots, [0.0, 0.1, 2.0, 0.5])
        report = classify_ksets(recs, a=1.0, theta=0.75, m=1)
        assert report.omega_star == pots[2]

    def test_partition_on_solver_trace(self):
        from nmdesc.pg import PgConfig, pg_run
        from testkit import quadratic_problem

        prob = quadratic_problem(A=np.diag([1.0, 3.0]), lam=0.05)
        result = pg_run(prob, np.array([2.0, -1.5]), PgConfig(max_iters=80))
        cfg = result.extras["config"]
        report = classify_ksets(result.records, a=cfg.alpha / 2.0,
                                theta=0.5, m=cfg.m)
        assert not ((report.k2 | report.k31) & ~report.k1).any()
        assert not (report.k2 & report.k31).any()
        assert np.array_equal(report.k32, report.k1 & ~(report.k2 | report.k31))

    @pytest.mark.parametrize("a", BAD_CONSTANTS)
    def test_rejects_a_constant_that_empties_k1(self, a):
        recs = records_from([1.0, 0.5], [0.0, 0.1])
        with pytest.raises(ValueError, match=r"a must lie in \[0, inf\)"):
            classify_ksets(recs, a=a, theta=0.5, m=1)

    def test_theta_domain(self):
        recs = records_from([1.0, 0.5], [0.0, 0.1])
        with pytest.raises(ValueError):
            classify_ksets(recs, a=1.0, theta=1.0, m=1)


class TestPartialSums:
    def test_empty_k1_gives_zero_curve(self):
        recs = records_from([3.0, 2.0, 1.0], [0.0, 0.5, 0.5])
        report = classify_ksets(recs, a=1.0, theta=0.5, m=0)
        sums = condition_partial_sums(recs, report)
        assert np.array_equal(sums["k1_partial"], np.zeros(2))
        assert np.array_equal(sums["k231_partial"], np.zeros(2))

    def test_single_gap_jump(self):
        recs = records_from([5.0, 1.0], [0.0, 0.1])
        report = classify_ksets(recs, a=1.0, theta=0.5, m=1)
        sums = condition_partial_sums(recs, report)
        assert sums["k1_partial"].tolist() == [2.0]  # sqrt(4)

    def test_reference_curve(self):
        recs = records_from([5.0, 1.0, 0.5], [0.0, 0.1, 0.1])
        report = classify_ksets(recs, a=1.0, theta=0.5, m=1)
        sums = condition_partial_sums(recs, report)
        assert sums["reference"][0] == pytest.approx(3000.0)
        assert sums["reference"][1] == pytest.approx(
            3000.0 + 3000.0 / math.sqrt(2.0**2.1))


class TestFitRate:
    def test_geometric_series(self):
        gaps = 0.9 ** np.arange(1, 201)
        fit = fit_rate(gaps, "linear")
        assert fit.rate == pytest.approx(0.9, abs=1e-10)
        assert fit.r_squared >= 0.999
        assert fit.points == 200

    def test_power_law_series(self):
        k = np.arange(1, 201, dtype=np.float64)
        fit = fit_rate(k**-2.0, "sublinear")
        assert fit.rate == pytest.approx(-2.0, abs=1e-10)
        assert fit.theta == pytest.approx(0.6, abs=1e-10)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            fit_rate(np.ones(50), "linear")

    def test_too_few_points_rejected(self):
        with pytest.raises(TooShortToFit) as err:
            fit_rate(0.5 ** np.arange(1, 15), "linear")
        assert err.value.points == 14
        assert isinstance(err.value, ValueError)

    def test_nonpositive_truncates_with_warning(self):
        gaps = 0.9 ** np.arange(1, 101)
        gaps[60] = 0.0
        with pytest.warns(UserWarning):
            fit = fit_rate(gaps, "linear")
        assert fit.points == 60

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_nonfinite_truncates_with_warning(self, bad):
        # an infinite gap is positive, but its log would make the slope NaN
        gaps = 0.9 ** np.arange(1, 101)
        gaps[40] = bad
        gaps[70] = 0.0
        with pytest.warns(UserWarning, match="not finite and positive"):
            fit = fit_rate(gaps, "linear")
        assert fit.points == 40 and fit.rate == pytest.approx(0.9, abs=1e-10)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            fit_rate(0.9 ** np.arange(1, 30), "quadratic")


class TestRateFitTail:
    def test_transient_and_tail_selection(self):
        objs = [10.0, 9.0, 8.0, 4.0, 3.0, 2.0, 1.5, 1.25, 1.0]
        bts = [0, 2, 1, 0, 0, 0, 0, 0, 0]
        recs = Trace(rec(k, o, 0.1, backtracks=b)
                     for k, (o, b) in enumerate(zip(objs, bts)))
        tail = rate_fit_tail(*map(recs.column, RATE_COLUMNS))
        # transient ends at k=3 (first backtrack-free step); gaps against
        # the final objective over k=3..7 are [3, 2, 1, 0.5, 0.25];
        # the tail keeps the last half
        assert tail.tolist() == [1.0, 0.5, 0.25]


class TestEvolutionCurve:
    def two_solver_traces(self):
        fast = Trace(rec(k, 0.0, 0.0, obj=o, time=t)
                     for k, (t, o) in enumerate([(0.0, 4.0), (1.0, 2.0),
                                                 (2.0, 0.0)]))
        slow = Trace(rec(k, 0.0, 0.0, obj=o, time=t)
                     for k, (t, o) in enumerate([(0.0, 4.0), (2.0, 3.0),
                                                 (4.0, 1.0)]))
        return {"fast": fast, "slow": slow}

    def test_hand_table(self):
        curves = evolution_curve(self.two_solver_traces(),
                                 grid=[0.0, 1.5, 2.0, 4.0])
        assert curves["fast"].tolist() == [1.0, 0.5, 0.0, 0.0]
        assert curves["slow"].tolist() == [1.0, 1.0, 0.75, 0.25]

    def test_pre_start_grid_point_is_one(self):
        curves = evolution_curve(self.two_solver_traces(), grid=[-1.0, 0.0])
        assert curves["fast"][0] == 1.0

    def test_range_and_monotonicity(self):
        curves = evolution_curve(self.two_solver_traces(),
                                 grid=np.linspace(0.0, 4.0, 17))
        for e in curves.values():
            assert np.all((0.0 <= e) & (e <= 1.0))
            assert np.all(np.diff(e) <= 0.0 + 1e-15)

    def test_degenerate_instance_rejected(self):
        flat = Trace([rec(0, 0.0, 0.0, obj=1.0, time=0.0),
                      rec(1, 0.0, 0.0, obj=1.0, time=1.0)])
        with pytest.raises(ValueError):
            evolution_curve({"only": flat}, grid=[0.0, 1.0])


# -- the columnar diagnostics against the per-record reference loops ----------

def random_trace(rng, n, k0=0, nan_every=0):
    """Potentials from a few levels, so that windows hold ties; steps and
    witnesses random, some zero; optionally a NaN potential now and then."""
    pots = rng.integers(0, 4, n).astype(np.float64) + rng.integers(0, 2, n) * 0.5
    if nan_every:
        pots[nan_every::nan_every] = math.nan
    steps = np.where(rng.random(n) < 0.2, 0.0, rng.random(n))
    witness = np.where(rng.random(n) < 0.2, 0.0, 3.0 * rng.random(n))
    return Trace(
        TraceRecord(k=k0 + k, time_s=0.1 * k, objective=float(p), potential=float(p),
                    step_norm=float(s), witness_norm=float(w), beta=0.0, tau1=0.1,
                    backtracks=int(rng.integers(0, 3)))
        for k, (p, s, w) in enumerate(zip(pots, steps, witness)))


def assert_matches_reference(trace, a, m, theta, b, omega_star=None):
    assert np.array_equal(ell_indices(trace, m), ell_indices_ref(trace, m))
    h1 = verify_H1(trace, a=a, m=m)
    assert (h1.passed, h1.first_violation, h1.checked) == verify_H1_ref(trace, a, m)
    h2 = verify_H2(trace, b=b)
    ref = verify_H2_ref(trace, b)
    assert (h2.passed, h2.first_violation, h2.zero_step_violation) == \
        (ref[0], ref[2], ref[3])
    assert h2.max_ratio == ref[1] and type(h2.first_violation) is type(ref[2])
    report = classify_ksets(trace, a=a, theta=theta, m=m, omega_star=omega_star)
    flags, gaps, omega = classify_ksets_ref(trace, a, theta, m, omega_star)
    got = np.column_stack([report.k1, report.k2, report.k31]).tolist()
    assert got == [list(flags[j]) for j in range(1, len(trace))]
    assert np.array_equal(report.gaps, gaps, equal_nan=True)
    assert report.omega_star == omega or (math.isnan(omega) and math.isnan(report.omega_star))
    assert np.array_equal(report.k32, report.k1 & ~(report.k2 | report.k31))
    assert np.array_equal(rate_fit_tail(*map(trace.column, RATE_COLUMNS)),
                          rate_fit_tail_ref(trace), equal_nan=True)
    return h1, report


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        trace = random_trace(rng, n, nan_every=7 if seed % 3 == 2 else 0)
        for m in (0, 1, 2, 5, n - 1, n, n + 10):
            for a in (0.0, 0.5, 2.0):
                assert_matches_reference(trace, a=a, m=m, theta=0.4, b=1.5)
        assert_matches_reference(trace, a=0.5, m=3, theta=0.7, b=10.0,
                                 omega_star=1.25)

    def test_memory_zero_and_longer_than_trace(self):
        trace = random_trace(np.random.default_rng(11), 9)
        assert ell_indices(trace, 0).tolist() == list(range(9))
        full = ell_indices(trace, 8)
        assert np.array_equal(ell_indices(trace, 10**6), full)
        for m in (0, 8, 9, 10**6):
            assert_matches_reference(trace, a=1.0, m=m, theta=0.5, b=1.0)

    def test_k_column_not_starting_at_zero(self):
        trace = random_trace(np.random.default_rng(5), 30, k0=4)
        assert trace[0].k == 4
        for m in (0, 3):
            assert_matches_reference(trace, a=0.5, m=m, theta=0.5, b=2.0)

    def test_degenerate_lengths(self):
        one = random_trace(np.random.default_rng(2), 1)
        assert ell_indices(one, 5).tolist() == [0]
        h1 = verify_H1(one, a=1.0, m=5)
        assert (h1.passed, h1.first_violation, h1.checked) == verify_H1_ref(one, 1.0, 5)
        assert len(classify_ksets(one, a=1.0, theta=0.5, m=5).k1) == 0
        assert ell_indices(Trace(), 3).tolist() == []
        assert verify_H1(Trace(), a=1.0, m=3).checked == -1
        with pytest.raises(ValueError):
            ell_indices(one, -1)


def scalar_array_pow_split(exponent):
    """(s, scalar, array) for a step s in [1, 10) whose scalar pow(s,
    exponent), as Python's float ** computes it, differs from numpy's array
    s**exponent; None where the two agree on every sampled step."""
    s = 1.0 + 9.0 * np.random.default_rng(7).random(100_000)
    scalar = np.array([v**exponent for v in s.tolist()])
    array = s**exponent
    differ = np.flatnonzero(scalar != array)
    if not differ.size:
        return None
    i = differ[0]
    return float(s[i]), float(scalar[i]), float(array[i])


class TestScalarPow:
    """The gap or the window maximum sits exactly at the smaller of the two
    powers, so the scalar and the array power put the step on different
    sides of the boundary. The flags and the verdict must follow the scalar
    one (a replay of H1 with Python floats); with numpy's array `**` these
    cases fail."""

    def test_k1_and_h1_boundary_at_squared_step(self):
        split = scalar_array_pow_split(2)
        if split is None:
            pytest.skip("numpy's s**2 equals libm pow(s, 2) on every sample here")
        s, scalar, array = split
        edge = min(scalar, array)
        trace = records_from([edge, 0.0], [0.0, s])
        # K1 threshold (a/2)*s^2 with a = 2 is s^2 itself
        report = classify_ksets(trace, a=2.0, theta=0.5, m=1)
        assert report.gaps[0] == edge
        assert report.k1[0] == (edge >= scalar)
        # H1: potential(1) + 1*s^2 against the window maximum `edge`
        assert verify_H1(trace, a=1.0, m=1).passed == (scalar <= edge)
        assert_matches_reference(trace, a=2.0, m=1, theta=0.5, b=1.0)
        assert_matches_reference(trace, a=1.0, m=1, theta=0.5, b=1.0)

    def test_k2_boundary_at_inverse_theta_power(self):
        theta = 0.3
        split = scalar_array_pow_split(1.0 / theta)
        if split is None:
            pytest.skip("numpy's array power equals libm pow on every sample here")
        s, scalar, array = split
        edge = min(scalar, array)
        trace = records_from([edge, 0.0], [0.0, s])
        # with s >= 1 the gap s^(1/theta) is past the K1 threshold s^2
        report = classify_ksets(trace, a=2.0, theta=theta, m=1)
        assert report.k1[0]
        assert report.k2[0] == (edge < scalar)
        assert_matches_reference(trace, a=2.0, m=1, theta=theta, b=1.0)
