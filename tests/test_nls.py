"""Acceptance window machinery."""

import math
from collections import deque

import pytest

from testkit import nesterov_ref
from nmdesc.nls import (
    BacktrackCapError,
    LineSearchStalled,
    STALL_ULPS,
    accept,
    backtrack_params,
    bb_ratio,
    cap_error,
    nesterov,
    stalled,
    window_max,
)
from nmdesc.palm import PalmConfig
from nmdesc.pg import PgConfig


def make_window(memory, values):
    """A run's window with memory m after pushing `values` at k = 0, 1, ..."""
    return deque(enumerate(values), maxlen=memory + 1)


class TestWindowMax:
    def test_tie_takes_largest_index(self):
        w = make_window(3, [3.0, 5.0, 5.0, 2.0])
        assert window_max(w) == (5.0, 2)

    def test_memory_zero_keeps_newest(self):
        w = make_window(0, [9.0, 4.0, 7.0])
        assert window_max(w) == (7.0, 2)

    def test_decreasing_values_pick_oldest_stored(self):
        w = make_window(2, [10.0, 9.0, 8.0, 7.0])
        # window holds k=1..3; the oldest stored is the max
        assert window_max(w) == (9.0, 1)

    def test_nan_is_never_taken_after_the_oldest_entry(self):
        nan = math.nan
        assert window_max(make_window(3, [3.0, nan, 5.0, 4.0])) == (5.0, 2)
        assert window_max(make_window(3, [3.0, 5.0, nan])) == (5.0, 1)
        val, idx = window_max(make_window(3, [nan, 5.0, 7.0]))
        assert math.isnan(val) and idx == 0


class TestAccept:
    def test_exact_bound_accepted(self):
        w = make_window(1, [10.0])
        # candidate == max - (alpha/2)*step_sq exactly
        assert accept(10.0 - 0.5 * 0.1 * 4.0, w, alpha=0.1, step_sq=4.0)

    def test_zero_step_equal_value_accepted(self):
        w = make_window(1, [10.0])
        assert accept(10.0, w, alpha=0.1, step_sq=0.0)

    def test_positive_step_equal_value_rejected(self):
        w = make_window(1, [10.0])
        assert not accept(10.0, w, alpha=0.1, step_sq=1.0)


class TestStallRule:
    # the window bound and required decrease of pgls on the desk logistic
    # instance 103 at the iteration where its line search stalls
    BOUND = 138.58943424509303
    ALPHA, STEP_SQ = 1e-5, 6.6e-24

    def window(self):
        return make_window(0, [self.BOUND])

    def test_miss_of_a_few_ulp_stalls(self):
        w = self.window()
        for ulps in range(1, STALL_ULPS + 1):
            candidate = self.BOUND + ulps * math.ulp(self.BOUND)
            assert not accept(candidate, w, self.ALPHA, self.STEP_SQ)
            assert stalled(candidate, w, self.ALPHA, self.STEP_SQ)
            err = cap_error(7, 60, None, candidate, w, self.ALPHA, self.STEP_SQ)
            assert isinstance(err, LineSearchStalled) and err.k == 7

    def test_real_miss_raises_the_cap(self):
        w = self.window()
        candidate = self.BOUND + 1e-10
        assert not stalled(candidate, w, self.ALPHA, self.STEP_SQ)
        err = cap_error(7, 60, "last", candidate, w, self.ALPHA, self.STEP_SQ)
        assert isinstance(err, BacktrackCapError)
        assert (err.k, err.cap, err.last_candidate) == (7, 60, "last")

    def test_required_decrease_above_rounding_raises_the_cap(self):
        # a candidate at the bound that owes a real decrease has not stalled
        w = self.window()
        assert not stalled(self.BOUND, w, self.ALPHA, 1e-6)
        assert isinstance(cap_error(7, 60, None, self.BOUND, w, self.ALPHA, 1e-6),
                          BacktrackCapError)


class TestBacktrackParams:
    def test_first_trial_uses_initializations(self):
        assert backtrack_params(0, 0.7, 0.5, 1e-3, (2.0, 0.5)) == (0.7, 2.0)
        assert backtrack_params(0, 0.7, 0.5, 1e-3, (2.0, 0.5), (3.0, 0.1)) == \
            (0.7, 2.0, 3.0)

    def test_zero_beta_stays_zero(self):
        for l in range(5):
            beta, _ = backtrack_params(l, 0.0, 0.5, 1e-3, (1.0, 0.5))
            assert beta == 0.0

    def test_tau_floor_active(self):
        _, tau = backtrack_params(5, 1.0, 0.5, 1e-3, (1.0, 0.1))
        assert tau == 1e-3  # 1*0.1^5 = 1e-5 < floor

    def test_pg_schedule_bit_for_bit(self):
        # the PG default factors (eta1 for beta, eta2 for tau); the rows
        # from l = 25 on are clamped at the tau floor
        beta0, tau0, eta1, eta2, tau_min = 0.6180339887498949, 3.7, 0.05, 0.1, 1.3e-24
        clamped = 0
        for l in range(61):
            beta, tau = backtrack_params(l, beta0, eta1, tau_min, (tau0, eta2))
            assert beta == beta0 * eta1**l
            assert tau == max(tau0 * eta2**l, tau_min)
            clamped += tau == tau_min
        assert clamped > 30

    def test_palm_schedule_bit_for_bit(self):
        # the PALM default factors (eta for beta, eta1 and eta2 for tau1 and
        # tau2), as palm_step wrote them inline; tau2 is clamped from l = 21
        beta0, tau1_0, tau2_0 = 0.7071067811865476, 41.5, 0.0123
        eta, eta1, eta2, tau_lo = 0.01, 0.5, 0.5, 1e-8
        clamped = 0
        for l in range(61):
            got = backtrack_params(l, beta0, eta, tau_lo,
                                   (tau1_0, eta1), (tau2_0, eta2))
            assert got == (beta0 * eta**l,
                           max(tau1_0 * eta1**l, tau_lo),
                           max(tau2_0 * eta2**l, tau_lo))
            clamped += got[2] == tau_lo
        assert clamped > 30


PGLS = dict(delta=0.0, beta_max=0.0, m=0)


class TestConfigsCheckTheLineSearch:
    """`validated()` checks the parameters of the schedule, the test and the
    window once per run; `backtrack_params` and `accept` do not recheck
    them per trial."""

    @pytest.mark.parametrize("bad", [
        {"eta1": 0.0}, {"eta1": 1.0}, {"eta1": -0.5}, {"eta1": 1.5},
        {"eta2": 0.0}, {"eta2": 1.0}, {"eta2": -0.5}, {"eta2": 1.5},
        {"tau_min": 0.0}, {"tau_min": -1e-3},
        {"alpha": 0.0}, {"alpha": -1e-5},
        {**PGLS, "alpha": 0.0}, {**PGLS, "alpha": -1e-5},
        {"m": -1}, {"max_backtracks": -1},
        {"tau0": math.nan}, {"tau0": 0.0}, {"tau0": -1.0},
    ])
    def test_pg_config_rejects(self, bad):
        with pytest.raises(ValueError):
            PgConfig(**bad).validated(1.0)

    @pytest.mark.parametrize("bad", [
        {"eta": 0.0}, {"eta": 1.0}, {"eta": -0.5}, {"eta": 1.5},
        {"eta1": 0.0}, {"eta1": 1.0}, {"eta1": -0.5}, {"eta1": 1.5},
        {"eta2": 0.0}, {"eta2": 1.0}, {"eta2": -0.5}, {"eta2": 1.5},
        {"tau_lo": 0.0}, {"tau_lo": -1e-8},
        {"alpha": 0.0}, {"alpha": -1e-5},
        {"m": -1}, {"max_backtracks": -1},
        *({name: value} for name in ("tau1_0", "tau2_0")
          for value in (math.nan, 0.0, -1.0)),
    ])
    def test_palm_config_rejects(self, bad):
        with pytest.raises(ValueError):
            PalmConfig(**bad).validated(1.0, 1.0)


def test_window_max_nonincreasing_over_accepted_sequence():
    """Any sequence passing the acceptance test keeps the window max
    nonincreasing."""
    import numpy as np

    rng = np.random.default_rng(0)
    w = make_window(4, [10.0])
    prev_max, _ = window_max(w)
    for k in range(1, 200):
        bound, _ = window_max(w)
        step_sq = float(rng.uniform(0.0, 1.0))
        # propose a value right at or below the acceptance bound
        value = bound - 0.5 * 1e-2 * step_sq - float(rng.uniform(0.0, 0.5))
        assert accept(value, w, alpha=1e-2, step_sq=step_sq)
        w.append((k, value))
        cur_max, _ = window_max(w)
        assert cur_max <= prev_max + 1e-15
        prev_max = cur_max


class TestExtrapolation:
    def test_nesterov_rule_caps_the_weight(self):
        # from counter t, the weight the two-counter recurrence gives at
        # counters (t, t_next), capped
        t = 4.0
        _, t_next = nesterov_ref(1.0, t)
        beta, _ = nesterov_ref(t, t_next)
        assert nesterov(t, 0.25) == (0.25, t_next)
        assert nesterov(t, 1.0) == (beta, t_next)


class TestBbRatio:
    def test_smaller_of_the_two_ratios(self):
        # d = (1, 0), dh = (2, 1): ||d||^2/<d, dh> = 0.5, <d, dh>/||dh||^2 = 0.4
        assert bb_ratio(1.0, 5.0, 2.0, 1e-6, 1e6) == 0.4

    def test_nonpositive_curvature_takes_the_upper_bound(self):
        assert bb_ratio(1.0, 1.0, 0.0, 1e-6, 10.0) == 10.0
        assert bb_ratio(1.0, 1.0, -1.0, 1e-6, 10.0) == 10.0
        # below the relative guard 1e-12*||d||*||dh||
        assert bb_ratio(1.0, 1.0, 1e-13, 1e-6, 10.0) == 10.0

    def test_clipped_to_bounds(self):
        assert bb_ratio(1.0, 1.0, 1.0, 2.0, 10.0) == 2.0
        assert bb_ratio(1e4, 1e-4, 1.0, 1e-6, 10.0) == 10.0
