"""Acceptance window machinery."""

import math
from types import SimpleNamespace

import pytest

from nmdesc.nls import (
    BacktrackCapError,
    HistoryWindow,
    LineSearchStalled,
    STALL_ULPS,
    accept,
    backtrack_params,
    bb_ratio,
    cap_error,
    extrapolation,
    nesterov_beta,
    stalled,
    window_max,
)


def make_window(memory, values):
    w = HistoryWindow(memory)
    for k, v in enumerate(values):
        w.push(k, v)
    return w


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

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            window_max(HistoryWindow(2))

    def test_indices_must_increase(self):
        w = make_window(2, [1.0, 2.0])
        with pytest.raises(ValueError):
            w.push(1, 3.0)


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

    def test_parameter_validation(self):
        w = make_window(1, [1.0])
        with pytest.raises(ValueError):
            accept(0.0, w, alpha=0.0, step_sq=1.0)
        with pytest.raises(ValueError):
            accept(0.0, w, alpha=0.1, step_sq=-1.0)


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
        assert backtrack_params(0, 0.7, 2.0, 0.5, 0.5, 1e-3) == (0.7, 2.0)

    def test_zero_beta_stays_zero(self):
        for l in range(5):
            beta, _ = backtrack_params(l, 0.0, 1.0, 0.5, 0.5, 1e-3)
            assert beta == 0.0

    def test_tau_floor_active(self):
        _, tau = backtrack_params(5, 1.0, 1.0, 0.5, 0.1, 1e-3)
        assert tau == 1e-3  # 1*0.1^5 = 1e-5 < floor

    def test_validation(self):
        with pytest.raises(ValueError):
            backtrack_params(0, 1.0, 1.0, 1.0, 0.5, 1e-3)
        with pytest.raises(ValueError):
            backtrack_params(0, 1.0, 1.0, 0.5, 0.5, 0.0)


def test_window_max_nonincreasing_over_accepted_sequence():
    """Any sequence passing the acceptance test keeps the window max
    nonincreasing."""
    import numpy as np

    rng = np.random.default_rng(0)
    w = HistoryWindow(4)
    w.push(0, 10.0)
    prev_max, _ = window_max(w)
    for k in range(1, 200):
        bound, _ = window_max(w)
        step_sq = float(rng.uniform(0.0, 1.0))
        # propose a value right at or below the acceptance bound
        value = bound - 0.5 * 1e-2 * step_sq - float(rng.uniform(0.0, 0.5))
        assert accept(value, w, alpha=1e-2, step_sq=step_sq)
        w.push(k, value)
        cur_max, _ = window_max(w)
        assert cur_max <= prev_max + 1e-15
        prev_max = cur_max


class TestExtrapolation:
    def test_nesterov_rule_caps_the_weight(self):
        t_prev, t_cur = 3.0, 4.0
        beta, t_next = nesterov_beta(t_prev, t_cur)
        cfg = SimpleNamespace(beta_rule="nesterov", beta_max=0.25)
        assert extrapolation(cfg, t_prev, t_cur) == (0.25, t_next)
        cfg.beta_max = 1.0
        assert extrapolation(cfg, t_prev, t_cur) == (beta, t_next)

    def test_constant_rule_keeps_the_counter(self):
        cfg = SimpleNamespace(beta_rule="constant", beta_max=0.3)
        assert extrapolation(cfg, 1.0, 1.0) == (0.3, 1.0)
        assert extrapolation(cfg, 3.0, 4.0) == (0.3, 4.0)


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
