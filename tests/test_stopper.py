"""Tests for the integer gap threshold, p0 calibration, and the stepping rule.

The per-vote stepping rule (``SprtStopper``) is the oracle in
``stopper_reference`` that ``stop_batch`` and ``allocate`` are held to; its
tests stay here.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopper_reference import (
    CONTINUE,
    SprtStopper,
    StopDecision,
    estimate_p0,
    tally_of,
    top_two,
)
from ttpo.consensus import AnswerModel
from ttpo.errors import ConfigurationError
from ttpo.stopper import (
    ErrorBudget,
    StopKind,
    StopperConfig,
    clamp_p0,
    compute_thresholds,
)


def oracle_gap_thresholds(alpha: str, beta: str, p0: str, m: int) -> tuple[int, int]:
    """Independent high-precision oracle, fed decimal strings.

    Evaluates the threshold ratios at 80 decimal digits and resolves
    exact-integer ratios by proximity, bracketing the ceil/floor decision
    away from 64-bit rounding entirely.
    """
    with mpmath.workdps(80):
        a, b, p = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(p0)
        log_kappa = mpmath.log(p * (m - 1) / (1 - p))
        out = []
        for numer, rounder in (
            (mpmath.log((1 - b) / a), mpmath.ceil),
            (mpmath.log(b / (1 - a)), mpmath.floor),
        ):
            ratio = numer / log_kappa
            near = mpmath.nint(ratio)
            out.append(int(near) if abs(ratio - near) < mpmath.mpf("1e-50") else int(rounder(ratio)))
        return out[0], out[1]


class TestErrorBudget:
    def test_defaults(self):
        budget = ErrorBudget()
        assert budget.alpha == 0.05
        assert budget.beta == 0.05

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.0, 0.1), (0.1, 1.0), (0.7, 0.4)])
    def test_degenerate_rejected(self, alpha, beta):
        with pytest.raises(ConfigurationError):
            ErrorBudget(alpha=alpha, beta=beta)


def gap_upper(alpha, beta, p0, m, m_max=64):
    budget = ErrorBudget(alpha=alpha, beta=beta)
    return compute_thresholds(StopperConfig(budget=budget, m_max=m_max), p0, m)


class TestGapThresholds:
    def test_kappa_nine(self):
        assert AnswerModel(p0=0.9, m=2).kappa == pytest.approx(9.0)
        assert gap_upper(0.05, 0.05, 0.9, 2) == 2

    def test_kappa_two(self):
        model = AnswerModel(p0=0.5, m=3)
        assert model.kappa == pytest.approx(2.0)
        assert gap_upper(0.05, 0.05, 0.5, 3) == 5

    def test_near_unit_kappa_accepted(self):
        # Limit behavior: the uncapped threshold is ~1.5e13, so the rule
        # returns exactly the cap m_max + 1, a gap no run can reach.
        for m_max in (32, 64, 1000):
            assert gap_upper(0.05, 0.05, 0.5 + 2.5e-13, 2, m_max=m_max) == m_max + 1

    def test_exact_integer_ratio_resolved(self):
        # alpha=beta=0.1 with kappa=9 makes the upper ratio exactly 1, and
        # kappa=3 makes it exactly 2; float rounding must not bump either.
        assert gap_upper(0.1, 0.1, 0.9, 2) == 1
        assert gap_upper(0.1, 0.1, 0.75, 2) == 2
        # kappa**2 == (1-beta)/alpha exactly (19/6 squared, 1.2 squared), yet
        # the float quotient of logs is 2.0000000000000004: the exact check
        # must walk the estimate back down to 2.
        assert gap_upper(0.072, 0.278, 0.76, 2) == 2
        assert gap_upper(0.1, 0.856, 0.375, 3) == 2

    def test_grid_matches_high_precision_oracle(self):
        alphas_betas = [
            ("0.05", "0.05"), ("0.1", "0.1"), ("0.01", "0.1"),
            ("0.1", "0.01"), ("0.2", "0.2"), ("0.01", "0.01"),
        ]
        p0s = ["0.51", "0.55", "0.6", "0.7", "0.75", "0.8", "0.9", "0.95", "0.99"]
        ms = [2, 3, 4, 5, 10]
        checked = 0
        for alpha, beta in alphas_betas:
            for p0 in p0s:
                for m in ms:
                    if float(p0) * m <= 1.0:
                        continue
                    # m_max far above every grid threshold, so the cap is idle.
                    got = gap_upper(float(alpha), float(beta), float(p0), m, m_max=10_000)
                    oracle_upper, _ = oracle_gap_thresholds(alpha, beta, p0, m)
                    assert got == oracle_upper, (alpha, beta, p0, m)
                    checked += 1
        assert checked > 200

    def test_sign_invariants(self):
        for p0, m in [(0.51, 2), (0.9, 2), (0.35, 3), (0.6, 10)]:
            assert 1 <= gap_upper(0.05, 0.05, p0, m) <= 65

    def test_at_or_below_chance_rejected(self):
        for p0, m in [(0.5, 2), (0.25, 4), (0.1, 3), (1.0, 2)]:
            with pytest.raises(ConfigurationError):
                gap_upper(0.05, 0.05, p0, m)

    def test_alpha_monotonicity(self):
        # Shrinking alpha at fixed beta and kappa never loosens the gap bar.
        previous = None
        for alpha in [0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001]:
            got = gap_upper(alpha, 0.05, 0.8, 4)
            if previous is not None:
                assert got >= previous
            previous = got


class TestClampAndEstimate:
    def test_mid_range_estimate(self):
        config = StopperConfig(n_min=32)
        tally = tally_of({0: 20, 1: 12}, m=4)
        assert estimate_p0(tally, config, 4) == pytest.approx(0.375)

    def test_unanimous_estimate(self):
        config = StopperConfig(n_min=32)
        tally = tally_of({0: 32}, m=4)
        assert estimate_p0(tally, config, 4) == pytest.approx(0.6)

    def test_weak_majority_clamped_to_floor(self):
        config = StopperConfig(n_min=32)
        tally = tally_of({0: 9, 1: 8, 2: 8, 3: 7}, m=4)
        # raw 0.6 * 9/32 = 0.16875 sits below chance for m=4.
        assert estimate_p0(tally, config, 4) == pytest.approx(0.25 + 1e-3)

    def test_wrong_total_rejected(self):
        config = StopperConfig(n_min=32)
        with pytest.raises(ValueError):
            estimate_p0(tally_of({0: 5}, m=4), config, 4)

    def test_clamp_bounds(self):
        assert clamp_p0(0.99999, 2, 1e-3) == pytest.approx(0.999)
        assert clamp_p0(0.1, 2, 1e-3) == pytest.approx(0.501)
        assert clamp_p0(0.7, 2, 1e-3) == 0.7

    def test_clamp_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            clamp_p0(0.5, 2, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=30),
    )
    def test_clamp_always_lands_above_chance(self, p0, m):
        clamped = clamp_p0(p0, m, 1e-3)
        assert 1.0 / m < clamped < 1.0
        AnswerModel(p0=clamped, m=m)  # construction must succeed


class TestStopperConfig:
    def test_defaults(self):
        config = StopperConfig()
        assert (config.n_min, config.m_max, config.streak_k) == (32, 64, 5)
        assert config.degradation == 0.6
        assert config.budget.alpha == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_min": 0},
            {"n_min": 16, "m_max": 8},
            {"streak_k": 0},
            {"degradation": 0.0},
            {"degradation": 1.5},
            {"p0_floor_epsilon": 0.0},
            {"p0_fixed": 1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StopperConfig(**kwargs)


class TestStopDecision:
    def test_continue_carries_no_answer(self):
        with pytest.raises(ValueError):
            StopDecision(CONTINUE, chosen=0)

    def test_terminal_requires_answer(self):
        with pytest.raises(ValueError):
            StopDecision(StopKind.STOP_LEADER)


def drive(stopper: SprtStopper, votes) -> list[StopDecision]:
    return [stopper.step(v) for v in votes]


class TestSprtStopper:
    def test_immediate_stop_with_unit_streak(self):
        config = StopperConfig(n_min=1, streak_k=1, p0_fixed=0.9)
        stopper = SprtStopper(config, m=2)
        assert stopper.gap_upper == 2
        first, second = drive(stopper, [0, 0])
        assert first.kind is CONTINUE
        assert second.kind is StopKind.STOP_LEADER
        assert second.chosen == 0
        assert stopper.t == 2
        assert stopper.finalize() == 0

    def test_alternating_votes_exhaust_budget(self):
        config = StopperConfig(n_min=1, m_max=8, streak_k=1, p0_fixed=0.9)
        stopper = SprtStopper(config, m=2)
        decisions = drive(stopper, [0, 1, 0, 1, 0, 1, 0, 1])
        assert [d.kind for d in decisions[:-1]] == [CONTINUE] * 7
        assert decisions[-1].kind is StopKind.BUDGET_EXHAUSTED
        assert decisions[-1].chosen == 0  # 4-4 tie, lowest id
        assert stopper.t == 8

    def test_streak_resets_on_gap_dip(self):
        # Post-warm-up gap trace [2, 2, 1, 2, 2, 2] with gap_upper=2 and
        # streak_k=3: the dip resets the counter, stop fires on step six.
        config = StopperConfig(n_min=4, m_max=64, streak_k=3, p0_fixed=0.7)
        stopper = SprtStopper(config, m=4)
        assert stopper.gap_upper == 2
        votes = [0, 0, 0, 1, 2, 1, 0, 2, 3]
        decisions = drive(stopper, votes)
        assert [d.kind for d in decisions[:-1]] == [CONTINUE] * 8
        assert decisions[-1].kind is StopKind.STOP_LEADER
        assert decisions[-1].chosen == 0
        assert stopper.t == 9

    def test_budget_exhausted_picks_final_leader(self):
        config = StopperConfig(n_min=64, m_max=64, streak_k=5, p0_fixed=0.9)
        stopper = SprtStopper(config, m=2)
        decisions = drive(stopper, [0] * 30 + [1] * 34)
        assert decisions[-1].kind is StopKind.BUDGET_EXHAUSTED
        assert decisions[-1].chosen == 1
        assert stopper.finalize() == 1

    def test_adaptive_p0_frozen_at_warm_up(self):
        config = StopperConfig(n_min=4, m_max=16, streak_k=1)
        stopper = SprtStopper(config, m=2)
        assert stopper.model is None
        drive(stopper, [0, 0, 0])
        assert stopper.model is None  # still warming up
        stopper.step(0)
        # Unanimous 4-vote warm-up: p0 = 0.6 * 4/4 = 0.6, frozen now.
        assert stopper.model.p0 == pytest.approx(0.6)
        frozen = stopper.model
        while not stopper.is_terminal:
            stopper.step(0)
        assert stopper.model is frozen

    def test_step_after_terminal_rejected(self):
        config = StopperConfig(n_min=1, streak_k=1, p0_fixed=0.9)
        stopper = SprtStopper(config, m=2)
        drive(stopper, [0, 0])
        with pytest.raises(RuntimeError):
            stopper.step(0)

    def test_vote_out_of_range_rejected(self):
        stopper = SprtStopper(StopperConfig(), m=4)
        with pytest.raises(ValueError):
            stopper.step(4)

    def test_finalize_before_terminal_rejected(self):
        stopper = SprtStopper(StopperConfig(), m=2)
        stopper.step(0)
        with pytest.raises(RuntimeError):
            stopper.finalize()

    def test_force_stop_before_warm_up(self):
        stopper = SprtStopper(StopperConfig(n_min=32), m=3)
        drive(stopper, [2, 2, 0])
        decision = stopper.force_stop()
        assert decision.kind is StopKind.BUDGET_EXHAUSTED
        assert decision.chosen == 2
        assert stopper.model is not None  # estimated from the partial tally
        assert stopper.finalize() == 2

    def test_force_stop_with_no_votes_rejected(self):
        stopper = SprtStopper(StopperConfig(), m=2)
        with pytest.raises(RuntimeError):
            stopper.force_stop()

    def test_force_stop_after_terminal_is_identity(self):
        config = StopperConfig(n_min=1, streak_k=1, p0_fixed=0.9)
        stopper = SprtStopper(config, m=2)
        final = drive(stopper, [0, 0])[-1]
        assert stopper.force_stop() is final

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_decision_soundness(self, data):
        m = data.draw(st.integers(min_value=2, max_value=5))
        n_min = data.draw(st.integers(min_value=1, max_value=8))
        m_max = data.draw(st.integers(min_value=n_min, max_value=24))
        streak_k = data.draw(st.integers(min_value=1, max_value=4))
        config = StopperConfig(
            n_min=n_min, m_max=m_max, streak_k=streak_k, p0_fixed=0.8
        )
        stopper = SprtStopper(config, m=m)
        votes = data.draw(
            st.lists(st.integers(min_value=0, max_value=m - 1), min_size=m_max, max_size=m_max)
        )
        gaps = []
        decisions = []
        for t, vote in enumerate(votes, start=1):
            decision = stopper.step(vote)
            decisions.append(decision)
            if t >= n_min:
                gaps.append(top_two(stopper.tally).gap)
            if decision.terminal:
                break
        # Warm-up: never terminal before n_min votes.
        for t, decision in enumerate(decisions, start=1):
            if t < n_min:
                assert decision.kind is CONTINUE
        # Budget: the test never runs past m_max, and t counts every vote.
        assert stopper.t <= m_max
        assert stopper.t == len(decisions)
        last = decisions[-1]
        assert last.terminal
        gap_upper = stopper.gap_upper
        if last.kind is StopKind.STOP_LEADER:
            assert len(gaps) >= streak_k
            assert all(g >= gap_upper for g in gaps[-streak_k:])
        else:
            assert last.kind is StopKind.BUDGET_EXHAUSTED
            assert stopper.t == m_max

    def test_wrong_pick_rate_within_wald_bound(self):
        # Classical SPRT regime: streak_k=1, model matches the stream
        # (p0=0.75, m=2, kappa=3, gap threshold 3). The chance of
        # stopping on the wrong answer is 26/728 ~ 0.036, below the Wald
        # bound alpha/(1-beta) ~ 0.0526; assert with Monte Carlo slack.
        rng = np.random.default_rng(907)
        config = StopperConfig(n_min=1, m_max=10_000, streak_k=1, p0_fixed=0.75)
        trials, wrong = 2000, 0
        for _ in range(trials):
            stopper = SprtStopper(config, m=2)
            while True:
                vote = 0 if rng.random() < 0.75 else 1
                if stopper.step(vote).terminal:
                    break
            if stopper.finalize() != 0:
                wrong += 1
        bound = 0.05 / (1 - 0.05)
        assert wrong / trials <= bound + 0.015
