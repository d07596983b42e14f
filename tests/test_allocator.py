"""Tests for the online sample-test loop against the per-vote oracle."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stopper_reference as reference
from scalar_reference import PolicyVoteSource
from test_kernel import CASES, RecordedSource, random_block
from ttpo.allocator import VoteSource, allocate
from ttpo.errors import AllocationError, ConfigurationError
from ttpo.seeding import stream_seed
from ttpo.stopper import ErrorBudget, StopKind, StopperConfig, ThresholdTable, stop_batch
from ttpo.synth import (
    CategoricalVoteSource,
    P0Spec,
    SyntheticInstance,
    TraceVoteSource,
    gen_instances,
)


def scripted(m, answers, cost=1):
    """A finite source replaying ``answers``, every vote at the same cost."""
    return RecordedSource(m, answers, [cost] * len(answers))


class RationedSource:
    """Counts the votes taken from a source and fails any take that reaches
    past ``allowance`` votes."""

    def __init__(self, source, allowance=None):
        self._source = source
        self._allowance = allowance
        self.taken = 0

    @property
    def m(self):
        return self._source.m

    def take(self, n):
        answers, costs = self._source.take(n)
        self.taken += len(answers)
        if self._allowance is not None and self.taken > self._allowance:
            raise AssertionError(f"vote {self.taken} is past the oracle's {self._allowance}")
        return answers, costs


class CyclicSource:
    """Unbounded source cycling through a fixed answer pattern."""

    def __init__(self, m, pattern, cost=1):
        self.m = m
        self._pattern = np.asarray(pattern, dtype=np.int64)
        self._cost = cost
        self._pos = 0

    def take(self, n):
        index = np.arange(self._pos, self._pos + n) % self._pattern.size
        self._pos += n
        return self._pattern[index], np.full(n, self._cost, dtype=np.int64)


def test_sources_satisfy_the_protocol():
    instance = SyntheticInstance("x", true_answer=0, m=3, p0_true=0.7)
    sources = [
        CategoricalVoteSource(instance, 1),
        PolicyVoteSource(np.array([0.25, 0.75]), 1),
        TraceVoteSource("q", ["a", "b"], [1, 2]),
        scripted(2, [0]),
        RationedSource(scripted(2, [0])),
        CyclicSource(2, [0]),
    ]
    for source in sources:
        assert isinstance(source, VoteSource), source

    class PerVoteOnly:
        m = 2

        def draw(self):
            return 0, 1

    assert not isinstance(PerVoteOnly(), VoteSource)


FAST_STOP = StopperConfig(n_min=1, m_max=64, streak_k=1, p0_fixed=0.9)


class TestAllocate:
    def test_constant_source_stops_at_two(self):
        result = allocate(CyclicSource(2, [0]), FAST_STOP)
        assert result.tau == 2
        assert result.pseudo_label == 0
        assert result.decision_kind is StopKind.STOP_LEADER
        assert result.votes == ((0, 1), (0, 1))
        assert result.total_cost == 2
        assert not result.truncated

    def test_alternating_source_exhausts_budget(self):
        result = allocate(CyclicSource(2, [0, 1]), FAST_STOP)
        assert result.tau == 64
        assert result.decision_kind is StopKind.BUDGET_EXHAUSTED
        assert result.pseudo_label == 0
        assert result.total_cost == 64

    def test_retained_is_n_min_prefix(self):
        config = StopperConfig(n_min=32, m_max=64, streak_k=5, p0_fixed=0.9)
        votes = [0, 1] * 17 + [0] * 6  # gap reaches 2 at t=36, streak 5 at t=40
        result = allocate(scripted(2, votes), config)
        assert result.tau == 40
        assert result.decision_kind is StopKind.STOP_LEADER
        assert result.retained == tuple(range(32))
        assert result.retained_answers() == votes[:32]

    def test_stop_exactly_at_warm_up_end(self):
        config = StopperConfig(n_min=32, m_max=64, streak_k=1, p0_fixed=0.9)
        result = allocate(CyclicSource(2, [1]), config)
        assert result.tau == 32
        assert result.retained == tuple(range(32))
        assert result.pseudo_label == 1

    def test_truncated_trace_keeps_partial_votes(self):
        config = StopperConfig(n_min=32, m_max=64, streak_k=5)
        result = allocate(scripted(3, [2, 2, 0, 2, 2, 2, 1, 2, 2, 2]), config)
        assert result.truncated
        assert result.tau == 10
        assert result.decision_kind is StopKind.BUDGET_EXHAUSTED
        assert result.pseudo_label == 2
        assert result.retained == tuple(range(10))
        assert result.retained_answers() == [2, 2, 0, 2, 2, 2, 1, 2, 2, 2]

    def test_empty_source_rejected(self):
        with pytest.raises(AllocationError):
            allocate(scripted(2, []), FAST_STOP)

    def test_single_answer_space_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate(scripted(1, [0]), FAST_STOP)

    def test_negative_cost_rejected(self):
        with pytest.raises(AllocationError):
            allocate(scripted(2, [0], cost=-1), FAST_STOP)

    @pytest.mark.parametrize(
        "answer, cost, error, message",
        [
            (2, 1, ValueError, "vote 2 out of range for m=2"),
            (-1, 1, ValueError, "vote -1 out of range for m=2"),
            (0, -1, AllocationError, "negative cost -1"),
        ],
    )
    def test_bad_vote_rejected_before_the_next_draw(self, answer, cost, error, message):
        # The second of the 36 votes in the first take is bad; a second take
        # fails.
        config = StopperConfig()
        source = RecordedSource(2, [0, answer] + [0] * 40, [1, cost] + [1] * 40)
        with pytest.raises(error, match=message):
            allocate(RationedSource(source, config.n_min + config.streak_k - 1), config)

    @pytest.mark.parametrize(
        "answers, costs, error, message",
        [
            ([0, 5, 0, 0], [1, 1, 1, -2], ValueError, "vote 5 out of range for m=2"),
            ([0, 0, 0, 5], [1, -2, 1, 1], AllocationError, "negative cost -2"),
            ([0, 5, 0, 0], [1, -2, 1, 1], AllocationError, "negative cost -2"),
        ],
    )
    def test_first_bad_vote_in_a_take_wins(self, answers, costs, error, message):
        # All four votes arrive in the first take. The earliest bad vote
        # raises, and a vote bad on both counts raises for its cost, as the
        # per-vote oracle does.
        config = StopperConfig(n_min=4, m_max=8, streak_k=1)
        for run in (allocate, reference.allocate):
            with pytest.raises(error, match=message):
                run(RecordedSource(2, answers + [0] * 4, costs + [1] * 4), config)

    def test_costs_accumulate_recorded_tokens(self):
        config = StopperConfig(n_min=1, m_max=8, streak_k=1, p0_fixed=0.9)
        result = allocate(scripted(2, [0, 0], cost=117), config)
        assert result.total_cost == 234
        assert result.votes == ((0, 117), (0, 117))

    def test_total_cost_is_exact_past_int64(self):
        # Each cost fits int64; their sum does not, and is added exactly.
        result = allocate(scripted(2, [0, 0], cost=2**62), FAST_STOP)
        assert result.total_cost == 2**63

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_budget_and_warmup_guarantees(self, data):
        n_min = data.draw(st.integers(min_value=1, max_value=12))
        m_max = data.draw(st.integers(min_value=n_min, max_value=40))
        streak_k = data.draw(st.integers(min_value=1, max_value=4))
        m = data.draw(st.integers(min_value=2, max_value=5))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        config = StopperConfig(n_min=n_min, m_max=m_max, streak_k=streak_k)
        instance = SyntheticInstance("x", true_answer=0, m=m, p0_true=0.7)
        result = allocate(CategoricalVoteSource(instance, seed), config)
        assert n_min <= result.tau <= m_max
        assert not result.truncated
        assert len(result.votes) == result.tau
        assert result.final_tally.total == result.tau
        assert result.total_cost == sum(c for _, c in result.votes)
        # Savings identity against a fixed budget of m_max draws.
        assert 0.0 <= 1.0 - result.tau / m_max < 1.0
        if result.decision_kind is StopKind.STOP_LEADER:
            assert int(np.argmax(result.posterior_at_stop)) == result.pseudo_label

    def test_adaptive_run_is_cheaper_than_budget_and_accurate(self):
        instances = gen_instances(300, m=4, p0_spec=P0Spec.constant(0.8), seed=21)
        config = StopperConfig()
        taus, correct = [], 0
        for inst in instances:
            source = CategoricalVoteSource(
                inst, stream_seed(21, "adaptive", 0, inst.instance_id)
            )
            result = allocate(source, config)
            taus.append(result.tau)
            correct += result.pseudo_label == inst.true_answer
        assert np.mean(taus) < config.m_max
        assert correct / len(instances) > 0.85


def result_fields(result):
    return (
        result.pseudo_label,
        result.tau,
        result.decision_kind,
        result.votes,
        result.retained,
        result.total_cost,
        result.final_tally,
        result.posterior_at_stop.tobytes(),
        result.p0_used,
        result.truncated,
    )


def assert_matches_oracle(make_source, config):
    """allocate equals the per-vote oracle on every field and reads the same
    votes."""
    counted = RationedSource(make_source())
    expected = reference.allocate(counted, config)
    rationed = RationedSource(make_source(), allowance=counted.taken)
    assert result_fields(allocate(rationed, config)) == result_fields(expected)
    assert rationed.taken == counted.taken
    return expected


class TestMatchesOracle:
    """Over 10,000 streams: the same result as stepping the rule vote by vote,
    from exactly the votes the oracle reads."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_random_streams(self, name):
        config = CASES[name]
        rng = np.random.default_rng(sorted(CASES).index(name) + 7300)
        rows, width = 1300, config.m_max + 20
        votes, lengths, m = random_block(rng, rows, width, [2, 3, 4, 7])
        costs = rng.integers(0, 50, (rows, width))
        # Besides random_block's ragged lengths: sources that run dry before
        # the warm-up ends, and sources exactly as long as the budget.
        lengths[1::4] = rng.integers(1, config.n_min + 1, lengths[1::4].size)
        lengths[2::4] = config.m_max
        inside_streak = 0
        outcomes = set()
        for i in range(rows):
            row = functools.partial(RecordedSource, int(m[i]), votes[i], costs[i])
            if i % 4 == 3 and config.streak_k > 1:
                # One vote short of where the full stream stops: the source
                # runs dry inside the confirming streak.
                full = reference.allocate(row(), config)
                if full.decision_kind is StopKind.STOP_LEADER:
                    lengths[i] = full.tau - 1
                    inside_streak += 1
            n = int(lengths[i])
            row = functools.partial(RecordedSource, int(m[i]), votes[i, :n], costs[i, :n])
            result = assert_matches_oracle(row, config)
            outcomes.add(
                (result.decision_kind, result.truncated, result.tau < config.n_min)
            )
        assert (StopKind.STOP_LEADER, False, False) in outcomes
        assert (StopKind.BUDGET_EXHAUSTED, False, False) in outcomes
        assert (StopKind.BUDGET_EXHAUSTED, True, config.n_min > 1) in outcomes
        assert inside_streak > 0 or config.streak_k == 1

    def test_wald_regime(self):
        # Criterion 3's regime, where every vote after the first is a check:
        # live sources under a budget no run reaches, then short recorded
        # streams that run dry.
        config = StopperConfig(
            budget=ErrorBudget(alpha=0.05, beta=0.05),
            n_min=1,
            m_max=10_000,
            streak_k=1,
            p0_fixed=0.7,
        )
        for inst in gen_instances(1000, 4, P0Spec.uniform(0.4, 0.95), seed=4022):
            seed = stream_seed(4022, "adaptive", 0, inst.instance_id)
            assert_matches_oracle(functools.partial(CategoricalVoteSource, inst, seed), config)
        rng = np.random.default_rng(4023)
        votes, lengths, m = random_block(rng, 500, 30, [2, 3, 4, 7])
        truncated = 0
        for i in range(len(votes)):
            n = int(lengths[i])
            row = functools.partial(RecordedSource, int(m[i]), votes[i, :n], np.ones(n))
            truncated += assert_matches_oracle(row, config).truncated
        assert truncated > 0


class TestSuffixInvariance:
    """Votes after a decided tau (a confirmed stop, or tau == m_max) change
    nothing: the decision at vote t reads votes 1..t only."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_list_source(self, data):
        m = data.draw(st.integers(min_value=2, max_value=5))
        n_min = data.draw(st.integers(min_value=1, max_value=10))
        m_max = data.draw(st.integers(min_value=n_min, max_value=30))
        config = StopperConfig(
            n_min=n_min,
            m_max=m_max,
            streak_k=data.draw(st.integers(min_value=1, max_value=4)),
            p0_fixed=data.draw(st.sampled_from([None, 0.8])),
        )
        vote = st.integers(min_value=0, max_value=m - 1)
        cost = st.integers(min_value=0, max_value=100)
        # Leaning toward answer 0, so confirmed stops are common.
        answers = data.draw(
            st.lists(st.one_of(st.just(0), vote), min_size=m_max, max_size=m_max)
        )
        costs = data.draw(st.lists(cost, min_size=m_max, max_size=m_max))
        first = allocate(RecordedSource(m, answers, costs), config)
        assert not first.truncated
        tau = first.tau
        suffix = data.draw(st.lists(st.tuples(vote, cost), max_size=20))
        again = allocate(
            RecordedSource(
                m,
                answers[:tau] + [a for a, _ in suffix],
                costs[:tau] + [c for _, c in suffix],
            ),
            config,
        )
        assert (again.tau, again.pseudo_label, again.decision_kind, again.total_cost) == (
            tau,
            first.pseudo_label,
            first.decision_kind,
            first.total_cost,
        )
        assert not again.truncated

    def test_stop_batch_rows(self):
        rng = np.random.default_rng(8800)
        stopped = set()
        for name, config in sorted(CASES.items()):
            width = config.m_max + 20
            votes, lengths, m = random_block(rng, 400, width, [2, 3, 4, 7])
            stops = stop_batch(votes, lengths, m, ThresholdTable(config))
            decided = np.flatnonzero(~stops.truncated)
            tau = stops.tau[decided]
            stopped.update(stops.stopped[decided].tolist())
            # Fresh votes after tau, and any row length from tau to the width.
            block = votes[decided]
            fresh = (rng.random(block.shape) * m[decided, None]).astype(np.int64)
            block = np.where(np.arange(width) >= tau[:, None], fresh, block)
            again = stop_batch(
                block, rng.integers(tau, width + 1), m[decided], ThresholdTable(config)
            )
            assert again.tau.tolist() == tau.tolist(), name
            assert again.label.tolist() == stops.label[decided].tolist(), name
            assert again.stopped.tolist() == stops.stopped[decided].tolist(), name
        assert stopped == {True, False}

    # 20 of the 32 warm-up votes for "a", then "a"/"b" alternating up to 72
    # rollouts: over m = 2 the warm-up p0 clamps to 0.501 and the budget
    # runs out at 64.
    TRACE = ["a"] * 20 + ["b"] * 12 + ["a", "b"] * 20

    def test_trace_case_runs_to_the_budget(self):
        result = allocate(TraceVoteSource("q", self.TRACE, [1] * 72), StopperConfig())
        assert (result.tau, result.decision_kind, result.truncated) == (
            64,
            StopKind.BUDGET_EXHAUSTED,
            False,
        )
        assert result.p0_used == 0.501

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: a trace source's m counts the distinct answers of "
        "its whole trace, so rollouts never read move p0 and the threshold",
    )
    def test_trace_source(self):
        # Six new distinct answers after rollout 72 make m = 8, p0 0.375, and
        # stop the test at 36.
        config = StopperConfig()
        first = allocate(TraceVoteSource("q", self.TRACE, [1] * 72), config)
        extended = self.TRACE + [f"new{j}" for j in range(6)]
        again = allocate(TraceVoteSource("q", extended, [1] * 78), config)
        assert (again.tau, again.pseudo_label, again.decision_kind, again.total_cost) == (
            first.tau,
            first.pseudo_label,
            first.decision_kind,
            first.total_cost,
        )
