"""Tests for the sequential sample-test loop and its batch driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpo.allocator import (
    AllocationResult,
    allocate,
    batch_allocate,
    retain_for_update,
)
from ttpo.errors import AllocationError, ConfigurationError
from ttpo.seeding import stream_seed
from ttpo.stopper import StopKind, StopperConfig, ThresholdTable, stop_batch
from ttpo.synth import CategoricalVoteSource, P0Spec, SyntheticInstance, gen_instances


class ScriptedSource:
    """Finite source replaying a fixed answer list; None when exhausted."""

    def __init__(self, m, answers, cost=1):
        self._m = m
        self._answers = list(answers)
        self._cost = cost
        self._pos = 0

    @property
    def m(self):
        return self._m

    def draw(self):
        if self._pos >= len(self._answers):
            return None
        answer = self._answers[self._pos]
        self._pos += 1
        return answer, self._cost


class CyclicSource:
    """Unbounded source cycling through a fixed answer pattern."""

    def __init__(self, m, pattern, cost=1):
        self._m = m
        self._pattern = list(pattern)
        self._cost = cost
        self._pos = 0

    @property
    def m(self):
        return self._m

    def draw(self):
        answer = self._pattern[self._pos % len(self._pattern)]
        self._pos += 1
        return answer, self._cost


class FailingSource:
    def __init__(self, m, fail_after):
        self._m = m
        self._left = fail_after

    @property
    def m(self):
        return self._m

    def draw(self):
        if self._left == 0:
            raise RuntimeError("simulated source failure")
        self._left -= 1
        return 0, 1


def results_equal(a: AllocationResult, b: AllocationResult) -> bool:
    return (
        a.pseudo_label == b.pseudo_label
        and a.tau == b.tau
        and a.decision_kind == b.decision_kind
        and a.votes == b.votes
        and a.retained == b.retained
        and a.total_cost == b.total_cost
        and a.final_tally == b.final_tally
        and np.array_equal(a.posterior_at_stop, b.posterior_at_stop)
        and a.p0_used == b.p0_used
        and a.truncated == b.truncated
    )


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
        result = allocate(ScriptedSource(2, votes), config)
        assert result.tau == 40
        assert result.decision_kind is StopKind.STOP_LEADER
        assert result.retained == tuple(range(32))
        assert retain_for_update(result, 32) == [(v, 1) for v in votes[:32]]

    def test_stop_exactly_at_warm_up_end(self):
        config = StopperConfig(n_min=32, m_max=64, streak_k=1, p0_fixed=0.9)
        result = allocate(CyclicSource(2, [1]), config)
        assert result.tau == 32
        assert result.retained == tuple(range(32))
        assert result.pseudo_label == 1

    def test_truncated_trace_keeps_partial_votes(self):
        config = StopperConfig(n_min=32, m_max=64, streak_k=5)
        result = allocate(ScriptedSource(3, [2, 2, 0, 2, 2, 2, 1, 2, 2, 2]), config)
        assert result.truncated
        assert result.tau == 10
        assert result.decision_kind is StopKind.BUDGET_EXHAUSTED
        assert result.pseudo_label == 2
        assert result.retained == tuple(range(10))
        assert retain_for_update(result, 32) == list(result.votes)

    def test_empty_source_rejected(self):
        with pytest.raises(AllocationError):
            allocate(ScriptedSource(2, []), FAST_STOP)

    def test_single_answer_space_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate(ScriptedSource(1, [0]), FAST_STOP)

    def test_negative_cost_rejected(self):
        with pytest.raises(AllocationError):
            allocate(ScriptedSource(2, [0], cost=-1), FAST_STOP)

    def test_costs_accumulate_recorded_tokens(self):
        config = StopperConfig(n_min=1, m_max=8, streak_k=1, p0_fixed=0.9)
        result = allocate(ScriptedSource(2, [0, 0], cost=117), config)
        assert result.total_cost == 234
        assert result.votes == ((0, 117), (0, 117))

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


class TestRetainForUpdate:
    def test_prefix(self):
        result = allocate(CyclicSource(2, [0]), FAST_STOP)
        assert retain_for_update(result, 1) == [(0, 1)]

    def test_nonpositive_rejected(self):
        result = allocate(CyclicSource(2, [0]), FAST_STOP)
        with pytest.raises(ValueError):
            retain_for_update(result, 0)

    def test_over_tau_rejected_when_not_truncated(self):
        result = allocate(CyclicSource(2, [0]), FAST_STOP)
        with pytest.raises(ValueError):
            retain_for_update(result, 3)


class TestBatchAllocate:
    def test_empty(self):
        assert batch_allocate([], FAST_STOP) == []

    def test_identical_sources_identical_results(self):
        results = batch_allocate(
            [CyclicSource(2, [0]), CyclicSource(2, [0])], FAST_STOP
        )
        assert results_equal(results[0], results[1])

    def test_error_isolated_to_slot(self):
        sources = [CyclicSource(2, [0]), FailingSource(2, fail_after=1), CyclicSource(2, [0])]
        results = batch_allocate(sources, FAST_STOP)
        assert isinstance(results[0], AllocationResult)
        assert isinstance(results[1], RuntimeError)
        assert isinstance(results[2], AllocationResult)

    def test_batched_parallel_and_serial_agree(self):
        instances = gen_instances(
            1000, m=4, p0_spec=P0Spec.uniform(0.4, 0.9), seed=77
        )
        config = StopperConfig()

        def build_sources():
            return [
                CategoricalVoteSource(
                    inst, stream_seed(77, "arm", 0, inst.instance_id)
                )
                for inst in instances
            ]

        serial = [allocate(source, config) for source in build_sources()]
        batched = batch_allocate(build_sources(), config)
        for a, b in zip(serial, batched):
            assert results_equal(a, b)
        # The array kernel over the same streams decides every row alike.
        votes = np.stack([source.take(config.m_max)[0] for source in build_sources()])
        stops = stop_batch(
            votes, np.full(len(votes), config.m_max), np.full(len(votes), 4),
            ThresholdTable(config),
        )
        for i, a in enumerate(serial):
            assert stops.tau[i] == a.tau
            assert stops.label[i] == a.pseudo_label
            assert stops.kind[i] is a.decision_kind
            assert stops.truncated[i] == a.truncated
            assert stops.p0_used[i] == a.p0_used
