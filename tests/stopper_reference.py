"""The per-vote stopping rule: the oracle for ``stop_batch`` and ``allocate``.

The library applies the stopping rule in one place, ``stopper.stop_batch``,
which decides whole vote streams from cumulative count arrays, and
``allocate`` drives it over a live source in chunks. This is the rule
written out one vote at a time: a frozen tally rebuilt per vote, its
leader and runner-up by scan, the streak counted step by step, and an
``allocate`` loop that steps it once per drawn vote. Sources are read one
vote at a time through ``draw``, a ``take(1)``. Tests require the library
to give the same decision and result fields and to read the same votes.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

from ttpo.allocator import AllocationResult, VoteSource
from ttpo.consensus import AnswerId, AnswerModel, VoteTally, posterior
from ttpo.errors import AllocationError, ConfigurationError
from ttpo.stopper import (
    P0_FLOOR_EPSILON,
    StopKind,
    StopperConfig,
    clamp_p0,
    compute_thresholds,
)


@dataclass(frozen=True)
class TopTwo:
    """Leading and runner-up answers of a tally plus their count gap."""

    leader: AnswerId
    runner_up: AnswerId
    gap: int


def tally_of(counts: Mapping[int, int], m: int) -> VoteTally:
    """The tally over ``m`` answers with ``counts[j]`` votes for answer ``j``
    and none for the answers ``counts`` leaves out."""
    return VoteTally(counts=tuple(counts.get(j, 0) for j in range(m)))


def tally_ingest(tally: VoteTally, vote: AnswerId) -> VoteTally:
    """Return a new tally with one additional vote for ``vote``."""
    if not 0 <= vote < tally.m:
        raise ValueError(f"vote {vote} out of range for m={tally.m}")
    counts = list(tally.counts)
    counts[vote] += 1
    return VoteTally(counts=tuple(counts))


def top_two(tally: VoteTally) -> TopTwo:
    """Leader and runner-up by count; ties break toward the lowest answer id."""
    if tally.total < 1:
        raise ValueError("empty tally has no leader")
    if tally.m < 2:
        raise ValueError("runner-up undefined for a single-answer space")
    counts = tally.counts
    ids = range(tally.m)
    leader = max(ids, key=lambda j: (counts[j], -j))
    runner_up = max((j for j in ids if j != leader), key=lambda j: (counts[j], -j))
    return TopTwo(leader=leader, runner_up=runner_up, gap=counts[leader] - counts[runner_up])


class Continue(Enum):
    """The non-terminal step result; the library only returns terminal kinds."""

    CONTINUE = "continue"


CONTINUE = Continue.CONTINUE
_TERMINAL_KINDS = frozenset({StopKind.STOP_LEADER, StopKind.BUDGET_EXHAUSTED})


@dataclass(frozen=True)
class StopDecision:
    kind: StopKind | Continue
    chosen: int | None = None

    def __post_init__(self) -> None:
        if self.kind is CONTINUE and self.chosen is not None:
            raise ValueError("a continue decision carries no chosen answer")
        if self.kind in _TERMINAL_KINDS and self.chosen is None:
            raise ValueError(f"{self.kind.value} requires a chosen answer")

    @property
    def terminal(self) -> bool:
        return self.kind in _TERMINAL_KINDS


def _majority_p0(config: StopperConfig, max_count: int, t: int, m: int) -> float:
    """Degraded majority fraction of a t-vote tally, clamped above chance."""
    return clamp_p0(config.degradation * max_count / t, m, P0_FLOOR_EPSILON)


def estimate_p0(tally_at_n_min: VoteTally, config: StopperConfig, m: int) -> float:
    """Degraded majority fraction of the warm-up tally, clamped above chance.

    Deliberately pessimistic: the majority fraction overstates per-vote
    accuracy when the leader is wrong, and shrinking it widens the gap
    thresholds rather than narrowing them.
    """
    if tally_at_n_min.m != m:
        raise ValueError(
            f"tally covers {tally_at_n_min.m} answers, expected {m}"
        )
    if tally_at_n_min.total != config.n_min:
        raise ValueError(
            f"p0 is estimated at exactly n_min={config.n_min} votes, "
            f"got {tally_at_n_min.total}"
        )
    return _majority_p0(config, max(tally_at_n_min.counts), config.n_min, m)


class SprtStopper:
    """One sequential test over a single instance's vote stream.

    Strictly sequential and single-owner: feed votes through :meth:`step`
    until it returns a terminal decision, then read the pseudo-label off
    :meth:`finalize`. Separate instances are independent.
    """

    def __init__(self, config: StopperConfig, m: int):
        if m < 2:
            raise ConfigurationError(f"need at least two candidate answers, got m={m}")
        self.config = config
        self.m = m
        self._tally = tally_of({}, m)
        self._t = 0
        self._streak = 0
        self._decision: StopDecision | None = None
        self._model: AnswerModel | None = None
        self._gap_upper: int | None = None
        if config.p0_fixed is not None:
            self._freeze(clamp_p0(config.p0_fixed, m, P0_FLOOR_EPSILON))

    def _freeze(self, p0: float) -> None:
        self._model = AnswerModel(p0=p0, m=self.m)
        self._gap_upper = compute_thresholds(self.config, p0, self.m)

    @property
    def t(self) -> int:
        """Number of votes ingested so far."""
        return self._t

    @property
    def tally(self) -> VoteTally:
        return self._tally

    @property
    def decision(self) -> StopDecision | None:
        """Terminal decision, or None while the test is still running."""
        return self._decision

    @property
    def model(self) -> AnswerModel | None:
        """The frozen noise model; None until p0 is fixed or estimated."""
        return self._model

    @property
    def gap_upper(self) -> int | None:
        """The frozen integer gap threshold; None until p0 is fixed or estimated."""
        return self._gap_upper

    @property
    def is_terminal(self) -> bool:
        return self._decision is not None

    def step(self, vote: int) -> StopDecision:
        """Ingest one vote and return the stop/continue decision."""
        if self._decision is not None:
            raise RuntimeError("stopper already reached a terminal decision")
        if not 0 <= vote < self.m:
            raise ValueError(f"vote {vote} out of range for m={self.m}")
        self._tally = tally_ingest(self._tally, vote)
        self._t += 1
        if self._t < self.config.n_min:
            return StopDecision(CONTINUE)
        if self._model is None:
            self._freeze(estimate_p0(self._tally, self.config, self.m))
        assert self._gap_upper is not None
        pair = top_two(self._tally)
        if pair.gap >= self._gap_upper:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.config.streak_k:
            decision = StopDecision(StopKind.STOP_LEADER, chosen=pair.leader)
        elif self._t >= self.config.m_max:
            decision = StopDecision(StopKind.BUDGET_EXHAUSTED, chosen=pair.leader)
        else:
            decision = StopDecision(CONTINUE)
        if decision.terminal:
            self._decision = decision
        return decision

    def force_stop(self) -> StopDecision:
        """Terminate early on current evidence (vote source ran dry).

        Returns the existing decision when already terminal. Otherwise picks
        the current leader as a budget-exhausted decision; if p0 was never
        frozen the estimate is taken from the partial tally at its actual
        size instead of at n_min.
        """
        if self._decision is not None:
            return self._decision
        if self._t < 1:
            raise RuntimeError("cannot finalize a test that saw no votes")
        if self._model is None:
            self._freeze(_majority_p0(self.config, max(self._tally.counts), self._t, self.m))
        pair = top_two(self._tally)
        self._decision = StopDecision(StopKind.BUDGET_EXHAUSTED, chosen=pair.leader)
        return self._decision

    def finalize(self) -> int:
        """The chosen pseudo-label; only valid after a terminal decision."""
        if self._decision is None:
            raise RuntimeError("no terminal decision yet")
        assert self._decision.chosen is not None
        return self._decision.chosen


def draw(source: VoteSource) -> tuple[int, int] | None:
    """One vote as (answer, cost) from ``source.take(1)``; None once it runs dry."""
    answers, costs = source.take(1)
    if len(answers) == 0:
        return None
    return int(answers[0]), int(costs[0])


def allocate(source: VoteSource, config: StopperConfig) -> AllocationResult:
    """Run the sequential test over one source until it reaches a decision."""
    if source.m < 2:
        raise ConfigurationError(
            f"vote source must cover at least two answers, got m={source.m}"
        )
    stopper = SprtStopper(config, source.m)
    votes: list[tuple[int, int]] = []
    total_cost = 0
    truncated = False
    while True:
        drawn = draw(source)
        if drawn is None:
            if not votes:
                raise AllocationError("vote source exhausted before any vote")
            truncated = True
            decision = stopper.force_stop()
            break
        answer, cost = drawn
        if cost < 0:
            raise AllocationError(f"vote source produced a negative cost {cost}")
        votes.append((answer, cost))
        total_cost += cost
        decision = stopper.step(answer)
        if decision.terminal:
            break
    assert decision.chosen is not None and stopper.model is not None
    tau = stopper.t
    return AllocationResult(
        pseudo_label=decision.chosen,
        tau=tau,
        decision_kind=decision.kind,
        votes=tuple(votes),
        retained=tuple(range(min(config.n_min, tau))),
        total_cost=total_cost,
        final_tally=stopper.tally,
        posterior_at_stop=posterior(stopper.tally, stopper.model),
        p0_used=stopper.model.p0,
        truncated=truncated,
    )
