"""The online sample-test loop over abstract vote sources.

``allocate`` draws votes from a live source only as far as the test reads
and returns the pseudo-label plus full cost accounting. It applies the one
stopping rule, ``stopper.stop_batch``, to the prefix drawn so far, and
draws in chunks no longer than the votes the rule needs before it could
stop, so it never draws past the decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .consensus import AnswerModel, VoteTally, posterior
from .errors import AllocationError, ConfigurationError
from .stopper import StopKind, StopperConfig, ThresholdTable, stop_batch


@runtime_checkable
class VoteSource(Protocol):
    """Anything that emits (answer_id, cost) pairs over a fixed answer space.

    ``draw`` returns None when a finite source (trace replay) is exhausted;
    unbounded sources never return None.
    """

    @property
    def m(self) -> int: ...

    def draw(self) -> tuple[int, int] | None: ...


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Outcome of one sequential test: label, stopping time, and costs."""

    pseudo_label: int
    tau: int
    decision_kind: StopKind
    votes: tuple[tuple[int, int], ...]
    retained: tuple[int, ...]
    total_cost: int
    final_tally: VoteTally
    posterior_at_stop: np.ndarray
    p0_used: float
    truncated: bool = False

    def retained_answers(self) -> list[int]:
        return [self.votes[i][0] for i in self.retained]


def allocate(source: VoteSource, config: StopperConfig) -> AllocationResult:
    """Run the sequential test over one source until it reaches a decision.

    Draws exactly the votes the decision reads: ``tau`` of them, plus the
    draw that found the source dry when it runs out first.
    """
    m = source.m
    if m < 2:
        raise ConfigurationError(
            f"vote source must cover at least two answers, got m={m}"
        )
    table = ThresholdTable(config)
    if config.p0_fixed is not None:
        table.lookup(m, 0)  # an unusable fixed model fails before any draw
    answers = np.empty(config.m_max, dtype=np.int64)
    votes: list[tuple[int, int]] = []
    total_cost = 0
    # The earliest stop: a full streak that starts at the warm-up's last vote.
    target = min(config.n_min + config.streak_k - 1, config.m_max)
    while True:
        while len(votes) < target:
            drawn = source.draw()
            if drawn is None:
                break
            answer, cost = drawn
            if cost < 0:
                raise AllocationError(f"vote source produced a negative cost {cost}")
            if not 0 <= answer < m:
                raise ValueError(f"vote {answer} out of range for m={m}")
            answers[len(votes)] = answer
            votes.append((answer, cost))
            total_cost += cost
        t = len(votes)
        stops = stop_batch(answers[None, :t], np.array([t]), np.array([m]), table)
        # Stop drawing once the source ran dry or the prefix is decided.
        if t < target or not stops.truncated[0]:
            break
        # The gap moves by at most one per vote: it needs gap_upper - gap
        # more votes to reach the threshold, then a full streak to confirm.
        climb = max(int(stops.gap_upper[0]) - int(stops.gap[0]) - 1, 0)
        target = min(t + config.streak_k - int(stops.streak[0]) + climb, config.m_max)
    tau = int(stops.tau[0])
    p0_used = float(stops.p0_used[0])
    tally = VoteTally(counts=tuple(np.bincount(answers[:tau], minlength=m).tolist()))
    return AllocationResult(
        pseudo_label=int(stops.label[0]),
        tau=tau,
        decision_kind=stops.kind[0],
        votes=tuple(votes),
        retained=tuple(range(min(config.n_min, tau))),
        total_cost=total_cost,
        final_tally=tally,
        posterior_at_stop=posterior(tally, AnswerModel(p0_used, m)),
        p0_used=p0_used,
        truncated=bool(stops.truncated[0]),
    )


def retain_for_update(result: AllocationResult, n: int) -> list[tuple[int, int]]:
    """The first n votes in draw order (all of them for short truncated runs).

    The prefix predates the stopping decision, so it is not selected by the
    decision itself; later votes are and would bias reward estimates.
    """
    if n <= 0:
        raise ValueError(f"retained count must be positive, got {n}")
    if n > result.tau and not result.truncated:
        raise ValueError(
            f"cannot retain {n} votes from a non-truncated run of {result.tau}"
        )
    return list(result.votes[:n])

