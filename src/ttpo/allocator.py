"""The online sample-test loop over abstract vote sources.

``allocate`` reads votes from a live source only as far as the test reads
and returns the pseudo-label plus full cost accounting. It applies the one
stopping rule, ``stopper.stop_batch``, to the prefix read so far, and
takes chunks no longer than the votes the rule needs before it could
stop, so it never reads past the decision.
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
    """Anything that hands out votes over a fixed answer space.

    ``take(n)`` returns the next ``n`` votes as two int64 arrays, answer ids
    and costs. A result shorter than ``n`` means a finite source (trace
    replay) ran dry; unbounded sources always return ``n``.
    """

    @property
    def m(self) -> int: ...

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]: ...


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

    Reads exactly the votes the decision reads: ``tau`` of them, or all a
    finite source holds when it runs dry first.
    """
    m = source.m
    if m < 2:
        raise ConfigurationError(
            f"vote source must cover at least two answers, got m={m}"
        )
    table = ThresholdTable(config)
    if config.p0_fixed is not None:
        table.lookup(m, 0)  # an unusable fixed model fails before any vote
    answers = np.empty(config.m_max, dtype=np.int64)
    costs = np.empty(config.m_max, dtype=np.int64)
    t = 0
    # The earliest stop: a full streak that starts at the warm-up's last vote.
    target = min(config.n_min + config.streak_k - 1, config.m_max)
    while True:
        chunk, chunk_costs = source.take(target - t)
        end = t + len(chunk)
        answers[t:end] = chunk
        costs[t:end] = chunk_costs
        new_answers, new_costs = answers[t:end], costs[t:end]
        # The first bad vote in draw order raises; its cost is checked first.
        bad_cost = new_costs < 0
        bad = bad_cost | (new_answers < 0) | (new_answers >= m)
        if bad.any():
            i = int(np.argmax(bad))
            if bad_cost[i]:
                raise AllocationError(f"vote source produced a negative cost {new_costs[i]}")
            raise ValueError(f"vote {new_answers[i]} out of range for m={m}")
        t = end
        stops = stop_batch(answers[None, :t], np.array([t]), np.array([m]), table)
        # Stop reading once the source ran dry or the prefix is decided.
        if t < target or not stops.truncated[0]:
            break
        # The gap moves by at most one per vote: it needs gap_upper - gap
        # more votes to reach the threshold, then a full streak to confirm.
        climb = max(int(stops.gap_upper[0]) - int(stops.gap[0]) - 1, 0)
        target = min(t + config.streak_k - int(stops.streak[0]) + climb, config.m_max)
    tau = int(stops.tau[0])
    p0_used = float(stops.p0_used[0])
    tally = VoteTally(counts=tuple(np.bincount(answers[:tau], minlength=m).tolist()))
    cost_list = costs[:t].tolist()
    return AllocationResult(
        pseudo_label=int(stops.label[0]),
        tau=tau,
        decision_kind=stops.kind[0],
        votes=tuple(zip(answers[:t].tolist(), cost_list)),
        retained=tuple(range(min(config.n_min, tau))),
        # Python ints: an exact sum, whatever the costs add up to.
        total_cost=sum(cost_list),
        final_tally=tally,
        posterior_at_stop=posterior(tally, AnswerModel(p0_used, m)),
        p0_used=p0_used,
        truncated=bool(stops.truncated[0]),
    )
