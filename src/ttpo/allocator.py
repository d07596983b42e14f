"""The sequential sample-test loop over abstract vote sources.

``allocate`` draws votes one at a time, feeds them to a sequential stopper,
and stops at the first terminal decision, returning the pseudo-label plus
full cost accounting. It is the online path, for sources that must be
drawn from only as far as the test reads, and the reference that
``stopper.stop_batch`` reproduces for recorded vote streams.
``batch_allocate`` runs many independent sources, one after another, with
a failure confined to its own slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .consensus import VoteTally, posterior
from .errors import AllocationError, ConfigurationError
from .stopper import SprtStopper, StopKind, StopperConfig


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
        drawn = source.draw()
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


def batch_allocate(
    sources: Sequence[VoteSource], config: StopperConfig
) -> list[AllocationResult | Exception]:
    """Allocate over many sources; failures land in their slot, not raised.

    Results align positionally with the sources.
    """

    def run_one(source: VoteSource) -> AllocationResult | Exception:
        try:
            return allocate(source, config)
        except Exception as exc:  # noqa: BLE001 - slot-isolated by contract
            return exc

    return [run_one(source) for source in sources]
