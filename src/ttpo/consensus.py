"""Vote accounting and the categorical answer-noise model.

A vote stream over a fixed finite answer set of size ``m`` is summarized by a
:class:`VoteTally`, the frozen per-answer counts an allocation result
reports and :func:`posterior` reads; it is built whole from its counts.
Under the symmetric noise model (:class:`AnswerModel`) a vote hits the true
answer with probability ``p0`` and each of the other ``m - 1`` answers with
equal probability ``(1 - p0) / (m - 1)``. The evidence for the current
leader over the runner-up then reduces to a function of the integer
vote-count gap, which is what the sequential stopper thresholds on, in
the pass that also finds each vote prefix's leader (``stopper.stop_batch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AnswerId = int


@dataclass(frozen=True)
class VoteTally:
    """Per-answer vote counts over a fixed answer space.

    ``counts[j]`` is the number of votes for answer ``j``; unobserved answers
    are present with count 0. The number of ingested votes always equals the
    sum of counts.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 1:
            raise ValueError("tally needs at least one answer slot")
        if any(c < 0 for c in self.counts):
            raise ValueError("vote counts must be non-negative")

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class AnswerModel:
    """Symmetric categorical noise model over ``m`` candidate answers.

    A vote equals the true answer with probability ``p0`` and any single
    wrong answer with probability ``wrong_mass``. Requires ``p0 > 1/m`` so
    that each unit of vote-count gap carries positive evidence
    (``kappa > 1``); the degenerate reversed regime is rejected outright.
    """

    p0: float
    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least two candidate answers, got m={self.m}")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"p0 must lie strictly inside (0, 1), got {self.p0}")
        if self.p0 * self.m <= 1.0:
            raise ValueError(
                f"p0={self.p0} must exceed 1/m={1.0 / self.m:.6g} for a usable model"
            )

    @property
    def wrong_mass(self) -> float:
        """Probability of any single wrong answer: (1 - p0) / (m - 1)."""
        return (1.0 - self.p0) / (self.m - 1)

    @property
    def kappa(self) -> float:
        """Evidence strength per unit of vote gap: p0 * (m - 1) / (1 - p0)."""
        return self.p0 * (self.m - 1) / (1.0 - self.p0)


def log_bayes_factor_closed_form(gap: int, model: AnswerModel) -> float:
    """Log evidence ratio of leader over runner-up given their count gap."""
    if gap < 0:
        raise ValueError(f"gap must be non-negative, got {gap}")
    return gap * math.log(model.kappa)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Normalized exponentials along the last axis, shifted by the maximum
    so nothing overflows. Each row of a matrix gets exactly the bits the
    row alone would."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Logarithm of :func:`_softmax`, computed without leaving log space."""
    s = x - x.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def posterior(tally: VoteTally, model: AnswerModel) -> np.ndarray:
    """Posterior over the ``m`` answer hypotheses under a uniform prior.

    Normalized in log space; an empty tally returns the uniform vector.
    """
    if tally.m != model.m:
        raise ValueError(f"tally covers {tally.m} answers but model expects {model.m}")
    counts = np.asarray(tally.counts, dtype=float)
    log_lik = counts * math.log(model.p0) + (tally.total - counts) * math.log(model.wrong_mass)
    return _softmax(log_lik)
