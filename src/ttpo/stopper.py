"""Sequential stopping for answer-vote streams.

The stopper runs a top-two sequential probability ratio test: votes accrue
into a tally, the evidence for the current leader over the runner-up is
``gap * ln(kappa)`` with ``kappa = p0 (m - 1) / (1 - p0)``, and sampling
stops once that evidence clears the Wald bound ``ln((1 - beta) / alpha)``
for a configurable number of consecutive steps. The evidence is monotone in
the integer vote gap, so the whole test is one integer, ``gap_upper``: the
least ``g`` with ``kappa**g >= (1 - beta) / alpha``. It is computed exactly
in rationals once per frozen model (:func:`compute_thresholds`) and
compared as an integer thereafter. The tracked gap is never negative, so
Wald's lower boundary (accept the runner-up) can never fire and is not
computed.

The noise level ``p0`` is either fixed up front (controlled simulations) or
estimated from the warm-up tally at ``t = n_min`` as the degraded majority
fraction, then frozen: re-estimating mid-test would couple the test statistic
to its own threshold and void the error guarantee.

:func:`stop_batch` is the one implementation of the rule. It decides any
number of vote streams at once from the running largest and second-largest
answer counts, which it builds one answer id at a time. Its arrays are
``[rows, votes]`` in shape, but that loop runs once per answer id up to the
largest vote, and the :func:`~ttpo.consensus.plurality` giving its label
counts ``rows × (largest vote + 2)`` cells, so its cost grows with the
answer ids in play (ROADMAP open item 1 measures it at ``m = 100,000``).
Because the frozen threshold depends only on ``m`` and the warm-up maximum
count, one :class:`ThresholdTable` per run covers every instance. The
online driver, :func:`~ttpo.allocator.allocate`, calls it on the prefix a
live source has produced so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

import numpy as np

from .consensus import plurality
from .errors import AllocationError, ConfigurationError


@dataclass(frozen=True)
class ErrorBudget:
    """False-accept and false-reject probability budgets for the test."""

    alpha: float = 0.05
    beta: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigurationError(f"beta must be in (0, 1), got {self.beta}")
        if self.alpha + self.beta >= 1.0:
            raise ConfigurationError(
                f"alpha + beta must be < 1 for usable thresholds, "
                f"got {self.alpha} + {self.beta}"
            )


class StopKind(Enum):
    STOP_LEADER = "stop_leader"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class StopperConfig:
    """Knobs for one sequential test.

    ``p0_fixed`` pins the vote-accuracy model up front; when None, ``p0`` is
    estimated at ``t = n_min`` from the warm-up majority fraction scaled by
    ``degradation``. Either way the value is clamped into
    ``(1/m + p0_floor_epsilon, 1 - p0_floor_epsilon)`` so kappa > 1.
    """

    budget: ErrorBudget = field(default_factory=ErrorBudget)
    n_min: int = 32
    m_max: int = 64
    streak_k: int = 5
    degradation: float = 0.6
    p0_floor_epsilon: float = 1e-3
    p0_fixed: float | None = None

    def __post_init__(self) -> None:
        if self.n_min < 1:
            raise ConfigurationError(f"n_min must be >= 1, got {self.n_min}")
        if self.m_max < self.n_min:
            raise ConfigurationError(
                f"m_max ({self.m_max}) must be >= n_min ({self.n_min})"
            )
        if self.streak_k < 1:
            raise ConfigurationError(f"streak_k must be >= 1, got {self.streak_k}")
        if not 0.0 < self.degradation <= 1.0:
            raise ConfigurationError(
                f"degradation must be in (0, 1], got {self.degradation}"
            )
        if self.p0_floor_epsilon <= 0.0:
            raise ConfigurationError(
                f"p0_floor_epsilon must be > 0, got {self.p0_floor_epsilon}"
            )
        if self.p0_fixed is not None and not 0.0 < self.p0_fixed < 1.0:
            raise ConfigurationError(
                f"p0_fixed must be in (0, 1), got {self.p0_fixed}"
            )


def compute_thresholds(config: StopperConfig, p0: float, m: int) -> int:
    """Integer vote-gap threshold for the model ``(p0, m)``, capped at ``m_max + 1``.

    The least ``g`` in ``[1, m_max + 1]`` with ``kappa**g >= (1-beta)/alpha``,
    or ``m_max + 1`` when no such ``g`` exists. ``alpha``, ``beta`` and ``p0``
    are read as the exact rationals their shortest decimal reprs denote, so
    an exact-integer ratio (``alpha = beta = 0.1``, ``kappa = 3`` gives 2) is
    not pushed up by rounding. The float quotient of logs only picks where to
    start; each answer is confirmed by integer cross-multiplication of the
    two powers. The cap never changes a decision: the gap after ``t`` votes
    is at most ``t <= m_max``, so any threshold above ``m_max`` is never met.
    """
    (an, ad), (bn, bd), (pn, pd) = (
        Decimal(repr(float(x))).as_integer_ratio()
        for x in (config.budget.alpha, config.budget.beta, p0)
    )
    if not (pd < pn * m and pn < pd):  # kappa > 1 exactly when 1/m < p0 < 1
        raise ConfigurationError(
            f"kappa must exceed 1 for a decidable test, got p0={p0}, m={m}"
        )
    # kappa = p0 (m-1) / (1-p0) = kn/kd and (1-beta)/alpha = wn/wd, unreduced.
    kn, kd = pn * (m - 1), pd - pn
    wn, wd = (bd - bn) * ad, bd * an

    def clears(g: int) -> bool:
        return kn**g * wd >= wn * kd**g

    cap = config.m_max + 1
    log_kappa = math.log(kn / kd)
    estimate = math.log(wn / wd) / log_kappa if log_kappa > 0.0 else cap
    g = min(max(math.ceil(estimate), 1), cap)
    while g > 1 and clears(g - 1):
        g -= 1
    while g < cap and not clears(g):
        g += 1
    return g


def clamp_p0(p0: float, m: int, epsilon: float) -> float:
    """Clamp a raw accuracy estimate into (1/m + epsilon, 1 - epsilon)."""
    lower = 1.0 / m + epsilon
    upper = 1.0 - epsilon
    if lower >= upper:
        raise ConfigurationError(
            f"empty clamp interval for m={m}, epsilon={epsilon}"
        )
    return min(max(p0, lower), upper)


def _majority_p0(config: StopperConfig, max_count: int, t: int, m: int) -> float:
    """Degraded majority fraction of a t-vote tally, clamped above chance.

    Deliberately pessimistic: the majority fraction overstates per-vote
    accuracy when the leader is wrong, and shrinking it widens the gap
    thresholds rather than narrowing them.
    """
    return clamp_p0(config.degradation * max_count / t, m, config.p0_floor_epsilon)


class ThresholdTable:
    """Frozen ``(p0, gap_upper)`` per ``(m, warm-up maximum count)``.

    Under adaptive ``p0`` the frozen model depends on the warm-up votes only
    through their maximum count, so at most ``n_min + 1`` entries exist per
    answer-space size (one per size under ``p0_fixed``). Entries come from
    :func:`compute_thresholds` on first use; build one table per run and
    share it across :func:`stop_batch` calls.
    """

    def __init__(self, config: StopperConfig):
        self.config = config
        self._entries: dict[tuple[int, int | None], tuple[float, int]] = {}

    def lookup(self, m: int, warm_max: int) -> tuple[float, int]:
        """``(p0, gap_upper)`` frozen at ``t = n_min`` for this warm-up maximum."""
        config = self.config
        key = (m, None if config.p0_fixed is not None else warm_max)
        entry = self._entries.get(key)
        if entry is None:
            if config.p0_fixed is not None:
                p0 = clamp_p0(config.p0_fixed, m, config.p0_floor_epsilon)
            else:
                p0 = _majority_p0(config, warm_max, config.n_min, m)
            entry = self._entries[key] = (p0, compute_thresholds(config, p0, m))
        return entry


@dataclass(frozen=True, eq=False)
class BatchStops:
    """Per-row outcome of :func:`stop_batch`, aligned with its input rows.

    ``gap_upper`` is the frozen threshold, 0 for a row that ran dry before
    an adaptive ``p0`` was frozen; ``gap`` and ``streak`` are the top-two
    gap and the run of consecutive threshold crossings after ``tau`` votes.
    """

    tau: np.ndarray
    label: np.ndarray
    kind: tuple[StopKind, ...]
    truncated: np.ndarray
    p0_used: np.ndarray
    gap_upper: np.ndarray
    gap: np.ndarray
    streak: np.ndarray


def stop_batch(
    votes: np.ndarray, lengths: np.ndarray, m: np.ndarray, table: ThresholdTable
) -> BatchStops:
    """Run the sequential test over every row of a ``[B, L]`` vote matrix.

    Row ``i`` holds one instance's votes in draw order; only its first
    ``lengths[i]`` entries are read, and ``m[i]`` is its answer-space size.
    A row shorter than ``table.config.m_max`` is a source that ran dry.
    Row ``i``'s decision reads only its first ``tau[i]`` votes, so a prefix
    decides as the whole stream would: :func:`~ttpo.allocator.allocate`
    relies on this to read a live source no further than the test reads.
    """
    config = table.config
    votes = np.asarray(votes, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    rows = votes.shape[0]
    if lengths.shape != (rows,) or m.shape != (rows,):
        raise ValueError("lengths and m need one entry per vote row")
    if rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return BatchStops(
            empty, empty, (), np.empty(0, dtype=bool), np.empty(0), empty, empty, empty
        )
    if m.min() < 2:
        raise ConfigurationError(f"need at least two candidate answers, got m={m.min()}")
    if lengths.min() < 1:
        raise AllocationError("vote source exhausted before any vote")
    if lengths.max() > votes.shape[1]:
        raise ValueError("a row length exceeds the vote matrix width")

    # Votes past the budget are never read; unread entries become -1.
    width = min(votes.shape[1], config.m_max)
    seen = np.minimum(lengths, width)
    steps = np.arange(width)
    live = steps < seen[:, None]
    live_votes = np.where(live, votes[:, :width], -1)
    # Read as unsigned, a negative vote is too large, so one comparison
    # checks both ends of the range.
    if (live & (live_votes.view(np.uint64) >= m.view(np.uint64)[:, None])).any():
        raise ValueError("vote out of range for its row's answer space")

    # top1[i, s] and top2[i, s]: the largest and second-largest answer count
    # among row i's first s + 1 votes, kept as a running top two over the
    # answers one at a time. Answers above the largest vote have count 0.
    top1 = np.add.accumulate(live_votes == 0, axis=1, dtype=np.int32)
    top2 = np.zeros_like(top1)
    count = np.empty_like(top1)
    below = np.empty_like(top1)
    top_vote = int(live_votes.max())
    for answer in range(1, top_vote + 1):
        np.add.accumulate(live_votes == answer, axis=1, dtype=np.int32, out=count)
        np.maximum(top2, np.minimum(top1, count, out=below), out=top2)
        np.maximum(top1, count, out=top1)
    gap = np.subtract(top1, top2, out=top2)
    del count, below

    n_min = config.n_min
    warmed = seen >= n_min
    warm_max = top1[:, n_min - 1] if width >= n_min else np.zeros(rows, np.int32)
    p0_used = np.empty(rows)
    threshold = np.zeros(rows, dtype=np.int64)
    frozen = np.flatnonzero(warmed) if config.p0_fixed is None else np.arange(rows)
    if frozen.size:
        # One table lookup per distinct (m, warm-up maximum) pair.
        pairs = list(zip(m[frozen].tolist(), warm_max[frozen].tolist()))
        entries = {pair: table.lookup(*pair) for pair in set(pairs)}
        p0_used[frozen], threshold[frozen] = zip(*map(entries.__getitem__, pairs))
    if config.p0_fixed is None:
        for i in np.flatnonzero(~warmed).tolist():
            t = int(seen[i])
            p0_used[i] = _majority_p0(config, int(top1[i, t - 1]), t, int(m[i]))

    # Streaks of gap >= threshold from t = n_min on; a run's length at step s
    # is s minus the last step at or before s that missed.
    hit = live & (steps >= n_min - 1) & (gap >= threshold[:, None])
    last_miss = np.maximum.accumulate(np.where(hit, -1, steps), axis=1)
    confirmed = steps - last_miss >= config.streak_k
    stopped = confirmed.any(axis=1)
    tau = np.where(stopped, confirmed.argmax(axis=1) + 1, seen)
    every, last = np.arange(rows), tau - 1
    kind = tuple(
        StopKind.STOP_LEADER if s else StopKind.BUDGET_EXHAUSTED for s in stopped.tolist()
    )
    return BatchStops(
        tau=tau,
        label=plurality(live_votes, tau, top_vote + 1),
        kind=kind,
        truncated=~stopped & (seen < config.m_max),
        p0_used=p0_used,
        gap_upper=threshold,
        gap=gap[every, last],
        streak=last - last_miss[every, last],
    )
