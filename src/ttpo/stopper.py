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
number of vote streams at once from the running top two answer counts and
plurality leader, built one answer id at a time over the ids its rows hold:
its memory does not grow with ``m``, and its time grows with the ids held
(ROADMAP open item 1). The frozen threshold depends only on ``m`` and the
warm-up maximum count, so one :class:`ThresholdTable` per run covers every
instance. The online driver, :func:`~ttpo.allocator.allocate`, calls it on
the prefix a live source has produced so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

import numpy as np

from .errors import AllocationError, ConfigurationError


@dataclass(frozen=True)
class ErrorBudget:
    """Wald's error budgets ``alpha`` and ``beta`` for the top-two test.

    They set the gap threshold through ``(1 - beta) / alpha``, which bounds
    one wrong answer's race against the true one: that wrong answer takes
    the stop with probability at most ``alpha / (1 - beta)``. The run's
    wrong-stop probability is not bounded by it once ``m >= 3``, because
    each of the ``m - 1`` wrong answers runs its own race (0.0723 at
    ``m = 3``, ``p0 = 0.7``, ``alpha = beta = 0.05``).
    ``tests/test_operating_characteristic.py`` checks the summed bound
    ``(m - 1) * alpha / (1 - beta)`` for the run, exactly, in the textbook
    regime (fixed ``p0``, ``n_min = 1``, ``streak_k = 1``); ROADMAP open
    item 5 extends that check to the default rule.
    """

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


# The margin that keeps a clamped p0 inside (1/m, 1), so kappa > 1.
P0_FLOOR_EPSILON = 1e-3


@dataclass(frozen=True)
class StopperConfig:
    """Knobs for one sequential test.

    ``p0_fixed`` pins the vote-accuracy model up front; when None, ``p0`` is
    estimated at ``t = n_min`` from the warm-up majority fraction scaled by
    ``degradation``. Either way the value is clamped into
    ``(1/m + P0_FLOOR_EPSILON, 1 - P0_FLOOR_EPSILON)`` so kappa > 1.
    """

    budget: ErrorBudget = field(default_factory=ErrorBudget)
    n_min: int = 32
    m_max: int = 64
    streak_k: int = 5
    degradation: float = 0.6
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

    The threshold bounds each wrong answer's race against the true one by
    ``alpha / (1 - beta)``, not the run's wrong-stop probability once
    ``m >= 3``; see :class:`ErrorBudget`.
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
    return clamp_p0(config.degradation * max_count / t, m, P0_FLOOR_EPSILON)


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
                p0 = clamp_p0(config.p0_fixed, m, P0_FLOOR_EPSILON)
            else:
                p0 = _majority_p0(config, warm_max, config.n_min, m)
            entry = self._entries[key] = (p0, compute_thresholds(config, p0, m))
        return entry


@dataclass(frozen=True, eq=False)
class BatchStops:
    """Per-row outcome of :func:`stop_batch`, aligned with its input rows.

    ``leader[i, s]`` is the plurality leader of row ``i``'s first ``s + 1``
    votes, ties to the lowest id, and ``label[i]`` is ``leader[i, tau[i] - 1]``.
    ``stopped[i]`` is whether row ``i`` stopped on its leader
    (``StopKind.STOP_LEADER``) rather than at the end of its votes or budget.
    ``gap_upper`` is the frozen threshold, 0 for a row that ran dry before
    an adaptive ``p0`` was frozen; ``gap`` and ``streak`` are the top-two
    gap and the run of consecutive threshold crossings after ``tau`` votes.
    """

    tau: np.ndarray
    label: np.ndarray
    leader: np.ndarray
    stopped: np.ndarray
    truncated: np.ndarray
    p0_used: np.ndarray
    gap_upper: np.ndarray
    gap: np.ndarray
    streak: np.ndarray


def stop_batch(
    votes: np.ndarray, lengths: np.ndarray, m: np.ndarray, table: ThresholdTable
) -> BatchStops:
    """Run the sequential test over every row of a ``[B, L]`` vote matrix.

    Row ``i`` holds one instance's votes in draw order. Its first ``lengths[i]``
    entries, each in ``[0, m[i])``, are all counted for ``leader``, and the
    entries past them are never read, whatever they hold; its decision reads
    only the first ``tau[i]`` (at most ``m_max``; a shorter row is a source
    that ran dry), so a prefix decides as the whole stream would: ``allocate``
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
        empty, no_flags = np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        return BatchStops(
            empty, empty, empty.reshape(0, votes.shape[1]), no_flags, no_flags,
            np.empty(0), empty, empty, empty,
        )
    if m.min() < 2:
        raise ConfigurationError(f"need at least two candidate answers, got m={m.min()}")
    if lengths.min() < 1:
        raise AllocationError("vote source exhausted before any vote")
    if lengths.max() > votes.shape[1]:
        raise ValueError("a row length exceeds the vote matrix width")

    # Every vote within a row's length is counted; the cells past it are
    # never read, whatever they hold. One bool buffer serves every mask.
    steps = np.arange(votes.shape[1], dtype=np.int32)
    live = steps < lengths[:, None]
    flags = np.empty(votes.shape, dtype=bool)
    # Read as unsigned, a negative vote is too large, so one comparison
    # checks both ends of the range.
    np.greater_equal(votes.view(np.uint64), m.view(np.uint64)[:, None], out=flags)
    flags &= live
    if flags.any():
        raise ValueError("vote out of range for its row's answer space")

    # The answers the rows hold, ascending, along one sort of the live votes.
    flat = votes[live]
    flat.sort()
    held = [flat[0]]
    while held[-1] < flat[-1]:
        held.append(flat[flat.searchsorted(held[-1], "right")])
    del flat

    # top1[i, s]: the largest answer count among row i's first s + 1 votes,
    # and leader[i, s] the lowest answer with it: a later answer leads only
    # with a larger count. top2, the second-largest count, is kept only where
    # the decision reads. Counts fit the narrowest type that holds the width.
    width = min(votes.shape[1], config.m_max)
    read = np.s_[:, :width]
    counts = np.int16 if votes.shape[1] < 2**15 else np.int32
    np.equal(votes, held[0], out=flags)
    flags &= live
    top1 = np.add.accumulate(flags, axis=1, dtype=counts)
    top2 = np.zeros((rows, width), dtype=counts)
    leader = np.full(votes.shape, held[0])
    count, below = np.empty_like(top1), np.empty_like(top2)
    for answer in held[1:]:
        np.equal(votes, answer, out=flags)
        flags &= live
        np.add.accumulate(flags, axis=1, dtype=counts, out=count)
        np.greater(count, top1, out=flags)
        np.copyto(leader, answer, where=flags)
        np.maximum(top2, np.minimum(top1[read], count[read], out=below), out=top2)
        np.maximum(top1, count, out=top1)
    del count, below

    seen = np.minimum(lengths, width)
    gap = np.subtract(top1[read], top2, out=top2)

    n_min = config.n_min
    warmed = seen >= n_min
    warm_max = top1[:, n_min - 1] if width >= n_min else np.zeros(rows, counts)
    p0_used = np.empty(rows)
    threshold = np.zeros(rows, dtype=np.int64)
    frozen = np.flatnonzero(warmed) if config.p0_fixed is None else np.arange(rows)
    if frozen.size:
        # One table lookup per distinct (m, warm-up maximum) pair, keyed as
        # m's rank among the sizes times a base above every warm-up maximum,
        # plus that maximum; a fixed p0 reads no warm-up.
        base = width + 1
        sizes, size_of = np.unique(m[frozen], return_inverse=True)
        key = size_of * base
        if config.p0_fixed is None:
            key += warm_max[frozen]
        keys, entry_of = np.unique(key, return_inverse=True)
        p0s, gaps = zip(*(table.lookup(int(sizes[k // base]), k % base) for k in keys.tolist()))
        p0_used[frozen] = np.array(p0s)[entry_of]
        threshold[frozen] = np.array(gaps)[entry_of]
    if config.p0_fixed is None:
        for i in np.flatnonzero(~warmed).tolist():
            t = int(seen[i])
            p0_used[i] = _majority_p0(config, int(top1[i, t - 1]), t, int(m[i]))
    del top1

    # Streaks of gap >= threshold from t = n_min on; a run's length at step s
    # is s minus the last step at or before s that missed.
    hit = np.greater_equal(gap, threshold[:, None], out=flags[read])
    hit &= live[read]
    hit[:, : n_min - 1] = False
    steps = steps[:width]
    run = np.where(hit, -1, steps)
    np.maximum.accumulate(run, axis=1, out=run)
    np.subtract(steps, run, out=run)
    confirmed = np.greater_equal(run, config.streak_k, out=hit)
    stopped = confirmed.any(axis=1)
    tau = np.where(stopped, confirmed.argmax(axis=1) + 1, seen)
    every, last = np.arange(rows), tau - 1
    return BatchStops(
        tau=tau,
        label=leader[every, last],
        leader=leader,
        stopped=stopped,
        truncated=~stopped & (seen < config.m_max),
        p0_used=p0_used,
        gap_upper=threshold,
        gap=gap[every, last].astype(np.int32),
        streak=run[every, last].astype(np.int64),
    )
