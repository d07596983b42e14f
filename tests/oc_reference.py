"""Exact operating characteristic of the top-two gap rule, by dynamic programming.

The regime is Wald's textbook one: a fixed vote accuracy ``p0`` that the
test also assumes, no warm-up (``n_min = 1``) and no streak (``streak_k =
1``). Sampling stops at the first vote after which the leader's count
exceeds the runner-up's by at least the gap threshold ``g``, the least
``g`` with ``kappa**g >= (1 - beta) / alpha`` for ``kappa = p0 (m - 1) /
(1 - p0)``. A vote hits the true answer with probability ``p0`` and each of
the ``m - 1`` wrong answers with probability ``(1 - p0) / (m - 1)``.

The wrong answers are exchangeable, so a run's state is the true answer's
count and the wrong answers' counts, sorted. The rule and the votes depend
only on count differences, so every state is shifted down to a least count
of 0. The run's distribution is carried vote by vote over these states and
mass leaves it where the rule stops. This shares no code with
``ttpo.stopper``: the threshold is found here in exact rationals, and the
tallies are kept here.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction


def _exact(value: float) -> Fraction:
    """The rational a float's shortest decimal repr denotes."""
    return Fraction(Decimal(repr(float(value))))


def gap_threshold(m: int, p0: float, alpha: float, beta: float) -> int:
    """The least ``g >= 1`` with ``kappa**g >= (1 - beta) / alpha``."""
    kappa = _exact(p0) * (m - 1) / (1 - _exact(p0))
    if kappa <= 1:
        raise ValueError(f"kappa must exceed 1, got p0={p0}, m={m}")
    target = (1 - _exact(beta)) / _exact(alpha)
    g = 1
    while kappa**g < target:
        g += 1
    return g


@dataclass(frozen=True)
class OperatingCharacteristic:
    """Where a run's probability mass ends.

    ``p_wrong`` and ``p_right`` stop on a wrong or the true leader,
    ``p_budget`` reaches the vote budget without stopping, and ``dropped``
    is the mass left unresolved (pruned states plus what was still running
    when the iteration ended). ``mean_tau`` counts a budget run as the
    budget and leaves the dropped mass out, so it is low by at most about
    ``dropped`` times the votes that mass would still take.
    """

    p_wrong: float
    p_right: float
    p_budget: float
    mean_tau: float
    dropped: float
    threshold: int


def operating_characteristic(
    m: int,
    p0: float,
    alpha: float,
    beta: float,
    budget: int | None = None,
    tolerance: float = 1e-12,
    prune: float = 1e-20,
) -> OperatingCharacteristic:
    """Exact stopping probabilities and mean ``tau`` of the gap rule.

    Runs vote by vote up to ``budget`` votes, or with no budget until less
    than ``tolerance`` of the mass is still running. A state whose mass
    falls below ``prune`` is dropped and counted in ``dropped``.
    """
    g = gap_threshold(m, p0, alpha, beta)
    q = (1.0 - p0) / (m - 1)
    # (true count, wrong counts in descending order) -> probability.
    states: dict[tuple[int, tuple[int, ...]], float] = {(0, (0,) * (m - 1)): 1.0}
    wrong = right = running_tau = dropped = 0.0
    t = 0
    while states:
        t += 1
        moved: dict[tuple[int, tuple[int, ...]], float] = {}
        for (true, others), mass in states.items():
            successors = [((true + 1, others), mass * p0)]
            for index, count in enumerate(others):
                # Bump the first of each run of equal counts: the order holds,
                # and the run's length is how many wrong answers lead there.
                if index and others[index - 1] == count:
                    continue
                ties = others.count(count)
                bumped = others[:index] + (count + 1,) + others[index + 1 :]
                successors.append(((true, bumped), mass * q * ties))
            for key, weight in successors:
                moved[key] = moved.get(key, 0.0) + weight
        states = {}
        for (true, others), mass in moved.items():
            top_wrong = others[0]
            if true - top_wrong >= g:
                right += mass
                running_tau += t * mass
                continue
            runner_up = max(true, others[1]) if m > 2 else true
            if top_wrong - runner_up >= g:
                wrong += mass
                running_tau += t * mass
                continue
            floor = min(true, others[-1])
            key = (true - floor, tuple(count - floor for count in others))
            states[key] = states.get(key, 0.0) + mass
        for key in [key for key, mass in states.items() if mass < prune]:
            dropped += states.pop(key)
        live = sum(states.values())
        if budget is not None and t == budget:
            return OperatingCharacteristic(
                wrong, right, live, running_tau + t * live, dropped, g
            )
        if budget is None and live < tolerance:
            return OperatingCharacteristic(wrong, right, 0.0, running_tau, dropped + live, g)
    return OperatingCharacteristic(wrong, right, 0.0, running_tau, dropped, g)
