"""The gap rule's exact operating characteristic against Wald's error bound.

``oc_reference`` computes the exact probability of stopping on a wrong
answer in the textbook regime (fixed ``p0``, ``n_min = 1``, ``streak_k =
1``). Wald's bound ``alpha / (1 - beta)`` is a pairwise one: it holds for
two answers, and summed over the ``m - 1`` wrong answers it holds for any
``m``, but ``alpha / (1 - beta)`` alone does not bound the error once
``m >= 3``.
"""

import math

import numpy as np
import pytest

from oc_reference import gap_threshold, operating_characteristic
from ttpo.seeding import _LANES, _stream_seeds
from ttpo.stopper import ErrorBudget, StopperConfig, ThresholdTable, stop_batch
from ttpo.synth import P0Spec, _categorical_votes, _corpus

GRID = [
    (m, p0, alpha, beta)
    for m in (2, 3, 4)
    for p0 in (0.6, 0.7, 0.9)
    for alpha, beta in ((0.05, 0.05), (0.01, 0.1), (0.1, 0.01))
]


def test_criterion_3_regime_exactly():
    # m = 4, p0 = 0.7, alpha = beta = 0.05: kappa = 7 and the gap threshold is 2.
    oc = operating_characteristic(4, 0.7, 0.05, 0.05)
    assert oc.threshold == 2
    assert oc.p_wrong == pytest.approx(0.044645, abs=5e-7)
    assert oc.mean_tau == pytest.approx(3.6828, abs=5e-5)
    assert oc.dropped < 1e-11
    assert oc.p_wrong < 0.05 / (1 - 0.05)


@pytest.mark.parametrize("p0", [0.6, 0.7, 0.9])
@pytest.mark.parametrize("alpha,beta", [(0.05, 0.05), (0.01, 0.1), (0.1, 0.01)])
def test_two_answers_match_gamblers_ruin(p0, alpha, beta):
    # With two answers the gap is a random walk from 0 that stops at +-g:
    # it ends at -g with probability 1 / (1 + kappa**g), and by Wald's
    # identity E[tau] = g (1 - 2 P(wrong)) / (2 p0 - 1).
    oc = operating_characteristic(2, p0, alpha, beta)
    g = gap_threshold(2, p0, alpha, beta)
    ruin = 1.0 / (1.0 + (p0 / (1.0 - p0)) ** g)
    assert oc.p_wrong == pytest.approx(ruin, rel=1e-9)
    assert oc.mean_tau == pytest.approx(g * (1 - 2 * ruin) / (2 * p0 - 1), rel=1e-9)
    assert oc.p_wrong <= alpha / (1 - beta)


@pytest.mark.parametrize("m,p0,alpha,beta", GRID)
def test_wrong_stops_stay_inside_the_summed_wald_bound(m, p0, alpha, beta):
    oc = operating_characteristic(m, p0, alpha, beta)
    assert oc.p_wrong + oc.p_right + oc.dropped == pytest.approx(1.0, abs=1e-12)
    assert oc.p_wrong <= (m - 1) * alpha / (1 - beta)
    if m == 2:
        assert oc.p_wrong <= alpha / (1 - beta)


@pytest.mark.parametrize(
    "m,p0,exact", [(3, 0.7, 0.072284), (4, 0.6, 0.098501)], ids=["m3-p0.7", "m4-p0.6"]
)
def test_wald_bound_alone_fails_past_two_answers(m, p0, exact):
    # alpha = beta = 0.05: the bound is 0.052632, and each wrong answer can
    # win its own race against the true one.
    oc = operating_characteristic(m, p0, 0.05, 0.05)
    assert oc.p_wrong == pytest.approx(exact, abs=5e-7)
    assert oc.p_wrong > 0.05 / (1 - 0.05)


@pytest.mark.parametrize(
    "m,p0", [(4, 0.7), (3, 0.7), (4, 0.6)], ids=["m4-p0.7", "m3-p0.7", "m4-p0.6"]
)
def test_stop_batch_agrees_with_the_exact_error(m, p0):
    # 40,000 lane-drawn streams, 64 votes each, decided by the library's
    # stop_batch, against the exact error within the same 64-vote budget.
    count, budget = 40_000, 64
    config = StopperConfig(
        budget=ErrorBudget(alpha=0.05, beta=0.05),
        n_min=1,
        m_max=budget,
        streak_k=1,
        p0_fixed=p0,
    )
    table = ThresholdTable(config)
    oc = operating_characteristic(m, p0, 0.05, 0.05, budget=budget)
    assert table.lookup(m, 0)[1] == oc.threshold
    ids, true, p0s = _corpus(count, m, P0Spec.constant(p0), seed=5077)
    wrong = 0
    for start in range(0, count, _LANES):
        rows = slice(start, start + _LANES)
        seeds = _stream_seeds(5077, "operating-characteristic", 0, ids[rows])
        votes = _categorical_votes(true[rows], p0s[rows], m, seeds, budget)
        lengths = np.full(len(seeds), budget)
        stops = stop_batch(votes, lengths, np.full(len(seeds), m), table)
        wrong += int((stops.stopped & (stops.label != true[rows])).sum())
    sd = math.sqrt(oc.p_wrong * (1 - oc.p_wrong) / count)
    assert abs(wrong / count - oc.p_wrong) <= 3 * sd
