"""Tests for vote accounting, the answer-noise model, and Bayes factors.

Tally stepping and leader extraction live in the per-vote oracle,
``stopper_reference``, which the other tests lean on; they are tested here,
as is the plurality leader the batched stopper keeps at every prefix.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from likelihood_reference import log_bayes_factor_full, log_likelihood
from stopper_reference import tally_ingest, tally_of, top_two
from ttpo.consensus import (
    AnswerModel,
    VoteTally,
    log_bayes_factor_closed_form,
    posterior,
)
from ttpo.stopper import StopperConfig, ThresholdTable, stop_batch


def tallies(max_m: int = 6, max_count: int = 50):
    """Strategy for non-empty tallies with at least two answer slots."""
    return st.lists(
        st.integers(min_value=0, max_value=max_count), min_size=2, max_size=max_m
    ).filter(lambda c: sum(c) >= 1).map(lambda c: VoteTally(counts=tuple(c)))


def models_for(tally: VoteTally) -> st.SearchStrategy[AnswerModel]:
    """Models over the tally's answer space with p0 strictly above chance."""
    m = tally.m
    return st.floats(min_value=1.0 / m + 1e-3, max_value=0.999).map(
        lambda p0: AnswerModel(p0=p0, m=m)
    )


class TestVoteTally:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            VoteTally(counts=(1, -1))

    def test_no_answer_slot_rejected(self):
        with pytest.raises(ValueError, match="at least one answer slot"):
            VoteTally(counts=())

    def test_ingest_from_empty(self):
        tally = tally_ingest(tally_of({}, 4), 2)
        assert tally.counts[2] == 1
        assert tally.total == 1

    def test_ingest_increments_existing(self):
        tally = tally_ingest(tally_of({0: 3, 1: 1}, m=2), 1)
        assert tally.counts == (3, 2)
        assert tally.total == 5

    def test_ingest_sequence_matches_counter(self):
        # Fold oracle: ingesting a sequence reproduces collections.Counter.
        votes = [0, 0, 1, 0]
        tally = tally_of({}, 2)
        for v in votes:
            tally = tally_ingest(tally, v)
        assert tally.counts == (3, 1)
        assert tally.total == 4
        expected = Counter(votes)
        assert all(tally.counts[j] == expected[j] for j in range(tally.m))

    def test_ingest_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tally_ingest(tally_of({}, 2), 2)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=60))
    def test_conservation(self, votes):
        tally = tally_of({}, 5)
        for v in votes:
            tally = tally_ingest(tally, v)
        assert tally.total == sum(tally.counts) == len(votes)
        assert tally.counts == tuple(Counter(votes)[j] for j in range(5))


class TestTopTwo:
    def test_clear_leader_tied_runner_up(self):
        # Runner-up tie between answers 1 and 2 breaks toward the lower id.
        pair = top_two(tally_of({0: 5, 1: 2, 2: 2}, m=3))
        assert (pair.leader, pair.runner_up, pair.gap) == (0, 1, 3)

    def test_single_observed_class(self):
        # Unobserved answers participate with count 0.
        pair = top_two(tally_of({3: 4}, m=4))
        assert (pair.leader, pair.runner_up, pair.gap) == (3, 0, 4)

    def test_exact_tie(self):
        pair = top_two(tally_of({0: 2, 1: 2}, m=2))
        assert (pair.leader, pair.runner_up, pair.gap) == (0, 1, 0)

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError):
            top_two(tally_of({}, 3))

    @given(tallies())
    def test_matches_exhaustive_scan(self, tally):
        # Oracle: stable sort of (count desc, id asc) pairs.
        ranked = sorted(range(tally.m), key=lambda j: (-tally.counts[j], j))
        pair = top_two(tally)
        assert pair.leader == ranked[0]
        assert pair.runner_up == ranked[1]
        assert pair.gap == tally.counts[ranked[0]] - tally.counts[ranked[1]]
        assert pair.gap >= 0
        assert pair.leader != pair.runner_up


class TestAnswerModel:
    def test_wrong_mass_and_kappa(self):
        model = AnswerModel(p0=0.9, m=2)
        assert model.wrong_mass == pytest.approx(0.1)
        assert model.kappa == pytest.approx(9.0)

    def test_mass_conservation(self):
        model = AnswerModel(p0=0.8, m=4)
        assert model.p0 + (model.m - 1) * model.wrong_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p0,m", [(0.25, 4), (0.2, 5), (0.5, 2)])
    def test_at_or_below_chance_rejected(self, p0, m):
        with pytest.raises(ValueError):
            AnswerModel(p0=p0, m=m)

    @pytest.mark.parametrize("p0", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_p0_rejected(self, p0):
        with pytest.raises(ValueError):
            AnswerModel(p0=p0, m=2)

    def test_one_answer_rejected(self):
        with pytest.raises(ValueError, match="at least two candidate answers"):
            AnswerModel(0.9, 1)

    @given(st.integers(min_value=2, max_value=20), st.data())
    def test_kappa_exceeds_one_above_chance(self, m, data):
        p0 = data.draw(st.floats(min_value=1.0 / m + 1e-6, max_value=1 - 1e-6))
        model = AnswerModel(p0=p0, m=m)
        assert model.kappa > 1.0
        assert model.p0 + (m - 1) * model.wrong_mass == pytest.approx(1.0, abs=1e-12)


class TestLogLikelihood:
    def test_empty_tally_is_zero(self):
        model = AnswerModel(p0=0.7, m=3)
        for hyp in range(3):
            assert log_likelihood(tally_of({}, 3), hyp, model) == 0.0

    def test_symmetric_two_votes(self):
        # Direct formula at p0 = wrong_mass = 0.5: 2 * ln(0.5).
        model = AnswerModel(p0=0.5 + 1e-9, m=2)
        got = log_likelihood(tally_of({0: 2}, m=2), 0, model)
        assert got == pytest.approx(-1.3862943611198906, abs=1e-7)

    def test_asymmetric_counts(self):
        # 3*ln(0.8) + 1*ln(0.2/3), evaluated independently.
        model = AnswerModel(p0=0.8, m=4)
        got = log_likelihood(tally_of({0: 3, 1: 1}, m=4), 0, model)
        assert got == pytest.approx(-3.377480855044839, abs=1e-12)

    def test_hypothesis_out_of_range_rejected(self):
        model = AnswerModel(p0=0.8, m=2)
        with pytest.raises(ValueError):
            log_likelihood(tally_of({}, 2), 2, model)

    def test_mismatched_answer_space_rejected(self):
        model = AnswerModel(p0=0.8, m=4)
        with pytest.raises(ValueError):
            log_likelihood(tally_of({}, 3), 0, model)


class TestLogBayesFactor:
    def test_zero_gap(self):
        model = AnswerModel(p0=0.9, m=2)
        assert log_bayes_factor_closed_form(0, model) == 0.0

    def test_gap_two_kappa_nine(self):
        model = AnswerModel(p0=0.9, m=2)
        assert model.kappa == pytest.approx(9.0)
        got = log_bayes_factor_closed_form(2, model)
        assert got == pytest.approx(4.394449154672439, abs=1e-12)

    def test_gap_one_kappa_two(self):
        model = AnswerModel(p0=0.5, m=3)
        assert model.kappa == pytest.approx(2.0)
        got = log_bayes_factor_closed_form(1, model)
        assert got == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            log_bayes_factor_closed_form(-1, AnswerModel(p0=0.9, m=2))

    def test_full_form_single_vote(self):
        # Both routes must give ln(12) for one vote at p0=0.8, m=4.
        model = AnswerModel(p0=0.8, m=4)
        tally = tally_of({0: 1}, m=4)
        full = log_bayes_factor_full(tally, model)
        closed = log_bayes_factor_closed_form(top_two(tally).gap, model)
        assert full == pytest.approx(2.4849066497880004, abs=1e-12)
        assert closed == pytest.approx(2.4849066497880004, abs=1e-12)

    def test_full_form_symmetric_tally(self):
        model = AnswerModel(p0=0.9, m=2)
        assert log_bayes_factor_full(tally_of({0: 2, 1: 2}, m=2), model) == 0.0

    def test_full_vs_closed_random_tallies(self):
        # 1000 seeded random tallies over m=5; the two routes stay within 1e-9.
        rng = np.random.default_rng(20240817)
        model = AnswerModel(p0=0.55, m=5)
        for _ in range(1000):
            counts = tuple(int(c) for c in rng.integers(0, 40, size=5))
            if sum(counts) == 0:
                continue
            tally = VoteTally(counts=counts)
            full = log_bayes_factor_full(tally, model)
            closed = log_bayes_factor_closed_form(top_two(tally).gap, model)
            assert abs(full - closed) <= 1e-9

    @given(st.data())
    @settings(max_examples=200)
    def test_full_vs_closed_property(self, data):
        tally = data.draw(tallies())
        model = data.draw(models_for(tally))
        full = log_bayes_factor_full(tally, model)
        closed = log_bayes_factor_closed_form(top_two(tally).gap, model)
        assert abs(full - closed) <= 1e-9


class TestPosterior:
    def test_empty_tally_uniform(self):
        model = AnswerModel(p0=0.8, m=4)
        got = posterior(tally_of({}, 4), model)
        np.testing.assert_allclose(got, [0.25] * 4, atol=1e-15)

    def test_single_vote_two_classes(self):
        # One vote at p0=0.8 moves a uniform prior to exactly [0.8, 0.2].
        model = AnswerModel(p0=0.8, m=2)
        got = posterior(tally_of({0: 1}, m=2), model)
        np.testing.assert_allclose(got, [0.8, 0.2], atol=1e-12)

    def test_answer_space_mismatch_rejected(self):
        with pytest.raises(ValueError, match="tally covers 3 answers but model expects 4"):
            posterior(tally_of({0: 1}, 3), AnswerModel(p0=0.8, m=4))

    def test_huge_gap_stays_finite(self):
        # Gap of 400 at kappa=9 overflows any linear-space ratio.
        model = AnswerModel(p0=0.9, m=2)
        got = posterior(tally_of({0: 400}, m=2), model)
        assert np.all(np.isfinite(got))
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    @given(st.data())
    @settings(max_examples=200)
    def test_normalized_and_argmax_matches_leader(self, data):
        tally = data.draw(tallies())
        model = data.draw(models_for(tally))
        post = posterior(tally, model)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(post >= 0)
        # Argmax consistency, with the same lowest-id tie rule as top_two.
        best = max(range(tally.m), key=lambda j: (post[j], -j))
        ranked = sorted(range(tally.m), key=lambda j: (-tally.counts[j], j))
        assert tally.counts[best] == tally.counts[ranked[0]]

    @given(st.data())
    @settings(max_examples=200)
    def test_extra_vote_never_decreases_own_mass(self, data):
        tally = data.draw(tallies())
        model = data.draw(models_for(tally))
        j = data.draw(st.integers(min_value=0, max_value=tally.m - 1))
        before = posterior(tally, model)[j]
        after = posterior(tally_ingest(tally, j), model)[j]
        assert after >= before - 1e-12


class TestPlurality:
    @pytest.mark.parametrize("m", [2, 5, 64])
    def test_matches_counter_with_forced_ties(self, m):
        rng = np.random.default_rng(m + 11)
        width = 40
        votes = rng.integers(-3, m + 3, size=(500, width))  # unread padding
        lengths = np.empty(500, dtype=np.int64)
        for i in range(500):
            if i % 2:
                row = rng.integers(m, size=int(rng.integers(1, width + 1)))
            else:
                # Two or more answers tied at the top, the rest below them.
                top = int(rng.integers(1, 4))
                tied = rng.choice(m, size=min(m, int(rng.integers(2, 5))), replace=False)
                rest = [a for a in range(m) if a not in tied][: max(0, width // top - len(tied))]
                below = [a for a in rest for _ in range(int(rng.integers(0, top)))]
                row = rng.permutation(np.repeat(tied, top).tolist() + below)[:width]
                assert Counter(row.tolist()).most_common(2)[1][1] == top
            votes[i, : row.size] = row
            lengths[i] = row.size
        # The budget is shorter than the rows, so the leader is also kept
        # past the votes the decision reads.
        table = ThresholdTable(StopperConfig(n_min=4, m_max=width // 2, streak_k=2))
        stops = stop_batch(votes, lengths, np.full(500, m), table)
        for i, (row, length) in enumerate(zip(votes.tolist(), lengths.tolist())):
            counts = Counter()
            for s, vote in enumerate(row[:length]):
                counts[vote] += 1
                best = max(counts.values())
                expected = min(a for a, c in counts.items() if c == best)
                assert stops.leader[i, s] == expected, (i, s)
            assert stops.label[i] == stops.leader[i, stops.tau[i] - 1]
