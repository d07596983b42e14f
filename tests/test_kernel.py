"""The array stopping kernel against the per-vote oracle's ``allocate``."""

import tracemalloc

import numpy as np
import pytest

from scalar_reference import reference_compare, reference_ttpo
from stopper_reference import SprtStopper, allocate, top_two
from ttpo import experiment
from ttpo.config import resolve_config
from ttpo.errors import AllocationError, ConfigurationError
from ttpo.experiment import run_compare, run_ttpo
from ttpo.report import render_report
from ttpo.seeding import _LANES
from ttpo.stopper import (
    ErrorBudget,
    StopKind,
    StopperConfig,
    ThresholdTable,
    compute_thresholds,
    stop_batch,
)
from trace_reference import TraceRecord, canonical_trace_line


class RecordedSource:
    """Finite source over recorded answers and costs; takes fall short once
    it runs dry."""

    def __init__(self, m, answers, costs):
        self.m = m
        self._answers = np.asarray(answers, dtype=np.int64)
        self._costs = np.asarray(costs, dtype=np.int64)
        self._pos = 0

    def take(self, n):
        start = self._pos
        self._pos = min(start + n, self._answers.size)
        return self._answers[start : self._pos], self._costs[start : self._pos]


def random_block(rng, rows, width, m_choices):
    """Votes that favour answer 0 by a per-row margin, plus ragged lengths."""
    m = rng.choice(m_choices, size=rows)
    accuracy = rng.uniform(0.2, 0.97, size=rows)
    hit = rng.random((rows, width)) < accuracy[:, None]
    noise = (rng.random((rows, width)) * m[:, None]).astype(np.int64)
    votes = np.where(hit, 0, noise)
    lengths = rng.integers(1, width + 1, size=rows)
    return votes, lengths, m


def assert_matches_allocate(votes, lengths, m, config):
    stops = stop_batch(votes, lengths, m, ThresholdTable(config))
    for i in range(len(votes)):
        row = votes[i, : lengths[i]]
        result = allocate(RecordedSource(int(m[i]), row, np.ones(row.size)), config)
        assert (
            int(stops.tau[i]),
            int(stops.label[i]),
            stops.kind[i],
            bool(stops.truncated[i]),
            float(stops.p0_used[i]),
        ) == (
            result.tau,
            result.pseudo_label,
            result.decision_kind,
            result.truncated,
            result.p0_used,
        ), (i, row.tolist(), config)
    return stops


CASES = {
    "default": StopperConfig(),
    "short_warm_up": StopperConfig(n_min=4, m_max=40, streak_k=2),
    "p0_fixed": StopperConfig(n_min=6, m_max=48, streak_k=3, p0_fixed=0.75),
    "streak_one": StopperConfig(n_min=5, m_max=30, streak_k=1),
    # One step to decide: a confirmed stop outranks the exhausted budget.
    "n_min_is_budget": StopperConfig(n_min=20, m_max=20, streak_k=1),
    "long_budget": StopperConfig(
        budget=ErrorBudget(alpha=0.01, beta=0.01), n_min=8, m_max=300, streak_k=4
    ),
    "loose_budget": StopperConfig(
        budget=ErrorBudget(alpha=0.2, beta=0.3), n_min=3, m_max=25, streak_k=2,
        degradation=1.0,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_allocate_on_random_streams(name):
    config = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name) + 2100)
    # Wider than the budget, so rows both run dry and get cut at m_max.
    width = config.m_max + 20
    stops = []
    for _ in range(6):
        votes, lengths, m = random_block(rng, 250, width, [2, 3, 4, 7])
        stops.append(assert_matches_allocate(votes, lengths, m, config))
    kinds = {kind for s in stops for kind in s.kind}
    truncated = np.concatenate([s.truncated for s in stops])
    taus = np.concatenate([s.tau for s in stops])
    # Every outcome path is exercised: stops, full budgets, and sources
    # running dry both before and after the warm-up ends.
    assert kinds == {StopKind.STOP_LEADER, StopKind.BUDGET_EXHAUSTED}
    assert np.any(truncated & (taus < config.n_min))
    if config.n_min < config.m_max:
        assert np.any(truncated & (taus >= config.n_min))
    assert np.any(~truncated & (taus == config.m_max))


def sparse_block(rng, rows, width):
    """Rows over answer spaces of up to 64 whose votes use few of the ids.

    A third of the rows vote only for ids 0 and m - 1, a third stay below
    a largest id under m - 1, and a third vote for 0 or any id, so that
    the ids a block holds rarely reach its widest answer space.
    """
    m = rng.choice([2, 3, 5, 17, 33, 64], size=rows)
    pattern = rng.integers(3, size=rows)
    accuracy = rng.uniform(0.3, 0.95, size=rows)
    hit = rng.random((rows, width)) < accuracy[:, None]
    noise = (rng.random((rows, width)) * m[:, None]).astype(np.int64)
    ends = np.where(rng.random((rows, width)) < 0.5, 0, m[:, None] - 1)
    below = np.maximum(m - 1, 1)[:, None]
    under = (rng.random((rows, width)) * rng.integers(1, below + 1)).astype(np.int64)
    votes = np.select(
        [pattern[:, None] == 0, pattern[:, None] == 1], [ends, under], np.where(hit, 0, noise)
    )
    lengths = rng.integers(1, width + 1, size=rows)
    return votes, lengths, m


def stepped(votes, m, config):
    """``gap_upper``, ``gap`` and ``streak`` of one row, by the per-vote stopper."""
    stopper = SprtStopper(config, m)
    for vote in votes:
        if stopper.step(int(vote)).terminal:
            break
    stopper.force_stop()
    # A row that ran dry before an adaptive p0 froze has no threshold.
    unfrozen = config.p0_fixed is None and stopper.t < config.n_min
    return (0 if unfrozen else stopper.gap_upper, top_two(stopper.tally).gap, stopper._streak)


@pytest.mark.parametrize(
    "config",
    [StopperConfig(n_min=6, m_max=20, streak_k=2), StopperConfig(n_min=4, m_max=16, p0_fixed=0.6)],
    ids=["adaptive", "p0_fixed"],
)
def test_kernel_matches_stepped_oracle_on_a_lane_wide_block(config):
    # More rows than a lane chunk, answer spaces up to 64 that the votes
    # use sparsely, and rows that run dry before n_min.
    rng = np.random.default_rng(config.n_min + 4400)
    votes, lengths, m = sparse_block(rng, _LANES + 300, config.m_max + 6)
    stops = assert_matches_allocate(votes, lengths, m, config)
    read_max = np.where(np.arange(votes.shape[1]) < lengths[:, None], votes, -1).max(axis=1)
    assert set(stops.kind) == {StopKind.STOP_LEADER, StopKind.BUDGET_EXHAUSTED}
    assert np.any(lengths < config.n_min)
    assert np.any((m == 64) & (read_max < 32)) and np.any((m == 64) & (read_max == 63))
    assert (
        stops.tau.dtype, stops.label.dtype, stops.truncated.dtype, stops.p0_used.dtype,
        stops.gap_upper.dtype, stops.gap.dtype, stops.streak.dtype,
    ) == (np.int64, np.int64, np.bool_, np.float64, np.int64, np.int32, np.int64)
    for i in range(len(m)):
        got = (int(stops.gap_upper[i]), int(stops.gap[i]), int(stops.streak[i]))
        assert got == stepped(votes[i, : lengths[i]], int(m[i]), config), i


def test_kernel_reads_no_vote_past_the_budget():
    config = StopperConfig(n_min=4, m_max=10, streak_k=2)
    votes = np.array([[0, 1] * 5 + [2] * 6])
    tail = votes.copy()
    tail[0, 10:] = 0
    for block in (votes, tail):
        stops = stop_batch(block, [16], [3], ThresholdTable(config))
        assert stops.tau.tolist() == [10]
        assert stops.kind == (StopKind.BUDGET_EXHAUSTED,)
        assert not stops.truncated[0]


def test_threshold_table_matches_compute_thresholds():
    config = StopperConfig(n_min=8)
    table = ThresholdTable(config)
    for m in (2, 5):
        for warm_max in range(config.n_min + 1):
            p0, gap = table.lookup(m, warm_max)
            assert gap == compute_thresholds(config, p0, m)
    fixed = ThresholdTable(StopperConfig(p0_fixed=0.8))
    assert fixed.lookup(4, 0) == fixed.lookup(4, 32)


def test_kernel_rejects_bad_blocks():
    table = ThresholdTable(StopperConfig(n_min=2, m_max=4))
    votes = np.zeros((1, 4), dtype=np.int64)
    with pytest.raises(ConfigurationError):
        stop_batch(votes, [4], [1], table)
    with pytest.raises(AllocationError):
        stop_batch(votes, [0], [2], table)
    with pytest.raises(ValueError):
        stop_batch(votes, [5], [2], table)
    with pytest.raises(ValueError):
        stop_batch(np.array([[0, 3, 0, 0]]), [4], [3], table)
    with pytest.raises(ValueError):
        stop_batch(np.array([[0, -1, 0, 0]]), [4], [3], table)
    with pytest.raises(ValueError, match="one entry per vote row"):
        stop_batch(votes, [4, 4], [2], table)
    with pytest.raises(ValueError, match="one entry per vote row"):
        stop_batch(votes, [4], [2, 2], table)
    # Out-of-range entries past a row's length are padding, never read.
    assert stop_batch(np.array([[1, 1, 9, 9]]), [2], [2], table).label.tolist() == [1]
    empty = stop_batch(np.zeros((0, 4), dtype=np.int64), [], [], table)
    assert empty.tau.size == 0 and empty.kind == ()


def test_kernel_range_checks_votes_past_the_budget():
    # Votes past m_max but within a row's length are counted for the leader,
    # so they are range-checked too.
    table = ThresholdTable(StopperConfig(n_min=2, m_max=4))
    with pytest.raises(ValueError):
        stop_batch(np.array([[0, 1, 0, 1, 2]]), [5], [2], table)
    stops = stop_batch(np.array([[1, 0, 0, 1, 2, 1]]), [4], [2], table)
    assert stops.leader.tolist() == [[1, 0, 0, 0, 0, 0]]


@pytest.mark.parametrize("name", ["short_warm_up", "p0_fixed"])
def test_dead_cells_never_count(name):
    # Cells past a row's length hold ids at or above its m, negative ids, the
    # row's runner-up and an id no live cell holds (in range where m is
    # huge); the rows must decide as they do with those cells zeroed.
    config = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name) + 7300)
    width = config.m_max + 20
    votes, lengths, m = random_block(rng, 400, width, [2, 3, 7, 2**40])
    votes = np.minimum(votes, m[:, None] - 1) % 7
    live = np.arange(width) < lengths[:, None]
    zeroed = np.where(live, votes, 0)
    unheld = 100
    assert not (zeroed[live] == unheld).any()
    garbage = zeroed.copy()
    for i in range(len(votes)):
        counts = np.bincount(votes[i, : lengths[i]], minlength=2)
        runner_up = int(np.argsort(-counts, kind="stable")[1])
        fill = [int(m[i]), -3, runner_up, unheld, -(2**62), 2**63 - 1]
        dead = width - lengths[i]
        garbage[i, lengths[i] :] = (fill * dead)[:dead]
    table = ThresholdTable(config)
    clean, dirty = stop_batch(zeroed, lengths, m, table), stop_batch(garbage, lengths, m, table)
    for field in ("tau", "label", "leader", "truncated", "p0_used", "gap_upper", "gap", "streak"):
        a, b = getattr(clean, field), getattr(dirty, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert clean.kind == dirty.kind
    assert (lengths < width).mean() > 0.9 and (m == 2**40).any()


def test_kernel_working_set_per_cell():
    """``stop_batch`` counts in place: a 2,000 x 64 block over four answers peaks
    under 28 bytes a cell. Each held id reuses one bool and two narrow count
    buffers, and no full-width int64 copy of the votes is made; copying the
    votes with dead cells set to -1 and counting in int32 needs about 39."""
    rng = np.random.default_rng(7400)
    votes, lengths, m = random_block(rng, 2000, 64, [4])
    table = ThresholdTable(StopperConfig())
    stop_batch(votes, lengths, m, table)
    tracemalloc.start()
    try:
        stop_batch(votes, lengths, m, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_cell = peak / votes.size
    assert per_cell < 28, f"{per_cell:.1f} bytes per cell"


HUGE_M = 2**62


def spread_ids(rng, n):
    """``n`` increasing ids in ``[1, HUGE_M)``, the last ``HUGE_M - 1``, neighbours
    over 2**39 apart."""
    ids = np.sort(rng.choice(2**22 - 1, size=n - 1, replace=False)) << 40
    ids += rng.integers(1, 2**39, size=n - 1)
    return np.append(ids, HUGE_M - 1)


@pytest.mark.parametrize("name", ["short_warm_up", "p0_fixed"])
def test_kernel_decides_alike_with_ids_spread_over_a_huge_answer_space(name):
    # Small-id rows against the same rows with each id moved, in order, far
    # apart into [1, 2**62): only the labels may differ, by that map.
    config = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name) + 6200)
    width = config.m_max + 20  # the fixed arm's columns, past the budget
    votes, lengths, _ = random_block(rng, 300, width, [2, 3, 7])
    # Rows alternating between the farthest ids tie at every even prefix.
    votes[:20] = np.where(np.arange(width) % 2 == (np.arange(20) % 2)[:, None], 6, 0)
    lengths[:20] = width
    ids = spread_ids(rng, 7)
    live = np.arange(width) < lengths[:, None]
    padding = rng.choice([-1, HUGE_M, 2**63 - 1], size=votes.shape)  # never read
    near, far = (np.where(live, block, padding) for block in (votes, ids[votes]))
    m = np.full(len(votes), HUGE_M)
    small, big = (stop_batch(block, lengths, m, ThresholdTable(config)) for block in (near, far))
    for field in ("tau", "truncated", "p0_used", "gap_upper", "gap", "streak"):
        assert np.array_equal(getattr(small, field), getattr(big, field)), field
    assert small.kind == big.kind
    assert np.array_equal(ids[small.label], big.label)
    assert np.array_equal(ids[small.leader], big.leader)
    assert (big.leader[:20, 1::2] == ids[0]).all() and (big.label[:20] == ids[0]).all()
    # Every outcome path is exercised, and rows both run dry and outrun m_max.
    assert set(big.kind) == {StopKind.STOP_LEADER, StopKind.BUDGET_EXHAUSTED}
    assert big.truncated.any() and (lengths > config.m_max).any()


def test_compare_over_a_huge_answer_space():
    config = resolve_config({"mode": "compare", "count": "50", "m": str(HUGE_M), "seed": "5"})
    rows = run_compare(config).rows
    labels = [label for row in rows for label in (row.pseudo_label, row.fixed_label)]
    assert len(labels) == 100 and all(0 <= label < HUGE_M for label in labels)


def test_trace_compare_matches_scalar_reference(tmp_path):
    # Ragged traces: shorter than the warm-up, between warm-up and budget,
    # and longer than both arms; answer spaces of different sizes in one
    # call, and a fixed budget above the adaptive one.
    rng = np.random.default_rng(5150)
    lines = []
    labels = ["instance_id,answer"]
    for index in range(90):
        instance_id = f"q{index:03d}"
        vocab = [f"a{j}" for j in range(int(rng.integers(1, 9)))]
        length = int(rng.choice([3, 10, 25, 40, 70]))
        accuracy = rng.uniform(0.3, 0.95)
        for position in range(length):
            answer = vocab[0] if rng.random() < accuracy else str(rng.choice(vocab))
            record = TraceRecord(instance_id, position, answer, int(rng.integers(1, 50)))
            lines.append(canonical_trace_line(record))
        labels.append(f"{instance_id},{vocab[0]}")
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    gold = tmp_path / "gold.csv"
    gold.write_text("\n".join(labels) + "\n")
    config = resolve_config(
        {
            "mode": "compare",
            "corpus": "trace",
            "trace": str(trace),
            "labels": str(gold),
            "n_min": "12",
            "m_max": "32",
            "streak_k": "3",
            "fixed_budget": "48",
        }
    )
    report = run_compare(config)
    assert any(row.truncated and row.tau < 12 for row in report.rows)
    assert any(row.truncated and row.tau >= 12 for row in report.rows)
    for fmt in ("json", "csv"):
        assert render_report(report, fmt) == render_report(reference_compare(config), fmt)


@pytest.mark.parametrize("mode", ["ttpo_rl", "ttpo_sft"])
def test_multi_block_closed_loop_matches_scalar_reference(mode, monkeypatch):
    # Three chunks of at most 128 instances and two rounds, so every
    # policy update feeds the next round's call on its chunk.
    monkeypatch.setattr(experiment, "_LANES", 256)
    config = resolve_config(
        {"mode": mode, "count": "300", "m": "8", "rounds": "2", "p0": "uniform:0.2,0.8"}
    )
    assert render_report(run_ttpo(config), "csv") == render_report(
        reference_ttpo(config), "csv"
    )


@pytest.mark.parametrize(
    "update",
    [
        {"advantage_mode": "group_normalized", "beta_kl": "0"},
        {"advantage_mode": "group_normalized", "beta_kl": "0.5", "learning_rate": "0.4"},
        {"advantage_mode": "mean_baseline", "beta_kl": "2", "learning_rate": "0.4"},
    ],
    ids=["group-no-kl", "group-kl", "mean-heavy-kl"],
)
def test_multi_block_pg_variants_match_scalar_reference(update, monkeypatch):
    # Four chunks of at most 85 policies and three rounds; the reference
    # updates each policy on its own with the per-sample oracle.
    monkeypatch.setattr(experiment, "_LANES", 256)
    config = resolve_config(
        {"mode": "ttpo_rl", "count": "300", "m": "8", "rounds": "3", "p0": "uniform:0.2,0.8"}
        | update
    )
    assert render_report(run_ttpo(config), "csv") == render_report(
        reference_ttpo(config), "csv"
    )


@pytest.mark.parametrize("lanes", [1, 7, 64])
def test_lane_chunks_match_scalar_reference(lanes, monkeypatch):
    # Chunks of one instance, of a few instances, and with four rounds a
    # chunk narrower than its lane count.
    monkeypatch.setattr(experiment, "_LANES", lanes)
    compare = resolve_config(
        {"mode": "compare", "count": "90", "m": "3", "p0": "uniform:0.2,0.9", "seed": "4"}
    )
    assert render_report(run_compare(compare), "csv") == render_report(
        reference_compare(compare), "csv"
    )
    closed_loop = resolve_config(
        {"mode": "ttpo_rl", "count": "90", "m": "5", "rounds": "4", "p0": "uniform:0.2,0.8"}
    )
    assert render_report(run_ttpo(closed_loop), "csv") == render_report(
        reference_ttpo(closed_loop), "csv"
    )
