"""Experiment drivers: adaptive-vs-fixed comparison, closed-loop updates, sweeps.

Three entry points, one per mode family. ``run_compare`` races the adaptive
allocator against fixed-budget majority voting on a shared corpus, both
arms reading one vote stream per instance, so the arms differ only in the
rule that reads it, and one counting pass labels both. ``run_ttpo`` closes
the loop on synthetic policies: allocate, pseudo-label, update, repeat.
``run_ablation`` re-runs the comparison across one stopping-rule axis with
everything else held fixed, including the random streams, so differences
isolate the axis.

All drivers are deterministic in (config, seed). They take each instance's
votes as arrays and decide a chunk of up to ``seeding._LANES`` instances
(``_LANES // rounds`` in ``run_ttpo``) per ``stop_batch`` call, the rule
``allocate`` applies to one live source; rows come out in corpus order.
A chunk is carried as columns from end to end: the synthetic corpus
(``synth._corpus``), the chunk's stream seeds as hash words
(``seeding._stream_seeds``), its votes, read from many instances' random
streams at once as the vote sources would draw them
(``synth._categorical_votes``, ``synth._policy_votes``), and its report
rows, built by one ``map(InstanceRow, ...)`` over the outcome columns.
``run_ttpo`` holds every policy as one row of a logits matrix and updates a
chunk's rows with one batched step, which reproduces the one-policy updates
row for row.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from itertools import repeat

import numpy as np

from .config import ExperimentConfig, config_echo
from .consensus import _log_softmax, _softmax
from .errors import ConfigurationError
from .optimizer import advantages, consensus_rewards, pg_step, sft_step
from .report import ExperimentReport, InstanceRow, build_report
from .seeding import _LANES, _stream_seeds, _uniforms
from .stopper import StopKind, ThresholdTable, stop_batch
from .synth import (
    TraceVoteSource,
    _categorical_votes,
    _corpus,
    _policy_votes,
    load_labels,
    load_trace,
)
from .version import __version__

Draws = tuple[np.ndarray, np.ndarray, np.ndarray]

# The report's decision kind names, indexed by ``BatchStops.stopped``.
_DECISIONS = np.array([StopKind.BUDGET_EXHAUSTED.value, StopKind.STOP_LEADER.value], dtype=object)


def _slices(start: int, stop: int, size: int) -> list[slice]:
    """Consecutive slices of at most ``size`` covering ``[start, stop)``."""
    return [slice(first, min(first + size, stop)) for first in range(start, stop, size)]


def _take_all(sources: list, n: int) -> Draws:
    """Up to n draws from each source, zero-padded: (votes, costs, lengths)."""
    votes = np.zeros((len(sources), n), dtype=np.int64)
    costs = np.zeros_like(votes)
    lengths = np.empty(len(sources), dtype=np.int64)
    for row, source in enumerate(sources):
        answers, spent = source.take(n)
        votes[row, : answers.size] = answers
        costs[row, : answers.size] = spent
        lengths[row] = answers.size
    return votes, costs, lengths


def _spent(costs: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Per-row cost of the first tau votes."""
    return np.where(np.arange(costs.shape[1]) < tau[:, None], costs, 0).sum(axis=1)


def _synthetic_draws(votes: np.ndarray, cost: int) -> Draws:
    """A synthetic source's draws: it never runs dry and every vote costs ``cost``."""
    return (
        votes,
        np.broadcast_to(np.int64(cost), votes.shape),
        np.full(votes.shape[0], votes.shape[1], dtype=np.int64),
    )


def _savings(cost: list[int], fixed_cost: Iterable[int]) -> list[float]:
    # On Python ints: past 2**53 a float64 division of the costs can round
    # differently from the true quotient.
    return [1.0 - spent / fixed for spent, fixed in zip(cost, fixed_cost)]


# A column of reported labels and whether each is correct (None if unknown).
Judged = tuple[list, list]
Judge = Callable[[np.ndarray], Judged]


def _compare_rows(
    config: ExperimentConfig,
    table: ThresholdTable,
    ids: list[str],
    m: np.ndarray,
    draws: Draws,
    judge: Judge,
) -> list[InstanceRow]:
    """Both arms over one chunk of instances: the chunk's comparison rows.

    Both arms read the same votes, and one ``stop_batch`` call counts them
    for both. The adaptive arm's tau, pseudo-label, decision kind, truncated
    flag and cost come from it; the fixed arm's label is its ``leader``
    after the first ``fixed_budget`` votes (fewer where a replay runs dry),
    and each arm pays for the votes it read. ``judge`` maps a column of
    answer ids to the labels the report shows and whether each is correct.
    """
    votes, costs, lengths = draws
    stops = stop_batch(votes, lengths, m, table)
    fixed_tau = np.minimum(lengths, config.fixed_budget)
    cost = _spent(costs, stops.tau).tolist()
    fixed_cost = _spent(costs, fixed_tau).tolist()
    pseudo, pseudo_correct = judge(stops.label)
    fixed, fixed_correct = judge(stops.leader[np.arange(len(ids)), fixed_tau - 1])
    return list(
        map(
            InstanceRow,
            ids,
            stops.tau.tolist(),
            pseudo,
            pseudo_correct,
            cost,
            _savings(cost, fixed_cost),
            _DECISIONS.take(stops.stopped).tolist(),
            stops.truncated.tolist(),
            fixed_cost,
            fixed,
            fixed_correct,
        )
    )


def _synthetic_judge(true: np.ndarray) -> Judge:
    """Synthetic labels are reported as answer ids and checked against ``true``."""
    return lambda label: (label.tolist(), (label == true).tolist())


def _trace_judge(sources: list[TraceVoteSource], labels: dict[str, str]) -> Judge:
    """Replayed labels are reported as answer strings and checked against gold.

    Correctness is unknown for an instance with no gold label.
    """
    golds = [labels.get(source.instance_id) for source in sources]

    def judge(label: np.ndarray) -> Judged:
        names = [source.answer_string(i) for source, i in zip(sources, label.tolist())]
        correct = [None if gold is None else name == gold for name, gold in zip(names, golds)]
        return names, correct

    return judge


def run_compare(config: ExperimentConfig) -> ExperimentReport:
    """Race adaptive allocation against fixed-budget majority voting.

    Each instance has one vote stream, and both arms read it from its first
    vote: a synthetic instance's ``"adaptive"`` stream, or a trace replayed
    from its first rollout. The streams are read, and both arms raced, a
    lane chunk at a time.
    """
    if config.mode != "compare":
        raise ConfigurationError(
            f"run_compare needs mode 'compare', got {config.mode!r}"
        )
    table = ThresholdTable(config.stopper)
    width = max(config.m_max, config.fixed_budget)
    if config.corpus == "synthetic":
        ids, true, p0 = _corpus(config.count, config.m, config.p0, config.seed)

        def chunk_of(part: slice) -> tuple[np.ndarray, Draws, Judge]:
            seeds = _stream_seeds(config.seed, "adaptive", 0, ids[part])
            votes = _categorical_votes(true[part], p0[part], config.m, seeds, width)
            return (
                np.full(len(seeds), config.m),
                _synthetic_draws(votes, config.cost_per_vote),
                _synthetic_judge(true[part]),
            )

    else:
        sources = list(load_trace(config.trace).values())
        labels = load_labels(config.labels) if config.labels else {}
        ids = [source.instance_id for source in sources]

        def chunk_of(part: slice) -> tuple[np.ndarray, Draws, Judge]:
            batch: list[TraceVoteSource] = sources[part]
            return (
                np.array([source.m for source in batch]),
                _take_all(batch, width),
                _trace_judge(batch, labels),
            )

    rows = []
    for part in _slices(0, len(ids), _LANES):
        rows.extend(_compare_rows(config, table, ids[part], *chunk_of(part)))
    return build_report(rows, config_echo(config), config.seed, __version__)


def run_ttpo(config: ExperimentConfig) -> ExperimentReport:
    """Closed loop per instance: allocate, pseudo-label, update, repeat.

    Every policy is one row of an ``[instances, m]`` logits matrix, and the
    initial matrix is the reference. In each round one softmax gives a
    chunk's vote distributions, one ``stop_batch`` call decides the votes
    drawn from them, and one batched step updates the chunk's rows from
    their own outcomes. Rows are independent, so a chunk of instances runs
    all its rounds before the next chunk starts.
    """
    if config.mode not in ("ttpo_rl", "ttpo_sft"):
        raise ConfigurationError(
            f"run_ttpo needs mode 'ttpo_rl' or 'ttpo_sft', got {config.mode!r}"
        )
    ids, true, p0 = _corpus(config.count, config.m, config.p0, config.seed)
    table = ThresholdTable(config.stopper)
    m, m_max, update = config.m, config.m_max, config.update
    # Each initial policy puts exactly p0_true on the true answer: its logit
    # is ln(p0 (m-1) / (1-p0)) and the rest are 0. So the policy's vote
    # stream follows the symmetric noise model the stopper assumes, and
    # allocation and update effects compose coherently.
    count = len(ids)
    rows_index = np.arange(count)
    initial = np.zeros((count, m))
    initial[rows_index, true] = [math.log(p * (m - 1) / (1.0 - p)) for p in p0.tolist()]
    ref_log_probs = _log_softmax(initial)
    logits = initial.copy()
    total_tau = np.zeros(count, dtype=np.int64)
    labels = np.zeros(count, dtype=np.int64)
    stopped = np.zeros(count, dtype=bool)
    truncated = np.zeros(count, dtype=bool)
    rounds, cost = config.rounds, config.cost_per_vote
    # The policy streams do not depend on the policy, so each chunk of
    # instances reads every round's uniforms at once, one lane per
    # (round, instance); only the cdf comparison waits for the round's logits.
    for chunk in _slices(0, count, max(1, _LANES // rounds)):
        seeds = np.concatenate(
            [_stream_seeds(config.seed, "policy", r, ids[chunk]) for r in range(rounds)]
        )
        uniforms = _uniforms(seeds, m_max).reshape(rounds, -1, m_max)
        # A policy source never runs dry: each row holds m_max votes over m answers.
        lengths, sizes = (np.full(uniforms.shape[1], n) for n in (m_max, m))
        for round_index in range(rounds):
            probs = _softmax(logits[chunk])
            votes = _policy_votes(probs, uniforms[round_index])
            stops = stop_batch(votes, lengths, sizes, table)
            total_tau[chunk] += stops.tau
            if config.mode == "ttpo_rl":
                # Policy votes never run dry and m_max >= n_min, so every
                # row stopped at or after its n_min warm-up votes. They
                # predate the stopping decision, so they carry no selection
                # bias into the rewards.
                retained = votes[:, : config.n_min]
                rewards = consensus_rewards(retained, stops.label)
                adv = advantages(rewards, update.advantage_mode, update.std_epsilon)
                logits[chunk] = pg_step(
                    logits[chunk], probs, retained, adv, ref_log_probs[chunk], update
                )
            else:
                logits[chunk] = sft_step(logits[chunk], probs, stops.label, update)
        # A row reports its last round's label, kind and truncation.
        labels[chunk] = stops.label
        stopped[chunk] = stops.stopped
        truncated[chunk] = stops.truncated

    # Every draw costs cost_per_vote, so the adaptive arm costs tau votes'
    # worth and a fixed arm exactly budget * rounds. No overflow: the config
    # caps cost_per_vote * rounds * m_max at int64.
    pre, post = _softmax(initial), _softmax(logits)
    fixed_cost = rounds * config.fixed_budget * cost
    spent = (total_tau * cost).tolist()
    rows = list(
        map(
            InstanceRow,
            ids,
            total_tau.tolist(),
            labels.tolist(),
            (labels == true).tolist(),
            spent,
            _savings(spent, repeat(fixed_cost)),
            _DECISIONS.take(stopped).tolist(),
            truncated.tolist(),
            repeat(fixed_cost),
            repeat(None),
            repeat(None),
            (initial.argmax(axis=1) == true).tolist(),
            (logits.argmax(axis=1) == true).tolist(),
            pre[rows_index, true].tolist(),
            post[rows_index, true].tolist(),
            pre[rows_index, labels].tolist(),
            post[rows_index, labels].tolist(),
        )
    )
    return build_report(rows, config_echo(config), config.seed, __version__)


def run_ablation(config: ExperimentConfig) -> list[ExperimentReport]:
    """One comparison report per axis value, sharing corpus and streams.

    Each report runs ``config.point(value)``: the config as a comparison,
    with only the swept axis changed.
    """
    if config.mode != "ablate":
        raise ConfigurationError(f"run_ablation needs mode 'ablate', got {config.mode!r}")
    return [run_compare(config.point(value)) for value in config.values]
