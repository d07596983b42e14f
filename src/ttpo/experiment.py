"""Experiment drivers: adaptive-vs-fixed comparison, closed-loop updates, sweeps.

Three entry points, one per mode family. ``run_compare`` races the adaptive
allocator against fixed-budget majority voting on a shared corpus with
arm-isolated random streams. ``run_ttpo`` closes the loop on synthetic
policies: allocate, pseudo-label, update, repeat. ``run_ablation`` re-runs
the comparison across one stopping-rule axis with everything else held
fixed, including the random streams, so differences isolate the axis.

All drivers are deterministic in (config, seed). They take each instance's
votes as arrays and decide a chunk of up to ``seeding._LANES`` instances
(``_LANES // rounds`` in ``run_ttpo``) per ``stop_batch`` call, the rule
``allocate`` applies to one live source; rows come out in corpus order.
Synthetic votes are read from many instances' random streams at once
(``synth._categorical_votes``, ``synth._policy_votes``), as the vote
sources would draw them.
``run_ttpo`` holds every policy as one row of a logits matrix and updates a
chunk's rows with one batched step, which reproduces the one-policy updates
row for row.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import replace

import numpy as np

from .config import (
    ExperimentConfig,
    SyntheticCorpusSpec,
    _ablated_stopper,
    config_echo,
)
from .consensus import _log_softmax, _softmax, plurality
from .errors import ConfigurationError
from .optimizer import advantages, consensus_rewards, pg_step, sft_step
from .report import ExperimentReport, InstanceRow, build_report
from .seeding import _LANES, stream_seed
from .stopper import ThresholdTable, stop_batch
from .synth import (
    SyntheticInstance,
    TraceVoteSource,
    _categorical_votes,
    _policy_uniforms,
    _policy_votes,
    gen_instances,
    load_labels,
    load_trace,
)
from .version import __version__

Draws = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _race(
    config: ExperimentConfig,
    table: ThresholdTable,
    m: np.ndarray,
    adaptive: Draws,
    fixed: Draws,
) -> list[tuple[int, int, str, bool, int, int, int]]:
    """Both arms over one chunk of instances.

    Per row: tau, pseudo-label id, decision kind, truncated, adaptive cost,
    and the fixed arm's plurality label id and cost over its first
    fixed_budget draws.
    """
    votes, costs, lengths = adaptive
    stops = stop_batch(votes, lengths, m, table)
    budget = config.fixed_budget
    fixed_votes, fixed_costs, fixed_lengths = fixed
    fixed_label = plurality(
        fixed_votes[:, :budget], np.minimum(fixed_lengths, budget), int(m.max())
    )
    return list(
        zip(
            stops.tau.tolist(),
            stops.label.tolist(),
            [kind.value for kind in stops.kind],
            stops.truncated.tolist(),
            _spent(costs, stops.tau).tolist(),
            fixed_label.tolist(),
            fixed_costs[:, :budget].sum(axis=1).tolist(),
        )
    )


def _synthetic_draws(votes: np.ndarray, cost: int) -> Draws:
    """A synthetic source's draws: it never runs dry and every vote costs ``cost``."""
    return (
        votes,
        np.broadcast_to(np.int64(cost), votes.shape),
        np.full(votes.shape[0], votes.shape[1], dtype=np.int64),
    )


def _categorical_draws(
    config: ExperimentConfig, chunk: list[SyntheticInstance], purpose: str, n: int
) -> Draws:
    seeds = [stream_seed(config.seed, purpose, 0, inst.instance_id) for inst in chunk]
    return _synthetic_draws(_categorical_votes(chunk, seeds, n), config.corpus.cost_per_vote)


def _compare_row(
    instance_id: str, outcome: tuple, name: Callable[[int], int | str | None], gold
) -> InstanceRow:
    """One comparison row from a ``_race`` outcome.

    ``name`` maps an answer id to its reported label, or to None to report
    the id itself; ``gold`` is the true label, or None when there is none.
    """
    tau, label, kind, truncated, cost, f_label, f_cost = outcome
    pseudo, fixed = name(label), name(f_label)
    return InstanceRow(
        instance_id=instance_id,
        tau=tau,
        pseudo_label=label if pseudo is None else pseudo,
        pseudo_correct=None if gold is None or pseudo is None else pseudo == gold,
        cost=cost,
        savings_fraction=1.0 - cost / f_cost,
        decision_kind=kind,
        truncated=truncated,
        fixed_cost=f_cost,
        fixed_label=f_label if fixed is None else fixed,
        fixed_correct=None if gold is None or fixed is None else fixed == gold,
    )


def _compare_synthetic(config: ExperimentConfig) -> list[InstanceRow]:
    spec = config.corpus
    instances = gen_instances(spec.count, spec.m, spec.p0, config.seed, spec.cost_per_vote)
    table = ThresholdTable(config.stopper)
    rows = []
    # Each arm's streams are read, and both arms raced, a lane chunk at a time.
    for chunk in _slices(0, len(instances), _LANES):
        batch = instances[chunk]
        outcomes = _race(
            config,
            table,
            np.full(len(batch), spec.m),
            _categorical_draws(config, batch, "adaptive", config.stopper.m_max),
            _categorical_draws(config, batch, "fixed", config.fixed_budget),
        )
        rows.extend(
            _compare_row(inst.instance_id, outcome, int, inst.true_answer)
            for inst, outcome in zip(batch, outcomes)
        )
    return rows


def _compare_trace(config: ExperimentConfig) -> list[InstanceRow]:
    sources = list(load_trace(config.corpus.trace_path).values())
    labels = load_labels(config.corpus.labels_path) if config.corpus.labels_path else {}
    table = ThresholdTable(config.stopper)
    rows = []
    width = max(config.stopper.m_max, config.fixed_budget)
    for chunk in _slices(0, len(sources), _LANES):
        batch: list[TraceVoteSource] = sources[chunk]
        # Both arms replay the same trace, so one prefix serves both.
        draws = _take_all(batch, width)
        outcomes = _race(config, table, np.array([s.m for s in batch]), draws, draws)
        rows.extend(
            _compare_row(
                source.instance_id, outcome, source.answer_string, labels.get(source.instance_id)
            )
            for source, outcome in zip(batch, outcomes)
        )
    return rows


def run_compare(config: ExperimentConfig) -> ExperimentReport:
    """Race adaptive allocation against fixed-budget majority voting."""
    if config.mode != "compare":
        raise ConfigurationError(
            f"run_compare needs mode 'compare', got {config.mode!r}"
        )
    if isinstance(config.corpus, SyntheticCorpusSpec):
        rows = _compare_synthetic(config)
    else:
        rows = _compare_trace(config)
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
    spec = config.corpus
    instances = gen_instances(
        spec.count, spec.m, spec.p0, config.seed, spec.cost_per_vote
    )
    table = ThresholdTable(config.stopper)
    m_max = config.stopper.m_max
    update = config.update
    # Each initial policy puts exactly p0_true on the true answer: its logit
    # is ln(p0 (m-1) / (1-p0)) and the rest are 0. So the policy's vote
    # stream follows the symmetric noise model the stopper assumes, and
    # allocation and update effects compose coherently.
    count = len(instances)
    initial = np.zeros((count, spec.m))
    initial[np.arange(count), [inst.true_answer for inst in instances]] = [
        math.log(inst.p0_true * (inst.m - 1) / (1.0 - inst.p0_true)) for inst in instances
    ]
    ref_log_probs = _log_softmax(initial)
    logits = initial.copy()
    total_tau = np.zeros(count, dtype=np.int64)
    # No overflow: the config caps cost_per_vote * rounds * m_max at int64.
    total_cost = np.zeros(count, dtype=np.int64)
    labels = np.zeros(count, dtype=np.int64)
    truncated = np.zeros(count, dtype=bool)
    kinds = [""] * count
    rounds, cost = config.rounds, spec.cost_per_vote
    # The policy streams do not depend on the policy, so each chunk of
    # instances reads every round's uniforms at once, one lane per
    # (round, instance); only the cdf comparison waits for the round's logits.
    for chunk in _slices(0, count, max(1, _LANES // rounds)):
        seeds = [
            [stream_seed(config.seed, "policy", r, inst.instance_id) for inst in instances[chunk]]
            for r in range(rounds)
        ]
        uniforms = _policy_uniforms([seed for row in seeds for seed in row], m_max)
        if uniforms is not None:
            uniforms = uniforms.reshape(rounds, -1, m_max)
        for round_index in range(rounds):
            probs = _softmax(logits[chunk])
            votes = _policy_votes(
                probs,
                seeds[round_index],
                None if uniforms is None else uniforms[round_index],
                m_max,
                cost,
            )
            votes, costs, lengths = _synthetic_draws(votes, cost)
            stops = stop_batch(votes, lengths, np.full(len(votes), spec.m), table)
            total_tau[chunk] += stops.tau
            total_cost[chunk] += _spent(costs, stops.tau)
            labels[chunk] = stops.label
            truncated[chunk] = stops.truncated
            kinds[chunk] = [kind.value for kind in stops.kind]
            if config.mode == "ttpo_rl":
                # Policy sources never run dry and m_max >= n_min, so every
                # row stopped at or after its n_min warm-up votes. They
                # predate the stopping decision, so they carry no selection
                # bias into the rewards.
                retained = votes[:, : config.stopper.n_min]
                rewards = consensus_rewards(retained, stops.label)
                adv = advantages(rewards, update.advantage_mode, update.std_epsilon)
                logits[chunk] = pg_step(
                    logits[chunk], probs, retained, adv, ref_log_probs[chunk], update
                )
            else:
                logits[chunk] = sft_step(logits[chunk], probs, stops.label, update)

    # The fixed-budget baseline is deterministic here: every draw costs
    # cost_per_vote, so a fixed arm would cost exactly budget * rounds.
    pre, post = _softmax(initial), _softmax(logits)
    rows = []
    for instance, pre_p, post_p, pre_top, post_top, tau, cost, label, kind, cut in zip(
        instances,
        pre.tolist(),
        post.tolist(),
        initial.argmax(axis=1).tolist(),
        logits.argmax(axis=1).tolist(),
        total_tau.tolist(),
        total_cost.tolist(),
        labels.tolist(),
        kinds,
        truncated.tolist(),
    ):
        fixed_cost = config.rounds * config.fixed_budget * instance.cost_per_vote
        true = instance.true_answer
        rows.append(
            InstanceRow(
                instance_id=instance.instance_id,
                tau=tau,
                pseudo_label=label,
                pseudo_correct=label == true,
                cost=cost,
                savings_fraction=1.0 - cost / fixed_cost,
                decision_kind=kind,
                truncated=cut,
                fixed_cost=fixed_cost,
                pre_update_greedy_correct=pre_top == true,
                post_update_greedy_correct=post_top == true,
                pre_true_prob=pre_p[true],
                post_true_prob=post_p[true],
                pre_pseudo_prob=pre_p[label],
                post_pseudo_prob=post_p[label],
            )
        )
    return build_report(rows, config_echo(config), config.seed, __version__)


def run_ablation(config: ExperimentConfig) -> list[ExperimentReport]:
    """One comparison report per axis value, sharing corpus and streams."""
    if config.mode != "ablate":
        raise ConfigurationError(f"run_ablation needs mode 'ablate', got {config.mode!r}")
    return [
        run_compare(
            replace(
                config,
                mode="compare",
                stopper=_ablated_stopper(config, value),
                axis=None,
                values=(),
            )
        )
        for value in config.values
    ]
