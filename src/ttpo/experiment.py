"""Experiment drivers: adaptive-vs-fixed comparison, closed-loop updates, sweeps.

Three entry points, one per mode family. ``run_compare`` races the adaptive
allocator against fixed-budget majority voting on a shared corpus with
arm-isolated random streams. ``run_ttpo`` closes the loop on synthetic
policies: allocate, pseudo-label, update, repeat. ``run_ablation`` re-runs
the comparison across one stopping-rule axis with everything else held
fixed, including the random streams, so differences isolate the axis.

All drivers are deterministic in (config, seed). They take each instance's
votes as arrays and decide a block of instances per ``stop_batch`` call,
which reproduces ``allocate`` row for row; rows come out in corpus order.
``run_ttpo`` holds every policy as one row of a logits matrix and updates a
block's rows with one batched step, which reproduces the one-policy updates
row for row.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .config import (
    ABLATION_AXES,
    ExperimentConfig,
    SyntheticCorpusSpec,
    config_echo,
)
from .consensus import _log_softmax, _softmax, plurality
from .errors import AllocationError, ConfigurationError, CorpusError
from .optimizer import SoftmaxAnswerPolicy, advantages, consensus_rewards, pg_step, sft_step
from .report import ExperimentReport, InstanceRow, build_report
from .seeding import stream_seed
from .stopper import ErrorBudget, ThresholdTable, stop_batch
from .synth import (
    CategoricalVoteSource,
    PolicyVoteSource,
    SyntheticInstance,
    TraceVoteSource,
    gen_instances,
    load_labels,
    load_trace,
)
from .version import __version__

# Cells in one block's [instances, votes, answers] count tensor; bounds the
# kernel's working memory whatever the corpus size.
_BLOCK_CELLS = 1 << 16

Draws = tuple[np.ndarray, np.ndarray, np.ndarray]


def _attributed(instance_id: str, exc: Exception) -> Exception:
    if isinstance(exc, (CorpusError, AllocationError)):
        return type(exc)(f"instance {instance_id!r}: {exc}")
    return exc


def _blocks(count: int, m: int, width: int) -> list[slice]:
    """Consecutive instance slices whose count tensors fit _BLOCK_CELLS."""
    size = max(1, _BLOCK_CELLS // (width * m))
    return [slice(start, start + size) for start in range(0, count, size)]


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
    """Both arms over one block of instances.

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


def _categorical_draws(
    config: ExperimentConfig, block: list[SyntheticInstance], purpose: str, n: int
) -> Draws:
    return _take_all(
        [
            CategoricalVoteSource(inst, stream_seed(config.seed, purpose, 0, inst.instance_id))
            for inst in block
        ],
        n,
    )


def _compare_synthetic(config: ExperimentConfig) -> list[InstanceRow]:
    spec = config.corpus
    instances = gen_instances(spec.count, spec.m, spec.p0, config.seed, spec.cost_per_vote)
    table = ThresholdTable(config.stopper)
    rows = []
    width = max(config.stopper.m_max, config.fixed_budget)
    for part in _blocks(len(instances), spec.m, width):
        block = instances[part]
        outcomes = _race(
            config,
            table,
            np.full(len(block), spec.m),
            _categorical_draws(config, block, "adaptive", config.stopper.m_max),
            _categorical_draws(config, block, "fixed", config.fixed_budget),
        )
        for inst, (tau, label, kind, truncated, cost, f_label, f_cost) in zip(block, outcomes):
            rows.append(
                InstanceRow(
                    instance_id=inst.instance_id,
                    tau=tau,
                    pseudo_label=label,
                    pseudo_correct=label == inst.true_answer,
                    cost=cost,
                    savings_fraction=1.0 - cost / f_cost,
                    decision_kind=kind,
                    truncated=truncated,
                    fixed_cost=f_cost,
                    fixed_label=f_label,
                    fixed_correct=f_label == inst.true_answer,
                )
            )
    return rows


def _compare_trace(config: ExperimentConfig) -> list[InstanceRow]:
    sources = list(load_trace(config.corpus.trace_path).values())
    labels = load_labels(config.corpus.labels_path) if config.corpus.labels_path else {}
    if not sources:
        return []
    table = ThresholdTable(config.stopper)
    rows = []
    width = max(config.stopper.m_max, config.fixed_budget)
    for part in _blocks(len(sources), max(source.m for source in sources), width):
        block: list[TraceVoteSource] = sources[part]
        # Both arms replay the same trace, so one prefix serves both.
        draws = _take_all(block, width)
        outcomes = _race(config, table, np.array([s.m for s in block]), draws, draws)
        for source, (tau, label, kind, truncated, cost, f_label, f_cost) in zip(
            block, outcomes
        ):
            gold = labels.get(source.instance_id)
            pseudo = source.answer_string(label)
            fixed_answer = source.answer_string(f_label)
            rows.append(
                InstanceRow(
                    instance_id=source.instance_id,
                    tau=tau,
                    pseudo_label=label if pseudo is None else pseudo,
                    pseudo_correct=None if gold is None or pseudo is None else pseudo == gold,
                    cost=cost,
                    savings_fraction=1.0 - cost / f_cost,
                    decision_kind=kind,
                    truncated=truncated,
                    fixed_cost=f_cost,
                    fixed_label=f_label if fixed_answer is None else fixed_answer,
                    fixed_correct=(
                        None if gold is None or fixed_answer is None else fixed_answer == gold
                    ),
                )
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


def initial_policy(instance: SyntheticInstance) -> SoftmaxAnswerPolicy:
    """Logits whose softmax puts exactly p0_true on the true answer.

    With the true-answer logit at ln(p0 (m-1) / (1-p0)) and the rest at 0,
    the policy's vote stream follows the same symmetric noise model the
    stopper assumes, so allocation and update effects compose coherently.
    """
    logits = np.zeros(instance.m)
    logits[instance.true_answer] = math.log(
        instance.p0_true * (instance.m - 1) / (1.0 - instance.p0_true)
    )
    return SoftmaxAnswerPolicy(logits=logits)


def run_ttpo(config: ExperimentConfig) -> ExperimentReport:
    """Closed loop per instance: allocate, pseudo-label, update, repeat.

    Every policy is one row of an ``[instances, m]`` logits matrix, and the
    initial matrix is the reference. Each round goes block by block: one
    softmax gives the block's vote sources, ``stop_batch`` decides them, and
    one batched step updates the block's rows from their own outcomes.
    """
    if config.mode not in ("ttpo_rl", "ttpo_sft"):
        raise ConfigurationError(
            f"run_ttpo needs mode 'ttpo_rl' or 'ttpo_sft', got {config.mode!r}"
        )
    if not isinstance(config.corpus, SyntheticCorpusSpec):
        raise ConfigurationError("closed-loop modes need a synthetic corpus")
    spec = config.corpus
    instances = gen_instances(
        spec.count, spec.m, spec.p0, config.seed, spec.cost_per_vote
    )
    table = ThresholdTable(config.stopper)
    m_max = config.stopper.m_max
    update = config.update
    initial = np.stack([initial_policy(instance).logits for instance in instances])
    ref_log_probs = _log_softmax(initial)
    logits = initial.copy()
    count = len(instances)
    total_tau = np.zeros(count, dtype=np.int64)
    # No overflow: the config caps cost_per_vote * rounds * m_max at int64.
    total_cost = np.zeros(count, dtype=np.int64)
    labels = np.zeros(count, dtype=np.int64)
    truncated = np.zeros(count, dtype=bool)
    kinds = [""] * count
    for round_index in range(config.rounds):
        for part in _blocks(count, spec.m, m_max):
            probs = _softmax(logits[part])
            sources = [
                PolicyVoteSource(
                    row,
                    stream_seed(config.seed, "policy", round_index, instance.instance_id),
                    cost=instance.cost_per_vote,
                )
                for row, instance in zip(probs, instances[part])
            ]
            votes, costs, lengths = _take_all(sources, m_max)
            stops = stop_batch(votes, lengths, np.full(len(sources), spec.m), table)
            total_tau[part] += stops.tau
            total_cost[part] += _spent(costs, stops.tau)
            labels[part] = stops.label
            truncated[part] = stops.truncated
            kinds[part] = [kind.value for kind in stops.kind]
            if config.mode == "ttpo_rl":
                # Policy sources never run dry and m_max >= n_min, so every
                # row stopped at or after its n_min warm-up votes. They
                # predate the stopping decision, so they carry no selection
                # bias into the rewards.
                retained = votes[:, : config.stopper.n_min]
                rewards = consensus_rewards(retained, stops.label)
                adv = advantages(rewards, update.advantage_mode, update.std_epsilon)
                logits[part] = pg_step(
                    logits[part], probs, retained, adv, ref_log_probs[part], update
                )
            else:
                logits[part] = sft_step(logits[part], probs, stops.label, update)

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


def _ablated_stopper(config: ExperimentConfig, axis: str, value: float):
    if axis == "alpha_beta":
        return replace(config.stopper, budget=ErrorBudget(alpha=value, beta=value))
    if int(value) != value:
        raise ConfigurationError(f"n_min values must be integers, got {value}")
    return replace(config.stopper, n_min=int(value))


def run_ablation(
    config: ExperimentConfig,
    axis: str | None = None,
    values: tuple[float, ...] | None = None,
) -> list[ExperimentReport]:
    """One comparison report per axis value, sharing corpus and streams."""
    if config.mode != "ablate":
        raise ConfigurationError(f"run_ablation needs mode 'ablate', got {config.mode!r}")
    axis = config.axis if axis is None else axis
    values = config.values if values is None else tuple(values)
    if axis not in ABLATION_AXES:
        raise ConfigurationError(
            f"ablation axis must be one of {ABLATION_AXES}, got {axis!r}"
        )
    if not values:
        raise ConfigurationError("ablation needs a non-empty values list")
    reports = []
    for value in values:
        sub = replace(
            config,
            mode="compare",
            stopper=_ablated_stopper(config, axis, value),
            axis=None,
            values=(),
        )
        reports.append(run_compare(sub))
    return reports
