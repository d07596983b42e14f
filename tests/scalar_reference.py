"""Per-vote reference drivers: reports built row by row from the oracles.

The experiment drivers decide chunks of instances with ``stop_batch``; these
build the same reports the slow way, one call of the per-vote oracle
``stopper_reference.allocate`` per instance and round, with the fixed arm
drawn one vote at a time from a second source replaying the same stream
from its first vote. The synthetic corpus (``reference_corpus``) and vote
streams (``CategoricalVoteOracle``, ``PolicyVoteSource``) are written here
from their definitions, one ``Generator`` call per draw, without ``synth``.
The closed loop starts each policy from ``initial_policy`` and updates it on
its own with the per-sample rules in ``optimizer_reference``. Tests require
the two to render to identical bytes.
"""

import math
from dataclasses import replace

import numpy as np

from ttpo.config import SyntheticCorpusSpec, config_echo
from ttpo.consensus import VoteTally
from ttpo.errors import AllocationError
from ttpo.report import InstanceRow, build_report
from ttpo.seeding import stream_seed
from ttpo.stopper import ErrorBudget
from ttpo.synth import SyntheticInstance, load_labels, load_trace
from ttpo.version import __version__

import optimizer_reference as oracle
from stopper_reference import allocate, draw, top_two


def categorical_vote(u, true, p0, m):
    """The synthetic vote a uniform ``u`` gives, in Python floats and ints.

    A hit below ``p0``; a miss spreads ``(u - p0) / (1 - p0)`` over the
    ``m - 1`` wrong answers and skips the true answer's id.
    """
    if u < p0:
        return true
    k = min(math.floor((u - p0) / (1 - p0) * (m - 1)), m - 2)
    return k + (k >= true)


class CategoricalVoteOracle:
    """The per-vote oracle for ``ttpo.synth.CategoricalVoteSource``.

    Vote ``j`` is ``categorical_vote`` of the ``j``-th ``random()`` call on
    ``default_rng(stream_seed)``, one call per vote.
    """

    def __init__(self, instance, stream_seed):
        self._instance = instance
        self._rng = np.random.default_rng(stream_seed)

    @property
    def m(self):
        return self._instance.m

    def take(self, n):
        inst = self._instance
        answers = [
            categorical_vote(self._rng.random(), inst.true_answer, inst.p0_true, inst.m)
            for _ in range(n)
        ]
        return np.array(answers, dtype=np.int64), np.full(n, inst.cost_per_vote, dtype=np.int64)


def p0_of(spec, u):
    """The vote accuracy a ``P0Spec`` gives at the uniform ``u``."""
    if spec.kind == "constant":
        return spec.params[0]
    if spec.kind == "uniform":
        lo, hi = spec.params
        return lo + (hi - lo) * u
    share, p_easy, p_hard = spec.params
    return p_easy if u < share else p_hard


def reference_corpus(count, m, p0_spec, seed, cost_per_vote=1):
    """The synthetic corpus from its definition, one ``Generator`` per instance.

    Instance ``i`` reads ``u1, u2 = default_rng(seed_i).random(2)``: its true
    answer is ``floor(u1 * m)`` and its accuracy ``p0_of(u2)``.
    """
    instances = []
    for i in range(count):
        instance_id = f"inst-{i:05d}"
        u1, u2 = np.random.default_rng(stream_seed(seed, "corpus", 0, instance_id)).random(2)
        instances.append(
            SyntheticInstance(
                instance_id,
                math.floor(float(u1) * m),
                m,
                p0_of(p0_spec, float(u2)),
                cost_per_vote,
            )
        )
    return instances


class PolicyVoteSource:
    """Draws answers from a snapshot of a policy's answer distribution.

    The per-vote oracle for ``ttpo.synth._policy_votes``. ``probabilities``
    is the policy's vector over its ``m`` answers, e.g. a row of the closed
    loop's softmax, copied at construction: after a policy update the caller
    builds a fresh source. Each take is one ``Generator.choice`` call, which
    reads exactly one double per vote, so takes of any sizes read the same
    stream.
    """

    def __init__(self, probabilities, stream_seed, cost=1):
        if cost < 1:
            raise ValueError(f"cost must be >= 1, got {cost}")
        probs = np.array(probabilities, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("probabilities must be a vector over at least two answers")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        self._probs = probs
        self._cost = cost
        self._rng = np.random.default_rng(stream_seed)

    @property
    def m(self):
        return self._probs.size

    def take(self, n):
        """Answers and costs of the next ``n`` votes."""
        if n < 0:
            raise ValueError(f"cannot take a negative number of votes, got {n}")
        answers = self._rng.choice(self.m, size=n, p=self._probs)
        return answers, np.full(n, self._cost, dtype=np.int64)


def initial_policy(instance):
    """Logits whose softmax puts exactly p0_true on the true answer.

    With the true-answer logit at ln(p0 (m-1) / (1-p0)) and the rest at 0,
    the policy's vote stream follows the same symmetric noise model the
    stopper assumes, so allocation and update effects compose coherently.
    """
    logits = np.zeros(instance.m)
    logits[instance.true_answer] = math.log(
        instance.p0_true * (instance.m - 1) / (1.0 - instance.p0_true)
    )
    return oracle.SoftmaxAnswerPolicy(logits=logits)


def fixed_arm(source, budget, m):
    """Majority vote over up to `budget` draws: (label, cost)."""
    counts = [0] * m
    cost = 0
    drawn = 0
    for _ in range(budget):
        vote = draw(source)
        if vote is None:
            break
        answer, vote_cost = vote
        counts[answer] += 1
        cost += vote_cost
        drawn += 1
    if drawn == 0:
        raise AllocationError("vote source exhausted before any vote")
    return top_two(VoteTally(counts=tuple(counts))).leader, cost


def _synthetic_compare_row(config, instance):
    adaptive = CategoricalVoteOracle(
        instance, stream_seed(config.seed, "adaptive", 0, instance.instance_id)
    )
    # The fixed arm reads the adaptive arm's stream again from its first vote.
    fixed = CategoricalVoteOracle(
        instance, stream_seed(config.seed, "adaptive", 0, instance.instance_id)
    )
    result = allocate(adaptive, config.stopper)
    fixed_label, fixed_cost = fixed_arm(fixed, config.fixed_budget, instance.m)
    return InstanceRow(
        instance_id=instance.instance_id,
        tau=result.tau,
        pseudo_label=result.pseudo_label,
        pseudo_correct=result.pseudo_label == instance.true_answer,
        cost=result.total_cost,
        savings_fraction=1.0 - result.total_cost / fixed_cost,
        decision_kind=result.decision_kind.value,
        truncated=result.truncated,
        fixed_cost=fixed_cost,
        fixed_label=fixed_label,
        fixed_correct=fixed_label == instance.true_answer,
    )


def _trace_compare_row(config, source, fixed, label):
    result = allocate(source, config.stopper)
    fixed_id, fixed_cost = fixed_arm(fixed, config.fixed_budget, source.m)
    pseudo = source.answer_string(result.pseudo_label)
    fixed_answer = source.answer_string(fixed_id)
    return InstanceRow(
        instance_id=source.instance_id,
        tau=result.tau,
        pseudo_label=result.pseudo_label if pseudo is None else pseudo,
        pseudo_correct=None if label is None or pseudo is None else pseudo == label,
        cost=result.total_cost,
        savings_fraction=1.0 - result.total_cost / fixed_cost,
        decision_kind=result.decision_kind.value,
        truncated=result.truncated,
        fixed_cost=fixed_cost,
        fixed_label=fixed_id if fixed_answer is None else fixed_answer,
        fixed_correct=(
            None if label is None or fixed_answer is None else fixed_answer == label
        ),
    )


def reference_compare(config):
    if isinstance(config.corpus, SyntheticCorpusSpec):
        spec = config.corpus
        instances = reference_corpus(
            spec.count, spec.m, spec.p0, config.seed, spec.cost_per_vote
        )
        rows = [_synthetic_compare_row(config, inst) for inst in instances]
    else:
        # One replay per arm, each read from the first rollout.
        sources = load_trace(config.corpus.trace_path)
        fixed = load_trace(config.corpus.trace_path)
        labels = (
            load_labels(config.corpus.labels_path) if config.corpus.labels_path else {}
        )
        rows = [
            _trace_compare_row(
                config, source, fixed[instance_id], labels.get(instance_id)
            )
            for instance_id, source in sources.items()
        ]
    return build_report(rows, config_echo(config), config.seed, __version__)


def _ttpo_row(config, instance):
    policy = initial_policy(instance)
    reference = policy
    total_tau = 0
    total_cost = 0
    for round_index in range(config.rounds):
        source = PolicyVoteSource(
            oracle.probabilities(policy),
            stream_seed(config.seed, "policy", round_index, instance.instance_id),
            cost=instance.cost_per_vote,
        )
        result = allocate(source, config.stopper)
        total_tau += result.tau
        total_cost += result.total_cost
        if config.mode == "ttpo_rl":
            samples = oracle.build_rewarded_samples(
                result.retained_answers(), result.pseudo_label, config.update
            )
            policy = oracle.pg_update(policy, samples, reference, config.update)
        else:
            policy = oracle.sft_update(policy, result.pseudo_label, config.update)
    fixed_cost = config.rounds * config.fixed_budget * instance.cost_per_vote
    initial = initial_policy(instance)
    start, end = oracle.probabilities(initial), oracle.probabilities(policy)
    return InstanceRow(
        instance_id=instance.instance_id,
        tau=total_tau,
        pseudo_label=result.pseudo_label,
        pseudo_correct=result.pseudo_label == instance.true_answer,
        cost=total_cost,
        savings_fraction=1.0 - total_cost / fixed_cost,
        decision_kind=result.decision_kind.value,
        truncated=result.truncated,
        fixed_cost=fixed_cost,
        pre_update_greedy_correct=int(np.argmax(initial.logits)) == instance.true_answer,
        post_update_greedy_correct=int(np.argmax(policy.logits)) == instance.true_answer,
        pre_true_prob=float(start[instance.true_answer]),
        post_true_prob=float(end[instance.true_answer]),
        pre_pseudo_prob=float(start[result.pseudo_label]),
        post_pseudo_prob=float(end[result.pseudo_label]),
    )


def reference_ttpo(config):
    spec = config.corpus
    instances = reference_corpus(
        spec.count, spec.m, spec.p0, config.seed, spec.cost_per_vote
    )
    rows = [_ttpo_row(config, inst) for inst in instances]
    return build_report(rows, config_echo(config), config.seed, __version__)


def reference_ablation(config):
    reports = []
    for value in config.values:
        if config.axis == "alpha_beta":
            stopper = replace(config.stopper, budget=ErrorBudget(alpha=value, beta=value))
        else:
            stopper = replace(config.stopper, n_min=int(value))
        sub = replace(config, mode="compare", stopper=stopper, axis=None, values=())
        reports.append(reference_compare(sub))
    return reports
