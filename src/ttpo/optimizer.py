"""Label-free test-time updates for softmax answer policies.

Two update rules act on a policy after the allocator has produced a
pseudo-label: a policy-gradient step on the consensus reward (with a mean
baseline or group-normalized advantages, optionally pulled toward a
reference policy by a KL penalty), and a cross-entropy step that treats the
pseudo-label as a supervised target. Both are exact analytic gradients over
the softmax parameterization, which keeps them testable against finite
differences.

Each rule has one implementation, ``pg_step`` / ``sft_step``, which updates
a ``[B, m]`` block of policy logits at once; the closed loop calls them once
per block. ``pg_gradient``, ``pg_update`` and ``sft_update`` are their
one-policy forms over :class:`SoftmaxAnswerPolicy`. Every sum in a step has
a fixed order, so a row's result is the same bits whatever block it sits in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consensus import _log_softmax, _softmax
from .errors import ConfigurationError

ADVANTAGE_MODES = ("mean_baseline", "group_normalized")


@dataclass(frozen=True, eq=False)
class SoftmaxAnswerPolicy:
    """Categorical answer distribution parameterized by logits / temperature."""

    logits: np.ndarray
    temperature: float = 1.0

    def __post_init__(self) -> None:
        logits = np.asarray(self.logits, dtype=float)
        if logits.ndim != 1 or logits.size < 2:
            raise ValueError("logits must be a vector over at least two answers")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        if not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        logits = logits.copy()
        logits.flags.writeable = False
        object.__setattr__(self, "logits", logits)

    @classmethod
    def uniform(cls, m: int, temperature: float = 1.0) -> "SoftmaxAnswerPolicy":
        return cls(logits=np.zeros(m), temperature=temperature)

    @property
    def m(self) -> int:
        return self.logits.size

    def with_logits(self, logits: np.ndarray) -> "SoftmaxAnswerPolicy":
        return SoftmaxAnswerPolicy(logits=logits, temperature=self.temperature)

    def probabilities(self) -> np.ndarray:
        return _softmax(self.logits / self.temperature)

    def log_probabilities(self) -> np.ndarray:
        return _log_softmax(self.logits / self.temperature)

    def prob(self, answer: int) -> float:
        return float(self.probabilities()[answer])

    def greedy_answer(self) -> int:
        """Highest-logit answer; ties break toward the lowest id."""
        return int(np.argmax(self.logits))


@dataclass(frozen=True)
class UpdateConfig:
    """Step size and regularization knobs shared by both update rules."""

    learning_rate: float = 1e-2
    beta_kl: float = 1e-3
    advantage_mode: str = "mean_baseline"
    std_epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if not (np.isfinite(self.beta_kl) and self.beta_kl >= 0.0):
            raise ConfigurationError(f"beta_kl must be >= 0, got {self.beta_kl}")
        if self.advantage_mode not in ADVANTAGE_MODES:
            raise ConfigurationError(
                f"advantage_mode must be one of {ADVANTAGE_MODES}, "
                f"got {self.advantage_mode!r}"
            )
        if not (np.isfinite(self.std_epsilon) and self.std_epsilon > 0.0):
            raise ConfigurationError(
                f"std_epsilon must be positive, got {self.std_epsilon}"
            )


@dataclass(frozen=True)
class RewardedSample:
    """One retained rollout with its consensus reward and advantage."""

    answer: int
    reward: float
    advantage: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.reward <= 1.0:
            raise ValueError(f"reward must lie in [0, 1], got {self.reward}")


def consensus_reward(answer: int, pseudo_label: int) -> float:
    """Indicator reward: 1 when the rollout's answer matches the pseudo-label."""
    if answer < 0 or pseudo_label < 0:
        raise ValueError("answer ids are non-negative")
    return 1.0 if answer == pseudo_label else 0.0


def consensus_rewards(answers: np.ndarray, pseudo_labels: np.ndarray) -> np.ndarray:
    """Array form of :func:`consensus_reward`: row b's answers against pseudo_labels[b]."""
    if (answers < 0).any() or (pseudo_labels < 0).any():
        raise ValueError("answer ids are non-negative")
    return (answers == pseudo_labels[:, None]).astype(float)


def advantages(
    rewards: Sequence[float] | np.ndarray, mode: str, std_epsilon: float = 1e-8
) -> np.ndarray:
    """Center rewards along the last axis; optionally scale by the population
    std (group mode). Each row of a matrix is one group."""
    if mode not in ADVANTAGE_MODES:
        raise ValueError(f"unknown advantage mode {mode!r}")
    r = np.asarray(rewards, dtype=float)
    if r.ndim == 0 or r.shape[-1] == 0:
        raise ValueError("need at least one reward")
    centered = r - r.mean(axis=-1, keepdims=True)
    # Second pass removes the rounding residue of the first; without it the
    # residue survives division by std_epsilon on zero-variance batches.
    centered -= centered.mean(axis=-1, keepdims=True)
    if mode == "mean_baseline":
        return centered
    return centered / (r.std(axis=-1, keepdims=True) + std_epsilon)


def build_rewarded_samples(
    answers: Sequence[int], pseudo_label: int, config: UpdateConfig
) -> list[RewardedSample]:
    """Attach consensus rewards and advantages to a batch of rollout answers."""
    rewards = [consensus_reward(a, pseudo_label) for a in answers]
    adv = advantages(rewards, config.advantage_mode, config.std_epsilon)
    return [
        RewardedSample(answer=int(a), reward=rew, advantage=float(ad))
        for a, rew, ad in zip(answers, rewards, adv)
    ]


def pg_gradients(
    logits: np.ndarray,
    probs: np.ndarray,
    answers: np.ndarray,
    adv: np.ndarray,
    ref_log_probs: np.ndarray,
    beta_kl: float,
    temperature: float = 1.0,
) -> np.ndarray:
    """Exact ascent gradients of the regularized objective for a block of policies.

    Row b is the policy pi = softmax(logits[b] / T), whose probabilities the
    caller passes as ``probs[b]``, with samples ``answers[b]`` of advantages
    ``adv[b]`` (both ``[B, n]``) and a reference with log-probabilities
    ``ref_log_probs[b]``. Objective per row:
    (1/n) sum_i adv_i * log pi(answer_i) - beta_kl * KL(pi, ref).
    For logits z: d log pi(a) / dz_j = (1[j=a] - pi_j)/T and
    dKL/dz_j = pi_j * (log(pi_j/ref_j) - KL) / T.

    The mean advantage is summed left to right (a sequential cumsum), not
    with Python's ``sum()``, which compensates float sums from 3.12 on; the
    per-answer totals add in sample order, and KL is ``np.dot``'s inner
    product of each row.
    """
    rows, n = answers.shape
    m = probs.shape[-1]
    if n == 0:
        raise ValueError("need at least one sample")
    if ref_log_probs.shape[-1] != m:
        raise ValueError(f"reference covers {ref_log_probs.shape[-1]} answers, policy {m}")
    outside = (answers < 0) | (answers >= m)
    if outside.any():
        raise ValueError(f"sample answer {answers[outside][0]} out of range for m={m}")
    cells = (np.arange(rows)[:, None] * m + answers).ravel()
    per_answer = np.bincount(cells, weights=adv.ravel(), minlength=rows * m).reshape(rows, m)
    per_answer /= n
    mean_advantage = np.cumsum(adv, axis=1)[:, -1:] / n
    grad = (per_answer - mean_advantage * probs) / temperature
    if beta_kl > 0.0:
        log_ratio = _log_softmax(logits / temperature) - ref_log_probs
        # A stacked matmul of [1, m] by [m, 1] is np.dot's inner product.
        kl = (probs[:, None, :] @ log_ratio[:, :, None])[:, 0]
        grad -= beta_kl * probs * (log_ratio - kl) / temperature
    return grad


def _ascend(logits: np.ndarray, step: np.ndarray) -> np.ndarray:
    updated = logits + step
    if not np.isfinite(updated).all():
        raise ValueError("logits must be finite")
    return updated


def pg_step(
    logits: np.ndarray,
    probs: np.ndarray,
    answers: np.ndarray,
    adv: np.ndarray,
    ref_log_probs: np.ndarray,
    config: UpdateConfig,
    temperature: float = 1.0,
) -> np.ndarray:
    """New logits after one ascent step along :func:`pg_gradients`; input untouched."""
    grad = pg_gradients(logits, probs, answers, adv, ref_log_probs, config.beta_kl, temperature)
    return _ascend(logits, config.learning_rate * grad)


def sft_step(
    logits: np.ndarray, probs: np.ndarray, pseudo_labels: np.ndarray, config: UpdateConfig
) -> np.ndarray:
    """New logits after one cross-entropy step toward each row's pseudo-label.

    logits += lr * (onehot(label) - pi). The label's logit rises while every
    other logit falls, so its probability strictly increases at any step size.
    """
    m = probs.shape[-1]
    outside = (pseudo_labels < 0) | (pseudo_labels >= m)
    if outside.any():
        raise ValueError(f"pseudo-label {pseudo_labels[outside][0]} out of range for m={m}")
    direction = -probs
    direction[np.arange(pseudo_labels.size), pseudo_labels] += 1.0
    return _ascend(logits, config.learning_rate * direction)


def _one_policy_block(
    policy: SoftmaxAnswerPolicy, samples: Sequence[RewardedSample], ref: SoftmaxAnswerPolicy
) -> tuple[np.ndarray, ...]:
    """:func:`pg_gradients`' block arguments for one policy and its samples."""
    answers = np.array([[s.answer for s in samples]], dtype=np.int64)
    adv = np.array([[s.advantage for s in samples]], dtype=float)
    return (
        policy.logits[None],
        policy.probabilities()[None],
        answers,
        adv,
        ref.log_probabilities()[None],
    )


def pg_gradient(
    policy: SoftmaxAnswerPolicy,
    samples: Sequence[RewardedSample],
    ref: SoftmaxAnswerPolicy,
    config: UpdateConfig,
) -> np.ndarray:
    """Exact ascent gradient of the regularized policy objective w.r.t. logits.

    The one-policy form of :func:`pg_gradients`.
    """
    block = _one_policy_block(policy, samples, ref)
    return pg_gradients(*block, config.beta_kl, policy.temperature)[0]


def pg_update(
    policy: SoftmaxAnswerPolicy,
    samples: Sequence[RewardedSample],
    ref: SoftmaxAnswerPolicy,
    config: UpdateConfig,
) -> SoftmaxAnswerPolicy:
    """One ascent step along the exact policy gradient; input left untouched.

    The one-policy form of :func:`pg_step`.
    """
    block = _one_policy_block(policy, samples, ref)
    return policy.with_logits(pg_step(*block, config, policy.temperature)[0])


def sft_update(
    policy: SoftmaxAnswerPolicy, pseudo_label: int, config: UpdateConfig
) -> SoftmaxAnswerPolicy:
    """One cross-entropy step toward the pseudo-label; the one-policy form of
    :func:`sft_step`."""
    logits = sft_step(
        policy.logits[None], policy.probabilities()[None], np.array([pseudo_label]), config
    )
    return policy.with_logits(logits[0])


def kl_divergence(policy: SoftmaxAnswerPolicy, ref: SoftmaxAnswerPolicy) -> float:
    """KL(policy || ref) over the answer distribution; non-negative."""
    if ref.m != policy.m:
        raise ValueError(f"reference covers {ref.m} answers, policy {policy.m}")
    pi = policy.probabilities()
    value = float(np.dot(pi, policy.log_probabilities() - ref.log_probabilities()))
    # Gibbs inequality holds exactly; rounding can leave a ~1e-17 residue.
    return max(value, 0.0)
