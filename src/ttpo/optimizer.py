"""Label-free test-time updates for softmax answer policies.

Two update rules act on a per-instance policy after the allocator has
produced a pseudo-label: a policy-gradient step on the consensus reward
(with a mean baseline or group-normalized advantages, optionally pulled
toward a reference policy by a KL penalty), and a cross-entropy step that
treats the pseudo-label as a supervised target. Both are exact analytic
gradients over the softmax parameterization, which keeps them testable
against finite differences.
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


def advantages(
    rewards: Sequence[float], mode: str, std_epsilon: float = 1e-8
) -> np.ndarray:
    """Center rewards; optionally scale by the population std (group mode)."""
    if mode not in ADVANTAGE_MODES:
        raise ValueError(f"unknown advantage mode {mode!r}")
    r = np.asarray(rewards, dtype=float)
    if r.size == 0:
        raise ValueError("need at least one reward")
    centered = r - r.mean()
    # Second pass removes the rounding residue of the first; without it the
    # residue survives division by std_epsilon on zero-variance batches.
    centered -= centered.mean()
    if mode == "mean_baseline":
        return centered
    return centered / (r.std() + std_epsilon)


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


def _check_batch(
    policy: SoftmaxAnswerPolicy, samples: Sequence[RewardedSample], ref: SoftmaxAnswerPolicy
) -> None:
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    if ref.m != policy.m:
        raise ValueError(f"reference covers {ref.m} answers, policy {policy.m}")
    for sample in samples:
        if not 0 <= sample.answer < policy.m:
            raise ValueError(f"sample answer {sample.answer} out of range for m={policy.m}")


def pg_gradient(
    policy: SoftmaxAnswerPolicy,
    samples: Sequence[RewardedSample],
    ref: SoftmaxAnswerPolicy,
    config: UpdateConfig,
) -> np.ndarray:
    """Exact ascent gradient of the regularized policy objective w.r.t. logits.

    Objective: (1/N) sum_i advantage_i * log pi(answer_i) - beta_kl * KL(pi, ref).
    For logits z with pi = softmax(z/T): d log pi(a) / dz_j = (1[j=a] - pi_j)/T
    and dKL/dz_j = pi_j * (log(pi_j/ref_j) - KL) / T.
    """
    _check_batch(policy, samples, ref)
    pi = policy.probabilities()
    temp = policy.temperature
    n = len(samples)
    per_answer = np.zeros(policy.m)
    for sample in samples:
        per_answer[sample.answer] += sample.advantage
    per_answer /= n
    mean_advantage = sum(s.advantage for s in samples) / n
    grad = (per_answer - mean_advantage * pi) / temp
    if config.beta_kl > 0.0:
        log_ratio = policy.log_probabilities() - ref.log_probabilities()
        kl = float(np.dot(pi, log_ratio))
        grad -= config.beta_kl * pi * (log_ratio - kl) / temp
    return grad


def pg_update(
    policy: SoftmaxAnswerPolicy,
    samples: Sequence[RewardedSample],
    ref: SoftmaxAnswerPolicy,
    config: UpdateConfig,
) -> SoftmaxAnswerPolicy:
    """One ascent step along the exact policy gradient; input left untouched."""
    grad = pg_gradient(policy, samples, ref, config)
    return policy.with_logits(policy.logits + config.learning_rate * grad)


def sft_update(
    policy: SoftmaxAnswerPolicy, pseudo_label: int, config: UpdateConfig
) -> SoftmaxAnswerPolicy:
    """One cross-entropy step toward the pseudo-label.

    logits += lr * (onehot(label) - pi). The label's logit rises while every
    other logit falls, so its probability strictly increases at any step size.
    """
    if not 0 <= pseudo_label < policy.m:
        raise ValueError(f"pseudo-label {pseudo_label} out of range for m={policy.m}")
    direction = -policy.probabilities()
    direction[pseudo_label] += 1.0
    return policy.with_logits(policy.logits + config.learning_rate * direction)


def kl_divergence(policy: SoftmaxAnswerPolicy, ref: SoftmaxAnswerPolicy) -> float:
    """KL(policy || ref) over the answer distribution; non-negative."""
    if ref.m != policy.m:
        raise ValueError(f"reference covers {ref.m} answers, policy {policy.m}")
    pi = policy.probabilities()
    value = float(np.dot(pi, policy.log_probabilities() - ref.log_probabilities()))
    # Gibbs inequality holds exactly; rounding can leave a ~1e-17 residue.
    return max(value, 0.0)
