"""One-policy reference for the update rules: the per-sample loops.

The library updates a block of policies with one batched step. These are
the update rules written out for a single policy, sample by sample, with
their own 1-D softmax, so tests can require the batched step to give the
same bits row by row. A policy is a ``SoftmaxAnswerPolicy``: one logits
vector and a temperature. ``kl_divergence`` measures how far a step moved a
policy from its reference. The mean advantage is an explicit left-to-right
``acc += a`` loop rather than ``sum()``, whose float summation is
compensated from Python 3.12 on; on 3.11 the two are identical.
"""

from dataclasses import dataclass

import numpy as np

from ttpo.consensus import _log_softmax, _softmax


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
class RewardedSample:
    """One retained rollout with its consensus reward and advantage."""

    answer: int
    reward: float
    advantage: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.reward <= 1.0:
            raise ValueError(f"reward must lie in [0, 1], got {self.reward}")


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def log_softmax(x):
    s = x - x.max()
    return s - np.log(np.exp(s).sum())


def probabilities(policy):
    return softmax(policy.logits / policy.temperature)


def log_probabilities(policy):
    return log_softmax(policy.logits / policy.temperature)


def advantages(rewards, mode, std_epsilon):
    r = np.asarray(rewards, dtype=float)
    centered = r - r.mean()
    centered -= centered.mean()
    if mode == "mean_baseline":
        return centered
    return centered / (r.std() + std_epsilon)


def build_rewarded_samples(answers, pseudo_label, config):
    if any(a < 0 for a in answers) or pseudo_label < 0:
        raise ValueError("answer ids are non-negative")
    rewards = [1.0 if a == pseudo_label else 0.0 for a in answers]
    adv = advantages(rewards, config.advantage_mode, config.std_epsilon)
    return [
        RewardedSample(answer=int(a), reward=rew, advantage=float(ad))
        for a, rew, ad in zip(answers, rewards, adv)
    ]


def left_to_right_sum(values):
    acc = 0.0
    for value in values:
        acc += value
    return acc


def pg_gradient(policy, samples, ref, config):
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    if ref.m != policy.m:
        raise ValueError(f"reference covers {ref.m} answers, policy {policy.m}")
    for sample in samples:
        if not 0 <= sample.answer < policy.m:
            raise ValueError(f"sample answer {sample.answer} out of range for m={policy.m}")
    pi = probabilities(policy)
    temp = policy.temperature
    n = len(samples)
    per_answer = np.zeros(policy.m)
    for sample in samples:
        per_answer[sample.answer] += sample.advantage
    per_answer /= n
    mean_advantage = left_to_right_sum(s.advantage for s in samples) / n
    grad = (per_answer - mean_advantage * pi) / temp
    if config.beta_kl > 0.0:
        log_ratio = log_probabilities(policy) - log_probabilities(ref)
        kl = float(np.dot(pi, log_ratio))
        grad -= config.beta_kl * pi * (log_ratio - kl) / temp
    return grad


def pg_update(policy, samples, ref, config):
    grad = pg_gradient(policy, samples, ref, config)
    return SoftmaxAnswerPolicy(
        logits=policy.logits + config.learning_rate * grad, temperature=policy.temperature
    )


def sft_update(policy, pseudo_label, config):
    if not 0 <= pseudo_label < policy.m:
        raise ValueError(f"pseudo-label {pseudo_label} out of range for m={policy.m}")
    direction = -probabilities(policy)
    direction[pseudo_label] += 1.0
    return SoftmaxAnswerPolicy(
        logits=policy.logits + config.learning_rate * direction,
        temperature=policy.temperature,
    )


def kl_divergence(policy: SoftmaxAnswerPolicy, ref: SoftmaxAnswerPolicy) -> float:
    """KL(policy || ref) over the answer distribution; non-negative."""
    if ref.m != policy.m:
        raise ValueError(f"reference covers {ref.m} answers, policy {policy.m}")
    pi = policy.probabilities()
    value = float(np.dot(pi, policy.log_probabilities() - ref.log_probabilities()))
    # Gibbs inequality holds exactly; rounding can leave a ~1e-17 residue.
    return max(value, 0.0)
