"""One-policy reference for the update rules: the per-sample loops.

The library updates a block of policies with one batched step. These are
the update rules written out for a single policy, sample by sample, with
their own 1-D softmax, so tests can require the batched step to give the
same bits row by row. The mean advantage is an explicit left-to-right
``acc += a`` loop rather than ``sum()``, whose float summation is
compensated from Python 3.12 on; on 3.11 the two are identical.
"""

import numpy as np

from ttpo.optimizer import RewardedSample, SoftmaxAnswerPolicy


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
