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
per block, and one policy is a block with ``B = 1``. Every sum in a step has
a fixed order, so a row's result is the same bits whatever block it sits in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consensus import _log_softmax
from .errors import ConfigurationError

ADVANTAGE_MODES = ("mean_baseline", "group_normalized")


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


def consensus_rewards(answers: np.ndarray, pseudo_labels: np.ndarray) -> np.ndarray:
    """Indicator rewards: 1.0 where an answer in row b matches pseudo_labels[b]."""
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

