"""Tests for rewards, advantages, and both test-time update rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpo.errors import ConfigurationError
from ttpo.optimizer import (
    RewardedSample,
    SoftmaxAnswerPolicy,
    UpdateConfig,
    advantages,
    build_rewarded_samples,
    consensus_reward,
    kl_divergence,
    pg_gradient,
    pg_update,
    sft_update,
)


def reference_log_softmax(logits, temperature):
    """Pure-Python log-softmax, independent of the library's numpy helper.

    Shifted log-sum-exp with the sum taken by ``math.fsum``.
    """
    z = [float(v) / temperature for v in logits]
    top = max(z)
    log_norm = top + math.log(math.fsum(math.exp(v - top) for v in z))
    return np.array([v - log_norm for v in z])


def objective(logits, temperature, samples, ref, config):
    """The scalar objective pg_gradient differentiates; used for FD checks."""
    log_pi = reference_log_softmax(logits, temperature)
    value = sum(s.advantage * log_pi[s.answer] for s in samples) / len(samples)
    if config.beta_kl > 0.0:
        pi = np.exp(log_pi)
        log_ref = reference_log_softmax(ref.logits, ref.temperature)
        value -= config.beta_kl * float(np.dot(pi, log_pi - log_ref))
    return value


def fd_gradient(policy, samples, ref, config, step=1e-5):
    """Central finite differences of the objective over each logit."""
    base = np.array(policy.logits, dtype=float)
    grad = np.zeros_like(base)
    for j in range(base.size):
        up, down = base.copy(), base.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (
            objective(up, policy.temperature, samples, ref, config)
            - objective(down, policy.temperature, samples, ref, config)
        ) / (2 * step)
    return grad


def indicator_batch(answers, pseudo_label, mode="mean_baseline"):
    config = UpdateConfig(advantage_mode=mode)
    return build_rewarded_samples(answers, pseudo_label, config)


class TestSoftmaxAnswerPolicy:
    def test_uniform(self):
        policy = SoftmaxAnswerPolicy.uniform(4)
        np.testing.assert_allclose(policy.probabilities(), [0.25] * 4, atol=1e-15)

    def test_probabilities_normalized(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([3.0, -1.0, 0.5]))
        assert policy.probabilities().sum() == pytest.approx(1.0, abs=1e-12)

    def test_greedy_answer_and_temperature_invariance(self):
        logits = np.array([0.3, 2.0, -1.0, 1.9])
        for temperature in (0.25, 1.0, 7.0):
            policy = SoftmaxAnswerPolicy(logits=logits, temperature=temperature)
            assert policy.greedy_answer() == 1
            assert int(np.argmax(policy.probabilities())) == 1

    def test_wide_logit_spread_stays_finite_in_log_space(self):
        # exp(-1200) underflows to 0; log-probabilities must not become -inf.
        policy = SoftmaxAnswerPolicy(logits=np.array([0.0, -1200.0, 5.0, 900.0]))
        log_pi = policy.log_probabilities()
        assert np.all(np.isfinite(log_pi))
        np.testing.assert_allclose(
            log_pi, reference_log_softmax(policy.logits, 1.0), rtol=1e-15, atol=1e-12
        )
        assert policy.probabilities().sum() == pytest.approx(1.0, abs=1e-15)

    def test_logits_are_frozen(self):
        policy = SoftmaxAnswerPolicy(logits=np.zeros(3))
        with pytest.raises(ValueError):
            policy.logits[0] = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"logits": np.array([1.0])},
            {"logits": np.array([1.0, np.inf])},
            {"logits": np.array([[0.0, 1.0]])},
            {"logits": np.zeros(2), "temperature": 0.0},
            {"logits": np.zeros(2), "temperature": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SoftmaxAnswerPolicy(**kwargs)


class TestUpdateConfig:
    def test_defaults(self):
        config = UpdateConfig()
        assert config.learning_rate == 1e-2
        assert config.beta_kl == 1e-3
        assert config.advantage_mode == "mean_baseline"
        assert config.std_epsilon == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"beta_kl": -0.1},
            {"advantage_mode": "ppo"},
            {"std_epsilon": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            UpdateConfig(**kwargs)


class TestConsensusReward:
    def test_match(self):
        assert consensus_reward(3, 3) == 1.0

    def test_mismatch(self):
        assert consensus_reward(2, 3) == 0.0

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=5),
    )
    def test_mean_reward_equals_vote_share(self, answers, pseudo_label):
        rewards = [consensus_reward(a, pseudo_label) for a in answers]
        share = answers.count(pseudo_label) / len(answers)
        assert np.mean(rewards) == pytest.approx(share, abs=1e-12)


class TestAdvantages:
    def test_all_equal_is_zero_in_both_modes(self):
        for mode in ("mean_baseline", "group_normalized"):
            got = advantages([1.0, 1.0, 1.0], mode)
            np.testing.assert_allclose(got, 0.0, atol=1e-12)
            got = advantages([0.3, 0.3, 0.3], mode)
            np.testing.assert_allclose(got, 0.0, atol=1e-7)

    def test_mean_baseline_two_rewards(self):
        np.testing.assert_allclose(advantages([1.0, 0.0], "mean_baseline"), [0.5, -0.5])

    def test_group_normalized_balanced(self):
        got = advantages([1.0, 1.0, 0.0, 0.0], "group_normalized")
        np.testing.assert_allclose(got, [1.0, 1.0, -1.0, -1.0], atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            advantages([], "mean_baseline")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            advantages([1.0], "median")

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50
        ),
        st.sampled_from(["mean_baseline", "group_normalized"]),
    )
    def test_centering(self, rewards, mode):
        assert abs(advantages(rewards, mode).sum()) <= 1e-10


class TestPgGradient:
    def test_stationary_at_zero_advantage_and_matched_ref(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([0.5, -0.2, 1.0]))
        samples = [RewardedSample(answer=0, reward=1.0, advantage=0.0)]
        got = pg_gradient(policy, samples, policy, UpdateConfig())
        np.testing.assert_allclose(got, 0.0, atol=1e-15)

    def test_single_sample_uniform_policy(self):
        policy = SoftmaxAnswerPolicy.uniform(2)
        samples = [RewardedSample(answer=0, reward=1.0, advantage=1.0)]
        config = UpdateConfig(beta_kl=0.0)
        np.testing.assert_allclose(
            pg_gradient(policy, samples, policy, config), [0.5, -0.5], atol=1e-12
        )

    def test_temperature_scales_gradient(self):
        policy = SoftmaxAnswerPolicy(logits=np.zeros(2), temperature=2.0)
        samples = [RewardedSample(answer=0, reward=1.0, advantage=1.0)]
        config = UpdateConfig(beta_kl=0.0)
        np.testing.assert_allclose(
            pg_gradient(policy, samples, policy, config), [0.25, -0.25], atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        policy = SoftmaxAnswerPolicy.uniform(3)
        ref = SoftmaxAnswerPolicy.uniform(4)
        samples = [RewardedSample(answer=0, reward=1.0, advantage=1.0)]
        with pytest.raises(ValueError):
            pg_gradient(policy, samples, ref, UpdateConfig())

    def test_empty_batch_rejected(self):
        policy = SoftmaxAnswerPolicy.uniform(3)
        with pytest.raises(ValueError):
            pg_gradient(policy, [], policy, UpdateConfig())

    def test_matches_finite_differences_on_random_triples(self):
        # The load-bearing correctness check: 1000 random (policy, ref,
        # batch) triples across temperatures and KL weights.
        rng = np.random.default_rng(4177)
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            temperature = float(rng.choice([0.5, 1.0, 2.0]))
            policy = SoftmaxAnswerPolicy(
                logits=rng.normal(0, 2, size=m), temperature=temperature
            )
            ref = SoftmaxAnswerPolicy(
                logits=rng.normal(0, 2, size=m), temperature=temperature
            )
            beta_kl = float(rng.choice([0.0, 1e-3, 0.1]))
            config = UpdateConfig(beta_kl=beta_kl) if beta_kl > 0 else UpdateConfig(beta_kl=0.0)
            n = int(rng.integers(1, 9))
            samples = [
                RewardedSample(
                    answer=int(rng.integers(m)),
                    reward=float(rng.integers(2)),
                    advantage=float(rng.uniform(-2, 2)),
                )
                for _ in range(n)
            ]
            analytic = pg_gradient(policy, samples, ref, config)
            numeric = fd_gradient(policy, samples, ref, config)
            scale = max(1.0, float(np.linalg.norm(numeric)))
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * scale


class TestPgUpdate:
    def test_zero_gradient_leaves_policy_unchanged(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([1.0, 2.0]))
        samples = [RewardedSample(answer=0, reward=1.0, advantage=0.0)]
        updated = pg_update(policy, samples, policy, UpdateConfig())
        np.testing.assert_array_equal(updated.logits, policy.logits)

    def test_input_policy_unmodified(self):
        policy = SoftmaxAnswerPolicy.uniform(3)
        before = policy.logits.copy()
        samples = indicator_batch([0, 0, 1], pseudo_label=0)
        pg_update(policy, samples, policy, UpdateConfig(beta_kl=0.0))
        np.testing.assert_array_equal(policy.logits, before)

    @given(st.data())
    @settings(max_examples=150)
    def test_mixed_indicator_batch_raises_pseudo_label_probability(self, data):
        m = data.draw(st.integers(min_value=2, max_value=6))
        logits = data.draw(
            st.lists(
                st.floats(min_value=-5, max_value=5), min_size=m, max_size=m
            )
        )
        pseudo_label = data.draw(st.integers(min_value=0, max_value=m - 1))
        other = data.draw(st.integers(min_value=0, max_value=m - 1).filter(lambda a: a != pseudo_label))
        filler = data.draw(
            st.lists(st.integers(min_value=0, max_value=m - 1), max_size=12)
        )
        answers = [pseudo_label, other] + filler  # guaranteed mixed
        mode = data.draw(st.sampled_from(["mean_baseline", "group_normalized"]))
        policy = SoftmaxAnswerPolicy(logits=np.array(logits))
        config = UpdateConfig(beta_kl=0.0, advantage_mode=mode)
        samples = build_rewarded_samples(answers, pseudo_label, config)
        updated = pg_update(policy, samples, policy, config)
        assert updated.prob(pseudo_label) > policy.prob(pseudo_label)

    @given(st.data())
    @settings(max_examples=100)
    def test_first_order_expected_reward_improvement(self, data):
        # Directional derivative of E[R] = pi(label) along the update
        # direction is non-negative for indicator rewards.
        m = data.draw(st.integers(min_value=2, max_value=6))
        logits = data.draw(
            st.lists(st.floats(min_value=-4, max_value=4), min_size=m, max_size=m)
        )
        answers = data.draw(
            st.lists(st.integers(min_value=0, max_value=m - 1), min_size=1, max_size=16)
        )
        pseudo_label = data.draw(st.integers(min_value=0, max_value=m - 1))
        mode = data.draw(st.sampled_from(["mean_baseline", "group_normalized"]))
        policy = SoftmaxAnswerPolicy(logits=np.array(logits))
        config = UpdateConfig(beta_kl=0.0, advantage_mode=mode)
        samples = build_rewarded_samples(answers, pseudo_label, config)
        direction = pg_gradient(policy, samples, policy, config)
        pi = policy.probabilities()
        grad_label_prob = pi[pseudo_label] * (
            (np.arange(m) == pseudo_label).astype(float) - pi
        ) / policy.temperature
        assert float(np.dot(grad_label_prob, direction)) >= -1e-8

    def test_huge_kl_weight_never_outruns_unregularized_step(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            policy = SoftmaxAnswerPolicy(logits=rng.normal(0, 1.5, size=m))
            answers = [int(rng.integers(m)) for _ in range(8)]
            label = int(rng.integers(m))
            plain = UpdateConfig(beta_kl=0.0)
            heavy = UpdateConfig(beta_kl=1e3)
            samples = build_rewarded_samples(answers, label, plain)
            step_plain = np.linalg.norm(
                pg_update(policy, samples, policy, plain).logits - policy.logits
            )
            step_heavy = np.linalg.norm(
                pg_update(policy, samples, policy, heavy).logits - policy.logits
            )
            # At policy == ref the KL gradient vanishes, so heavy
            # regularization can only match, never exceed, the plain step.
            assert step_heavy <= step_plain + 1e-12

    def test_pure_kl_step_moves_toward_reference(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([2.0, 0.0, -1.0]))
        ref = SoftmaxAnswerPolicy(logits=np.array([0.0, 1.0, 0.5]))
        config = UpdateConfig(learning_rate=1e-2, beta_kl=1.0)
        # All-equal rewards zero out the advantages, leaving only the KL pull.
        samples = build_rewarded_samples([0, 0, 0], 0, config)
        updated = pg_update(policy, samples, ref, config)
        assert kl_divergence(updated, ref) < kl_divergence(policy, ref)


class TestSftUpdate:
    def test_near_converged_step_is_tiny(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([30.0, 0.0]))
        updated = sft_update(policy, 0, UpdateConfig())
        assert np.linalg.norm(updated.logits - policy.logits) <= 1e-11

    def test_uniform_policy_unit_rate(self):
        policy = SoftmaxAnswerPolicy.uniform(4)
        updated = sft_update(policy, 2, UpdateConfig(learning_rate=1.0))
        np.testing.assert_allclose(
            updated.logits - policy.logits, [-0.25, -0.25, 0.75, -0.25], atol=1e-12
        )

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            sft_update(SoftmaxAnswerPolicy.uniform(3), 3, UpdateConfig())

    def test_hundred_steps_monotone(self):
        policy = SoftmaxAnswerPolicy.uniform(5)
        config = UpdateConfig(learning_rate=0.1)
        losses = []
        for _ in range(100):
            losses.append(-math.log(policy.prob(3)))
            policy = sft_update(policy, 3, config)
        losses.append(-math.log(policy.prob(3)))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    @given(st.data())
    @settings(max_examples=150)
    def test_label_probability_strictly_increases(self, data):
        m = data.draw(st.integers(min_value=2, max_value=6))
        logits = data.draw(
            st.lists(st.floats(min_value=-6, max_value=6), min_size=m, max_size=m)
        )
        label = data.draw(st.integers(min_value=0, max_value=m - 1))
        lr = data.draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
        policy = SoftmaxAnswerPolicy(logits=np.array(logits))
        updated = sft_update(policy, label, UpdateConfig(learning_rate=lr))
        assert updated.prob(label) > policy.prob(label)


class TestKlDivergence:
    def test_identical_policies(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([1.0, -0.5, 2.0]))
        assert kl_divergence(policy, policy) == 0.0

    def test_half_half_vs_ninety_ten(self):
        policy = SoftmaxAnswerPolicy.uniform(2)
        ref = SoftmaxAnswerPolicy(logits=np.array([math.log(0.9), math.log(0.1)]))
        assert kl_divergence(policy, ref) == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(SoftmaxAnswerPolicy.uniform(2), SoftmaxAnswerPolicy.uniform(3))

    @given(st.data())
    @settings(max_examples=200)
    def test_nonnegative(self, data):
        m = data.draw(st.integers(min_value=2, max_value=6))
        a = data.draw(st.lists(st.floats(min_value=-8, max_value=8), min_size=m, max_size=m))
        b = data.draw(st.lists(st.floats(min_value=-8, max_value=8), min_size=m, max_size=m))
        policy = SoftmaxAnswerPolicy(logits=np.array(a))
        ref = SoftmaxAnswerPolicy(logits=np.array(b))
        assert kl_divergence(policy, ref) >= 0.0


class TestBuildRewardedSamples:
    def test_rewards_and_advantages_attached(self):
        config = UpdateConfig(beta_kl=0.0)
        samples = build_rewarded_samples([1, 0, 1, 1], 1, config)
        assert [s.reward for s in samples] == [1.0, 0.0, 1.0, 1.0]
        np.testing.assert_allclose(
            [s.advantage for s in samples], [0.25, -0.75, 0.25, 0.25], atol=1e-12
        )

    def test_reward_range_enforced(self):
        with pytest.raises(ValueError):
            RewardedSample(answer=0, reward=1.5, advantage=0.0)
