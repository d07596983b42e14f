"""Tests for rewards, advantages, and both test-time update rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optimizer_reference as oracle
from ttpo.consensus import _log_softmax, _softmax
from ttpo.errors import ConfigurationError
from ttpo.optimizer import (
    RewardedSample,
    SoftmaxAnswerPolicy,
    UpdateConfig,
    advantages,
    build_rewarded_samples,
    consensus_reward,
    consensus_rewards,
    kl_divergence,
    pg_gradient,
    pg_gradients,
    pg_step,
    pg_update,
    sft_step,
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


def _block_answers(rng, m, n, labels):
    """Per row: random answers, answers that never hit the label, or all the label."""
    answers = rng.integers(0, m, (labels.size, n))
    for row, label in enumerate(labels):
        kind = row % 3
        if kind == 1:
            answers[row] = (label + rng.integers(1, m, n)) % m
        elif kind == 2:
            answers[row] = label
    return answers


class TestBatchedStep:
    """pg_step / sft_step on a block give, row by row, the one-policy oracle's bits."""

    @pytest.mark.parametrize("temperature", [1.0, 0.35, 2.5])
    def test_block_matches_per_policy_oracle_bit_for_bit(self, temperature):
        rng = np.random.default_rng(int(temperature * 100))
        for m in range(2, 65):
            rows = 6
            n = int(rng.integers(1, 65))
            logits = rng.normal(0.0, 2.0, (rows, m))
            ref_logits = rng.normal(0.0, 2.0, (rows, m))
            labels = rng.integers(0, m, rows)
            answers = _block_answers(rng, m, n, labels)
            probs = _softmax(logits / temperature)
            ref_log_probs = _log_softmax(ref_logits / temperature)
            for mode in ("mean_baseline", "group_normalized"):
                for beta_kl in (0.0, 1e-3, 0.7):
                    config = UpdateConfig(
                        learning_rate=0.3, beta_kl=beta_kl, advantage_mode=mode
                    )
                    rewards = consensus_rewards(answers, labels)
                    adv = advantages(rewards, mode, config.std_epsilon)
                    grads = pg_gradients(
                        logits, probs, answers, adv, ref_log_probs, beta_kl, temperature
                    )
                    stepped = pg_step(
                        logits, probs, answers, adv, ref_log_probs, config, temperature
                    )
                    for b in range(rows):
                        policy = SoftmaxAnswerPolicy(logits[b], temperature)
                        ref = SoftmaxAnswerPolicy(ref_logits[b], temperature)
                        samples = oracle.build_rewarded_samples(
                            answers[b].tolist(), int(labels[b]), config
                        )
                        assert adv[b].tolist() == [s.advantage for s in samples]
                        assert grads[b].tobytes() == oracle.pg_gradient(
                            policy, samples, ref, config
                        ).tobytes()
                        assert stepped[b].tobytes() == oracle.pg_update(
                            policy, samples, ref, config
                        ).logits.tobytes()
            config = UpdateConfig(learning_rate=0.3)
            tuned = sft_step(logits, probs, labels, config)
            for b in range(rows):
                policy = SoftmaxAnswerPolicy(logits[b], temperature)
                expected = oracle.sft_update(policy, int(labels[b]), config)
                assert tuned[b].tobytes() == expected.logits.tobytes()

    def test_zero_variance_rows_get_zero_advantages(self):
        # Label absent (all rewards 0) or unanimous (all 1): group mode
        # divides an exact zero by std_epsilon.
        answers = np.array([[1, 2, 1, 1], [0, 0, 0, 0]])
        rewards = consensus_rewards(answers, np.array([0, 0]))
        assert rewards.tolist() == [[0.0] * 4, [1.0] * 4]
        adv = advantages(rewards, "group_normalized")
        assert adv.tolist() == [[0.0] * 4, [0.0] * 4]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_public_wrappers_match_oracle(self, data):
        m = data.draw(st.integers(min_value=2, max_value=64))
        finite = st.floats(min_value=-30, max_value=30)
        logits = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
        ref_logits = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
        temperature = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        samples = [
            RewardedSample(answer=a, reward=0.0, advantage=adv)
            for a, adv in data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, m - 1), st.floats(min_value=-50, max_value=50)
                    ),
                    min_size=1,
                    max_size=64,
                )
            )
        ]
        config = UpdateConfig(
            learning_rate=data.draw(st.sampled_from([1e-3, 0.5])),
            beta_kl=data.draw(st.sampled_from([0.0, 1e-3, 2.0])),
        )
        policy = SoftmaxAnswerPolicy(logits, temperature)
        ref = SoftmaxAnswerPolicy(ref_logits, temperature)
        assert pg_gradient(policy, samples, ref, config).tobytes() == oracle.pg_gradient(
            policy, samples, ref, config
        ).tobytes()
        assert pg_update(policy, samples, ref, config).logits.tobytes() == oracle.pg_update(
            policy, samples, ref, config
        ).logits.tobytes()
        label = data.draw(st.integers(0, m - 1))
        assert sft_update(policy, label, config).logits.tobytes() == oracle.sft_update(
            policy, label, config
        ).logits.tobytes()

    def test_mean_advantage_is_summed_left_to_right(self):
        # A compensated sum (Python 3.12's sum(), math.fsum) reads 2.0 here;
        # adding left to right loses both 1.0s to the 1e100 and reads 0.0.
        values = [1.0, 1e100, 1.0, -1e100]
        assert math.fsum(values) == 2.0
        rng = np.random.default_rng(12)
        blocks = [np.array([values])] + [
            rng.normal(0.0, 1.0, (50, n)) * 10.0 ** rng.integers(-3, 20, (50, n))
            for n in (4, 9, 33, 64)
        ]
        for adv in blocks:
            uniform = np.full((adv.shape[0], 2), 0.5)
            # Every sample answers 0, so gradient[1] = -mean_advantage * 0.5 exactly.
            grads = pg_gradients(
                np.zeros(uniform.shape),
                uniform,
                np.zeros(adv.shape, dtype=np.int64),
                adv,
                np.log(uniform),
                0.0,
            )
            for row, grad in zip(adv.tolist(), grads):
                acc = 0.0
                for value in row:
                    acc += value
                assert -2.0 * grad[1] == acc / len(row)

    def test_block_checks_cover_every_row(self):
        probs = np.full((3, 4), 0.25)
        logits = np.zeros((3, 4))
        answers = np.zeros((3, 2), dtype=np.int64)
        answers[2, 1] = 4
        adv = np.zeros((3, 2))
        with pytest.raises(ValueError, match="sample answer 4 out of range for m=4"):
            pg_step(logits, probs, answers, adv, np.log(probs), UpdateConfig())
        with pytest.raises(ValueError, match="need at least one sample"):
            pg_step(logits, probs, answers[:, :0], adv[:, :0], np.log(probs), UpdateConfig())
        with pytest.raises(ValueError, match="reference covers 3 answers, policy 4"):
            pg_step(logits, probs, answers, adv, np.log(probs[:, :3]), UpdateConfig())
        with pytest.raises(ValueError, match="pseudo-label -1 out of range for m=4"):
            sft_step(logits, probs, np.array([0, 3, -1]), UpdateConfig())
        with pytest.raises(ValueError, match="answer ids are non-negative"):
            consensus_rewards(np.array([[0, -1]]), np.array([0]))

    def test_non_finite_step_rejected(self):
        # Row 0's label logit 1e308 + 0.5 * 1.7e308 overflows.
        logits = np.array([[1e308, 1e308], [0.0, 0.0]])
        probs = _softmax(logits)
        config = UpdateConfig(learning_rate=1.7e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="logits must be finite"):
                sft_step(logits, probs, np.array([0, 0]), config)

    def test_advantages_rows_are_independent_groups(self):
        rewards = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        for mode in ("mean_baseline", "group_normalized"):
            block = advantages(rewards, mode)
            for row, got in zip(rewards, block):
                assert got.tobytes() == advantages(row, mode).tobytes()
