"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. Each test states the guarantee it pins, including the runtime
budget it must fit in. Frozen numeric bands marked "first validated run"
are regression values captured from the dev run that validated them; the
drivers are deterministic in (config, seed), so drift means a behavior
change, not noise.
"""

import time

import numpy as np
import pytest

from likelihood_reference import log_bayes_factor_full
from optimizer_reference import SoftmaxAnswerPolicy
from scalar_reference import reference_ablation, reference_compare, reference_ttpo
from stopper_reference import top_two
from test_optimizer import fd_gradient, gradient, indicator_batch, sft_updated
from test_stopper import oracle_gap_thresholds

from ttpo.allocator import allocate
from ttpo.config import resolve_config
from ttpo.consensus import AnswerModel, VoteTally, log_bayes_factor_closed_form
from ttpo.experiment import run_ablation, run_compare, run_ttpo
from ttpo.optimizer import UpdateConfig
from ttpo.report import render_report
from ttpo.seeding import stream_seed
from ttpo.stopper import ErrorBudget, StopperConfig, ThresholdTable, compute_thresholds
from ttpo.synth import CategoricalVoteSource, P0Spec, gen_instances


def test_criterion_1_closed_form_evidence_matches_full_likelihood():
    # 10,000 random (tally, model) pairs: the gap-based evidence shortcut and
    # the two-hypothesis log-likelihood difference agree to 1e-9. Under 5 s.
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for _ in range(10_000):
        m = int(rng.integers(2, 11))
        p0 = float(rng.uniform(1.0 / m + 0.01, 0.99))
        model = AnswerModel(p0=p0, m=m)
        tally = VoteTally(counts=tuple(int(c) for c in rng.integers(0, 40, size=m)))
        full = log_bayes_factor_full(tally, model)
        closed = log_bayes_factor_closed_form(top_two(tally).gap, model)
        assert abs(full - closed) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_2_integer_thresholds_match_high_precision_oracle():
    # Full grid of error budgets x vote accuracy x answer-space size against
    # an 80-digit oracle, exact integer equality with the oracle's upper
    # (stop) threshold. Includes the spot value alpha=beta=0.05, p0=0.9,
    # m=2 -> stop threshold 2 (kappa=9, ratio 19). For every grid budget,
    # every (m, warm-up max) key a stock-config ThresholdTable can reach for
    # m = 2..12 must equal the oracle capped at m_max + 1, the least gap no
    # run can reach, and a near-unit kappa lands exactly on the cap.
    grid = ("0.01", "0.03", "0.05", "0.07", "0.1")
    for alpha in grid:
        for beta in grid:
            config = StopperConfig(budget=ErrorBudget(alpha=float(alpha), beta=float(beta)))
            cap = config.m_max + 1
            for p0 in ("0.55", "0.7", "0.8", "0.9"):
                for m in (2, 4, 8):
                    got = compute_thresholds(config, float(p0), m)
                    oracle_upper, _ = oracle_gap_thresholds(alpha, beta, p0, m)
                    # The cap is idle on this grid: equality is uncapped.
                    assert got == oracle_upper < cap, (alpha, beta, p0, m)
            table = ThresholdTable(config)
            for m in range(2, 13):
                for warm_max in range(config.n_min + 1):
                    p0, got = table.lookup(m, warm_max)
                    oracle_upper, _ = oracle_gap_thresholds(alpha, beta, repr(p0), m)
                    assert got == min(oracle_upper, cap), (alpha, beta, m, warm_max)
    stock = StopperConfig()
    assert compute_thresholds(stock, 0.9, 2) == 2
    assert compute_thresholds(stock, 0.5 + 2.5e-13, 2) == stock.m_max + 1


def test_criterion_3_stopping_error_stays_inside_wald_bound():
    # Textbook regime (no warm-up, no streak, effectively unbounded budget,
    # test p0 matching the generator): over 20,000 runs the wrong-decision
    # rate obeys alpha/(1-beta) + 0.01 margin. Under 60 s.
    start = time.perf_counter()
    config = StopperConfig(
        budget=ErrorBudget(alpha=0.05, beta=0.05),
        n_min=1,
        m_max=10_000,
        streak_k=1,
        p0_fixed=0.7,
    )
    instances = gen_instances(20_000, 4, P0Spec.constant(0.7), seed=4021)
    wrong = 0
    for inst in instances:
        source = CategoricalVoteSource(
            inst, stream_seed(4021, "adaptive", 0, inst.instance_id)
        )
        result = allocate(source, config)
        wrong += result.pseudo_label != inst.true_answer
    assert wrong / len(instances) <= 0.05 / (1.0 - 0.05) + 0.01
    assert time.perf_counter() - start < 60.0


def test_criterion_4_adaptive_allocation_saves_rollouts_at_parity_accuracy():
    # 10,000-instance half-easy/half-hard corpus at stock settings: the
    # adaptive arm gives up at most 1 accuracy point versus always spending
    # 64 votes, while consuming strictly fewer votes on average. Savings
    # band frozen from the first validated run (0.3294). Under 120 s.
    start = time.perf_counter()
    config = resolve_config(
        {
            "mode": "compare",
            "count": "10000",
            "m": "4",
            "p0": "mixture:0.5,0.95,0.5",
            "seed": "1009",
        }
    )
    aggregate = run_compare(config).aggregate
    assert aggregate.pseudo_label_accuracy >= aggregate.fixed_accuracy - 0.010
    assert aggregate.mean_tau < 64.0
    assert 0.3094 <= aggregate.savings_pct <= 0.3494
    assert time.perf_counter() - start < 120.0


def test_criterion_5_analytic_gradient_matches_finite_differences():
    # 1,000 random (policy, reference, batch) triples cycling both advantage
    # modes and KL weights {0, 1e-3, 1}: norm relative error <= 1e-5 against
    # central differences. Under 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(52)
    kl_weights = (0.0, 1e-3, 1.0)
    modes = ("mean_baseline", "group_normalized")
    for i in range(1000):
        m = int(rng.integers(2, 11))
        temperature = float(rng.uniform(0.5, 2.0))
        policy = SoftmaxAnswerPolicy(
            logits=rng.normal(0.0, 1.5, m), temperature=temperature
        )
        ref = SoftmaxAnswerPolicy(
            logits=rng.normal(0.0, 1.5, m), temperature=temperature
        )
        config = UpdateConfig(beta_kl=kl_weights[i % 3], advantage_mode=modes[i % 2])
        answers = rng.integers(0, m, int(rng.integers(1, 12))).tolist()
        answers, adv = indicator_batch(answers, int(rng.integers(m)), config)
        analytic = gradient(policy, answers, adv, ref, config)
        fd = fd_gradient(policy, answers, adv, ref, config)
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
    assert time.perf_counter() - start < 30.0


def test_criterion_6_update_rules_move_the_right_way():
    # (a) Cross-entropy updates strictly raise the pseudo-label probability
    # (equivalently, strictly lower its negative log) on every one of
    # 100 steps x 500 starts at lr=0.1. (b) With the KL term off, the policy
    # gradient step has a non-negative first-order effect on the expected
    # consensus reward whenever the batch rewards are not constant.
    # Under 30 s combined.
    start = time.perf_counter()
    rng = np.random.default_rng(61)
    sft_config = UpdateConfig(learning_rate=0.1)
    for _ in range(500):
        m = int(rng.integers(2, 11))
        policy = SoftmaxAnswerPolicy(logits=rng.uniform(-3.0, 3.0, m))
        label = int(rng.integers(m))
        prev = policy.prob(label)
        for _ in range(100):
            policy = sft_updated(policy, label, sft_config)
            current = policy.prob(label)
            assert current > prev
            prev = current

    rng = np.random.default_rng(62)
    for _ in range(400):
        m = int(rng.integers(2, 11))
        policy = SoftmaxAnswerPolicy(
            logits=rng.normal(0.0, 1.5, m), temperature=float(rng.uniform(0.5, 2.0))
        )
        pseudo = int(rng.integers(m))
        others = [a for a in range(m) if a != pseudo]
        size = int(rng.integers(2, 12))
        answers = [pseudo, int(rng.choice(others))]
        answers += rng.integers(0, m, size - 2).tolist()
        for mode in ("mean_baseline", "group_normalized"):
            config = UpdateConfig(beta_kl=0.0, advantage_mode=mode)
            block, adv = indicator_batch(answers, pseudo, config)
            grad = gradient(policy, block, adv, policy, config)
            pi = policy.probabilities()
            # Expected reward is pi[pseudo]; its gradient along logits is
            # pi[pseudo] * (onehot - pi) / T, contracted with the step.
            directional = (
                pi[pseudo]
                * (grad[pseudo] - float(np.dot(pi, grad)))
                / policy.temperature
            )
            assert directional >= -1e-12
    assert time.perf_counter() - start < 30.0


def test_criterion_7_closed_loop_update_keeps_or_raises_greedy_accuracy():
    # One policy-gradient round over 2,000 instances at p0_true=0.7:
    # post-update greedy accuracy never drops below pre-update. Margin
    # frozen from the first validated run: accuracy starts saturated at 1.0
    # (greedy answer is the true answer for every instance) and stays
    # there, while the mean true-answer probability moves up by ~5.7e-4.
    # Under 120 s.
    start = time.perf_counter()
    config = resolve_config(
        {
            "mode": "ttpo_rl",
            "count": "2000",
            "m": "4",
            "p0": "constant:0.7",
            "seed": "811",
        }
    )
    aggregate = run_ttpo(config).aggregate
    assert aggregate.post_update_accuracy >= aggregate.pre_update_accuracy
    assert aggregate.pre_update_accuracy == 1.0
    assert aggregate.post_update_accuracy == 1.0
    lift = aggregate.mean_post_true_prob - aggregate.mean_pre_true_prob
    assert 0.0004 <= lift <= 0.0008
    assert time.perf_counter() - start < 120.0


def test_criterion_8_reports_are_byte_identical_and_parallel_invariant(tmp_path):
    # Reruns render to the same bytes, and the batched drivers (chunks of
    # instances decided at once) render to the same bytes as reports built
    # one allocate() call per instance: how the work is grouped never
    # changes a report.
    compare_config = resolve_config(
        {"mode": "compare", "count": "400", "p0": "mixture:0.5,0.95,0.5", "seed": "77"}
    )
    base_json = render_report(run_compare(compare_config), "json")
    base_csv = render_report(run_compare(compare_config), "csv")
    rerun = run_compare(compare_config)
    assert render_report(rerun, "json") == base_json
    assert render_report(rerun, "csv") == base_csv
    scalar = reference_compare(compare_config)
    assert render_report(scalar, "json") == base_json
    assert render_report(scalar, "csv") == base_csv

    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(base_json, encoding="utf-8")
    second.write_text(render_report(run_compare(compare_config), "json"), encoding="utf-8")
    assert first.read_bytes() == second.read_bytes()

    ttpo_config = resolve_config({"mode": "ttpo_rl", "count": "200", "seed": "78"})
    ttpo_json = render_report(run_ttpo(ttpo_config), "json")
    assert render_report(run_ttpo(ttpo_config), "json") == ttpo_json
    assert render_report(reference_ttpo(ttpo_config), "json") == ttpo_json

    ablate_config = resolve_config(
        {
            "mode": "ablate",
            "axis": "alpha_beta",
            "values": "0.05,0.1",
            "count": "100",
            "seed": "79",
        }
    )
    batched = [render_report(r, "json") for r in run_ablation(ablate_config)]
    assert [render_report(r, "json") for r in run_ablation(ablate_config)] == batched
    scalar = [render_report(r, "json") for r in reference_ablation(ablate_config)]
    assert scalar == batched


def test_criterion_9_relaxed_error_budgets_never_reduce_savings():
    # Same corpus, same streams, only the error budget moves: looser budgets
    # lower the stopping threshold, so savings cannot decrease.
    config = resolve_config(
        {
            "mode": "ablate",
            "axis": "alpha_beta",
            "values": "0.01,0.05,0.1",
            "count": "2000",
            "m": "4",
            "p0": "constant:0.55",
            "seed": "91",
        }
    )
    savings = [report.aggregate.savings_pct for report in run_ablation(config)]
    assert savings == sorted(savings)
    assert savings[0] < savings[-1]  # the axis actually binds on this corpus
