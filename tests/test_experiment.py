"""Experiment drivers: determinism, arm isolation, and directional effects."""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttpo import cli, experiment
from ttpo.config import config_echo, resolve_config
from ttpo.errors import ConfigurationError, CorpusError
from ttpo.experiment import (
    run_ablation,
    run_compare,
    run_ttpo,
)
from scalar_reference import (
    initial_policy,
    reference_ablation,
    reference_compare,
    reference_ttpo,
)
from trace_reference import TraceRecord, canonical_trace_line
from ttpo.report import render_ablation, render_report
from ttpo.seeding import stream_seed
from ttpo.synth import (
    MAX_COST,
    CategoricalVoteSource,
    P0Spec,
    SyntheticInstance,
    gen_instances,
)


def compare_config(**overrides):
    mapping = {"mode": "compare", "count": "80", "seed": "13"}
    mapping.update({k: str(v) for k, v in overrides.items()})
    return resolve_config(mapping)


def write_trace(path, per_instance):
    """per_instance: {instance_id: [(answer, tokens), ...]}"""
    lines = []
    for instance_id, votes in per_instance.items():
        for i, (answer, tokens) in enumerate(votes):
            lines.append(
                canonical_trace_line(
                    TraceRecord(
                        instance_id=instance_id,
                        rollout_index=i,
                        answer=answer,
                        tokens=tokens,
                    )
                )
            )
    path.write_text("\n".join(lines) + "\n")


def test_compare_rejects_other_modes():
    config = resolve_config({"mode": "ttpo_rl", "count": "5"})
    with pytest.raises(ConfigurationError, match="compare"):
        run_compare(config)


def test_compare_deterministic_and_parallel_agree():
    # Reruns agree, and the batched driver agrees with per-instance allocate.
    config = compare_config()
    serial = render_report(run_compare(config), "json")
    assert render_report(run_compare(config), "json") == serial
    assert render_report(reference_compare(config), "json") == serial


def test_compare_row_shape():
    report = run_compare(compare_config(count=20))
    assert len(report.rows) == 20
    for r in report.rows:
        assert r.tau <= 64
        assert r.cost == r.tau
        assert r.fixed_cost == 64
        assert r.savings_fraction == 1.0 - r.cost / r.fixed_cost
        assert r.decision_kind in ("stop_leader", "budget_exhausted")
        assert r.pseudo_correct is not None
        assert r.fixed_correct is not None
        assert not r.truncated
    assert report.config["mode"] == "compare"
    assert report.seed == 13


def test_fixed_arm_isolated_from_adaptive_arm():
    # Changing the fixed budget must not perturb the adaptive columns.
    short = run_compare(compare_config(fixed_budget=32))
    long = run_compare(compare_config(fixed_budget=64))
    for a, b in zip(short.rows, long.rows):
        assert a.tau == b.tau
        assert a.pseudo_label == b.pseudo_label
        assert a.cost == b.cost
        assert a.fixed_cost == 32 and b.fixed_cost == 64


def test_both_arms_read_one_vote_stream():
    # The fixed arm votes on the first fixed_budget votes of the stream the
    # adaptive arm reads, so its budget moves only the fixed columns. On a
    # low-accuracy corpus a second stream would disagree in many rows.
    settings = {"count": 60, "m": 3, "p0": "constant:0.4", "m_max": 64, "seed": 31}
    instances = gen_instances(60, 3, P0Spec.constant(0.4), 31)

    def adaptive_columns(report):
        return [
            (r.instance_id, r.tau, r.pseudo_label, r.pseudo_correct, r.cost)
            + (r.decision_kind, r.truncated)
            for r in report.rows
        ]

    base = adaptive_columns(run_compare(compare_config(fixed_budget=64, **settings)))
    for budget in (20, 64, 100, 300):
        report = run_compare(compare_config(fixed_budget=budget, **settings))
        assert adaptive_columns(report) == base
        for row, inst in zip(report.rows, instances):
            seed = stream_seed(31, "adaptive", 0, inst.instance_id)
            votes = CategoricalVoteSource(inst, seed).take(budget)[0]
            # argmax breaks ties toward the lowest answer id, as plurality does.
            assert row.fixed_label == int(np.bincount(votes, minlength=3).argmax())
            assert row.fixed_correct == (row.fixed_label == inst.true_answer)
            assert row.fixed_cost == budget


def test_mixture_easy_instances_stop_sooner():
    config = compare_config(count=300, p0="mixture:0.5,0.95,0.45", seed=29)
    report = run_compare(config)
    by_id = {
        inst.instance_id: inst
        for inst in gen_instances(config.count, config.m, config.p0, config.seed)
    }
    easy = [r.tau for r in report.rows if by_id[r.instance_id].p0_true == 0.95]
    hard = [r.tau for r in report.rows if by_id[r.instance_id].p0_true == 0.45]
    assert easy and hard
    assert sum(easy) / len(easy) < sum(hard) / len(hard)


def test_no_stopping_degenerate_case_has_zero_savings():
    # Unreachable evidence threshold plus fixed_budget == m_max: both arms
    # spend identically and the saving is exactly zero.
    config = compare_config(alpha="1e-60", n_min=64, m_max=64, fixed_budget=64)
    report = run_compare(config)
    assert all(r.decision_kind == "budget_exhausted" for r in report.rows)
    assert all(r.savings_fraction == 0.0 for r in report.rows)
    assert report.aggregate.savings_pct == 0.0


def test_compare_on_trace_corpus(tmp_path):
    trace = tmp_path / "rollouts.jsonl"
    labels = tmp_path / "labels.csv"
    write_trace(
        trace,
        {
            # Unanimous and long: stops early, fixed arm uses all 40 votes.
            "unanimous": [("x", 10)] * 40,
            # Short trace: adaptive run truncates, costs sum the tokens seen.
            "short": [("a", 5), ("b", 7), ("a", 5)],
        },
    )
    labels.write_text("instance_id,answer\nunanimous,x\nshort,b\n")
    config = resolve_config(
        {
            "mode": "compare",
            "corpus": "trace",
            "trace": str(trace),
            "labels": str(labels),
            "n_min": "8",
            "m_max": "64",
            "fixed_budget": "40",
        }
    )
    report = run_compare(config)
    rows = {r.instance_id: r for r in report.rows}

    unanimous = rows["unanimous"]
    assert unanimous.pseudo_label == "x"
    assert unanimous.pseudo_correct is True
    assert unanimous.decision_kind == "stop_leader"
    assert not unanimous.truncated
    assert unanimous.cost == 10 * unanimous.tau
    assert unanimous.fixed_cost == 400

    short = rows["short"]
    assert short.truncated
    assert short.tau == 3
    assert short.cost == 17
    assert short.fixed_cost == 17
    assert short.pseudo_label == "a"
    assert short.pseudo_correct is False
    assert short.decision_kind == "budget_exhausted"

    assert report.config["corpus"] == "trace"
    assert report.aggregate.pseudo_label_accuracy == 0.5


def test_trace_without_labels_reports_no_accuracy(tmp_path):
    trace = tmp_path / "rollouts.jsonl"
    write_trace(trace, {"i0": [("x", 1)] * 20})
    config = resolve_config(
        {"mode": "compare", "corpus": "trace", "trace": str(trace), "n_min": "8"}
    )
    report = run_compare(config)
    assert report.rows[0].pseudo_correct is None
    assert report.aggregate.pseudo_label_accuracy is None
    assert report.aggregate.empirical_stop_error_rate is None


def test_replayed_labels_are_answer_strings_in_both_arms(tmp_path):
    # A unanimous trace has m = 2 but only ever votes id 0, and a two-answer
    # tie goes to the first-seen answer: each arm reports the answer string,
    # judged against gold.
    trace = tmp_path / "rollouts.jsonl"
    labels = tmp_path / "labels.csv"
    write_trace(trace, {"unanimous": [("x", 1)] * 12, "tie": [("p", 1), ("q", 1)] * 6})
    labels.write_text("instance_id,answer\nunanimous,y\ntie,p\n")
    config = resolve_config(
        {
            "mode": "compare",
            "corpus": "trace",
            "trace": str(trace),
            "labels": str(labels),
            "n_min": "4",
            "m_max": "12",
            "fixed_budget": "12",
        }
    )
    rows = {r.instance_id: r for r in run_compare(config).rows}
    unanimous, tie = rows["unanimous"], rows["tie"]
    assert (unanimous.pseudo_label, unanimous.fixed_label) == ("x", "x")
    assert (unanimous.pseudo_correct, unanimous.fixed_correct) == (False, False)
    assert (tie.pseudo_label, tie.fixed_label) == ("p", "p")
    assert (tie.pseudo_correct, tie.fixed_correct) == (True, True)
    assert tie.decision_kind == "budget_exhausted" and tie.tau == 12


def test_empty_trace_replays_as_the_reference_does(tmp_path):
    # End to end through the command line: no instances, no rows, and the
    # empty aggregate, in both formats.
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    labels = tmp_path / "gold.csv"
    labels.write_text("instance_id,answer\nq1,a\n")
    config = resolve_config(
        {"mode": "compare", "corpus": "trace", "trace": str(trace), "labels": str(labels)}
    )
    for fmt in ("json", "csv"):
        out = tmp_path / f"replay.{fmt}"
        argv = ["replay", str(trace), "--labels", str(labels), "--format", fmt]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == render_report(reference_compare(config), fmt)


def test_missing_trace_file_is_corpus_error():
    config = resolve_config(
        {"mode": "compare", "corpus": "trace", "trace": "/nonexistent.jsonl"}
    )
    with pytest.raises(CorpusError, match="not found"):
        run_compare(config)


def test_error_attribution_names_the_instance(tmp_path):
    # Each token count is in range; only inst-00042's total is not.
    trace = tmp_path / "rollouts.jsonl"
    write_trace(
        trace,
        {"inst-00041": [("x", 1)] * 3, "inst-00042": [("x", MAX_COST // 2 + 1)] * 2},
    )
    config = resolve_config({"mode": "compare", "corpus": "trace", "trace": str(trace)})
    with pytest.raises(CorpusError, match="'inst-00042': tokens sum to"):
        run_compare(config)


def test_initial_policy_matches_vote_accuracy():
    for p0 in (0.3, 0.55, 0.7, 0.9, 0.99):
        inst = SyntheticInstance(
            instance_id="i", true_answer=2, m=4, p0_true=p0
        )
        policy = initial_policy(inst)
        assert policy.prob(2) == pytest.approx(p0, abs=1e-12)
        if p0 > 1 / 4:
            assert policy.greedy_answer() == 2


def ttpo_config(**overrides):
    mapping = {
        "mode": "ttpo_rl",
        "count": "60",
        "p0": "constant:0.7",
        "seed": "5",
    }
    mapping.update({k: str(v) for k, v in overrides.items()})
    return resolve_config(mapping)


def test_ttpo_rejects_other_modes():
    with pytest.raises(ConfigurationError, match="ttpo"):
        run_ttpo(compare_config())


def test_ttpo_deterministic_and_parallel_agree():
    # Reruns agree, and the round-major batched loop agrees with running
    # each instance's rounds through allocate.
    config = ttpo_config()
    serial = render_report(run_ttpo(config), "json")
    assert render_report(run_ttpo(config), "json") == serial
    assert render_report(reference_ttpo(config), "json") == serial


def test_ttpo_row_shape():
    config = ttpo_config(rounds=2, fixed_budget=64)
    report = run_ttpo(config)
    for r in report.rows:
        assert r.fixed_cost == 2 * 64
        assert r.cost <= r.fixed_cost
        assert r.savings_fraction == 1.0 - r.cost / r.fixed_cost
        assert r.pre_update_greedy_correct is not None
        assert r.post_update_greedy_correct is not None
        assert r.fixed_label is None
        assert 0.0 < r.pre_true_prob < 1.0
        assert 0.0 < r.post_true_prob < 1.0


def test_ttpo_pg_moves_probability_toward_correct_pseudo_labels():
    report = run_ttpo(ttpo_config(count=100))
    for r in report.rows:
        if r.pseudo_correct:
            assert r.post_true_prob > r.pre_true_prob
        else:
            assert r.post_true_prob < r.pre_true_prob


def test_ttpo_sft_strictly_descends_pseudo_label_loss():
    # One update per instance: -log pi(pseudo_label) must drop every time.
    report = run_ttpo(ttpo_config(mode="ttpo_sft", count=100))
    assert all(r.post_pseudo_prob > r.pre_pseudo_prob for r in report.rows)


def test_ttpo_multi_round_accumulates_costs():
    one = run_ttpo(ttpo_config(rounds=1))
    three = run_ttpo(ttpo_config(rounds=3))
    for a, b in zip(one.rows, three.rows):
        assert b.tau > a.tau
        assert b.cost > a.cost
    # Round 0 draws from the same stream in both runs, so the first round's
    # allocation is shared; later rounds only add votes.
    assert all(b.tau >= a.tau for a, b in zip(one.rows, three.rows))


@pytest.mark.parametrize("mode", ["compare", "ttpo_rl"])
def test_savings_fraction_divides_costs_exactly_past_2_53(mode):
    # Every cost here is past 2**53, where an int64 does not convert to
    # float64 exactly, so dividing the cost columns as float64 would round
    # some rows differently from the quotient of the ints.
    # Spread-out vote accuracies and a short warm-up give many distinct tau.
    common = {"count": 400, "p0": "uniform:0.3,0.9", "cost_per_vote": 36237194813656420}
    if mode == "compare":
        report = run_compare(compare_config(n_min=8, streak_k=2, **common))
    else:
        report = run_ttpo(ttpo_config(rounds=3, **common))
    costs = np.array([(r.cost, r.fixed_cost) for r in report.rows], dtype=np.int64)
    float64 = (1.0 - costs[:, 0].astype(np.float64) / costs[:, 1]).tolist()
    exact = [1.0 - r.cost / r.fixed_cost for r in report.rows]
    assert float64 != exact
    assert [r.savings_fraction for r in report.rows] == exact


def test_ablation_rejects_bad_inputs():
    with pytest.raises(ConfigurationError, match="ablate"):
        run_ablation(compare_config())
    config = resolve_config(
        {"mode": "ablate", "axis": "alpha_beta", "values": "0.05", "count": "10"}
    )
    with pytest.raises(ConfigurationError, match="integer"):
        run_ablation(dataclasses.replace(config, axis="n_min", values=(16.5,)))


def test_alpha_beta_sweep_savings_non_decreasing():
    # Low-accuracy corpus so the evidence threshold actually binds.
    config = resolve_config(
        {
            "mode": "ablate",
            "axis": "alpha_beta",
            "values": "0.01,0.05,0.1",
            "count": "300",
            "p0": "constant:0.55",
            "seed": "11",
        }
    )
    reports = run_ablation(config)
    savings = [r.aggregate.savings_pct for r in reports]
    assert savings == sorted(savings)
    # Shared corpus and shared streams: the per-value reports differ only
    # through the stopping rule.
    for report in reports:
        assert report.config["mode"] == "compare"
        assert [r.instance_id for r in report.rows] == [
            r.instance_id for r in reports[0].rows
        ]


def test_n_min_sweep_mean_tau_non_decreasing():
    config = resolve_config(
        {
            "mode": "ablate",
            "axis": "n_min",
            "values": "16,32",
            "count": "150",
            "seed": "11",
        }
    )
    reports = run_ablation(config)
    taus = [r.aggregate.mean_tau for r in reports]
    assert taus == sorted(taus)


def test_ablation_reports_echo_overridden_values():
    config = resolve_config(
        {
            "mode": "ablate",
            "axis": "alpha_beta",
            "values": "0.01,0.1",
            "count": "20",
        }
    )
    reports = run_ablation(config)
    assert [r.config["alpha"] for r in reports] == ["0.01", "0.1"]
    assert [r.config["beta"] for r in reports] == ["0.01", "0.1"]


@pytest.mark.parametrize("corpus", ["synthetic", "trace"])
def test_sweep_reads_each_chunk_once(corpus, tmp_path, monkeypatch):
    # Seven instances in lanes of three are three chunks. A three-value
    # sweep draws (or takes) each chunk's votes once and loads the trace
    # once, not once per point, and still renders the per-vote oracle's bytes.
    mapping = {"mode": "ablate", "axis": "alpha_beta", "values": "0.01,0.05,0.2",
               "count": "7", "p0": "uniform:0.4,0.9", "n_min": "4", "seed": "5"}
    if corpus == "trace":
        trace, labels = tmp_path / "t.jsonl", tmp_path / "gold.csv"
        answers = ["a", "b", "a", "c", "a", "a", "b", "a", "a", "a", "a", "a"]
        write_trace(trace, {f"q{i}": [(x, i + 1) for x in answers[i:]] for i in range(7)})
        labels.write_text("instance_id,answer\nq0,a\nq3,b\n")
        mapping.update(corpus="trace", trace=str(trace), labels=str(labels))
    config = resolve_config(mapping)
    calls = {"_categorical_votes": 0, "_take_all": 0, "load_trace": 0}

    def counted(name):
        inner = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(experiment, "_LANES", 3)
    for name in calls:
        monkeypatch.setattr(experiment, name, counted(name))
    got = run_ablation(config)
    if corpus == "synthetic":
        assert calls == {"_categorical_votes": 3, "_take_all": 0, "load_trace": 0}
    else:
        assert calls == {"_categorical_votes": 0, "_take_all": 3, "load_trace": 1}
    want = reference_ablation(config)
    for fmt in ("json", "csv"):
        assert [render_report(r, fmt) for r in got] == [render_report(r, fmt) for r in want]


def test_replay_costs_reach_max_cost_exactly(tmp_path):
    # One instance whose two rollouts' tokens sum to exactly 2**63 - 1: both
    # arms read both rollouts, so each pays every token, with no overflow
    # and no rounding, in a comparison and at every point of a sweep.
    trace, labels = tmp_path / "t.jsonl", tmp_path / "gold.csv"
    write_trace(trace, {"edge": [("a", 2**62), ("b", 2**62 - 1)]})
    labels.write_text("instance_id,answer\nedge,a\n")
    common = {"corpus": "trace", "trace": str(trace), "labels": str(labels)}
    compare = resolve_config({"mode": "compare", **common})
    sweep = resolve_config({"mode": "ablate", "axis": "n_min", "values": "1,32", **common})
    reports = [run_compare(compare), *run_ablation(sweep)]
    assert len(reports) == 3
    for report in reports:
        (row,) = report.rows
        assert row.tau == 2
        assert row.cost == row.fixed_cost == MAX_COST
        assert row.savings_fraction == 0.0


def test_report_json_is_loadable_structure():
    doc = json.loads(render_report(run_compare(compare_config(count=5)), "json"))
    assert doc["config"]["count"] == "5"
    assert len(doc["rows"]) == 5


# blake2b of the rendered reports (JSON, CSV). The first four are
# acceptance criterion 8's configs, recorded from the per-vote drivers
# before the array kernel replaced them. The next three were recorded with
# the scipy softmax and the float/mpmath threshold resolution, before the
# exact integer rule and the numpy softmax replaced them: the second update
# rule, a fixed-p0 run on an exact-integer threshold ratio, and a replay
# over many answer-space sizes. The fixed-p0 run was re-recorded from the
# per-vote reference when the fixed arm moved onto the adaptive arm's vote
# stream, which changed some of its fixed-arm labels. Every synthetic entry
# was then re-recorded from the per-vote reference when a draw became one
# double per vote: a corpus true answer and a missed vote's wrong answer
# are now read from their own uniform, not from numpy's Lemire integer
# draws, so they moved while every hit flag and p0 stayed; replay-wide
# reads no random stream and kept its digests. Both the batched drivers and
# the per-vote reference must render every digest, so any byte drift in
# either format, or between the two, fails here.
GOLDEN_DIGESTS = {
    "compare": (
        "707352ce2a2810c11b9d3adadfe06915acb15c1213ee7b7074568046b3397e13632a31e8dd6a19bdde9e50f566c96aa024bec3d1d18225dec3eb48ad6ebadaac",
        "b840857cf3d9f0491647f90ad426cfb2196eca017822af675e70e6136cee2c15df7f01789a6f251ff04965be9589e74f8fb13568c456f54ad3de59b8ed9f9f2c",
    ),
    "ttpo": (
        "457988b916c0bc1da7872c3fcc6108e6b791dee4cf5108e7be47d526b5bcac2c54481e7e83f386bda1a2b2f4e6389745281a4d014ee5288ea8065ba2dd380479",
        "8ce79dba0efa4f32a77435819db5d9adbc950c0e5387b42d3e7d83d5faf3627e953f4c4e953e5dab3880386e7787905ce7af4e61a1337cb685a2fd546ec369d9",
    ),
    "ablate-0.05": (
        "9178856f85f84db63562fcc6076a02e665b3b139252bf7ec07b732075c5db13947dc2d8a60fd1d2ec04c0cfb79274ad019f0698b450d4f25463b0e1234abaf21",
        "743588058260a4e344342e8c17168ad3cd325da1305c66da2c41eade358be5882c78fc472acee4dc45eba991e1c5199384120dcff99fe3f6ae2052af211838e5",
    ),
    "ablate-0.1": (
        "0ad0919ed1e8c929c68635ac87f8b2a1f4a04bdacd1c0847c2e5b2a59851641ff571a818a74b920ddff1515cd626f6d99a7995c22af02cb563362733f31b1498",
        "54d0a8e8d0a369830de8bf64d821988c4bfb4e2323f2dac762af3942dbb1501dce08a877f6dc0cd2d51b2a1817ae65bf43c354fb627618ac0cfb0fb1a0b92911",
    ),
    "ttpo_sft": (
        "8279706d90f1d43a9c79b00c2a1406390444a63f5e46bafb7837f1cf9d4bb53198388dc6b53a4e1ba002bd57dfb47b789f3d283adf73194358c9aed6b33d007f",
        "33213939366628aa9f89907e0deb416cfb992f5a19e0f00342de2163f689e8034f6f23299b99f29e5412989397525d372202e5657384e6cee0dad01a096d7042",
    ),
    "compare-p0-fixed": (
        "150d9cd0d1e412dc030a7a72302f67950d451d987ee0c13acaad0f771c8987c6e5c060ec4e656867654b0877843649a5aaf1cb0fcd90ffeee36f3ea7720d9f26",
        "a56b9192316d386261efbd7c40c8689dbe4365f6c0fe8ca1abe06f0f5e6ea102f2a36e8150d23dc93a871e85e837cd6d797817d5f83a881c8b1b0fab9d658ba2",
    ),
    "replay-wide": (
        "59e05e1990be022e8c6ab4d7100c329240a0bc068b043e53979c2befd29ab9693df398fd47fcae4cfc4b0f620af17281da831bf338e43575626eec6ad34a037d",
        "0aef396625362e548c3365ba68e474adf5e7c4f6f2f8c0910be2301810bca02675b26a1e3207604413e51f5a93e6b8fbee16403871d156b1e3ee28482add13dd",
    ),
    # render_ablation over the two ablate-* reports: the sweep document.
    "ablate-sweep": (
        "670d81ec7c39176f3d3a78041f5163667e43f6fe27460596887363e1b557a93535bc70d9f725c558d76be0ed1493d80e67f0cdbb774c668780b721efbb17c521",
        "de81ea259c43d8881565ac90e86af2526c795366ef0ddb11f1f660e1faec162676974ddb7d882926e3ae228d77b4d8812aaab4019349b62cf3db4c9b9ea318a1",
    ),
}


def write_golden_trace(directory):
    """Ragged replay trace whose instances span many (m, warm-up max) keys.

    Answer spaces run from 2 to 24 distinct answers and lengths from below
    the warm-up to past the budget; per-instance accuracy ranges from near
    chance to near unanimous, so the warm-up maximum takes most values.
    """
    rng = np.random.default_rng(4242)
    shapes = []
    lines = []
    labels = ["instance_id,answer"]
    for index in range(150):
        instance_id = f"g{index:03d}"
        vocab = [f"v{j}" for j in range(int(rng.integers(2, 25)))]
        length = int(rng.choice([6, 20, 31, 32, 33, 50, 64, 90]))
        accuracy = rng.uniform(0.05, 1.0)
        answers = [
            vocab[0] if rng.random() < accuracy else str(rng.choice(vocab))
            for _ in range(length)
        ]
        for position, answer in enumerate(answers):
            record = TraceRecord(instance_id, position, answer, int(rng.integers(1, 400)))
            lines.append(canonical_trace_line(record))
        labels.append(f"{instance_id},{vocab[0]}")
        shapes.append((len(set(answers)), length))
    (directory / "golden_trace.jsonl").write_text("\n".join(lines) + "\n")
    (directory / "golden_labels.csv").write_text("\n".join(labels) + "\n")
    return shapes


def _golden_ablate_config():
    return resolve_config(
        {
            "mode": "ablate",
            "axis": "alpha_beta",
            "values": "0.05,0.1",
            "count": "100",
            "seed": "79",
        }
    )


def _golden_reports(compare=run_compare, ttpo=run_ttpo, ablation=run_ablation):
    """The golden reports, from the batched drivers or from the ones given."""
    mixture = resolve_config(
        {"mode": "compare", "count": "400", "p0": "mixture:0.5,0.95,0.5", "seed": "77"}
    )
    rl = resolve_config({"mode": "ttpo_rl", "count": "200", "seed": "78"})
    sft = resolve_config(
        {"mode": "ttpo_sft", "count": "200", "m": "5", "rounds": "2", "seed": "80"}
    )
    # kappa = 3 and (1 - beta) / alpha = 9 = kappa**2: an exact-integer ratio.
    fixed = resolve_config(
        {
            "mode": "compare",
            "count": "300",
            "m": "2",
            "p0": "uniform:0.55,0.95",
            "p0_mode": "fixed:0.75",
            "alpha": "0.1",
            "beta": "0.1",
            "seed": "81",
        }
    )
    # Relative paths: the trace and labels paths are echoed into the report.
    replay = resolve_config(
        {
            "mode": "compare",
            "corpus": "trace",
            "trace": "golden_trace.jsonl",
            "labels": "golden_labels.csv",
            "seed": "82",
        }
    )
    low, high = ablation(_golden_ablate_config())
    return {
        "compare": compare(mixture),
        "ttpo": ttpo(rl),
        "ablate-0.05": low,
        "ablate-0.1": high,
        "ttpo_sft": ttpo(sft),
        "compare-p0-fixed": compare(fixed),
        "replay-wide": compare(replay),
    }


def _report_digests(report):
    return tuple(
        hashlib.blake2b(render_report(report, fmt).encode("utf-8")).hexdigest()
        for fmt in ("json", "csv")
    )


def _sweep_digests(reports):
    """Digests of the document `ttpo ablate --out sweep.json` writes."""
    config = _golden_ablate_config()
    return tuple(
        hashlib.blake2b(
            render_ablation(
                config.axis, config.values, reports, config_echo(config), fmt
            ).encode("utf-8")
        ).hexdigest()
        for fmt in ("json", "csv")
    )


def test_reports_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shapes = write_golden_trace(tmp_path)
    assert max(distinct for distinct, _ in shapes) >= 20
    assert {length for _, length in shapes} >= {6, 32, 90}
    for name, report in _golden_reports().items():
        assert _report_digests(report) == GOLDEN_DIGESTS[name], name


def test_sweep_document_matches_golden_digests():
    assert _sweep_digests(run_ablation(_golden_ablate_config())) == GOLDEN_DIGESTS["ablate-sweep"]


def test_per_vote_reference_renders_the_golden_digests(tmp_path, monkeypatch):
    # The digests come from the per-vote oracle, not only from the drivers.
    monkeypatch.chdir(tmp_path)
    write_golden_trace(tmp_path)
    reports = _golden_reports(reference_compare, reference_ttpo, reference_ablation)
    for name, report in reports.items():
        assert _report_digests(report) == GOLDEN_DIGESTS[name], name
    sweep = [reports["ablate-0.05"], reports["ablate-0.1"]]
    assert _sweep_digests(sweep) == GOLDEN_DIGESTS["ablate-sweep"]


_MODES = (
    {"mode": "compare"},
    {"mode": "ablate", "axis": "alpha_beta"},
    {"mode": "ablate", "axis": "n_min"},
    {"mode": "ttpo_rl", "advantage_mode": "mean_baseline"},
    {"mode": "ttpo_rl", "advantage_mode": "group_normalized"},
    {"mode": "ttpo_sft"},
)
_PERCENT = st.integers(1, 99).map(lambda k: k / 100)


@st.composite
def _p0_specs(draw):
    kind = draw(st.sampled_from(["constant", "uniform", "mixture"]))
    if kind == "constant":
        return f"constant:{draw(_PERCENT)}"
    if kind == "uniform":
        lo, hi = sorted(draw(st.lists(_PERCENT, min_size=2, max_size=2, unique=True)))
        return f"uniform:{lo},{hi}"
    share = draw(st.integers(0, 100)) / 100
    return f"mixture:{share},{draw(_PERCENT)},{draw(_PERCENT)}"


@st.composite
def _trace_instances(draw, n_min):
    """Ragged replay rollouts: {instance_id: [(answer, tokens), ...]}.

    Lengths run from below the warm-up to past 256 votes, and a two-answer
    alternation makes every even prefix a tie. The votes themselves come
    from a drawn seed: drawing hundreds of list elements one by one is
    what would make this strategy slow.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    per_instance = {}
    for index in range(draw(st.integers(0, 5))):
        length = draw(
            st.one_of(st.integers(1, n_min), st.integers(1, 80), st.integers(250, 300))
        )
        if draw(st.booleans()):
            answers = (["p", "q"] * length)[:length]
        else:
            answers = rng.choice(list("abcdefg")[: draw(st.integers(1, 7))], length).tolist()
        per_instance[f"r{index}"] = list(zip(answers, rng.integers(1, 50, length).tolist()))
    return per_instance


@st.composite
def _oracle_cases(draw):
    """(config mapping, replay rollouts or None, labelled ids, lane width)."""
    mapping = dict(draw(st.sampled_from(_MODES)))
    closed_loop = mapping["mode"] in ("ttpo_rl", "ttpo_sft")
    rounds = draw(st.integers(1, 3)) if closed_loop else 1
    n_min = draw(st.integers(1, 40))
    m_max = draw(
        st.one_of(st.just(n_min), st.integers(n_min, 80), st.sampled_from([256, 257, 300]))
    )
    fixed_budget = draw(
        st.one_of(
            st.integers(1, m_max),
            st.just(m_max),
            st.integers(m_max + 1, m_max + 40),
            st.sampled_from([256, 257, 320]),
        )
    )
    cap = MAX_COST // (rounds * max(m_max, fixed_budget))
    cost = draw(st.one_of(st.just(1), st.integers(1, 1000), st.integers(min(2**53 + 1, cap), cap)))
    mapping.update(
        rounds=str(rounds),
        count=str(draw(st.integers(1, 8))),
        m=str(draw(st.integers(2, 6))),
        p0=draw(_p0_specs()),
        p0_mode=draw(st.sampled_from(["adaptive", "fixed"])),
        cost_per_vote=str(cost),
        n_min=str(n_min),
        m_max=str(m_max),
        streak_k=str(draw(st.integers(1, 6))),
        fixed_budget=str(fixed_budget),
        alpha=str(draw(st.sampled_from([0.01, 0.05, 0.1, 0.3]))),
        beta=str(draw(st.sampled_from([0.01, 0.05, 0.1, 0.3]))),
        seed=str(draw(st.integers(0, 2**64))),
    )
    if mapping["p0_mode"] == "fixed":
        mapping["p0_mode"] = f"fixed:{draw(_PERCENT)}"
    if mapping.get("axis") == "alpha_beta":
        values = draw(st.lists(st.sampled_from([0.01, 0.05, 0.2, 0.45]), min_size=1, max_size=2))
        mapping["values"] = ",".join(map(str, values))
    elif mapping.get("axis") == "n_min":
        values = draw(st.lists(st.integers(1, m_max), min_size=1, max_size=2))
        mapping["values"] = ",".join(map(str, values))
    trace = labelled = None
    if not closed_loop and draw(st.booleans()):
        trace = draw(_trace_instances(n_min))
        labelled = draw(st.lists(st.sampled_from(sorted(trace) or ["r0"]), unique=True))
    return mapping, trace, labelled, draw(st.sampled_from([1, 3, 4096]))


@given(case=_oracle_cases())
# Two votes on a knife edge. At seed 0 the first double of inst-00000's
# round-0 policy stream is 0.832778407726228 and its true answer is 0, so
# with that p0 the first cdf entry equals the vote's uniform exactly, a tie
# ``choice`` breaks upward. With p0 = 0.5, m = 2 and 256-vote arms, vote 256,
# the last vote either arm reads, often decides a plurality.
@example(
    case=(
        {"mode": "ttpo_rl", "count": "1", "m": "2", "p0": "constant:0.832778407726228",
         "n_min": "8", "seed": "0"},
        None, None, 4096,
    )
)
@example(
    case=(
        {"mode": "compare", "count": "20", "m": "2", "p0": "constant:0.5",
         "n_min": "256", "m_max": "256", "fixed_budget": "256"},
        None, None, 4096,
    )
)
@settings(max_examples=60, deadline=None)
def test_drivers_match_the_per_vote_oracle_across_the_config_space(case):
    # The batched drivers against the per-vote reference drivers, byte for
    # byte, over every mode, corpus kind and stopping-rule corner. Lane
    # widths of 1 and 3 split the corpus into many chunks.
    mapping, trace, labelled, lanes = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "_LANES", lanes)
        if trace is not None:
            mapping = dict(mapping, corpus="trace", trace=str(Path(tmp) / "t.jsonl"))
            write_trace(Path(mapping["trace"]), trace)
            if labelled:
                mapping["labels"] = str(Path(tmp) / "gold.csv")
                gold = [f"{instance_id},a" for instance_id in labelled]
                Path(mapping["labels"]).write_text("\n".join(["instance_id,answer", *gold]) + "\n")
        config = resolve_config(mapping)
        if config.mode == "compare":
            got, want = [run_compare(config)], [reference_compare(config)]
        elif config.mode == "ablate":
            got, want = run_ablation(config), reference_ablation(config)
        else:
            got, want = [run_ttpo(config)], [reference_ttpo(config)]
        for fmt in ("json", "csv"):
            assert [render_report(r, fmt) for r in got] == [render_report(r, fmt) for r in want]
