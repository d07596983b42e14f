"""Tests for corpus generation, vote sources, and trace replay."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optimizer_reference import SoftmaxAnswerPolicy
from scalar_reference import (
    CategoricalVoteOracle,
    PolicyVoteSource,
    categorical_vote,
    p0_of,
    reference_corpus,
)
from stopper_reference import draw
from trace_reference import TraceRecord, canonical_trace_line
from ttpo import seeding
from ttpo.errors import ConfigurationError, CorpusError
from ttpo.seeding import (
    _pcg64_outputs,
    _seed_words,
    _stream_seeds,
    _uniforms,
    stream_seed,
)
from ttpo.synth import (
    CategoricalVoteSource,
    P0Spec,
    SyntheticInstance,
    _categorical,
    _categorical_votes,
    _corpus,
    _policy_votes,
    gen_instances,
    load_labels,
    load_trace,
)


class TestP0Spec:
    def test_parse_constant(self):
        assert P0Spec.parse("constant:0.8") == P0Spec.constant(0.8)

    def test_parse_uniform(self):
        assert P0Spec.parse("uniform:0.4,0.9") == P0Spec.uniform(0.4, 0.9)

    def test_parse_mixture(self):
        assert P0Spec.parse("mixture:0.5,0.9,0.4") == P0Spec.mixture(0.5, 0.9, 0.4)

    @pytest.mark.parametrize(
        "text",
        [
            "constant",
            "constant:",
            "constant:abc",
            "constant:0.0",
            "constant:1.0",
            "uniform:0.9,0.4",
            "uniform:0.5",
            "mixture:1.5,0.9,0.4",
            "mixture:0.5,0.9",
            "beta:2,5",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ConfigurationError):
            P0Spec.parse(text)

    def test_sampling_ranges(self):
        uniforms = np.random.default_rng(0).random(100)
        draws = P0Spec.uniform(0.4, 0.9)._samples(uniforms)
        assert ((0.4 <= draws) & (draws <= 0.9)).all()
        draws = P0Spec.mixture(0.5, 0.9, 0.4)._samples(uniforms)
        assert set(draws.tolist()) <= {0.9, 0.4}


class TestGenInstances:
    def test_deterministic(self):
        first = gen_instances(1, m=4, p0_spec=P0Spec.constant(0.8), seed=7)
        second = gen_instances(1, m=4, p0_spec=P0Spec.constant(0.8), seed=7)
        assert first == second
        assert first[0].p0_true == 0.8
        assert first[0].m == 4

    def test_prefix_stability(self):
        # Instance parameters depend only on (seed, instance_id), so growing
        # the corpus never rewrites earlier instances.
        short = gen_instances(5, m=3, p0_spec=P0Spec.uniform(0.4, 0.9), seed=11)
        long = gen_instances(10, m=3, p0_spec=P0Spec.uniform(0.4, 0.9), seed=11)
        assert long[:5] == short

    def test_uniform_p0_mean(self):
        instances = gen_instances(10_000, m=3, p0_spec=P0Spec.uniform(0.4, 0.9), seed=3)
        mean = np.mean([inst.p0_true for inst in instances])
        assert mean == pytest.approx(0.65, abs=0.01)

    def test_mixture_shares(self):
        instances = gen_instances(
            10_000, m=3, p0_spec=P0Spec.mixture(0.5, 0.9, 0.4), seed=5
        )
        easy = sum(1 for inst in instances if inst.p0_true == 0.9)
        assert easy / 10_000 == pytest.approx(0.5, abs=0.02)
        assert all(inst.p0_true in (0.9, 0.4) for inst in instances)

    def test_true_answers_cover_the_space(self):
        instances = gen_instances(10_000, m=4, p0_spec=P0Spec.constant(0.8), seed=9)
        counts = np.bincount([inst.true_answer for inst in instances], minlength=4)
        assert counts.min() > 2200  # uniform would give 2500 each

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_instances(0, m=2, p0_spec=P0Spec.constant(0.8), seed=1)


class TestSyntheticInstance:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"true_answer": 4, "m": 4},
            {"true_answer": 0, "m": 1},
            {"true_answer": 0, "m": 2, "p0_true": 1.0},
            {"true_answer": 0, "m": 2, "cost_per_vote": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        defaults = {"instance_id": "x", "true_answer": 0, "m": 2, "p0_true": 0.8}
        with pytest.raises(ValueError):
            SyntheticInstance(**{**defaults, **kwargs})


class TestCategoricalVoteSource:
    def test_near_degenerate_accuracy(self):
        inst = SyntheticInstance("x", true_answer=2, m=4, p0_true=1 - 1e-9)
        source = CategoricalVoteSource(inst, stream_seed(1, "test", 0, "x"))
        assert (source.take(1_000_000)[0] == 2).all()

    def test_frequencies_match_generating_parameters(self):
        inst = SyntheticInstance("x", true_answer=1, m=4, p0_true=0.8)
        source = CategoricalVoteSource(inst, stream_seed(2, "test", 0, "x"))
        draws = source.take(1_000_000)[0]
        freq = np.bincount(draws, minlength=4) / draws.size
        assert freq[1] == pytest.approx(0.8, abs=0.002)
        for wrong in (0, 2, 3):
            assert freq[wrong] == pytest.approx(0.2 / 3, abs=0.002)

    def test_deterministic_per_seed(self):
        inst = SyntheticInstance("x", true_answer=0, m=3, p0_true=0.7)
        seed = stream_seed(3, "test", 0, "x")
        a = CategoricalVoteSource(inst, seed)
        b = CategoricalVoteSource(inst, seed)
        assert a.take(500)[0].tolist() == b.take(500)[0].tolist()

    def test_cost_is_cost_per_vote(self):
        inst = SyntheticInstance("x", true_answer=0, m=2, p0_true=0.8, cost_per_vote=7)
        source = CategoricalVoteSource(inst, 0)
        assert source.take(3)[1].tolist() == [7, 7, 7]

    def test_seed_isolation_across_instances(self):
        # Instance x's stream is untouched by what else gets constructed or
        # drawn in between; it is a pure function of its own stream seed.
        inst_x = SyntheticInstance("x", true_answer=0, m=3, p0_true=0.7)
        inst_y = SyntheticInstance("y", true_answer=2, m=3, p0_true=0.5)
        seed_x = stream_seed(42, "arm", 0, "x")
        alone = CategoricalVoteSource(inst_x, seed_x)
        expected = alone.take(300)[0].tolist()
        crowded = CategoricalVoteSource(inst_x, seed_x)
        noise = CategoricalVoteSource(inst_y, stream_seed(42, "arm", 0, "y"))
        got = []
        for _ in range(300):
            got += crowded.take(1)[0].tolist()
            noise.take(1)
        assert got == expected


class TestPolicyVoteSource:
    def test_uniform_policy_frequencies(self):
        source = PolicyVoteSource(
            SoftmaxAnswerPolicy.uniform(2).probabilities(), stream_seed(4, "p", 0, "x")
        )
        draws = source.take(100_000)[0]
        assert draws.mean() == pytest.approx(0.5, abs=0.005)

    def test_saturated_policy(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([20.0, 0.0, 0.0]))
        source = PolicyVoteSource(policy.probabilities(), stream_seed(5, "p", 0, "x"))
        assert (source.take(10_000)[0] == 0).all()

    def test_deterministic_per_seed(self):
        policy = SoftmaxAnswerPolicy(logits=np.array([0.5, -0.5, 0.1]))
        a = PolicyVoteSource(policy.probabilities(), 1234)
        b = PolicyVoteSource(policy.probabilities(), 1234)
        assert a.take(500)[0].tolist() == b.take(500)[0].tolist()

    def test_cost_passthrough(self):
        source = PolicyVoteSource(SoftmaxAnswerPolicy.uniform(2).probabilities(), 0, cost=13)
        assert source.take(3)[1].tolist() == [13, 13, 13]

    @pytest.mark.parametrize(
        "probabilities,message",
        [
            (np.array([1.0]), "vector over at least two answers"),
            (np.array([[0.5, 0.5]]), "vector over at least two answers"),
            (np.array([0.5, np.nan]), "must be finite"),
            (np.array([np.inf, 0.0, 0.0]), "must be finite"),
        ],
    )
    def test_invalid_probabilities_rejected(self, probabilities, message):
        with pytest.raises(ValueError, match=message):
            PolicyVoteSource(probabilities, 0)

    def test_snapshot_ignores_later_writes(self):
        probabilities = np.array([1.0, 0.0])
        source = PolicyVoteSource(probabilities, 7)
        probabilities[:] = [0.0, 1.0]
        assert source.m == 2
        assert source.take(300)[0].tolist() == [0] * 300


class TestStreamSeed:
    def test_stable(self):
        assert stream_seed(1, "a", 0, "x") == stream_seed(1, "a", 0, "x")

    def test_distinct_across_key_parts(self):
        base = stream_seed(1, "a", 0, "x")
        assert stream_seed(2, "a", 0, "x") != base
        assert stream_seed(1, "b", 0, "x") != base
        assert stream_seed(1, "a", 1, "x") != base
        assert stream_seed(1, "a", 0, "y") != base

    @given(
        global_seed=st.one_of(
            st.integers(min_value=-(2**70), max_value=-1),
            st.integers(min_value=0, max_value=2**64),
            st.integers(min_value=2**64 + 1, max_value=2**130),
        ),
        purpose=st.sampled_from(["corpus", "adaptive", "fixed", "policy", "Zweck-éß"]),
        round_index=st.integers(min_value=0, max_value=40),
        instance_ids=st.lists(st.text(max_size=12), max_size=12),
    )
    @example(
        global_seed=-1,
        purpose="adaptive",
        round_index=0,
        instance_ids=["inst-00000", "été", "問題-7", "\U0001f600", ""],
    )
    @example(global_seed=2**64 + 3, purpose="policy", round_index=7, instance_ids=["a|b", "|"])
    @settings(max_examples=100, deadline=None)
    def test_bulk_seeds_match_one_at_a_time(
        self, global_seed, purpose, round_index, instance_ids
    ):
        # The key is hashed whole, as UTF-8, so the shared-prefix hash must
        # give what a hash of each full key gives.
        got = _stream_seeds(global_seed, purpose, round_index, instance_ids)
        assert got == [
            stream_seed(global_seed, purpose, round_index, instance_id)
            for instance_id in instance_ids
        ]
        keys = [f"{global_seed}|{purpose}|{round_index}|{i}".encode() for i in instance_ids]
        assert got == [
            int.from_bytes(hashlib.blake2b(key, digest_size=16).digest(), "big") for key in keys
        ]


# Stream seeds as the drivers make them, plus seeds of one, two, three and
# four 32-bit words, since SeedSequence hashes a seed word by word.
LANE_SEEDS = [stream_seed(6, "lanes", 0, f"inst-{i:05d}") for i in range(200)] + [
    0,
    1,
    2**32 - 1,
    2**32,
    2**96 - 1,
    2**96,
    2**128 - 1,
]


def _columns(instances):
    """The true-answer and vote-accuracy columns ``_categorical_votes`` reads."""
    return (
        np.array([inst.true_answer for inst in instances]),
        np.array([inst.p0_true for inst in instances]),
    )


class TestLanes:
    """Reading many streams at once equals one numpy Generator per stream."""

    def test_seed_words_match_seed_sequence(self):
        for seed, words in zip(LANE_SEEDS, _seed_words(LANE_SEEDS)):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert words.tolist() == expected.tolist(), seed

    @pytest.mark.parametrize("lanes", [3, 4096])
    def test_outputs_match_the_bit_generator(self, lanes, monkeypatch):
        monkeypatch.setattr(seeding, "_LANES", lanes)
        got = _pcg64_outputs(LANE_SEEDS, 100)
        doubles = _uniforms(LANE_SEEDS, 100)
        for seed, outputs, uniforms in zip(LANE_SEEDS, got, doubles):
            rng = np.random.default_rng(seed)
            assert outputs.tolist() == rng.bit_generator.random_raw(100).tolist(), seed
            assert uniforms.tolist() == np.random.default_rng(seed).random(100).tolist(), seed

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 37, 64])
    def test_categorical_votes_match_sources(self, m):
        instances = gen_instances(len(LANE_SEEDS), m, P0Spec.uniform(0.05, 0.95), seed=8)
        for n in (0, 1, 63, 64, 65, 256, 300):
            got = _categorical_votes(*_columns(instances), m, LANE_SEEDS, n)
            assert got.shape == (len(instances), n)
            for inst, seed, votes in zip(instances, LANE_SEEDS, got):
                expected = CategoricalVoteSource(inst, seed).take(n)[0]
                assert votes.tolist() == expected.tolist(), (m, n, seed)

    @pytest.mark.parametrize("m", [2, 3, 4, 37, 2**40, 2**62])
    def test_votes_match_the_per_vote_oracle(self, m, monkeypatch):
        # The oracle applies the definition in Python floats, one random()
        # call per vote; the source takes in uneven parts. Narrow lanes run
        # one pass per lane or three, so they read the last nine rows only,
        # which hold every hand-picked seed.
        seeds = LANE_SEEDS[:40] + LANE_SEEDS[-7:]
        instances = reference_corpus(len(seeds), m, P0Spec.uniform(0.05, 0.95), seed=8)
        for n in (1, 64, 256, 257, 1000):
            want = [
                CategoricalVoteOracle(inst, seed).take(n)[0].tolist()
                for inst, seed in zip(instances, seeds)
            ]
            assert 0 <= min(map(min, want)) and max(map(max, want)) < m
            for inst, seed, votes in zip(instances, seeds, want):
                source = CategoricalVoteSource(inst, seed)
                parts = [source.take(k)[0] for k in (n // 3, 0, n - n // 3 - 1, 1)]
                assert np.concatenate(parts).tolist() == votes, (m, n, seed)
            for lanes in (1, 3, 4096):
                monkeypatch.setattr(seeding, "_LANES", lanes)
                rows = slice(None) if lanes == 4096 else slice(-9, None)
                true, p0 = _columns(instances[rows])
                got = _categorical_votes(true, p0, m, seeds[rows], n)
                assert got.tolist() == want[rows], (m, n, lanes)

    @pytest.mark.parametrize("m", [2, 4, 37, 2**40, 2**62])
    def test_crafted_uniforms_pin_the_edges(self, m):
        # u == p0 is a miss on the lowest wrong answer.
        for true in (0, 1, m - 1):
            expected = 0 + (0 >= true)
            assert _categorical(np.array([0.25]), true, 0.25, m).tolist() == [expected]
            assert categorical_vote(0.25, true, 0.25, m) == expected
        # The largest uniform below 1 at p0 = 0.3: the miss fraction rounds
        # to 1.0, so only the clamp at m - 2 keeps the vote in range.
        u, p0 = float(np.nextafter(1.0, 0.0)), 0.3
        assert (u - p0) / (1 - p0) == 1.0
        for true in (0, m - 1):
            expected = m - 2 + (m - 2 >= true)
            assert _categorical(np.array([u]), true, p0, m).tolist() == [expected]
            assert categorical_vote(u, true, p0, m) == expected
        # As a corpus draw the same uniform stays below the answer count,
        # and up to 2**53 it is exactly the last answer.
        for size in (m, m + 1, 2**63 - 1):
            answer = math.floor(u * size)
            assert answer < size and (answer == size - 1 or size > 2**53)
            assert np.floor(np.array([u]) * float(size)).astype(np.int64).tolist() == [answer]

    @pytest.mark.parametrize("m", [2, 4, 8, 37, 3 * 2**30])
    @pytest.mark.parametrize(
        "spec",
        [P0Spec.mixture(0.5, 0.95, 0.5), P0Spec.uniform(0.4, 0.9), P0Spec.constant(0.8)],
        ids=["mixture", "uniform", "constant"],
    )
    def test_corpus_matches_one_generator_per_instance(self, m, spec):
        for inst in gen_instances(300, m, spec, seed=9):
            rng = np.random.default_rng(stream_seed(9, "corpus", 0, inst.instance_id))
            u1, u2 = rng.random(2).tolist()
            expected = (math.floor(u1 * m), p0_of(spec, u2))
            assert (inst.true_answer, inst.p0_true) == expected

    @pytest.mark.parametrize("m", [2, 4, 37, 3 * 2**30 + 1, 2**32])
    @pytest.mark.parametrize(
        "spec",
        [P0Spec.mixture(0.5, 0.95, 0.5), P0Spec.uniform(0.4, 0.9), P0Spec.constant(0.8)],
        ids=["mixture", "uniform", "constant"],
    )
    def test_corpus_columns_match_instances(self, m, spec, monkeypatch):
        monkeypatch.setattr(seeding, "_LANES", 7)
        ids, true, p0 = _corpus(300, m, spec, seed=9)
        instances = gen_instances(300, m, spec, seed=9)
        assert true.dtype == np.int64 and p0.dtype == np.float64
        assert ids == [inst.instance_id for inst in instances]
        assert true.tolist() == [inst.true_answer for inst in instances]
        assert p0.tolist() == [inst.p0_true for inst in instances]
        assert instances == reference_corpus(300, m, spec, seed=9)

    @pytest.mark.parametrize("m", [2, 3, 8, 37])
    def test_policy_votes_match_sources(self, m):
        rng = np.random.default_rng(m)
        probs = rng.dirichlet(np.full(m, 0.4), size=len(LANE_SEEDS))
        probs[0] = np.eye(m)[-1]
        for n in (0, 1, 64, 256, 300, 600):
            uniforms = _uniforms(LANE_SEEDS, n)
            got = _policy_votes(probs, uniforms)
            for p, seed, votes in zip(probs, LANE_SEEDS, got):
                assert votes.tolist() == PolicyVoteSource(p, seed).take(n)[0].tolist()

    @pytest.mark.parametrize("m", [2, 3, 33, 64])
    def test_policy_votes_skip_zero_probability_answers(self, m):
        # Zero columns first, last and inside: repeated cdf entries.
        rng = np.random.default_rng(m + 70)
        probs = rng.dirichlet(np.full(m, 0.5), size=len(LANE_SEEDS))
        zero = rng.random(probs.shape) < 0.4
        zero[::3, 0] = zero[1::3, -1] = True
        zero[np.arange(len(probs)), rng.integers(m, size=len(probs))] = False
        probs = np.where(zero, 0.0, probs)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[:2] = np.eye(m)[[0, -1]]
        uniforms = _uniforms(LANE_SEEDS, 64)
        got = _policy_votes(probs, uniforms)
        assert (probs[np.arange(len(probs))[:, None], got] > 0).all()
        for p, seed, votes in zip(probs, LANE_SEEDS, got):
            assert votes.tolist() == PolicyVoteSource(p, seed).take(64)[0].tolist()

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([1.1, -0.1, 0.0], "non-negative"),
            ([0.5, 0.49, 0.0], "sum to 1"),
            ([0.5, np.nan, 0.5], "finite"),
        ],
    )
    def test_refused_rows_raise_what_the_source_raises(self, bad, message):
        with pytest.raises(ValueError, match=message):
            PolicyVoteSource(np.array(bad), LANE_SEEDS[1]).take(4)


def write_trace(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def trace_row(instance_id, rollout_index, answer, tokens=100, **extra):
    row = {
        "instance_id": instance_id,
        "rollout_index": rollout_index,
        "answer": answer,
        "tokens": tokens,
    }
    row.update(extra)
    return row


class TestLoadTrace:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_trace(path) == {}

    def test_first_seen_answer_mapping(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(
            path,
            [
                trace_row("q1", 0, "7", tokens=120),
                trace_row("q1", 1, "7", tokens=80),
                trace_row("q1", 2, "9", tokens=95),
            ],
        )
        sources = load_trace(path)
        source = sources["q1"]
        assert source.m == 2
        answers, tokens = source.take(4)
        assert (answers.tolist(), tokens.tolist()) == ([0, 0, 1], [120, 80, 95])
        assert source.answer_string(0) == "7"
        assert source.answer_string(1) == "9"

    def test_unanimous_trace_gets_floor_m(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [trace_row("q1", 0, "42"), trace_row("q1", 1, "42")])
        assert load_trace(path)["q1"].m == 2

    def test_duplicate_rollout_index_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(
            path, [trace_row("q1", 0, "a"), trace_row("q1", 0, "b")]
        )
        with pytest.raises(CorpusError, match="line 2"):
            load_trace(path)

    def test_non_dense_indices_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [trace_row("q1", 0, "a"), trace_row("q1", 2, "b")])
        with pytest.raises(CorpusError, match="dense"):
            load_trace(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"instance_id": "q1"\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_trace(path)

    @pytest.mark.parametrize(
        "row",
        [
            {"rollout_index": 0, "answer": "a", "tokens": 5},
            trace_row("q1", "0", "a"),
            trace_row("q1", 0, 7),
            trace_row("q1", 0, "a", tokens=0),
            trace_row("q1", -1, "a"),
            trace_row("q1", 0, "a", tokens=True),
        ],
    )
    def test_bad_fields_rejected(self, tmp_path, row):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [row])
        with pytest.raises(CorpusError):
            load_trace(path)

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [trace_row("q1", 0, "a", model="foo", step=3)])
        answers, tokens = load_trace(path)["q1"].take(2)
        assert (answers.tolist(), tokens.tolist()) == ([0], [100])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_trace(tmp_path / "absent.jsonl")

    def test_interleaved_instances(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(
            path,
            [
                trace_row("q1", 0, "a"),
                trace_row("q2", 0, "x"),
                trace_row("q1", 1, "b"),
                trace_row("q2", 1, "x"),
            ],
        )
        sources = load_trace(path)
        assert set(sources) == {"q1", "q2"}
        assert sources["q1"].take(2)[0].tolist() == [0, 1]
        assert sources["q2"].take(2)[0].tolist() == [0, 0]

    def test_replay_reserializes_to_canonical_input(self, tmp_path):
        rows = [
            trace_row("q1", 0, "7", tokens=120),
            trace_row("q1", 1, "9", tokens=80),
            trace_row("q1", 2, "7", tokens=95),
        ]
        path = tmp_path / "trace.jsonl"
        write_trace(path, rows)
        source = load_trace(path)["q1"]
        answers, tokens = source.take(len(rows) + 1)
        replayed = [
            canonical_trace_line(TraceRecord("q1", index, source.answer_string(answer), cost))
            for index, (answer, cost) in enumerate(zip(answers.tolist(), tokens.tolist()))
        ]
        expected = [
            json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows
        ]
        assert replayed == expected


class TestLoadLabels:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("instance_id,answer\nq1,7\nq2,13\n", encoding="utf-8")
        assert load_labels(path) == {"q1": "7", "q2": "13"}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\nq1,7\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_labels(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("instance_id,answer\nq1,7\nq1,9\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_labels(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_labels(tmp_path / "absent.csv")


def _fresh_sources():
    instance = SyntheticInstance(
        instance_id="i", true_answer=1, m=5, p0_true=0.6, cost_per_vote=3
    )
    policy = SoftmaxAnswerPolicy(logits=np.array([0.3, -1.0, 2.0, 0.0]))
    return [
        lambda: CategoricalVoteSource(instance, stream_seed(3, "arm", 0, "i")),
        lambda: PolicyVoteSource(policy.probabilities(), stream_seed(3, "policy", 0, "i"), cost=2),
    ]


class TestTake:
    """take(n) is n one-vote takes at once: same votes, same costs, same
    stream after."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("kind", [0, 1])
    def test_take_equals_repeated_draws(self, kind, n):
        make = _fresh_sources()[kind]
        single = make()
        taken = make()
        expected = [draw(single) for _ in range(n)]
        answers, costs = taken.take(n)
        assert list(zip(answers.tolist(), costs.tolist())) == expected
        # The streams stay in step afterwards.
        assert taken.take(300)[0].tolist() == single.take(300)[0].tolist()

    @pytest.mark.parametrize("kind", [0, 1])
    def test_interleaved_draw_and_take(self, kind):
        make = _fresh_sources()[kind]
        mixed = make()
        got = []
        for step, n in enumerate([3, 250, 1, 256, 40, 600, 7]):
            if step % 2:
                got += [draw(mixed) for _ in range(n)]
            else:
                answers, costs = mixed.take(n)
                got += list(zip(answers.tolist(), costs.tolist()))
        answers, costs = make().take(len(got))
        assert got == list(zip(answers.tolist(), costs.tolist()))

    def test_negative_rejected(self):
        for make in _fresh_sources():
            with pytest.raises(ValueError):
                make().take(-1)

    def test_trace_take_stops_at_the_end(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [TraceRecord("q", i, "ab"[i % 2], 10 + i) for i in range(5)]
        path.write_text("\n".join(canonical_trace_line(r) for r in records) + "\n")
        source = load_trace(path)["q"]
        answers, costs = source.take(2)
        rest_answers, rest_costs = source.take(5)
        assert answers.tolist() + rest_answers.tolist() == [0, 1, 0, 1, 0]
        assert costs.tolist() + rest_costs.tolist() == [10, 11, 12, 13, 14]
        # A dry source hands out empty int64 arrays, whatever is asked.
        for n in (3, 0, 1):
            dry_answers, dry_costs = source.take(n)
            assert dry_answers.size == dry_costs.size == 0
            assert dry_answers.dtype == dry_costs.dtype == np.int64
