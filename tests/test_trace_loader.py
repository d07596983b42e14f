"""The columnar trace loader against the record-at-a-time oracle.

``trace_reference`` keeps the loader that ``ttpo.synth.load_trace`` replaced.
On valid traces both must build the same sources; on malformed ones both
must raise the same error with the same message.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trace_reference
from stopper_reference import draw
from ttpo.errors import CorpusError
from ttpo.synth import _parse_trace_line, load_trace


def line(instance_id="q1", rollout_index=0, answer="a", tokens=5, **extra):
    return json.dumps(
        {
            "instance_id": instance_id,
            "rollout_index": rollout_index,
            "answer": answer,
            "tokens": tokens,
            **extra,
        }
    )


def raw_line(**fields):
    """A record line whose field values are given as raw JSON text."""
    values = {"instance_id": '"q1"', "rollout_index": "0", "answer": '"a"', "tokens": "5"}
    values.update(fields)
    return "{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}"


def lines_of(*rollouts, instance_id="q1"):
    """Trace text of one instance's (rollout_index, answer) pairs, in the order given."""
    return "".join(line(instance_id, index, answer) + "\n" for index, answer in rollouts)


def write(tmp_path, text, name="trace.jsonl"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def summary(source):
    """Everything a source exposes, read to the end in takes of mixed sizes."""
    m = source.m
    out = {
        "instance_id": source.instance_id,
        "m": m,
        "answer_string": [source.answer_string(i) for i in range(-2, m + 3)],
    }
    # 256 votes in all, more than any trace here holds: the last takes find
    # the source dry.
    steps = []
    for step, n in enumerate([0, 1, 3, 2, 5, 40, 1, 200, 4]):
        if step % 3 == 1:
            got = [draw(source) for _ in range(n)]
        else:
            ids, tokens = source.take(n)
            assert ids.dtype == np.int64 and tokens.dtype == np.int64
            got = list(zip(ids.tolist(), tokens.tolist()))
        steps.append(got)
    out["steps"] = steps
    return out


def outcome(loader, path):
    try:
        sources = loader(path)
    except Exception as exc:  # the exception type and message are the result
        return type(exc), str(exc)
    return list(sources), [summary(source) for source in sources.values()]


def valid_trace(rng):
    """Interleaved, shuffled instances; escaped and non-ASCII answers."""
    vocab = ["7", "-3/4", "\\frac{1}{2}", 'say "x"', "é", "∞", " ", "", "a\tb", "0"]
    lines = []
    for i in range(25):
        instance_id = f"inst-{i}" if i % 7 else f"ü-{i}"
        length = rng.choice([1, 2, 5, 30, 70])
        width = rng.randint(1, len(vocab))
        for index in range(length):
            extra = {"model": "m", "step": index} if rng.random() < 0.2 else {}
            lines.append(
                line(instance_id, index, rng.choice(vocab[:width]), rng.randint(1, 999), **extra)
            )
    rng.shuffle(lines)
    return lines


@pytest.mark.parametrize("seed", range(4))
def test_valid_traces_match_reference(tmp_path, seed):
    rng = random.Random(seed)
    lines = valid_trace(rng)
    # Layout variants the line grammar allows: blank lines, CRLF endings,
    # padding around the object, compact separators, no final newline.
    for i in rng.sample(range(len(lines)), 20):
        lines[i] = rng.choice(["  ", "\t", ""]) + lines[i] + rng.choice([" ", "\t ", ""])
    for i in rng.sample(range(len(lines)), 20):
        lines[i] = json.dumps(json.loads(lines[i]), separators=(",", ":"))
    for i in sorted(rng.sample(range(len(lines)), 5), reverse=True):
        lines.insert(i, rng.choice(["", "   ", "\t", " "]))
    newline = "\r\n" if seed % 2 else "\n"
    path = write(tmp_path, newline.join(lines))
    got = outcome(load_trace, path)
    assert got == outcome(trace_reference.load_trace, path)
    assert len(got[0]) == 25
    assert 2 in [source["m"] for source in got[1]]  # a unanimous or one-rollout source


@pytest.mark.parametrize("seed", range(3))
def test_partly_ordered_traces_match_reference(tmp_path, seed):
    """Instances in index order, in order and then shuffled, and reversed,
    merged so that each keeps its own line order."""
    rng = random.Random(seed)
    vocab = ["7", "-3/4", "\\frac{1}{2}", "é", "∞", "", "0"]
    queues = []
    for i in range(12):
        length = rng.choice([1, 2, 5, 30, 70])
        indices = list(range(length))
        if i % 3 == 1:
            tail = indices[rng.randrange(length) :]
            rng.shuffle(tail)
            indices[length - len(tail) :] = tail
        elif i % 3 == 2:
            indices.reverse()
        answers = vocab[: rng.randint(1, len(vocab))]
        queues.append(
            [
                line(f"inst-{i}", index, rng.choice(answers), rng.randint(1, 999))
                for index in indices
            ]
        )
    lines = []
    while queues:
        queue = rng.choice(queues)
        lines.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    path = write(tmp_path, "\n".join(lines) + "\n")
    got = outcome(load_trace, path)
    assert got == outcome(trace_reference.load_trace, path)
    assert len(got[0]) == 12


@st.composite
def small_traces(draw):
    """Up to three instances of up to eight rollouts, in index order or
    shuffled; a quarter of them have a gap and a quarter a duplicate."""
    lines = []
    for instance in range(draw(st.integers(1, 3))):
        indices = list(range(draw(st.integers(1, 8))))
        if draw(st.integers(0, 3)) == 0:
            del indices[draw(st.integers(0, len(indices) - 1))]
        if draw(st.integers(0, 3)) == 0:
            indices.append(draw(st.integers(0, 8)))
        lines += [
            line(f"q{instance}", index, draw(st.sampled_from("abc")), draw(st.integers(1, 3)))
            for index in indices
        ]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "".join(text + "\n" for text in lines)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=small_traces())
def test_small_traces_match_reference(tmp_path, text):
    path = write(tmp_path, text)
    assert outcome(load_trace, path) == outcome(trace_reference.load_trace, path)


GOOD = line()

MALFORMED = {
    "empty-file": "",
    "only-blank-lines": "\n   \n\t\n",
    "leading-whitespace": "   " + GOOD + "\n",
    "trailing-whitespace": GOOD + " \t \n",
    "crlf": GOOD + "\r\n" + line(rollout_index=1) + "\r\n",
    "no-final-newline": GOOD,
    "bom-first-line": "\ufeff" + GOOD + "\n",
    "bom-later-line": GOOD + "\n\ufeff" + line(rollout_index=1) + "\n",
    "whitespace-only-lines": "\n \n" + GOOD + "\n\t\t\n \n\x0b\n",
    "extra-keys": line(model="m", meta={"a": [1, 2, {"b": None}]}) + "\n",
    "index-true": raw_line(rollout_index="true"),
    "index-float": raw_line(rollout_index="1.0"),
    "index-null": raw_line(rollout_index="null"),
    "index-nan": raw_line(rollout_index="NaN"),
    "index-string": raw_line(rollout_index='"0"'),
    "tokens-true": raw_line(tokens="true"),
    "tokens-false": raw_line(tokens="false"),
    "tokens-float": raw_line(tokens="1.0"),
    "tokens-null": raw_line(tokens="null"),
    "tokens-nan": raw_line(tokens="NaN"),
    "tokens-infinity": raw_line(tokens="-Infinity"),
    "tokens-exponent": raw_line(tokens="1e3"),
    "tokens-int64-max": raw_line(tokens=str(2**63 - 1)),
    "negative-index": raw_line(rollout_index="-1"),
    "zero-tokens": raw_line(tokens="0"),
    "negative-tokens": raw_line(tokens="-4"),
    "answer-number": raw_line(answer="7"),
    "answer-null": raw_line(answer="null"),
    "instance-id-number": raw_line(instance_id="1"),
    "missing-instance-id": '{"rollout_index": 0, "answer": "a", "tokens": 5}',
    "missing-index": '{"instance_id": "q1", "answer": "a", "tokens": 5}',
    "missing-answer": '{"instance_id": "q1", "rollout_index": 0, "tokens": 5}',
    "missing-tokens": '{"instance_id": "q1", "rollout_index": 0, "answer": "a"}',
    "missing-and-mistyped": '{"instance_id": 3, "tokens": 5}',
    "duplicate-key": raw_line(tokens='5, "tokens": "x"'),
    "array-line": "[1, 2]",
    "string-line": '"text"',
    "number-line": "42",
    "null-line": "null",
    "not-json": GOOD + "\nnot json\n",
    "truncated-object": '{"instance_id": "q1", "rollout_index": 0,',
    "two-objects-one-line": GOOD + line(rollout_index=1) + "\n",
    "object-then-text": GOOD + " x\n",
    "object-then-nbsp": GOOD + "\u00a0\n",
    "object-then-form-feed": GOOD + "\x0c\n",
    "object-split-over-two-lines": (
        '{"instance_id": "q1", "rollout_index": 0,\n "answer": "a", "tokens": 5}\n'
    ),
    "bad-escape": raw_line(answer='"\\q"'),
    "duplicate-index": GOOD + "\n" + line(answer="b") + "\n",
    "duplicate-index-other-instance-ok": GOOD + "\n" + line("q2") + "\n",
    "duplicate-after-bad-line-order": GOOD + "\n" + GOOD + "\nnot json\n",
    "gap-in-indices": GOOD + "\n" + line(rollout_index=2) + "\n",
    "not-from-zero": line(rollout_index=1) + "\n" + line(rollout_index=2) + "\n",
    "non-dense-long": "\n".join(line(rollout_index=i) for i in range(1, 12)) + "\n",
    "huge-index": line(rollout_index=10**30) + "\n",
    "dense-error-names-first-bad-instance": (
        "\n".join([line("b", 1), line("a", 5), line("a", 0)]) + "\n"
    ),
    "bad-line-after-non-dense": line(rollout_index=3) + "\n{\n",
    # Instances switch from in order to out of order at their first line whose
    # index is not the next one.
    "in-order-then-out-of-order": lines_of(
        (0, "a"), (1, "b"), (2, "a"), (6, "d"), (4, "c"), (5, "e"), (3, "b")
    ),
    "in-order-then-gap": lines_of((0, "a"), (1, "b"), (3, "c")),
    "duplicate-of-in-order-index": lines_of((0, "a"), (1, "b"), (2, "c"), (1, "d")),
    "duplicate-after-switch-of-in-order-index": lines_of((0, "a"), (2, "b"), (1, "c"), (0, "d")),
    "duplicate-after-switch-of-late-index": lines_of((0, "a"), (2, "b"), (1, "c"), (2, "d")),
    "duplicate-after-switch-then-bad-line": lines_of((1, "a"), (0, "b"), (1, "c")) + "{\n",
    "duplicate-then-missing-field": lines_of((0, "a"), (0, "b")) + raw_line(tokens="null"),
    "interleaved-one-in-order-one-not": "".join(
        line(instance_id, index, answer) + "\n"
        for instance_id, index, answer in [
            ("q1", 0, "a"), ("q2", 2, "x"), ("q1", 1, "b"), ("q2", 0, "y"),
            ("q1", 2, "a"), ("q2", 1, "z"), ("q1", 3, "c"), ("q2", 3, "y"),
        ]
    ),
    "interleaved-dense-error-after-out-of-order-instance": "".join(
        line(instance_id, index) + "\n"
        for instance_id, index in [("q1", 1), ("q2", 0), ("q1", 0), ("q2", 2)]
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_lines_match_reference(tmp_path, name):
    path = write(tmp_path, MALFORMED[name])
    got = outcome(load_trace, path)
    assert got == outcome(trace_reference.load_trace, path)
    if isinstance(got[0], type):
        assert got[0] is CorpusError


def test_tokens_beyond_int64_rejected(tmp_path):
    # The reference keeps such a record and overflows later, when its tokens
    # are turned into an array; token columns are int64 here.
    path = write(tmp_path, GOOD + "\n" + raw_line(rollout_index="1", tokens=str(2**63)) + "\n")
    with pytest.raises(CorpusError, match=r"^trace line 2: tokens must be <= 9223372036854775807$"):
        load_trace(path)


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, raw_line(meta="[" * 100_000 + "]" * 100_000), '{"a": ' * 50_000],
    ids=["bare-array", "inside-a-record", "objects"],
)
def test_deep_nesting_is_invalid_json(tmp_path, text):
    path = write(tmp_path, GOOD + "\n" + text + "\n")
    message = r"^trace line 2: invalid JSON \(nested too deeply\)$"
    with pytest.raises(CorpusError, match=message):
        load_trace(path)
    with pytest.raises(CorpusError, match=message.replace("2", "7")):
        _parse_trace_line(7, text)


def test_non_utf8_trace_names_the_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(GOOD.encode() + b"\n\xff\xfe\n")
    with pytest.raises(CorpusError, match=f"cannot read trace file {path}: not valid UTF-8"):
        load_trace(path)


def test_columns_are_shared_and_read_only(tmp_path):
    path = write(tmp_path, "\n".join(line(rollout_index=i, tokens=i + 1) for i in range(4)))
    source = load_trace(path)["q1"]
    ids, tokens = source.take(3)
    with pytest.raises(ValueError):
        tokens[0] = 99
    with pytest.raises(ValueError):
        ids[0] = 1
    rest = source.take(4)[1]
    assert rest.tolist() == [4]
    # Every take is a view of the same token column.
    assert rest.base is tokens.base is not None


def test_ingest_memory_per_rollout(tmp_path):
    """A rollout costs its id and token count, not a record of its own.

    The trace is shaped like recorded math rollouts: 200 instances of 100
    rollouts in index order, each drawing from 32 answer strings with
    Zipf-like weights. Ingest's peak, sources included, is about 42 bytes
    a rollout; a dict-of-tuples layout that keeps each line's answer string
    and token int needs about 210.
    """
    rng = random.Random(0)
    instances, rollouts = 200, 100
    lines = []
    for i in range(instances):
        vocab = [f"{rng.randint(-999, 999)}/{rng.randint(2, 97)}" for _ in range(32)]
        answers = rng.choices(vocab, [1 / rank for rank in range(1, 33)], k=rollouts)
        lines += [
            line(f"q-{i:05d}", index, answer, rng.randint(200, 2000))
            for index, answer in enumerate(answers)
        ]
    path = write(tmp_path, "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        sources = load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sources) == instances
    per_rollout = peak / (instances * rollouts)
    assert per_rollout < 80, f"{per_rollout:.0f} bytes per rollout"
