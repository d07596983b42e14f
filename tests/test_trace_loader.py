"""The columnar trace loader against the record-at-a-time oracle.

``trace_reference`` keeps the loader that ``ttpo.synth.load_trace`` replaced.
On valid traces both must build the same sources; on malformed ones both
must raise the same error with the same message. Each differential test
runs twice through the ``ingest`` fixture: under its own name with every
trace read in one process, and as ``<name>_in_halves`` with every trace that
has a second half read as two halves at once, the second by a forked helper.
"""

import json
import os
import random
import signal
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trace_reference
from stopper_reference import draw
from ttpo import synth
from ttpo.errors import CorpusError
from ttpo.synth import _parse_trace_line, load_trace


@pytest.fixture
def ingest(request, monkeypatch):
    """Sends every ``load_trace`` call of a differential test down one path:
    two halves at once, at any size, in the tests named ``*_in_halves``
    (see the end of this file), one process in the others. Records, per
    call, where the file was split (``splits``) and whether the two halves
    were merged (``merged``; False when the trace was read in one pass)."""
    two = request.node.originalname.endswith("_in_halves")
    if two:
        monkeypatch.setattr(synth, "_SPLIT_MIN_BYTES", 0)
    else:
        monkeypatch.setattr(os, "fork", None)  # any fork would fail the test
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 2 if two else 1)
    seen = SimpleNamespace(two=two, splits=[], merged=[])
    split_offset, group_halves = synth._split_offset, synth._group_halves

    def recorded_split(fd, size):
        seen.splits.append(split_offset(fd, size))
        return seen.splits[-1]

    def recorded_halves(path):
        grouped = group_halves(path)
        seen.merged.append(grouped is not None)
        return grouped

    monkeypatch.setattr(synth, "_split_offset", recorded_split)
    monkeypatch.setattr(synth, "_group_halves", recorded_halves)
    return seen


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
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


def split_after(head, tail):
    """``head + tail`` padded with whitespace-only lines, at the start or the
    end, so that a two-half read splits it right after ``head``, which ends
    in a line ending with a ``\n`` byte, as ``tail`` does. Takes and gives
    str or bytes; ``SPLIT_AT`` records where the split falls."""
    text = isinstance(head, str)
    head_bytes, tail_bytes = (head.encode(), tail.encode()) if text else (head, tail)
    assert head_bytes.endswith(b"\n") and tail_bytes.endswith(b"\n")
    # The split is just past the first \n at or after the middle byte, and
    # head's last byte is the middle when the end padding minus the start
    # padding is len(head) - len(tail) - 2.
    skew = len(head_bytes) - len(tail_bytes) - 2
    start = b" " * (-skew - 1) + b"\n" if skew < 0 else b""
    end = b" " * (skew - 1) + b"\n" if skew > 0 else b""
    padded = start + head_bytes + tail_bytes + end
    return SimpleNamespace(text=padded.decode() if text else padded, split=len(start + head_bytes))


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
def test_valid_traces_match_reference(tmp_path, seed, ingest):
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
    assert ingest.merged == [ingest.two]


@pytest.mark.parametrize("seed", range(3))
def test_partly_ordered_traces_match_reference(tmp_path, seed, ingest):
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
    assert ingest.merged == [ingest.two]


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
def test_small_traces_match_reference(tmp_path, ingest, text):
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

# Two-half reads split these right after the first part. The file as a whole
# decides what is accepted and which error comes first.
SPLIT_EDGES = {
    name: split_after(head, tail)
    for name, (head, tail) in {
        "split-straddling-instance": (
            lines_of((0, "a"), (1, "b"), (2, "a")) + line("q2", 0, "x") + "\n",
            lines_of((3, "c"), (4, "b"), (5, "a")) + line("q2", 1, "a") + "\n",
        ),
        "split-straddling-out-of-order": (
            lines_of((2, "a"), (0, "b")) + lines_of((1, "x"), instance_id="q2"),
            lines_of((1, "c"), (3, "b")) + lines_of((0, "y"), instance_id="q2"),
        ),
        "split-straddling-in-order-then-not": (
            lines_of((0, "a"), (1, "b")),
            lines_of((3, "c"), (2, "a")),
        ),
        "split-straddling-not-dense": (lines_of((0, "a"), (1, "b")), lines_of((3, "c"))),
        "split-second-half-restarts-at-zero": (
            lines_of((0, "a"), (1, "b")),
            lines_of((0, "c"), (1, "a")),
        ),
        "split-duplicate-across-halves": (
            lines_of((0, "a"), (1, "b")),
            lines_of((2, "a"), (1, "c")),
        ),
        "split-bad-line-then-duplicate-across-halves": (
            lines_of((0, "a"), (1, "b")),
            "not json\n" + lines_of((0, "c")),
        ),
        "split-duplicate-across-halves-then-bad-line": (
            lines_of((0, "a"), (1, "b")),
            lines_of((0, "c")) + "not json\n",
        ),
        "split-bad-line-before-split-duplicate-after": (
            lines_of((0, "a")) + "{\n" + lines_of((1, "b")),
            lines_of((1, "c")),
        ),
        "split-at-crlf": (
            lines_of((0, "a")).replace("\n", "\r\n") + line(rollout_index=1) + "\r\n",
            line(rollout_index=2) + "\r\n" + line(rollout_index=3) + "\r\n",
        ),
        "split-at-lone-cr": (
            line(rollout_index=0) + "\r" + line(rollout_index=1) + "\n",
            "\r" + line(rollout_index=2) + "\r\r" + line(rollout_index=3) + "\n",
        ),
        "split-after-multibyte": (
            line(rollout_index=0) + "\n"
            + '{"instance_id": "q1", "rollout_index": 1, "tokens": 5, "answer": "é€"}\n',
            '{"answer": "∞", "instance_id": "q1", "rollout_index": 2, "tokens": 5}\n',
        ),
        "split-before-multibyte": (lines_of((0, "a"), (1, "b")), "\u00a0" + GOOD + "\n"),
        "split-invalid-utf8-in-first-half": (
            GOOD.encode() + b"\n\xff\xfe\n",
            line(rollout_index=1).encode() + b"\n",
        ),
        "split-invalid-utf8-in-second-half": (
            GOOD.encode() + b"\n" + line(rollout_index=1).encode() + b"\n",
            b"\xe2\x88\n" + line(rollout_index=2).encode() + b"\n",
        ),
    }.items()
}
MALFORMED.update({name: edge.text for name, edge in SPLIT_EDGES.items()})
SPLIT_AT = {name: edge.split for name, edge in SPLIT_EDGES.items()}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_lines_match_reference(tmp_path, name, ingest):
    path = write(tmp_path, MALFORMED[name])
    got = outcome(load_trace, path)
    assert got == outcome(trace_reference.load_trace, path)
    if isinstance(got[0], type):
        assert got[0] is CorpusError
    if name in SPLIT_AT and ingest.two:
        assert ingest.splits == [SPLIT_AT[name]]
        # Line and decode errors drop both halves; instance errors come after the merge.
        read_error = isinstance(got[0], type) and got[1].startswith(("trace line", "cannot read"))
        assert ingest.merged == [not read_error]


@pytest.mark.parametrize(
    "case",
    [
        "valid",
        "error-in-first-half",
        "error-in-second-half",
        "helper-fails",
        "helper-dies",
        "helper-dies-mid-send",
    ],
)
def test_no_helper_outlives_a_load(tmp_path, monkeypatch, capfd, case):
    """Whatever happens, load_trace reaps its helper once, and neither
    process prints anything. A helper still at work when the first half
    fails is killed, not waited for."""
    monkeypatch.setattr(synth, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
    head, tail = lines_of((0, "a"), (1, "b")), lines_of((2, "c"), (3, "a"))

    def send_with(dump):  # the helper sends its half through pickle.Pickler
        monkeypatch.setattr(
            synth.pickle,
            "Pickler",
            lambda pipe, protocol: SimpleNamespace(dump=lambda state: dump(pipe, state)),
        )

    def die_mid_send(pipe, state):
        pipe.write(synth.pickle.dumps(state)[:40])
        pipe.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    if case == "error-in-first-half":
        head = "{\n" + head
        send_with(lambda pipe, state: time.sleep(5))
    elif case == "error-in-second-half":
        tail += "{\n"
    elif case == "helper-fails":
        send_with(lambda pipe, state: 1 / 0)
    elif case == "helper-dies":
        send_with(lambda pipe, state: os.kill(os.getpid(), signal.SIGKILL))
    elif case == "helper-dies-mid-send":
        send_with(die_mid_send)
    merged, reaped = [], []
    group_halves, waitpid = synth._group_halves, os.waitpid

    def recorded_halves(path):
        grouped = group_halves(path)
        merged.append(grouped is not None)
        return grouped

    def recorded_waitpid(pid, options):
        reaped.append(waitpid(pid, options))
        return reaped[-1]

    monkeypatch.setattr(synth, "_group_halves", recorded_halves)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    path = write(tmp_path, split_after(head, tail).text)
    assert outcome(load_trace, path) == outcome(trace_reference.load_trace, path)
    assert merged == [case == "valid"]
    assert len(reaped) == 1
    status = reaped[0][1]
    if case == "valid":
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    elif case == "error-in-first-half":
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")


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
def test_deep_nesting_is_invalid_json(tmp_path, text, ingest):
    path = write(tmp_path, GOOD + "\n" + text + "\n")
    message = r"^trace line 2: invalid JSON \(nested too deeply\)$"
    with pytest.raises(CorpusError, match=message):
        load_trace(path)
    with pytest.raises(CorpusError, match=message.replace("2", "7")):
        _parse_trace_line(7, text)


def test_non_utf8_trace_names_the_file(tmp_path, ingest):
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


# The differential tests again, each trace read as two halves where it has a
# second half (see ``ingest``).
test_valid_traces_match_reference_in_halves = test_valid_traces_match_reference
test_partly_ordered_traces_match_reference_in_halves = test_partly_ordered_traces_match_reference
test_small_traces_match_reference_in_halves = test_small_traces_match_reference
test_malformed_lines_match_reference_in_halves = test_malformed_lines_match_reference
test_non_utf8_trace_names_the_file_in_halves = test_non_utf8_trace_names_the_file
test_deep_nesting_is_invalid_json_in_halves = test_deep_nesting_is_invalid_json
