"""The columnar trace loader against the record-at-a-time oracle.

``trace_reference`` keeps the loader that ``ttpo.synth.load_trace`` replaced.
On valid traces both must build the same sources; on malformed ones both
must raise the same error with the same message.
"""

import json
import random

import numpy as np
import pytest

import trace_reference
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


def write(tmp_path, text, name="trace.jsonl"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def summary(source):
    """Everything a source exposes, replayed on clones so the source is untouched."""
    m = source.m
    answers = [record.answer for record in source.records]
    out = {
        "instance_id": source.instance_id,
        "m": m,
        "records": source.records,
        "answer_id": [source.answer_id(a) for a in answers + ["<absent>"]],
        "answer_string": [source.answer_string(i) for i in range(-2, m + 3)],
    }
    stepped = source.clone()
    steps = []
    for step, n in enumerate([0, 1, 3, 2, 5, 40, 1, 200, 4]):
        if step % 3 == 1:
            got = [stepped.draw() for _ in range(n)]
        else:
            ids, tokens = stepped.take(n)
            assert ids.dtype == np.int64 and tokens.dtype == np.int64
            got = (ids.tolist(), tokens.tolist())
        steps.append((got, stepped.consumed()))
    out["steps"] = steps
    rewound = stepped.clone()
    out["rewound"] = (rewound.consumed(), rewound.draw(), stepped.draw())
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
    twin = source.clone()
    ids, tokens = source.take(3)
    with pytest.raises(ValueError):
        tokens[0] = 99
    assert twin.take(4)[1].tolist() == [1, 2, 3, 4]
    assert np.shares_memory(tokens, source.clone().take(1)[1])
