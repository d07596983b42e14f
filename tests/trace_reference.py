"""Record-at-a-time trace loader: the oracle for ``ttpo.synth.load_trace``.

This is the loader the columnar one replaced: ``json.loads`` and a per-field
check on every line, one ``TraceRecord`` per rollout kept in a dict per
instance, duplicates found by index lookup and density checked by sorting
the indices at the end, and a source that keeps the record list and maps
answer strings to ids on every take. ``load_trace`` instead keeps only an id
and a token count per rollout and sorts only instances whose lines are out
of index order, so tests run both on traces in order, out of order, and in
order for a while and then not. Tests require the two to accept the same
traces, build the same sources, and reject the same lines with the same
errors. Tests write their traces with ``canonical_trace_line``.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ttpo.errors import CorpusError
from ttpo.synth import _open_corpus_file


@dataclass(frozen=True)
class TraceRecord:
    """One recorded rollout: an answer string and its token cost."""

    instance_id: str
    rollout_index: int
    answer: str
    tokens: int


def canonical_trace_line(record: TraceRecord) -> str:
    """Canonical serialized form of one trace record (sorted keys, no spaces)."""
    return json.dumps(
        {
            "answer": record.answer,
            "instance_id": record.instance_id,
            "rollout_index": record.rollout_index,
            "tokens": record.tokens,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


class TraceVoteSource:
    """Replays one instance's recorded rollouts in index order.

    A take past the end returns what is left, possibly nothing. The
    answer-id dictionary is built in first-seen order over the full trace,
    and m is the distinct-answer count floored at 2 so the noise model stays
    well formed even for unanimous traces.
    """

    def __init__(self, instance_id: str, records: list[TraceRecord]):
        self.instance_id = instance_id
        self._records = records
        id_by_answer: dict[str, int] = {}
        for record in records:
            if record.answer not in id_by_answer:
                id_by_answer[record.answer] = len(id_by_answer)
        self._id_by_answer = id_by_answer
        self._m = max(2, len(id_by_answer))
        self._pos = 0

    @property
    def m(self) -> int:
        return self._m

    def answer_string(self, answer_id: int) -> str | None:
        for answer, mapped in self._id_by_answer.items():
            if mapped == answer_id:
                return answer
        return None

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Answer ids and token costs of the next ``n`` votes (fewer at the end)."""
        if n < 0:
            raise ValueError(f"cannot take a negative number of votes, got {n}")
        records = self._records[self._pos : self._pos + n]
        self._pos += len(records)
        answers = [self._id_by_answer[record.answer] for record in records]
        tokens = [record.tokens for record in records]
        return np.array(answers, dtype=np.int64), np.array(tokens, dtype=np.int64)


def _parse_trace_line(line_no: int, line: str) -> TraceRecord:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"trace line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict):
        raise CorpusError(f"trace line {line_no}: expected an object")
    fields = {}
    for name, kind in (
        ("instance_id", str),
        ("rollout_index", int),
        ("answer", str),
        ("tokens", int),
    ):
        if name not in raw:
            raise CorpusError(f"trace line {line_no}: missing field {name!r}")
        value = raw[name]
        # bool is an int subclass; reject it explicitly for the int fields.
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CorpusError(
                f"trace line {line_no}: field {name!r} must be {kind.__name__}"
            )
        fields[name] = value
    if fields["rollout_index"] < 0:
        raise CorpusError(f"trace line {line_no}: rollout_index must be >= 0")
    if fields["tokens"] < 1:
        raise CorpusError(f"trace line {line_no}: tokens must be >= 1")
    return TraceRecord(**fields)


def load_trace(path: str | Path) -> dict[str, TraceVoteSource]:
    """Load a line-delimited trace file into per-instance replay sources."""
    grouped: dict[str, dict[int, TraceRecord]] = {}
    with _open_corpus_file(path, "trace") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = _parse_trace_line(line_no, line)
            per_instance = grouped.setdefault(record.instance_id, {})
            if record.rollout_index in per_instance:
                raise CorpusError(
                    f"trace line {line_no}: duplicate rollout_index "
                    f"{record.rollout_index} for instance {record.instance_id!r}"
                )
            per_instance[record.rollout_index] = record
    sources = {}
    for instance_id, by_index in grouped.items():
        indices = sorted(by_index)
        if indices != list(range(len(indices))):
            raise CorpusError(
                f"instance {instance_id!r}: rollout_index values must be dense "
                f"from 0, got {indices[:8]}{'...' if len(indices) > 8 else ''}"
            )
        sources[instance_id] = TraceVoteSource(
            instance_id, [by_index[i] for i in indices]
        )
    return sources
