"""Synthetic instances, vote sources, and rollout-trace replay.

Three source kinds feed the allocator: exact categorical simulators (a vote
hits the true answer with probability ``p0_true``, otherwise lands uniformly
on a wrong answer), snapshots of a softmax answer policy, and replay of
recorded rollout traces from real model runs. Sources draw one vote at a
time but batch their underlying RNG work for speed; ``take(n)`` hands out
the next ``n`` draws as arrays, with exactly the RNG calls those draws make.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, CorpusError
from .optimizer import SoftmaxAnswerPolicy

_BUFFER_SIZE = 256


@dataclass(frozen=True)
class P0Spec:
    """Distribution of per-instance vote accuracy for corpus generation.

    Kinds: ``constant`` (one value), ``uniform`` (lo, hi), and ``mixture``
    (easy_share, p_easy, p_hard) drawing p_easy with probability easy_share.
    The mixture is the interesting regime: a corpus split into easy
    instances that reach consensus quickly and hard ones that do not.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind == "constant":
            (value,) = self._take(1)
            self._check_prob("constant value", value)
        elif self.kind == "uniform":
            lo, hi = self._take(2)
            self._check_prob("uniform lo", lo)
            self._check_prob("uniform hi", hi)
            if lo >= hi:
                raise ConfigurationError(f"uniform needs lo < hi, got ({lo}, {hi})")
        elif self.kind == "mixture":
            share, p_easy, p_hard = self._take(3)
            if not 0.0 <= share <= 1.0:
                raise ConfigurationError(f"mixture share must be in [0, 1], got {share}")
            self._check_prob("mixture p_easy", p_easy)
            self._check_prob("mixture p_hard", p_hard)
        else:
            raise ConfigurationError(f"unknown p0 distribution kind {self.kind!r}")

    def _take(self, n: int) -> tuple[float, ...]:
        if len(self.params) != n:
            raise ConfigurationError(
                f"{self.kind} p0 spec takes {n} parameter(s), got {len(self.params)}"
            )
        return self.params

    @staticmethod
    def _check_prob(name: str, value: float) -> None:
        if not 0.0 < value < 1.0:
            raise ConfigurationError(f"{name} must be in (0, 1), got {value}")

    @classmethod
    def constant(cls, value: float) -> "P0Spec":
        return cls(kind="constant", params=(value,))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "P0Spec":
        return cls(kind="uniform", params=(lo, hi))

    @classmethod
    def mixture(cls, easy_share: float, p_easy: float, p_hard: float) -> "P0Spec":
        return cls(kind="mixture", params=(easy_share, p_easy, p_hard))

    @classmethod
    def parse(cls, text: str) -> "P0Spec":
        """Parse 'constant:0.8', 'uniform:0.4,0.9', or 'mixture:0.5,0.9,0.4'."""
        kind, sep, rest = text.partition(":")
        if not sep or not rest:
            raise ConfigurationError(
                f"p0 spec must look like 'kind:value[,value...]', got {text!r}"
            )
        try:
            params = tuple(float(part) for part in rest.split(","))
        except ValueError as exc:
            raise ConfigurationError(f"non-numeric p0 spec parameter in {text!r}") from exc
        return cls(kind=kind.strip(), params=params)

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "uniform":
            lo, hi = self.params
            return float(rng.uniform(lo, hi))
        share, p_easy, p_hard = self.params
        return p_easy if rng.random() < share else p_hard


@dataclass(frozen=True)
class SyntheticInstance:
    """One simulated problem: a hidden true answer and a vote accuracy."""

    instance_id: str
    true_answer: int
    m: int
    p0_true: float
    cost_per_vote: int = 1

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least two candidate answers, got m={self.m}")
        if not 0 <= self.true_answer < self.m:
            raise ValueError(
                f"true answer {self.true_answer} out of range for m={self.m}"
            )
        if not 0.0 < self.p0_true < 1.0:
            raise ValueError(f"p0_true must be in (0, 1), got {self.p0_true}")
        if self.cost_per_vote < 1:
            raise ValueError(f"cost_per_vote must be >= 1, got {self.cost_per_vote}")


def gen_instances(
    count: int,
    m: int,
    p0_spec: P0Spec,
    seed: int,
    cost_per_vote: int = 1,
    id_prefix: str = "inst",
) -> list[SyntheticInstance]:
    """Deterministic corpus: each instance is a pure function of (seed, id)."""
    from .seeding import stream_seed

    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    instances = []
    for i in range(count):
        instance_id = f"{id_prefix}-{i:05d}"
        rng = np.random.default_rng(stream_seed(seed, "corpus", 0, instance_id))
        instances.append(
            SyntheticInstance(
                instance_id=instance_id,
                true_answer=int(rng.integers(m)),
                m=m,
                p0_true=p0_spec.sample(rng),
                cost_per_vote=cost_per_vote,
            )
        )
    return instances


class _BufferedSource:
    """Block access for sources that refill a vote buffer from their RNG.

    Subclasses keep ``_buffer``/``_pos``, a ``_refill`` that replaces the
    buffer, and a constant per-vote ``_cost``.
    """

    _buffer: np.ndarray
    _pos: int
    _cost: int

    def _refill(self) -> None:
        raise NotImplementedError

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Answers and costs of the next ``n`` draws.

        Consumes the buffer exactly as ``n`` calls to ``draw`` would, so the
        stream continues identically afterwards.
        """
        if n < 0:
            raise ValueError(f"cannot take a negative number of votes, got {n}")
        chunks = [np.empty(0, dtype=np.int64)]
        while n > 0:
            if self._pos >= self._buffer.size:
                self._refill()
            chunk = self._buffer[self._pos : self._pos + n]
            self._pos += chunk.size
            n -= chunk.size
            chunks.append(chunk)
        answers = np.concatenate(chunks)
        return answers, np.full(answers.size, self._cost, dtype=np.int64)


class CategoricalVoteSource(_BufferedSource):
    """Exact simulator of the symmetric vote-noise model, buffered."""

    def __init__(self, instance: SyntheticInstance, stream_seed: int):
        self._instance = instance
        self._cost = instance.cost_per_vote
        self._rng = np.random.default_rng(stream_seed)
        self._buffer = np.empty(0, dtype=np.int64)
        self._pos = 0

    @property
    def m(self) -> int:
        return self._instance.m

    def _refill(self) -> None:
        inst = self._instance
        hit = self._rng.random(_BUFFER_SIZE) < inst.p0_true
        # Uniform over the m-1 wrong answers: draw in [0, m-1) and skip past
        # the true answer's slot.
        wrong = self._rng.integers(0, inst.m - 1, size=_BUFFER_SIZE)
        wrong += wrong >= inst.true_answer
        self._buffer = np.where(hit, inst.true_answer, wrong)
        self._pos = 0

    def draw(self) -> tuple[int, int] | None:
        if self._pos >= self._buffer.size:
            self._refill()
        answer = int(self._buffer[self._pos])
        self._pos += 1
        return answer, self._cost


class PolicyVoteSource(_BufferedSource):
    """Draws answers from a snapshot of a softmax policy's distribution.

    The snapshot is taken at construction: after a policy update the caller
    builds a fresh source, keeping mutation visible in the simulation loop
    rather than hidden inside the source.
    """

    def __init__(self, policy: SoftmaxAnswerPolicy, stream_seed: int, cost: int = 1):
        if cost < 1:
            raise ValueError(f"cost must be >= 1, got {cost}")
        self._probs = policy.probabilities()
        self._m = policy.m
        self._cost = cost
        self._rng = np.random.default_rng(stream_seed)
        self._buffer = np.empty(0, dtype=np.int64)
        self._pos = 0

    @property
    def m(self) -> int:
        return self._m

    def _refill(self) -> None:
        self._buffer = self._rng.choice(self._m, size=_BUFFER_SIZE, p=self._probs)
        self._pos = 0

    def draw(self) -> tuple[int, int] | None:
        if self._pos >= self._buffer.size:
            self._refill()
        answer = int(self._buffer[self._pos])
        self._pos += 1
        return answer, self._cost


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

    Exhaustion is reported by returning None from draw, never by raising.
    The answer-id dictionary is built in first-seen order over the full
    trace, and m is the distinct-answer count floored at 2 so the noise
    model stays well formed even for unanimous traces.
    """

    def __init__(self, instance_id: str, records: list[TraceRecord]):
        self.instance_id = instance_id
        self._records = records
        id_by_answer: dict[str, int] = {}
        for record in records:
            if record.answer not in id_by_answer:
                id_by_answer[record.answer] = len(id_by_answer)
        self._id_by_answer = id_by_answer
        self._answers = [record.answer for record in records]
        self._m = max(2, len(id_by_answer))
        self._pos = 0

    @property
    def m(self) -> int:
        return self._m

    @property
    def records(self) -> list[TraceRecord]:
        return list(self._records)

    def answer_id(self, answer: str) -> int | None:
        return self._id_by_answer.get(answer)

    def answer_string(self, answer_id: int) -> str | None:
        for answer, mapped in self._id_by_answer.items():
            if mapped == answer_id:
                return answer
        return None

    def consumed(self) -> list[TraceRecord]:
        """Records replayed so far, in replay order."""
        return list(self._records[: self._pos])

    def clone(self) -> "TraceVoteSource":
        """A fresh source over the same records, rewound to the start."""
        return TraceVoteSource(self.instance_id, self._records)

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Answer ids and token costs of the next ``n`` draws (fewer at the end)."""
        if n < 0:
            raise ValueError(f"cannot take a negative number of votes, got {n}")
        records = self._records[self._pos : self._pos + n]
        self._pos += len(records)
        answers = [self._id_by_answer[record.answer] for record in records]
        tokens = [record.tokens for record in records]
        return np.array(answers, dtype=np.int64), np.array(tokens, dtype=np.int64)

    def draw(self) -> tuple[int, int] | None:
        if self._pos >= len(self._records):
            return None
        record = self._records[self._pos]
        self._pos += 1
        return self._id_by_answer[record.answer], record.tokens


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


def _open_corpus_file(path: str | Path, what: str, newline: str | None = None):
    """Open a corpus input for reading; failing to open it is a corpus error."""
    try:
        return Path(path).open(encoding="utf-8", newline=newline)
    except FileNotFoundError as exc:
        raise CorpusError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise CorpusError(f"cannot read {what} file {path}: {exc.strerror}") from exc


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


def load_labels(path: str | Path) -> dict[str, str]:
    """Load an instance_id,answer CSV sidecar of gold labels."""
    import csv

    labels: dict[str, str] = {}
    with _open_corpus_file(path, "labels", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["instance_id", "answer"]:
            raise CorpusError(
                f"labels file {path}: expected header 'instance_id,answer'"
            )
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise CorpusError(f"labels line {row_no}: expected two columns")
            instance_id, answer = row[0], row[1]
            if instance_id in labels:
                raise CorpusError(
                    f"labels line {row_no}: duplicate instance_id {instance_id!r}"
                )
            labels[instance_id] = answer
    return labels
