"""Synthetic instances, vote sources, and rollout-trace replay.

Two source kinds feed the allocator: exact categorical simulators (a vote
hits the true answer with probability ``p0_true``, otherwise lands uniformly
on a wrong answer) and replay of recorded rollout traces from real model
runs. Every source is read one way: ``take(n)`` hands out the next ``n``
votes and their costs as arrays, and a categorical source's stream is the
same however it is split into takes.

``CategoricalVoteSource`` defines the synthetic stream; the batch drivers
read it for many instances at once. The source refills 256 votes at a time
from ``numpy.random.default_rng(stream_seed)``: its vote ``j`` (1 to 256)
reads double ``j``, the top 53 bits of PCG64 output ``j``, and its
wrong-answer draws follow from output 257 on, each a 32-bit Lemire draw
over ``m - 1`` answers from the low, then the high, half of an output; at
``m = 2`` they read nothing. ``_categorical_votes`` and ``_corpus``
compute those reads from ``seeding._pcg64_outputs`` across all rows and
take a row from its source (or, for the corpus, from a ``Generator``)
where the lane reading is not certain to be numpy's: past a source's
first 256 votes, where a Lemire draw would reject (about ``m / 2**32``
per draw), or where the bound needs 64 bits. Report bytes thus rest on
numpy's ``Generator`` methods only in those rows.
The closed loop draws each vote from its policy's softmax as numpy's
``Generator.choice`` would, vote ``j`` reading double ``j``:
``_policy_votes`` reads every row from the doubles and has no fallback,
since its caller's rows are softmaxes of finite logits, which ``choice``
always accepts.
Lanes are wide or not worth it: callers pass the corpus, or chunks of
``seeding._LANES`` seeds. The drivers hold the corpus as columns, ids,
true answers and ``p0``s from ``_corpus``, and ``_categorical_votes``
reads those columns; a ``SyntheticInstance`` is built only for a row
taken from its source. ``gen_instances`` wraps the same columns in
instances.

A rollout trace is UTF-8 text with one JSON object per line, carrying
``instance_id`` (string), ``rollout_index`` (integer >= 0), ``answer``
(string) and ``tokens`` (integer, 1 to 2**63 - 1). Other keys are ignored,
whitespace around the object is allowed, and blank lines are skipped. Each
instance's ``rollout_index`` values must be exactly 0, 1, ..., n-1, in any
line order, and its ``tokens`` must sum to at most 2**63 - 1. Any other
line is a ``CorpusError`` naming its line number; an instance whose tokens
sum too high is one naming the instance.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, CorpusError
from .seeding import _doubles, _halves, _lemire, _pcg64_outputs, _stream_seeds

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

    def _samples(self, uniforms: np.ndarray) -> np.ndarray:
        """``sample`` of each stream whose next ``random()`` is ``uniforms[i]``."""
        if self.kind == "constant":
            return np.full(uniforms.size, self.params[0], dtype=np.float64)
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * uniforms
        share, p_easy, p_hard = self.params
        return np.where(uniforms < share, p_easy, p_hard)


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
) -> list[SyntheticInstance]:
    """Deterministic corpus: each instance is a pure function of (seed, id).

    Instance ``i`` is what ``rng = default_rng(seed_i)`` gives through
    ``rng.integers(m)`` then ``p0_spec.sample(rng)``.
    """
    ids, answers, p0s = _corpus(count, m, p0_spec, seed)
    return [
        SyntheticInstance(
            instance_id=instance_id,
            true_answer=answer,
            m=m,
            p0_true=p0,
            cost_per_vote=cost_per_vote,
        )
        for instance_id, answer, p0 in zip(ids, answers.tolist(), p0s.tolist())
    ]


def _corpus(
    count: int, m: int, p0_spec: P0Spec, seed: int
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``gen_instances``' corpus as columns: (ids, true answers, p0s).

    ``rng.integers(m)`` reads the low half of output 1 and
    ``p0_spec.sample(rng)`` output 2. All streams are read as lanes; a row
    whose draw would reject replays the ``Generator``.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    ids = [f"inst-{i:05d}" for i in range(count)]
    seeds = _stream_seeds(seed, "corpus", 0, ids)
    raw = _pcg64_outputs(seeds, [(1, 2)])
    if m < 2**32:
        answers, redo = _lemire(_halves(raw[:, :1])[:, 0], m)
    else:
        answers, redo = np.zeros(count, np.int64), np.ones(count, bool)
    p0s = p0_spec._samples(_doubles(raw[:, 1]))
    for row in np.flatnonzero(redo).tolist():
        rng = np.random.default_rng(seeds[row])
        answers[row], p0s[row] = rng.integers(m), p0_spec.sample(rng)
    return ids, answers, p0s


class CategoricalVoteSource:
    """Exact simulator of the symmetric vote-noise model, buffered.

    Each refill draws ``_BUFFER_SIZE`` hit flags, then as many wrong answers,
    from the source's own ``Generator``.
    """

    def __init__(self, instance: SyntheticInstance, stream_seed: int):
        self._instance = instance
        self._rng = np.random.default_rng(stream_seed)
        self._buffer = np.empty(0, dtype=np.int64)
        self._pos = 0

    @property
    def m(self) -> int:
        return self._instance.m

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Answers and costs of the next ``n`` votes.

        Reads the buffer on from where the last take stopped and refills it
        whenever it runs out, so takes of any sizes read the same stream.
        """
        if n < 0:
            raise ValueError(f"cannot take a negative number of votes, got {n}")
        inst = self._instance
        chunks = [np.empty(0, dtype=np.int64)]
        while n > 0:
            if self._pos >= self._buffer.size:
                hit = self._rng.random(_BUFFER_SIZE) < inst.p0_true
                # Uniform over the m-1 wrong answers: draw in [0, m-1) and
                # skip past the true answer's slot.
                wrong = self._rng.integers(0, inst.m - 1, size=_BUFFER_SIZE)
                wrong += wrong >= inst.true_answer
                self._buffer = np.where(hit, inst.true_answer, wrong)
                self._pos = 0
            chunk = self._buffer[self._pos : self._pos + n]
            self._pos += chunk.size
            n -= chunk.size
            chunks.append(chunk)
        answers = np.concatenate(chunks)
        return answers, np.full(answers.size, inst.cost_per_vote, dtype=np.int64)


def _categorical_votes(
    true: np.ndarray, p0: np.ndarray, m: int, seeds: Sequence[int], n: int
) -> np.ndarray:
    """``CategoricalVoteSource(instance_i, seeds[i]).take(n)[0]`` per row.

    Row ``i`` is an instance with true answer ``true[i]``, vote accuracy
    ``p0[i]`` and ``m`` answers. Vote ``j`` is a hit when double ``j``
    (outputs 1..n) is below ``p0[i]``; otherwise it is the ``j``-th 32-bit
    Lemire draw over the wrong answers, read from output ``_BUFFER_SIZE + 1``
    on, and with m = 2 that draw reads nothing. A row that needs more than
    one refill, whose ``m - 1`` is at least 2**32, or whose Lemire draw would
    reject is taken from the source.
    """
    if n > _BUFFER_SIZE or m - 1 >= 2**32:
        votes = np.empty((len(seeds), n), dtype=np.int64)
        exact = np.zeros(len(seeds), dtype=bool)
    else:
        spans = [(1, n)]
        if m > 2:
            spans.append((_BUFFER_SIZE + 1, (n + 1) // 2))
        raw = _pcg64_outputs(seeds, spans)
        hit = _doubles(raw[:, :n]) < p0[:, None]
        words = _halves(raw[:, n:])[:, :n] if m > 2 else np.zeros(hit.shape, np.uint64)
        wrong, rejected = _lemire(words, m - 1)
        wrong += wrong >= true[:, None]
        np.copyto(wrong, true[:, None], where=hit)
        votes, exact = wrong, ~rejected.any(axis=1)
    # A lane cannot serve these rows, not even one lane at a time: a rejected
    # Lemire draw shifts the rest of the row's reads by an amount of its own,
    # and with m - 1 >= 2**32 numpy draws 64-bit values.
    for row in np.flatnonzero(~exact).tolist():
        instance = SyntheticInstance("", int(true[row]), m, float(p0[row]))
        votes[row] = CategoricalVoteSource(instance, seeds[row]).take(n)[0]
    return votes


def _policy_uniforms(seeds: Sequence[int], n: int) -> np.ndarray:
    """Doubles 1..n of each stream, the uniforms ``Generator.choice`` reads.

    ``choice(m, size=n, p=p)`` reads exactly ``n`` doubles, one per vote, so
    vote ``j`` reads double ``j`` however the stream is split into calls.
    """
    return _doubles(_pcg64_outputs(seeds, [(1, n)]))


def _policy_votes(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``default_rng(seed_i).choice(m, size=n, p=probs[i])`` per row.

    ``uniforms[i]`` is ``_policy_uniforms`` of stream ``seed_i``, ``n``
    doubles wide. numpy's ``Generator.choice(m, p=p)`` turns ``random()``
    into the count of ``cdf`` entries at or below it, with ``cdf =
    p.cumsum(); cdf /= cdf[-1]``. Every row must be one ``choice`` accepts
    as ``p``, as a softmax of finite logits is. The per-vote oracle that
    calls ``choice`` itself is ``PolicyVoteSource`` in the tests'
    ``scalar_reference``.
    """
    cdf = probs.cumsum(axis=1)
    cdf = cdf / cdf[:, -1:]
    votes = np.zeros(uniforms.shape, dtype=np.int64)
    # The last entry is exactly 1, above every uniform, so it never counts.
    for j in range(cdf.shape[1] - 1):
        votes += uniforms >= cdf[:, j : j + 1]
    return votes


class TraceVoteSource:
    """Replays one instance's recorded rollouts in index order.

    A take past the end returns what is left, possibly nothing; it never
    raises. Answers get ids in first-seen order over the full trace, and m
    is the distinct-answer count floored at 2 so the noise model stays well
    formed even for unanimous traces. The id and token columns are built
    once and are read-only.
    """

    def __init__(self, instance_id: str, answers: Sequence[str], tokens: Sequence[int]):
        self.instance_id = instance_id
        self._answer_by_id = list(dict.fromkeys(answers))
        id_by_answer = {answer: i for i, answer in enumerate(self._answer_by_id)}
        self._ids = np.fromiter(map(id_by_answer.__getitem__, answers), np.int64, len(answers))
        self._tokens = np.array(tokens, dtype=np.int64)
        self._ids.flags.writeable = self._tokens.flags.writeable = False
        self._m = max(2, len(id_by_answer))
        self._pos = 0

    @property
    def m(self) -> int:
        return self._m

    def answer_string(self, answer_id: int) -> str | None:
        if 0 <= answer_id < len(self._answer_by_id):
            return self._answer_by_id[answer_id]
        return None

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Answer ids and token costs of the next ``n`` votes (fewer at the end).

        The arrays are read-only views of the source's columns.
        """
        if n < 0:
            raise ValueError(f"cannot take a negative number of votes, got {n}")
        start = self._pos
        self._pos = min(start + n, self._ids.size)
        return self._ids[start : self._pos], self._tokens[start : self._pos]


# Costs are stored and added up as int64: a token count, an instance's token
# total, and a synthetic run's cost per instance must each fit.
MAX_COST = 2**63 - 1

# The C scanner behind json.loads, minus the whitespace skip and the
# trailing-data check; lines it cannot take whole go to _parse_trace_line.
_scan_value = json.JSONDecoder().scan_once


def _parse_trace_line(line_no: int, line: str) -> tuple[str, int, str, int]:
    """(instance_id, rollout_index, answer, tokens) of one line, or the error."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"trace line {line_no}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise CorpusError(f"trace line {line_no}: invalid JSON (nested too deeply)") from exc
    if not isinstance(raw, dict):
        raise CorpusError(f"trace line {line_no}: expected an object")
    fields = []
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
        fields.append(value)
    instance_id, rollout_index, answer, tokens = fields
    if rollout_index < 0:
        raise CorpusError(f"trace line {line_no}: rollout_index must be >= 0")
    if tokens < 1:
        raise CorpusError(f"trace line {line_no}: tokens must be >= 1")
    if tokens > MAX_COST:
        raise CorpusError(f"trace line {line_no}: tokens must be <= {MAX_COST}")
    return instance_id, rollout_index, answer, tokens


@contextmanager
def _open_corpus_file(path: str | Path, what: str, newline: str | None = None):
    """A corpus input open for reading; failing to open or decode it is a corpus error."""
    try:
        handle = Path(path).open(encoding="utf-8", newline=newline)
    except FileNotFoundError as exc:
        raise CorpusError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise CorpusError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"cannot read {what} file {path}: not valid UTF-8 ({exc.reason})"
            ) from exc


def load_trace(path: str | Path) -> dict[str, TraceVoteSource]:
    """Load a line-delimited trace file into per-instance replay sources.

    Each line is decoded once. A line that is exactly one well-formed record
    object (plus its newline) is taken straight from the decoded dict; any
    other line goes through ``_parse_trace_line``, which accepts it or
    raises the error that names it.
    """
    grouped: dict[str, dict[int, tuple[str, int]]] = {}
    with _open_corpus_file(path, "trace") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                raw, end = _scan_value(line, 0)
            except (StopIteration, ValueError, RecursionError):
                raw = end = None
            if type(raw) is dict and line[end:] in ("\n", ""):
                instance_id = raw.get("instance_id")
                index = raw.get("rollout_index")
                answer = raw.get("answer")
                tokens = raw.get("tokens")
                if not (
                    type(instance_id) is str
                    and type(index) is int
                    and type(answer) is str
                    and type(tokens) is int
                    and index >= 0
                    and 1 <= tokens <= MAX_COST
                ):
                    instance_id, index, answer, tokens = _parse_trace_line(line_no, line)
            elif not line.strip():
                continue
            else:
                instance_id, index, answer, tokens = _parse_trace_line(line_no, line)
            per_instance = grouped.get(instance_id)
            if per_instance is None:
                per_instance = grouped[instance_id] = {}
            elif index in per_instance:
                raise CorpusError(
                    f"trace line {line_no}: duplicate rollout_index "
                    f"{index} for instance {instance_id!r}"
                )
            per_instance[index] = (answer, tokens)
    sources = {}
    for instance_id, by_index in grouped.items():
        count = len(by_index)
        if max(by_index) != count - 1:
            indices = sorted(by_index)
            raise CorpusError(
                f"instance {instance_id!r}: rollout_index values must be dense "
                f"from 0, got {indices[:8]}{'...' if count > 8 else ''}"
            )
        answers, tokens = zip(*map(by_index.__getitem__, range(count)))
        # A total that fits keeps every prefix sum exact.
        total = sum(tokens)
        if total > MAX_COST:
            raise CorpusError(
                f"instance {instance_id!r}: tokens sum to {total}, more than {MAX_COST}"
            )
        sources[instance_id] = TraceVoteSource(instance_id, answers, tokens)
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
