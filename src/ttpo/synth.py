"""Synthetic instances, vote sources, and rollout-trace replay.

Two source kinds feed the allocator: exact categorical simulators (a vote
hits the true answer with probability ``p0_true``, otherwise lands uniformly
on a wrong answer) and replay of recorded rollout traces from real model
runs. Every source is read one way: ``take(n)`` hands out the next ``n``
votes and their costs as arrays, and a categorical source's stream is the
same however it is split into takes.

A synthetic rollout is one categorical draw, and it reads one double,
``random()``, of its stream ``numpy.random.default_rng(stream_seed)``.
``CategoricalVoteSource`` defines the synthetic vote stream: vote ``j``
reads double ``j`` and ``_categorical`` turns it into an answer id. An
instance of the corpus reads doubles 1 and 2 of its ``"corpus"`` stream,
and the closed loop's policy vote ``j`` reads double ``j`` as numpy's
``Generator.choice`` does (``_policy_votes``). The drivers read those
doubles for many streams at once with ``seeding._uniforms``, which computes
numpy's generator lane by lane, so no row needs a ``Generator`` of its own.
Lanes are wide or not worth it: callers pass the corpus, or chunks of
``seeding._LANES`` seeds. The drivers hold the corpus as columns, ids, true
answers and ``p0``s from ``_corpus``, and ``gen_instances`` wraps the same
columns in instances.

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

import io
import json
import os
import pickle
import stat
import warnings
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, CorpusError
from .seeding import _stream_seeds, _uniforms


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

    def _samples(self, uniforms: np.ndarray) -> np.ndarray:
        """The accuracy each uniform in ``[0, 1)`` gives.

        ``uniform`` maps ``u`` to ``lo + (hi - lo) * u``, as
        ``Generator.uniform`` does, and ``mixture`` gives ``p_easy`` when
        ``u < easy_share``.
        """
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

    Instance ``i`` reads ``u1, u2 = default_rng(seed_i).random(2)``, with
    ``seed_i = stream_seed(seed, "corpus", 0, id_i)``: its true answer is
    ``floor(u1 * m)`` in float64 and its vote accuracy is ``p0_spec`` at
    ``u2``. The answer is below ``m``: ``u1 <= 1 - 2**-53``, so the rounded
    product lies at least half an ulp below ``float(m)``, which is within
    half an ulp of ``m``.
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
    """``gen_instances``' corpus as columns: (ids, true answers, p0s)."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    ids = [f"inst-{i:05d}" for i in range(count)]
    uniforms = _uniforms(_stream_seeds(seed, "corpus", 0, ids), 2)
    answers = np.floor(uniforms[:, 0] * float(m)).astype(np.int64)
    return ids, answers, p0_spec._samples(uniforms[:, 1])


def _categorical(
    uniforms: np.ndarray, true: np.ndarray | int, p0: np.ndarray | float, m: int
) -> np.ndarray:
    """The vote each uniform gives under the symmetric noise model.

    A uniform ``u`` below ``p0`` is a hit on the true answer. A miss spreads
    ``(u - p0) / (1 - p0)`` evenly over the ``m - 1`` wrong answers: with
    ``k = min(floor((u - p0) / (1 - p0) * (m - 1)), m - 2)``, computed in
    float64 in that order, the vote is ``k + (k >= true)``. ``true`` and
    ``p0`` are scalars or broadcast against ``uniforms``.
    """
    # A hit's fraction is negative; clipping it keeps the cast in range.
    spread = np.maximum(uniforms - p0, 0.0) / (1.0 - p0) * float(m - 1)
    wrong = np.minimum(np.floor(spread).astype(np.int64), m - 2)
    wrong += wrong >= true
    return np.where(uniforms < p0, true, wrong)


class CategoricalVoteSource:
    """Exact simulator of the symmetric vote-noise model.

    Vote ``j`` reads double ``j`` of ``numpy.random.default_rng(stream_seed)``
    through ``_categorical``, so takes of any sizes read the same stream.
    """

    def __init__(self, instance: SyntheticInstance, stream_seed: int):
        self._instance = instance
        self._rng = np.random.default_rng(stream_seed)

    @property
    def m(self) -> int:
        return self._instance.m

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Answers and costs of the next ``n`` votes."""
        if n < 0:
            raise ValueError(f"cannot take a negative number of votes, got {n}")
        inst = self._instance
        answers = _categorical(self._rng.random(n), inst.true_answer, inst.p0_true, inst.m)
        return answers, np.full(n, inst.cost_per_vote, dtype=np.int64)


def _categorical_votes(
    true: np.ndarray, p0: np.ndarray, m: int, seeds: np.ndarray, n: int
) -> np.ndarray:
    """``CategoricalVoteSource(instance_i, seed_i).take(n)[0]`` per row.

    Row ``i`` is an instance with true answer ``true[i]``, vote accuracy
    ``p0[i]`` and ``m`` answers, whose stream seed ``seed_i`` is
    ``seeds[i]`` in ``_stream_seeds``' words; every row reads its first
    ``n`` doubles.
    """
    return _categorical(_uniforms(seeds, n), true[:, None], p0[:, None], m)


def _policy_votes(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``default_rng(seed_i).choice(m, size=n, p=probs[i])`` per row.

    ``uniforms[i]`` is ``seeding._uniforms`` of stream ``seed_i``, ``n``
    doubles wide: ``choice(m, size=n, p=p)`` reads exactly one double per
    vote. numpy's ``Generator.choice(m, p=p)`` turns ``random()`` into the
    count of ``cdf`` entries at or below it, with ``cdf = p.cumsum(); cdf
    /= cdf[-1]``. Every row must be one ``choice`` accepts as ``p``, as a
    softmax of finite logits is. The per-vote oracle that calls ``choice``
    itself is ``PolicyVoteSource`` in the tests' ``scalar_reference``.
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
    formed even for unanimous traces. The source holds each distinct answer
    string once, plus read-only int64 columns of answer ids and token counts
    in rollout order.
    """

    def __init__(self, instance_id: str, answers: Sequence[str], tokens: Sequence[int]):
        answer_by_id = list(dict.fromkeys(answers))
        id_by_answer = {answer: i for i, answer in enumerate(answer_by_id)}
        ids = np.fromiter(map(id_by_answer.__getitem__, answers), np.int64, len(answers))
        self._set_columns(instance_id, answer_by_id, ids, np.array(tokens, dtype=np.int64))

    @classmethod
    def _from_columns(
        cls, instance_id: str, answer_by_id: list[str], ids: np.ndarray, tokens: np.ndarray
    ) -> "TraceVoteSource":
        """A source over columns already built: ``ids`` number ``answer_by_id``
        in first-seen order, and the source takes both columns over read-only."""
        source = cls.__new__(cls)
        source._set_columns(instance_id, answer_by_id, ids, tokens)
        return source

    def _set_columns(
        self, instance_id: str, answer_by_id: list[str], ids: np.ndarray, tokens: np.ndarray
    ) -> None:
        self.instance_id = instance_id
        self._answer_by_id = answer_by_id
        self._ids, self._tokens = ids, tokens
        ids.flags.writeable = tokens.flags.writeable = False
        self._m = max(2, len(answer_by_id))
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


def _group_lines(lines, grouped: dict[str, list]) -> None:
    """Read trace lines into ``grouped``, one instance's columns per key.

    ``grouped`` maps instance_id -> [id_by_answer, ids, tokens,
    position_by_index or None], and the lines add to what it holds. Line
    numbers in errors count from 1 at the first of ``lines``.
    """
    from array import array

    for line_no, line in enumerate(lines, start=1):
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
        columns = grouped.get(instance_id)
        if columns is None:
            columns = grouped[instance_id] = [{}, array("q"), array("q"), None]
        id_by_answer, ids, costs, position_by_index = columns
        position = len(ids)
        if position_by_index is not None or index != position:
            if position_by_index is None:
                position_by_index = columns[3] = {i: i for i in range(position)}
            if index in position_by_index:
                raise CorpusError(
                    f"trace line {line_no}: duplicate rollout_index "
                    f"{index} for instance {instance_id!r}"
                )
            position_by_index[index] = position
        answer_id = id_by_answer.get(answer)
        if answer_id is None:
            answer_id = id_by_answer[answer] = len(id_by_answer)
        ids.append(answer_id)
        costs.append(tokens)


def _merge_halves(grouped: dict[str, list], later: dict[str, list]) -> bool:
    """Add the state of the lines after a split to that of the lines before it.

    ``grouped`` ends as one ``_group_lines`` pass over both halves would
    leave it: the later half counted its positions from 0 per instance, and
    its answer ids are renumbered into the earlier half's first-seen order.
    An instance with lines in both halves keeps its index map even when its
    lines are in index order, which builds the same source. False when both
    halves hold one instance's ``rollout_index``; ``grouped`` is then spoilt.
    """
    for instance_id, columns in later.items():
        head = grouped.setdefault(instance_id, columns)
        if head is columns:
            continue
        id_by_answer, ids, costs, position_by_index = head
        later_answers, later_ids, later_costs, later_positions = columns
        offset = len(ids)
        if position_by_index is None:
            position_by_index = {i: i for i in range(offset)}
        if later_positions is None:
            later_positions = {i: i for i in range(len(later_ids))}
        for index, position in later_positions.items():
            if index in position_by_index:
                return False
            position_by_index[index] = offset + position
        head[3] = position_by_index
        renumber = [id_by_answer.setdefault(answer, len(id_by_answer)) for answer in later_answers]
        ids.extend(map(renumber.__getitem__, later_ids))
        costs.extend(later_costs)
    return True


# Traces this large or larger are read as two halves at once, the second by
# a forked helper process, when a second CPU is there to run it. Fork, pipe
# and pickle cost a fixed ~3 ms, which equals half the one-process read at
# ~450-500 KB (~5-6k lines of `perfbench`'s replay trace). Min of 40
# alternating loads, one process vs two, on a 2-vCPU x86-64 host with
# Python 3.11: 7.8 vs 8.2 ms at 400 KB, 9.7 vs 9.4 ms at 500 KB, 19.2 vs
# 15.9 ms at 1 MB.
_SPLIT_MIN_BYTES = 500_000


def _usable_cpus() -> int:
    """CPUs this process may run on (a CPU quota below that is not seen)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _ByteRange(io.RawIOBase):
    """Bytes ``[start, end)`` of an open file, read with ``os.pread``."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._pos, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._pos), self._pos)
        buffer[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _group_range(fd: int, start: int, end: int, grouped: dict[str, list]) -> None:
    """``_group_lines`` over bytes ``[start, end)`` of a file, decoded as a
    whole-file read decodes them; a line ending splits no UTF-8 character."""
    buffer = io.BufferedReader(_ByteRange(fd, start, end))
    with io.TextIOWrapper(buffer, encoding="utf-8") as lines:
        _group_lines(lines, grouped)


def _split_offset(fd: int, size: int) -> int | None:
    """Offset just past the first ``\n`` byte at or after the middle of the
    file, or None when no such byte leaves a second half to read."""
    offset = size // 2
    while offset < size:
        chunk = os.pread(fd, 1 << 16, offset)
        if not chunk:
            return None
        found = chunk.find(b"\n")
        if found >= 0:
            split = offset + found + 1
            return split if split < size else None
        offset += len(chunk)
    return None


def _group_halves(path: str | Path) -> dict[str, list] | None:
    """The ``_group_lines`` state of a trace read as two halves at once.

    None when the file is not to be split (not a regular file, too small,
    one usable CPU, no ``os.fork``) or when anything goes wrong: a line
    error or undecodable bytes in either half, a ``rollout_index`` in both
    halves, or a helper that failed or died. The caller then reads the
    whole file in one pass, which raises exactly the error a one-pass read
    raises, line number and all. Only a regular file is split, since the
    fall-back reads it a second time.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    pid = 0
    try:
        size = os.fstat(fd).st_size
        split = _split_offset(fd, size) if size >= _SPLIT_MIN_BYTES else None
        if split is None:
            return None
        try:
            read_end, write_end = os.pipe()
        except OSError:
            return None
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads forks (numpy's
                # BLAS starts some at import), since the child may inherit a
                # lock a thread held. That is safe here: the helper runs only
                # json, array and pickle on what it reads itself, then leaves
                # through os._exit.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return None
        if pid == 0:
            # The helper: group the second half, send it, exit without
            # running any cleanup or finaliser that belongs to the parent,
            # so no garbage collection either.
            status = 1
            try:
                import gc

                gc.disable()
                os.close(read_end)
                later: dict[str, list] = {}
                _group_range(fd, split, size, later)
                with open(write_end, "wb") as pipe:
                    # Fast mode writes no memo, so the reader does not keep
                    # every column's bytes alive until the load ends. Nothing
                    # in the state is shared or refers to itself.
                    pickler = pickle.Pickler(pipe, pickle.HIGHEST_PROTOCOL)
                    pickler.fast = True
                    pickler.dump(later)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        grouped: dict[str, list] = {}
        with open(read_end, "rb") as pipe:
            try:
                _group_range(fd, 0, split, grouped)
            except (CorpusError, UnicodeDecodeError):
                return None
            try:
                later = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the helper sent nothing whole
                return None
        status = os.waitpid(pid, 0)[1]
        pid = 0
        if status != 0 or not _merge_halves(grouped, later):
            return None
        return grouped
    finally:
        os.close(fd)
        if pid:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def load_trace(path: str | Path) -> dict[str, TraceVoteSource]:
    """Load a line-delimited trace file into per-instance replay sources.

    A line that is exactly one well-formed record object (plus its newline)
    is taken straight from its decoded dict; any other line goes through
    ``_parse_trace_line``, which accepts it or raises the error that names
    it.

    A regular file of at least ``_SPLIT_MIN_BYTES`` is cut after the first
    ``\n`` past its middle when two CPUs are usable, and a forked helper
    reads the second half while this process reads the first
    (``_group_halves``). The halves are merged in file order into what one
    pass leaves. If anything goes wrong, both halves are dropped and the
    file is read again in one pass, so errors and their line numbers are
    those of a one-pass read, and a line may then be decoded twice. FIFOs
    and other files that cannot be read twice are always read in one pass.

    No record outlives its line. Each instance keeps an answer-to-id dict in
    first-seen order and ``array('q')`` columns of ids and tokens in line
    order, so a rollout costs two int64s and each distinct answer string is
    kept once per instance. While each of an instance's lines carries the
    next index, the indices seen are exactly those below it. From its first
    other line on, the instance also maps each index to its line position,
    which finds duplicates; at the end such an instance is put in index
    order and its ids are renumbered in first-seen order over it.
    """
    grouped = _group_halves(path)
    if grouped is None:
        grouped = {}
        with _open_corpus_file(path, "trace") as handle:
            _group_lines(handle, grouped)
    sources = {}
    for instance_id, columns in grouped.items():
        id_by_answer, ids, costs, position_by_index = columns
        # Emptied as it is read, so each instance's dict and arrays are freed
        # before the next instance's copies are made.
        columns.clear()
        answer_by_id = list(id_by_answer)
        id_column = np.array(ids, dtype=np.int64)
        token_column = np.array(costs, dtype=np.int64)
        if position_by_index is not None:
            count = len(position_by_index)
            if max(position_by_index) != count - 1:
                indices = sorted(position_by_index)
                raise CorpusError(
                    f"instance {instance_id!r}: rollout_index values must be dense "
                    f"from 0, got {indices[:8]}{'...' if count > 8 else ''}"
                )
            order = np.fromiter(map(position_by_index.__getitem__, range(count)), np.int64, count)
            id_column, token_column = id_column[order], token_column[order]
            # Old ids in the order they first appear in index order; the
            # inverse permutation renumbers them.
            by_first_seen = np.argsort(np.unique(id_column, return_index=True)[1])
            id_column = np.argsort(by_first_seen)[id_column]
            answer_by_id = [answer_by_id[i] for i in by_first_seen.tolist()]
        # A total that fits keeps every prefix sum exact.
        total = sum(costs)
        if total > MAX_COST:
            raise CorpusError(
                f"instance {instance_id!r}: tokens sum to {total}, more than {MAX_COST}"
            )
        sources[instance_id] = TraceVoteSource._from_columns(
            instance_id, answer_by_id, id_column, token_column
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
            problem = "expected header 'instance_id,answer'"
            # A byte-order mark reads as the start of the first header cell.
            if header and header[0].startswith("\ufeff"):
                problem = f"starts with a UTF-8 byte-order mark; {problem}"
            raise CorpusError(f"labels file {path}: {problem}")
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
