"""Spans around the calls into each ttpo layer, installed from outside the package.

Each traced function is replaced at the name its caller looks up (a module
global or a class attribute) by a wrapper that opens a span. A span's self
time is its duration minus the time its child spans cover. Per-name call
counts and self times accumulate per pass; the spans of the first traced pass
are also kept in memory and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from pathlib import Path

# (metric name, object path the caller looks the function up on, attribute).
# A function looked up under several names gets one metric and one wrapper
# per lookup site.
TRACED = (
    ("consensus.tally_ingest", "ttpo.stopper", "tally_ingest"),
    ("consensus.top_two", "ttpo.stopper", "top_two"),
    ("consensus.top_two", "ttpo.experiment", "top_two"),
    ("consensus.posterior", "ttpo.allocator", "posterior"),
    ("stopper.SprtStopper.step", "ttpo.stopper.SprtStopper", "step"),
    ("stopper.SprtStopper.force_stop", "ttpo.stopper.SprtStopper", "force_stop"),
    ("stopper.compute_thresholds", "ttpo.stopper", "compute_thresholds"),
    ("allocator.allocate", "ttpo.experiment", "allocate"),
    ("synth.gen_instances", "ttpo.experiment", "gen_instances"),
    ("synth.CategoricalVoteSource.__init__", "ttpo.synth.CategoricalVoteSource", "__init__"),
    ("synth.CategoricalVoteSource.draw", "ttpo.synth.CategoricalVoteSource", "draw"),
    ("synth.PolicyVoteSource.__init__", "ttpo.synth.PolicyVoteSource", "__init__"),
    ("synth.PolicyVoteSource.draw", "ttpo.synth.PolicyVoteSource", "draw"),
    ("synth.TraceVoteSource.draw", "ttpo.synth.TraceVoteSource", "draw"),
    ("synth.load_trace", "ttpo.experiment", "load_trace"),
    ("synth.load_labels", "ttpo.experiment", "load_labels"),
    # gen_instances imports stream_seed from ttpo.seeding at call time.
    ("seeding.stream_seed", "ttpo.experiment", "stream_seed"),
    ("seeding.stream_seed", "ttpo.seeding", "stream_seed"),
    ("optimizer.pg_update", "ttpo.experiment", "pg_update"),
    ("optimizer.build_rewarded_samples", "ttpo.experiment", "build_rewarded_samples"),
    (
        "optimizer.SoftmaxAnswerPolicy.probabilities",
        "ttpo.optimizer.SoftmaxAnswerPolicy",
        "probabilities",
    ),
    ("experiment.run_compare", "ttpo.cli", "run_compare"),
    ("experiment.run_ttpo", "ttpo.cli", "run_ttpo"),
    ("report.build_report", "ttpo.experiment", "build_report"),
    ("report.render_report", "ttpo.report", "render_report"),
    ("report.emit_report", "ttpo.cli", "emit_report"),
    ("config.resolve_config", "ttpo.cli", "resolve_config"),
)
# The benchmark calls ttpo.cli.main itself and opens this span around it.
CLI_MAIN = "cli.main"
SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in TRACED] + [CLI_MAIN]))

_ALLOCATE = "allocator.allocate"
_DRAWS = ("synth.CategoricalVoteSource.draw", "synth.PolicyVoteSource.draw", "synth.TraceVoteSource.draw")


def _resolve(path: str):
    """The module, or the class inside a module, that a dotted path names."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class PassStats:
    """What one traced pass did, per span name and per allocation."""

    def __init__(self) -> None:
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.taus: list[int] = []
        self.budget_exhausted = 0
        self.truncated = 0
        self.adaptive_votes = 0
        self.fixed_arm_votes = 0
        self.fixed_arm_calls = 0


class Tracer:
    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._stack: list[list[int]] = []  # [name id, span index, child ns]
        self._patches: list[tuple[object, str, object]] = []
        self.stats = PassStats()
        self.keep_spans = False
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    def begin_pass(self, keep_spans: bool) -> PassStats:
        self.stats = PassStats()
        self.keep_spans = keep_spans
        return self.stats

    def span(self, name: str, fn, on_result=None):
        """fn wrapped in a span named `name`; on_result(result, parent id) after it."""
        sid = self._ids[name]
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if tracer.keep_spans:
                index = len(tracer.span_name)
                tracer.span_name.append(sid)
                tracer.span_parent.append(parent[1] if parent else -1)
                tracer.span_start.append(0)
                tracer.span_end.append(0)
            frame = [sid, index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats = tracer.stats
                stats.calls[sid] += 1
                stats.self_ns[sid] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
            if on_result is not None:
                on_result(result, parent[0] if parent else -1)
            return result

        return traced

    def _on_allocate(self, result, _parent) -> None:
        stats = self.stats
        stats.taus.append(result.tau)
        stats.budget_exhausted += result.decision_kind.value == "budget_exhausted"
        stats.truncated += bool(result.truncated)

    def _on_draw(self, result, parent) -> None:
        stats = self.stats
        adaptive = parent == self._ids[_ALLOCATE]
        if not adaptive:
            stats.fixed_arm_calls += 1
        if result is not None:
            if adaptive:
                stats.adaptive_votes += 1
            else:
                stats.fixed_arm_votes += 1

    def install(self) -> list[str]:
        """Wrap every lookup site; returns the sites the program no longer has."""
        absent = []
        for name, owner_path, attr in TRACED:
            try:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                absent.append(f"{owner_path}.{attr}")
                continue
            hook = None
            if name == _ALLOCATE:
                hook = self._on_allocate
            elif name in _DRAWS:
                hook = self._on_draw
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, hook))
        return absent

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        """Kept spans as gzipped TSV: index, parent index, name id, start and
        duration in ns from the first span; a header comment maps name ids."""
        origin = self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("# names: " + " ".join(SPAN_NAMES) + "\n")
            handle.write("span\tparent\tname\tstart_ns\tduration_ns\n")
            for i, (sid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                handle.write(f"{i}\t{parent}\t{sid}\t{start - origin}\t{end - start}\n")
