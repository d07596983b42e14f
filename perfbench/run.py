#!/usr/bin/env python3
"""The ttpo benchmark: one workload, run in-process through ``ttpo.cli.main``.

    python3 perfbench/run.py --workload compare_mixture --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload's inputs are generated from ``--seed`` before timing.
A closed loop with one client then calls the CLI once per pass, each pass
completing before the next starts, until ``--seconds`` of pass time have been
measured. Every pass's report must be byte-identical to the last one, which
is checked in full (see ``checks.py``) after timing.

Times are scaled to a reference host speed (``calibration.py``): each pass,
and each fresh-interpreter set-up sample, is bracketed by a fixed reference
job, because the shared hosts this runs on change speed in phases. Rates use
the median scaled pass; the raw wall figures are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans around every layer (``tracer.py``) and
prints the per-layer metrics, including the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object. Exit status is
0 when every check passed, 1 when one failed, and 2 when the program cannot
be found or run at all (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import (
    FRESH_STDLIB_IMPORT_S,
    KERNEL_S,
    Calibrated,
    fresh_stdlib_import_s,
    kernel_s,
)
from checks import check_report
from workloads import FIXED_BUDGET, WORKLOADS, Inputs, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# Fresh interpreters per run for set-up time: single imports vary by half.
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
READY = "import ttpo.cli; ttpo.cli.build_parser()"
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath")


class ProgramMissing(Exception):
    pass


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise ProgramMissing(f"fresh import of ttpo.cli failed:\n{exc.stderr}") from exc


def setup_seconds(samples: int) -> Calibrated:
    """Fresh interpreters that import ttpo.cli and build its parser, timed."""
    _fresh_python("-c", READY)  # byte-compiles a fresh checkout; not timed
    times = Calibrated(fresh_stdlib_import_s, FRESH_STDLIB_IMPORT_S)
    for _ in range(samples):
        start = time.perf_counter()
        _fresh_python("-c", READY)
        times.add(time.perf_counter() - start)
    return times


def import_breakdown() -> dict[str, float]:
    """Seconds per dependency from one `-X importtime` run of a fresh interpreter.

    A dependency's time is the cumulative time of its outermost imports; the
    ttpo figure is the self time of ttpo's own modules.
    """
    stderr = _fresh_python("-X", "importtime", "-c", READY).stderr
    entries = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].rstrip()
        indent = len(name) - len(name.lstrip())
        entries.append((indent, name.strip(), int(parts[0]), int(parts[1])))
    totals = dict.fromkeys(IMPORT_PACKAGES + ("ttpo",), 0)
    path: list[tuple[int, str]] = []  # enclosing imports; output is post-order
    for indent, name, self_us, cumulative_us in reversed(entries):
        while path and path[-1][0] >= indent:
            path.pop()
        package = name.split(".")[0]
        parent = path[-1][1].split(".")[0] if path else None
        if package == "ttpo":
            totals["ttpo"] += self_us
        elif package in totals and parent != package:
            totals[package] += cumulative_us
        path.append((indent, name))
    return {package: us / 1e6 for package, us in totals.items()}


def _digest(path: Path) -> str:
    digest = hashlib.blake2b()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Calls the CLI pass after pass and records what each pass produced."""

    def __init__(self, main, inputs: Inputs):
        self.main = main
        self.inputs = inputs
        self.digests: list[str] = []
        self.broken_passes = 0

    def one_pass(self) -> float | None:
        gc.collect()
        start = time.perf_counter()
        code = self.main(self.inputs.argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.broken_passes += 1
            return None
        self.digests.append(_digest(self.inputs.out_path))
        return elapsed

    def passes(self, seconds: float, min_passes: int, before_pass=None) -> Calibrated:
        """Pass after pass until `seconds` of wall pass time, or a pass fails."""
        times = Calibrated(kernel_s, KERNEL_S)
        while sum(times.wall) < seconds or len(times.wall) < min_passes:
            if before_pass is not None:
                before_pass(len(times.wall))
            elapsed = self.one_pass()
            if elapsed is None:
                break
            times.add(elapsed)
        return times


def verify(runner: Runner) -> tuple[int, int, list[str], list[dict], dict]:
    """(attempted, failed, problems, rows, aggregate) over every pass run."""
    inputs = runner.inputs
    attempted = inputs.count * (len(runner.digests) + runner.broken_passes)
    failed = inputs.count * runner.broken_passes
    problems = [f"{runner.broken_passes} pass(es) exited non-zero"] if runner.broken_passes else []
    if not runner.digests:
        return attempted, failed, problems, [], {}
    # Every stored digest belongs to a report the CLI wrote; the last one is
    # still on disk. Passes whose bytes differ from it fail as a whole.
    differing = sum(d != runner.digests[-1] for d in runner.digests)
    if differing:
        failed += inputs.count * differing
        problems.append(f"{differing} pass(es) wrote a different report")
    bad, report_problems, rows, aggregate = check_report(inputs)
    failed += bad * (len(runner.digests) - differing)
    return attempted, failed, problems + report_problems, rows, aggregate


def votes_per_pass(inputs: Inputs, rows: list[dict]) -> int:
    """Rollouts drawn by both arms in one pass: adaptive tau plus fixed-arm draws."""
    adaptive = sum(row["tau"] for row in rows)
    if inputs.mode != "compare":
        return adaptive  # the closed loop has no fixed arm
    if inputs.replay:
        return adaptive + sum(min(FIXED_BUDGET, len(i.answers)) for i in inputs.replay)
    return adaptive + FIXED_BUDGET * len(rows)


def end_to_end(workload: str, seconds: float, main, inputs: Inputs):
    setup = setup_seconds(SETUP_SAMPLES)
    runner = Runner(main, inputs)
    runner.one_pass()  # warm-up: lazy imports and first-touch allocation
    times = runner.passes(seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems, rows, agg = verify(runner)
    if not times.wall or not rows:
        return attempted, failed, problems, {}, {}
    pass_s = statistics.median(times.scaled)
    stop_error = agg.get("empirical_stop_error_rate")
    post_update = agg.get("post_update_accuracy")
    metrics = {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "instances_per_s": (inputs.count / pass_s, "1/s"),
        "votes_per_s": (votes_per_pass(inputs, rows) / pass_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "savings_pct": (agg.get("savings_pct"), "fraction"),
        "pseudo_label_accuracy": (agg.get("pseudo_label_accuracy"), "fraction"),
        # 1 - stop error rate, so the metric is never 0; 1 when nothing stopped early.
        "stop_accuracy": (1.0 - (stop_error or 0.0), "fraction"),
        # Only the closed loop updates a policy; elsewhere the pseudo-label is
        # what the run hands on, so its accuracy stands in.
        "post_update_accuracy": (
            agg.get("pseudo_label_accuracy") if post_update is None else post_update,
            "fraction",
        ),
    }
    wall_pass_s = statistics.median(times.wall)
    extra = {
        "passes": (len(times.wall), "count"),
        "wall.setup_s": (statistics.median(setup.wall), "s"),
        "wall.instances_per_s": (inputs.count / wall_pass_s, "1/s"),
        "wall.votes_per_s": (votes_per_pass(inputs, rows) / wall_pass_s, "1/s"),
        "stop_error_rate": (stop_error, "fraction"),
        "failed_frac": (failed / attempted, "fraction"),
    }
    return attempted, failed, problems, metrics, extra


def per_layer(workload: str, seconds: float, main, inputs: Inputs):
    from tracer import CLI_MAIN, SPAN_NAMES, Tracer

    imports = [import_breakdown() for _ in range(IMPORTTIME_SAMPLES)]
    runner = Runner(main, inputs)
    runner.one_pass()
    plain = runner.passes(seconds / 2, MIN_PASSES)
    tracer = Tracer()
    stats = []
    runner.main = tracer.span(CLI_MAIN, main)
    for site in tracer.install():
        print(f"perfbench: not traced, the program has no {site}", file=sys.stderr)
    try:
        traced = runner.passes(
            seconds / 2,
            MIN_TRACED_PASSES,
            before_pass=lambda i: stats.append(tracer.begin_pass(keep_spans=i == 0)),
        )
    finally:
        tracer.uninstall()
    tracer.write_spans(SCRATCH / f"spans-{workload}.tsv.gz")
    attempted, failed, problems, rows, _ = verify(runner)
    stats = stats[: len(traced.wall)]  # a pass that exited non-zero is not measured
    if not plain.wall or not traced.wall or not rows:
        return attempted, failed, problems, {}, {}

    first = stats[0]
    metrics = {}
    for sid, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls"] = (first.calls[sid], "count")
        self_s = statistics.median(s.self_ns[sid] for s in stats) / 1e9
        metrics[f"{name}.self_s"] = (self_s, "s")
    allocations = max(1, len(first.taus))
    taus = sorted(first.taus) or [0]
    drawn = max(1, first.adaptive_votes + first.fixed_arm_votes)
    metrics.update(
        {
            "stopper.budget_exhausted_frac": (first.budget_exhausted / allocations, "fraction"),
            "stopper.truncated_frac": (first.truncated / allocations, "fraction"),
            "allocator.tau_mean": (sum(taus) / allocations, "votes"),
            "allocator.tau_p99": (taus[(99 * (len(taus) - 1)) // 100], "votes"),
            "allocator.adaptive_vote_share": (first.adaptive_votes / drawn, "fraction"),
            "synth.draw.fixed_arm_calls": (first.fixed_arm_calls, "count"),
            "report.bytes": (inputs.out_path.stat().st_size, "bytes"),
            "trace.overhead_frac": (
                statistics.median(traced.scaled) / statistics.median(plain.scaled),
                "ratio",
            ),
        }
    )
    for package in IMPORT_PACKAGES + ("ttpo",):
        value = statistics.median(sample[package] for sample in imports)
        metrics[f"setup.import.{package}_s"] = (value, "s")
    extra = {
        "passes.untraced": (len(plain.wall), "count"),
        "passes.traced": (len(traced.wall), "count"),
    }
    return attempted, failed, problems, metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (SRC / "ttpo" / "cli.py").is_file():
        print(f"perfbench: no ttpo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import ttpo.cli
    except ImportError as exc:
        print(f"perfbench: cannot import ttpo from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(ttpo.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: ttpo imported from {ttpo.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
            inputs = make_inputs(WORKLOADS[args.workload], args.seed, Path(workdir))
            attempted, failed, problems, metrics, extra = measure(
                args.workload, args.seconds, ttpo.cli.main, inputs
            )
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if not metrics:
        print("perfbench: no pass completed; nothing to report", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<48} {value!r:>24} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
