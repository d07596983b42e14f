#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1              # every workload once
    python3 perfbench/repeat.py --workloads replay_wide --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --json entry.json

Runs ``BENCHMARK.json``'s command once per (workload, seed), one at a time,
with its ``run_seconds``, and prints per metric the median, the quartiles
and the spread: the distance between the quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound. With
``--json`` the medians, quartiles and machine details are also written out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH", help="write the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in _seeds(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {len(_seeds(args.seeds))} runs")
        summary[workload] = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound}" + ("" if spread < bound / 3 else "  <-- wide")
            print(f"  {name:<48} median {median:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} {flag}")
            summary[workload][name] = {
                "unit": units[name], "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": series,
            }
    if args.json:
        entry = {
            "commit": _commit(),
            "machine": {
                "nproc": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
            },
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
            "trace": args.trace,
            "workloads": summary,
        }
        Path(args.json).write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
