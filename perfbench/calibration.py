"""Timings scaled to a reference host speed.

The benchmark runs on shared machines whose speed changes in phases of tens
of seconds: on a shared 2-vCPU virtual machine the same CLI pass took 0.8 s
in one phase and 1.35 s in the next, and a fresh import of ttpo.cli 0.46 s in
one and 0.60 s in the next. A fixed reference job timed just before and just after each piece
of measured work slows down with it. Each wall time is therefore divided by
the mean of the two reference times around it and multiplied by the
reference's nominal time: the result is the time the work would take on a
host that runs the reference in exactly its nominal time.

Two references, each like the work it scales. In-process CLI passes are
scaled by ``kernel_s``, interpreter, numpy and json work; across run-sized
chunks of one process the median scaled pass spread 4-6 %, against 27-29 %
raw. Fresh-interpreter set-up is scaled by ``fresh_stdlib_import_s``, a new
interpreter importing a fixed set of standard-library modules: the median
scaled set-up spread 3-6 % against 8-16 % raw (the in-process kernel did not
track it). Neither reference touches ttpo or its dependencies' imports, so a
change to the program moves the scaled numbers as much as the raw ones.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from typing import Callable

import numpy as np

# Nominal reference seconds: about the medians on the 2-vCPU virtual machine
# the baseline was measured on, so scaled times stay near wall times there.
KERNEL_S = 0.035
FRESH_STDLIB_IMPORT_S = 0.135

_STDLIB_IMPORTS = (
    "import json, csv, argparse, decimal, email.parser, http.client, unittest, "
    "xml.dom.minidom, sqlite3, asyncio"
)


def kernel_s() -> float:
    """Wall seconds of one fixed run of interpreter, numpy and json work."""
    gc.collect()
    gc.disable()  # a collection landing inside the kernel doubles its time
    try:
        start = time.perf_counter()
        # Small working set, so the kernel never sets the peak RSS.
        counts: dict[tuple[int, int], int] = {}
        for i in range(60_000):
            key = (i % 1_024, i % 7)
            counts[key] = counts.get(key, 0) + 1
        rng = np.random.default_rng(1)
        total = 0
        for i in range(1_500):
            total += int(np.where(rng.random(256) < 0.5, 1, 2)[i % 256])
        doc = [{"a": i, "b": str(i), "c": [i, i + 1]} for i in range(300)]
        for _ in range(10):
            total += len(json.loads(json.dumps(doc)))
        return time.perf_counter() - start
    finally:
        gc.enable()


def fresh_stdlib_import_s() -> float:
    """Wall seconds of an isolated fresh interpreter importing stdlib modules."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", _STDLIB_IMPORTS],
        capture_output=True,
        timeout=60,
        check=True,
    )
    return time.perf_counter() - start


class Calibrated:
    """Wall times of successive pieces of work, each bracketed by a reference."""

    def __init__(self, reference: Callable[[], float], nominal_s: float) -> None:
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self._reference = reference
        self._nominal_s = nominal_s
        self._before = reference()

    def add(self, wall_s: float) -> None:
        after = self._reference()
        self.wall.append(wall_s)
        self.scaled.append(self._nominal_s * wall_s / ((self._before + after) / 2))
        self._before = after
