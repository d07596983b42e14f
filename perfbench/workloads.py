"""Benchmark workloads and their seeded inputs.

Each workload is one `ttpo` CLI invocation over inputs made here from the
workload seed: a flat key=value config file, plus, for trace replay, a
rollout trace and a gold-label sidecar. The program sees only those files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Stopping rule shared by every workload: the CLI defaults, spelled out so the
# checks below do not depend on the program's defaults staying put.
STOPPER = {"alpha": "0.05", "beta": "0.05", "n_min": "32", "m_max": "64", "streak_k": "5"}
FIXED_BUDGET = 64
MIXTURE = "mixture:0.5,0.95,0.5"


@dataclass
class ReplayInstance:
    """One generated trace instance, kept for the correctness checks."""

    instance_id: str
    gold: str
    answers: list[str]
    tokens: list[int]


@dataclass
class Inputs:
    """Everything one workload run needs: the CLI argv and what to check."""

    argv: list[str]
    out_path: Path
    fmt: str
    mode: str
    count: int
    config: dict[str, str]
    replay: list[ReplayInstance] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]
    fmt: str
    config: dict[str, str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare_mixture",
            why=(
                "paper headline regime: easy instances stop at n_min, hard ones run "
                "to m_max; stopper and consensus dominate, plus a 64-draw fixed arm "
                "and a large JSON render"
            ),
            command=("compare",),
            fmt="json",
            config={
                "count": "2000",
                "m": "4",
                "p0": MIXTURE,
                "fixed_budget": str(FIXED_BUDGET),
            },
        ),
        Workload(
            name="ttpo_rl_loop",
            why=(
                "the only workload where optimizer updates and policy vote sources "
                "do real work; CSV render, no fixed arm"
            ),
            command=("ttpo", "--update", "rl"),
            fmt="csv",
            config={
                "count": "400",
                "m": "8",
                "p0": MIXTURE,
                "rounds": "4",
                "fixed_budget": str(FIXED_BUDGET),
            },
        ),
        Workload(
            name="replay_wide",
            why=(
                "trace replay: parse-heavy, ragged and truncated traces, wide long-"
                "tailed answer space with a distractor, and no seeding or RNG work"
            ),
            command=("replay",),
            fmt="json",
            config={"fixed_budget": str(FIXED_BUDGET)},
        ),
    )
}

REPLAY_COUNT = 600


def _answer_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Distinct math-style answer strings (no commas, so the labels CSV is plain)."""
    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < size:
        style = rng.randrange(4)
        a, b = rng.randint(-999, 999), rng.randint(2, 97)
        if style == 0:
            text = str(a)
        elif style == 1:
            text = f"{a}/{b}"
        elif style == 2:
            text = f"\\frac{{{a}}}{{{b}}}"
        else:
            text = f"{a}\\sqrt{{{b}}}"
        if text not in seen:
            seen.add(text)
            vocab.append(text)
    return vocab


def _replay_instance(rng: random.Random, index: int) -> ReplayInstance:
    # About 32 distinct answers: the gold one, one distractor that carries
    # extra mass (so the symmetric-noise model is wrong), and a Zipf tail whose
    # rare members first show up late in the trace, after most stops.
    vocab = _answer_vocabulary(rng, rng.randint(24, 40))
    easy = rng.random() < 0.55
    p_gold = rng.uniform(0.55, 0.9) if easy else rng.uniform(0.3, 0.5)
    q_distractor = rng.uniform(0.08, 0.2) if easy else rng.uniform(0.15, 0.35)
    tail = [1.0 / (rank + 1) ** 1.1 for rank in range(len(vocab) - 2)]
    tail_mass = max(0.0, 1.0 - p_gold - q_distractor)
    weights = [p_gold, q_distractor] + [tail_mass * w / sum(tail) for w in tail]
    # Ragged lengths: a fifth of the traces end before m_max (truncation and
    # force_stop), some of those before n_min.
    if rng.random() < 0.2:
        n = rng.randint(12, 63)
    else:
        n = rng.randint(64, 160)
    answers = rng.choices(vocab, weights=weights, k=n)
    tokens = [
        max(1, int(rng.lognormvariate(6.0 if a == vocab[0] else 6.5, 0.6)))
        for a in answers
    ]
    return ReplayInstance(
        instance_id=f"q-{index:05d}", gold=vocab[0], answers=answers, tokens=tokens
    )


def _write_replay(rng: random.Random, workdir: Path) -> tuple[Path, Path, list[ReplayInstance]]:
    instances = [_replay_instance(rng, i) for i in range(REPLAY_COUNT)]
    trace = workdir / "rollouts.jsonl"
    labels = workdir / "gold.csv"
    with trace.open("w", encoding="utf-8") as handle:
        for inst in instances:
            for index, (answer, tokens) in enumerate(zip(inst.answers, inst.tokens)):
                record = {
                    "answer": answer,
                    "instance_id": inst.instance_id,
                    "rollout_index": index,
                    "tokens": tokens,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    with labels.open("w", encoding="utf-8") as handle:
        handle.write("instance_id,answer\n")
        for inst in instances:
            handle.write(f"{inst.instance_id},{inst.gold}\n")
    return trace, labels, instances


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files for `seed` and return how to run them."""
    rng = random.Random(f"perfbench|{workload.name}|{seed}")
    config = {"seed": str(seed), **STOPPER, **workload.config}
    argv = list(workload.command)
    replay: list[ReplayInstance] = []
    if workload.name == "replay_wide":
        trace, labels, replay = _write_replay(rng, workdir)
        argv += [str(trace), "--labels", str(labels)]
        count = len(replay)
    else:
        count = int(config["count"])
    mode = "ttpo_rl" if workload.command[0] == "ttpo" else "compare"
    config_path = workdir / "bench.cfg"
    config_path.write_text(
        "".join(f"{key} = {value}\n" for key, value in config.items()), encoding="utf-8"
    )
    out_path = workdir / f"report.{workload.fmt}"
    argv += ["--config", str(config_path), "--out", str(out_path), "--format", workload.fmt]
    return Inputs(
        argv=argv,
        out_path=out_path,
        fmt=workload.fmt,
        mode=mode,
        count=count,
        config=config,
        replay=replay,
    )
