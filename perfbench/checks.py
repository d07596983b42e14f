"""Correctness checks on one CLI report, independent of the program's own code.

The report is read back from its bytes; every aggregate is recomputed here
from the rows (plain sum/len over the documented definitions), and every row
is checked against what the workload's inputs imply. Only the JSON round trip
goes through the program, via ``ttpo.report.load_report``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from workloads import FIXED_BUDGET, Inputs, ReplayInstance

_INT = re.compile(r"-?\d+")


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _mean(values: list) -> float | None:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _as_float(flag) -> float | None:
    return None if flag is None else float(flag)


def recompute_aggregate(rows: list[dict]) -> dict:
    """The report's aggregate, from its documented definitions."""
    fixed = [row["fixed_cost"] for row in rows]
    mean_cost = sum(row["cost"] for row in rows) / len(rows)
    mean_fixed = None if any(c is None for c in fixed) else sum(fixed) / len(fixed)
    stopped = [
        row["pseudo_correct"]
        for row in rows
        if row["decision_kind"] == "stop_leader" and row["pseudo_correct"] is not None
    ]
    return {
        "count": len(rows),
        "mean_tau": sum(row["tau"] for row in rows) / len(rows),
        "mean_cost": mean_cost,
        "mean_fixed_cost": mean_fixed,
        "savings_pct": 1.0 - mean_cost / mean_fixed if mean_fixed else None,
        "mean_savings_fraction": _mean([row["savings_fraction"] for row in rows]),
        "pseudo_label_accuracy": _mean([_as_float(r["pseudo_correct"]) for r in rows]),
        "fixed_accuracy": _mean([_as_float(r["fixed_correct"]) for r in rows]),
        "empirical_stop_error_rate": (
            1.0 - sum(map(float, stopped)) / len(stopped) if stopped else None
        ),
        "pre_update_accuracy": _mean(
            [_as_float(r["pre_update_greedy_correct"]) for r in rows]
        ),
        "post_update_accuracy": _mean(
            [_as_float(r["post_update_greedy_correct"]) for r in rows]
        ),
        "mean_pre_true_prob": _mean([row["pre_true_prob"] for row in rows]),
        "mean_post_true_prob": _mean([row["post_true_prob"] for row in rows]),
    }


def _csv_cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(text: str, fmt: str) -> tuple[list[dict], dict]:
    """(rows, aggregate) of a rendered report."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["rows"], doc["aggregate"]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(body)))
    header = next(reader)
    rows = [dict(zip(header, map(_csv_cell, cells))) for cells in reader]
    aggregate = {}
    for line in text.splitlines():
        if line.startswith("# ") and not line.startswith(("# config.", "# seed", "# version")):
            name, _, value = line[2:].partition(" = ")
            aggregate[name] = _csv_cell(value)
    return rows, aggregate


def _plurality(answers: list[str]) -> str:
    """Most frequent answer; ties go to the earliest-seen one."""
    counts: dict[str, int] = {}
    for answer in answers:
        counts[answer] = counts.get(answer, 0) + 1
    return max(counts, key=counts.get)


def _check_tau(row: dict, inputs: Inputs, rounds: int, votes_available: int | None) -> str | None:
    cfg = inputs.config
    n_min, m_max, streak = int(cfg["n_min"]), int(cfg["m_max"]), int(cfg["streak_k"])
    tau, kind = row["tau"], row["decision_kind"]
    if row["truncated"]:
        if votes_available is None or tau != votes_available or votes_available >= m_max:
            return f"truncated row with tau={tau}"
        return None if kind == "budget_exhausted" else f"truncated row ended {kind}"
    if not rounds * n_min <= tau <= rounds * m_max:
        return f"tau={tau} outside [{rounds * n_min}, {rounds * m_max}]"
    if rounds == 1 and kind == "budget_exhausted" and tau != m_max:
        return f"budget_exhausted at tau={tau} != m_max"
    if rounds == 1 and kind == "stop_leader" and tau < n_min + streak - 1:
        return f"stop_leader at tau={tau} before a {streak}-vote streak"
    if kind not in ("stop_leader", "budget_exhausted"):
        return f"unexpected decision_kind {kind!r}"
    return None


def _check_synthetic_row(row: dict, inputs: Inputs) -> str | None:
    rounds = int(inputs.config.get("rounds", "1")) if inputs.mode == "ttpo_rl" else 1
    cost_per_vote = int(inputs.config.get("cost_per_vote", "1"))
    problem = _check_tau(row, inputs, rounds, None)
    if problem:
        return problem
    if row["cost"] != row["tau"] * cost_per_vote:
        return f"cost {row['cost']} != tau x cost_per_vote"
    if row["fixed_cost"] != rounds * FIXED_BUDGET * cost_per_vote:
        return f"fixed_cost {row['fixed_cost']} != fixed_budget x cost_per_vote"
    m = int(inputs.config["m"])
    if not (isinstance(row["pseudo_label"], int) and 0 <= row["pseudo_label"] < m):
        return f"pseudo_label {row['pseudo_label']!r} outside the answer space"
    if inputs.mode == "ttpo_rl":
        for name in ("pre_true_prob", "post_true_prob", "pre_pseudo_prob", "post_pseudo_prob"):
            if row[name] is None or not 0.0 <= row[name] <= 1.0:
                return f"{name}={row[name]!r} is not a probability"
        if row["post_update_greedy_correct"] is None:
            return "closed-loop row without post-update accuracy"
    return None


def _check_replay_row(row: dict, inst: ReplayInstance, inputs: Inputs) -> str | None:
    n = len(inst.answers)
    problem = _check_tau(row, inputs, 1, n)
    if problem:
        return problem
    tau = row["tau"]
    pseudo = _plurality(inst.answers[:tau])
    if row["pseudo_label"] != pseudo:
        return f"pseudo_label {row['pseudo_label']!r} != plurality {pseudo!r} of {tau} records"
    if row["cost"] != sum(inst.tokens[:tau]):
        return f"cost {row['cost']} != token sum of the first {tau} records"
    k = min(FIXED_BUDGET, n)
    fixed = _plurality(inst.answers[:k])
    if row["fixed_label"] != fixed or row["fixed_cost"] != sum(inst.tokens[:k]):
        return f"fixed arm ({row['fixed_label']!r}, {row['fixed_cost']}) != first {k} records"
    if row["pseudo_correct"] != (pseudo == inst.gold) or row["fixed_correct"] != (fixed == inst.gold):
        return "correctness flags disagree with the gold label"
    return None


def check_report(inputs: Inputs) -> tuple[int, list[str], list[dict], dict]:
    """(instances failed, problems, rows, aggregate) of the report on disk."""
    text = inputs.out_path.read_text(encoding="utf-8")
    try:
        rows, aggregate = parse_report(text, inputs.fmt)
    except (ValueError, KeyError, StopIteration) as exc:
        return inputs.count, [f"unreadable report: {exc!r}"], [], {}
    ids = [row.get("instance_id") for row in rows]
    if len(rows) != inputs.count or len(set(ids)) != len(ids):
        problem = f"{len(rows)} rows ({len(set(ids))} distinct) for {inputs.count} instances"
        return inputs.count, [problem], rows, aggregate
    if inputs.replay and ids != [inst.instance_id for inst in inputs.replay]:
        return inputs.count, ["row instance ids differ from the trace's"], rows, aggregate

    problems = []
    for index, row in enumerate(rows):
        try:
            if inputs.replay:
                problem = _check_replay_row(row, inputs.replay[index], inputs)
            else:
                problem = _check_synthetic_row(row, inputs)
            if problem is None and not _close(
                row["savings_fraction"], 1.0 - row["cost"] / row["fixed_cost"]
            ):
                problem = f"savings_fraction {row['savings_fraction']} != 1 - cost/fixed_cost"
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            problem = f"malformed row: {exc!r}"
        if problem:
            problems.append(f"{row.get('instance_id')}: {problem}")

    try:
        expected = recompute_aggregate(rows)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return inputs.count, problems + [f"aggregate not recomputable: {exc!r}"], rows, aggregate
    wrong = [
        name
        for name, value in expected.items()
        if name not in aggregate or not _close(aggregate[name], value)
    ]
    if wrong:
        return inputs.count, problems + [f"aggregate disagrees with rows on {wrong}"], rows, aggregate
    if inputs.fmt == "json":
        from ttpo.report import load_report, render_report

        if render_report(load_report(inputs.out_path), "json") != text:
            return inputs.count, ["JSON report does not round-trip through load_report"], rows, aggregate
    return len(problems), problems, rows, aggregate
