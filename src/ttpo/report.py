"""Experiment reports: per-instance rows, aggregates, and emission.

Reports are plain values. Aggregates are derived from rows alone by
``compute_aggregate`` (simple sum/len arithmetic so an external reader can
recompute them exactly), and emission is deterministic: the same report
always renders to the same bytes, in both CSV and JSON forms. JSON reports
round-trip through ``load_report`` to an equal value.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .errors import ConfigurationError


@dataclass(frozen=True)
class InstanceRow:
    """Per-instance outcome; optional fields stay None outside their mode.

    Correctness fields are None when no ground truth exists (unlabeled
    traces). The fixed_* fields are filled by the fixed-budget comparison
    arm, the pre_*/post_* fields by closed-loop update runs.
    """

    instance_id: str
    tau: int
    pseudo_label: int | str
    pseudo_correct: bool | None
    cost: int
    savings_fraction: float | None
    decision_kind: str
    truncated: bool = False
    fixed_cost: int | None = None
    fixed_label: int | str | None = None
    fixed_correct: bool | None = None
    pre_update_greedy_correct: bool | None = None
    post_update_greedy_correct: bool | None = None
    pre_true_prob: float | None = None
    post_true_prob: float | None = None
    pre_pseudo_prob: float | None = None
    post_pseudo_prob: float | None = None


@dataclass(frozen=True)
class Aggregate:
    """Corpus-level statistics; every value is recomputable from the rows."""

    count: int
    mean_tau: float
    mean_cost: float
    mean_fixed_cost: float | None
    savings_pct: float | None
    mean_savings_fraction: float | None
    pseudo_label_accuracy: float | None
    fixed_accuracy: float | None
    empirical_stop_error_rate: float | None
    pre_update_accuracy: float | None
    post_update_accuracy: float | None
    mean_pre_true_prob: float | None
    mean_post_true_prob: float | None


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[InstanceRow, ...]
    aggregate: Aggregate
    config: dict[str, str]
    seed: int
    version: str


def _mean(values: list) -> float:
    return sum(values) / len(values)


def _optional_mean(values: list) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return _mean(present)


def compute_aggregate(rows: list[InstanceRow] | tuple[InstanceRow, ...]) -> Aggregate:
    """Reduce rows to corpus statistics using plain sum/len arithmetic."""
    if not rows:
        return Aggregate(
            count=0,
            mean_tau=0.0,
            mean_cost=0.0,
            mean_fixed_cost=None,
            savings_pct=None,
            mean_savings_fraction=None,
            pseudo_label_accuracy=None,
            fixed_accuracy=None,
            empirical_stop_error_rate=None,
            pre_update_accuracy=None,
            post_update_accuracy=None,
            mean_pre_true_prob=None,
            mean_post_true_prob=None,
        )
    mean_cost = _mean([row.cost for row in rows])
    fixed_costs = [row.fixed_cost for row in rows]
    mean_fixed_cost = None if any(c is None for c in fixed_costs) else _mean(fixed_costs)
    savings_pct = None
    if mean_fixed_cost:
        savings_pct = 1.0 - mean_cost / mean_fixed_cost
    stopped = [
        row.pseudo_correct
        for row in rows
        if row.decision_kind == "stop_leader" and row.pseudo_correct is not None
    ]
    stop_error = None if not stopped else 1.0 - _mean([bool(c) for c in stopped])
    return Aggregate(
        count=len(rows),
        mean_tau=_mean([row.tau for row in rows]),
        mean_cost=mean_cost,
        mean_fixed_cost=mean_fixed_cost,
        savings_pct=savings_pct,
        mean_savings_fraction=_optional_mean([row.savings_fraction for row in rows]),
        pseudo_label_accuracy=_optional_mean(
            [None if row.pseudo_correct is None else float(row.pseudo_correct) for row in rows]
        ),
        fixed_accuracy=_optional_mean(
            [None if row.fixed_correct is None else float(row.fixed_correct) for row in rows]
        ),
        empirical_stop_error_rate=stop_error,
        pre_update_accuracy=_optional_mean(
            [
                None if row.pre_update_greedy_correct is None
                else float(row.pre_update_greedy_correct)
                for row in rows
            ]
        ),
        post_update_accuracy=_optional_mean(
            [
                None if row.post_update_greedy_correct is None
                else float(row.post_update_greedy_correct)
                for row in rows
            ]
        ),
        mean_pre_true_prob=_optional_mean([row.pre_true_prob for row in rows]),
        mean_post_true_prob=_optional_mean([row.post_true_prob for row in rows]),
    )


def build_report(
    rows: list[InstanceRow], config: dict[str, str], seed: int, version: str
) -> ExperimentReport:
    return ExperimentReport(
        rows=tuple(rows),
        aggregate=compute_aggregate(rows),
        config=dict(config),
        seed=seed,
        version=version,
    )


_ROW_COLUMNS = tuple(f.name for f in fields(InstanceRow))
_AGGREGATE_COLUMNS = tuple(f.name for f in fields(Aggregate))
# Field values in column order. Every field is a scalar, so a shallow read
# renders the same as dataclasses.asdict without its per-value deep copy.
_row_values = attrgetter(*_ROW_COLUMNS)
_aggregate_values = attrgetter(*_AGGREGATE_COLUMNS)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_document(report: ExperimentReport) -> dict:
    """The report as a plain JSON-ready dict."""
    return {
        "aggregate": dict(zip(_AGGREGATE_COLUMNS, _aggregate_values(report.aggregate))),
        "config": report.config,
        "rows": [dict(zip(_ROW_COLUMNS, _row_values(row))) for row in report.rows],
        "seed": report.seed,
        "version": report.version,
    }


def render_report(report: ExperimentReport, fmt: str) -> str:
    """Deterministic serialization; equal reports render to equal bytes."""
    if fmt == "json":
        return json.dumps(report_document(report), sort_keys=True, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    out = io.StringIO()
    out.write(",".join(_ROW_COLUMNS) + "\n")
    for row in report.rows:
        out.write(",".join(map(_cell, _row_values(row))) + "\n")
    for name, value in zip(_AGGREGATE_COLUMNS, _aggregate_values(report.aggregate)):
        out.write(f"# {name} = {_cell(value)}\n")
    for key in sorted(report.config):
        out.write(f"# config.{key} = {report.config[key]}\n")
    out.write(f"# seed = {report.seed}\n")
    out.write(f"# version = {report.version}\n")
    return out.getvalue()


def render_ablation(
    axis: str,
    values: tuple[float, ...],
    reports: list[ExperimentReport],
    parent_config: dict[str, str],
    fmt: str,
) -> str:
    """One document covering a whole sweep: per-value reports or aggregates."""
    if fmt == "json":
        doc = {
            "axis": axis,
            "config": parent_config,
            "reports": [report_document(r) for r in reports],
            "values": list(values),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    out = io.StringIO()
    out.write("value," + ",".join(_AGGREGATE_COLUMNS) + "\n")
    for value, report in zip(values, reports):
        cells = map(_cell, _aggregate_values(report.aggregate))
        out.write(_cell(value) + "," + ",".join(cells) + "\n")
    out.write(f"# axis = {axis}\n")
    for key in sorted(parent_config):
        out.write(f"# config.{key} = {parent_config[key]}\n")
    return out.getvalue()


def _write_text(rendered: str, path: str | Path) -> None:
    if str(path) == "-":
        sys.stdout.write(rendered)
        return
    try:
        Path(path).write_text(rendered, encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write report {path}: {exc.strerror}") from exc


def emit_report(report: ExperimentReport, path: str | Path, fmt: str) -> None:
    """Write the rendered report; '-' writes to stdout."""
    _write_text(render_report(report, fmt), path)


def emit_ablation(
    axis: str,
    values: tuple[float, ...],
    reports: list[ExperimentReport],
    parent_config: dict[str, str],
    path: str | Path,
    fmt: str,
) -> None:
    _write_text(render_ablation(axis, values, reports, parent_config, fmt), path)


def load_report(path: str | Path) -> ExperimentReport:
    """Read a JSON report back into an equal ExperimentReport value."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return ExperimentReport(
        rows=tuple(InstanceRow(**row) for row in doc["rows"]),
        aggregate=Aggregate(**doc["aggregate"]),
        config=dict(doc["config"]),
        seed=doc["seed"],
        version=doc["version"],
    )
