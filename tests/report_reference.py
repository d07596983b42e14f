"""The per-value report renderers: the oracle for ``report``'s column pass.

The library renders report rows a column at a time and fills one template
per row. This is the straightforward render it must equal byte for byte:
the whole document handed to ``json.dumps(..., sort_keys=True, indent=2)``,
and every CSV field through ``_cell``.
"""

import io
import json
from dataclasses import fields
from operator import attrgetter

from ttpo.report import Aggregate, ExperimentReport, InstanceRow

_ROW_COLUMNS = tuple(f.name for f in fields(InstanceRow))
_AGGREGATE_COLUMNS = tuple(f.name for f in fields(Aggregate))
_row_values = attrgetter(*_ROW_COLUMNS)
_aggregate_values = attrgetter(*_AGGREGATE_COLUMNS)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
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
