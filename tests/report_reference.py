"""The per-value report renderers: the oracle for ``report``'s column pass.

The library renders report rows a column at a time and fills one template
per row. This is the straightforward render it must equal byte for byte:
the whole document handed to ``json.dumps(..., sort_keys=True, indent=2)``,
every CSV field through ``_cell``, and every trailer line through
``_comment``.
"""

import io
import json

from ttpo.report import Aggregate, ExperimentReport, InstanceRow

_ROW_COLUMNS = InstanceRow._fields
_AGGREGATE_COLUMNS = Aggregate._fields


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


def _comment(name, value) -> str:
    """One ``# name = value`` trailer line; a value holding CR or LF, or
    starting with a double quote, is written as a JSON string literal."""
    text = str(value)
    if text.startswith('"') or "\r" in text or "\n" in text:
        text = json.dumps(text)
    return f"# {name} = {text}\n"


def report_document(report: ExperimentReport) -> dict:
    """The report as a plain JSON-ready dict."""
    return {
        "aggregate": report.aggregate._asdict(),
        "config": report.config,
        "rows": [row._asdict() for row in report.rows],
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
        out.write(",".join(map(_cell, row)) + "\n")
    for name, value in report.aggregate._asdict().items():
        out.write(_comment(name, _cell(value)))
    for key in sorted(report.config):
        out.write(_comment(f"config.{key}", report.config[key]))
    out.write(_comment("seed", report.seed))
    out.write(_comment("version", report.version))
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
        cells = map(_cell, report.aggregate)
        out.write(_cell(value) + "," + ",".join(cells) + "\n")
    out.write(_comment("axis", axis))
    for key in sorted(parent_config):
        out.write(_comment(f"config.{key}", parent_config[key]))
    return out.getvalue()
