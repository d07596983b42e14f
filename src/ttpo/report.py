"""Experiment reports: per-instance rows, aggregates, and emission.

Reports are plain values: ``InstanceRow``, ``Aggregate`` and
``ExperimentReport`` are named tuples, so a list of rows transposes into
report columns with one ``zip(*rows)``. Aggregates are derived from rows
alone by ``compute_aggregate`` (left-to-right sums over len, so an external
reader can recompute them exactly on any Python version), and emission is
deterministic: the same report always renders to the same bytes, in both
CSV and JSON forms. JSON reports round-trip through ``load_report`` to an
equal value.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections.abc import Iterator, Sequence
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigurationError


class InstanceRow(NamedTuple):
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


class Aggregate(NamedTuple):
    """Corpus-level statistics; every value is recomputable from the rows.

    ``count`` is the row count; it shadows ``tuple.count``.
    """

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


class ExperimentReport(NamedTuple):
    rows: tuple[InstanceRow, ...]
    aggregate: Aggregate
    config: dict[str, str]
    seed: int
    version: str


_ROW_COLUMNS = InstanceRow._fields
_AGGREGATE_COLUMNS = Aggregate._fields


def _mean(values: Sequence) -> float:
    # Added left to right: from Python 3.12 on, sum() compensates float sums,
    # which would make a report's float means depend on the interpreter.
    total = 0
    for value in values:
        total += value
    return total / len(values)


def _optional_mean(values: Sequence) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return _mean(present)


def compute_aggregate(rows: list[InstanceRow] | tuple[InstanceRow, ...]) -> Aggregate:
    """Reduce rows to corpus statistics using left-to-right sum/len arithmetic."""
    if not rows:
        return Aggregate(0, 0.0, 0.0, *[None] * 10)
    columns = dict(zip(_ROW_COLUMNS, zip(*rows)))

    def rate(name: str) -> float | None:
        """The mean of a bool column as floats, over its non-None entries."""
        return _optional_mean([None if v is None else float(v) for v in columns[name]])

    mean_cost = _mean(columns["cost"])
    fixed_costs = columns["fixed_cost"]
    mean_fixed_cost = None if any(c is None for c in fixed_costs) else _mean(fixed_costs)
    savings_pct = None
    if mean_fixed_cost:
        savings_pct = 1.0 - mean_cost / mean_fixed_cost
    stopped = [
        correct
        for kind, correct in zip(columns["decision_kind"], columns["pseudo_correct"])
        if kind == "stop_leader" and correct is not None
    ]
    stop_error = None if not stopped else 1.0 - _mean([bool(c) for c in stopped])
    return Aggregate(
        count=len(rows),
        mean_tau=_mean(columns["tau"]),
        mean_cost=mean_cost,
        mean_fixed_cost=mean_fixed_cost,
        savings_pct=savings_pct,
        mean_savings_fraction=_optional_mean(columns["savings_fraction"]),
        pseudo_label_accuracy=rate("pseudo_correct"),
        fixed_accuracy=rate("fixed_correct"),
        empirical_stop_error_rate=stop_error,
        pre_update_accuracy=rate("pre_update_greedy_correct"),
        post_update_accuracy=rate("post_update_greedy_correct"),
        mean_pre_true_prob=_optional_mean(columns["pre_true_prob"]),
        mean_post_true_prob=_optional_mean(columns["post_true_prob"]),
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


# Row columns in the key order json.dumps(sort_keys=True) writes them.
_JSON_KEYS = tuple(sorted(_ROW_COLUMNS))
_JSON_ORDER = tuple(map(_ROW_COLUMNS.index, _JSON_KEYS))
_CONSTANT_TYPES = {type(None), bool}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_CSV_CONSTANTS = {None: "", True: "true", False: "false"}
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_text(value: str) -> str:
    """A string cell as csv.writer writes it: quoted, inner quotes doubled,
    when it holds a comma, a quote or a line break."""
    if _CSV_SPECIAL(value) is None:
        return value
    return '"' + value.replace('"', '""') + '"'


_TRAILER_LITERAL = re.compile('^"|[\r\n]').search


def _trailer(before, config: dict[str, str], after=()) -> str:
    """The ``# name = value`` lines that end a CSV document.

    The ``(name, value)`` pairs of ``before``, then each config entry as
    ``config.<key>`` in key order, then ``after``. A value holding a CR or
    LF, or starting with a double quote, is written as a JSON string
    literal, so that each entry stays on one line and decodes back exactly:
    a value starting with a quote is read with ``json.loads``, any other as
    it stands.
    """
    entries = [*before, *((f"config.{key}", config[key]) for key in sorted(config)), *after]
    return "".join(
        f"# {name} = {encode_basestring_ascii(value) if _TRAILER_LITERAL(value) else value}\n"
        for name, value in entries
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return _csv_text(value)
    return str(value)


def _json_scalar(value) -> str:
    """One value as json.dumps writes it, tested in json.dumps's own order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _format_columns(columns, strings, constants: dict, per_value) -> list[Iterator[str]]:
    """Each column's formatted values, by one C-level callable where its types allow.

    A column of exactly one type (or of None and bools only) maps through
    ``strings``, ``int.__repr__``, ``float.__repr__`` or a ``constants``
    lookup; any other column, such as an ``int | str`` label, goes value by
    value through ``per_value``.
    """
    formatted = []
    for column in columns:
        types = set(map(type, column))
        if types == {str}:
            format_value = strings
        elif types == {int}:
            format_value = int.__repr__
        elif types == {float} and all(map(isfinite, column)):
            format_value = float.__repr__
        elif types <= _CONSTANT_TYPES:
            format_value = constants.__getitem__
        else:
            format_value = per_value
        formatted.append(map(format_value, column))
    return formatted


def _json_part(value, indent: str) -> str:
    """A row-free value as json.dumps writes it, nested with its key at ``indent``.

    json.dumps escapes every newline inside a string, so each raw newline
    starts a line of the layout and takes the extra indent.
    """
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_rows(rows: tuple[InstanceRow, ...], indent: str) -> list[str]:
    """The rows list as json.dumps(indent=2) writes it, with its key at ``indent``.

    Returned as pieces, so that the whole document is joined once. Each
    intermediate report-sized string would cost a copy, and freeing it can
    trim the heap.
    """
    if not rows:
        return ["[]"]
    pad = indent + "  "
    template = (
        ",\n" + pad + "{\n"
        + ",\n".join(f'{pad}  "{name}": %s' for name in _JSON_KEYS)
        + "\n" + pad + "}"
    )
    columns = tuple(zip(*rows))
    formatted = _format_columns(
        [columns[i] for i in _JSON_ORDER], encode_basestring_ascii, _JSON_CONSTANTS, _json_scalar
    )
    pieces = list(map(template.__mod__, zip(*formatted)))
    # The first row's leading comma becomes the list's opening bracket.
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n" + indent + "]")
    return pieces


def _report_json(report: ExperimentReport, indent: str) -> list[str]:
    """The report document as json.dumps(sort_keys=True, indent=2) writes it.

    The document's braces sit at ``indent``. Its keys are already in sorted
    order.
    """
    inner = indent + "  "
    return [
        f'{{\n{inner}"aggregate": {_json_part(report.aggregate._asdict(), inner)},\n'
        f'{inner}"config": {_json_part(report.config, inner)},\n'
        f'{inner}"rows": ',
        *_json_rows(report.rows, inner),
        f',\n{inner}"seed": {_json_part(report.seed, inner)},\n'
        f'{inner}"version": {_json_part(report.version, inner)}\n'
        f"{indent}}}",
    ]


def render_report(report: ExperimentReport, fmt: str) -> str:
    """Deterministic serialization; equal reports render to equal bytes.

    The JSON form is exactly ``json.dumps(document, sort_keys=True,
    indent=2)`` plus a newline, built a column at a time.
    """
    if fmt == "json":
        return "".join(_report_json(report, "") + ["\n"])
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    out = io.StringIO()
    out.write(",".join(_ROW_COLUMNS) + "\n")
    if report.rows:
        columns = zip(*report.rows)
        formatted = _format_columns(columns, _csv_text, _CSV_CONSTANTS, _cell)
        out.write("\n".join(map(",".join, zip(*formatted))))
        out.write("\n")
    aggregates = zip(_AGGREGATE_COLUMNS, map(_cell, report.aggregate))
    identity = [("seed", str(report.seed)), ("version", report.version)]
    out.write(_trailer(aggregates, report.config, identity))
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
        documents = "[]"
        if reports:
            documents = (
                "[\n"
                + ",\n".join("    " + "".join(_report_json(report, "    ")) for report in reports)
                + "\n  ]"
            )
        return (
            f'{{\n  "axis": {_json_part(axis, "  ")},\n'
            f'  "config": {_json_part(parent_config, "  ")},\n'
            f'  "reports": {documents},\n'
            f'  "values": {_json_part(list(values), "  ")}\n}}\n'
        )
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    out = io.StringIO()
    out.write("value," + ",".join(_AGGREGATE_COLUMNS) + "\n")
    for value, report in zip(values, reports):
        cells = map(_cell, report.aggregate)
        out.write(_cell(value) + "," + ",".join(cells) + "\n")
    out.write(_trailer([("axis", axis)], parent_config))
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
