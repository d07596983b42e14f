"""Report assembly, aggregate arithmetic, and deterministic emission."""

import csv
import dataclasses
import functools
import io
import json
import operator
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import report_reference
import ttpo.report
from ttpo.config import resolve_config
from ttpo.experiment import run_ttpo
from ttpo.report import (
    Aggregate,
    ExperimentReport,
    InstanceRow,
    build_report,
    compute_aggregate,
    emit_report,
    load_report,
    render_ablation,
    render_report,
)


def row(
    instance_id="inst-00000",
    tau=36,
    pseudo_label=1,
    pseudo_correct=True,
    cost=36,
    savings_fraction=0.4375,
    decision_kind="stop_leader",
    **extra,
):
    return InstanceRow(
        instance_id=instance_id,
        tau=tau,
        pseudo_label=pseudo_label,
        pseudo_correct=pseudo_correct,
        cost=cost,
        savings_fraction=savings_fraction,
        decision_kind=decision_kind,
        **extra,
    )


rows_strategy = st.lists(
    st.builds(
        row,
        instance_id=st.text("ab-0123456789", min_size=1, max_size=12),
        tau=st.integers(1, 200),
        pseudo_correct=st.one_of(st.none(), st.booleans()),
        cost=st.integers(1, 5000),
        decision_kind=st.sampled_from(["stop_leader", "budget_exhausted"]),
        fixed_cost=st.integers(1, 5000),
        fixed_correct=st.one_of(st.none(), st.booleans()),
    ),
    min_size=1,
    max_size=30,
)


def test_empty_aggregate():
    agg = compute_aggregate([])
    assert agg.count == 0
    assert agg.mean_tau == 0.0
    assert agg.savings_pct is None
    assert agg.pseudo_label_accuracy is None


def test_single_row_aggregate():
    agg = compute_aggregate([row(fixed_cost=64, fixed_correct=True)])
    assert agg.count == 1
    assert agg.mean_tau == 36.0
    assert agg.mean_cost == 36.0
    assert agg.mean_fixed_cost == 64.0
    assert agg.savings_pct == 1.0 - 36.0 / 64.0
    assert agg.pseudo_label_accuracy == 1.0
    assert agg.fixed_accuracy == 1.0
    assert agg.empirical_stop_error_rate == 0.0
    assert agg.post_update_accuracy is None


@given(rows=rows_strategy)
def test_aggregate_matches_plain_recomputation(rows):
    agg = compute_aggregate(rows)
    assert agg.count == len(rows)
    assert agg.mean_tau == sum(r.tau for r in rows) / len(rows)
    assert agg.mean_cost == sum(r.cost for r in rows) / len(rows)
    assert agg.mean_fixed_cost == sum(r.fixed_cost for r in rows) / len(rows)
    assert agg.savings_pct == 1.0 - agg.mean_cost / agg.mean_fixed_cost
    labeled = [r for r in rows if r.pseudo_correct is not None]
    if labeled:
        assert agg.pseudo_label_accuracy == (
            sum(r.pseudo_correct for r in labeled) / len(labeled)
        )
    else:
        assert agg.pseudo_label_accuracy is None


def test_stop_error_rate_counts_only_early_stops():
    rows = [
        row(pseudo_correct=True, decision_kind="stop_leader"),
        row(pseudo_correct=False, decision_kind="stop_leader"),
        row(pseudo_correct=False, decision_kind="budget_exhausted"),
        row(pseudo_correct=None, decision_kind="stop_leader"),
    ]
    agg = compute_aggregate(rows)
    # Two labeled early stops, one of them wrong.
    assert agg.empirical_stop_error_rate == 0.5
    assert agg.pseudo_label_accuracy == pytest.approx(1 / 3)


def test_fixed_cost_missing_anywhere_disables_savings():
    rows = [row(fixed_cost=64), row(fixed_cost=None)]
    agg = compute_aggregate(rows)
    assert agg.mean_fixed_cost is None
    assert agg.savings_pct is None


def sample_report():
    rows = [
        row(fixed_cost=64, fixed_label=1, fixed_correct=True),
        row(
            instance_id="inst-00001",
            tau=64,
            pseudo_label="17",
            pseudo_correct=None,
            cost=64,
            savings_fraction=0.0,
            decision_kind="budget_exhausted",
            truncated=True,
            fixed_cost=64,
            pre_update_greedy_correct=True,
            post_update_greedy_correct=True,
            pre_true_prob=0.7,
            post_true_prob=0.7123,
        ),
    ]
    return build_report(rows, {"mode": "compare", "seed": "3"}, 3, "0.1.0")


def test_json_round_trip(tmp_path):
    report = sample_report()
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    assert load_report(path) == report


def test_json_deterministic_and_newline_terminated():
    report = sample_report()
    first = render_report(report, "json")
    assert first == render_report(report, "json")
    assert first.endswith("\n")
    doc = json.loads(first)
    assert set(doc) == {"aggregate", "config", "rows", "seed", "version"}


def test_empty_report_forms():
    report = build_report([], {"mode": "compare"}, 0, "0.1.0")
    doc = json.loads(render_report(report, "json"))
    assert doc["rows"] == []
    lines = render_report(report, "csv").splitlines()
    assert lines[0].startswith("instance_id,tau,")
    assert all(line.startswith("#") for line in lines[1:])


def test_csv_cells():
    text = render_report(sample_report(), "csv")
    reader = csv.DictReader(io.StringIO(text.split("#")[0]))
    first, second = list(reader)
    assert first["pseudo_correct"] == "true"
    assert first["pre_true_prob"] == ""
    assert second["pseudo_label"] == "17"
    assert second["truncated"] == "true"
    assert second["post_true_prob"] == repr(0.7123)


def test_csv_quotes_string_cells_that_need_it():
    # A comma, a quote or a line break inside a cell is quoted as csv.writer
    # quotes it, so csv.reader reads back every row whole.
    # The pseudo_label column mixes in an int, so it goes value by value.
    ids = ["a,b", 'say "hi"', "x\ny", "c\rd", "plain"]
    rows = [row(instance_id=i, pseudo_label=i, fixed_label=i) for i in ids]
    report = build_report(rows + [row(instance_id="n", pseudo_label=3)], {}, 0, "0.1.0")
    text = render_report(report, "csv")
    assert text == report_reference.render_report(report, "csv")
    parsed = list(csv.reader(io.StringIO(text)))
    assert [len(cells) for cells in parsed[: len(rows) + 2]] == [17] * (len(rows) + 2)
    for cells, expected in zip(parsed[1:], ids):
        assert (cells[0], cells[2], cells[9]) == (expected, expected, expected)
    assert '"say ""hi"""' in text and "\nplain," in text


def test_csv_aggregates_recomputable_from_rows():
    # The trailing comment block must match an external recomputation from
    # the emitted rows alone.
    report = sample_report()
    text = render_report(report, "csv")
    body, _, tail = text.partition("#")
    rows = list(csv.DictReader(io.StringIO(body)))
    embedded = {}
    for line in ("#" + tail).splitlines():
        key, _, value = line[1:].partition("=")
        embedded[key.strip()] = value.strip()
    mean_tau = sum(int(r["tau"]) for r in rows) / len(rows)
    mean_cost = sum(int(r["cost"]) for r in rows) / len(rows)
    mean_fixed = sum(int(r["fixed_cost"]) for r in rows) / len(rows)
    assert embedded["mean_tau"] == repr(mean_tau)
    assert embedded["mean_cost"] == repr(mean_cost)
    assert embedded["savings_pct"] == repr(1.0 - mean_cost / mean_fixed)
    assert embedded["config.mode"] == "compare"
    assert embedded["seed"] == "3"


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        render_report(sample_report(), "xml")


def test_stdout_emission(capsys):
    report = sample_report()
    emit_report(report, "-", "json")
    assert capsys.readouterr().out == render_report(report, "json")


def test_ablation_rendering():
    reports = [sample_report(), sample_report()]
    parent = {"mode": "ablate", "axis": "alpha_beta", "values": "0.01,0.05"}
    doc = json.loads(render_ablation("alpha_beta", (0.01, 0.05), reports, parent, "json"))
    assert doc["axis"] == "alpha_beta"
    assert doc["values"] == [0.01, 0.05]
    assert len(doc["reports"]) == 2
    assert doc["config"]["values"] == "0.01,0.05"

    text = render_ablation("alpha_beta", (0.01, 0.05), reports, parent, "csv")
    lines = text.splitlines()
    assert lines[0].startswith("value,count,mean_tau,")
    assert lines[1].startswith("0.01,2,")
    assert "# axis = alpha_beta" in lines


# Differential tests: the column-wise render against the per-value oracle.

_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e16])
)
_ints = st.integers(-(2**70), 2**70)
# Lone surrogates (category Cs) included; json.dumps escapes them as \uXXXX.
_texts = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u2028", "é-€-😀", "\ud800", "a\udfffb", "%s"]),
)
_bools = st.booleans()
_none = st.none()

# Each row field's value kinds. A column is drawn either from one kind
# (a single-type column, all None included) or from all of them mixed.
_FIELD_KINDS = {
    "instance_id": [_texts],
    "tau": [_ints],
    "pseudo_label": [_ints, _texts],
    "pseudo_correct": [_bools, _none],
    "cost": [_ints],
    "savings_fraction": [_floats, _finite_floats, _none],
    "decision_kind": [_texts],
    "truncated": [_bools],
    "fixed_cost": [_ints, _none],
    "fixed_label": [_ints, _texts, _none],
    "fixed_correct": [_bools, _none],
    "pre_update_greedy_correct": [_bools, _none],
    "post_update_greedy_correct": [_bools, _none],
    "pre_true_prob": [_floats, _finite_floats, _none],
    "post_true_prob": [_floats, _finite_floats, _none],
    "pre_pseudo_prob": [_floats, _finite_floats, _none],
    "post_pseudo_prob": [_floats, _finite_floats, _none],
}
_configs = st.dictionaries(_texts, _texts, max_size=4)


@st.composite
def any_report(draw, max_rows=25):
    count = draw(st.sampled_from([0, 1, draw(st.integers(2, max_rows))]))
    columns = {}
    for name, kinds in _FIELD_KINDS.items():
        values = draw(st.sampled_from(kinds + [st.one_of(kinds)]))
        columns[name] = draw(st.lists(values, min_size=count, max_size=count))
    rows = tuple(
        InstanceRow(**{name: column[i] for name, column in columns.items()})
        for i in range(count)
    )
    aggregate = Aggregate(
        count=count,
        **{
            f.name: draw(st.one_of(_none, _floats))
            for f in dataclasses.fields(Aggregate)
            if f.name != "count"
        },
    )
    return ExperimentReport(
        rows=rows,
        aggregate=aggregate,
        config=draw(_configs),
        seed=draw(_ints),
        version=draw(_texts),
    )


@given(report=any_report())
def test_render_report_matches_the_oracle(report):
    for fmt in ("json", "csv"):
        assert render_report(report, fmt) == report_reference.render_report(report, fmt)


@given(
    reports=st.lists(any_report(max_rows=4), max_size=3),
    values=st.lists(_floats, max_size=3),
    axis=_texts,
    parent=_configs,
)
def test_render_ablation_matches_the_oracle(reports, values, axis, parent):
    for fmt in ("json", "csv"):
        assert render_ablation(axis, values, reports, parent, fmt) == (
            report_reference.render_ablation(axis, values, reports, parent, fmt)
        )


def test_empty_config_and_rows_match_the_oracle():
    report = build_report([], {}, 0, "0.1.0")
    assert render_report(report, "json") == report_reference.render_report(report, "json")
    assert '"config": {},' in render_report(report, "json")
    assert '"rows": [],' in render_report(report, "json")
    for fmt in ("json", "csv"):
        assert render_ablation("m_max", (), [], {}, fmt) == (
            report_reference.render_ablation("m_max", (), [], {}, fmt)
        )


def test_numpy_scalars_render_as_the_oracle_does():
    # np.float64 subclasses float, so json.dumps writes it; np.int64 does not.
    floats = build_report([row(savings_fraction=np.float64(0.25))], {}, 0, "0.1.0")
    for fmt in ("json", "csv"):
        assert render_report(floats, fmt) == report_reference.render_report(floats, fmt)
    ints = build_report([row(), row(tau=np.int64(36))], {}, 0, "0.1.0")
    message = "Object of type int64 is not JSON serializable"
    with pytest.raises(TypeError, match=message):
        report_reference.render_report(ints, "json")
    with pytest.raises(TypeError, match=message):
        render_report(ints, "json")
    with pytest.raises(TypeError, match=message):
        render_ablation("m_max", (64.0,), [ints], {}, "json")
    assert render_report(ints, "csv") == report_reference.render_report(ints, "csv")


def _pyenv_python(version):
    """A pyenv-installed interpreter of ``version`` (e.g. "3.12"), or None."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = sorted(root.glob(f"{version}.*/bin/python"))
    return found[0] if found else None


# Runs in the other interpreter: report.py needs only the standard library
# and errors.py, so the two are loaded as a stub package, without numpy.
_VERSION_SCRIPT = """
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
from ttpo.report import (
    Aggregate, ExperimentReport, InstanceRow, compute_aggregate, render_report,
)
payload = json.load(sys.stdin)
for fields in payload["corpora"]:
    rows = [InstanceRow(**row) for row in fields]
    print(json.dumps(dataclasses.asdict(compute_aggregate(rows))))
doc = payload["report"]
report = ExperimentReport(
    rows=tuple(InstanceRow(**row) for row in doc["rows"]),
    aggregate=Aggregate(**doc["aggregate"]),
    config=doc["config"],
    seed=doc["seed"],
    version=doc["version"],
)
print(json.dumps([render_report(report, fmt) for fmt in ("json", "csv")]))
"""


def escapes_report():
    """Non-finite floats, a mixed label column and strings json.dumps escapes."""
    rows = [
        row('quote"back\\slash', pseudo_label="é", pre_true_prob=float("nan")),
        row(
            "ctrl\x01\nline\u2028",
            pseudo_label=3,
            savings_fraction=float("inf"),
            post_true_prob=float("-inf"),
            fixed_label="\ud800",
        ),
        row("😀-€", savings_fraction=-0.0, pre_pseudo_prob=5e-324, post_pseudo_prob=1e16),
    ]
    return build_report(rows, {"naïve": "ü\t", "mode": "compare"}, 7, "0.1.0")


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_float_means_do_not_depend_on_the_python_version(version, tmp_path):
    python = _pyenv_python(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter found")
    package = tmp_path / "ttpo"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name in ("report.py", "errors.py"):
        shutil.copy(Path(ttpo.report.__file__).with_name(name), package / name)
    # Ten 0.1s sum to 0.9999999999999999 left to right and to 1.0 compensated.
    tenths = [row(f"inst-{i:05d}", savings_fraction=0.1) for i in range(10)]
    assert compute_aggregate(tenths).mean_savings_fraction == (
        functools.reduce(operator.add, [0.1] * 10) / 10
    )
    closed_loop = run_ttpo(resolve_config({"mode": "ttpo_rl", "count": "200", "seed": "78"}))
    corpora = [tenths, list(closed_loop.rows)]
    report = escapes_report()
    payload = {
        "corpora": [[dataclasses.asdict(r) for r in rows] for rows in corpora],
        "report": dataclasses.asdict(report),
    }
    result = subprocess.run(
        [str(python), "-I", "-c", _VERSION_SCRIPT, str(tmp_path)],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    *aggregates, rendered = result.stdout.splitlines()
    expected = [json.dumps(dataclasses.asdict(compute_aggregate(rows))) for rows in corpora]
    assert aggregates == expected
    assert json.loads(rendered) == [render_report(report, fmt) for fmt in ("json", "csv")]
