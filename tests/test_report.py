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

import pytest
from hypothesis import given, strategies as st

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


def _pyenv_python(version):
    """A pyenv-installed interpreter of ``version`` (e.g. "3.12"), or None."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = sorted(root.glob(f"{version}.*/bin/python"))
    return found[0] if found else None


# Runs in the other interpreter: report.py needs only the standard library
# and errors.py, so the two are loaded as a stub package, without numpy.
_AGGREGATE_SCRIPT = """
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
from ttpo.report import InstanceRow, compute_aggregate
for fields in json.load(sys.stdin):
    rows = [InstanceRow(**row) for row in fields]
    print(json.dumps(dataclasses.asdict(compute_aggregate(rows))))
"""


@pytest.mark.parametrize("version", ["3.12", "3.13"])
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
    result = subprocess.run(
        [str(python), "-I", "-c", _AGGREGATE_SCRIPT, str(tmp_path)],
        input=json.dumps([[dataclasses.asdict(r) for r in rows] for rows in corpora]),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    expected = [json.dumps(dataclasses.asdict(compute_aggregate(rows))) for rows in corpora]
    assert result.stdout.splitlines() == expected
