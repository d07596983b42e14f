"""The public surface: the names ``ttpo`` exports and the README's library example."""

import re
from pathlib import Path

import ttpo

PUBLIC = [
    "Aggregate",
    "AllocationError",
    "AllocationResult",
    "AnswerModel",
    "CategoricalVoteSource",
    "ConfigurationError",
    "CorpusError",
    "ErrorBudget",
    "ExperimentConfig",
    "ExperimentReport",
    "InstanceRow",
    "P0Spec",
    "StopKind",
    "StopperConfig",
    "SyntheticInstance",
    "ThresholdTable",
    "TraceVoteSource",
    "UpdateConfig",
    "VoteSource",
    "VoteTally",
    "__version__",
    "advantages",
    "allocate",
    "build_report",
    "clamp_p0",
    "compute_aggregate",
    "compute_thresholds",
    "config_echo",
    "emit_report",
    "gen_instances",
    "load_labels",
    "load_report",
    "load_trace",
    "log_bayes_factor_closed_form",
    "parse_kv_file",
    "posterior",
    "render_report",
    "resolve_config",
    "run_ablation",
    "run_compare",
    "run_ttpo",
    "stop_batch",
    "stream_seed",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 43
    assert sorted(ttpo.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(ttpo, name) is not None, name


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["result"].tau >= 1
