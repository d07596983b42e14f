"""Config resolution, key=value files, and echo round-trips."""

from dataclasses import replace

import pytest

from ttpo.config import (
    ExperimentConfig,
    SyntheticCorpusSpec,
    TraceCorpusSpec,
    config_echo,
    parse_kv_file,
    resolve_config,
)
from ttpo.errors import ConfigurationError
from ttpo.stopper import ErrorBudget, StopperConfig
from ttpo.optimizer import UpdateConfig
from ttpo.synth import P0Spec


def test_defaults_resolve():
    config = resolve_config({})
    assert config.mode == "compare"
    assert config.corpus == SyntheticCorpusSpec(
        count=200, m=4, p0=P0Spec.constant(0.8), cost_per_vote=1
    )
    assert config.stopper == StopperConfig()
    assert config.update == UpdateConfig()
    assert config.fixed_budget == 64
    assert config.rounds == 1
    assert config.seed == 0
    assert config.out == "-"
    assert config.format == "json"


def test_overrides_apply():
    config = resolve_config(
        {
            "mode": "ttpo_sft",
            "seed": "17",
            "count": "50",
            "m": "8",
            "p0": "uniform:0.4,0.9",
            "alpha": "0.01",
            "n_min": "16",
            "p0_mode": "fixed:0.7",
            "learning_rate": "0.1",
            "advantage_mode": "group_normalized",
            "rounds": "3",
        }
    )
    assert config.mode == "ttpo_sft"
    assert config.seed == 17
    assert config.corpus.m == 8
    assert config.corpus.p0 == P0Spec.uniform(0.4, 0.9)
    assert config.stopper.budget.alpha == 0.01
    assert config.stopper.n_min == 16
    assert config.stopper.p0_fixed == 0.7
    assert config.update.learning_rate == 0.1
    assert config.update.advantage_mode == "group_normalized"
    assert config.rounds == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        resolve_config({"n_max": "10"})


@pytest.mark.parametrize(
    "mapping, fragment",
    [
        ({"mode": "race"}, "mode"),
        ({"format": "yaml"}, "format"),
        ({"seed": "x"}, "seed"),
        ({"alpha": "lots"}, "alpha"),
        ({"fixed_budget": "0"}, "fixed_budget"),
        ({"rounds": "0"}, "rounds"),
        ({"p0_mode": "guess"}, "p0_mode"),
        ({"p0": "gaussian:0.5"}, "p0"),
        ({"corpus": "oracle"}, "corpus"),
        ({"corpus": "trace"}, "trace path"),
        ({"mode": "ablate"}, "axis"),
        ({"mode": "ablate", "axis": "alpha_beta"}, "values"),
        ({"mode": "ablate", "axis": "temperature", "values": "1"}, "axis"),
        ({"mode": "ablate", "axis": "alpha_beta", "values": "a,b"}, "values"),
        ({"mode": "ablate", "axis": "n_min", "values": "16,16.5"}, "integer"),
        ({"mode": "ablate", "axis": "n_min", "values": "16,100"}, r"n_min \(100\)"),
        ({"mode": "ablate", "axis": "alpha_beta", "values": "0.05,0.7"}, r"alpha \+ beta"),
    ],
)
def test_invalid_mappings_rejected(mapping, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        resolve_config(mapping)


@pytest.mark.parametrize(
    "mapping, fragment",
    [
        ({"m": "1"}, "m must be >= 2, got 1"),
        ({"m": "-4"}, "m must be >= 2, got -4"),
        ({"cost_per_vote": "0"}, "cost_per_vote must be >= 1, got 0"),
        ({"cost_per_vote": "-3"}, "cost_per_vote must be >= 1, got -3"),
    ],
)
def test_synthetic_corpus_sizes_rejected(mapping, fragment):
    # The drivers read the corpus as columns and build no instance whose
    # checks would catch these, so the config must.
    with pytest.raises(ConfigurationError, match=fragment):
        resolve_config(mapping)


def test_closed_loop_rejects_trace_corpus(tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    with pytest.raises(ConfigurationError, match="synthetic corpus"):
        resolve_config({"mode": "ttpo_rl", "corpus": "trace", "trace": str(trace)})


def test_parse_kv_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comparison run\n"
        "mode = compare\n"
        "\n"
        "seed=9\n"
        "p0 = mixture:0.5,0.95,0.5\n"
    )
    assert parse_kv_file(path) == {
        "mode": "compare",
        "seed": "9",
        "p0": "mixture:0.5,0.95,0.5",
    }


def test_parse_kv_file_missing():
    with pytest.raises(ConfigurationError, match="not found"):
        parse_kv_file("/nonexistent/run.cfg")


def test_parse_kv_file_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigurationError, match="dup.cfg:2.*duplicate"):
        parse_kv_file(path)


def test_parse_kv_file_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed 1\n")
    with pytest.raises(ConfigurationError, match="bad.cfg:1"):
        parse_kv_file(path)


def test_parse_kv_file_empty_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("= 1\n")
    with pytest.raises(ConfigurationError, match="empty key"):
        parse_kv_file(path)


@pytest.mark.parametrize(
    "mapping",
    [
        {},
        {"mode": "ttpo_rl", "p0": "mixture:0.5,0.95,0.5", "rounds": "2", "seed": "3"},
        {"mode": "ablate", "axis": "alpha_beta", "values": "0.01,0.05,0.1"},
        {"p0_mode": "fixed:0.7", "alpha": "0.01", "beta": "0.1", "m": "8"},
    ],
)
def test_echo_round_trip(mapping):
    # Echo drops presentation keys (out, format), so compare modulo those.
    config = resolve_config(mapping)
    again = resolve_config(config_echo(config))
    assert again == replace(config, out="-", format="json")


def test_echo_round_trip_trace(tmp_path):
    trace = tmp_path / "t.jsonl"
    labels = tmp_path / "l.csv"
    config = resolve_config(
        {"corpus": "trace", "trace": str(trace), "labels": str(labels)}
    )
    assert config.corpus == TraceCorpusSpec(str(trace), str(labels))
    assert resolve_config(config_echo(config)) == config


def test_echo_excludes_presentation_keys():
    echo = config_echo(resolve_config({"out": "/tmp/x.json", "format": "csv"}))
    assert "out" not in echo and "format" not in echo


def test_direct_construction_validates():
    base = resolve_config({})
    with pytest.raises(ConfigurationError, match="rounds"):
        ExperimentConfig(
            mode=base.mode,
            corpus=base.corpus,
            stopper=base.stopper,
            update=base.update,
            rounds=0,
        )
