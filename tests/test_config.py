"""Config resolution, key=value files, and echo round-trips."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ttpo.config import (
    ABLATION_AXES,
    FORMATS,
    MODES,
    ExperimentConfig,
    config_echo,
    parse_kv_file,
    resolve_config,
)
from ttpo.errors import ConfigurationError
from ttpo.stopper import StopperConfig
from ttpo.optimizer import ADVANTAGE_MODES, UpdateConfig
from ttpo.synth import P0Spec

# The config keys, as the README's defaults block and the CLI name them.
KEYS = (
    "mode", "seed", "out", "format", "corpus", "count", "m", "p0", "cost_per_vote",
    "trace", "labels", "alpha", "beta", "n_min", "m_max", "streak_k", "degradation",
    "p0_mode", "fixed_budget", "rounds", "learning_rate", "beta_kl", "advantage_mode",
    "std_epsilon", "axis", "values",
)  # fmt: skip


def test_defaults_resolve():
    config = resolve_config({})
    assert config == ExperimentConfig()
    assert config.mode == "compare"
    assert config.corpus == "synthetic"
    assert (config.count, config.m, config.cost_per_vote) == (200, 4, 1)
    assert config.p0 == P0Spec.constant(0.8)
    assert config.trace == config.labels == config.axis == ""
    assert config.values == ()
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
    assert config.count == 50
    assert config.m == 8
    assert config.p0 == P0Spec.uniform(0.4, 0.9)
    assert config.alpha == config.stopper.budget.alpha == 0.01
    assert config.n_min == config.stopper.n_min == 16
    assert config.p0_fixed == config.stopper.p0_fixed == 0.7
    assert config.learning_rate == config.update.learning_rate == 0.1
    assert config.advantage_mode == config.update.advantage_mode == "group_normalized"
    assert config.rounds == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        resolve_config({"n_max": "10"})
    # The field is p0_fixed, but the key stays p0_mode.
    with pytest.raises(ConfigurationError, match=r"unknown config key\(s\): p0_fixed"):
        resolve_config({"p0_fixed": "0.7"})


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
        # Every value is parsed, whatever the corpus kind reads.
        (
            {"corpus": "trace", "trace": "t.jsonl", "count": "abc", "m": "1", "p0": "gaussian:1"},
            "count must be an integer",
        ),
        ({"corpus": "trace", "trace": "t.jsonl", "m": "1"}, "m must be >= 2"),
        ({"corpus": "trace", "trace": "t.jsonl", "p0": "gaussian:1"}, "gaussian"),
        ({"mode": "ttpo_rl", "count": "2", "m": str(2**62)}, r"\[count, m\] float64 logits"),
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


def test_parse_kv_file_skips_a_byte_order_mark(tmp_path):
    text = "seed = 3\n# comparison run\np0 = uniform:0.4,0.9\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_kv_file(marked) == parse_kv_file(plain)
    assert resolve_config(parse_kv_file(marked)) == resolve_config(parse_kv_file(plain))


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


_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_positive = st.floats(0.0, 1e6, exclude_min=True)


@st.composite
def _p0_specs(draw):
    kind = draw(st.sampled_from(("constant", "uniform", "mixture")))
    if kind == "constant":
        return P0Spec.constant(draw(_unit))
    if kind == "uniform":
        lo, hi = sorted(draw(st.lists(_unit, min_size=2, max_size=2, unique=True)))
        return P0Spec.uniform(lo, hi)
    return P0Spec.mixture(draw(st.floats(0.0, 1.0)), draw(_unit), draw(_unit))


@st.composite
def valid_configs(draw):
    """A valid config with a drawn value for every key its corpus and mode read."""
    mode = draw(st.sampled_from(MODES))
    closed_loop = mode in ("ttpo_rl", "ttpo_sft")
    n_min = draw(st.integers(1, 64))
    m_max = draw(st.integers(n_min, 128))
    alpha = draw(_unit)
    fields = dict(
        mode=mode,
        seed=draw(st.integers(0, 2**64)),
        out=draw(st.text(max_size=8)),
        format=draw(st.sampled_from(FORMATS)),
        alpha=alpha,
        beta=draw(_unit.filter(lambda beta: alpha + beta < 1.0)),
        n_min=n_min,
        m_max=m_max,
        streak_k=draw(st.integers(1, 2**40)),
        degradation=draw(st.floats(0.0, 1.0, exclude_min=True)),
        p0_fixed=draw(st.none() | _unit),
        fixed_budget=draw(st.integers(1, 512)),
        rounds=draw(st.integers(1, 8)),
        learning_rate=draw(_positive),
        beta_kl=draw(st.floats(0.0, 1e6)),
        advantage_mode=draw(st.sampled_from(ADVANTAGE_MODES)),
        std_epsilon=draw(_positive),
    )
    if closed_loop or draw(st.booleans()):
        count = draw(st.integers(1, 10**4))
        fields.update(
            count=count,
            m=draw(st.integers(2, (2**63 - 1) // (8 * count) if closed_loop else 2**63 - 1)),
            p0=draw(_p0_specs()),
            cost_per_vote=draw(st.integers(1, 2**40)),
        )
    else:
        fields.update(
            corpus="trace",
            trace=draw(st.text(min_size=1, max_size=8)),
            labels=draw(st.text(max_size=8)),
        )
    if mode == "ablate":
        axis = draw(st.sampled_from(ABLATION_AXES))
        points = (
            st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
            if axis == "alpha_beta"
            else st.integers(1, m_max).map(float)
        )
        fields.update(axis=axis, values=tuple(draw(st.lists(points, min_size=1, max_size=4))))
    return ExperimentConfig(**fields)


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


@settings(max_examples=200, deadline=None)
@given(config=valid_configs())
def test_echo_round_trip_of_any_valid_config(config):
    echo = config_echo(config)
    # Every key except the presentation keys, the other corpus kind's keys,
    # an empty labels path, and axis and values when no axis is set.
    synthetic = {"count", "m", "p0", "cost_per_vote"}
    other = {"trace", "labels"} if config.corpus == "synthetic" else synthetic
    unset = {"labels"} if not config.labels else set()
    if not config.axis:
        unset |= {"axis", "values"}
    assert set(echo) == set(KEYS) - {"out", "format"} - other - unset
    assert resolve_config(echo) == replace(config, out="-", format="json")


def test_echo_round_trip_trace(tmp_path):
    trace = tmp_path / "t.jsonl"
    labels = tmp_path / "l.csv"
    config = resolve_config(
        {"corpus": "trace", "trace": str(trace), "labels": str(labels)}
    )
    assert (config.corpus, config.trace, config.labels) == ("trace", str(trace), str(labels))
    assert resolve_config(config_echo(config)) == config


def test_echo_excludes_presentation_keys():
    echo = config_echo(resolve_config({"out": "/tmp/x.json", "format": "csv"}))
    assert "out" not in echo and "format" not in echo


def test_direct_construction_validates():
    with pytest.raises(ConfigurationError, match="rounds"):
        ExperimentConfig(rounds=0)
    with pytest.raises(ConfigurationError, match="alpha"):
        ExperimentConfig(alpha=1.5)
    with pytest.raises(ConfigurationError, match="learning_rate"):
        ExperimentConfig(learning_rate=0.0)
