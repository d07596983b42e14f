"""Experiment configuration: flat key=value files, typed resolution, echo.

A run is fully described by a flat string mapping (file values overlaid by
CLI flags). ``resolve_config`` turns that mapping into typed sub-configs
with validation, and ``config_echo`` inverts it: the echo embedded in every
report is itself a valid mapping that resolves back to the same experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError
from .optimizer import ADVANTAGE_MODES, UpdateConfig
from .stopper import ErrorBudget, StopperConfig
from .synth import MAX_COST, P0Spec

MODES = ("compare", "ttpo_rl", "ttpo_sft", "ablate")
FORMATS = ("csv", "json")
ABLATION_AXES = ("alpha_beta", "n_min")

_DEFAULTS: dict[str, str] = {
    "mode": "compare",
    "seed": "0",
    "out": "-",
    "format": "json",
    "fixed_budget": "64",
    "rounds": "1",
    "corpus": "synthetic",
    "count": "200",
    "m": "4",
    "p0": "constant:0.8",
    "cost_per_vote": "1",
    "trace": "",
    "labels": "",
    "alpha": "0.05",
    "beta": "0.05",
    "n_min": "32",
    "m_max": "64",
    "streak_k": "5",
    "degradation": "0.6",
    "p0_mode": "adaptive",
    "learning_rate": "0.01",
    "beta_kl": "0.001",
    "advantage_mode": "mean_baseline",
    "std_epsilon": "1e-08",
    "axis": "",
    "values": "",
}


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    count: int
    m: int
    p0: P0Spec
    cost_per_vote: int = 1

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ConfigurationError(f"m must be >= 2, got {self.m}")
        if self.cost_per_vote < 1:
            raise ConfigurationError(f"cost_per_vote must be >= 1, got {self.cost_per_vote}")


@dataclass(frozen=True)
class TraceCorpusSpec:
    trace_path: str
    labels_path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: corpus, stopper, update rule, outputs."""

    mode: str
    corpus: SyntheticCorpusSpec | TraceCorpusSpec
    stopper: StopperConfig
    update: UpdateConfig
    fixed_budget: int = 64
    rounds: int = 1
    seed: int = 0
    out: str = "-"
    format: str = "json"
    axis: str | None = None
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.format not in FORMATS:
            raise ConfigurationError(
                f"format must be one of {FORMATS}, got {self.format!r}"
            )
        if self.fixed_budget < 1:
            raise ConfigurationError(
                f"fixed_budget must be >= 1, got {self.fixed_budget}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if isinstance(self.corpus, SyntheticCorpusSpec):
            # The most a run can spend on one instance.
            worst = (
                self.corpus.cost_per_vote
                * self.rounds
                * max(self.stopper.m_max, self.fixed_budget)
            )
            if worst > MAX_COST:
                raise ConfigurationError(
                    f"cost_per_vote * rounds * max(m_max, fixed_budget) = {worst} "
                    f"exceeds {MAX_COST}"
                )
        if self.mode == "ablate":
            if self.axis not in ABLATION_AXES:
                raise ConfigurationError(
                    f"ablation axis must be one of {ABLATION_AXES}, got {self.axis!r}"
                )
            if not self.values:
                raise ConfigurationError("ablation needs a non-empty values list")
            # Every sweep point's stopper is built, so a bad value fails
            # here rather than after the points before it have run.
            for value in self.values:
                _ablated_stopper(self, value)
        if self.mode in ("ttpo_rl", "ttpo_sft") and isinstance(
            self.corpus, TraceCorpusSpec
        ):
            raise ConfigurationError(
                "closed-loop modes need a synthetic corpus; trace replay "
                "cannot reflect policy updates"
            )


def _ablated_stopper(config: ExperimentConfig, value: float) -> StopperConfig:
    """The stopper of one sweep point: ``config.stopper`` with its axis at ``value``."""
    if config.axis == "alpha_beta":
        return replace(config.stopper, budget=ErrorBudget(alpha=value, beta=value))
    if not float(value).is_integer():
        raise ConfigurationError(f"n_min values must be integers, got {value}")
    return replace(config.stopper, n_min=int(value))


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a flat 'key = value' config file; '#' starts a comment line.

    The file is UTF-8, with or without a leading byte-order mark.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read config file {path}: not valid UTF-8 ({exc.reason})"
        ) from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(
                f"{path}:{line_no}: expected 'key = value', got {raw!r}"
            )
        key = key.strip()
        if not key:
            raise ConfigurationError(f"{path}:{line_no}: empty key")
        if key in values:
            raise ConfigurationError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{key} must be an integer, got {raw!r}") from exc


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{key} must be a number, got {raw!r}") from exc


def _parse_p0_mode(raw: str) -> float | None:
    if raw == "adaptive":
        return None
    kind, sep, value = raw.partition(":")
    if kind == "fixed" and sep:
        return _parse_float("p0_mode", value)
    raise ConfigurationError(
        f"p0_mode must be 'adaptive' or 'fixed:<value>', got {raw!r}"
    )


def resolve_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a typed config from a flat mapping; unknown keys are errors."""
    unknown = sorted(set(mapping) - set(_DEFAULTS))
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(unknown)}")
    merged = {**_DEFAULTS, **mapping}

    corpus_kind = merged["corpus"]
    if corpus_kind == "synthetic":
        corpus: SyntheticCorpusSpec | TraceCorpusSpec = SyntheticCorpusSpec(
            count=_parse_int("count", merged["count"]),
            m=_parse_int("m", merged["m"]),
            p0=P0Spec.parse(merged["p0"]),
            cost_per_vote=_parse_int("cost_per_vote", merged["cost_per_vote"]),
        )
    elif corpus_kind == "trace":
        if not merged["trace"]:
            raise ConfigurationError("corpus = trace requires a trace path")
        corpus = TraceCorpusSpec(
            trace_path=merged["trace"],
            labels_path=merged["labels"] or None,
        )
    else:
        raise ConfigurationError(
            f"corpus must be 'synthetic' or 'trace', got {corpus_kind!r}"
        )

    stopper = StopperConfig(
        budget=ErrorBudget(
            alpha=_parse_float("alpha", merged["alpha"]),
            beta=_parse_float("beta", merged["beta"]),
        ),
        n_min=_parse_int("n_min", merged["n_min"]),
        m_max=_parse_int("m_max", merged["m_max"]),
        streak_k=_parse_int("streak_k", merged["streak_k"]),
        degradation=_parse_float("degradation", merged["degradation"]),
        p0_fixed=_parse_p0_mode(merged["p0_mode"]),
    )
    update = UpdateConfig(
        learning_rate=_parse_float("learning_rate", merged["learning_rate"]),
        beta_kl=_parse_float("beta_kl", merged["beta_kl"]),
        advantage_mode=merged["advantage_mode"],
        std_epsilon=_parse_float("std_epsilon", merged["std_epsilon"]),
    )

    values: tuple[float, ...] = ()
    if merged["values"]:
        try:
            values = tuple(float(part) for part in merged["values"].split(","))
        except ValueError as exc:
            raise ConfigurationError(
                f"values must be a comma-separated number list, got {merged['values']!r}"
            ) from exc

    return ExperimentConfig(
        mode=merged["mode"],
        corpus=corpus,
        stopper=stopper,
        update=update,
        fixed_budget=_parse_int("fixed_budget", merged["fixed_budget"]),
        rounds=_parse_int("rounds", merged["rounds"]),
        seed=_parse_int("seed", merged["seed"]),
        out=merged["out"],
        format=merged["format"],
        axis=merged["axis"] or None,
        values=values,
    )


def config_echo(config: ExperimentConfig) -> dict[str, str]:
    """The experiment-defining keys as a flat mapping.

    Resolving the echo reproduces the same experiment (output destination
    and format are presentation, not identity, and are left out).
    """
    echo = {
        "mode": config.mode,
        "seed": str(config.seed),
        "fixed_budget": str(config.fixed_budget),
        "rounds": str(config.rounds),
        "alpha": str(config.stopper.budget.alpha),
        "beta": str(config.stopper.budget.beta),
        "n_min": str(config.stopper.n_min),
        "m_max": str(config.stopper.m_max),
        "streak_k": str(config.stopper.streak_k),
        "degradation": str(config.stopper.degradation),
        "p0_mode": (
            "adaptive"
            if config.stopper.p0_fixed is None
            else f"fixed:{config.stopper.p0_fixed}"
        ),
        "learning_rate": str(config.update.learning_rate),
        "beta_kl": str(config.update.beta_kl),
        "advantage_mode": config.update.advantage_mode,
        "std_epsilon": str(config.update.std_epsilon),
    }
    if isinstance(config.corpus, SyntheticCorpusSpec):
        echo["corpus"] = "synthetic"
        echo["count"] = str(config.corpus.count)
        echo["m"] = str(config.corpus.m)
        echo["p0"] = f"{config.corpus.p0.kind}:" + ",".join(
            str(p) for p in config.corpus.p0.params
        )
        echo["cost_per_vote"] = str(config.corpus.cost_per_vote)
    else:
        echo["corpus"] = "trace"
        echo["trace"] = config.corpus.trace_path
        if config.corpus.labels_path:
            echo["labels"] = config.corpus.labels_path
    if config.axis:
        echo["axis"] = config.axis
        echo["values"] = ",".join(str(v) for v in config.values)
    return echo
