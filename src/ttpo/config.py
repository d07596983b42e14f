"""Experiment configuration: flat key=value files, typed resolution, echo.

A run is fully described by a flat string mapping (file values overlaid by
CLI flags) whose keys are :class:`ExperimentConfig`'s fields. Every given
value is parsed by its field's type, and ``config_echo`` inverts that: the
echo in every report resolves back to the same experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigurationError
from .optimizer import UpdateConfig
from .stopper import ErrorBudget, StopperConfig
from .synth import MAX_COST, P0Spec

MODES = ("compare", "ttpo_rl", "ttpo_sft", "ablate")
FORMATS = ("csv", "json")
ABLATION_AXES = ("alpha_beta", "n_min")
CORPORA = ("synthetic", "trace")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: its fields are the config keys.

    The key ``p0_mode`` is the field ``p0_fixed`` (None when adaptive);
    ``axis``, ``trace`` and ``labels`` are ``""`` when unset. ``stopper``
    and ``update`` are derived, and building the config checks them.
    """

    mode: str = "compare"
    seed: int = 0
    out: str = "-"
    format: str = "json"
    corpus: str = "synthetic"
    count: int = 200
    m: int = 4
    p0: P0Spec = P0Spec.constant(0.8)
    cost_per_vote: int = 1
    trace: str = ""
    labels: str = ""
    alpha: float = ErrorBudget.alpha
    beta: float = ErrorBudget.beta
    n_min: int = StopperConfig.n_min
    m_max: int = StopperConfig.m_max
    streak_k: int = StopperConfig.streak_k
    degradation: float = StopperConfig.degradation
    p0_fixed: float | None = StopperConfig.p0_fixed
    fixed_budget: int = 64
    rounds: int = 1
    learning_rate: float = UpdateConfig.learning_rate
    beta_kl: float = UpdateConfig.beta_kl
    advantage_mode: str = UpdateConfig.advantage_mode
    std_epsilon: float = UpdateConfig.std_epsilon
    axis: str = ""
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for key, choices in (("mode", MODES), ("format", FORMATS), ("corpus", CORPORA)):
            if (value := getattr(self, key)) not in choices:
                raise ConfigurationError(f"{key} must be one of {choices}, got {value!r}")
        for key, least in (("fixed_budget", 1), ("rounds", 1), ("m", 2), ("cost_per_vote", 1)):
            if (value := getattr(self, key)) < least:
                raise ConfigurationError(f"{key} must be >= {least}, got {value}")
        if self.m > 2**63 - 1:  # answer ids are int64
            raise ConfigurationError(f"m must be <= 2**63 - 1, got {self.m}")
        if self.corpus == "trace" and not self.trace:
            raise ConfigurationError("corpus = trace requires a trace path")
        _ = self.stopper, self.update  # building them checks their fields
        worst = self.cost_per_vote * self.rounds * max(self.m_max, self.fixed_budget)
        if self.corpus == "synthetic" and worst > MAX_COST:  # the most one instance costs
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
            # Every sweep point is built, so a bad value fails here rather
            # than after the points before it have run.
            for value in self.values:
                self.point(value)
        if self.mode in ("ttpo_rl", "ttpo_sft"):
            if self.corpus == "trace":
                raise ConfigurationError(
                    "closed-loop modes need a synthetic corpus; trace replay "
                    "cannot reflect policy updates"
                )
            if self.count * self.m * 8 > 2**63 - 1:
                raise ConfigurationError(
                    f"count * m * 8 = {self.count * self.m * 8} exceeds 2**63 - 1: "
                    "the closed loop holds a [count, m] float64 logits matrix"
                )

    @cached_property
    def stopper(self) -> StopperConfig:
        return StopperConfig(
            ErrorBudget(self.alpha, self.beta), self.n_min, self.m_max, self.streak_k,
            self.degradation, p0_fixed=self.p0_fixed,
        )

    @cached_property
    def update(self) -> UpdateConfig:
        return UpdateConfig(
            self.learning_rate, self.beta_kl, self.advantage_mode, self.std_epsilon
        )

    def point(self, value: float) -> ExperimentConfig:
        """One sweep point: the comparison with ``axis`` at ``value``."""
        if self.axis == "alpha_beta":
            return replace(self, mode="compare", axis="", values=(), alpha=value, beta=value)
        if not float(value).is_integer():
            raise ConfigurationError(f"n_min values must be integers, got {value}")
        return replace(self, mode="compare", axis="", values=(), n_min=int(value))


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
            raise ConfigurationError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
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


def _parse_p0_mode(key: str, raw: str) -> float | None:
    if raw == "adaptive":
        return None
    kind, sep, value = raw.partition(":")
    if kind == "fixed" and sep:
        return _parse_float(key, value)
    raise ConfigurationError(f"p0_mode must be 'adaptive' or 'fixed:<value>', got {raw!r}")


def _parse_values(key: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",")) if raw else ()
    except ValueError as exc:
        raise ConfigurationError(
            f"values must be a comma-separated number list, got {raw!r}"
        ) from exc


# Each field type's (parse, show) pair; ``float | None`` is p0_mode's type.
_CODECS = {
    int: (_parse_int, str),
    float: (_parse_float, str),
    str: (lambda key, raw: raw, str),
    float | None: (_parse_p0_mode, lambda p0: "adaptive" if p0 is None else f"fixed:{p0}"),
    P0Spec: (
        lambda key, raw: P0Spec.parse(raw),
        lambda spec: f"{spec.kind}:" + ",".join(map(str, spec.params)),
    ),
    tuple[float, ...]: (_parse_values, lambda values: ",".join(map(str, values))),
}
_HINTS = get_type_hints(ExperimentConfig)
# Config key -> (field name, parse, show), in field order.
_KEYS = {
    "p0_mode" if f.name == "p0_fixed" else f.name: (f.name, *_CODECS[_HINTS[f.name]])
    for f in fields(ExperimentConfig)
}
# The keys each corpus kind leaves unused.
_UNUSED = {"synthetic": {"trace", "labels"}, "trace": {"count", "m", "p0", "cost_per_vote"}}


def resolve_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a typed config from a flat mapping; unknown keys are errors.

    Values are parsed in mapping order, so where several are malformed the
    first one given is reported.
    """
    unknown = sorted(set(mapping) - set(_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(unknown)}")
    typed = {_KEYS[key][0]: _KEYS[key][1](key, raw) for key, raw in mapping.items()}
    return ExperimentConfig(**typed)


def config_echo(config: ExperimentConfig) -> dict[str, str]:
    """The experiment-defining keys as a flat mapping, which resolves back.

    It leaves out ``out`` and ``format`` (presentation), the keys the corpus
    kind does not read, and an unset ``labels`` or ``axis`` (and ``values``).
    """
    skip = {"out", "format", *_UNUSED[config.corpus]}
    if not config.labels:
        skip.add("labels")
    if not config.axis:
        skip |= {"axis", "values"}
    return {
        key: show(getattr(config, name))
        for key, (name, _, show) in _KEYS.items()
        if key not in skip
    }
