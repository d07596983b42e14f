"""Adaptive rollout allocation with sequential-test stopping.

The library decides, answer by answer, when a batch of sampled rollouts has
produced a trustworthy majority: a Bayesian sequential probability ratio
test over the top-two vote gap stops sampling early on easy instances and
spends the full budget only on hard ones. The winning answer becomes a
pseudo-label for test-time policy updates (policy gradient with a KL leash,
or plain cross-entropy), and the experiment layer measures the accuracy
kept and the rollouts saved against fixed-budget majority voting.
"""

from .allocator import AllocationResult, VoteSource, allocate
from .config import (
    ExperimentConfig,
    config_echo,
    parse_kv_file,
    resolve_config,
)
from .consensus import AnswerModel, VoteTally, log_bayes_factor_closed_form, posterior
from .errors import AllocationError, ConfigurationError, CorpusError
from .experiment import run_ablation, run_compare, run_ttpo
from .optimizer import UpdateConfig, advantages
from .report import (
    Aggregate,
    ExperimentReport,
    InstanceRow,
    build_report,
    compute_aggregate,
    emit_report,
    load_report,
    render_report,
)
from .seeding import stream_seed
from .stopper import (
    ErrorBudget,
    StopKind,
    StopperConfig,
    ThresholdTable,
    clamp_p0,
    compute_thresholds,
    stop_batch,
)
from .synth import (
    CategoricalVoteSource,
    P0Spec,
    SyntheticInstance,
    TraceVoteSource,
    gen_instances,
    load_labels,
    load_trace,
)
from .version import __version__

__all__ = [
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
