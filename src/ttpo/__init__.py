"""Adaptive rollout allocation with sequential-test stopping.

The library decides, answer by answer, when a batch of sampled rollouts has
produced a trustworthy majority: a Bayesian sequential probability ratio
test over the top-two vote gap stops sampling early on easy instances and
spends the full budget only on hard ones. The winning answer becomes a
pseudo-label for test-time policy updates (policy gradient with a KL leash,
or plain cross-entropy), and the experiment layer measures the accuracy
kept and the rollouts saved against fixed-budget majority voting.
"""

from .allocator import (
    AllocationResult,
    VoteSource,
    allocate,
    batch_allocate,
    retain_for_update,
)
from .config import (
    ExperimentConfig,
    SyntheticCorpusSpec,
    TraceCorpusSpec,
    config_echo,
    parse_kv_file,
    resolve_config,
)
from .consensus import (
    AnswerModel,
    TopTwo,
    VoteTally,
    log_bayes_factor_closed_form,
    posterior,
    tally_ingest,
    top_two,
)
from .errors import AllocationError, ConfigurationError, CorpusError
from .experiment import initial_policy, run_ablation, run_compare, run_ttpo
from .optimizer import (
    RewardedSample,
    SoftmaxAnswerPolicy,
    UpdateConfig,
    advantages,
    build_rewarded_samples,
    consensus_reward,
    kl_divergence,
    pg_gradient,
    pg_update,
    sft_update,
)
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
    SprtStopper,
    StopDecision,
    StopKind,
    StopperConfig,
    ThresholdTable,
    clamp_p0,
    compute_thresholds,
    estimate_p0,
    stop_batch,
)
from .synth import (
    CategoricalVoteSource,
    P0Spec,
    PolicyVoteSource,
    SyntheticInstance,
    TraceRecord,
    TraceVoteSource,
    canonical_trace_line,
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
    "PolicyVoteSource",
    "RewardedSample",
    "SoftmaxAnswerPolicy",
    "SprtStopper",
    "StopDecision",
    "StopKind",
    "StopperConfig",
    "SyntheticCorpusSpec",
    "SyntheticInstance",
    "ThresholdTable",
    "TopTwo",
    "TraceCorpusSpec",
    "TraceRecord",
    "TraceVoteSource",
    "UpdateConfig",
    "VoteSource",
    "VoteTally",
    "__version__",
    "advantages",
    "allocate",
    "batch_allocate",
    "build_report",
    "build_rewarded_samples",
    "canonical_trace_line",
    "clamp_p0",
    "compute_aggregate",
    "compute_thresholds",
    "config_echo",
    "consensus_reward",
    "emit_report",
    "estimate_p0",
    "gen_instances",
    "initial_policy",
    "kl_divergence",
    "load_labels",
    "load_report",
    "load_trace",
    "log_bayes_factor_closed_form",
    "parse_kv_file",
    "pg_gradient",
    "pg_update",
    "posterior",
    "render_report",
    "resolve_config",
    "retain_for_update",
    "run_ablation",
    "run_compare",
    "run_ttpo",
    "sft_update",
    "stop_batch",
    "stream_seed",
    "tally_ingest",
    "top_two",
]
