"""Command-line front end.

Subcommands map onto the experiment modes: `compare` races adaptive
allocation against fixed-budget voting, `ttpo` runs the closed update loop,
`ablate` sweeps one stopping-rule axis, and `replay` is the comparison over
a recorded rollout trace. Configuration comes from an optional flat
key=value file overlaid by flags; flags always win.

Exit codes: 0 success, 1 configuration error (an unreadable config file
or unwritable report path included), 2 input/corpus error (an unreadable
trace or labels file included), 3 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    ABLATION_AXES,
    ExperimentConfig,
    config_echo,
    parse_kv_file,
    resolve_config,
)
from .errors import ConfigurationError, CorpusError
from .experiment import run_ablation, run_compare, run_ttpo
from .report import emit_ablation, emit_report
from .version import __version__

# (flag dest, config key): flag values are merged into the flat mapping as
# strings so file values and flags go through one validation path.
_COMMON_OVERRIDES = (
    ("seed", "seed"),
    ("out", "out"),
    ("format", "format"),
    ("alpha", "alpha"),
    ("beta", "beta"),
    ("n_min", "n_min"),
    ("m_max", "m_max"),
    ("streak", "streak_k"),
    ("fixed_budget", "fixed_budget"),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--seed", metavar="INT", help="global random seed")
    parser.add_argument("--out", metavar="PATH", help="report destination ('-' = stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--alpha", metavar="FLOAT", help="type-I error budget")
    parser.add_argument("--beta", metavar="FLOAT", help="type-II error budget")
    parser.add_argument("--n-min", metavar="INT", help="warm-up votes before stopping")
    parser.add_argument("--m-max", metavar="INT", help="vote budget per instance")
    parser.add_argument("--streak", metavar="INT", help="consecutive confirmations to stop")
    parser.add_argument("--fixed-budget", metavar="INT", help="fixed-arm votes per instance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttpo",
        description="Adaptive rollout allocation with sequential-test stopping.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    compare = sub.add_parser(
        "compare", help="adaptive allocation vs fixed-budget majority voting"
    )
    _add_common(compare)

    ttpo = sub.add_parser("ttpo", help="closed-loop allocate / pseudo-label / update")
    ttpo.add_argument(
        "--update",
        choices=("rl", "sft"),
        help="update rule: policy gradient (rl) or pseudo-label cross-entropy (sft)",
    )
    _add_common(ttpo)

    ablate = sub.add_parser("ablate", help="sweep one stopping-rule axis")
    ablate.add_argument("--axis", choices=ABLATION_AXES, help="axis to sweep")
    ablate.add_argument(
        "--values", metavar="V1,V2,...", help="comma-separated axis values"
    )
    _add_common(ablate)

    replay = sub.add_parser("replay", help="comparison over a recorded rollout trace")
    replay.add_argument(
        "trace", nargs="?", metavar="TRACE", help="line-delimited rollout trace file"
    )
    replay.add_argument("--labels", metavar="PATH", help="instance_id,answer gold labels")
    _add_common(replay)

    return parser


def _build_mapping(args: argparse.Namespace) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(parse_kv_file(args.config))

    if args.command == "compare":
        mapping["mode"] = "compare"
    elif args.command == "ttpo":
        if args.update:
            mapping["mode"] = f"ttpo_{args.update}"
        elif mapping.get("mode") not in ("ttpo_rl", "ttpo_sft"):
            mapping["mode"] = "ttpo_rl"
    elif args.command == "ablate":
        mapping["mode"] = "ablate"
        if args.axis:
            mapping["axis"] = args.axis
        if args.values:
            mapping["values"] = args.values
    else:
        mapping["mode"] = "compare"
        mapping["corpus"] = "trace"
        if args.trace:
            mapping["trace"] = args.trace
        if args.labels:
            mapping["labels"] = args.labels

    for dest, key in _COMMON_OVERRIDES:
        value = getattr(args, dest)
        if value is not None:
            mapping[key] = value
    return mapping


def _run(config: ExperimentConfig) -> None:
    if config.mode == "compare":
        emit_report(run_compare(config), config.out, config.format)
    elif config.mode in ("ttpo_rl", "ttpo_sft"):
        emit_report(run_ttpo(config), config.out, config.format)
    else:
        reports = run_ablation(config)
        assert config.axis is not None
        emit_ablation(
            config.axis,
            config.values,
            reports,
            config_echo(config),
            config.out,
            config.format,
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the
        # configuration-error code and let --help/--version stay 0.
        return 0 if exc.code == 0 else 1
    try:
        config = resolve_config(_build_mapping(args))
        _run(config)
    except ConfigurationError as exc:
        print(f"ttpo: configuration error: {exc}", file=sys.stderr)
        return 1
    except CorpusError as exc:
        print(f"ttpo: corpus error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"ttpo: internal error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
