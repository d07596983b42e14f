#!/usr/bin/env python3
"""Adaptive allocation vs fixed-budget voting on a mixed-difficulty corpus.

Half the instances are easy (votes hit the true answer 95% of the time) and
half are hard (50%). The adaptive allocator should stop early on the easy
half and spend the full budget only where the votes disagree, keeping
pseudo-label accuracy at parity while cutting mean rollouts.
"""

import argparse

from ttpo import emit_report, resolve_config, run_compare


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10_000, help="corpus size")
    parser.add_argument("--seed", type=int, default=1009, help="global seed")
    parser.add_argument("--easy-share", type=float, default=0.5)
    parser.add_argument("--p-easy", type=float, default=0.95)
    parser.add_argument("--p-hard", type=float, default=0.5)
    parser.add_argument("--m", type=int, default=4, help="answer-space size")
    parser.add_argument("--out", default=None, help="also write the full report here")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    args = parser.parse_args()

    config = resolve_config(
        {
            "mode": "compare",
            "count": str(args.count),
            "m": str(args.m),
            "p0": f"mixture:{args.easy_share},{args.p_easy},{args.p_hard}",
            "seed": str(args.seed),
        }
    )
    report = run_compare(config)
    agg = report.aggregate

    print(f"instances            {agg.count}")
    print(f"adaptive accuracy    {agg.pseudo_label_accuracy:.4f}")
    print(f"fixed-64 accuracy    {agg.fixed_accuracy:.4f}")
    print(f"mean rollouts        {agg.mean_tau:.2f} (fixed arm: {agg.mean_fixed_cost:.0f})")
    print(f"rollout savings      {100 * agg.savings_pct:.1f}%")
    if agg.empirical_stop_error_rate is not None:
        print(f"early-stop error     {agg.empirical_stop_error_rate:.4f}")

    if args.out:
        emit_report(report, args.out, args.format)
        print(f"report written to    {args.out}")


if __name__ == "__main__":
    main()
