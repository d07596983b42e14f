#!/usr/bin/env python3
"""Closed-loop test-time updates from self-labeled rollouts.

Each instance starts with a softmax policy whose vote accuracy equals the
instance's p0_true. Per round: sample votes until the sequential test stops,
take the winner as a pseudo-label, and update the policy (policy gradient
with a KL leash, or plain cross-entropy). Prints how the greedy accuracy
and the true-answer probability mass move, and the rollouts spent versus a
fixed-budget loop.
"""

import argparse

from ttpo import emit_report, resolve_config, run_ttpo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", choices=("rl", "sft"), default="rl")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000, help="corpus size")
    parser.add_argument("--m", type=int, default=4, help="answer-space size")
    parser.add_argument("--p0", default="constant:0.7", help="vote-accuracy distribution")
    parser.add_argument("--learning-rate", type=float, default=0.01)
    parser.add_argument("--beta-kl", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=811)
    parser.add_argument("--out", default=None, help="also write the full report here")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    args = parser.parse_args()

    config = resolve_config(
        {
            "mode": f"ttpo_{args.update}",
            "rounds": str(args.rounds),
            "count": str(args.count),
            "m": str(args.m),
            "p0": args.p0,
            "learning_rate": str(args.learning_rate),
            "beta_kl": str(args.beta_kl),
            "seed": str(args.seed),
        }
    )
    report = run_ttpo(config)
    agg = report.aggregate

    print(f"update rule          {config.mode}")
    print(f"instances x rounds   {agg.count} x {config.rounds}")
    print(f"pseudo-label acc     {agg.pseudo_label_accuracy:.4f}")
    print(f"greedy accuracy      {agg.pre_update_accuracy:.4f} -> {agg.post_update_accuracy:.4f}")
    print(f"true-answer prob     {agg.mean_pre_true_prob:.4f} -> {agg.mean_post_true_prob:.4f}")
    print(f"mean rollouts        {agg.mean_tau:.2f} (fixed loop: {agg.mean_fixed_cost:.0f})")
    print(f"rollout savings      {100 * agg.savings_pct:.1f}%")

    if args.out:
        emit_report(report, args.out, args.format)
        print(f"report written to    {args.out}")


if __name__ == "__main__":
    main()
