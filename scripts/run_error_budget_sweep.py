#!/usr/bin/env python3
"""Sweep the type-I/II error budget and watch the savings/accuracy trade.

Runs the adaptive-vs-fixed comparison once per budget value on a shared
corpus with shared vote streams, so each row differs only through the
stopping thresholds. Looser budgets stop earlier: savings rise, and the
pseudo-label error is allowed to grow toward the budget.
"""

import argparse

from ttpo import resolve_config, run_ablation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--values", default="0.01,0.03,0.05,0.07,0.1",
        help="comma-separated alpha=beta values",
    )
    parser.add_argument("--count", type=int, default=4000, help="corpus size")
    parser.add_argument("--m", type=int, default=4, help="answer-space size")
    parser.add_argument(
        "--p0", default="constant:0.55",
        help="vote-accuracy distribution (low accuracy keeps thresholds binding)",
    )
    parser.add_argument("--seed", type=int, default=91)
    args = parser.parse_args()

    config = resolve_config(
        {
            "mode": "ablate",
            "axis": "alpha_beta",
            "values": args.values,
            "count": str(args.count),
            "m": str(args.m),
            "p0": args.p0,
            "seed": str(args.seed),
        }
    )
    reports = run_ablation(config)

    print(f"{'alpha=beta':>10}  {'mean tau':>8}  {'savings':>8}  {'accuracy':>8}  {'stop err':>8}")
    for value, report in zip(config.values, reports):
        agg = report.aggregate
        stop_err = (
            "-" if agg.empirical_stop_error_rate is None
            else f"{agg.empirical_stop_error_rate:8.4f}"
        )
        print(
            f"{value:>10}  {agg.mean_tau:8.2f}  {100 * agg.savings_pct:7.1f}%"
            f"  {agg.pseudo_label_accuracy:8.4f}  {stop_err:>8}"
        )


if __name__ == "__main__":
    main()
