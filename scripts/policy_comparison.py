"""Compare the online policy against the coin-toss baseline and audit bounds.

For each seed, simulates the scenario under both the queue-driven policy and
the randomized baseline, which blocks quality requests by coin toss, on
identical traces, then reports cost and outage side by side. Finishes with
the randomized bound suites so a single invocation both benchmarks and
sanity-checks the implementation.

Usage: python3 scripts/policy_comparison.py [--config CONFIG] [--seeds LIST]
"""

import argparse
from dataclasses import replace

from mgsched import generate_traces, load_config, run
from mgsched.model import ordered_sum
from mgsched.validate import run_all_suites


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="configs/seven_day.yaml")
    parser.add_argument("--seeds", default="11,12,13",
                        help="comma-separated trace seeds")
    parser.add_argument("--trials", type=int, default=25,
                        help="trials per randomized bound suite")
    parser.add_argument("--suite-seed", type=int, default=0)
    args = parser.parse_args()

    base = load_config(args.config)
    seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]

    print(f"{'seed':>6} {'policy':>10} {'total_cost':>12} {'outage':>8}")
    wins = 0
    for seed in seeds:
        config = replace(base, seed=seed)
        traces = generate_traces(config)
        row = {}
        for policy in ("proposed", "mecp"):
            _, summary = run(config, traces, policy=policy,
                             keep_records=False)
            outage = ordered_sum(summary.outage_ratio) / len(summary.outage_ratio)
            row[policy] = summary.total_cost
            print(f"{seed:>6} {policy:>10} {summary.total_cost:>12.2f} "
                  f"{outage:>8.4f}")
        if row["proposed"] < row["mecp"]:
            wins += 1
    print(f"\nproposed beats mecp on {wins}/{len(seeds)} seeds")

    print(f"\nbound suites ({args.trials} trials each, "
          f"seed {args.suite_seed})")
    results = run_all_suites(args.trials, args.suite_seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"  {result.name:<20} {status} "
              f"({result.trials} trials, {result.violations} violations)")
        if not result.passed:
            failed += 1
            print(f"    first counterexample: {result.counterexample}")
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
