"""Command-line front end.

Subcommands: run (simulate one configuration), sweep-v (rerun one trace
across control-parameter fractions), compare (scheduler vs. benchmark on
identical traces), validate (randomized invariant suites), gen-traces
(write synthetic traces as CSV). Exit codes are a contract: 0 clean, 1
input error (config, traces, flags), 2 bound or assertion failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache

from .model import UnservableSurplusError, ordered_sum
from .sim import (
    RunConfig,
    _write_table,
    check_seed,
    generate_traces,
    load_config,
    load_seed,
    load_traces,
    run,
    write_slot_records,
    write_summary,
    write_traces,
)
from .validate import run_all_suites


class CliError(Exception):
    """Bad invocation or bad input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; here 2 means a bound
    # failure, so flag errors are rerouted to the input-error path.
    def error(self, message: str):  # noqa: D102
        raise CliError(message)


@cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    parser = _Parser(prog="mgsched",
                     description="online adaptive electricity scheduling")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("run", help="simulate one configuration")
    p.add_argument("--config", required=True, help="YAML run configuration")
    p.add_argument("--wind", help="wind CSV (slot,generation_kwh)")
    p.add_argument("--prices", help="price CSV (slot,purchase_price,sell_price)")
    p.add_argument("--demand",
                   help="demand CSV (slot,resident,basic_kwh,quality_kwh)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--curtail", action="store_true",
                   help="discard unservable surplus instead of erroring")

    p = sub.add_parser("sweep-v", help="sweep the control-parameter fraction")
    p.add_argument("--config", required=True)
    p.add_argument("--fractions", required=True,
                   help="comma-separated fractions of v_max, each in (0, 1]")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare",
                       help="scheduler vs. benchmark on identical traces")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="randomized invariant suites")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("gen-traces", help="write synthetic traces as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    return parser


def _load(config_path: str, seed: int | None,
          curtail: bool = False) -> RunConfig:
    config = load_config(config_path)
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    if curtail:
        kwargs["curtailment"] = True
    return replace(config, **kwargs)


def _mean_outage(summary) -> float:
    return ordered_sum(summary.outage_ratio) / len(summary.outage_ratio)


def _report_violations(summary, where: str = "") -> bool:
    """Print summary's nonzero violation counters and its first violation
    to stderr, where naming the run; returns whether it had any."""
    bad = {k: v for k, v in summary.violations.items() if v}
    if bad:
        print(f"bound violations{where}: {bad}", file=sys.stderr)
        if summary.first_violation is not None:
            slot, key, message = summary.first_violation
            print(f"first violation: slot {slot} ({key}): {message}",
                  file=sys.stderr)
    return bool(bad)


def cmd_run(args: argparse.Namespace) -> int:
    config = _load(args.config, args.seed, args.curtail)
    given = [args.wind, args.prices, args.demand]
    if any(given) and not all(given):
        raise CliError("provide --wind, --prices, and --demand together")
    if all(given):
        traces = load_traces(args.wind, args.prices, args.demand, config)
    else:
        traces = generate_traces(config)
    trajectory, summary = run(config, traces)
    slots_path = f"{args.out}.slots.csv"
    summary_path = f"{args.out}.summary.txt"
    write_slot_records(trajectory, slots_path)
    write_summary(summary, summary_path)
    print(f"wrote {slots_path} and {summary_path}")
    return 2 if _report_violations(summary) else 0


def cmd_sweep_v(args: argparse.Namespace) -> int:
    config = _load(args.config, None)
    try:
        fractions = [float(tok) for tok in args.fractions.split(",")
                     if tok.strip()]
    except ValueError:
        raise CliError(f"unparsable fractions: {args.fractions!r}") from None
    if not fractions:
        raise CliError("at least one fraction is required")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise CliError(f"fraction {f} outside (0, 1]")
    traces = generate_traces(config)
    rows = []
    any_violation = False
    for f in fractions:
        cfg = replace(config, v_fraction=f)
        _, summary = run(cfg, traces, policy="proposed", keep_records=False)
        rows.append((f, summary.total_cost, _mean_outage(summary)))
        any_violation = (_report_violations(summary, f" at fraction {f}")
                         or any_violation)
    out_path = f"{args.out}.sweep.csv"
    _write_table(out_path, ["fraction", "total_cost", "mean_outage_ratio"],
                 fractions, [row[1:] for row in rows])
    print(f"wrote {out_path}")
    # The documented trade-off: cost falls and outage rises as v grows.
    by_v_desc = sorted(rows, key=lambda row: -row[0])
    monotone = True
    for (f_hi, cost_hi, out_hi), (f_lo, cost_lo, out_lo) in zip(
            by_v_desc[:-1], by_v_desc[1:]):
        if cost_hi > cost_lo + 1e-9 or out_hi < out_lo - 1e-9:
            monotone = False
            print(f"trend break between fractions {f_hi} and {f_lo}: "
                  f"costs {cost_hi} vs {cost_lo}, "
                  f"outage {out_hi} vs {out_lo}", file=sys.stderr)
    return 0 if monotone and not any_violation else 2


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args.config, None)
    traces = generate_traces(config)
    _, proposed = run(config, traces, policy="proposed", keep_records=False)
    _, benchmark = run(config, traces, policy="mecp", keep_records=False)
    pairs = (("proposed", proposed), ("mecp", benchmark))
    for name, summary in pairs:
        write_summary(summary, f"{args.out}.{name}.summary.txt")
    out_path = f"{args.out}.compare.csv"
    _write_table(out_path, ["policy", "total_cost", "mean_outage_ratio"],
                 [name for name, _ in pairs],
                 [(summary.total_cost, _mean_outage(summary))
                  for _, summary in pairs])
    print(f"wrote {out_path} and the paired summaries")
    violated = [_report_violations(summary, f" in {name}")
                for name, summary in pairs]
    if proposed.total_cost > benchmark.total_cost:
        print(f"scheduler cost {proposed.total_cost} exceeds benchmark "
              f"cost {benchmark.total_cost}", file=sys.stderr)
        return 2
    return 2 if any(violated) else 0


def cmd_validate(args: argparse.Namespace) -> int:
    # The suites draw their own systems, so only the seed is read.
    seed = load_seed(args.config)
    if args.seed is not None:
        check_seed(args.seed)
        seed = args.seed
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    results = run_all_suites(args.trials, seed)
    width = max(len(r.name) for r in results) + 2
    print(f"{'suite':<{width}}{'trials':>10}{'violations':>12}  verdict")
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}{r.trials:>10}{r.violations:>12}  {verdict}")
    failing = [r for r in results if not r.passed]
    if failing:
        first = next((r for r in failing if r.counterexample is not None),
                     failing[0])
        print(f"\nfirst counterexample ({first.name}):", file=sys.stderr)
        print(first.counterexample or "(not captured)", file=sys.stderr)
        return 2
    return 0


def cmd_gen_traces(args: argparse.Namespace) -> int:
    config = _load(args.config, args.seed)
    traces = generate_traces(config)
    paths = write_traces(traces, args.out)
    print("wrote " + ", ".join(paths))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep-v": cmd_sweep_v,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "gen-traces": cmd_gen_traces,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required: "
                           + ", ".join(_COMMANDS))
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError, UnservableSurplusError) as exc:
        # A scenario whose surplus cannot be absorbed is an input-sizing
        # problem, not a broken bound; rerun with --curtail or resize.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
