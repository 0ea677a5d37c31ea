"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_<pr>.json
    python3 scripts/bench_pairs.py --parent HEAD --change HEAD --pairs 1 \
        --seconds 1 --out /tmp/pairs.json

The parent revision is exported with git archive; the change is a revision
exported the same way or, without --change, the working tree copied
without .git. For each workload of BENCHMARK.json and each seed from 801
on, each tree's own perfbench/run.py --trace 0 runs once, for
BENCHMARK.json's run_seconds unless --seconds says otherwise, and which
tree goes first alternates from one seed to the next, so a drift in host
speed falls on both sides.

The report, written to --out, names both trees' commits (the working
tree by HEAD's, and whether it held uncommitted or untracked files) and
holds per workload
and end-to-end metric both trees' median and first and third quartiles,
the pair count and the pairs the change won, better being the direction
BENCHMARK.json gives, and two verdicts: regressed (the change's median is
worse than the parent's by more than BENCHMARK.json's bound, a fraction of
the parent's median) and gain_shown (of at least 10 pairs, the change won
at least 9 in 10, a tie winning nothing, and its median is better than
the parent's by more than the parent's Q1-Q3 spread); every run's correct
flag and metrics; each tree's
"# env" line; and whether PYTHONDONTWRITEBYTECODE is set, since then
every benchmark worker compiles mgsched from source inside its timed
set-up.

Exits 1 when a run is not correct or when cost_per_slot, outage_ratio or
success_ratio differ between the two runs of a pair (the report is
written first), and 2 when --pairs is below 1 or --seconds is not
positive (before anything is exported), when a revision cannot be
resolved or exported, or when a run prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A speed-only change keeps these bit for bit on every run.
EXACT = ("cost_per_slot", "outage_ratio", "success_ratio")
SIDES = ("parent", "change")
FIRST_SEED = 801
UNCOPIED = shutil.ignore_patterns(".git", ".perfbench_work", "__pycache__",
                                  ".hypothesis", ".pytest_cache", ".benchmarks")


def git(*args: str) -> str:
    """A git command's output in the repository, stripped."""
    proc = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.strip()


def commit(revision: str) -> str:
    """revision's full commit hash."""
    return git("rev-parse", "--verify", f"{revision}^{{commit}}")


def export(revision: str, dest: Path) -> None:
    """Extract revision's committed files into dest with git archive."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", revision], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot export {revision!r}")


def parse_run(stdout: str) -> dict:
    """One perfbench/run.py output: its "# env" line and its result, the
    last line, with each metric's value."""
    lines = stdout.strip().splitlines()
    env = [json.loads(line[len("# env "):]) for line in lines
           if line.startswith("# env ")]
    if not lines or not env:
        raise RuntimeError("benchmark printed no result")
    result = json.loads(lines[-1])
    return {"env": env[-1], "correct": result["correct"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    """Median and first and third quartiles (inclusive method)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(end_to_end: list[dict], runs: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json: both trees' quartiles over
    runs (one workload's pairs), the pair count, the change's wins and the
    regressed and gain_shown verdicts."""
    table = {}
    for spec in end_to_end:
        name = spec["name"]
        pairs = [(run["parent"]["metrics"][name],
                  run["change"]["metrics"][name]) for run in runs]
        higher = spec["better"] == "higher"
        wins = len([1 for old, new in pairs
                    if (new > old if higher else new < old)])
        parent = quartiles([old for old, _ in pairs])
        change = quartiles([new for _, new in pairs])
        # How far the change's median moved the better way.
        gain = (change["median"] - parent["median"]) * (1 if higher else -1)
        table[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "pairs": len(pairs), "change_wins": wins,
            "parent": parent, "change": change,
            "regressed": -gain > spec["bound"] * abs(parent["median"]),
            "gain_shown": (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                           and gain > parent["q3"] - parent["q1"])}
    return table


def problems(workload: str, runs: list[dict]) -> list[str]:
    """What makes a workload's pairs fail: a run that is not correct, or an
    EXACT metric that differs between the trees of a pair."""
    found = []
    for run in runs:
        where = f"{workload} seed {run['seed']}"
        found += [f"{where}: {side} run not correct" for side in SIDES
                  if not run[side]["correct"]]
        found += [f"{where}: {name} {run['parent']['metrics'][name]!r} "
                  f"(parent) != {run['change']['metrics'][name]!r} (change)"
                  for name in EXACT
                  if run["parent"]["metrics"][name]
                  != run["change"]["metrics"][name]]
    return found


def report(sources: dict, seconds: float, end_to_end: list[dict],
           runs: dict, envs: dict) -> dict:
    """The report of runs, one list of pairs per workload; sources names
    the trees measured."""
    return {
        **sources,
        "seconds": seconds,
        "PYTHONDONTWRITEBYTECODE": bool(
            os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "env": envs,
        "workloads": {workload: {"metrics": summarize(end_to_end, pairs),
                                 "runs": pairs}
                      for workload, pairs in runs.items()},
    }


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """parse_run of one tree's own benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name}: {workload} seed {seed} exited "
                           f"{proc.returncode}")
    return parse_run(proc.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", help="change revision (default: the "
                   "working tree)")
    p.add_argument("--out", required=True, help="report path")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float,
                   help="seconds per run (default: BENCHMARK.json's)")
    args = p.parse_args()
    if args.pairs < 1:
        p.error(f"--pairs must be >= 1, got {args.pairs}")
    if args.seconds is not None and not args.seconds > 0.0:
        p.error(f"--seconds must be positive, got {args.seconds}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sources = {"parent": commit(args.parent),
                   "change": commit(args.change or "HEAD"),
                   "uncommitted": (not args.change
                                   and bool(git("status", "--porcelain")))}
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        export(sources["parent"], trees["parent"])
        if args.change:
            export(sources["change"], trees["change"])
        else:
            shutil.copytree(ROOT, trees["change"], ignore=UNCOPIED)
        runs, envs = {}, {}
        for workload in [w["name"] for w in spec["workloads"]]:
            runs[workload] = []
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, seed, seconds)
                    envs[side] = pair[side].pop("env")
                runs[workload].append(pair)
                print(f"{workload} seed {seed}: slots_per_s "
                      f"{pair['parent']['metrics']['slots_per_s']:.0f} -> "
                      f"{pair['change']['metrics']['slots_per_s']:.0f}",
                      file=sys.stderr, flush=True)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    Path(args.out).write_text(json.dumps(
        report(sources, seconds, spec["end_to_end"], runs, envs),
        indent=1) + "\n")
    found = [line for workload, pairs in runs.items()
             for line in problems(workload, pairs)]
    for line in found:
        print(f"error: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
