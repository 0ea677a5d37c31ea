"""The three benchmark workloads, written against mgsched's public API.

Each workload prepares its inputs from the benchmark seed in ``setup`` and
then hands out an endless, deterministic sequence of operations. An op is
one closed-loop call into mgsched (``call``, timed) plus a correctness
check on what it returned or wrote (``check``, untimed). ``units`` is the
number of slot problems the op completes, the numerator of slots_per_s.

Functions are always looked up on their module at call time
(``cli.main``, ``sim.hindsight_lower_bound``, ...), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import mgsched.cli as cli
import mgsched.sim as sim
import mgsched.validate as validate

CONFIGS = ("five_day", "seven_day")

# hindsight: per-op trace length and subgradient iterations. The cost-gap
# acceptance criterion runs 30 iterations; the first one, with every
# multiplier at 0, stops phase two of the allocator at its first pair, so
# an op runs enough iterations that this pass is a tenth of its work. The
# slot loop is linear in the horizon, so a shorter trace keeps one op at
# 5000 iteration-slots without changing the per-slot work.
HINDSIGHT_HORIZON = 500
HINDSIGHT_ITERATIONS = 10
HINDSIGHT_TRACES = 4

# validate-large: system sizes of the acceptance gate (up to 5 batteries x
# 20 residents). One bound op is one random system over exactly one outage
# window, so its window suite checks one window per resident; a threshold
# op redraws its system every 64 slots.
K_MAX = 5
N_MAX = 20
BOUND_SLOTS = sim.OUTAGE_WINDOW
THRESHOLD_SLOTS = 256
ORACLE_INSTANCES = 64


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input stream, fixed by (seed, tag)."""
    return random.Random(f"{seed}/{tag}").getrandbits(32)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Op:
    kind: str
    units: int
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


def shipped_outcome(root: Path) -> tuple[float, float]:
    """The scheduler's mean cost per slot and mean outage ratio over both
    shipped configs at their own seeds; a speed-only change keeps both
    bit-for-bit."""
    cost = 0.0
    slots = 0
    ratios: list[float] = []
    for name in CONFIGS:
        config = sim.load_config(str(root / "configs" / f"{name}.yaml"))
        _, summary = sim.run(config, sim.generate_traces(config),
                             keep_records=False)
        cost += summary.total_cost
        slots += summary.slots
        ratios.extend(summary.outage_ratio)
    return cost / slots, sum(ratios) / len(ratios)


def _exit_ok(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def _in_turn(ops: tuple[Op, ...]) -> Op:
    """One op that makes the calls of ``ops`` (all of one kind) in turn
    and passes each result to its own check."""
    return Op(ops[0].kind, sum(op.units for op in ops),
              lambda: [op.call() for op in ops],
              lambda results: [problem for op, result in zip(ops, results)
                               for problem in op.check(result)])


class CliWeek:
    """In-process ``mgsched`` CLI calls over both shipped configs.

    The rotation is: ``run`` at each config's own seed (outputs checked
    against recorded SHA-256 digests), ``run`` on synthetic traces at a
    seed derived from the benchmark seed, ``run`` replaying the CSVs that
    ``gen-traces`` wrote for that seed during set-up (outputs must be
    byte-identical to the synthetic run), and ``compare`` (scheduler and
    the mecp baseline on the same traces). One op is one of these commands
    on ``five_day`` and then on ``seven_day``: the two configs differ in
    length, and an op per config would make op latencies bimodal, with their
    median on the boundary between the two.
    """

    name = "cli-week"
    trace_ops = 8

    def __init__(self, root: Path, seed: int, workdir: Path,
                 expected: dict) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.rotation: list[Op] = []
        self.seeds: dict[str, int] = {}

    def setup(self) -> None:
        per_config = []
        for name in CONFIGS:
            shipped = self.root / "configs" / f"{name}.yaml"
            horizon = sim.load_config(str(shipped)).horizon
            seed = derive_seed(self.seed, name)
            self.seeds[name] = seed
            text, n = re.subn(r"(?m)^seed:\s*\d+\s*$", f"seed: {seed}",
                              shipped.read_text())
            if n != 1:
                raise RuntimeError(f"{shipped}: expected one top-level seed")
            config = self.workdir / f"{name}.yaml"
            config.write_text(text)
            traces = str(self.workdir / f"{name}-traces")
            code = cli.main(["gen-traces", "--config", str(config),
                             "--out", traces])
            if code != 0:
                raise RuntimeError(f"gen-traces on {config} exited {code}")
            per_config.append(self._ops(name, shipped, config, traces,
                                        horizon))
        self.rotation = [_in_turn(ops) for ops in zip(*per_config)]
        self.min_ops = len(self.rotation)

    def _ops(self, name, shipped, config, traces, horizon) -> list[Op]:
        anchor = self.workdir / f"anchor-{name}"
        synthetic = self.workdir / f"synthetic-{name}"
        replayed = self.workdir / f"replay-{name}"
        compared = self.workdir / f"compare-{name}"
        suffixes = ("slots.csv", "summary.txt")

        def check_anchor(code):
            problems = _exit_ok(code)
            for suffix in suffixes:
                path = Path(f"{anchor}.{suffix}")
                if not problems and sha256(path) != self.expected[name][suffix]:
                    problems.append(f"{path.name}: digest differs from "
                                    "the recorded one")
            return problems

        def check_replay(code):
            problems = _exit_ok(code)
            for suffix in suffixes:
                a = Path(f"{synthetic}.{suffix}")
                b = Path(f"{replayed}.{suffix}")
                if not problems and a.read_bytes() != b.read_bytes():
                    problems.append(f"{b.name} differs from {a.name}")
            return problems

        return [
            Op("run-anchor", horizon,
               lambda: cli.main(["run", "--config", str(shipped),
                                 "--out", str(anchor)]),
               check_anchor),
            Op("run-synthetic", horizon,
               lambda: cli.main(["run", "--config", str(config),
                                 "--out", str(synthetic)]),
               _exit_ok),
            Op("run-replay", horizon,
               lambda: cli.main(["run", "--config", str(config),
                                 "--wind", f"{traces}.wind.csv",
                                 "--prices", f"{traces}.prices.csv",
                                 "--demand", f"{traces}.demand.csv",
                                 "--out", str(replayed)]),
               check_replay),
            Op("compare", 2 * horizon,
               lambda: cli.main(["compare", "--config", str(config),
                                 "--out", str(compared)]),
               _exit_ok),
        ]

    def op(self, i: int) -> Op:
        return self.rotation[i % len(self.rotation)]

    def info(self) -> dict:
        return {"derived_seeds": self.seeds}


class Hindsight:
    """``sim.hindsight_lower_bound`` on ``five_day`` traces.

    Set-up draws the traces and runs the scheduler once on each, so every
    bound can be checked against the scheduler's mean cost on the same
    trace: a lower bound must be finite and sit at or below it.
    """

    name = "hindsight"
    trace_ops = 8

    def __init__(self, root: Path, seed: int, workdir: Path,
                 expected: dict) -> None:
        self.root = root
        self.seed = seed
        self.cases: list[tuple[sim.RunConfig, list, float]] = []
        self.bounds: dict[int, float] = {}

    def setup(self) -> None:
        base = sim.load_config(str(self.root / "configs" / "five_day.yaml"))
        for i in range(HINDSIGHT_TRACES):
            config = replace(base, horizon=HINDSIGHT_HORIZON,
                             seed=derive_seed(self.seed, f"hindsight-{i}"))
            traces = sim.generate_traces(config)
            _, summary = sim.run(config, traces, keep_records=False)
            self.cases.append((config, traces, summary.mean_cost_per_slot))
        self.min_ops = len(self.cases)

    def op(self, i: int) -> Op:
        j = i % len(self.cases)
        config, traces, reference = self.cases[j]

        def check(bound):
            self.bounds[j] = bound
            if not math.isfinite(bound):
                return [f"trace {j}: bound {bound} is not finite"]
            if bound > reference:
                return [f"trace {j}: bound {bound} above the scheduler's "
                        f"mean cost {reference}"]
            return []

        return Op(f"hindsight-{j}", HINDSIGHT_ITERATIONS * HINDSIGHT_HORIZON,
                  lambda: sim.hindsight_lower_bound(
                      traces, config, iterations=HINDSIGHT_ITERATIONS),
                  check)

    def info(self) -> dict:
        return {"bound_per_slot": [self.bounds.get(j) for j in
                                   range(len(self.cases))],
                "scheduler_cost_per_slot": [c[2] for c in self.cases]}


class ValidateLarge:
    """The randomized invariant suites at the acceptance gate's sizes.

    One op runs ``run_bound_trials`` (headroom clamp off inside the suite),
    ``threshold_trials`` and ``solver_oracle_trials`` in turn, each on
    fresh systems drawn from a seed derived from (benchmark seed, op).
    Bundling the three keeps op latencies unimodal, so their median does
    not sit on the boundary between suites of different cost.
    """

    name = "validate-large"
    trace_ops = 10
    min_ops = 1
    # Suite name -> accepted trial counts. A bound op covers one outage
    # window, which the window suite checks once per resident.
    TRIALS = {"battery-band": (BOUND_SLOTS, BOUND_SLOTS),
              "queue-bound": (BOUND_SLOTS, BOUND_SLOTS),
              "outage-window": (1, N_MAX),
              "threshold-structure": (THRESHOLD_SLOTS, THRESHOLD_SLOTS),
              "solver-oracle": (ORACLE_INSTANCES, ORACLE_INSTANCES)}

    def __init__(self, root: Path, seed: int, workdir: Path,
                 expected: dict) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Nothing to prepare: every op draws its own systems."""

    def op(self, i: int) -> Op:
        bound, threshold, oracle = (derive_seed(self.seed, f"{suite}-{i}")
                                    for suite in ("bound", "threshold",
                                                  "oracle"))

        def call():
            return [
                *validate.run_bound_trials(runs=1, slots=BOUND_SLOTS,
                                           seed=bound, k_max=K_MAX,
                                           n_max=N_MAX),
                validate.threshold_trials(slots=THRESHOLD_SLOTS,
                                          seed=threshold, k_max=K_MAX,
                                          n_max=N_MAX),
                validate.solver_oracle_trials(instances=ORACLE_INSTANCES,
                                              seed=oracle),
            ]

        def check(results):
            if sorted(r.name for r in results) != sorted(self.TRIALS):
                return [f"suites {[r.name for r in results]}"]
            problems = [f"{r.name}: {r.violations} violations"
                        for r in results if r.violations]
            for r in results:
                lo, hi = self.TRIALS[r.name]
                if not lo <= r.trials <= hi:
                    problems.append(f"{r.name}: {r.trials} trials, "
                                    f"expected {lo} to {hi}")
            return problems

        return Op("suites", BOUND_SLOTS + THRESHOLD_SLOTS + ORACLE_INSTANCES,
                  call, check)

    def info(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (CliWeek, Hindsight, ValidateLarge)}
