"""Acceptance gate: the deterministic bounds, solver exactness, and the
reproducible qualitative trends, each as one pass/fail test with its
runtime printed. Tolerances are stated inline next to each check."""

import time
from dataclasses import replace

import pytest

from mgsched import (
    bound_constants,
    generate_traces,
    hindsight_lower_bound,
    load_config,
    run,
    run_bound_trials,
    solver_oracle_trials,
    threshold_trials,
)
from mgsched.cli import main

SEED = 2026
FIVE_DAY = "configs/five_day.yaml"
SEVEN_DAY = "configs/seven_day.yaml"


def _report(number: int, label: str, passed: bool, elapsed: float,
            detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"criterion {number} ({label}): {verdict} [{elapsed:.1f}s]{suffix}")


@pytest.fixture(scope="module")
def bound_suites():
    """100 randomized systems (K <= 5, N <= 20) run 5,000 slots at v_max;
    shared by the battery-band and queue-bound criteria."""
    start = time.perf_counter()
    results = run_bound_trials(runs=100, slots=5000, seed=SEED,
                               v_factor=1.0, k_max=5, n_max=20)
    elapsed = time.perf_counter() - start
    print(f"bound trials fixture: 100 runs x 5000 slots in {elapsed:.1f}s")
    return {r.name: r for r in results}, elapsed


def test_criterion_1_battery_band(bound_suites):
    suites, elapsed = bound_suites
    suite = suites["battery-band"]
    passed = suite.violations == 0
    _report(1, "battery levels stay in band, tol 1e-9 kWh", passed, elapsed,
            f"{suite.trials} slot-checks, {suite.violations} violations")
    assert passed, suite.counterexample


def test_criterion_2_queue_and_window_bounds(bound_suites):
    suites, elapsed = bound_suites
    queue = suites["queue-bound"]
    window = suites["outage-window"]
    passed = queue.violations == 0 and window.violations == 0
    _report(2, "backlog cap and 500-slot outage windows", passed, elapsed,
            f"{queue.trials} queue checks, {window.trials} windows")
    assert queue.violations == 0, queue.counterexample
    assert window.violations == 0, window.counterexample


def test_criterion_3_solver_exactness():
    start = time.perf_counter()
    suite = solver_oracle_trials(instances=500, seed=SEED)
    elapsed = time.perf_counter() - start
    passed = suite.violations == 0
    _report(3, "merit order and dispatch_slot equal the exact dual optimum "
            "at up to 5x20, tol 1e-9 relative", passed, elapsed,
            f"{suite.trials} instances")
    assert passed, suite.counterexample


def test_criterion_4_threshold_structure():
    start = time.perf_counter()
    suite = threshold_trials(slots=10_000, seed=SEED)
    elapsed = time.perf_counter() - start
    passed = suite.violations == 0
    _report(4, "threshold structure of optimal dispatches", passed,
            elapsed, f"{suite.trials} dispatched slots")
    assert passed, suite.counterexample


def test_criterion_5_outage_convergence():
    base = replace(load_config(FIVE_DAY), horizon=5000)
    start = time.perf_counter()
    worst_ratio = 0.0
    worst_slot = 0
    passed = True
    for seed in (7, 8, 9):
        config = replace(base, seed=seed)
        _, summary = run(config, generate_traces(config), keep_records=False)
        worst_ratio = max(worst_ratio, max(summary.outage_ratio))
        for ratio in summary.outage_ratio:
            passed = passed and 0.0 <= ratio <= 0.10
        for slot in summary.convergence_slot:
            passed = passed and 0 <= slot <= 2000
            worst_slot = max(worst_slot, slot)
    elapsed = time.perf_counter() - start
    _report(5, "outage ratio in [0, 0.10], settles within 2000 slots",
            passed, elapsed,
            f"worst ratio {worst_ratio:.4f}, worst settle {worst_slot}")
    assert passed


def test_criterion_6_v_tradeoff_trend():
    config = replace(load_config(FIVE_DAY), horizon=5000, seed=7)
    traces = generate_traces(config)
    start = time.perf_counter()
    costs = []
    outages = []
    for fraction in (1.0, 0.5, 0.25):        # descending v
        cfg = replace(config, v_fraction=fraction)
        _, summary = run(cfg, traces, keep_records=False)
        costs.append(summary.total_cost)
        outages.append(sum(summary.outage_ratio) / len(summary.outage_ratio))
    elapsed = time.perf_counter() - start
    # cost non-increasing in v: descending v must show non-decreasing cost
    cost_ok = all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))
    outage_ok = all(a >= b - 1e-9 for a, b in zip(outages, outages[1:]))
    strict = (any(a < b - 1e-9 for a, b in zip(costs, costs[1:]))
              and any(a > b + 1e-9 for a, b in zip(outages, outages[1:])))
    passed = cost_ok and outage_ok and strict
    _report(6, "cost falls and outage rises with v", passed, elapsed,
            f"costs {[round(c, 1) for c in costs]}, "
            f"outages {[round(o, 4) for o in outages]}")
    assert passed


def test_criterion_7_cost_gap():
    base = replace(load_config(FIVE_DAY), horizon=10_000)
    start = time.perf_counter()
    passed = True
    details = []
    for seed in (7, 8, 9):
        config = replace(base, seed=seed)
        traces = generate_traces(config)
        _, summary = run(config, traces, keep_records=False)
        lb = hindsight_lower_bound(traces, config, iterations=30)
        consts = bound_constants(config.system, summary.v)
        budget = lb + consts.b_star / summary.v + 0.05 * max(1.0, abs(lb))
        passed = passed and summary.mean_cost_per_slot <= budget
        details.append(
            f"seed {seed}: {summary.mean_cost_per_slot:.4f} <= {budget:.4f}")
    elapsed = time.perf_counter() - start
    _report(7, "online cost within b*/v + 5% of hindsight bound", passed,
            elapsed, "; ".join(details))
    assert passed


def test_criterion_8_beats_benchmark():
    base = load_config(SEVEN_DAY)
    start = time.perf_counter()
    passed = True
    details = []
    for seed in (11, 12, 13):
        config = replace(base, seed=seed)
        traces = generate_traces(config)
        _, proposed = run(config, traces, policy="proposed",
                          keep_records=False)
        _, benchmark = run(config, traces, policy="mecp", keep_records=False)
        passed = passed and proposed.total_cost < benchmark.total_cost
        details.append(f"seed {seed}: {proposed.total_cost:.2f} "
                       f"vs {benchmark.total_cost:.2f}")
    elapsed = time.perf_counter() - start
    _report(8, "scheduler strictly cheaper than coin-toss benchmark",
            passed, elapsed, "; ".join(details))
    assert passed


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    code_a = main(["run", "--config", FIVE_DAY, "--out", out_a])
    code_b = main(["run", "--config", FIVE_DAY, "--out", out_b])
    slots_same = ((tmp_path / "a.slots.csv").read_bytes()
                  == (tmp_path / "b.slots.csv").read_bytes())
    summary_same = ((tmp_path / "a.summary.txt").read_bytes()
                    == (tmp_path / "b.summary.txt").read_bytes())
    passed = code_a == 0 and code_b == 0 and slots_same and summary_same
    elapsed = time.perf_counter() - start
    _report(9, "repeated runs byte-identical", passed, elapsed)
    assert passed
