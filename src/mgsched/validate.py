"""Randomized self-checks for the deterministic guarantees.

Each suite draws systems, states, and observations at random, runs the
scheduler, and counts violations of a guarantee that should never fail:
battery levels stay inside their physical band, backlog queues stay under
their deterministic cap, sliding outage windows stay within budget, optimal
dispatches keep their threshold structure, and the merit-order solver and
dispatch_slot reach the optimum that the exact dual oracle computes, at up
to 5 batteries and 20 residents. Every suite reports trial and violation
counts plus the first counterexample, so a failure is directly
reproducible.

Every suite draws its systems as random_system RunConfigs and their
observations through the simulator's own generate_traces. The bound suite
advances each slot with the simulator's step and audits each 500-slot
stretch of a run, and the threshold suite each 64-slot block, with its
audit_slots. The RunConfigs size the market trade caps to dominate the
microgrid (purchases can cover every quality request and recharge, sales
can absorb the largest surplus plus every discharge). The structural
guarantees are proved under that regime; an undersized grid connection can
force optima with a genuinely different shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispatch import (
    build_subproblem,
    dispatch_slot,
    merit_order_allocate,
    oracle_solve,
    threshold_violations,
)
from .model import (
    BatterySpec,
    GridSpec,
    ResidentSpec,
    SlotObservation,
    SystemSpec,
    SystemState,
    check_dispatch,
    compute_vmax,
)
from .queues import bound_constants
from .sim import (
    OUTAGE_WINDOW,
    RunConfig,
    audit_slots,
    first_violation,
    generate_traces,
    outage_windows,
    step,
)

# Head-room added past the worst case when sizing q_max and s_max.
CAP_MARGIN = 2.0


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one randomized suite.

    trials counts the checked units (slots, windows, or instances,
    depending on the suite); counterexample reproduces the first failure.
    """

    name: str
    trials: int
    violations: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _uniform(u, lo, hi):
    """Map unit draws u onto [lo, hi) exactly as Generator.uniform does."""
    return lo + (hi - lo) * u


def random_system(rng: np.random.Generator, horizon: int, k_max: int = 3,
                  n_max: int = 6) -> RunConfig:
    """Draw a random well-posed system with dominating trade caps.

    Returns a RunConfig of the given horizon whose surplus process fits the
    sizing: uniform on [0, surplus_hi], replaced with probability
    burst_prob by a burst on [surplus_hi, burst_hi].
    """
    k = int(rng.integers(1, k_max + 1))
    n = int(rng.integers(1, n_max + 1))
    # One block of unit draws: per battery r_max, d_max, band_extra, e_min
    # and e_init; per resident alpha_max, lo, hi - lo and delta; then w_min,
    # the three price gaps above it, and the surplus and burst factors.
    u = rng.random(5 * k + 4 * n + 6)
    bat = u[:5 * k].reshape(k, 5)
    r_max, d_max, band_extra, e_min = _uniform(
        bat[:, :4], np.array([0.5, 0.5, 0.5, 0.0]),
        np.array([2.0, 2.0, 8.0, 1.5])).T
    e_max = e_min + r_max + d_max + band_extra
    e_init = _uniform(bat[:, 4], e_min, e_max)
    batteries = tuple(
        BatterySpec(e_min=lo, e_max=hi, r_max=r, d_max=d, e_init=e0)
        for lo, hi, r, d, e0 in zip(e_min.tolist(), e_max.tolist(),
                                    r_max.tolist(), d_max.tolist(),
                                    e_init.tolist()))
    residents = tuple(
        ResidentSpec(delta=delta, alpha_max=a_max, basic_range=(lo, lo + w))
        for a_max, lo, w, delta in _uniform(
            u[5 * k:-6].reshape(n, 4), np.array([0.8, 0.05, 0.1, 0.02]),
            np.array([2.6, 0.4, 1.5, 0.15])).tolist())
    w_min, w_width, c_gap, c_width, surplus_f, burst_f = _uniform(
        u[-6:], np.array([0.01, 0.004, 0.002, 0.01, 0.2, 1.5]),
        np.array([0.035, 0.02, 0.02, 0.06, 1.0, 3.0])).tolist()
    # Price bands are drawn strictly separated (sell band below purchase
    # band) so every observation has w < c without per-slot fixups.
    w_max = w_min + w_width
    c_min = w_max + c_gap
    sum_alpha = sum(res.alpha_max for res in residents)
    sum_r, sum_d = sum(r_max.tolist()), sum(d_max.tolist())
    surplus_hi = surplus_f * (sum_alpha + sum_r)
    burst_hi = surplus_hi * burst_f
    grid = GridSpec(q_max=sum_alpha + sum_r + CAP_MARGIN,
                    s_max=burst_hi + sum_d + CAP_MARGIN, c_min=c_min,
                    c_max=c_min + c_width, w_min=w_min, w_max=w_max)
    return RunConfig(batteries=batteries, residents=residents, grid=grid,
                     horizon=horizon, surplus_range=(0.0, surplus_hi),
                     burst_range=(surplus_hi, burst_hi), burst_prob=0.08)


def random_states(system: SystemSpec, rng: np.random.Generator, v: float,
                  count: int, z_scale: float = 1.25,
                  zero_prob: float = 0.3) -> list[SystemState]:
    """Draw count states with levels anywhere in band and backlogs up to
    z_scale times their cap (zero with probability zero_prob)."""
    z_cap = z_scale * np.array(bound_constants(system, v).z_max)
    e_min, e_max = np.array([(b.e_min, b.e_max) for b in system.batteries]).T
    e = _uniform(rng.random((count, len(e_min))), e_min, e_max)
    zero = rng.random((count, len(z_cap))) < zero_prob
    z = np.where(zero, 0.0, z_cap * rng.random(zero.shape))
    return [SystemState(t=0, e=tuple(e_row), z=tuple(z_row))
            for e_row, z_row in zip(e.tolist(), z.tolist())]


def _counterexample(system: SystemSpec, state: SystemState,
                    obs: SlotObservation, dispatch, detail: str) -> str:
    return (f"detail: {detail}\nsystem: {system!r}\n"
            f"state: {state!r}\nobs: {obs!r}\ndispatch: {dispatch!r}")


def _first_counterexample(audit, key: str, system: SystemSpec, v: float,
                          states, observations, dispatches,
                          z_max) -> str | None:
    first = first_violation(audit, (key,), system, v, states, observations,
                            dispatches, z_max)
    if first is None:
        return None
    t, _, msg = first
    return _counterexample(system, states[t], observations[t], dispatches[t],
                           msg)


def _agrees(objective: float, optimum: float) -> bool:
    return abs(objective - optimum) <= 1e-9 * max(1.0, abs(optimum))


def run_bound_trials(runs: int, slots: int, seed: int,
                     v_factor: float = 1.0, k_max: int = 3,
                     n_max: int = 6) -> list[SuiteResult]:
    """Simulate random systems and audit the deterministic state bounds.

    Returns three SuiteResults: battery levels inside their band, backlog
    queues under their cap, and sliding outage windows within budget. The
    per-slot flow caps are deliberately not headroom-clamped here, so a
    misparametrized control weight (v_factor > 1) produces real, countable
    band violations instead of being silently repaired.
    """
    if runs < 1 or slots < 1:
        raise ValueError("runs and slots must both be >= 1")
    rng = np.random.default_rng((seed, 2))
    band_v = queue_v = window_v = 0
    band_ce = queue_ce = window_ce = None
    windows_checked = 0
    for _ in range(runs):
        config = random_system(rng, slots, k_max=k_max, n_max=n_max)
        system = config.system
        residents = config.residents
        v = v_factor * compute_vmax(config.batteries, config.grid)
        consts = bound_constants(system, v)
        state = SystemState(t=0, e=tuple(b.e_init for b in config.batteries),
                            z=(0.0,) * len(residents))
        observations = generate_traces(config, rng)
        # Each OUTAGE_WINDOW-slot stretch is audited on its own, so only
        # one stretch's states and dispatches are alive at a time; keeping
        # all of a long run's objects until one audit costs more in
        # garbage-collector and allocator time than the audit saves.
        # Windows span stretches and are summed over the run's outage rows.
        outage = []
        for start in range(0, slots, OUTAGE_WINDOW):
            stretch = observations[start:start + OUTAGE_WINDOW]
            states = [state]
            dispatches = []
            for obs in stretch:
                dispatch = dispatch_slot(system, state, obs, v,
                                         headroom_clamp=False)
                state = step(system, state, obs, dispatch)
                dispatches.append(dispatch)
                states.append(state)
            audit = audit_slots(system, v, states, stretch, dispatches,
                                consts.z_max)
            band_v += int(audit["battery_band"].sum())
            queue_v += int(audit["queue_bound"].sum())
            outage.append(audit["outage"])
            context = (system, v, states, stretch, dispatches, consts.z_max)
            if band_ce is None:
                band_ce = _first_counterexample(audit, "battery_band",
                                                *context)
            if queue_ce is None:
                queue_ce = _first_counterexample(audit, "queue_bound",
                                                 *context)
        sums, budgets = outage_windows(np.vstack(outage), residents,
                                       consts.z_max)
        windows_checked += sums.size
        bad = sums > budgets
        window_v += int(bad.sum())
        if window_ce is None and bad.any():
            n = int(np.nonzero(bad.any(axis=0))[0][0])
            worst = int(np.argmax(sums[:, n]))
            window_ce = (
                f"detail: window starting at slot {worst} sums to "
                f"{sums[worst, n]} > budget {budgets[n]} for resident "
                f"{n}\nsystem: {system!r}")
    slot_total = runs * slots
    return [
        SuiteResult("battery-band", slot_total, band_v, band_ce),
        SuiteResult("queue-bound", slot_total, queue_v, queue_ce),
        SuiteResult("outage-window", windows_checked, window_v, window_ce),
    ]


def threshold_trials(slots: int, seed: int, k_max: int = 3,
                     n_max: int = 6) -> SuiteResult:
    """Audit feasibility and threshold structure of optimal dispatches.

    Each slot gets an independently drawn state (levels anywhere in band,
    backlogs up to 1.25x their cap) and observation; the scheduler's
    dispatch must satisfy every dispatch invariant and every strict
    threshold condition. Systems are redrawn every 64 slots, each with one
    generate_traces block of observations.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    rng = np.random.default_rng((seed, 3))
    violations = 0
    ce = None
    for start in range(0, slots, 64):
        config = random_system(rng, min(64, slots - start), k_max=k_max,
                               n_max=n_max)
        system = config.system
        v_max = compute_vmax(config.batteries, config.grid)
        v = float(rng.uniform(0.3, 1.0)) * v_max
        block = generate_traces(config, rng)
        states = random_states(system, rng, v, len(block))
        dispatches = [dispatch_slot(system, state, obs, v)
                      for state, obs in zip(states, block)]
        audit = audit_slots(system, v, states, block, dispatches)
        bad = audit["balance"] | audit["threshold"]
        violations += int(bad.sum())
        if ce is None and bad.any():
            t = int(bad.argmax())
            problems = check_dispatch(dispatches[t], system, block[t])
            problems += threshold_violations(system, states[t], block[t], v,
                                             dispatches[t])
            ce = _counterexample(system, states[t], block[t], dispatches[t],
                                 "; ".join(problems))
    return SuiteResult("threshold-structure", slots, violations, ce)


def solver_oracle_trials(instances: int, seed: int) -> SuiteResult:
    """Cross-check the merit-order solver against the exact dual oracle.

    Instances are drawn at the acceptance maximum of 5 batteries and 20
    residents. The feasibility verdicts must agree and, when feasible, the
    merit-order objective on build_subproblem's books must equal the
    oracle's optimum to within 1e-9 relative and its dispatch must pass
    every dispatch invariant; dispatch_slot's objective must equal the
    optimum to the same tolerance.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    rng = np.random.default_rng((seed, 4))
    violations = 0
    ce = None
    for _ in range(instances):
        config = random_system(rng, 1, k_max=5, n_max=20)
        system = config.system
        v_max = compute_vmax(system.batteries, system.grid)
        v = float(rng.uniform(0.3, 1.0)) * v_max
        state = random_states(system, rng, v, 1, z_scale=1.0)[0]
        obs = generate_traces(config, rng)[0]
        oracle = oracle_solve(system, state, obs, v)
        chosen = dispatch_slot(system, state, obs, v)
        res = merit_order_allocate(*build_subproblem(system, state, obs, v),
                                   system.n_batteries, system.n_residents)
        problems = []
        if res.feasible != math.isfinite(oracle):
            problems.append(f"merit feasible={res.feasible} but "
                            f"oracle optimum {oracle}")
        elif res.feasible:
            if not _agrees(res.objective, oracle):
                problems.append(f"merit objective {res.objective} but "
                                f"oracle optimum {oracle}")
            problems += check_dispatch(res.dispatch, system, obs)
        if not _agrees(chosen.objective, oracle):
            problems.append(f"dispatch_slot objective {chosen.objective} "
                            f"but oracle optimum {oracle}")
        if problems:
            violations += 1
            if ce is None:
                ce = _counterexample(system, state, obs, chosen,
                                     "; ".join(problems))
    return SuiteResult("solver-oracle", instances, violations, ce)


def run_all_suites(trials: int, seed: int, k_max: int = 3,
                   n_max: int = 6) -> list[SuiteResult]:
    """Run every suite at a size scaled to the requested trial count."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results = run_bound_trials(runs=max(2, trials // 10),
                               slots=max(OUTAGE_WINDOW, 4 * trials),
                               seed=seed, k_max=k_max, n_max=n_max)
    results.append(threshold_trials(slots=30 * trials, seed=seed,
                                    k_max=k_max, n_max=n_max))
    results.append(solver_oracle_trials(instances=trials, seed=seed))
    return results
