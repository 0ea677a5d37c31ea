"""Randomized self-checks for the deterministic guarantees.

Each suite draws systems, states, and observations at random, solves the
slot problems, and counts violations of a guarantee that should never
fail: battery levels stay inside their physical band, backlog queues stay
under their deterministic cap, sliding outage windows stay within budget,
optimal dispatches keep their threshold structure, and dispatch_slot and
the batched kernel merit_order_columns reach the optimum that the exact
dual oracle computes, at up to 5 batteries and 20 residents. Every suite
reports trial and violation counts plus the first counterexample, so a
failure is directly reproducible.

Every suite draws its systems as random_system RunConfigs and their
observations through the simulator's own generate_traces. The bound suite
runs the scheduler: it advances each slot with dispatch_slot and the
simulator's step and audits each 500-slot stretch of a run with
audit_slots. The threshold and oracle suites solve independent slots, so
they solve a block of them with one merit_order_columns call and audit
the arrays with audit_slots' balance and threshold cores; the threshold
suite no longer calls dispatch_slot, and the oracle suite calls it once
per instance, so the scheduler's own path stays checked against the
oracle too. The RunConfigs size the market trade caps to dominate the
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
    dispatch_slot,
    merit_order_columns,
    oracle_columns,
    threshold_violations,
)
from .model import (
    BatterySpec,
    Dispatch,
    GridSpec,
    ResidentSpec,
    SlotObservation,
    SystemSpec,
    SystemState,
    UnservableSurplusError,
    check_dispatch,
    compute_vmax,
    surplus_power,
)
from .queues import bound_constants
from .sim import (
    OUTAGE_WINDOW,
    RunConfig,
    _balance_masks,
    _observation_arrays,
    _threshold_mask,
    audit_slots,
    first_violation,
    generate_traces,
    outage_windows,
    step,
)

# Head-room added past the worst case when sizing q_max and s_max.
CAP_MARGIN = 2.0
# Slots per threshold-suite system, and oracle instances per batch.
BLOCK = 64


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
    e, z = _state_arrays(system, rng, v, count, z_scale, zero_prob)
    return [SystemState(t=0, e=tuple(e_row), z=tuple(z_row))
            for e_row, z_row in zip(e.tolist(), z.tolist())]


def _state_arrays(system: SystemSpec, rng: np.random.Generator, v: float,
                  count: int, z_scale: float = 1.25, zero_prob: float = 0.3):
    """random_states' draws as arrays: levels e (count, K), backlogs z
    (count, N)."""
    z_cap = z_scale * np.array(bound_constants(system, v).z_max)
    e_min, e_max = np.array([(b.e_min, b.e_max) for b in system.batteries]).T
    e = _uniform(rng.random((count, len(e_min))), e_min, e_max)
    zero = rng.random((count, len(z_cap))) < zero_prob
    z = np.where(zero, 0.0, z_cap * rng.random(zero.shape))
    return e, z


def _battery_specs(system: SystemSpec) -> np.ndarray:
    """(e_min, e_max, r_max, d_max) rows, one column per battery."""
    return np.array([(b.e_min, b.e_max, b.r_max, b.d_max)
                     for b in system.batteries]).T


def _books(e, z, alpha, specs, v, c_max):
    """merit_order_columns' bids and offers for slot-major states.

    e (T, K) and z, alpha (T, N) are the levels, backlogs and quality
    requests of T slots, specs broadcasts as _battery_specs' rows against
    e, and v and c_max against e's columns. Returns the entry-major quality
    values and caps, battery queues (battery_queue's arithmetic), and the
    headroom-clamped recharge and discharge caps that dispatch_slot uses.
    """
    e_min, e_max, r_max, d_max = specs
    x = e - d_max - e_min - v * c_max
    r_cap = np.maximum(np.minimum(r_max, e_max - e), 0.0)
    d_cap = np.maximum(np.minimum(d_max, e - e_min), 0.0)
    return (z + alpha).T, alpha.T, x.T, r_cap.T, d_cap.T


def _column_dispatch(solution, i: int, system: SystemSpec) -> Dispatch:
    """Column i of merit_order_columns' solution as system's Dispatch."""
    objective, q, s, r, d, p, _ = solution
    k, n = system.n_batteries, system.n_residents
    return Dispatch(q=float(q[i]), s=float(s[i]), r=tuple(r[:k, i].tolist()),
                    d=tuple(d[:k, i].tolist()), p=tuple(p[:n, i].tolist()),
                    objective=float(objective[i]))


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
    backlogs up to 1.25x their cap) and observation. Systems are redrawn
    every BLOCK slots, each with one generate_traces block of
    observations, and merit_order_columns solves a block's slots in one
    call, with dispatch_slot's headroom-clamped books; every slot's
    optimum must pass the balance and threshold audits of audit_slots.
    A slot whose surplus exceeds every sink raises UnservableSurplusError
    naming it, as dispatch_slot would.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    rng = np.random.default_rng((seed, 3))
    violations = 0
    ce = None
    for start in range(0, slots, BLOCK):
        config = random_system(rng, min(BLOCK, slots - start), k_max=k_max,
                               n_max=n_max)
        system = config.system
        g = system.grid
        v_max = compute_vmax(config.batteries, config.grid)
        v = float(rng.uniform(0.3, 1.0)) * v_max
        block = generate_traces(config, rng)
        e, z = _state_arrays(system, rng, v, len(block))
        surplus, alpha, c, w = _observation_arrays(block, system.n_residents)
        specs = _battery_specs(system)
        solution = merit_order_columns(
            *_books(e, z, alpha, specs, v, g.c_max), surplus, v * c, v * w,
            g.q_max, g.s_max)
        _, q, s, r, d, p, infeasible = solution
        if infeasible.any():
            t = int(infeasible.argmax())
            raise UnservableSurplusError(
                f"slot {start + t}: surplus {surplus[t]} kWh exceeds every "
                "sink; enable curtailment or resize the scenario")
        flows = (q, s, r.T, d.T, p.T)
        balance, _ = _balance_masks(*flows, np.zeros(len(block)), surplus,
                                    alpha, g.q_max, g.s_max, specs[2],
                                    specs[3])
        bad = balance | _threshold_mask(system, v, *flows, alpha, c, w, e, z)
        violations += int(bad.sum())
        if ce is None and bad.any():
            t = int(bad.argmax())
            state = SystemState(t=start + t, e=tuple(e[t].tolist()),
                                z=tuple(z[t].tolist()))
            dispatch = _column_dispatch(solution, t, system)
            problems = check_dispatch(dispatch, system, block[t])
            problems += threshold_violations(system, state, block[t], v,
                                             dispatch)
            ce = _counterexample(system, state, block[t], dispatch,
                                 f"slot {start + t}: " + "; ".join(problems))
    return SuiteResult("threshold-structure", slots, violations, ce)


def solver_oracle_trials(instances: int, seed: int) -> SuiteResult:
    """Cross-check dispatch_slot and merit_order_columns against the exact
    dual oracle.

    Instances are drawn one by one at up to the acceptance maximum of 5
    batteries and 20 residents, and dispatch_slot solves each. Every
    BLOCK instances are then padded to the block's largest system with
    zero-capacity entries
    and solved again by one merit_order_columns call, and oracle_columns
    evaluates their exact dual optima in one batch. The kernel's
    feasibility verdicts must agree with the oracle's and, when feasible,
    its objectives must equal the optima to within 1e-9 relative and its
    flows must pass audit_slots' balance audit; dispatch_slot's
    objectives must equal the optima to the same tolerance.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    rng = np.random.default_rng((seed, 4))
    violations = 0
    ce = None
    for start in range(0, instances, BLOCK):
        drawn = []
        for _ in range(min(BLOCK, instances - start)):
            config = random_system(rng, 1, k_max=5, n_max=20)
            system = config.system
            v_max = compute_vmax(system.batteries, system.grid)
            v = float(rng.uniform(0.3, 1.0)) * v_max
            state = random_states(system, rng, v, 1, z_scale=1.0)[0]
            obs = generate_traces(config, rng)[0]
            drawn.append((system, state, obs, v,
                          dispatch_slot(system, state, obs, v)))
        problems = _oracle_block(drawn)
        violations += sum(map(bool, problems))
        if ce is None:
            for (system, state, obs, _, chosen), found in zip(drawn,
                                                              problems):
                if found:
                    ce = _counterexample(system, state, obs, chosen,
                                         "; ".join(found))
                    break
    return SuiteResult("solver-oracle", instances, violations, ce)


def _oracle_block(drawn) -> list[list[str]]:
    """solver_oracle_trials' checks of one block of (system, state, obs, v,
    dispatch_slot's dispatch) instances; one list of problems each."""
    width = len(drawn)
    n_bat = max(system.n_batteries for system, *_ in drawn)
    n_res = max(system.n_residents for system, *_ in drawn)
    # Padding: batteries with zero band and caps, residents with no request.
    specs = np.zeros((4, width, n_bat))
    e = np.zeros((width, n_bat))
    z = np.zeros((width, n_res))
    alpha = np.zeros((width, n_res))
    scalars = np.empty((6, width))
    for i, (system, state, obs, v, _) in enumerate(drawn):
        k, n = system.n_batteries, system.n_residents
        specs[:, i, :k] = _battery_specs(system)
        e[i, :k] = state.e
        z[i, :n] = state.z
        alpha[i, :n] = obs.alpha
        g = system.grid
        scalars[:, i] = (v, g.c_max, g.q_max, g.s_max, v * obs.c, v * obs.w)
    v, c_max, q_max, s_max, vc, vw = scalars
    surplus = np.array([surplus_power(obs) for _, _, obs, _, _ in drawn])
    quality, caps, x, r_cap, d_cap = _books(e, z, alpha, specs, v[:, None],
                                            c_max[:, None])
    solution = merit_order_columns(quality, caps, x, r_cap, d_cap, surplus,
                                   vc, vw, q_max, s_max)
    objective, q, s, r, d, p, infeasible = solution
    optimum = oracle_columns(np.vstack([quality, -x, vw]),
                             np.vstack([caps, r_cap, s_max]),
                             np.vstack([-x, vc]), np.vstack([d_cap, q_max]),
                             surplus)
    balance, _ = _balance_masks(q, s, r.T, d.T, p.T, np.zeros(width),
                                surplus, alpha, q_max, s_max, specs[2],
                                specs[3])
    problems = []
    for i, (system, _, obs, _, chosen) in enumerate(drawn):
        found = []
        oracle = float(optimum[i])
        if infeasible[i] == math.isfinite(oracle):
            found.append(f"merit feasible={not infeasible[i]} but "
                         f"oracle optimum {oracle}")
        elif not infeasible[i]:
            if not _agrees(float(objective[i]), oracle):
                found.append(f"merit objective {objective[i]} but "
                             f"oracle optimum {oracle}")
            if balance[i]:
                found += check_dispatch(_column_dispatch(solution, i, system),
                                        system, obs)
        if not _agrees(chosen.objective, oracle):
            found.append(f"dispatch_slot objective {chosen.objective} "
                         f"but oracle optimum {oracle}")
        problems.append(found)
    return problems


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
