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

The bound and threshold suites draw their systems as random_system
RunConfigs and their observations through the simulator's own
generate_traces; the oracle suite draws a block of instances at once with
_oracle_instances, which applies the same field mapping and per-slot rules
to whole arrays: the same distributions, but another stream than
per-instance draws from the same seed would give. The bound suite runs
the scheduler: it advances each slot with dispatch_slot and the
simulator's step and audits each 500-slot stretch of a run with
audit_slots. The threshold and oracle suites solve independent slots, so
they solve a block of them with one merit_order_columns call and audit
the arrays with audit_slots' balance and threshold cores; the threshold
suite no longer calls dispatch_slot, and the oracle suite calls it once
per instance, so the scheduler's own path stays checked against the
oracle too. Every drawn system sizes the market trade caps to dominate
the microgrid (purchases can cover every quality request and recharge,
sales can absorb the largest surplus plus every discharge). The structural
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
)
from .queues import bound_constants
from .sim import (
    OUTAGE_WINDOW,
    RunConfig,
    _balance_masks,
    _observation_arrays,
    _row_total,
    _slot_draws,
    _threshold_mask,
    _uniform,
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
# Chance that a random system's slot draws a surplus burst.
BURST_PROB = 0.08


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


def _check_sizes(k_max: int, n_max: int) -> None:
    for name, size in (("k_max", k_max), ("n_max", n_max)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")


def _system_fields(bat, res, grid, k_on=True, n_on=True):
    """random_system's mapping of unit draws onto system fields.

    bat (..., K, 5) holds per battery the r_max, d_max, band_extra, e_min
    and e_init draws, res (..., N, 4) per resident the alpha_max, lo,
    hi - lo and delta draws, and grid (..., 6) the w_min draw, the three
    price gaps above it and the surplus and burst factors. k_on (..., K)
    and n_on (..., N) mark the drawn entries of padded rows: the others
    get zero fields, which add nothing to the trade caps. Returns
    BatterySpec rows (..., K, 5), (delta, alpha_max, lo, hi) rows
    (..., N, 4) and grid rows (..., 8): GridSpec's six fields, then the
    surplus and burst tops.
    """
    r_max, d_max, band_extra, e_min = np.moveaxis(_uniform(
        bat[..., :4], np.array([0.5, 0.5, 0.5, 0.0]),
        np.array([2.0, 2.0, 8.0, 1.5])), -1, 0)
    e_max = e_min + r_max + d_max + band_extra
    e_init = _uniform(bat[..., 4], e_min, e_max)
    batteries = np.where(np.expand_dims(k_on, -1), np.stack(
        [e_min, e_max, r_max, d_max, e_init], axis=-1), 0.0)
    alpha_max, lo, width, delta = np.moveaxis(_uniform(
        res, np.array([0.8, 0.05, 0.1, 0.02]),
        np.array([2.6, 0.4, 1.5, 0.15])), -1, 0)
    residents = np.where(np.expand_dims(n_on, -1), np.stack(
        [delta, alpha_max, lo, lo + width], axis=-1), 0.0)
    w_min, w_width, c_gap, c_width, surplus_f, burst_f = np.moveaxis(
        _uniform(grid, np.array([0.01, 0.004, 0.002, 0.01, 0.2, 1.5]),
                 np.array([0.035, 0.02, 0.02, 0.06, 1.0, 3.0])), -1, 0)
    # Price bands are drawn strictly separated (sell band below purchase
    # band) so every observation has w < c without per-slot fixups.
    w_max = w_min + w_width
    c_min = w_max + c_gap
    sum_alpha = _row_total(residents[..., 1])
    sum_r = _row_total(batteries[..., 2])
    sum_d = _row_total(batteries[..., 3])
    surplus_hi = surplus_f * (sum_alpha + sum_r)
    burst_hi = surplus_hi * burst_f
    grids = np.stack([sum_alpha + sum_r + CAP_MARGIN,
                      burst_hi + sum_d + CAP_MARGIN, c_min, c_min + c_width,
                      w_min, w_max, surplus_hi, burst_hi], axis=-1)
    return batteries, residents, grids


def _specs(batteries, residents, grid) -> tuple:
    """The BatterySpecs, ResidentSpecs and GridSpec of one system's
    _system_fields rows, given as lists."""
    return (tuple(BatterySpec(*row) for row in batteries),
            tuple(ResidentSpec(delta, alpha_max, (lo, hi))
                  for delta, alpha_max, lo, hi in residents),
            GridSpec(*grid[:6]))


def random_system(rng: np.random.Generator, horizon: int, k_max: int = 3,
                  n_max: int = 6) -> RunConfig:
    """Draw a random well-posed system with dominating trade caps.

    Returns a RunConfig of the given horizon whose surplus process fits the
    sizing: uniform on [0, surplus_hi], replaced with probability
    burst_prob by a burst on [surplus_hi, burst_hi].
    """
    _check_sizes(k_max, n_max)
    k = int(rng.integers(1, k_max + 1))
    n = int(rng.integers(1, n_max + 1))
    # One block of unit draws: per battery, per resident, then the grid.
    u = rng.random(5 * k + 4 * n + 6)
    batteries, residents, grid = (fields.tolist() for fields in _system_fields(
        u[:5 * k].reshape(k, 5), u[5 * k:-6].reshape(n, 4), u[-6:]))
    surplus_hi, burst_hi = grid[6:]
    return RunConfig(*_specs(batteries, residents, grid), horizon=horizon,
                     surplus_range=(0.0, surplus_hi),
                     burst_range=(surplus_hi, burst_hi),
                     burst_prob=BURST_PROB)


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
    return _draw_states(rng, count, e_min, e_max, z_cap, zero_prob)


def _draw_states(rng: np.random.Generator, count: int, e_min, e_max, z_cap,
                 zero_prob: float):
    """count rows of levels uniform on [e_min, e_max) and backlogs uniform
    on [0, z_cap), zero with probability zero_prob; the bounds broadcast
    against (count, K) and (count, N)."""
    e = _uniform(rng.random((count, np.shape(e_min)[-1])), e_min, e_max)
    zero = rng.random((count, np.shape(z_cap)[-1])) < zero_prob
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

    Instances are drawn BLOCK at a time by _oracle_instances, at up to the
    acceptance maximum of 5 batteries and 20 residents (so a seed draws
    other instances than random_system, random_states and generate_traces
    would one by one, from the same distributions), and dispatch_slot
    solves each. Each block is then solved again, padded to 5 x 20 with
    zero-capacity entries, by one merit_order_columns call, and
    oracle_columns evaluates its exact dual optima in one batch. The
    kernel's feasibility verdicts must agree with the oracle's and, when
    feasible, its objectives must equal the optima to within 1e-9 relative
    and its flows must pass audit_slots' balance audit; dispatch_slot's
    objectives must equal the optima to the same tolerance.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    rng = np.random.default_rng((seed, 4))
    violations = 0
    ce = None
    for start in range(0, instances, BLOCK):
        drawn, arrays = _oracle_instances(rng, min(BLOCK, instances - start))
        chosen = [dispatch_slot(system, state, obs, v)
                  for system, state, obs, v in drawn]
        problems = _oracle_block(drawn, chosen, arrays)
        violations += sum(map(bool, problems))
        if ce is None:
            for (system, state, obs, _), dispatch, found in zip(
                    drawn, chosen, problems):
                if found:
                    ce = _counterexample(system, state, obs, dispatch,
                                         "; ".join(found))
                    break
    return SuiteResult("solver-oracle", instances, violations, ce)


def _oracle_instances(rng: np.random.Generator, count: int, k_max: int = 5,
                      n_max: int = 20):
    """Draw count solver-oracle instances with a few array-sized draws.

    Each instance is a random_system system of up to k_max batteries and
    n_max residents, v uniform on [0.3, 1) times its v_max, a
    random_states state (backlogs up to 1x their cap) and a one-slot
    generate_traces observation: the same distributions and rules, drawn
    for the whole block at once. Returns the (system, state, obs, v)
    instances and the padded arrays (specs (4, count, k_max) as
    _battery_specs' rows, e (count, k_max), z and alpha (count, n_max),
    then surplus, v, c, w, c_max, q_max and s_max, each (count,)), whose
    padding entries have zero capacity. surplus is surplus_power(obs).
    """
    _check_sizes(k_max, n_max)
    k = rng.integers(1, k_max + 1, size=count)
    n = rng.integers(1, n_max + 1, size=count)
    k_on = np.arange(k_max) < k[:, None]
    n_on = np.arange(n_max) < n[:, None]
    u = rng.random((count, 5 * k_max + 4 * n_max + 6))
    batteries, residents, grids = _system_fields(
        u[:, :5 * k_max].reshape(count, k_max, 5),
        u[:, 5 * k_max:-6].reshape(count, n_max, 4), u[:, -6:], k_on, n_on)
    e_min, e_max, r_max, d_max, _ = np.moveaxis(batteries, -1, 0)
    _, alpha_max, basic_lo, basic_hi = np.moveaxis(residents, -1, 0)
    q_max, s_max, c_min, c_max, w_min, w_max, surplus_hi, burst_hi = grids.T
    # compute_vmax's arithmetic, padding batteries left out.
    slack = np.where(k_on, e_max - e_min - r_max - d_max, np.inf)
    v = _uniform(rng.random(count), 0.3, 1.0) * (slack.min(axis=1)
                                                  / (c_max - w_min))
    # bound_constants' z_max, z_scale 1.0.
    z_cap = np.where(n_on, v[:, None] * c_max[:, None] + alpha_max, 0.0)
    e, z = _draw_states(rng, count, e_min, e_max, z_cap, 0.3)
    units = rng.random((count, 2 * n_max + 5))
    basic = _uniform(units[:, :n_max], basic_lo, basic_hi)
    alpha = alpha_max * units[:, n_max:2 * n_max]
    extra, c, w = _slot_draws(units[:, 2 * n_max:].T, (0.0, surplus_hi),
                              (surplus_hi, burst_hi), BURST_PROB, c_min,
                              c_max, w_min, w_max)
    basic_total = _row_total(basic)
    u_total = basic_total + extra
    bat, res, grid, e_rows, z_rows, basic_rows, alpha_rows = (
        a.tolist() for a in (batteries, residents, grids, e, z, basic, alpha))
    drawn = []
    for i, (k_i, n_i, v_i, u_i, c_i, w_i) in enumerate(zip(
            k.tolist(), n.tolist(), v.tolist(), u_total.tolist(), c.tolist(),
            w.tolist())):
        system = SystemSpec(*_specs(bat[i][:k_i], res[i][:n_i], grid[i]))
        state = SystemState(t=0, e=tuple(e_rows[i][:k_i]),
                            z=tuple(z_rows[i][:n_i]))
        obs = SlotObservation(u=u_i, basic=tuple(basic_rows[i][:n_i]),
                              alpha=tuple(alpha_rows[i][:n_i]), c=c_i, w=w_i)
        drawn.append((system, state, obs, v_i))
    specs = np.stack([e_min, e_max, r_max, d_max])
    return drawn, (specs, e, z, alpha, u_total - basic_total, v, c, w, c_max,
                   q_max, s_max)


def _oracle_block(drawn, chosen, arrays) -> list[list[str]]:
    """solver_oracle_trials' checks of one block: _oracle_instances'
    (system, state, obs, v) instances and padded arrays, and dispatch_slot's
    dispatch of each; one list of problems each."""
    specs, e, z, alpha, surplus, v, c, w, c_max, q_max, s_max = arrays
    vc, vw = v * c, v * w
    quality, caps, x, r_cap, d_cap = _books(e, z, alpha, specs, v[:, None],
                                            c_max[:, None])
    solution = merit_order_columns(quality, caps, x, r_cap, d_cap, surplus,
                                   vc, vw, q_max, s_max)
    objective, q, s, r, d, p, infeasible = solution
    optimum = oracle_columns(np.vstack([quality, -x, vw]),
                             np.vstack([caps, r_cap, s_max]),
                             np.vstack([-x, vc]), np.vstack([d_cap, q_max]),
                             surplus)
    balance, _ = _balance_masks(q, s, r.T, d.T, p.T, np.zeros(len(drawn)),
                                surplus, alpha, q_max, s_max, specs[2],
                                specs[3])
    problems = []
    for i, ((system, _, obs, _), dispatch) in enumerate(zip(drawn, chosen)):
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
        if not _agrees(dispatch.objective, oracle):
            found.append(f"dispatch_slot objective {dispatch.objective} "
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
