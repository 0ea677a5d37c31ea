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

The bound suite draws its systems as random_system RunConfigs and its
traces with the simulator's own synthesizer, as the Trace generate_traces
returns, and runs the scheduler through run()'s own slot loop,
sim._simulate: a slot_solver prepared once per run and step's tuple
recurrence advance each slot, the flow rows are kept as one flows array,
and audit_slots' body checks the whole run at once. Its counterexamples
are first_violation's lines for the earliest flagged slot, and the only
SystemStates, SlotObservations and Dispatches it builds. The threshold
and oracle suites check
independent slot problems, each with a system of its own. _draw_block
draws a block of them at once with the same field mapping and per-slot
rules applied to whole arrays (the same distributions, but another
stream than one-by-one draws from the same seed would give), and
_solve_block builds the block's four book arrays once, in the batch
layout both batch kernels take, solves them with one merit_order_columns
call and builds the flows' balance faults. The threshold suite draws up
to THRESHOLD_BLOCK (1024) slots per block, adds their threshold faults,
and words its first counterexample from the same lists, building slot
objects only to show it; the oracle suite draws BLOCK (64) instances per
block, builds every instance and calls dispatch_slot once per instance,
so the scheduler's own path stays checked against the oracle too. Every
drawn system sizes the market trade caps to dominate the microgrid
(purchases can cover every quality request and recharge, sales can
absorb the largest surplus plus every discharge). The structural
guarantees are proved under that regime; an undersized grid connection
can force optima with a genuinely different shape.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .dispatch import (
    _balance_faults,
    _fault_rows,
    _fault_words,
    _row_dispatch,
    _row_total,
    _threshold_faults,
    dispatch_slot,
    merit_order_columns,
    oracle_columns,
    slot_solver,
)
from .model import (
    BatterySpec,
    GridSpec,
    ResidentSpec,
    SlotObservation,
    SystemSpec,
    SystemState,
    UnservableSurplusError,
    compute_vmax,
)
from .queues import bound_constants
from .sim import (
    OUTAGE_WINDOW,
    RunConfig,
    _simulate,
    _slot_draws,
    _uniform,
    first_violation,
    generate_traces,
)

# Head-room added past the worst case when sizing q_max and s_max.
CAP_MARGIN = 2.0
# Slot problems per block draw of the oracle suite, and at most per block
# draw of the threshold suite.
BLOCK = 64
THRESHOLD_BLOCK = 1024
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


def _draw_states(rng: np.random.Generator, count: int, e_min, e_max, z_cap,
                 zero_prob: float):
    """count rows of levels uniform on [e_min, e_max) and backlogs uniform
    on [0, z_cap), zero with probability zero_prob; the bounds broadcast
    against (count, K) and (count, N)."""
    e = _uniform(rng.random((count, np.shape(e_min)[-1])), e_min, e_max)
    zero = rng.random((count, np.shape(z_cap)[-1])) < zero_prob
    z = np.where(zero, 0.0, z_cap * rng.random(zero.shape))
    return e, z


# _draw_block's count independent slot problems, padded to k_max batteries
# and n_max residents with zero-field entries: the drawn sizes k and n
# (count,); _system_fields' batteries (count, k_max, 5), residents
# (count, n_max, 4) and grids (count, 8) rows; v (count,); the levels e
# (count, k_max); backlogs z, basic and alpha requests (count, n_max); and
# u, c, w and surplus (surplus_power's value) (count,).
_Block = namedtuple("_Block", "k n batteries residents grids v e z basic "
                              "alpha u c w surplus")


def _draw_block(rng: np.random.Generator, count: int, k_max: int,
                n_max: int, z_scale: float) -> _Block:
    """Draw count independent slot problems with a few array-sized draws.

    Each slot gets its own random_system system of up to k_max batteries
    and n_max residents, v uniform on [0.3, 1) times its v_max, a
    _draw_states state (levels anywhere in band, backlogs up to z_scale
    times their cap, zero with probability 0.3) and a one-slot
    generate_traces observation: the same distributions and rules, drawn
    for the whole block at once, so a seed draws other slots than those
    generators would one by one.
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
    _, _, c_min, c_max, w_min, w_max, surplus_hi, burst_hi = grids.T
    # compute_vmax's arithmetic, padding batteries left out.
    slack = np.where(k_on, e_max - e_min - r_max - d_max, np.inf)
    v = _uniform(rng.random(count), 0.3, 1.0) * (slack.min(axis=1)
                                                  / (c_max - w_min))
    # z_scale times bound_constants' z_max.
    z_cap = np.where(n_on, z_scale * (v[:, None] * c_max[:, None]
                                      + alpha_max), 0.0)
    e, z = _draw_states(rng, count, e_min, e_max, z_cap, 0.3)
    units = rng.random((count, 2 * n_max + 5))
    basic = _uniform(units[:, :n_max], basic_lo, basic_hi)
    alpha = alpha_max * units[:, n_max:2 * n_max]
    extra, c, w = _slot_draws(units[:, 2 * n_max:].T, (0.0, surplus_hi),
                              (surplus_hi, burst_hi), BURST_PROB, c_min,
                              c_max, w_min, w_max)
    basic_total = _row_total(basic)
    u_total = basic_total + extra
    return _Block(k, n, batteries, residents, grids, v, e, z, basic, alpha,
                  u_total, c, w, u_total - basic_total)


def _block_instances(block: _Block, columns, t: int = 0) -> list[tuple]:
    """The (system, state, obs, v) instances of block's columns (any numpy
    row index), each state at slot t, built from every field but the last,
    surplus."""
    return [(SystemSpec(*_specs(bat[:k], res[:n], grid)),
             SystemState(t, tuple(e[:k]), tuple(z[:n])),
             SlotObservation(u, tuple(basic[:n]), tuple(alpha[:n]), c, w), v)
            for k, n, bat, res, grid, v, e, z, basic, alpha, u, c, w
            in zip(*(a[columns].tolist() for a in block[:-1]))]


def _solve_block(block: _Block):
    """Solve a block's slots with one merit_order_columns call and build
    the balance faults of its flows, audit_slots' balance audit.

    The books are dispatch_slot's, in the batch layout: bid values z +
    alpha and -x (battery_queue's arithmetic) and v*w with caps alpha,
    the headroom-clamped recharge caps and s_max; offer costs -x and v*c
    with the headroom-clamped discharge caps and q_max. Returns those
    four books, the kernel's solution, its padded flow rows and their
    balance faults.
    """
    e, v = block.e, block.v
    e_min, e_max, r_max, d_max, _ = np.moveaxis(block.batteries, -1, 0)
    q_max, s_max, _, c_max = block.grids.T[:4]
    neg_x = -(e - d_max - e_min - v[:, None] * c_max[:, None]).T
    r_cap = np.maximum(np.minimum(r_max, e_max - e), 0.0)
    d_cap = np.maximum(np.minimum(d_max, e - e_min), 0.0)
    books = (np.vstack([(block.z + block.alpha).T, neg_x, v * block.w]),
             np.vstack([block.alpha.T, r_cap.T, s_max]),
             np.vstack([neg_x, v * block.c]), np.vstack([d_cap.T, q_max]))
    solution = merit_order_columns(*books, block.surplus)
    objective, q, s, r, d, p, _ = solution
    flows = np.column_stack([q, s, r.T, d.T, p.T, objective, np.zeros(len(v))])
    balance, _ = _balance_faults(
        flows, block.surplus, block.alpha,
        (block.batteries, block.residents, block.grids))
    return books, solution, flows, balance


def _counterexample(system: SystemSpec, state: SystemState,
                    obs: SlotObservation, dispatch, detail: str) -> str:
    return (f"detail: {detail}\nsystem: {system!r}\n"
            f"state: {state!r}\nobs: {obs!r}\ndispatch: {dispatch!r}")


def _agrees(objective: float, optimum: float) -> bool:
    """objective equals optimum to within 1e-9 relative; an infinite
    argument agrees only with an equal one."""
    if math.isinf(objective) or math.isinf(optimum):
        return objective == optimum
    return abs(objective - optimum) <= 1e-9 * max(1.0, abs(optimum))


def run_bound_trials(runs: int, slots: int, seed: int,
                     v_factor: float = 1.0, k_max: int = 3,
                     n_max: int = 6) -> list[SuiteResult]:
    """Simulate random systems and audit the deterministic state bounds.

    Returns three SuiteResults: battery levels inside their band, backlog
    queues under their cap, and sliding outage windows within budget. Each
    run draws its trace as generate_traces' Trace and steps the
    scheduler, one slot_solver per run, through run()'s slot loop,
    sim._simulate, and is audited once; a run of T slots with N
    residents checks T levels and backlogs and max(T - OUTAGE_WINDOW + 1,
    0) * N windows, and each counterexample is worded by first_violation.
    The per-slot flow caps are deliberately not headroom-clamped here, so
    a misparametrized control weight (v_factor > 1) produces real,
    countable band violations instead of being silently repaired.
    """
    if runs < 1 or slots < 1:
        raise ValueError("runs and slots must both be >= 1")
    rng = np.random.default_rng((seed, 2))
    keys = ("battery_band", "queue_bound", "outage_window")
    violations = dict.fromkeys(keys, 0)
    counterexamples = dict.fromkeys(keys)
    windows = 0
    for _ in range(runs):
        config = random_system(rng, slots, k_max=k_max, n_max=n_max)
        system = config.system
        v = v_factor * compute_vmax(config.batteries, config.grid)
        z_max = bound_constants(system, v).z_max
        trace = generate_traces(config, rng)
        trajectory = _simulate(
            config, trace, slot_solver(system, v, headroom_clamp=False), v,
            z_max)
        levels, backlogs, flows, audit = trajectory
        windows += max(slots - OUTAGE_WINDOW + 1, 0) * system.n_residents
        for key in keys:
            violations[key] += int(audit[key].sum())
            if counterexamples[key] is None and audit[key].any():
                t, _, msg = first_violation(trajectory, (key,), system, v,
                                            trace, z_max)
                counterexamples[key] = _counterexample(
                    system, SystemState(t, levels[t], backlogs[t]),
                    trace[t],
                    _row_dispatch(flows[t].tolist(), system.n_batteries),
                    msg)
    names = ("battery-band", "queue-bound", "outage-window")
    trials = (runs * slots, runs * slots, windows)
    return [SuiteResult(name, count, violations[key], counterexamples[key])
            for name, count, key in zip(names, trials, keys)]


def threshold_trials(slots: int, seed: int, k_max: int = 3,
                     n_max: int = 6) -> SuiteResult:
    """Audit feasibility and threshold structure of optimal dispatches.

    Every slot is an independent problem with its own system, state
    (levels anywhere in band, backlogs up to 1.25x their cap) and
    observation, drawn up to THRESHOLD_BLOCK slots at a time by
    _draw_block. _solve_block solves a block with one merit_order_columns
    call, with dispatch_slot's headroom-clamped books; every slot's
    optimum must pass the balance and threshold audits of audit_slots. A
    slot whose surplus exceeds every sink raises UnservableSurplusError
    naming it, as dispatch_slot would.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    rng = np.random.default_rng((seed, 3))
    violations = 0
    ce = None
    for start in range(0, slots, THRESHOLD_BLOCK):
        block = _draw_block(rng, min(THRESHOLD_BLOCK, slots - start), k_max,
                            n_max, 1.25)
        _, solution, flows, balance = _solve_block(block)
        infeasible = solution[-1]
        if infeasible.any():
            t = int(infeasible.argmax())
            raise UnservableSurplusError(
                f"slot {start + t}: surplus {block.surplus[t]} kWh exceeds "
                "every sink; enable curtailment or resize the scenario")
        faults = balance + _threshold_faults(
            block.v[:, None], flows, block.alpha, block.c, block.w, block.e,
            block.z, (block.batteries, block.residents, block.grids))
        bad = _fault_rows(faults)
        violations += int(bad.sum())
        if ce is None and bad.any():
            t = int(bad.argmax())
            [(system, state, obs, _)] = _block_instances(block, [t],
                                                         start + t)
            padded = _row_dispatch(flows[t].tolist(), k_max)
            k, n = system.n_batteries, system.n_residents
            ce = _counterexample(
                system, state, obs, replace(padded, r=padded.r[:k],
                                            d=padded.d[:k], p=padded.p[:n]),
                f"slot {start + t}: " + "; ".join(_fault_words(faults, t)))
    return SuiteResult("threshold-structure", slots, violations, ce)


def solver_oracle_trials(instances: int, seed: int) -> SuiteResult:
    """Cross-check dispatch_slot and merit_order_columns against the exact
    dual oracle.

    Instances are drawn BLOCK at a time by _draw_block, the threshold
    suite's draw, at up to the acceptance maximum of 5 batteries and 20
    residents with backlogs up to 1x their cap, and dispatch_slot solves
    each. _solve_block solves each block again, padded to 5 x 20 with
    zero-capacity entries, by one merit_order_columns call, and
    oracle_columns evaluates the exact dual optima of the same book
    arrays in one batch, so the dual checks the kernel on its own input.
    The kernel's feasibility verdicts must agree with the oracle's and,
    when feasible, its objectives must equal the optima to within 1e-9
    relative and its flows must pass audit_slots' balance audit;
    dispatch_slot's objectives must equal the optima to the same
    tolerance.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    rng = np.random.default_rng((seed, 4))
    violations = 0
    ce = None
    for start in range(0, instances, BLOCK):
        block = _draw_block(rng, min(BLOCK, instances - start), 5, 20, 1.0)
        books, solution, _, faults = _solve_block(block)
        balance = _fault_rows(faults)
        objective, *_, infeasible = solution
        optimum = oracle_columns(*books, block.surplus)
        for i, (system, state, obs, v) in enumerate(
                _block_instances(block, slice(None))):
            dispatch = dispatch_slot(system, state, obs, v)
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
                    found += _fault_words(faults, i)
            if not _agrees(dispatch.objective, oracle):
                found.append(f"dispatch_slot objective {dispatch.objective} "
                             f"but oracle optimum {oracle}")
            if found:
                violations += 1
                if ce is None:
                    ce = _counterexample(system, state, obs, dispatch,
                                         "; ".join(found))
    return SuiteResult("solver-oracle", instances, violations, ce)


def run_all_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Run every suite at a size scaled to the requested trial count."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results = run_bound_trials(runs=max(2, trials // 10),
                               slots=max(OUTAGE_WINDOW, 4 * trials),
                               seed=seed)
    results.append(threshold_trials(slots=30 * trials, seed=seed))
    results.append(solver_oracle_trials(instances=trials, seed=seed))
    return results
