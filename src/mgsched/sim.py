"""Trace-driven simulation: synthetic traces, the run loop, a hindsight bound.

The simulator replays exogenous traces (renewable generation, prices,
demand) through a per-slot policy, audits every guarantee the scheduler
is supposed to keep, and reports end-of-run metrics. Its slot loop,
_simulate, which validate's bound suites share, carries the battery
levels and backlogs as tuples and only calls the policy and _advance,
the one slot recurrence, which step wraps for SystemState objects. The
scheduler's policy is a dispatch.slot_solver prepared once per run, so
the loop builds no state object; run adapts mecp and custom policies,
which take a SystemState, with one wrapper. audit_slots then checks all
slots at once in numpy from the level and backlog rows and flags each
slot and entity that broke a guarantee, and run reads its counters and
the first violation off those masks. Synthetic traces are generated from
the run configuration; recorded traces load from three CSV files. A
projected-subgradient hindsight bound provides the reference point for
cost-gap checks: it lower-bounds the per-slot cost of any policy on the
given trace whose horizon-average quality service reaches
(1 - delta)*alpha, under relaxed storage dynamics, so the scheduler's
average cost can be judged without knowing the true offline optimum.
Each of its iterations solves the relaxed slot problems of all slots at
once in numpy, with the merit order in closed form.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NoReturn

import numpy as np
import yaml

from .dispatch import mecp_dispatch, slot_solver, threshold_violations
from .model import (
    BALANCE_TOL,
    BatterySpec,
    Dispatch,
    GridSpec,
    ResidentSpec,
    SlotObservation,
    SystemSpec,
    SystemState,
    TraceError,
    UnservableSurplusError,
    check_dispatch,
    compute_vmax,
    shape_problems,
    surplus_power,
    validate_observation,
    width_error,
)
from .queues import bound_constants, check_qose_stability, update_qose_queue

POLICIES = ("proposed", "mecp")

# Sliding-window length (slots) for the unserved-demand window audit.
OUTAGE_WINDOW = 500

VIOLATION_KEYS = ("battery_band", "queue_bound", "outage_window",
                  "balance", "exclusivity", "threshold")


def _check_fields(spec, probs: tuple[str, ...],
                  ranges: tuple[str, ...]) -> None:
    """Check spec's named probabilities and (lo, hi) ranges; None passes."""
    for name in probs:
        prob = getattr(spec, name)
        if prob is not None and not 0.0 <= prob <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {prob}")
    for name in ranges:
        pair = getattr(spec, name)
        if pair is not None and not 0.0 <= pair[0] <= pair[1]:
            raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got {pair}")


@dataclass(frozen=True, slots=True)
class Regime:
    """Trace-generator overrides active from start_slot onward.

    Unset fields inherit the configuration defaults. basic_range and
    alpha_hi apply uniformly to every resident; alpha draws are always
    clamped to each resident's alpha_max so observations stay valid.
    All energies in kWh per slot.
    """

    start_slot: int
    basic_range: tuple[float, float] | None = None
    alpha_hi: float | None = None
    surplus_range: tuple[float, float] | None = None
    burst_prob: float | None = None
    burst_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.start_slot < 0:
            raise ValueError(f"start_slot must be >= 0, got {self.start_slot}")
        if self.alpha_hi is not None and not self.alpha_hi > 0.0:
            raise ValueError(f"alpha_hi must be positive, got {self.alpha_hi}")
        _check_fields(self, ("burst_prob",),
                      ("basic_range", "surplus_range", "burst_range"))


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed fits the generators' 64-bit seeds."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run depends on.

    v_fraction scales the largest safe control parameter; the effective
    parameter is v = v_fraction * compute_vmax(...). surplus_range and the
    burst fields shape the synthetic renewable surplus added on top of the
    guaranteed basic draw (kWh per slot). block_prob and charge_prob only
    matter for the benchmark policy.
    """

    batteries: tuple[BatterySpec, ...]
    residents: tuple[ResidentSpec, ...]
    grid: GridSpec
    horizon: int
    slot_hours: float = 0.25
    seed: int = 0
    v_fraction: float = 1.0
    policy: str = "proposed"
    curtailment: bool = False
    block_prob: float = 0.07
    charge_prob: float = 0.5
    surplus_range: tuple[float, float] = (0.0, 2.5)
    burst_prob: float = 0.05
    burst_range: tuple[float, float] = (5.0, 15.0)
    regimes: tuple[Regime, ...] = ()
    convergence_tol: float = 0.03
    # Per-resident quality-draw cap outside any regime override; None means
    # draw up to each resident's alpha_max. Lets a config lift alpha_max to
    # cover a high-demand regime without widening the baseline draws.
    alpha_base: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.slot_hours <= 0.0:
            raise ValueError(f"slot_hours must be positive, got {self.slot_hours}")
        if not 0.0 < self.v_fraction <= 1.0:
            raise ValueError(
                f"v_fraction must lie in (0, 1], got {self.v_fraction}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        check_seed(self.seed)
        _check_fields(self, ("block_prob", "charge_prob", "burst_prob"),
                      ("surplus_range", "burst_range"))
        if self.convergence_tol < 0.0:
            raise ValueError(
                f"convergence_tol must be >= 0, got {self.convergence_tol}")
        starts = [r.start_slot for r in self.regimes]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("regime start_slots must be strictly increasing")
        if self.alpha_base is not None:
            if len(self.alpha_base) != len(self.residents):
                raise ValueError(
                    f"alpha_base needs {len(self.residents)} entries, "
                    f"got {len(self.alpha_base)}")
            for cap, res in zip(self.alpha_base, self.residents):
                if not 0.0 < cap <= res.alpha_max:
                    raise ValueError(
                        f"alpha_base entry {cap} outside (0, {res.alpha_max}]")

    @property
    def system(self) -> SystemSpec:
        return SystemSpec(batteries=self.batteries, residents=self.residents,
                          grid=self.grid)


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """One simulated slot: the decision and the state it produced.

    e and z are the levels after the slot's dispatch and queue update;
    outage is the unserved quality demand alpha - p of this slot.
    """

    t: int
    dispatch: Dispatch
    cost_increment: float
    cumulative_cost: float
    e: tuple[float, ...]
    z: tuple[float, ...]
    outage: tuple[float, ...]


@dataclass(frozen=True)
class Summary:
    """End-of-run metrics and audit counters.

    convergence_slot[n] is the first slot from which resident n's running
    unserved fraction stays within delta_n + convergence_tol; -1 means it
    never settled. The violations dict counts, per audited slot and entity:
    battery levels out of band, backlog queues above their cap, sliding
    outage windows above their budget, balance or box residuals, broken
    buy/sell or charge/discharge exclusivity, and threshold-structure
    breaks. Theory says all six stay zero for the scheduler at a valid v;
    the queue, window, and threshold audits only apply to it, so they are
    skipped (left zero) for other policies. first_violation is the
    earliest counted break as (slot, violation key, message), or None;
    format_summary leaves it out.
    """

    policy: str
    slots: int
    v: float
    v_max: float
    total_cost: float
    mean_cost_per_slot: float
    alpha_total: tuple[float, ...]
    outage_total: tuple[float, ...]
    outage_ratio: tuple[float, ...]
    convergence_slot: tuple[int, ...]
    stability_pass: tuple[bool, ...]
    violations: dict[str, int]
    curtailed_total: float
    first_violation: tuple[int, str, str] | None = None


def _uniform(u, lo, hi):
    """Map unit draws u onto [lo, hi) exactly as Generator.uniform does,
    without its per-call cost for array bounds."""
    return lo + (hi - lo) * u


def _slot_draws(units, surplus_range, burst_range, burst_prob, c_min, c_max,
               w_min, w_max):
    """generate_traces' per-slot surplus and prices from unit draws.

    units is (5, T): the surplus, burst, burst-coin, purchase-price and
    sell-price draws of T slots. The surplus is uniform on surplus_range,
    replaced with probability burst_prob by a draw on burst_range; the
    purchase price is uniform on [c_min, c_max) and the sell price on
    [w_min, min(w_max, c)). Every bound broadcasts against T, so each slot
    may carry its own system's. Returns (surplus, c, w), each (T,).
    """
    surplus_u, burst_u, coin, c_u, w_u = units
    surplus = np.where(coin < burst_prob, _uniform(burst_u, *burst_range),
                       _uniform(surplus_u, *surplus_range))
    c = _uniform(c_u, c_min, c_max)
    # Keep the sell price strictly below the purchase price. A quote at
    # exactly w_min == c can only occur in degenerate configurations;
    # nudge the purchase price up inside its band in that case.
    c = np.where(c <= w_min, w_min + 1e-6 * (c_max - w_min), c)
    w = _uniform(w_u, w_min, np.minimum(w_max, c))
    w = np.where(w >= c, 0.5 * (w_min + c), w)
    return surplus, c, w


def generate_traces(config: RunConfig,
                    rng: np.random.Generator | None = None) -> list[SlotObservation]:
    """Draw a synthetic trace of config.horizon observations.

    Per slot and resident, basic usage is uniform on its range and the
    quality request uniform on [0, cap]. Generation is the total basic
    usage plus a non-negative surplus: uniform on surplus_range, replaced
    by a burst draw with probability burst_prob. Prices are i.i.d. within
    their bounds with the sell price kept strictly below the purchase
    price by construction. Deterministic for a given rng (or config.seed).
    """
    if rng is None:
        rng = np.random.default_rng((config.seed, 0))
    horizon = config.horizon
    residents = config.residents
    n_res = len(residents)
    g = config.grid

    def pick(regime: Regime | None, name: str):
        value = getattr(regime, name, None)
        return getattr(config, name) if value is None else value

    cuts = sorted({0, horizon, *(r.start_slot for r in config.regimes
                                 if r.start_slot < horizon)})
    traces: list[SlotObservation] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        steps = hi - lo
        # The latest regime started by lo overrides the fields it sets.
        regime = next((r for r in reversed(config.regimes)
                       if r.start_slot <= lo), None)
        basic = [res.basic_range for res in residents]
        if regime is not None and regime.basic_range is not None:
            basic = [regime.basic_range] * n_res
        basic_lo, basic_hi = np.array(basic).T
        if regime is not None and regime.alpha_hi is not None:
            alpha_cap = np.array([min(regime.alpha_hi, res.alpha_max)
                                  for res in residents])
        elif config.alpha_base is not None:
            alpha_cap = np.array(config.alpha_base)
        else:
            alpha_cap = np.array([res.alpha_max for res in residents])

        # One block of unit draws: basic usage, then quality requests, then
        # _slot_draws' five per-slot draws.
        units = rng.random(steps * (2 * n_res + 5))
        basics = _uniform(units[:steps * n_res].reshape(steps, n_res),
                          basic_lo, basic_hi)
        alphas = alpha_cap * units[steps * n_res:2 * steps * n_res].reshape(
            steps, n_res)
        surplus, c, w = _slot_draws(
            units[2 * steps * n_res:].reshape(5, steps),
            pick(regime, "surplus_range"), pick(regime, "burst_range"),
            pick(regime, "burst_prob"), g.c_min, g.c_max, g.w_min, g.w_max)

        generation = _row_total(basics) + surplus
        for u, row, alpha, c_t, w_t in zip(
                generation.tolist(), basics.tolist(), alphas.tolist(),
                c.tolist(), w.tolist()):
            traces.append(SlotObservation(u, tuple(row), tuple(alpha), c_t,
                                          w_t))
    return traces


def _read_csv(path: str, expected_header: list[str]):
    """Read a CSV and check its header and field counts.

    Returns (rows, lines): the rows that are not blank and their line
    numbers; blank lines are skipped but still counted.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise TraceError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}:1: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise TraceError(
                f"{path}:1: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}")
        rows = list(reader)
    lines = range(2, len(rows) + 2)
    if not all(rows):
        lines = [line for line, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    width = len(expected_header)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise TraceError(f"{path}:{lines[i]}: expected {width} fields, "
                         f"got {len(rows[i])}")
    return rows, lines


def _parse_float(path: str, line_no: int, field: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise TraceError(
            f"{path}:{line_no}: field {field} is not a number: {raw!r}") from None
    if math.isnan(val) or math.isinf(val):
        raise TraceError(f"{path}:{line_no}: field {field} is not finite: {raw!r}")
    return val


def _parse_int(path: str, line_no: int, field: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TraceError(
            f"{path}:{line_no}: field {field} is not an integer: {raw!r}") from None


def _parse_slot(path: str, line_no: int, raw: str) -> int:
    slot = _parse_int(path, line_no, "slot", raw)
    if slot < 0:
        raise TraceError(f"{path}:{line_no}: slot {slot} is negative")
    return slot


def _parsed(column: tuple[str, ...], kind, bad) -> list:
    """kind(raw) (int or float) of each string in column, bad where kind
    raises ValueError."""
    try:
        return list(map(kind, column))
    except ValueError:
        pass
    values = []
    for raw in column:
        try:
            values.append(kind(raw))
        except ValueError:
            values.append(bad)
    return values


def _reject_row(path: str, line_no: int, row: list[str], header: list[str],
                n_res: int, duplicate: bool) -> NoReturn:
    """Raise the TraceError for a row that _trace_table flags, found by
    checking its slot, its resident (when n_res), whether it repeats an
    earlier row, and its value fields left to right."""
    slot = _parse_slot(path, line_no, row[0])
    where = f"slot {slot}"
    if n_res:
        res = _parse_int(path, line_no, "resident", row[1])
        if not 0 <= res < n_res:
            raise TraceError(
                f"{path}:{line_no}: resident {res} outside 0..{n_res - 1}")
        where += f" resident {res}"
    if duplicate:
        raise TraceError(f"{path}:{line_no}: duplicate {where}")
    keys = 2 if n_res else 1
    for field, raw in zip(header[keys:], row[keys:]):
        _parse_float(path, line_no, field, raw)
    raise AssertionError(f"{path}:{line_no}: row flagged without a fault")


def _trace_table(path: str, header: list[str], horizon: int, n_res: int = 0):
    """One trace file's value columns, placed by slot (and resident).

    header names the slot column, then the resident column when n_res is
    nonzero, then the value columns. Returns one float array per value
    column, shaped (horizon,), or (horizon, n_res) when n_res, with NaN
    where no row fills a cell. Rows at or past the horizon are ignored
    once their slot (and resident) are checked. Each fault is a mask over
    the rows; _reject_row words the first flagged row's.
    """
    rows, lines = _read_csv(path, header)
    columns = list(zip(*rows)) or [()] * len(header)
    slot = np.array([(t if t < horizon else horizon) if t >= 0 else -1
                     for t in _parsed(columns[0], int, -1)], dtype=np.int64)
    bad = slot < 0
    cell, size, keys = slot, horizon, 1
    if n_res:
        res = np.array([n if 0 <= n < n_res else -1
                        for n in _parsed(columns[1], int, -1)],
                       dtype=np.int64)
        bad |= res < 0
        cell, size, keys = slot * n_res + res, horizon * n_res, 2
    kept = np.flatnonzero(~bad & (slot < horizon))
    # A kept row repeats a cell when an earlier kept row filled it.
    duplicate = np.zeros(len(rows), dtype=bool)
    duplicate[kept] = True
    duplicate[kept[np.unique(cell[kept], return_index=True)[1]]] = False
    parsed = [np.array(_parsed(column, float, math.nan))
              for column in columns[keys:]]
    fault = bad | duplicate
    for column in parsed:
        fault[kept] |= ~np.isfinite(column[kept])
    if fault.any():
        i = int(fault.argmax())
        _reject_row(path, lines[i], rows[i], header, n_res, bool(duplicate[i]))
    values = []
    for column in parsed:
        placed = np.full(size, math.nan)
        placed[cell[kept]] = column[kept]
        values.append(placed.reshape(horizon, n_res) if n_res else placed)
    return values


def _bound_mask(u, basic, alpha, c, w, system: SystemSpec) -> np.ndarray:
    """Flag each slot for which validate_observation reports a problem.

    u, c and w are (T,), basic and alpha (T, N) with N the system's
    residents; the basic total is added left to right, as sum() does.
    """
    g = system.grid
    alpha_max = np.array([res.alpha_max for res in system.residents])
    return ((u < 0.0) | (basic < 0.0).any(1) | (alpha < 0.0).any(1)
            | (alpha > alpha_max).any(1) | (_row_total(basic) > u)
            | ~((g.c_min <= c) & (c <= g.c_max))
            | ~((g.w_min <= w) & (w <= g.w_max)) | (w >= c))


def load_traces(wind_path: str, price_path: str, demand_path: str,
                config: RunConfig) -> list[SlotObservation]:
    """Load and validate recorded traces from three CSV files.

    Formats: wind rows are slot,generation_kwh; price rows are
    slot,purchase_price,sell_price; demand rows are
    slot,resident,basic_kwh,quality_kwh with resident indices 0..N-1.
    Slots must cover 0..horizon-1 densely; rows at or past the horizon are
    ignored, so a longer recording replays over a shorter horizon, and a
    negative slot is an error. Fields are parsed by Python's int() and
    float(). Every bound of the system model is checked, and of several
    faults the one a row-at-a-time reader meets first is reported, with
    file and line where it has one. The files are read wind, prices,
    demand. Within a file all field counts are checked first; then the
    earliest faulty line wins, and within a line its slot, its resident,
    a repeat of an earlier row's slot (and resident), then its values.
    Once all three files parse, the earliest faulty slot wins, and
    within a slot a missing wind row, a missing price row, the first
    missing resident, then validate_observation's first problem.
    """
    horizon = config.horizon
    (gen,) = _trace_table(wind_path, ["slot", "generation_kwh"], horizon)
    c, w = _trace_table(price_path, ["slot", "purchase_price", "sell_price"],
                        horizon)
    basic, alpha = _trace_table(
        demand_path, ["slot", "resident", "basic_kwh", "quality_kwh"],
        horizon, len(config.residents))

    # Parsed values are finite, so NaN marks a cell no row filled.
    missing_gen, missing_prices = np.isnan(gen), np.isnan(c)
    missing_demand = np.isnan(basic)
    system = config.system
    flagged = (missing_gen | missing_prices | missing_demand.any(1)
               | _bound_mask(gen, basic, alpha, c, w, system))
    traces = [SlotObservation(u, tuple(b), tuple(a), c_t, w_t)
              for u, b, a, c_t, w_t in zip(gen.tolist(), basic.tolist(),
                                           alpha.tolist(), c.tolist(),
                                           w.tolist())]
    if flagged.any():
        t = int(flagged.argmax())
        if missing_gen[t]:
            raise TraceError(f"{wind_path}: missing slot {t} (horizon {horizon})")
        if missing_prices[t]:
            raise TraceError(f"{price_path}: missing slot {t} (horizon {horizon})")
        if missing_demand[t].any():
            raise TraceError(
                f"{demand_path}: missing slot {t} resident "
                f"{int(missing_demand[t].argmax())} (horizon {horizon})")
        raise TraceError(
            f"slot {t}: {validate_observation(traces[t], system)[0]}")
    return traces


def write_traces(traces: list[SlotObservation], prefix: str) -> tuple[str, str, str]:
    """Write a trace as the three CSV files load_traces expects.

    Slot and resident indices are written with str and every other field
    with repr, one format string per row.
    """
    paths = (f"{prefix}.wind.csv", f"{prefix}.prices.csv",
             f"{prefix}.demand.csv")
    tables = (
        ["slot,generation_kwh\n"]
        + ["%s,%r\n" % (t, obs.u) for t, obs in enumerate(traces)],
        ["slot,purchase_price,sell_price\n"]
        + ["%s,%r,%r\n" % (t, obs.c, obs.w) for t, obs in enumerate(traces)],
        ["slot,resident,basic_kwh,quality_kwh\n"]
        + ["%s,%s,%r,%r\n" % (t, n, b, a) for t, obs in enumerate(traces)
           for n, (b, a) in enumerate(zip(obs.basic, obs.alpha))])
    for path, lines in zip(paths, tables):
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
    return paths


_delta = attrgetter("delta")


def _advance(e: tuple[float, ...], z: tuple[float, ...],
             alpha: tuple[float, ...], dispatch: Dispatch,
             deltas) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """step's recurrence on tuples: the levels e - d + r and the backlogs
    update_qose_queue(z, alpha, p, delta), one per resident's delta."""
    return (tuple([level - d + r for level, d, r
                   in zip(e, dispatch.d, dispatch.r)]),
            tuple(map(update_qose_queue, z, alpha, dispatch.p, deltas)))


def step(system: SystemSpec, state: SystemState, obs: SlotObservation,
         dispatch: Dispatch) -> SystemState:
    """Advance one slot: e' = e - d + r and z' = max(z - delta*alpha, 0) + alpha - p.

    Only advances the state, so a run can go on past any escape;
    audit_slots checks the levels it produces against their bands and
    caps. update_qose_queue's ValueErrors (negative backlog, demand or
    service, or service above demand) propagate.
    """
    e, z = _advance(state.e, state.z, obs.alpha, dispatch,
                    map(_delta, system.residents))
    return SystemState(state.t + 1, e, z)


def outage_windows(outage: np.ndarray, residents: tuple[ResidentSpec, ...],
                   z_max: tuple[float, ...] | list[float]):
    """Sliding OUTAGE_WINDOW sums of unserved quality energy, with budgets.

    outage holds one row per slot and one column per resident. Returns
    (sums, budgets): sums[i, n] totals slots i..i+OUTAGE_WINDOW-1 (no rows
    when the run is shorter than one window), and budgets[n] = z_max[n] +
    OUTAGE_WINDOW * delta_n * alpha_max_n, the most a bounded backlog lets
    one window leave unserved.
    """
    cums = np.vstack([np.zeros(len(residents)), np.cumsum(outage, axis=0)])
    sums = cums[OUTAGE_WINDOW:] - cums[:-OUTAGE_WINDOW]
    budgets = np.array([zm + OUTAGE_WINDOW * res.delta * res.alpha_max
                        for zm, res in zip(z_max, residents)])
    return sums, budgets


def outage_window_flags(outage: np.ndarray,
                        residents: tuple[ResidentSpec, ...],
                        z_max: tuple[float, ...] | list[float]) -> np.ndarray:
    """Flag each window of OUTAGE_WINDOW slots that passes its budget.

    Returns a mask shaped like outage whose row t, column n is set when
    slots t - OUTAGE_WINDOW + 1..t leave resident n more unserved quality
    energy than budgets[n] of outage_windows; a window is flagged at its
    last slot, when it is complete.
    """
    sums, budgets = outage_windows(outage, residents, z_max)
    flags = np.zeros(outage.shape, dtype=bool)
    flags[OUTAGE_WINDOW - 1:] = sums > budgets
    return flags


def _stack(rows: list[tuple[float, ...]], width: int) -> np.ndarray:
    # (len(rows), width) floats; np.fromiter over the flattened rows is
    # about twice as fast as np.array on a list of tuples.
    return np.fromiter(chain.from_iterable(rows), float).reshape(
        len(rows), width)


def _row_total(a: np.ndarray) -> np.ndarray:
    # Adds each row (last axis) left to right, as check_dispatch's sum()
    # over a tuple does up to Python 3.11; a.sum(axis=-1) adds pairwise
    # from 8 columns on.
    return np.cumsum(a, axis=-1)[..., -1]


def _check_widths(observations: list[SlotObservation], n_res: int) -> None:
    """Raise width_error's ValueError for the first slot whose basic or
    alpha request does not have n_res entries."""
    for t, obs in enumerate(observations):
        if len(obs.basic) != n_res or len(obs.alpha) != n_res:
            name = "basic" if len(obs.basic) != n_res else "alpha"
            raise width_error(t, name, len(getattr(obs, name)), n_res)


def _observation_arrays(observations: list[SlotObservation], n_res: int):
    """(surplus, alpha, c, w) of T observations with n_res residents.

    surplus (T,) is u less the basic usage added left to right, equal to
    surplus_power's value, and surplus_power's ValueError for the first
    slot whose basic usage exceeds generation propagates. alpha is
    (T, n_res), the prices (T,).
    """
    horizon = len(observations)
    u = np.fromiter([o.u for o in observations], float, horizon)
    surplus = u - _row_total(_stack([o.basic for o in observations], n_res))
    short = surplus < 0.0
    if short.any():
        surplus_power(observations[int(short.argmax())])
    return (surplus, _stack([o.alpha for o in observations], n_res),
            np.fromiter([o.c for o in observations], float, horizon),
            np.fromiter([o.w for o in observations], float, horizon))


def _balance_masks(q, s, r, d, p, curtailed, surplus, alpha, q_max, s_max,
                   r_max, d_max):
    """audit_slots' balance and exclusivity masks of T slots' flows.

    q, s, curtailed and surplus are (T,), r and d (T, K), p and alpha
    (T, N); the caps broadcast against their flows, so each slot may
    carry its own. An entry whose cap and flow are 0 changes no flag.
    """
    tol = BALANCE_TOL

    def outside(x, hi):
        return ~((-tol <= x) & (x <= hi + tol))

    exclusivity = (q * s != 0.0) | (r * d != 0.0).any(1)
    residual = (surplus - curtailed + q + _row_total(d) - s - _row_total(r)
                - _row_total(p))
    balance = (outside(q, q_max) | outside(s, s_max) | exclusivity
               | (outside(r, r_max) | outside(d, d_max)).any(1)
               | outside(p, alpha).any(1) | (curtailed < -tol)
               | (np.abs(residual) > tol * np.maximum(surplus, 1.0)))
    return balance, exclusivity


def _threshold_mask(v, c_max, w_min, e_min, d_max, delta, alpha_max, q, s, r,
                    d, p, alpha, c, w, e, z) -> np.ndarray:
    """audit_slots' threshold mask of T slots' flows.

    The flows and alpha are shaped as for _balance_masks, c and w (T,),
    and e (T, K) and z (T, N) hold the levels and backlogs each slot
    starts from. v, c_max and w_min broadcast against (T, 1), e_min and
    d_max against e, and delta and alpha_max against z, so each slot may
    carry its own system. A padding entry, whose flows, request and
    backlog are 0, changes no flag.
    """
    x = e - d_max - e_min - v * c_max
    floor = (1.0 - delta) * alpha

    def broken(recharge_above, discharge_below, serve_above, block_below):
        return ((((x > recharge_above) & (r > 1e-12))
                 | ((x < discharge_below) & (d > 1e-12))).any(1)
                | (((z > serve_above) & (p < floor - 1e-9))
                   | ((z < block_below) & (p > 1e-12))).any(1))

    threshold = broken(-v * w_min, -v * c_max, v * c_max,
                       v * w_min - alpha_max)
    for traded, price in ((q > 0.0, c), (s > 0.0, w)):
        at_price = -v * price[:, None]
        thresholds = v * price[:, None] - alpha
        threshold |= traded & broken(at_price, at_price, thresholds,
                                     thresholds)
    return threshold


def audit_slots(system: SystemSpec, v: float,
                levels: list[tuple[float, ...]],
                backlogs: list[tuple[float, ...]],
                observations: list[SlotObservation],
                dispatches: list[Dispatch],
                z_max: tuple[float, ...] | list[float]
                ) -> dict[str, np.ndarray]:
    """Audit T slots at once, in one numpy pass over the stacked slots.

    dispatches[t] is the decision taken on observations[t] from the
    battery levels levels[t] and backlogs backlogs[t], and levels[t + 1]
    and backlogs[t + 1] are what slot t produced (T + 1 rows each).
    Returns boolean masks under their VIOLATION_KEYS names, each flag
    equal to what its per-slot producer says:

    - balance (T,): check_dispatch reports a box, curtailment,
      exclusivity or balance-residual problem;
    - exclusivity (T,): q*s or some r_k*d_k is nonzero;
    - threshold (T,): threshold_violations reports a break at v;
    - battery_band (T, K): a new level outside its band by more than
      BALANCE_TOL;
    - queue_bound (T, N): a new backlog above z_max[n] by more than
      BALANCE_TOL.

    The result also carries cost (T,), q*c - s*w, the quality requests
    alpha (T, N), and outage (T, N), alpha - p, from which
    outage_window_flags derives the window audit. Raises ValueError
    naming the first slot whose basic or alpha request does not have one
    entry per resident, and surplus_power's ValueError for the first slot
    whose basic usage exceeds generation.
    """
    g = system.grid
    tol = BALANCE_TOL
    horizon = len(dispatches)
    specs = system.batteries
    n_bat, n_res = len(specs), len(system.residents)
    _check_widths(observations, n_res)
    e_min = np.array([b.e_min for b in specs])
    e_max = np.array([b.e_max for b in specs])
    d_max = np.array([b.d_max for b in specs])

    q = np.array([x.q for x in dispatches], dtype=float)
    s = np.array([x.s for x in dispatches], dtype=float)
    r = _stack([x.r for x in dispatches], n_bat)
    d = _stack([x.d for x in dispatches], n_bat)
    p = _stack([x.p for x in dispatches], n_res)
    curtailed = np.array([x.curtailed for x in dispatches], dtype=float)
    surplus, alpha, c, w = _observation_arrays(observations, n_res)
    e = _stack(levels, n_bat)
    z = _stack(backlogs, n_res)

    balance, exclusivity = _balance_masks(
        q, s, r, d, p, curtailed, surplus, alpha, g.q_max, g.s_max,
        np.array([b.r_max for b in specs]), d_max)
    threshold = _threshold_mask(
        v, g.c_max, g.w_min, e_min, d_max,
        np.array([res.delta for res in system.residents]),
        np.array([res.alpha_max for res in system.residents]), q, s, r, d, p,
        alpha, c, w, e[:horizon], z[:horizon])
    return {"balance": balance, "exclusivity": exclusivity,
            "threshold": threshold, "cost": q * c - s * w, "alpha": alpha,
            "outage": alpha - p,
            "battery_band": (e[1:] < e_min - tol) | (e[1:] > e_max + tol),
            "queue_bound": z[1:] > np.array(z_max) + tol}


def first_violation(audit: dict[str, np.ndarray], keys: tuple[str, ...],
                    system: SystemSpec, v: float,
                    levels: list[tuple[float, ...]],
                    backlogs: list[tuple[float, ...]],
                    observations: list[SlotObservation],
                    dispatches: list[Dispatch],
                    z_max: tuple[float, ...] | list[float]):
    """Earliest slot that one of audit's masks under keys flags.

    audit is audit_slots' result, with outage_window_flags' mask added as
    outage_window when keys name it; the other arguments are those
    audit_slots was given. Returns (slot, key, message), or
    None when nothing is flagged; within one slot the key listed first
    wins. The message is what check_dispatch or threshold_violations
    report for that slot, or a line naming the first battery, backlog or
    window (the one ending at that slot) past its band, cap or budget.
    """
    first = None
    for key in keys:
        flagged = audit[key].reshape(len(dispatches), -1).any(1)
        if flagged.any():
            t = int(flagged.argmax())
            if first is None or t < first[0]:
                first = (t, key)
    if first is None:
        return None
    t, key = first
    obs, dispatch = observations[t], dispatches[t]
    if key in ("balance", "exclusivity"):
        return t, key, "; ".join(check_dispatch(dispatch, system, obs))
    if key == "threshold":
        state = SystemState(t, levels[t], backlogs[t])
        return t, key, "; ".join(
            threshold_violations(system, state, obs, v, dispatch))
    i = int(audit[key][t].argmax())
    if key == "battery_band":
        spec = system.batteries[i]
        msg = (f"battery {i}: level {levels[t + 1][i]} outside "
               f"[{spec.e_min}, {spec.e_max}]")
    elif key == "queue_bound":
        msg = (f"resident {i}: backlog {backlogs[t + 1][i]} above cap "
               f"{z_max[i]}")
    else:
        sums, budgets = outage_windows(audit["outage"], system.residents,
                                       z_max)
        start = t - OUTAGE_WINDOW + 1
        msg = (f"resident {i}: slots {start}..{t} leave {sums[start, i]} "
               f"unserved, above budget {budgets[i]}")
    return t, key, msg


def _simulate(config: RunConfig, observations: list[SlotObservation],
              policy, v: float, z_max: tuple[float, ...]):
    """Step config's system through observations, then audit every slot.

    The run starts from the batteries' e_init levels and zero backlogs,
    carried as tuples, and policy is a callable (e, z, obs, t) -> Dispatch
    of slot t's levels, backlogs and observation, such as a slot_solver.
    The slot loop only calls the policy and _advance, step's recurrence;
    one audit_slots pass at v and z_max follows it, and
    outage_window_flags' mask is added as outage_window. Returns (levels,
    backlogs, dispatches, audit), with the T + 1 level and backlog rows
    audit_slots takes. Raises _check_widths' ValueError before the first
    slot; policy and update_qose_queue errors propagate.
    """
    residents = config.residents
    _check_widths(observations, len(residents))
    deltas = tuple(map(_delta, residents))
    e = tuple(b.e_init for b in config.batteries)
    z = (0.0,) * len(residents)
    levels, backlogs = [e], [z]
    dispatches: list[Dispatch] = []
    for t, obs in enumerate(observations):
        dispatch = policy(e, z, obs, t)
        e, z = _advance(e, z, obs.alpha, dispatch, deltas)
        dispatches.append(dispatch)
        levels.append(e)
        backlogs.append(z)
    audit = audit_slots(config.system, v, levels, backlogs, observations,
                        dispatches, z_max)
    audit["outage_window"] = outage_window_flags(audit["outage"], residents,
                                                 z_max)
    return levels, backlogs, dispatches, audit


def run(config: RunConfig, traces: list[SlotObservation],
        policy=None, keep_records: bool = True):
    """Simulate the configured horizon, then audit every slot.

    policy may be None (use config.policy), a policy name, or a callable
    (state, obs) -> Dispatch. Returns (records, summary); records is empty
    when keep_records is false. _simulate steps and audits the run, and
    the counters, costs, outages and first violation are read off its
    audit. The scheduler runs as one slot_solver; mecp and a custom policy
    get each slot's SystemState from one adapter. Policy and step errors
    propagate; audit failures are counted in the summary, never raised, so
    a broken setup still yields a diagnosable run.
    """
    if len(traces) < config.horizon:
        raise ValueError(
            f"trace has {len(traces)} slots, horizon needs {config.horizon}")
    system = config.system
    batteries = config.batteries
    residents = config.residents
    horizon = config.horizon
    v_max = compute_vmax(batteries, config.grid)
    v = config.v_fraction * v_max
    consts = bound_constants(system, v)

    if policy is None:
        policy = config.policy
    curtail = config.curtailment
    if isinstance(policy, str):
        policy_name = policy
        if policy == "proposed":
            policy_fn = slot_solver(system, v, curtail=curtail)
        elif policy == "mecp":
            mecp_rng = np.random.default_rng((config.seed, 1))
            block_prob, charge_prob = config.block_prob, config.charge_prob

            def state_policy(state: SystemState,
                             obs: SlotObservation) -> Dispatch:
                return mecp_dispatch(system, state, obs, mecp_rng, block_prob,
                                     charge_prob, v, curtail=curtail)
        else:
            raise ValueError(f"unknown policy {policy!r}")
    else:
        policy_name = "custom"

        def state_policy(state: SystemState, obs: SlotObservation) -> Dispatch:
            dispatch = policy(state, obs)
            if problems := shape_problems(dispatch, system):
                raise ValueError(f"slot {state.t}: custom policy dispatch "
                                 + "; ".join(problems))
            return dispatch
    # The queue, window and threshold audits apply to the scheduler only.
    if policy_name == "proposed":
        keys = VIOLATION_KEYS
    else:
        keys = ("battery_band", "balance", "exclusivity")

        def policy_fn(e, z, obs: SlotObservation, t: int) -> Dispatch:
            return state_policy(SystemState(t, e, z), obs)

    observations = traces[:horizon]
    levels, backlogs, dispatches, audit = _simulate(
        config, observations, policy_fn, v, consts.z_max)
    outage_hist = audit["outage"]
    counters = {key: int(audit[key].sum()) if key in keys else 0
                for key in VIOLATION_KEYS}
    cost = audit["cost"]
    # np.cumsum adds in sequence, as a running total from 0.0 does; adding
    # 0.0 turns a leading -0.0 into the 0.0 such a total would hold.
    cumulative = np.cumsum(cost) + 0.0
    total_cost = float(cumulative[-1])
    curtailed_total = float(
        np.cumsum([x.curtailed for x in dispatches])[-1] + 0.0)
    records: list[SlotRecord] = []
    if keep_records:
        records = [
            SlotRecord(t, dispatch, ci, cum, e, z, tuple(row))
            for t, (dispatch, ci, cum, e, z, row) in enumerate(zip(
                dispatches, cost.tolist(), cumulative.tolist(), levels[1:],
                backlogs[1:], outage_hist.tolist()))]

    alpha_cum = np.cumsum(audit["alpha"], axis=0)
    outage_cum = np.cumsum(outage_hist, axis=0)
    safe_alpha = np.where(alpha_cum > 0.0, alpha_cum, 1.0)
    ratios = np.where(alpha_cum > 0.0, outage_cum / safe_alpha, 0.0)
    convergence = []
    for n, res in enumerate(residents):
        bad = np.nonzero(ratios[:, n] > res.delta + config.convergence_tol)[0]
        if len(bad) == 0:
            convergence.append(0)
        elif bad[-1] == horizon - 1:
            convergence.append(-1)
        else:
            convergence.append(int(bad[-1]) + 1)

    alpha_total = tuple(alpha_cum[-1].tolist())
    outage_total = tuple(outage_cum[-1].tolist())
    outage_ratio = tuple(
        (o / a) if a > 0.0 else 0.0
        for o, a in zip(outage_total, alpha_total))
    stability = check_qose_stability(outage_total, alpha_total,
                                     [res.delta for res in residents],
                                     consts.z_max)
    summary = Summary(
        policy=policy_name,
        slots=horizon,
        v=v,
        v_max=v_max,
        total_cost=total_cost,
        mean_cost_per_slot=total_cost / horizon,
        alpha_total=alpha_total,
        outage_total=outage_total,
        outage_ratio=outage_ratio,
        convergence_slot=tuple(convergence),
        stability_pass=tuple(stability),
        violations=counters,
        curtailed_total=curtailed_total,
        first_violation=first_violation(
            audit, keys, system, v, levels, backlogs, observations,
            dispatches, consts.z_max))
    return records, summary


def _relaxed_slots(mu: list[float], nu: list[float], caps: np.ndarray,
                   d_max: np.ndarray, grid: GridSpec, surplus: np.ndarray,
                   c: np.ndarray, w: np.ndarray):
    """Merit-order optimum of every relaxed slot problem at once.

    Each slot's problem is the one dispatch.merit_order_allocate solves on
    the books the multipliers price: quality bids at nu_n (capacity
    alpha_tn), recharge bids and discharge offers at -mu_k (capacities
    r_max, d_max), the surplus poured first, and the two trade entries,
    the purchase offer at c_t and the sale bid at w_t. The multipliers are
    the same in every slot, so the fixed entries are sorted once by the
    kernel's book keys; a trade entry (rank 2) goes after every fixed
    entry with an equal key. The greedy sweep then has a closed form: a
    bid is filled up to the supply priced strictly below its value
    (surplus included), less the demand queued ahead of it, and an offer
    symmetrically, so the strict comparisons reproduce the kernel's strict
    matching and tie-breaks. As w_t < c_t, no slot both buys and sells.

    The books are entry-major: caps (from _demand_caps) holds one row per
    bid, alpha's N rows and then the K batteries' r_max rows, and one
    column per slot, so every cumsum, sum and broadcast runs along the
    contiguous slot axis; d_max holds the K discharge caps, and surplus, c
    and w one value per slot. Returns (objective, q, s, r, d, p):
    objective, q and s shaped (T,), r and d (K, T), p (N, T). Feasibility
    does not depend on the multipliers; _unservable checks it.

    Two reductions must add in the order a slot-major (T, entries) array
    does, or the bound's floats depend on the layout: each slot's two
    objective dot products run over C-contiguous (T, entries) copies, and
    the bound's sums over slots go through _slot_sums. The masked sums
    behind q and s add the bids one after another, which a slot-major row
    sum also does below 8 bids; from 8 bids on it adds them pairwise, so
    there the objective can differ from that layout's by an ulp.
    """
    n_res = len(nu)
    # Bids (demand) and offers (supply) in the kernel's key order; demand
    # rows number caps' rows.
    demand = sorted([(-nu[n], 0, n) for n in range(n_res)]
                    + [(mu[k], 1, n_res + k) for k in range(len(mu))])
    supply = sorted((-m, 1, k) for k, m in enumerate(mu))
    value = np.array([-key for key, _, _ in demand])
    rows = [row for _, _, row in demand]
    cost = np.array([key for key, _, _ in supply])
    order = [k for _, _, k in supply]
    b_cap = caps[rows]
    o_cap = d_max[order]
    o_col = o_cap[:, None]
    q_cap, s_cap = grid.q_max, grid.s_max
    v_col = value[:, None]
    k_col = cost[:, None]
    below = (k_col < value).astype(float)

    # Each entry's flow is the overlap, clipped to its box, of the
    # capacity queued ahead of it in its own book (the trade entry counted
    # where it sorts first) with the capacity on the other side priced
    # strictly better (the surplus counted first on the supply side).
    b_ahead = (b_cap.cumsum(0) - b_cap) + s_cap * (w > v_col)
    b_reach = surplus + (o_cap @ below)[:, None] + q_cap * (c < v_col)
    take = np.minimum(np.maximum(b_reach - b_ahead, 0.0), b_cap)
    o_ahead = (o_cap.cumsum() - o_cap)[:, None] + q_cap * (c < k_col)
    o_reach = below @ b_cap + s_cap * (w > k_col)
    give = np.minimum(np.maximum(o_reach - surplus - o_ahead, 0.0), o_col)
    q = np.minimum(np.maximum((b_cap * (v_col > c)).sum(0) - surplus
                              - (o_col * (k_col <= c)).sum(0), 0.0), q_cap)
    s = np.minimum(np.maximum(surplus + (o_col * (k_col < w)).sum(0)
                              - (b_cap * (v_col >= w)).sum(0), 0.0), s_cap)

    # BLAS adds a product with a transposed matrix in another order.
    objective = (np.ascontiguousarray(give.T) @ cost + q * c
                 - np.ascontiguousarray(take.T) @ value - s * w)
    back = np.argsort(rows)
    return (objective, q, s, take[back[n_res:]], give[np.argsort(order)],
            take[back[:n_res]])


def _slot_sums(a: np.ndarray) -> np.ndarray:
    # Sums (entries, T) over slots as a C-contiguous (T, entries) array's
    # sum(0) does: row after row, or pairwise for one entry. numpy sums a
    # strided view, such as a.sum(1), in another order.
    return np.ascontiguousarray(a.T).sum(0)


def _demand_caps(alpha: np.ndarray,
                 batteries: tuple[BatterySpec, ...]) -> np.ndarray:
    """_relaxed_slots' caps: alpha (T, N) transposed, then r_max rows."""
    horizon, n_res = alpha.shape
    caps = np.empty((n_res + len(batteries), horizon))
    caps[:n_res] = alpha.T
    caps[n_res:] = [[spec.r_max] for spec in batteries]
    return caps


def _unservable(surplus: np.ndarray, caps: np.ndarray,
                grid: GridSpec) -> np.ndarray:
    """Mask of the slots whose surplus exceeds every sink of the relaxed
    problem: the bids' caps (caps as in _relaxed_slots) and the sale cap."""
    return surplus > caps.sum(0) + grid.s_max


def hindsight_lower_bound(traces: list[SlotObservation], config: RunConfig,
                          iterations: int) -> float:
    """Lower-bound the per-slot cost of any feasible policy on this trace.

    The trace is the first min(config.horizon, len(traces)) slots of
    traces. Feasible here means the battery flow caps, the trade caps, and
    service of at least (1 - delta_n) of resident n's quality demand
    summed over that trace. The online scheduler meets that service level
    only in the long run, so over a few hundred slots its cost can sit
    below the bound.

    Works on a relaxation whose storage dynamics are replaced by one
    horizon-wide energy balance per battery, sum(r - d) = e_T - e_init,
    with the terminal level e_T free in [e_min, e_max]; its optimum can
    only sit below the true one, since a finite-horizon policy may end
    with its batteries drained. For fixed multipliers (one per battery for
    that balance, one per resident for the service guarantee) the inner
    minimization splits per slot into the same structure the scheduler
    solves, with multipliers standing in for queue-derived prices. Because
    the multipliers hold for a whole iteration, _relaxed_slots solves all
    slots of an iteration at once with the merit order in closed form; the
    terminal level contributes sum_k mu_k*(e_init,k - e_min,k), its minimum
    over the band for mu_k <= 0, and the mu step includes that term's
    gradient. Every multiplier evaluation is a valid bound by weak
    duality; projected subgradient ascent just tightens it, and the best
    value seen is returned. Battery multipliers are kept in [-c_max,
    -w_min], outside which the inner solutions saturate.

    The trace is stacked into entry-major arrays (one row per resident or
    battery, one column per slot) once per call, and the feasibility check
    runs once, before the first iteration. The service allowance and the
    gradient sum over slots in _slot_sums' order, that of a slot-major
    array, so the multipliers do not depend on the layout. Raises
    ValueError naming the first slot whose basic or quality request does
    not have one entry per resident, surplus_power's ValueError for the
    first slot whose basic usage exceeds generation, and
    UnservableSurplusError naming the first slot whose surplus exceeds
    every sink, unless the config enables curtailment.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    horizon = min(config.horizon, len(traces))
    if horizon < 1:
        raise ValueError("empty trace")
    g = config.grid
    batteries = config.batteries
    residents = config.residents
    n_res = len(residents)
    traces = traces[:horizon]
    _check_widths(traces, n_res)
    surplus, alpha, c, w = _observation_arrays(traces, n_res)
    caps = _demand_caps(alpha, batteries)
    if not config.curtailment:
        unservable = _unservable(surplus, caps, g)
        if unservable.any():
            t = int(unservable.argmax())
            raise UnservableSurplusError(
                f"slot {t}: surplus {surplus[t]} kWh exceeds every sink "
                "in the relaxed problem")
    d_max = np.array([spec.d_max for spec in batteries])
    delta = np.array([res.delta for res in residents])
    allowance = _slot_sums((1.0 - delta)[:, None] * caps[:n_res])
    headroom = np.array([spec.e_init - spec.e_min for spec in batteries])

    mu = np.zeros(len(batteries))
    nu = np.zeros(n_res)
    best = -math.inf
    for it in range(1, iterations + 1):
        objective, _, _, r, d, p = _relaxed_slots(
            mu.tolist(), nu.tolist(), caps, d_max, g, surplus, c, w)
        total = objective.sum() + nu @ allowance + mu @ headroom
        lb = float(total) / horizon
        if lb > best:
            best = lb
        if it == iterations:
            break
        step = (g.c_max - g.w_min) / math.sqrt(it)
        grad_mu = headroom + _slot_sums(r - d)
        grad_nu = allowance - _slot_sums(p)
        mu = np.clip(mu + step * grad_mu / horizon, -g.c_max, -g.w_min)
        nu = np.maximum(nu + step * grad_nu / horizon, 0.0)
    return best


def write_slot_records(records: list[SlotRecord], path: str,
                       n_batteries: int, n_residents: int) -> None:
    """Write per-slot records as CSV, one row per slot.

    The slot index is written with str and every other field with repr.
    A record whose e, z or outage width differs from the header's raises
    TypeError naming the first such slot, before anything is written.
    """
    widths = (("e", n_batteries), ("z", n_residents), ("outage", n_residents))
    if any(set(map(len, map(attrgetter(name), records))) - {width}
           for name, width in widths):
        for rec in records:
            for name, width in widths:
                if len(getattr(rec, name)) != width:
                    raise TypeError(
                        f"slot {rec.t}: record {name} has "
                        f"{len(getattr(rec, name))} entries, expected {width}")
    cols = ["t", "cost_increment", "cumulative_cost", "q", "s", "sum_r", "sum_d"]
    cols += [f"e_{k + 1}" for k in range(n_batteries)]
    cols += [f"z_{n + 1}" for n in range(n_residents)]
    cols += [f"outage_{n + 1}" for n in range(n_residents)]
    row = "%s" + ",%r" * (len(cols) - 1) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines([
            row % (rec.t, rec.cost_increment, rec.cumulative_cost,
                   rec.dispatch.q, rec.dispatch.s, sum(rec.dispatch.r),
                   sum(rec.dispatch.d), *rec.e, *rec.z, *rec.outage)
            for rec in records])


def format_summary(summary: Summary) -> str:
    """Render a Summary as a stable key: value document."""

    def join(values) -> str:
        return ",".join(repr(v) if isinstance(v, float) else str(v).lower()
                        if isinstance(v, bool) else str(v)
                        for v in values)

    lines = [
        f"policy: {summary.policy}",
        f"slots: {summary.slots}",
        f"v: {summary.v!r}",
        f"v_max: {summary.v_max!r}",
        f"total_cost: {summary.total_cost!r}",
        f"mean_cost_per_slot: {summary.mean_cost_per_slot!r}",
        f"curtailed_total: {summary.curtailed_total!r}",
    ]
    for key in VIOLATION_KEYS:
        lines.append(f"violations_{key}: {summary.violations[key]}")
    lines += [
        f"alpha_total: {join(summary.alpha_total)}",
        f"outage_total: {join(summary.outage_total)}",
        f"outage_ratio: {join(summary.outage_ratio)}",
        f"convergence_slot: {join(summary.convergence_slot)}",
        f"stability_pass: {join(summary.stability_pass)}",
    ]
    return "\n".join(lines) + "\n"


def write_summary(summary: Summary, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_summary(summary))


# load_config's tables, one per section, map a YAML key to (field, kind,
# default). Kinds: "number", "whole" (an integer), "flag" (a YAML boolean),
# "kW" or "kW pair" (a number or [lo, hi] pair times slot_hours), "pair" (a
# [lo, hi] pair filling the two fields named) and "raw" (taken as is). An
# absent key takes its default: None keeps the dataclass's, REQUIRED refuses.
REQUIRED = object()
TOP_KEYS = {"slot_hours": ("slot_hours", "number", None),
            "horizon": ("horizon", "whole", 480),
            "seed": ("seed", "whole", None),
            "v_fraction": ("v_fraction", "number", None),
            "policy": ("policy", "raw", None),
            "curtailment": ("curtailment", "flag", None),
            "convergence_tol": ("convergence_tol", "number", None),
            **{name: (name, "raw", None) for name in (
                "batteries", "residents", "grid", "traces", "mecp")}}
# Both list sections take a count, repeating the entry that holds it.
COUNT_KEYS = {"count": ("count", "whole", None)}
BATTERY_KEYS = {f"{name}_kwh": (name, "number", REQUIRED)
                for name in ("e_min", "e_max", "r_max", "d_max", "e_init")}
# quality_max_kw is alpha_base, and alpha_max once lifted to regime caps.
RESIDENT_KEYS = {"delta": ("delta", "number", 0.07),
                 "basic_range_kw": ("basic_range", "kW pair", REQUIRED),
                 "quality_max_kw": ("alpha_max", "kW", REQUIRED)}
GRID_KEYS = {"q_max_kwh": ("q_max", "number", REQUIRED),
             "s_max_kwh": ("s_max", "number", REQUIRED),
             "purchase_price": (("c_min", "c_max"), "pair", REQUIRED),
             "sell_price": (("w_min", "w_max"), "pair", REQUIRED)}
# The surplus process, for the run and from each regime's start_slot on.
SURPLUS_KEYS = {"surplus_kw": ("surplus_range", "kW pair", None),
                "burst_prob": ("burst_prob", "number", None),
                "burst_kw": ("burst_range", "kW pair", None)}
TRACE_KEYS = {**SURPLUS_KEYS, "regimes": ("regimes", "raw", None)}
REGIME_KEYS = {"start_slot": ("start_slot", "whole", REQUIRED),
               "basic_range_kw": ("basic_range", "kW pair", None),
               "quality_max_kw": ("alpha_hi", "kW", None), **SURPLUS_KEYS}
MECP_KEYS = {"block_prob": ("block_prob", "number", None),
             "charge_prob": ("charge_prob", "number", None)}


def _number(path: str, raw, name: str, kind=float):
    """raw as a float (or kind), or a ValueError naming the file and field.
    Booleans, NaN and infinities are refused, and so are fractions where
    kind is int."""
    try:
        if isinstance(raw, bool) or (kind is int and isinstance(raw, float)
                                     and not raw.is_integer()):
            raise TypeError
        value = kind(raw)
    except (TypeError, ValueError):
        noun = "a number" if kind is float else "an integer"
        raise ValueError(
            f"{path}: {name} must be {noun}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{path}: {name} must be finite, got {raw!r}")
    return value


def _value(path: str, raw, name: str, kind: str, sh: float):
    """raw read as kind, or a ValueError naming the file and field."""
    if kind == "flag" and not isinstance(raw, bool):
        raise ValueError(f"{path}: {name} must be true or false, got {raw!r}")
    if kind in ("raw", "flag"):
        return raw
    if kind == "whole":
        return _number(path, raw, name, int)
    scale = sh if kind.startswith("kW") else 1.0
    if not kind.endswith("pair"):
        return _number(path, raw, name) * scale
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError(f"{path}: {name} must be a [lo, hi] pair")
    return tuple(_number(path, v, name) * scale for v in raw)


def _fields(path: str, raw, keys: dict, where: str, noun: str = "",
            sh: float = 1.0, entry: bool = False) -> dict:
    """The fields the mapping raw fills, read through its section's table.
    where names the section in unknown-key errors, noun its field names
    ("grid.q_max_kwh") and missing keys, in it or in one of its entries."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {where} must be a mapping")
    for key in raw:
        if key not in keys:
            raise ValueError(f"{path}: unknown key {key!r} in {where}")
    fields = {}
    for key, (field, kind, value) in keys.items():
        if key in raw:
            value = _value(path, raw[key], f"{noun}.{key}".lstrip("."), kind,
                           sh)
        elif value is REQUIRED:
            raise ValueError(f"{path}: {noun}{' entry' if entry else ''} "
                             f"missing {key!r}")
        if value is not None:
            fields.update(zip(field, value) if kind == "pair"
                          else [(field, value)])
    return fields


def _entries(path: str, raw, keys: dict, where: str, noun: str,
             sh: float = 1.0) -> list[dict]:
    """The fields of each entry of a list section, count times each."""
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: {where} must be a non-empty list")
    out = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: each {where} entry must be a mapping")
        fields = _fields(path, entry, {**COUNT_KEYS, **keys}, where, noun, sh,
                         entry=True)
        count = fields.pop("count", 1)
        if count < 1:
            raise ValueError(f"{path}: count must be a positive integer")
        out.extend([fields] * count)
    return out


def _build(path: str, spec, **fields):
    """spec(**fields), with its ValueError prefixed by the file name."""
    try:
        return spec(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_yaml(path: str) -> dict:
    """The mapping a YAML file holds; ValueError naming the file if it
    cannot be read or parsed, or holds something else."""
    try:
        with open(path) as fh:
            # libyaml's parser where PyYAML was built with it; construction
            # stays PyYAML's safe constructor either way.
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                                yaml.SafeLoader))
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    return data


def load_seed(path: str) -> int:
    """The seed of a YAML run configuration (0 when absent), checked as
    load_config checks it; no other field is read or checked."""
    seed = _number(path, _read_yaml(path).get("seed", 0), "seed", int)
    _build(path, check_seed, seed=seed)
    return seed


def load_config(path: str) -> RunConfig:
    """Parse a YAML run configuration into a RunConfig.

    Resident demand and surplus processes are specified in kW and converted
    to kWh per slot via slot_hours; battery fields are kWh, prices $/kWh,
    grid trade caps kWh per slot. Residents' alpha_max is lifted to the
    highest quality cap any regime uses, so regime draws always stay within
    the declared bound. Raises ValueError on any malformed field and on
    any key it does not know.
    """
    fields = _fields(path, _read_yaml(path), TOP_KEYS, "the top level")
    sh = fields.get("slot_hours", RunConfig.slot_hours)
    if sh <= 0.0:
        raise ValueError(f"{path}: slot_hours must be positive")
    fields.update(_fields(path, fields.pop("traces", {}), TRACE_KEYS,
                          "traces", "traces", sh))
    regimes = fields.get("regimes", [])
    if not isinstance(regimes, list):
        raise ValueError(f"{path}: traces.regimes must be a list")
    if not all(isinstance(regime, dict) for regime in regimes):
        raise ValueError(f"{path}: each regime must be a mapping")
    fields["regimes"] = tuple(_build(path, Regime, **_fields(
        path, regime, REGIME_KEYS, "traces.regimes", "regime", sh))
        for regime in regimes)
    batteries = _entries(path, fields.get("batteries"), BATTERY_KEYS,
                         "batteries", "battery")
    fields["batteries"] = tuple(_build(path, BatterySpec, **entry)
                                for entry in batteries)
    residents = _entries(path, fields.get("residents"), RESIDENT_KEYS,
                         "residents", "resident", sh)
    caps = [r.alpha_hi for r in fields["regimes"] if r.alpha_hi is not None]
    fields["residents"] = tuple(_build(path, ResidentSpec, **{
        **entry, "alpha_max": max([entry["alpha_max"], *caps])})
        for entry in residents)
    fields["grid"] = _build(path, GridSpec, **_fields(
        path, fields.get("grid"), GRID_KEYS, "grid", "grid"))
    fields.update(_fields(path, fields.pop("mecp", {}), MECP_KEYS, "mecp",
                          "mecp"))
    return _build(path, RunConfig, **fields, alpha_base=tuple(
        entry["alpha_max"] for entry in residents))
