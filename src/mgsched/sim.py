"""Trace-driven simulation: synthetic traces, the run loop, a hindsight bound.

The simulator replays exogenous traces (renewable generation, prices,
demand) through a per-slot policy, audits every guarantee the scheduler
is supposed to keep, and reports end-of-run metrics. A trace is a Trace,
one array per observation field: generate_traces draws it and load_traces
reads it from three CSV files in that form, and run, hindsight_lower_bound
and audit_slots read its arrays as they are, slicing them to the horizon
and checking only the request widths, that every value is finite and
that basic usage stays within generation; write_traces writes it with
_write_table, the one CSV writer. A hand-built list is converted once, by
_observation_arrays, the one converter. The slot loop,
_simulate, which validate's bound suite shares, zips the trace's columns,
carries the battery levels and backlogs as tuples and only calls the
policy and _advance, the one slot recurrence, which step wraps for
SystemState objects. A policy returns each slot's decision as one flat
flow row (q, s, r_1..r_K, d_1..d_K, p_1..p_N, objective, curtailed); the
loop appends the rows to one flat list and reshapes it once into a
(T, 2K + N + 4) flows array. The scheduler's policy is a
dispatch.slot_solver and the coin-toss benchmark's a dispatch.mecp_solver,
each prepared once per run, so the loop builds no state or Dispatch
object for either; run adapts a custom policy, which takes a SystemState
and the slot's SlotObservation and returns a Dispatch, with one wrapper
that indexes the trace's observations, built once per run, and flattens
the Dispatch into the row. audit_slots' body then checks all
slots at once in numpy from the level and backlog rows, the flows array
and the trace's columns and flags each slot and entity that broke a
guarantee, ORing dispatch's fault lists. _simulate returns the run as
one Trajectory of those arrays: run reads its counters and the first
violation off the audit's masks and returns the Trajectory with the
summary, and write_slot_records writes slots.csv straight from it.
first_violation words its slot from the same lists, with no Dispatch.
A projected-subgradient hindsight bound provides
the reference point for cost-gap checks: it lower-bounds the per-slot
cost of any policy on the given trace whose horizon-average quality
service reaches (1 - delta)*alpha, under relaxed storage dynamics, so
the scheduler's average cost can be judged without knowing the true
offline optimum. Each of its iterations solves the relaxed slot problems
of all slots at once in numpy, with the merit order in closed form.
load_config and load_seed import PyYAML on first use, so a process that
builds its RunConfig in Python never loads PyYAML or libyaml.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .dispatch import (
    _balance_faults,
    _basic_usage_faults,
    _dispatch_row,
    _fault_rows,
    _fault_words,
    _finite_faults,
    _flow_slices,
    _limits,
    _observation_faults,
    _row_total,
    _threshold_faults,
    mecp_solver,
    slot_solver,
)
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
    compute_vmax,
    shape_problems,
    width_error,
)
from .queues import _advance_qose_queues, bound_constants, check_qose_stability

POLICIES = ("proposed", "mecp")

# Sliding-window length (slots) for the unserved-demand window audit.
OUTAGE_WINDOW = 500

VIOLATION_KEYS = ("battery_band", "queue_bound", "outage_window",
                  "balance", "exclusivity", "threshold")

# Each trace file's name, as write_traces suffixes it, and header.
_TRACE_FILES = {"wind": ["slot", "generation_kwh"],
                "prices": ["slot", "purchase_price", "sell_price"],
                "demand": ["slot", "resident", "basic_kwh", "quality_kwh"]}


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


class Trajectory(NamedTuple):
    """One simulated run of T slots, as arrays.

    levels and backlogs hold T + 1 rows each, the battery levels and
    backlogs the run starts from and then those each slot leaves; flows
    is the (T, 2K + N + 4) array of the slots' flow rows (q, s,
    r_1..r_K, d_1..d_K, p_1..p_N, objective, curtailed); audit is
    audit_slots' dict of the run.
    """

    levels: list[tuple[float, ...]]
    backlogs: list[tuple[float, ...]]
    flows: np.ndarray
    audit: dict[str, np.ndarray]


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


@dataclass(frozen=True, slots=True, eq=False)
class Trace:
    """A trace of T slots as columns, one array per observation field.

    u, c and w are (T,) arrays of generation and purchase and sell
    prices; basic and alpha are (T, N) arrays of the residents' basic and
    quality requests. Construction copies each column into a read-only
    float array, adds 0.0 to alpha, so a -0.0 request reads 0.0, and
    derives surplus (T,), surplus_power's value of each slot, from u and
    basic; it raises ValueError for a column of another rank or length.
    Nothing else is checked here: run, hindsight_lower_bound and
    audit_slots check the widths, that every value is finite and the
    surplus against their system, and load_traces checks every bound.

    A Trace is a read-only sequence of SlotObservations. len is T;
    trace[t] builds slot t's observation, negative t counting from the
    end; a slice is the Trace of those slots; iteration builds every
    observation once; == and != compare every column by value. To edit
    slots, edit list(trace).
    """

    u: np.ndarray
    basic: np.ndarray
    alpha: np.ndarray
    c: np.ndarray
    w: np.ndarray
    surplus: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # The one place the columns are frozen and the surplus column and
        # alpha's + 0.0 are made. Each column is a copy, so no caller's
        # array is frozen and no later edit of one leaves surplus stale.
        for name, ndim in (("u", 1), ("basic", 2), ("alpha", 2), ("c", 1),
                           ("w", 1)):
            column = np.array(getattr(self, name), dtype=float)
            if column.ndim != ndim or len(column) != len(self.u):
                raise ValueError(
                    f"Trace column {name} has shape {column.shape}; u, c "
                    f"and w must be (T,) and basic and alpha (T, N)")
            if name == "alpha":
                column += 0.0
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        # An inf and a -inf request add, unwarned, to a NaN _checked refuses.
        with np.errstate(invalid="ignore"):
            surplus = self.u - _row_total(self.basic)
        surplus.setflags(write=False)
        object.__setattr__(self, "surplus", surplus)

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, t):
        if isinstance(t, slice):
            # Slice every column, surplus too: deriving it again costs
            # more than the slicing (a row total along the short axis).
            part = object.__new__(Trace)
            for name in self.__slots__:
                object.__setattr__(part, name, getattr(self, name)[t])
            return part
        t = range(len(self))[t]
        return _observations(self, slice(t, t + 1))[0]

    def __iter__(self):
        return iter(_observations(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__slots__)


def _observations(trace: Trace, rows: slice = slice(None)
                  ) -> list[SlotObservation]:
    """The SlotObservations of trace's rows, built positionally."""
    return [SlotObservation(u, tuple(basic), tuple(alpha), c, w)
            for u, basic, alpha, c, w in zip(
                trace.u[rows].tolist(), trace.basic[rows].tolist(),
                trace.alpha[rows].tolist(), trace.c[rows].tolist(),
                trace.w[rows].tolist())]


def generate_traces(config: RunConfig,
                    rng: np.random.Generator | None = None) -> Trace:
    """Draw a synthetic Trace of config.horizon slots.

    Per slot and resident, basic usage is uniform on its range and the
    quality request uniform on [0, cap]. Generation is the total basic
    usage plus a non-negative surplus: uniform on surplus_range, replaced
    by a burst draw with probability burst_prob. Prices are i.i.d. within
    their bounds with the sell price kept strictly below the purchase
    price by construction. Deterministic for a given rng (or config.seed).
    Each regime segment draws one block of unit draws; the segments'
    columns are concatenated, and no per-slot object is built.
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
    segments = []
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

        segments.append((_row_total(basics) + surplus, basics, alphas, c, w))
    return Trace(*(np.concatenate(column) for column in zip(*segments)))


def _read_csv(path: str, expected_header: list[str]):
    """Read a CSV and check its header and field counts.

    Returns (rows, lines): the rows that are not blank and the physical
    line each starts on; blank lines are skipped but still counted, and a
    quoted field holding a newline counts every line it spans. The file
    is decoded as UTF-8, after dropping a leading byte-order mark, and
    then split into rows before anything else is checked, so a row the csv
    module cannot read, such as one with a field past its size limit, is
    named by the line the reader stopped on ahead of every other fault.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
        text = data.decode("utf-8")
    except OSError as exc:
        raise TraceError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # csv.reader breaks lines at \r\n, a lone \r and \n alike.
        head = data[:exc.start]
        line = (head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
                + 1)
        raise TraceError(f"{path}:{line}: byte {data[exc.start]:#04x} is not "
                         f"UTF-8: {exc.reason}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    try:
        header = next(reader, None)
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise TraceError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise TraceError(f"{path}:1: empty file")
    if [h.strip() for h in header] != expected_header:
        raise TraceError(
            f"{path}:1: expected header {','.join(expected_header)}, "
            f"got {','.join(header)}")
    width = len(expected_header)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise TraceError(f"{path}:{lines[i]}: expected {width} fields, "
                         f"got {len(rows[i])}")
    return rows, lines


def _parsed(column: tuple[str, ...], kind) -> tuple[list, np.ndarray]:
    """kind(raw) (int or float) of each string in column, None where kind
    raises ValueError, and the mask of those Nones."""
    try:
        return list(map(kind, column)), np.zeros(len(column), dtype=bool)
    except ValueError:
        pass
    values = []
    for raw in column:
        try:
            values.append(kind(raw))
        except ValueError:
            values.append(None)
    return values, np.array([v is None for v in values], dtype=bool)


def _trace_table(path: str, header: list[str], horizon: int, n_res: int = 0):
    """One trace file's value columns, placed by slot (and resident).

    header names the slot column, then the resident column when n_res is
    nonzero, then the value columns. Returns one float array per value
    column, shaped (horizon,), or (horizon, n_res) when n_res, with NaN
    where no row fills a cell. Rows at or past the horizon are ignored
    once their slot (and resident) are checked. Each field is parsed once.
    The faults are (mask over the rows, message) pairs, listed in the
    order a row-at-a-time reader checks a row; the first flagged row
    raises the first message whose mask flags it, formatted with the
    row's raw fields r and parsed values p.
    """
    rows, lines = _read_csv(path, header)
    columns = list(zip(*rows)) or [()] * len(header)
    keys = 2 if n_res else 1
    parsed, refused = zip(*(_parsed(column, int if k < keys else float)
                            for k, column in enumerate(columns)))
    slot = np.array([-1 if t is None or t < 0 else t if t < horizon
                     else horizon for t in parsed[0]], dtype=np.int64)
    faults = [(refused[0], "field slot is not an integer: {r[0]!r}"),
              (slot < 0, "slot {p[0]} is negative")]
    kept = (slot >= 0) & (slot < horizon)
    cell, size, where = slot, horizon, "slot {p[0]}"
    if n_res:
        res = np.array([-1 if n is None or not 0 <= n < n_res else n
                        for n in parsed[1]], dtype=np.int64)
        faults += [(refused[1], "field resident is not an integer: {r[1]!r}"),
                   (res < 0, f"resident {{p[1]}} outside 0..{n_res - 1}")]
        kept &= res >= 0
        cell, size = slot * n_res + res, horizon * n_res
        where += " resident {p[1]}"
    # A kept row repeats a cell when an earlier kept row filled it.
    index = np.flatnonzero(kept)
    duplicate = kept.copy()
    duplicate[index[np.unique(cell[index], return_index=True)[1]]] = False
    faults.append((duplicate, f"duplicate {where}"))
    values = np.array(parsed[keys:], dtype=float)
    for k, column in enumerate(values, keys):
        raw = f"{{r[{k}]!r}}"
        faults += [
            (kept & refused[k], f"field {header[k]} is not a number: {raw}"),
            (kept & ~np.isfinite(column),
             f"field {header[k]} is not finite: {raw}")]
    flagged = np.logical_or.reduce([mask for mask, _ in faults])
    if flagged.any():
        i = int(flagged.argmax())
        text = next(text for mask, text in faults if mask[i])
        raise TraceError(f"{path}:{lines[i]}: " + text.format(
            p=[column[i] for column in parsed], r=rows[i]))
    # Adding 0.0 reads -0.0 as 0.0, so no sign reaches the outputs.
    placed = np.full((len(values), size), math.nan)
    placed[:, cell[kept]] = values[:, kept] + 0.0
    return list(placed.reshape(-1, horizon, n_res) if n_res else placed)


def load_traces(wind_path: str, price_path: str, demand_path: str,
                config: RunConfig) -> Trace:
    """Load and validate a recorded Trace from three CSV files.

    Each file has its _TRACE_FILES header; demand names residents 0..N-1.
    Slots must cover 0..horizon-1 densely; rows at or past the horizon are
    ignored, so a longer recording replays over a shorter horizon, and a
    negative slot is an error. Fields are parsed by Python's int() and
    float(). Every bound of the system model is checked, and of several
    faults the one a row-at-a-time reader meets first is reported, with
    file and line where it has one. The files are read wind, prices,
    demand. Within a file all field counts are checked first; then the
    earliest faulty line wins, named by the physical line its row starts
    on, and within a line its slot, its resident, a repeat of an earlier
    row's slot (and resident), then its values left to right.
    Once all three files parse, the earliest faulty slot wins, and
    within a slot a missing wind row, a missing price row, the first
    missing resident, then the first of dispatch._observation_faults.
    """
    horizon = config.horizon
    wind, prices, demand = _TRACE_FILES.values()
    (gen,) = _trace_table(wind_path, wind, horizon)
    c, w = _trace_table(price_path, prices, horizon)
    basic, alpha = _trace_table(demand_path, demand, horizon,
                                len(config.residents))

    # Parsed values are finite, so NaN marks a cell no row filled.
    missing_gen, missing_prices = np.isnan(gen), np.isnan(c)
    missing_demand = np.isnan(basic)
    faults = _observation_faults(gen, basic, alpha, c, w,
                                 _limits(config.system))
    flagged = (missing_gen | missing_prices | missing_demand.any(1)
               | _fault_rows(faults))
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
        raise TraceError(f"slot {t}: {_fault_words(faults, t)[0]}")
    return Trace(gen, basic, alpha, c, w)


def write_traces(traces: Trace | list[SlotObservation],
                 prefix: str) -> tuple[str, str, str]:
    """Write a trace's values, unchecked, as the three CSV files load_traces
    reads, with _write_table. A list of SlotObservations is converted first
    by _observation_arrays, for the width of its slot 0's basic request."""
    if not isinstance(traces, Trace):
        traces = _observation_arrays(traces, len(traces[0].basic)
                                     if traces else 0)
    horizon, n_res = traces.basic.shape
    slots = range(horizon)
    paths = tuple(f"{prefix}.{name}.csv" for name in _TRACE_FILES)
    for path, header, keys, table in zip(
            paths, _TRACE_FILES.values(),
            (slots, slots, [f"{t},{n}" for t in slots for n in range(n_res)]),
            (traces.u[:, None], np.column_stack([traces.c, traces.w]),
             np.stack([traces.basic, traces.alpha], -1).reshape(-1, 2))):
        _write_table(path, header, keys, table)
    return paths


_delta = attrgetter("delta")


def _advance(e: tuple[float, ...], z: tuple[float, ...],
             alpha: tuple[float, ...], r, d, p,
             deltas) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """step's recurrence on tuples: the levels e - d + r and the backlogs
    update_qose_queue gives, in one recurrence over every resident."""
    return (tuple([level - out + into for level, out, into
                   in zip(e, d, r)]),
            _advance_qose_queues(z, alpha, p, deltas))


def step(system: SystemSpec, state: SystemState, obs: SlotObservation,
         dispatch: Dispatch) -> SystemState:
    """Advance one slot: e' = e - d + r and z' = max(z - delta*alpha, 0) + alpha - p.

    Only advances the state, so a run can go on past any escape;
    audit_slots checks the levels it produces against their bands and
    caps. update_qose_queue's ValueErrors (negative backlog, demand or
    service, or service above demand) propagate.
    """
    e, z = _advance(state.e, state.z, obs.alpha, dispatch.r, dispatch.d,
                    dispatch.p, map(_delta, system.residents))
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


def _stack(rows: list[tuple[float, ...]], width: int) -> np.ndarray:
    # (len(rows), width) floats; np.fromiter over the flattened rows is
    # about twice as fast as np.array on a list of tuples.
    return np.fromiter(chain.from_iterable(rows), float).reshape(
        len(rows), width)


def _observation_arrays(observations: list[SlotObservation],
                        n_res: int) -> Trace:
    """The Trace of T observations with n_res residents.

    Raises width_error's ValueError for the first slot whose basic or
    alpha request does not have n_res entries.
    """
    for t, obs in enumerate(observations):
        if len(obs.basic) != n_res or len(obs.alpha) != n_res:
            name = "basic" if len(obs.basic) != n_res else "alpha"
            raise width_error(t, name, len(getattr(obs, name)), n_res)
    horizon = len(observations)
    return Trace(
        np.fromiter([o.u for o in observations], float, horizon),
        _stack([o.basic for o in observations], n_res),
        _stack([o.alpha for o in observations], n_res),
        np.fromiter([o.c for o in observations], float, horizon),
        np.fromiter([o.w for o in observations], float, horizon))


def _checked(traces: Trace | list[SlotObservation], n_res: int) -> Trace:
    """traces as a Trace, checked for n_res residents.

    A Trace is taken as it is and a list converted by _observation_arrays.
    Raises width_error's ValueError for the first slot whose basic or
    alpha request does not have n_res entries; then "slot t: <fault>" for
    the first slot a fault of dispatch._finite_faults flags or, if none
    does, dispatch._basic_usage_faults (basic usage above generation).
    """
    if not isinstance(traces, Trace):
        traces = _observation_arrays(traces, n_res)
    for name in ("basic", "alpha"):
        # Every slot of a Trace has the same width, so slot 0 is the first.
        if (width := getattr(traces, name).shape[1]) != n_res:
            raise width_error(0, name, width, n_res)
    faults = _finite_faults(traces.u, traces.basic, traces.alpha, traces.c,
                            traces.w)
    if not _fault_rows(faults).any():
        faults = _basic_usage_faults(traces.u, traces.basic)
    broken = _fault_rows(faults)
    if broken.any():
        t = int(broken.argmax())
        raise ValueError(f"slot {t}: {_fault_words(faults, t)[0]}")
    return traces


def audit_slots(system: SystemSpec, v: float,
                levels: list[tuple[float, ...]],
                backlogs: list[tuple[float, ...]],
                observations: Trace | list[SlotObservation],
                flows: np.ndarray, z_max: tuple[float, ...] | list[float]
                ) -> dict[str, np.ndarray]:
    """Audit T slots at once, in one numpy pass over the stacked slots.

    Row t of flows (T, 2K + N + 4) is the flow row (q, s, r_1..r_K,
    d_1..d_K, p_1..p_N, objective, curtailed) of the decision taken on
    observations[t] from the battery levels levels[t] and backlogs
    backlogs[t], and levels[t + 1] and backlogs[t + 1] are what slot t
    produced (T + 1 rows each). Returns boolean masks under their
    VIOLATION_KEYS names:

    - balance (T,): dispatch._balance_faults flags a box, curtailment,
      exclusivity or balance-residual problem, a NaN flow counting as a
      residual;
    - exclusivity (T,): q*s or some r_k*d_k is nonzero;
    - threshold (T,): dispatch._threshold_faults flags a break at v;
    - battery_band (T, K): a new level outside its band by more than
      BALANCE_TOL;
    - queue_bound (T, N): a new backlog above z_max[n] by more than
      BALANCE_TOL;
    - outage_window (T, N): slots t - OUTAGE_WINDOW + 1..t leave resident
      n more unserved quality energy than budgets[n] of outage_windows,
      flagged at the window's last slot.

    The result also carries cost (T,), q*c - s*w, the quality requests
    alpha (T, N), and outage (T, N), alpha - p. observations is a Trace,
    read as it is, or a list of SlotObservations, converted once. Raises
    a ValueError naming flows, levels, backlogs, observations or z_max
    when it holds other than 2K + N + 4, T + 1, T + 1, T or N columns,
    rows or entries; then _checked's ValueError for a slot with a request
    of the wrong width, a NaN or infinite value or basic usage above
    generation.
    """
    n_res, horizon = len(system.residents), len(flows)
    width = 2 * len(system.batteries) + n_res + 4
    for name, count, expected, unit in (
            ("flows", np.shape(flows)[-1], width, "columns"),
            ("levels", len(levels), horizon + 1, "rows"),
            ("backlogs", len(backlogs), horizon + 1, "rows"),
            ("observations", len(observations), horizon, "slots"),
            ("z_max", len(z_max), n_res, "entries")):
        if count != expected:
            raise ValueError(f"{name} has {count} {unit}, expected {expected}")
    return _audit(system, v, levels, backlogs,
                  _checked(observations, n_res), flows, z_max)


def _audit(system: SystemSpec, v: float, levels: list[tuple[float, ...]],
           backlogs: list[tuple[float, ...]], trace: Trace,
           flows: np.ndarray, z_max: tuple[float, ...] | list[float]
           ) -> dict[str, np.ndarray]:
    """audit_slots' body, on a checked Trace."""
    tol = BALANCE_TOL
    horizon = len(flows)
    limits = _limits(system)
    e_min, e_max = limits[0][:, 0], limits[0][:, 1]

    q, s = flows[:, 0], flows[:, 1]
    p = flows[:, _flow_slices(len(e_min))[2]]
    alpha, c, w = trace.alpha, trace.c, trace.w
    e = _stack(levels, len(e_min))
    z = _stack(backlogs, len(system.residents))

    # An infinite flow from a custom policy makes NaN products (inf * 0)
    # that the masks flag; numpy need not warn of them.
    with np.errstate(invalid="ignore"):
        balance, exclusivity = _balance_faults(flows, trace.surplus, alpha,
                                               limits)
        threshold = _threshold_faults(v, flows, alpha, c, w, e[:horizon],
                                      z[:horizon], limits)
        outage = alpha - p
        sums, budgets = outage_windows(outage, system.residents, z_max)
        window = np.zeros(outage.shape, dtype=bool)
        window[OUTAGE_WINDOW - 1:] = sums > budgets
        return {"balance": _fault_rows(balance), "exclusivity": exclusivity,
                "threshold": _fault_rows(threshold), "cost": q * c - s * w,
                "alpha": alpha, "outage": outage, "outage_window": window,
                "battery_band": (e[1:] < e_min - tol) | (e[1:] > e_max + tol),
                "queue_bound": z[1:] > np.array(z_max) + tol}


def first_violation(trajectory: Trajectory, keys: tuple[str, ...],
                    system: SystemSpec, v: float,
                    trace: Trace, z_max: tuple[float, ...] | list[float]):
    """Earliest slot that one of the trajectory's audit masks under keys
    flags.

    The other arguments are those audit_slots was given for the
    trajectory, with the trace as a Trace. Returns (slot, key, message),
    or None when nothing is flagged; within one slot the key listed first
    wins. The message joins the words of the slot's balance or threshold
    faults, built again for that one row, or names the first battery,
    backlog or window (the one ending at that slot) past its band, cap or
    budget. No state, observation or Dispatch is built.
    """
    levels, backlogs, flows, audit = trajectory
    first = None
    for key in keys:
        flagged = audit[key].reshape(len(flows), -1).any(1)
        if flagged.any():
            t = int(flagged.argmax())
            if first is None or t < first[0]:
                first = (t, key)
    if first is None:
        return None
    t, key = first
    if key in ("balance", "exclusivity", "threshold"):
        row, limits = slice(t, t + 1), _limits(system)
        if key == "threshold":
            faults = _threshold_faults(
                v, flows[row], trace.alpha[row], trace.c[row], trace.w[row],
                np.array(levels[row]), np.array(backlogs[row]), limits)
        else:
            faults, _ = _balance_faults(flows[row], trace.surplus[row],
                                        trace.alpha[row], limits)
        return t, key, "; ".join(_fault_words(faults, 0))
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


def _simulate(config: RunConfig, trace: Trace, policy, v: float,
              z_max: tuple[float, ...]):
    """Step config's system through a checked Trace, then audit every
    slot.

    The run starts from the batteries' e_init levels and zero backlogs,
    carried as tuples, and policy is a callable (e, z, alpha, surplus, c,
    w, t) -> flow row of slot t's levels, backlogs and column values, such
    as a slot_solver. The slot loop zips the alpha, surplus and price
    columns, only calls the policy and _advance, step's recurrence, on the
    row's slices, and appends the row to one flat list, reshaped once into
    the flows array; one audit pass over the same columns at v and z_max
    follows. Returns the run as a Trajectory: the T + 1 level and backlog
    rows, the (T, 2K + N + 4) flows array audit_slots takes, and its
    audit. Policy and update_qose_queue errors propagate.
    """
    residents = config.residents
    deltas = tuple(map(_delta, residents))
    n_bat = len(config.batteries)
    r_at, d_at, p_at = _flow_slices(n_bat)
    e = tuple(b.e_init for b in config.batteries)
    z = (0.0,) * len(residents)
    levels, backlogs = [e], [z]
    flat: list[float] = []
    for t, (alpha, surplus, c, w) in enumerate(zip(
            trace.alpha.tolist(), trace.surplus.tolist(), trace.c.tolist(),
            trace.w.tolist())):
        row = policy(e, z, alpha, surplus, c, w, t)
        e, z = _advance(e, z, alpha, row[r_at], row[d_at], row[p_at], deltas)
        flat += row
        levels.append(e)
        backlogs.append(z)
    flows = np.array(flat, dtype=float).reshape(
        len(trace), 2 * n_bat + len(residents) + 4)
    return Trajectory(levels, backlogs, flows, _audit(
        config.system, v, levels, backlogs, trace, flows, z_max))


def run(config: RunConfig, traces: Trace | list[SlotObservation],
        policy=None, keep_records: bool = True):
    """Simulate the configured horizon, then audit every slot.

    traces is a Trace, whose first config.horizon slots the slot loop
    reads as they are, or a list of SlotObservations, converted once.
    policy may be None (use config.policy), a policy name, or a callable
    (state, obs) -> Dispatch. Returns (trajectory, summary): _simulate's
    Trajectory of the run, which write_slot_records writes as slots.csv,
    or None when keep_records is false. The counters, costs, outages and
    first violation are read off the trajectory's audit. The scheduler
    runs as one slot_solver and mecp as one mecp_solver, whose coins are
    drawn before slot 0 as one (T, N + 1) block from default_rng((seed,
    1)), the numbers per-slot mecp_dispatch calls would draw. Neither
    builds a per-slot object, nor a Dispatch to word its first
    violation. A custom policy goes through an adapter,
    which builds the trace's observations once per run, builds each
    slot's SystemState, checks the shape of the Dispatch returned and
    flattens it into the solver's flow row. Before the first slot, a
    ValueError names _checked's faulty slot, and then a policy that is
    neither a known name nor callable. Policy and step
    errors propagate; audit failures are counted in the summary, never
    raised, so a broken setup still yields a diagnosable run. A NaN flow
    from a custom policy counts as a balance violation.
    """
    if len(traces) < config.horizon:
        raise ValueError(
            f"trace has {len(traces)} slots, horizon needs {config.horizon}")
    system = config.system
    residents = config.residents
    horizon = config.horizon
    trace = _checked(traces[:horizon], len(residents))
    v_max = compute_vmax(config.batteries, config.grid)
    v = config.v_fraction * v_max
    consts = bound_constants(system, v)

    if policy is None:
        policy = config.policy
    curtail = config.curtailment
    policy_name = "custom" if callable(policy) else policy
    # The queue, window and threshold audits apply to the scheduler only.
    keys = (VIOLATION_KEYS if policy == "proposed"
            else ("battery_band", "balance", "exclusivity"))
    if policy == "proposed":
        policy_fn = slot_solver(system, v, curtail=curtail)
    elif policy == "mecp":
        # One block holds the numbers T successive per-slot draws of N + 1
        # coins would take from the same generator.
        coins = np.random.default_rng((config.seed, 1)).random(
            (horizon, len(residents) + 1))
        policy_fn = mecp_solver(system, coins, config.block_prob,
                                config.charge_prob, v, curtail)
    elif callable(policy):
        observations = _observations(trace)

        def policy_fn(e, z, alpha, surplus, c, w,
                      t: int) -> tuple[float, ...]:
            dispatch = policy(SystemState(t, e, z), observations[t])
            if problems := shape_problems(dispatch, system, observations[t]):
                raise ValueError(f"slot {t}: custom policy dispatch "
                                 + "; ".join(problems))
            return _dispatch_row(dispatch)
    else:
        raise ValueError(f"unknown policy {policy!r}")

    trajectory = _simulate(config, trace, policy_fn, v, consts.z_max)
    audit = trajectory.audit
    outage_hist = audit["outage"]
    counters = {key: int(audit[key].sum()) if key in keys else 0
                for key in VIOLATION_KEYS}
    cost = audit["cost"]
    # np.cumsum adds in sequence, as a running total from 0.0 does; adding
    # 0.0 turns a leading -0.0 into the 0.0 such a total would hold. A
    # custom policy's inf and -inf costs add to a NaN total, unwarned.
    with np.errstate(invalid="ignore"):
        total_cost = float(np.cumsum(cost)[-1] + 0.0)
        curtailed_total = float(np.cumsum(trajectory.flows[:, -1])[-1]
                                + 0.0)
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
        outage_ratio=tuple(ratios[-1].tolist()),
        convergence_slot=tuple(convergence),
        stability_pass=tuple(stability),
        violations=counters,
        curtailed_total=curtailed_total,
        first_violation=first_violation(trajectory, keys, system, v, trace,
                                        consts.z_max))
    return (trajectory if keep_records else None), summary


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
    column per slot, so every sum and broadcast runs along the contiguous
    slot axis; d_max holds the K discharge caps, and surplus, c and w one
    value per slot. Returns (objective, q, s, r, d, p): objective, q and s
    shaped (T,), r and d (K, T), p (N, T), r, d and p as row blocks of one
    array. Feasibility does not depend on the multipliers;
    hindsight_lower_bound checks it.

    Both books sit in one stacked (N + 2K, T) array: the bids in key
    order, then the offers, against one price column (the bid values,
    then the offer costs). The masks c_t < price and w_t > price are each
    built once, as floats, and serve both the trade terms of every
    entry's queue and reach and the masked sums behind q and s; the
    complementary masked sums are cap - cap*mask, which equals
    cap*(1 - mask) for a 0/1 mask and a cap that is not -0.0 (a Trace
    adds 0.0 to alpha, and battery caps are positive). The bids'
    inclusive prefix sum adds row after row, as cumsum(0) does, and their
    exclusive one is that less the bid's own cap. Every float is that of
    the two separate books, which a test checks byte for byte.

    Two reductions must add in the order a slot-major (T, entries) array
    does, or the bound's floats depend on the layout: each slot's two
    objective dot products run over C-contiguous (T, entries) copies, and
    the bound's sums over slots go through _slot_sums, which keeps that
    order without a transposed copy. The masked sums behind q and s add
    the bids one after another, which a slot-major row sum also does
    below 8 bids; from 8 bids on it adds them pairwise, so there the
    objective can differ from that layout's by an ulp. r, d and p come
    back through one fancy index, built without a sort.

    It is not merit_order_columns with the multipliers in every column (a
    test ties the two): that kernel sorts each column, and through it a
    500-slot, 10-iteration five_day bound took 3.6-4.9 ms, not 1.6-2.2 ms
    (best to median of 30 calls, 2-vCPU VM, Python 3.11), and the pinned
    short-trace bound moved.
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
    o_cap = d_max[order]
    n_bid = len(rows)
    q_cap, s_cap = grid.q_max, grid.s_max
    below = (cost[:, None] < value).astype(float)

    # The stacked books: the bids' rows, then the offers'. Each mask is a
    # 0.0/1.0 float array, so every product with it is one float pass.
    price = np.concatenate([value, cost])[:, None]
    cap = np.empty((len(price), len(c)))
    b_cap = np.take(caps, rows, axis=0, out=cap[:n_bid], mode="wrap")
    cap[n_bid:] = o_cap[:, None]
    cheaper = (c < price).astype(float)
    dearer = (w > price).astype(float)
    bought = q_cap * cheaper
    sold = s_cap * dearer
    cap_cheaper = cap * cheaper
    cap_dearer = cap * dearer

    # Each entry's flow is the overlap, clipped to its box, of the
    # capacity queued ahead of it in its own book (the trade entry counted
    # where it sorts first) with the capacity on the other side priced
    # strictly better (the surplus counted first on the supply side).
    ahead = np.empty_like(cap)
    ahead[0] = b_cap[0]
    for i in range(1, n_bid):
        np.add(ahead[i - 1], b_cap[i], out=ahead[i])
    ahead[:n_bid] -= b_cap
    ahead[:n_bid] += sold[:n_bid]
    np.add((o_cap.cumsum() - o_cap)[:, None], bought[n_bid:],
           out=ahead[n_bid:])
    flow = np.empty_like(cap)
    np.add(surplus, (o_cap @ below)[:, None], out=flow[:n_bid])
    flow[:n_bid] += bought[:n_bid]
    np.matmul(below, b_cap, out=flow[n_bid:])
    flow[n_bid:] += sold[n_bid:]
    flow[n_bid:] -= surplus
    flow -= ahead
    np.maximum(flow, 0.0, out=flow)
    np.minimum(flow, cap, out=flow)
    take, give = flow[:n_bid], flow[n_bid:]
    # cap - cap*mask is cap*(1 - mask) exactly for a 0/1 mask.
    q = np.minimum(np.maximum(
        cap_cheaper[:n_bid].sum(0) - surplus
        - (cap[n_bid:] - cap_cheaper[n_bid:]).sum(0), 0.0), q_cap)
    s = np.minimum(np.maximum(
        surplus + cap_dearer[n_bid:].sum(0)
        - (b_cap - cap_dearer[:n_bid]).sum(0), 0.0), s_cap)

    # BLAS adds a product with a transposed matrix in another order.
    objective = (np.ascontiguousarray(give.T) @ cost + q * c
                 - np.ascontiguousarray(take.T) @ value - s * w)
    # One gather puts r, d and p in caps' and d_max's row order: at[key]
    # is the stacked row of caps row key, or of discharge row key - n_bid.
    n_bat = len(order)
    at = [0] * (n_bid + n_bat)
    for i, key in enumerate(rows + [n_bid + k for k in order]):
        at[key] = i
    flows = flow[at[n_res:] + at[:n_res]]
    return (objective, q, s, flows[:n_bat], flows[n_bat:2 * n_bat],
            flows[2 * n_bat:])


def _slot_sums(a: np.ndarray) -> np.ndarray:
    # Sums (entries, T) over slots as a C-contiguous (T, entries) array's
    # sum(0) does, without that transposed copy. From two entries on, that
    # sum starts from 0.0 and adds slot after slot, as add.accumulate does
    # along a row from its first slot; the two differ only where every
    # slot holds -0.0, which the 0.0 added last turns into the sum's 0.0.
    # For one entry numpy adds the slots pairwise, as sum(1) does. The
    # + 0.0 also makes the result contiguous: BLAS's dot adds a strided
    # vector, such as the view [:, -1], in another order.
    if len(a) < 2:
        return a.sum(1)
    return np.add.accumulate(a, 1)[:, -1] + 0.0


def _demand_caps(alpha: np.ndarray,
                 batteries: tuple[BatterySpec, ...]) -> np.ndarray:
    """_relaxed_slots' caps: alpha (T, N) transposed, then r_max rows."""
    horizon, n_res = alpha.shape
    caps = np.empty((n_res + len(batteries), horizon))
    caps[:n_res] = alpha.T
    caps[n_res:] = [[spec.r_max] for spec in batteries]
    return caps


def hindsight_lower_bound(traces: Trace | list[SlotObservation],
                          config: RunConfig, iterations: int) -> float:
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

    A Trace's columns are read as they are (a list of SlotObservations is
    converted once), and the quality requests stacked with the recharge
    caps into entry-major arrays (one row per resident or battery, one
    column per slot) once per call; the feasibility check runs once,
    before the first iteration. The service allowance and the gradient
    sum over slots in _slot_sums' order, that of a slot-major array, so
    the multipliers do not depend on the layout; they come back
    contiguous, as BLAS's dot adds a strided vector in another order.
    Raises ValueError unless iterations is an int or numpy integer >= 1
    (not a bool), then _checked's ValueError, then UnservableSurplusError
    naming the first slot whose surplus exceeds every sink, unless the
    config enables curtailment.
    """
    if (isinstance(iterations, bool)
            or not isinstance(iterations, (int, np.integer))
            or iterations < 1):
        raise ValueError(
            f"iterations must be an integer >= 1, got {iterations!r}")
    horizon = min(config.horizon, len(traces))
    if horizon < 1:
        raise ValueError("empty trace")
    g = config.grid
    batteries = config.batteries
    residents = config.residents
    n_res = len(residents)
    trace = _checked(traces[:horizon], n_res)
    surplus = trace.surplus
    caps = _demand_caps(trace.alpha, batteries)
    if not config.curtailment:
        # Every sink of the relaxed problem: the bids' caps and the sale cap.
        unservable = surplus > caps.sum(0) + g.s_max
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
            mu.tolist(), nu.tolist(), caps, d_max, g, surplus, trace.c,
            trace.w)
        total = objective.sum() + nu @ allowance + mu @ headroom
        lb = float(total) / horizon
        if lb > best:
            best = lb
        if it == iterations:
            break
        step = (g.c_max - g.w_min) / math.sqrt(it)
        grad_mu = headroom + _slot_sums(r - d)
        grad_nu = allowance - _slot_sums(p)
        mu = np.minimum(np.maximum(mu + step * grad_mu / horizon,
                                   -g.c_max), -g.w_min)
        nu = np.maximum(nu + step * grad_nu / horizon, 0.0)
    return best


def write_slot_records(trajectory: Trajectory, path: str) -> None:
    """Write a run's slots as CSV with _write_table, one row per slot.

    The columns are t, the slot's cost and its running total, q, s, the
    recharge and discharge totals sum_r and sum_d, then the levels e_k,
    backlogs z_n and outages alpha - p that the slot leaves; K and N are
    the widths of the trajectory's level and backlog rows. The totals add
    each row left to right from 0, as ordered_sum does, signed zeros
    included.
    """
    levels, backlogs, flows, audit = trajectory
    n_bat, n_res = len(levels[0]), len(backlogs[0])
    zero = np.zeros((len(flows), 1))
    cost = audit["cost"]
    # A running total that adds inf to -inf is NaN, written as nan.
    with np.errstate(invalid="ignore"):
        table = np.column_stack([
            cost, np.cumsum(cost) + 0.0, flows[:, :2],
            *(_row_total(np.hstack([zero, flows[:, at]]))
              for at in _flow_slices(n_bat)[:2]),
            _stack(levels[1:], n_bat), _stack(backlogs[1:], n_res),
            audit["outage"]])
    cols = ["t", "cost_increment", "cumulative_cost", "q", "s", "sum_r", "sum_d"]
    cols += [f"e_{k + 1}" for k in range(n_bat)]
    cols += [f"z_{n + 1}" for n in range(n_res)]
    cols += [f"outage_{n + 1}" for n in range(n_res)]
    _write_table(path, cols, range(len(table)), table)


def _write_table(path: str, header: list[str], keys, table) -> None:
    """Write a CSV: the header, then per key a row of the key and that row
    of table, a 2-D float array. Every field is written with str, a
    float's shortest round-trip form (also for np.float64); each distinct
    value is formatted once, keyed on its 64-bit pattern, so -0.0 and 0.0
    stay apart and every NaN prints nan, as formatting each field would."""
    table = np.ascontiguousarray(table, dtype=float)
    # Fewer than half of a shipped run's fields are distinct. The inverse
    # is reshaped because its shape for 2-D input differs across numpy
    # versions.
    values, inverse = np.unique(table.view(np.int64), return_inverse=True)
    text = np.array(list(map(str, values.view(float).tolist())), dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines([f"{key},{','.join(fields)}\n" for key, fields in zip(
            keys, text[inverse.reshape(table.shape)].tolist())])


def format_summary(summary: Summary) -> str:
    """Render a Summary as a stable key: value document; floats print with
    str, their shortest round-trip form (also for np.float64)."""

    def join(values) -> str:
        return ",".join(str(v).lower() if isinstance(v, bool) else str(v)
                        for v in values)

    lines = [
        f"policy: {summary.policy}",
        f"slots: {summary.slots}",
        f"v: {summary.v}",
        f"v_max: {summary.v_max}",
        f"total_cost: {summary.total_cost}",
        f"mean_cost_per_slot: {summary.mean_cost_per_slot}",
        f"curtailed_total: {summary.curtailed_total}",
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
            raise ValueError(f"{path}: {noun}.count must be a positive "
                             f"integer, got {count}")
        out.extend([fields] * count)
    return out


def _build(path: str, spec, **fields):
    """spec(**fields), with its ValueError prefixed by the file name."""
    try:
        return spec(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class _RepeatedKey(Exception):
    """A mapping's repeated key: (line, key), the line counted from 1."""


class _UniqueKeys:
    """A loader mixin that refuses a mapping repeating a key."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # Merge keys (<<) only bring in entries that later keys override.
            if (key_node.id == "scalar"
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in seen:
                    raise _RepeatedKey(key_node.start_mark.line + 1, key)
                seen.add(key)
        return super().construct_mapping(node, deep)


@cache
def _loader(base):
    """base with _UniqueKeys' check, one class per process."""
    return type("Loader", (_UniqueKeys, base), {})


def _read_yaml(path: str) -> dict:
    """The mapping a YAML file holds; ValueError naming the file if it
    cannot be read or parsed, holds a value the safe constructor refuses
    (such as the timestamp 2001-13-45) or something other than a mapping,
    or repeats a key in any mapping (naming the line and key too).
    PyYAML is imported here, on the first read, so a process that reads
    no YAML file never loads it."""
    import yaml

    try:
        # Bytes, so PyYAML detects UTF-8 or UTF-16 whatever the locale.
        with open(path, "rb") as fh:
            # libyaml's parser where PyYAML was built with it; construction
            # stays PyYAML's safe constructor either way.
            data = yaml.load(fh, Loader=_loader(getattr(
                yaml, "CSafeLoader", yaml.SafeLoader)))
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: invalid YAML: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except _RepeatedKey as exc:
        line, key = exc.args
        raise ValueError(f"{path}:{line}: duplicate key {key!r}") from None
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
