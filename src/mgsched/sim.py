"""Trace-driven simulation: synthetic traces, the run loop, a hindsight bound.

The simulator replays exogenous traces (renewable generation, prices,
demand) through a per-slot policy, audits every guarantee the scheduler is
supposed to keep, and reports end-of-run metrics. Synthetic traces are
generated from the run configuration; recorded traces load from three CSV
files. A projected-subgradient hindsight bound provides the reference
point for cost-gap checks: it lower-bounds the per-slot cost of any policy
on the given trace under relaxed storage dynamics, so the scheduler's
average cost can be judged without knowing the true offline optimum.
"""

from __future__ import annotations

import csv
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np
import yaml

from .dispatch import (
    _allocate,
    dispatch_slot,
    mecp_dispatch,
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
    TraceError,
    UnservableSurplusError,
    check_dispatch,
    compute_vmax,
    surplus_power,
    validate_observation,
)
from .queues import bound_constants, check_qose_stability, update_qose_queue

POLICIES = ("proposed", "mecp")

# Sliding-window length (slots) for the unserved-demand window audit.
OUTAGE_WINDOW = 500

VIOLATION_KEYS = ("battery_band", "queue_bound", "outage_window",
                  "balance", "exclusivity", "threshold")


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
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        for name, prob in (("block_prob", self.block_prob),
                           ("charge_prob", self.charge_prob),
                           ("burst_prob", self.burst_prob)):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {prob}")
        for name, rng_ in (("surplus_range", self.surplus_range),
                           ("burst_range", self.burst_range)):
            lo, hi = rng_
            if not 0.0 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got {rng_}")
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
    skipped (left zero) for other policies.
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

    cuts = sorted({0, horizon, *(r.start_slot for r in config.regimes
                                 if r.start_slot < horizon)})
    segments: list[tuple[int, int, Regime | None]] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        active: Regime | None = None
        for regime in config.regimes:
            if regime.start_slot <= lo:
                active = regime
        segments.append((lo, hi, active))

    traces: list[SlotObservation] = []
    for lo, hi, regime in segments:
        steps = hi - lo
        basic_lo = np.empty(n_res)
        basic_hi = np.empty(n_res)
        alpha_cap = np.empty(n_res)
        for n, res in enumerate(residents):
            b_range = res.basic_range
            if config.alpha_base is not None:
                cap = config.alpha_base[n]
            else:
                cap = res.alpha_max
            if regime is not None:
                if regime.basic_range is not None:
                    b_range = regime.basic_range
                if regime.alpha_hi is not None:
                    cap = min(regime.alpha_hi, res.alpha_max)
            basic_lo[n], basic_hi[n] = b_range
            alpha_cap[n] = cap
        surplus_range = config.surplus_range
        burst_prob = config.burst_prob
        burst_range = config.burst_range
        if regime is not None:
            if regime.surplus_range is not None:
                surplus_range = regime.surplus_range
            if regime.burst_prob is not None:
                burst_prob = regime.burst_prob
            if regime.burst_range is not None:
                burst_range = regime.burst_range

        basics = rng.uniform(basic_lo, basic_hi, size=(steps, n_res))
        alphas = rng.uniform(0.0, alpha_cap, size=(steps, n_res))
        surplus = rng.uniform(surplus_range[0], surplus_range[1], size=steps)
        bursts = rng.uniform(burst_range[0], burst_range[1], size=steps)
        is_burst = rng.random(steps) < burst_prob
        surplus = np.where(is_burst, bursts, surplus)
        c = rng.uniform(g.c_min, g.c_max, size=steps)
        # Keep the sell price strictly below the purchase price. A quote at
        # exactly w_min == c can only occur in degenerate configurations;
        # nudge the purchase price up inside its band in that case.
        c = np.where(c <= g.w_min, g.w_min + 1e-6 * (g.c_max - g.w_min), c)
        w_hi = np.minimum(g.w_max, c)
        w = g.w_min + (w_hi - g.w_min) * rng.random(steps)
        w = np.where(w >= c, 0.5 * (g.w_min + c), w)

        basics_l = basics.tolist()
        alphas_l = alphas.tolist()
        surplus_l = surplus.tolist()
        c_l = c.tolist()
        w_l = w.tolist()
        for i in range(steps):
            row_basic = tuple(basics_l[i])
            traces.append(SlotObservation(
                u=sum(row_basic) + surplus_l[i],
                basic=row_basic,
                alpha=tuple(alphas_l[i]),
                c=c_l[i],
                w=w_l[i]))
    return traces


def _read_csv(path: str, expected_header: list[str]) -> list[tuple[int, list[str]]]:
    """Read a CSV, check its header, return (line_number, row) pairs."""
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
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise TraceError(
                    f"{path}:{line_no}: expected {len(expected_header)} "
                    f"fields, got {len(row)}")
            rows.append((line_no, row))
    return rows


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


def load_traces(wind_path: str, price_path: str, demand_path: str,
                config: RunConfig) -> list[SlotObservation]:
    """Load and validate recorded traces from three CSV files.

    Formats: wind rows are slot,generation_kwh; price rows are
    slot,purchase_price,sell_price; demand rows are
    slot,resident,basic_kwh,quality_kwh with resident indices 0..N-1.
    Slots must cover 0..horizon-1 densely; every bound of the system model
    is checked and the first offender reported with file and line.
    """
    horizon = config.horizon
    n_res = len(config.residents)
    system = config.system

    gen = [math.nan] * horizon
    for line_no, row in _read_csv(wind_path, ["slot", "generation_kwh"]):
        slot = _parse_int(wind_path, line_no, "slot", row[0])
        if 0 <= slot < horizon:
            if not math.isnan(gen[slot]):
                raise TraceError(f"{wind_path}:{line_no}: duplicate slot {slot}")
            gen[slot] = _parse_float(wind_path, line_no, "generation_kwh", row[1])

    prices = [(math.nan, math.nan)] * horizon
    for line_no, row in _read_csv(price_path,
                                  ["slot", "purchase_price", "sell_price"]):
        slot = _parse_int(price_path, line_no, "slot", row[0])
        if 0 <= slot < horizon:
            if not math.isnan(prices[slot][0]):
                raise TraceError(f"{price_path}:{line_no}: duplicate slot {slot}")
            prices[slot] = (
                _parse_float(price_path, line_no, "purchase_price", row[1]),
                _parse_float(price_path, line_no, "sell_price", row[2]))

    basic = [[math.nan] * n_res for _ in range(horizon)]
    alpha = [[math.nan] * n_res for _ in range(horizon)]
    for line_no, row in _read_csv(
            demand_path, ["slot", "resident", "basic_kwh", "quality_kwh"]):
        slot = _parse_int(demand_path, line_no, "slot", row[0])
        res = _parse_int(demand_path, line_no, "resident", row[1])
        if not 0 <= res < n_res:
            raise TraceError(
                f"{demand_path}:{line_no}: resident {res} outside 0..{n_res - 1}")
        if 0 <= slot < horizon:
            if not math.isnan(basic[slot][res]):
                raise TraceError(
                    f"{demand_path}:{line_no}: duplicate slot {slot} resident {res}")
            basic[slot][res] = _parse_float(demand_path, line_no, "basic_kwh", row[2])
            alpha[slot][res] = _parse_float(demand_path, line_no, "quality_kwh", row[3])

    traces: list[SlotObservation] = []
    for t in range(horizon):
        if math.isnan(gen[t]):
            raise TraceError(f"{wind_path}: missing slot {t} (horizon {horizon})")
        if math.isnan(prices[t][0]):
            raise TraceError(f"{price_path}: missing slot {t} (horizon {horizon})")
        for n in range(n_res):
            if math.isnan(basic[t][n]) or math.isnan(alpha[t][n]):
                raise TraceError(
                    f"{demand_path}: missing slot {t} resident {n} "
                    f"(horizon {horizon})")
        obs = SlotObservation(u=gen[t], basic=tuple(basic[t]),
                              alpha=tuple(alpha[t]),
                              c=prices[t][0], w=prices[t][1])
        problems = validate_observation(obs, system)
        if problems:
            raise TraceError(f"slot {t}: {problems[0]}")
        traces.append(obs)
    return traces


def write_traces(traces: list[SlotObservation], prefix: str) -> tuple[str, str, str]:
    """Write a trace as the three CSV files load_traces expects."""
    wind_path = f"{prefix}.wind.csv"
    price_path = f"{prefix}.prices.csv"
    demand_path = f"{prefix}.demand.csv"
    with open(wind_path, "w", newline="") as fh:
        fh.write("slot,generation_kwh\n")
        for t, obs in enumerate(traces):
            fh.write(f"{t},{obs.u!r}\n")
    with open(price_path, "w", newline="") as fh:
        fh.write("slot,purchase_price,sell_price\n")
        for t, obs in enumerate(traces):
            fh.write(f"{t},{obs.c!r},{obs.w!r}\n")
    with open(demand_path, "w", newline="") as fh:
        fh.write("slot,resident,basic_kwh,quality_kwh\n")
        for t, obs in enumerate(traces):
            for n, (b, a) in enumerate(zip(obs.basic, obs.alpha)):
                fh.write(f"{t},{n},{b!r},{a!r}\n")
    return wind_path, price_path, demand_path


def run(config: RunConfig, traces: list[SlotObservation],
        policy=None, keep_records: bool = True):
    """Simulate the configured horizon and audit every slot.

    policy may be None (use config.policy), a policy name, or a callable
    (state, obs) -> Dispatch. Returns (records, summary); records is empty
    when keep_records is false. Policy errors propagate; audit failures
    are counted in the summary, never raised, so a broken setup still
    yields a diagnosable run.
    """
    if len(traces) < config.horizon:
        raise ValueError(
            f"trace has {len(traces)} slots, horizon needs {config.horizon}")
    system = config.system
    batteries = config.batteries
    residents = config.residents
    n_res = len(residents)
    horizon = config.horizon
    v_max = compute_vmax(batteries, config.grid)
    v = config.v_fraction * v_max
    consts = bound_constants(system, v)

    if policy is None:
        policy = config.policy
    if isinstance(policy, str):
        policy_name = policy
        if policy == "proposed":
            def policy_fn(state: SystemState, obs: SlotObservation) -> Dispatch:
                return dispatch_slot(system, state, obs, v,
                                     curtail=config.curtailment)
        elif policy == "mecp":
            mecp_rng = np.random.default_rng((config.seed, 1))

            def policy_fn(state: SystemState, obs: SlotObservation) -> Dispatch:
                return mecp_dispatch(system, state, obs, mecp_rng,
                                     config.block_prob, config.charge_prob,
                                     v, curtail=config.curtailment)
        else:
            raise ValueError(f"unknown policy {policy!r}")
    else:
        policy_name = "custom"
        policy_fn = policy
    audit_scheduler = policy_name == "proposed"

    deltas = [res.delta for res in residents]
    counters = {key: 0 for key in VIOLATION_KEYS}
    alpha_hist = np.empty((horizon, n_res))
    outage_hist = np.empty((horizon, n_res))
    records: list[SlotRecord] = []
    state = SystemState(t=0, e=tuple(b.e_init for b in batteries),
                        z=(0.0,) * n_res)
    cumulative = 0.0
    curtailed_total = 0.0

    for t in range(horizon):
        obs = traces[t]
        dispatch = policy_fn(state, obs)
        q, s = dispatch.q, dispatch.s
        if q * s != 0.0 or any(r * d != 0.0
                               for r, d in zip(dispatch.r, dispatch.d)):
            counters["exclusivity"] += 1
        if check_dispatch(dispatch, system, obs):
            counters["balance"] += 1
        if audit_scheduler and threshold_violations(system, state, obs, v,
                                                    dispatch):
            counters["threshold"] += 1
        cost_increment = q * obs.c - s * obs.w
        cumulative = cumulative + cost_increment
        curtailed_total += dispatch.curtailed
        e_next = tuple(e - d + r for e, d, r
                       in zip(state.e, dispatch.d, dispatch.r))
        for e_new, spec in zip(e_next, batteries):
            if e_new < spec.e_min - 1e-9 or e_new > spec.e_max + 1e-9:
                counters["battery_band"] += 1
        z_new = []
        for n in range(n_res):
            zn = update_qose_queue(state.z[n], obs.alpha[n], dispatch.p[n],
                                   deltas[n])
            if audit_scheduler and zn > consts.z_max[n] + 1e-9:
                counters["queue_bound"] += 1
            z_new.append(zn)
            alpha_hist[t, n] = obs.alpha[n]
            outage_hist[t, n] = obs.alpha[n] - dispatch.p[n]
        state = SystemState(t=t + 1, e=e_next, z=tuple(z_new))
        if keep_records:
            records.append(SlotRecord(
                t=t, dispatch=dispatch, cost_increment=cost_increment,
                cumulative_cost=cumulative, e=e_next, z=state.z,
                outage=tuple(outage_hist[t].tolist())))

    if audit_scheduler and horizon >= OUTAGE_WINDOW:
        cums = np.vstack([np.zeros(n_res), np.cumsum(outage_hist, axis=0)])
        window_sums = cums[OUTAGE_WINDOW:] - cums[:-OUTAGE_WINDOW]
        for n, res in enumerate(residents):
            budget = consts.z_max[n] + OUTAGE_WINDOW * res.delta * res.alpha_max
            counters["outage_window"] += int((window_sums[:, n] > budget).sum())

    alpha_cum = np.cumsum(alpha_hist, axis=0)
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
                                     tuple(deltas), consts.z_max)
    summary = Summary(
        policy=policy_name,
        slots=horizon,
        v=v,
        v_max=v_max,
        total_cost=cumulative,
        mean_cost_per_slot=cumulative / horizon,
        alpha_total=alpha_total,
        outage_total=outage_total,
        outage_ratio=outage_ratio,
        convergence_slot=tuple(convergence),
        stability_pass=tuple(stability),
        violations=counters,
        curtailed_total=curtailed_total)
    return records, summary


def hindsight_lower_bound(traces: list[SlotObservation], config: RunConfig,
                          iterations: int,
                          step0: float | None = None) -> float:
    """Lower-bound the per-slot cost of any feasible policy on this trace.

    Works on a relaxation whose storage dynamics are replaced by an
    average-flow constraint; its optimum can only sit below the true one.
    For fixed multipliers (one per battery for average flow balance, one
    per resident for the service guarantee) the inner minimization splits
    per slot into the same structure the scheduler solves, with multipliers
    standing in for queue-derived prices, so the merit-order allocator is
    reused with substituted coefficients. Every multiplier evaluation is a
    valid bound by weak duality; projected subgradient ascent just tightens
    it, and the best value seen is returned. Battery multipliers are kept
    in [-c_max, -w_min], outside which the inner solutions saturate.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    horizon = min(config.horizon, len(traces))
    if horizon < 1:
        raise ValueError("empty trace")
    g = config.grid
    batteries = config.batteries
    residents = config.residents
    n_bat = len(batteries)
    n_res = len(residents)
    if step0 is None:
        step0 = g.c_max - g.w_min
    one_minus_delta = [1.0 - res.delta for res in residents]

    mu = [0.0] * n_bat
    nu = [0.0] * n_res
    best = -math.inf
    for it in range(1, iterations + 1):
        total = 0.0
        grad_mu = [0.0] * n_bat
        grad_nu = [0.0] * n_res
        # dispatch._allocate tuple books. Battery entries hold for the whole
        # iteration; slots add surplus, quality and per-mode trade entries.
        batteries_supply = sorted((-mu[k], 1, k, batteries[k].d_max)
                                  for k in range(n_bat))
        recharge = [(mu[k], 1, k, batteries[k].r_max) for k in range(n_bat)]
        for t in range(horizon):
            obs = traces[t]
            p_surplus = surplus_power(obs)
            supply = ([(-math.inf, 0, -1, p_surplus)] if p_surplus > 0.0
                      else []) + batteries_supply
            demand = recharge + [(-nu[n], 0, n, alpha)
                                 for n, alpha in enumerate(obs.alpha)
                                 if alpha > 0.0]
            demand.sort()
            buy_supply = supply.copy()
            insort(buy_supply, (obs.c, 2, -1, g.q_max))
            buy = _allocate(buy_supply, demand, n_bat, n_res,
                            config.curtailment)[0]
            insort(demand, (-obs.w, 2, -1, g.s_max))
            sell = _allocate(supply, demand, n_bat, n_res,
                             config.curtailment)[0]
            if buy is not None and (sell is None
                                    or buy.objective <= sell.objective):
                disp = buy
            elif sell is not None:
                disp = sell
            else:
                raise UnservableSurplusError(
                    f"slot {t}: surplus {p_surplus} kWh exceeds every sink "
                    "in the relaxed problem")
            slot_val = disp.objective
            for n in range(n_res):
                allowance = one_minus_delta[n] * obs.alpha[n]
                slot_val += nu[n] * allowance
                grad_nu[n] += allowance - disp.p[n]
            for k in range(n_bat):
                grad_mu[k] += disp.r[k] - disp.d[k]
            total += slot_val
        lb = total / horizon
        if lb > best:
            best = lb
        if it == iterations:
            break
        step = step0 / math.sqrt(it)
        for k in range(n_bat):
            mu[k] = min(max(mu[k] + step * grad_mu[k] / horizon, -g.c_max),
                        -g.w_min)
        for n in range(n_res):
            nu[n] = max(nu[n] + step * grad_nu[n] / horizon, 0.0)
    return best


def write_slot_records(records: list[SlotRecord], path: str,
                       n_batteries: int, n_residents: int) -> None:
    """Write per-slot records as CSV, one row per slot."""
    cols = ["t", "cost_increment", "cumulative_cost", "q", "s", "sum_r", "sum_d"]
    cols += [f"e_{k + 1}" for k in range(n_batteries)]
    cols += [f"z_{n + 1}" for n in range(n_residents)]
    cols += [f"outage_{n + 1}" for n in range(n_residents)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            d = rec.dispatch
            vals = [str(rec.t), repr(rec.cost_increment),
                    repr(rec.cumulative_cost), repr(d.q), repr(d.s),
                    repr(sum(d.r)), repr(sum(d.d))]
            vals += [repr(e) for e in rec.e]
            vals += [repr(z) for z in rec.z]
            vals += [repr(o) for o in rec.outage]
            fh.write(",".join(vals) + "\n")


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


def _expand_entries(raw, kind: str):
    """Expand a list of spec dicts, honoring an optional count per entry."""
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"config: {kind} must be a non-empty list")
    out = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError(f"config: each {kind} entry must be a mapping")
        entry = dict(entry)
        count = entry.pop("count", 1)
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"config: count must be a positive integer")
        out.extend([entry] * count)
    return out


def _pair(raw, name: str) -> tuple[float, float]:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2):
        raise ValueError(f"config: {name} must be a [lo, hi] pair")
    return float(raw[0]), float(raw[1])


def load_config(path: str) -> RunConfig:
    """Parse a YAML run configuration into a RunConfig.

    Resident demand and surplus processes are specified in kW and converted
    to kWh per slot via slot_hours; battery fields are kWh, prices $/kWh,
    grid trade caps kWh per slot. Residents' alpha_max is lifted to the
    highest quality cap any regime uses, so regime draws always stay within
    the declared bound. Raises ValueError on any malformed field.
    """
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a mapping")

    sh = float(data.get("slot_hours", 0.25))
    if sh <= 0.0:
        raise ValueError("config: slot_hours must be positive")

    traces_raw = data.get("traces", {})
    if not isinstance(traces_raw, dict):
        raise ValueError("config: traces must be a mapping")
    regimes_raw = traces_raw.get("regimes", [])
    if not isinstance(regimes_raw, list):
        raise ValueError("config: traces.regimes must be a list")

    batteries = []
    for entry in _expand_entries(data.get("batteries"), "batteries"):
        try:
            batteries.append(BatterySpec(
                e_min=float(entry["e_min_kwh"]),
                e_max=float(entry["e_max_kwh"]),
                r_max=float(entry["r_max_kwh"]),
                d_max=float(entry["d_max_kwh"]),
                e_init=float(entry["e_init_kwh"])))
        except KeyError as exc:
            raise ValueError(f"config: battery entry missing {exc}") from None

    regime_quality_kw = [float(r["quality_max_kw"]) for r in regimes_raw
                         if isinstance(r, dict) and "quality_max_kw" in r]
    residents = []
    alpha_base = []
    for entry in _expand_entries(data.get("residents"), "residents"):
        try:
            base_quality_kw = float(entry["quality_max_kw"])
            basic_kw = _pair(entry["basic_range_kw"], "basic_range_kw")
        except KeyError as exc:
            raise ValueError(f"config: resident entry missing {exc}") from None
        # alpha_max must cover the widest quality cap any regime uses, but
        # baseline slots keep drawing from the entry's own cap.
        peak_kw = max([base_quality_kw] + regime_quality_kw)
        mean_kw = float(entry.get("quality_mean_kw", base_quality_kw / 2.0))
        residents.append(ResidentSpec(
            delta=float(entry["delta"]) if "delta" in entry else 0.07,
            alpha_max=peak_kw * sh,
            basic_range=(basic_kw[0] * sh, basic_kw[1] * sh),
            quality_mean=mean_kw * sh))
        alpha_base.append(base_quality_kw * sh)

    grid_raw = data.get("grid")
    if not isinstance(grid_raw, dict):
        raise ValueError("config: grid must be a mapping")
    try:
        c_lo, c_hi = _pair(grid_raw["purchase_price"], "grid.purchase_price")
        w_lo, w_hi = _pair(grid_raw["sell_price"], "grid.sell_price")
        grid = GridSpec(q_max=float(grid_raw["q_max_kwh"]),
                        s_max=float(grid_raw["s_max_kwh"]),
                        c_min=c_lo, c_max=c_hi, w_min=w_lo, w_max=w_hi)
    except KeyError as exc:
        raise ValueError(f"config: grid missing {exc}") from None

    regimes = []
    for r in regimes_raw:
        if not isinstance(r, dict):
            raise ValueError("config: each regime must be a mapping")
        if "start_slot" not in r:
            raise ValueError("config: regime missing start_slot")
        regimes.append(Regime(
            start_slot=int(r["start_slot"]),
            basic_range=tuple(v * sh for v in _pair(r["basic_range_kw"],
                                                    "regime.basic_range_kw"))
            if "basic_range_kw" in r else None,
            alpha_hi=float(r["quality_max_kw"]) * sh
            if "quality_max_kw" in r else None,
            surplus_range=tuple(v * sh for v in _pair(r["surplus_kw"],
                                                      "regime.surplus_kw"))
            if "surplus_kw" in r else None,
            burst_prob=float(r["burst_prob"]) if "burst_prob" in r else None,
            burst_range=tuple(v * sh for v in _pair(r["burst_kw"],
                                                    "regime.burst_kw"))
            if "burst_kw" in r else None))

    mecp_raw = data.get("mecp", {})
    if not isinstance(mecp_raw, dict):
        raise ValueError("config: mecp must be a mapping")

    kwargs = dict(
        batteries=tuple(batteries),
        residents=tuple(residents),
        grid=grid,
        horizon=int(data.get("horizon", 480)),
        slot_hours=sh,
        seed=int(data.get("seed", 0)),
        v_fraction=float(data.get("v_fraction", 1.0)),
        policy=str(data.get("policy", "proposed")),
        curtailment=bool(data.get("curtailment", False)),
        block_prob=float(mecp_raw.get("block_prob", 0.07)),
        charge_prob=float(mecp_raw.get("charge_prob", 0.5)),
        regimes=tuple(regimes),
        convergence_tol=float(data.get("convergence_tol", 0.03)),
        alpha_base=tuple(alpha_base),
    )
    if "surplus_kw" in traces_raw:
        lo, hi = _pair(traces_raw["surplus_kw"], "traces.surplus_kw")
        kwargs["surplus_range"] = (lo * sh, hi * sh)
    if "burst_prob" in traces_raw:
        kwargs["burst_prob"] = float(traces_raw["burst_prob"])
    if "burst_kw" in traces_raw:
        lo, hi = _pair(traces_raw["burst_kw"], "traces.burst_kw")
        kwargs["burst_range"] = (lo * sh, hi * sh)

    return RunConfig(**kwargs)
