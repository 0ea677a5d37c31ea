"""Per-slot dispatch: exact merit-order solver, audits, and baselines.

Each slot poses a linear program: box-constrained flows (market purchase,
market sale, battery recharge/discharge, quality service) tied together by
a single supply/demand balance, with renewable surplus as a mandatory
supply that must be absorbed. Because buying and selling in the same slot
never pays, the problem splits into a purchase-only and a sale-only
sub-problem; each is solved exactly by merit order. Supply is ranked by
unit cost, demand by unit value, the surplus is poured into the most
valuable sinks first, and then supply and demand are matched while the
marginal unit is strictly profitable. Strict profitability is what keeps a
battery from trading with itself: its discharge cost equals its own
recharge value, so the pair never matches.

One kernel, _allocate, does this on books of plain sort-key tuples:
dispatch_slot sorts the book both modes share once per slot and inserts
each mode's trade entry, merit_order_allocate maps Offer and Bid books onto
it, and the hindsight bound in sim builds the same tuples.

The module also ships a discretized brute-force solver used as an
independent check on small instances, structural audits of the optimum
(threshold form of the solution), and a randomized benchmark policy that
blocks quality requests by coin toss instead of solving anything.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .model import (
    Dispatch,
    SlotObservation,
    SystemSpec,
    SystemState,
    UnservableSurplusError,
    surplus_power,
)
from .queues import battery_queue

PURCHASE = "purchase"
SELL = "sell"
MODES = (PURCHASE, SELL)

# Offer kinds (supply side) and bid kinds (demand side). The rank tables
# fix deterministic tie-breaks: equal-price entries are ordered surplus,
# discharge, purchase on the supply side and quality, recharge, sale on the
# demand side, then by ascending index.
OFFER_SURPLUS = "surplus"
OFFER_DISCHARGE = "discharge"
OFFER_PURCHASE = "purchase"
BID_QUALITY = "quality"
BID_RECHARGE = "recharge"
BID_SALE = "sale"

_OFFER_KINDS = (OFFER_SURPLUS, OFFER_DISCHARGE, OFFER_PURCHASE)
_BID_KINDS = (BID_QUALITY, BID_RECHARGE, BID_SALE)
_OFFER_RANK = {kind: rank for rank, kind in enumerate(_OFFER_KINDS)}
_BID_RANK = {kind: rank for rank, kind in enumerate(_BID_KINDS)}

# Grid cells the brute-force solver refuses to enumerate past.
_ORACLE_CELL_CAP = 40_000_000


@dataclass(frozen=True, slots=True)
class Offer:
    """One supply entry: energy available at a unit cost, up to a capacity.

    The mandatory surplus offer carries cost -inf: it is dispatched before
    anything else and contributes nothing to the objective. index is -1 for
    system-level entries (surplus, market purchase).
    """

    kind: str
    index: int
    unit_cost: float
    capacity: float


@dataclass(frozen=True, slots=True)
class Bid:
    """One demand entry: energy wanted at a unit value, up to a capacity."""

    kind: str
    index: int
    unit_value: float
    capacity: float


@dataclass(frozen=True, slots=True)
class SubproblemResult:
    """Outcome of one single-mode sub-problem.

    objective is +inf when infeasible. mandatory_bids lists the (kind,
    index) pairs that absorbed mandatory surplus; such variables may sit
    strictly inside their boxes without contradicting the vertex structure
    of the optimum.
    """

    feasible: bool
    dispatch: Dispatch | None
    objective: float
    mandatory_bids: tuple[tuple[str, int], ...] = ()


def _slot_books(system: SystemSpec, state: SystemState, obs: SlotObservation,
                v: float, headroom_clamp: bool) -> tuple[list, list]:
    """The sorted supply and demand books shared by both modes.

    Entries are the sort-key tuples _allocate takes; entries without
    capacity are left out.
    """
    surplus = surplus_power(obs)
    supply = [(-math.inf, 0, -1, surplus)] if surplus > 0.0 else []
    demand = [(-(z + alpha), 0, n, alpha)
              for n, (z, alpha) in enumerate(zip(state.z, obs.alpha))
              if alpha > 0.0]
    for k, (e, spec) in enumerate(zip(state.e, system.batteries)):
        x = battery_queue(e, spec, v, system.grid)
        d_cap = min(spec.d_max, e - spec.e_min) if headroom_clamp else spec.d_max
        r_cap = min(spec.r_max, spec.e_max - e) if headroom_clamp else spec.r_max
        if d_cap > 0.0:
            supply.append((-x, 1, k, d_cap))
        if r_cap > 0.0:
            demand.append((x, 1, k, r_cap))
    supply.sort()
    demand.sort()
    return supply, demand


def build_subproblem(mode: str, system: SystemSpec, state: SystemState,
                     obs: SlotObservation, v: float,
                     headroom_clamp: bool = True) -> tuple[list[Offer], list[Bid]]:
    """Assemble the offer and bid books for one mode of the slot problem.

    Battery entries are priced by the negated battery queue: a deeply
    discharged battery (very negative queue) bids high to recharge and
    offers its discharge dearly; a full one does the opposite. Quality bids
    are priced by backlog plus current demand, so long-unserved residents
    outbid the market. With headroom_clamp the per-slot flow caps are also
    clamped to the energy actually storable or extractable this slot; a
    correctly parametrized scheduler never needs that clamp, and audits can
    disable it to expose misparametrization instead of masking it. Entries
    without capacity are left out.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    g = system.grid
    supply, demand = _slot_books(system, state, obs, v, headroom_clamp)
    offers = [Offer(_OFFER_KINDS[rank], i, cost, cap)
              for cost, rank, i, cap in supply]
    bids = [Bid(_BID_KINDS[rank], i, -neg_value, cap)
            for neg_value, rank, i, cap in demand]
    if mode == PURCHASE:
        offers.append(Offer(OFFER_PURCHASE, -1, v * obs.c, g.q_max))
    else:
        bids.append(Bid(BID_SALE, -1, v * obs.w, g.s_max))
    return offers, bids


def _allocate(supply: list[tuple], demand: list[tuple], n_batteries: int,
              n_residents: int, allow_shortfall: bool
              ) -> tuple[Dispatch | None, int]:
    """Merit-order kernel over sorted sort-key books.

    supply holds (cost, rank, index, cap) and demand (-value, rank, index,
    cap) tuples, each list in ascending order and every cap positive; the
    ranks are those of _OFFER_KINDS and _BID_KINDS. The one surplus entry
    (cost -inf, rank 0) therefore leads the supply book and is poured
    first, into bids of any sign, at no cost. Returns the dispatch, or None
    when the surplus does not fit and allow_shortfall is off, and the
    number of leading demand entries that absorbed surplus.
    """
    q = [0.0]
    s = [0.0]
    r = [0.0] * n_batteries
    d = [0.0] * n_batteries
    p = [0.0] * n_residents
    # Flow lists by rank; system-level entries (index -1) land in q or s,
    # and the surplus entry's own outflow is not kept.
    sources = ([0.0], d, q)
    sinks = (p, r, s)
    objective = 0.0
    surplus_left = supply[0][3] if supply and supply[0][1] == 0 else 0.0
    n_mandatory = 0
    if supply and demand:
        i = j = 0
        cost, o_rank, o_idx, o_cap = supply[0]
        o_left = o_cap
        neg_value, rank, idx, cap = demand[0]
        b_left = cap
        # Strict profitability: an equal-price pair never trades, which is
        # also what keeps a battery from matching its own discharge (cost
        # -x) against its own recharge (value -x).
        while -neg_value > cost:
            take = o_left if o_left < b_left else b_left
            # A flow filled by several takes can overshoot its cap by an
            # ulp (take1 + (cap - take1) need not round back to cap), so
            # every fill snaps the flow into its box.
            flows = sources[o_rank]
            f = flows[o_idx] + take
            flows[o_idx] = f if f < o_cap else o_cap
            flows = sinks[rank]
            f = flows[idx] + take
            flows[idx] = f if f < cap else cap
            if o_rank:
                objective += cost * take + neg_value * take
            else:
                objective += neg_value * take
                surplus_left -= take
                n_mandatory = j + 1
            o_left -= take
            b_left -= take
            if o_left <= 0.0:
                i += 1
                if i == len(supply):
                    break
                cost, o_rank, o_idx, o_cap = supply[i]
                o_left = o_cap
            if b_left <= 0.0:
                j += 1
                if j == len(demand):
                    break
                neg_value, rank, idx, cap = demand[j]
                b_left = cap
    if surplus_left > 0.0 and not allow_shortfall:
        return None, n_mandatory
    dispatch = Dispatch(q=q[0], s=s[0], r=tuple(r), d=tuple(d), p=tuple(p),
                        objective=objective, curtailed=surplus_left)
    return dispatch, n_mandatory


def merit_order_allocate(offers: list[Offer], bids: list[Bid],
                         n_batteries: int, n_residents: int,
                         allow_shortfall: bool = False) -> SubproblemResult:
    """Solve one sub-problem exactly by merit order.

    Phase one pours the mandatory surplus into bids by descending value,
    regardless of sign; if it does not fit, the sub-problem is infeasible
    unless allow_shortfall turns the leftover into curtailment. Phase two
    matches the cheapest remaining offer to the most valuable remaining bid
    while value strictly exceeds cost. The greedy sweep is exact here: as a
    function of total traded quantity the objective is convex piecewise
    linear, so the first unprofitable match ends the improvement.

    Ties are broken by the kind ranks and ascending index, making the
    allocation a pure function of its inputs. The books are mapped onto
    the sort-key tuples dispatch_slot builds directly and solved by the
    same kernel. A battery's discharge cost is expected to equal its
    recharge value, as in every book this package builds; strict matching
    then never pairs the two.
    """
    surplus = sum(o.capacity for o in offers if o.kind == OFFER_SURPLUS)
    supply = sorted((o.unit_cost, _OFFER_RANK[o.kind], o.index, o.capacity)
                    for o in offers
                    if o.kind != OFFER_SURPLUS and o.capacity > 0.0)
    if surplus > 0.0:
        supply.insert(0, (-math.inf, 0, -1, surplus))
    demand = sorted((-b.unit_value, _BID_RANK[b.kind], b.index, b.capacity)
                    for b in bids if b.capacity > 0.0)
    dispatch, n_mandatory = _allocate(supply, demand, n_batteries,
                                      n_residents, allow_shortfall)
    if dispatch is None:
        return SubproblemResult(feasible=False, dispatch=None,
                                objective=math.inf)
    return SubproblemResult(
        feasible=True, dispatch=dispatch, objective=dispatch.objective,
        mandatory_bids=tuple((_BID_KINDS[rank], i)
                             for _, rank, i, _ in demand[:n_mandatory]))


def dispatch_slot(system: SystemSpec, state: SystemState, obs: SlotObservation,
                  v: float, curtail: bool = False,
                  headroom_clamp: bool = True) -> Dispatch:
    """Solve both modes of the slot problem and return the better dispatch.

    The books are those of build_subproblem, built once as sort-key tuples
    and sorted once; each mode then inserts its own trade entry (the
    purchase offer or the sale bid) in merit order. On an exact objective
    tie a no-trade dispatch (neither buying nor selling) wins, then the
    purchase mode. If neither mode can absorb the surplus the slot is
    unservable; with curtail=True the excess is discarded at zero value and
    recorded on the dispatch instead.
    """
    g = system.grid
    supply, demand = _slot_books(system, state, obs, v, headroom_clamp)
    buy_supply = supply.copy()
    insort(buy_supply, (v * obs.c, 2, -1, g.q_max))
    pu = _allocate(buy_supply, demand, system.n_batteries,
                   system.n_residents, curtail)[0]
    insort(demand, (-(v * obs.w), 2, -1, g.s_max))
    se = _allocate(supply, demand, system.n_batteries,
                   system.n_residents, curtail)[0]
    if pu is None and se is None:
        raise UnservableSurplusError(
            f"slot {state.t}: surplus {surplus_power(obs)} kWh exceeds every "
            "sink; enable curtailment or resize the scenario")
    if se is None or (pu is not None and pu.objective < se.objective):
        return pu
    if pu is None or se.objective < pu.objective:
        return se
    if se.q == 0.0 and se.s == 0.0 and not (pu.q == 0.0 and pu.s == 0.0):
        return se
    return pu


def slot_objective(system: SystemSpec, state: SystemState, obs: SlotObservation,
                   v: float, dispatch: Dispatch) -> float:
    """Evaluate the per-slot scheduling objective for any dispatch.

    Trades are weighted by v, battery flows by their queue levels, quality
    service by backlog plus demand. Lower is better; the merit-order
    optimum minimizes exactly this.
    """
    val = v * (dispatch.q * obs.c - dispatch.s * obs.w)
    for k, (e, spec) in enumerate(zip(state.e, system.batteries)):
        x = battery_queue(e, spec, v, system.grid)
        val += x * (dispatch.r[k] - dispatch.d[k])
    for n, alpha in enumerate(obs.alpha):
        val -= (state.z[n] + alpha) * dispatch.p[n]
    return val


def threshold_violations(system: SystemSpec, state: SystemState,
                         obs: SlotObservation, v: float,
                         dispatch: Dispatch) -> list[str]:
    """Audit the threshold structure an optimal dispatch must show.

    All conditions are strict, so boundary ties are exempt. The
    unconditional checks: a battery whose queue sits above -v*w_min never
    recharges (selling would beat storing even at the floor price), one
    below -v*c_max never discharges (buying would beat draining even at the
    cap); a resident whose backlog exceeds v*c_max is served at least the
    guaranteed fraction, and one whose backlog sits below v*w_min -
    alpha_max gets nothing. Only those four claims hold unconditionally:
    between the price bounds, battery-to-battery transfers and backlog
    service justify flows in both directions. When the slot actually
    trades, the full two-sided structure holds at the realized price. The
    checks presume trade caps generous enough that the market side is never
    saturated; a grid sized below its own microgrid can force structurally
    different optima.
    """
    g = system.grid
    msgs: list[str] = []
    x = [battery_queue(e, spec, v, g)
         for e, spec in zip(state.e, system.batteries)]

    def battery_checks(price: float, label: str) -> None:
        for k in range(system.n_batteries):
            if x[k] > -v * price and dispatch.r[k] > 1e-12:
                msgs.append(
                    f"battery {k}: queue {x[k]} above {-v * price} ({label}) "
                    f"yet recharges {dispatch.r[k]}")
            if x[k] < -v * price and dispatch.d[k] > 1e-12:
                msgs.append(
                    f"battery {k}: queue {x[k]} below {-v * price} ({label}) "
                    f"yet discharges {dispatch.d[k]}")

    def resident_checks(price: float, label: str) -> None:
        for n, res in enumerate(system.residents):
            z = state.z[n]
            alpha = obs.alpha[n]
            floor = (1.0 - res.delta) * alpha
            if z > v * price - alpha and dispatch.p[n] < floor - 1e-9:
                msgs.append(
                    f"resident {n}: backlog {z} above {v * price - alpha} "
                    f"({label}) yet served {dispatch.p[n]} < {floor}")
            if z < v * price - alpha and dispatch.p[n] > 1e-12:
                msgs.append(
                    f"resident {n}: backlog {z} below {v * price - alpha} "
                    f"({label}) yet served {dispatch.p[n]}")

    for k in range(system.n_batteries):
        if x[k] > -v * g.w_min and dispatch.r[k] > 1e-12:
            msgs.append(
                f"battery {k}: queue {x[k]} above {-v * g.w_min} "
                f"(price-floor bound) yet recharges {dispatch.r[k]}")
        if x[k] < -v * g.c_max and dispatch.d[k] > 1e-12:
            msgs.append(
                f"battery {k}: queue {x[k]} below {-v * g.c_max} "
                f"(price-cap bound) yet discharges {dispatch.d[k]}")
    for n, res in enumerate(system.residents):
        z = state.z[n]
        alpha = obs.alpha[n]
        floor = (1.0 - res.delta) * alpha
        if z > v * g.c_max and dispatch.p[n] < floor - 1e-9:
            msgs.append(
                f"resident {n}: backlog {z} above {v * g.c_max} "
                f"(price-cap bound) yet served {dispatch.p[n]} < {floor}")
        if z < v * g.w_min - res.alpha_max and dispatch.p[n] > 1e-12:
            msgs.append(
                f"resident {n}: backlog {z} below {v * g.w_min - res.alpha_max} "
                f"(price-floor bound) yet served {dispatch.p[n]}")
    if dispatch.q > 0.0:
        battery_checks(obs.c, "at purchase price")
        resident_checks(obs.c, "at purchase price")
    if dispatch.s > 0.0:
        battery_checks(obs.w, "at sell price")
        resident_checks(obs.w, "at sell price")
    return msgs


def _grid_axis(lo: float, hi: float, step: float,
               anchors: tuple[float, ...] = ()) -> np.ndarray:
    """Grid of spacing step over [lo, hi], always containing lo, hi, anchors."""
    if hi < lo:
        raise ValueError(f"empty axis [{lo}, {hi}]")
    pts = np.arange(lo, hi, step)
    extras = [a for a in anchors if lo <= a <= hi]
    return np.unique(np.concatenate([pts, [lo, hi], extras]))


def oracle_solve(system: SystemSpec, state: SystemState, obs: SlotObservation,
                 v: float, grid_step: float) -> dict[str, SubproblemResult]:
    """Discretized brute-force solve of both modes, for cross-checking.

    Battery flows are enumerated as one net-flow axis per battery (negative
    means discharge), quality service on one axis per resident; the traded
    quantity is then the unique value closing the balance, so every
    candidate satisfies the balance exactly and the returned objective can
    never undercut the true optimum. Box endpoints and the zero flow are
    always grid points, which keeps the optimality gap within grid_step
    times the sum of absolute objective coefficients. Exponential in the
    number of axes, hence the dimension cap.
    """
    if system.n_batteries > 2 or system.n_residents > 2:
        raise ValueError("oracle handles at most 2 batteries and 2 residents")
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    g = system.grid
    p_surplus = surplus_power(obs)
    x = [battery_queue(e, spec, v, g)
         for e, spec in zip(state.e, system.batteries)]
    axes = []
    for e, spec in zip(state.e, system.batteries):
        d_cap = min(spec.d_max, e - spec.e_min)
        r_cap = min(spec.r_max, spec.e_max - e)
        axes.append(_grid_axis(-d_cap, r_cap, grid_step, anchors=(0.0,)))
    for alpha in obs.alpha:
        axes.append(_grid_axis(0.0, alpha, grid_step))
    cells = 1
    for a in axes:
        cells *= len(a)
    if cells > _ORACLE_CELL_CAP:
        raise ValueError(f"oracle grid of {cells} cells exceeds the cap")
    mesh = np.meshgrid(*axes, indexing="ij")
    flows = [m.ravel() for m in mesh]
    k_n = system.n_batteries
    net_batt = sum(flows[:k_n])
    served = sum(flows[k_n:])
    sinks = net_batt + served

    base = np.zeros_like(flows[0])
    for k in range(k_n):
        base = base + x[k] * flows[k]
    for n, alpha in enumerate(obs.alpha):
        base = base - (state.z[n] + alpha) * flows[k_n + n]

    def assemble(idx: int, q: float, s: float, objective: float) -> Dispatch:
        b = [float(flows[k][idx]) for k in range(k_n)]
        return Dispatch(
            q=q, s=s,
            r=tuple(bk if bk > 0.0 else 0.0 for bk in b),
            d=tuple(-bk if bk < 0.0 else 0.0 for bk in b),
            p=tuple(float(flows[k_n + n][idx])
                    for n in range(system.n_residents)),
            objective=objective)

    results: dict[str, SubproblemResult] = {}

    q = sinks - p_surplus
    ok = (q >= -1e-12) & (q <= g.q_max + 1e-12)
    if np.any(ok):
        q_cl = np.clip(q, 0.0, g.q_max)
        obj = base + v * obs.c * q_cl
        obj = np.where(ok, obj, np.inf)
        idx = int(np.argmin(obj))
        best = float(obj[idx])
        results[PURCHASE] = SubproblemResult(
            feasible=True,
            dispatch=assemble(idx, float(q_cl[idx]), 0.0, best),
            objective=best)
    else:
        results[PURCHASE] = SubproblemResult(feasible=False, dispatch=None,
                                             objective=math.inf)

    s = p_surplus - sinks
    ok = (s >= -1e-12) & (s <= g.s_max + 1e-12)
    if np.any(ok):
        s_cl = np.clip(s, 0.0, g.s_max)
        obj = base - v * obs.w * s_cl
        obj = np.where(ok, obj, np.inf)
        idx = int(np.argmin(obj))
        best = float(obj[idx])
        results[SELL] = SubproblemResult(
            feasible=True,
            dispatch=assemble(idx, 0.0, float(s_cl[idx]), best),
            objective=best)
    else:
        results[SELL] = SubproblemResult(feasible=False, dispatch=None,
                                         objective=math.inf)
    return results


def oracle_coefficient_sum(system: SystemSpec, state: SystemState,
                           obs: SlotObservation, v: float, mode: str) -> float:
    """Sum of absolute objective coefficients, sizing the oracle's gap."""
    g = system.grid
    total = v * (obs.c if mode == PURCHASE else obs.w)
    for e, spec in zip(state.e, system.batteries):
        total += 2.0 * abs(battery_queue(e, spec, v, g))
    for n, alpha in enumerate(obs.alpha):
        total += abs(state.z[n] + alpha)
    return total


def mecp_dispatch(system: SystemSpec, state: SystemState, obs: SlotObservation,
                  rng: np.random.Generator, block_prob: float,
                  charge_prob: float, v: float,
                  curtail: bool = False) -> Dispatch:
    """Randomized benchmark policy: block quality requests by coin toss.

    Each resident's quality request is dropped with probability block_prob.
    Surplus first serves the admitted requests; leftovers charge batteries
    in index order, then sell, and only then (with curtail) get discarded.
    Deficits discharge batteries in index order, then buy; if the purchase
    cap still leaves a gap, admitted residents are served in index order
    with what exists. Independently, a charge coin with probability
    charge_prob buys extra energy into batteries that did not discharge
    this slot. The dispatch's objective field is evaluated at v so runs
    stay comparable with the scheduler.
    """
    n_res = system.n_residents
    blocked = rng.random(n_res) < block_prob
    charge_coin = rng.random() < charge_prob
    p_surplus = surplus_power(obs)
    admitted = [0.0 if blocked[n] else obs.alpha[n] for n in range(n_res)]
    demand = sum(admitted)
    r = [0.0] * system.n_batteries
    d = [0.0] * system.n_batteries
    p = [0.0] * n_res
    q = 0.0
    s = 0.0
    curtailed = 0.0
    if p_surplus >= demand:
        p = list(admitted)
        excess = p_surplus - demand
        for k, (e, spec) in enumerate(zip(state.e, system.batteries)):
            if excess <= 0.0:
                break
            take = min(spec.r_max, spec.e_max - e, excess)
            if take > 0.0:
                r[k] = take
                excess -= take
        s = min(excess, system.grid.s_max)
        excess -= s
        if excess > 0.0:
            if not curtail:
                raise UnservableSurplusError(
                    f"slot {state.t}: benchmark policy cannot absorb "
                    f"{excess} kWh of surplus")
            curtailed = excess
    else:
        supply = p_surplus
        shortfall = demand - p_surplus
        for k, (e, spec) in enumerate(zip(state.e, system.batteries)):
            if shortfall <= 0.0:
                break
            take = min(spec.d_max, e - spec.e_min, shortfall)
            if take > 0.0:
                d[k] = take
                supply += take
                shortfall -= take
        if shortfall > 0.0:
            q = min(shortfall, system.grid.q_max)
            supply += q
            shortfall -= q
        if shortfall > 0.0:
            # Not enough energy for every admitted request: serve in index
            # order until supply runs out.
            left = supply
            for n in range(n_res):
                take = min(admitted[n], left)
                p[n] = take
                left -= take
        else:
            p = list(admitted)
    if charge_coin:
        budget = system.grid.q_max - q
        for k, (e, spec) in enumerate(zip(state.e, system.batteries)):
            if budget <= 0.0:
                break
            if d[k] > 0.0:
                continue
            room = min(spec.r_max - r[k], spec.e_max - e - r[k], budget)
            if room > 0.0:
                r[k] += room
                q += room
                budget -= room
    dispatch = Dispatch(q=q, s=s, r=tuple(r), d=tuple(d), p=tuple(p),
                        objective=0.0, curtailed=curtailed)
    objective = slot_objective(system, state, obs, v, dispatch)
    return Dispatch(q=q, s=s, r=tuple(r), d=tuple(d), p=tuple(p),
                    objective=objective, curtailed=curtailed)
