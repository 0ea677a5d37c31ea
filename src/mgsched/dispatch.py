"""Per-slot dispatch: exact merit-order solver, audits, and baselines.

Each slot poses a linear program: box-constrained flows (market purchase,
market sale, battery recharge/discharge, quality service) tied together by
a single supply/demand balance, with renewable surplus as a mandatory
supply that must be absorbed. It is solved exactly by merit order. Supply
is ranked by unit cost, demand by unit value, the surplus is poured into
the most valuable sinks first, and then supply and demand are matched
while the marginal unit is strictly profitable. Strict profitability is
what keeps a battery from trading with itself: its discharge cost equals
its own recharge value, so the pair never matches. No slot may both buy
and sell, and the sweep never does: the sell price w lies strictly below
the purchase price c, so it stops before the sale bid (value v*w) once
the purchase offer (cost v*c) has traded, and vice versa.

One kernel, merit_order_allocate, runs the sweep on sorted books of
sort-key tuples: supply (cost, rank, index, cap) and demand (-value, rank,
index, cap). Ranks break price ties as surplus, discharge, purchase on the
supply side and quality, recharge, sale on the demand side, then by
ascending index; system-level entries carry index -1. dispatch_slot sorts
the battery and quality entries once per slot and inserts both trade
entries; build_subproblem places them by a full sort instead, the
reference the tests hold that path to. merit_order_columns solves the
same sweep in closed form for many independent slot problems at once, one
per column, for the validate suites; the hindsight bound in sim has its
own closed form for all slots under fixed multipliers. The tests check
both against this kernel and against each other.

The module also ships an exact dual oracle that checks the allocator at
any size, one slot (oracle_solve) or a batch (oracle_columns) at a time,
structural audits of the optimum (threshold form of the solution), and a
randomized benchmark policy that blocks quality requests by coin toss
instead of solving anything.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import NamedTuple

import numpy as np

from .model import (
    Dispatch,
    SlotObservation,
    SystemSpec,
    SystemState,
    UnservableSurplusError,
    surplus_power,
    width_error,
)
from .queues import battery_queue

class SubproblemResult(NamedTuple):
    """One sweep's outcome; objective +inf and dispatch None if infeasible."""

    feasible: bool
    dispatch: Dispatch | None
    objective: float


def _slot_books(system: SystemSpec, state: SystemState, obs: SlotObservation,
                v: float, headroom_clamp: bool) -> tuple[list, list]:
    """The sorted supply and demand books without the trade entries.

    Batteries are priced by the negated battery queue, so a deeply
    discharged battery bids high to recharge and offers its discharge
    dearly, and quality bids by backlog plus demand, so long-unserved
    residents outbid the market. headroom_clamp also clamps the flow caps
    to the energy storable or extractable this slot; audits can turn it
    off to expose misparametrization instead of masking it. Entries
    without capacity are left out.
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


def build_subproblem(system: SystemSpec, state: SystemState,
                     obs: SlotObservation, v: float,
                     headroom_clamp: bool = True) -> tuple[list, list]:
    """The sorted (supply, demand) books of the slot problem.

    These are dispatch_slot's books: the battery and quality entries plus
    the purchase offer at v*c and the sale bid at v*w, placed by a full
    sort rather than by insertion.
    """
    supply, demand = _slot_books(system, state, obs, v, headroom_clamp)
    supply.append((v * obs.c, 2, -1, system.grid.q_max))
    demand.append((-(v * obs.w), 2, -1, system.grid.s_max))
    supply.sort()
    demand.sort()
    return supply, demand


def merit_order_allocate(offers: list[tuple], bids: list[tuple],
                         n_batteries: int, n_residents: int,
                         allow_shortfall: bool = False) -> SubproblemResult:
    """Solve one slot problem exactly by merit order on sorted books.

    offers is the supply book and bids the demand book. The surplus entry
    (cost -inf, rank 0) leads offers and is poured first, into bids of any
    sign and at no cost; if it does not fit, the result is infeasible
    unless allow_shortfall turns the leftover into curtailment. Then the
    cheapest offer is matched to the most valuable bid while value strictly
    exceeds cost. The greedy sweep is exact, as the objective is convex
    piecewise linear in the traded quantity.
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
    surplus_left = offers[0][3] if offers and offers[0][1] == 0 else 0.0
    if offers and bids:
        i = j = 0
        cost, o_rank, o_idx, o_cap = offers[0]
        o_left = o_cap
        neg_value, rank, idx, cap = bids[0]
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
            o_left -= take
            b_left -= take
            if o_left <= 0.0:
                i += 1
                if i == len(offers):
                    break
                cost, o_rank, o_idx, o_cap = offers[i]
                o_left = o_cap
            if b_left <= 0.0:
                j += 1
                if j == len(bids):
                    break
                neg_value, rank, idx, cap = bids[j]
                b_left = cap
    if surplus_left > 0.0 and not allow_shortfall:
        return SubproblemResult(False, None, math.inf)
    dispatch = Dispatch(q=q[0], s=s[0], r=tuple(r), d=tuple(d), p=tuple(p),
                        objective=objective, curtailed=surplus_left)
    return SubproblemResult(True, dispatch, objective)


def merit_order_columns(quality, alpha, x, r_cap, d_cap, surplus, c, w,
                        q_cap, s_cap):
    """Solve B independent slot problems at once, one per column.

    The arrays are entry-major, one row per resident or battery and one
    column per problem: quality (N, B) holds the quality bids' values
    z + alpha and alpha (N, B) their caps; x (K, B) the battery queues,
    which price recharge bids at value -x and discharge offers at cost -x,
    with caps r_cap and d_cap (K, B); surplus, c and w (B,) the surplus
    and the trade prices (v*c and v*w in the scheduler's units); q_cap
    and s_cap the trade caps, scalars or (B,). Caps must be >= 0, and an
    entry with cap 0 is inert, so problems of different sizes can share
    one array padded with zero-capacity entries.

    Each column's books are those merit_order_allocate sweeps: bids in
    rank order quality, recharge, sale and offers discharge, purchase, so
    a stable sort by price orders every column by the (key, rank, index)
    of the kernel's tuples. The sweep then has a closed form. A bid is
    filled up to the supply (surplus first) priced strictly below its
    value, less the demand queued ahead of it, and an offer up to the
    demand priced strictly above its cost, less the supply queued ahead
    of it. Both sides read those quantities off the same two prefix sums,
    so the strict comparisons reproduce the kernel's matching and
    tie-breaks, and q*s and r_k*d_k are exactly zero: a battery whose
    recharge is reached has its discharge queued behind supply that
    already covers every bid above its price, and likewise for the two
    trade entries while w <= c.

    Returns (objective, q, s, r, d, p, infeasible): objective, q, s and
    infeasible shaped (B,), r and d (K, B), p (N, B). infeasible flags the
    columns whose surplus exceeds every sink, sale cap included, by the
    kernel's own test (the surplus less each bid's cap in book order stays
    positive); their flows are those of a sweep that curtails the excess.
    """
    n_res, width = len(quality), len(surplus)
    value = np.concatenate([quality, -x, w[None]])
    b_cap = np.concatenate([alpha, r_cap,
                            np.broadcast_to(s_cap, (1, width))])
    cost = np.concatenate([-x, c[None]])
    o_cap = np.concatenate([d_cap, np.broadcast_to(q_cap, (1, width))])
    b_order = np.argsort(-value, axis=0, kind="stable")
    o_order = np.argsort(cost, axis=0, kind="stable")
    value = np.take_along_axis(value, b_order, 0)
    b_cap = np.take_along_axis(b_cap, b_order, 0)
    cost = np.take_along_axis(cost, o_order, 0)
    o_cap = np.take_along_axis(o_cap, o_order, 0)

    # Capacity queued ahead of each entry in its book, the surplus first
    # on the supply side; row i + 1 closes entry i.
    b_ahead = np.cumsum(np.vstack([np.zeros(width), b_cap]), axis=0)
    o_ahead = np.cumsum(np.vstack([surplus, o_cap]), axis=0)
    # The entries priced strictly better than a counterpart's price form a
    # prefix of their sorted book, so their capacity is a prefix sum.
    n_below = (cost[None] < value[:, None]).sum(1)
    n_above = (value[None] > cost[:, None]).sum(1)
    take = np.minimum(np.maximum(
        np.take_along_axis(o_ahead, n_below, 0) - b_ahead[:-1], 0.0), b_cap)
    give = np.minimum(np.maximum(
        np.take_along_axis(b_ahead, n_above, 0) - o_ahead[:-1], 0.0), o_cap)
    objective = (cost * give).sum(0) - (value * take).sum(0)
    left = np.cumsum(np.vstack([surplus, -b_cap]), axis=0)[-1]

    bids = np.empty_like(take)
    np.put_along_axis(bids, b_order, take, 0)
    offers = np.empty_like(give)
    np.put_along_axis(offers, o_order, give, 0)
    return (objective, offers[-1], bids[-1], bids[n_res:-1], offers[:-1],
            bids[:n_res], left > 0.0)


def dispatch_slot(system: SystemSpec, state: SystemState, obs: SlotObservation,
                  v: float, curtail: bool = False,
                  headroom_clamp: bool = True) -> Dispatch:
    """Solve the slot problem by one merit_order_allocate call.

    The books are _slot_books' with the purchase offer and the sale bid
    inserted; since w < c the sweep buys or sells, never both. If the
    surplus exceeds every sink, the sale cap included, the slot is
    unservable; with curtail=True the excess is discarded at zero value
    and recorded on the dispatch instead. An observation whose alpha does
    not hold one entry per resident raises ValueError naming the slot.
    """
    if len(obs.alpha) != len(system.residents):
        raise width_error(state.t, "alpha", len(obs.alpha),
                          len(system.residents))
    g = system.grid
    supply, demand = _slot_books(system, state, obs, v, headroom_clamp)
    insort(supply, (v * obs.c, 2, -1, g.q_max))
    insort(demand, (-(v * obs.w), 2, -1, g.s_max))
    result = merit_order_allocate(supply, demand, system.n_batteries,
                                  system.n_residents, curtail)
    if not result.feasible:
        raise UnservableSurplusError(
            f"slot {state.t}: surplus {surplus_power(obs)} kWh exceeds every "
            "sink; enable curtailment or resize the scenario")
    return result.dispatch


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

    def check(recharge_above: float, discharge_below: float,
              serve_above: list[float], block_below: list[float],
              label: str) -> None:
        for k, xk in enumerate(x):
            if xk > recharge_above and dispatch.r[k] > 1e-12:
                msgs.append(
                    f"battery {k}: queue {xk} above {recharge_above} "
                    f"({label}) yet recharges {dispatch.r[k]}")
            if xk < discharge_below and dispatch.d[k] > 1e-12:
                msgs.append(
                    f"battery {k}: queue {xk} below {discharge_below} "
                    f"({label}) yet discharges {dispatch.d[k]}")
        for n, res in enumerate(system.residents):
            z = state.z[n]
            floor = (1.0 - res.delta) * obs.alpha[n]
            if z > serve_above[n] and dispatch.p[n] < floor - 1e-9:
                msgs.append(
                    f"resident {n}: backlog {z} above {serve_above[n]} "
                    f"({label}) yet served {dispatch.p[n]} < {floor}")
            if z < block_below[n] and dispatch.p[n] > 1e-12:
                msgs.append(
                    f"resident {n}: backlog {z} below {block_below[n]} "
                    f"({label}) yet served {dispatch.p[n]}")

    check(-v * g.w_min, -v * g.c_max, [v * g.c_max] * len(obs.alpha),
          [v * g.w_min - res.alpha_max for res in system.residents],
          "price bounds")
    for traded, price, label in ((dispatch.q > 0.0, obs.c, "at purchase price"),
                                 (dispatch.s > 0.0, obs.w, "at sell price")):
        if traded:
            thresholds = [v * price - alpha for alpha in obs.alpha]
            check(-v * price, -v * price, thresholds, thresholds, label)
    return msgs


def oracle_solve(system: SystemSpec, state: SystemState, obs: SlotObservation,
                 v: float) -> float:
    """Exact optimum of the slot LP, by its Lagrangian dual.

    The LP minimizes the slot objective over box-bounded flows tied by one
    balance, surplus + supply = demand, with both trade entries present.
    Dualizing that balance at an energy price pi gives the concave
    piecewise-linear

        g(pi) = -pi*surplus - sum_demand cap*max(0, value - pi)
                            - sum_supply cap*max(0, pi - cost),

    whose kinks are the unit prices, v*c and v*w among them. By LP strong
    duality the optimum is the largest g at a kink; when the surplus
    exceeds the total sink capacity, s_max included, g grows without bound
    and the slot is infeasible (math.inf). The LP allows buying and
    selling at once, but since w < c an optimum never does both, so this
    is also the optimum of the exclusive slot problem. Prices and
    headroom-clamped caps are computed here from battery_queue, z + alpha,
    v*c and v*w, independently of the books the allocator uses, and
    oracle_columns evaluates the dual as a batch of one.
    """
    g = system.grid
    surplus = surplus_power(obs)
    demand = [(z + alpha, alpha) for z, alpha in zip(state.z, obs.alpha)]
    supply = []
    for e, spec in zip(state.e, system.batteries):
        x = battery_queue(e, spec, v, g)
        demand.append((-x, max(0.0, min(spec.r_max, spec.e_max - e))))
        supply.append((-x, max(0.0, min(spec.d_max, e - spec.e_min))))
    value, v_cap = np.array(demand + [(v * obs.w, g.s_max)]).T[:, :, None]
    cost, c_cap = np.array(supply + [(v * obs.c, g.q_max)]).T[:, :, None]
    return float(oracle_columns(value, v_cap, cost, c_cap,
                                np.array([surplus]))[0])


def oracle_columns(value, v_cap, cost, c_cap, surplus) -> np.ndarray:
    """oracle_solve's dual for B slot LPs at once, one per column.

    value and v_cap (M, B) are the demand entries' unit values and caps,
    cost and c_cap (L, B) the supply entries' unit costs and caps, trade
    entries included, and surplus (B,) each column's surplus; caps must be
    >= 0. Returns each column's optimum, math.inf where the surplus
    exceeds the column's demand caps. Only prices with capacity are
    kinks, and the entries' terms are subtracted one after another, so
    entries with cap 0 change no column's optimum: problems of different
    sizes can be padded into one batch.
    """
    pi = np.concatenate([value, cost])
    dual = -pi * surplus
    for price, cap in zip(value, v_cap):
        dual -= cap * np.maximum(0.0, price - pi)
    for price, cap in zip(cost, c_cap):
        dual -= cap * np.maximum(0.0, pi - price)
    dual[np.concatenate([v_cap, c_cap]) <= 0.0] = -math.inf
    optimum = dual.max(0)
    optimum[surplus > np.cumsum(v_cap, axis=0)[-1]] = math.inf
    return optimum


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
    stay comparable with the scheduler. An observation whose alpha does
    not hold one entry per resident raises ValueError naming the slot.
    """
    n_res = system.n_residents
    if len(obs.alpha) != n_res:
        raise width_error(state.t, "alpha", len(obs.alpha), n_res)
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
