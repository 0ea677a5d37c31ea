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
ascending index; system-level entries carry index -1. slot_solver
prepares one system's slot problem at a given v, reading its specs once,
and then solves each slot from its levels, backlogs, quality requests,
surplus and prices, with one sort per book, trade entries included, and
one kernel call; run() and the bound suite build one per run and feed it
the trace's columns. The kernel and the solver return
a slot's decision as one flat flow row, (q, s, r_1..r_K, d_1..d_K,
p_1..p_N, objective, curtailed), which the simulator's slot loop keeps
as numbers; _row_dispatch builds a Dispatch from a row only where one is
shown. dispatch_slot (one slot's decision, as a Dispatch) and
build_subproblem (one slot's books) are thin wrappers over the solver,
so the books have one builder. merit_order_columns solves the
same sweep in closed form for many independent slot problems at once, one
per column, for the validate suites; the hindsight bound in sim has its
own closed form for all slots under fixed multipliers. The tests check
both against this kernel and against each other.

The module also ships an exact dual oracle that checks the allocator at
any size, one slot (oracle_solve) or a batch (oracle_columns, on the
batch books merit_order_columns takes) at a time, and a randomized
benchmark policy that blocks quality requests by coin toss instead of
solving anything. mecp_solver prepares that policy once per run, as
slot_solver prepares the scheduler, and returns the same flow rows; it
takes the run's coins as one (T, N + 1) block drawn before slot 0, so
run() builds no per-slot object for it either. mecp_dispatch (one slot's
decision, as a Dispatch, from N + 1 coins it draws) wraps the same rule.
Each per-slot guarantee is audited, and worded, from one fault list.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import itemgetter, or_
from typing import NamedTuple

import numpy as np

from .model import (
    _BASIC_USAGE,
    BALANCE_TOL,
    Dispatch,
    SlotObservation,
    SystemSpec,
    SystemState,
    UnservableSurplusError,
    ordered_sum,
    surplus_power,
    width_error,
)
from .queues import battery_queue

class SubproblemResult(NamedTuple):
    """One sweep's outcome; flows (the flow row) None and objective +inf
    if infeasible."""

    feasible: bool
    flows: tuple[float, ...] | None
    objective: float


def _flow_slices(n_batteries: int) -> tuple[slice, slice, slice]:
    """Where r, d and p sit in a flow row (q, s, r_1..r_K, d_1..d_K,
    p_1..p_N, objective, curtailed) with K = n_batteries."""
    k = 2 + n_batteries
    return slice(2, k), slice(k, k + n_batteries), slice(k + n_batteries, -2)


def _row_dispatch(row, n_batteries: int) -> Dispatch:
    """The Dispatch of a flow row of a system with n_batteries batteries."""
    r, d, p = _flow_slices(n_batteries)
    return Dispatch(row[0], row[1], tuple(row[r]), tuple(row[d]),
                    tuple(row[p]), row[-2], row[-1])


def _dispatch_row(x: Dispatch) -> tuple[float, ...]:
    """The flow row of a Dispatch; _row_dispatch's inverse."""
    return (x.q, x.s, *x.r, *x.d, *x.p, x.objective, x.curtailed)


def _book_builder(system: SystemSpec, v: float, headroom_clamp: bool):
    """Prepare system's slot books at v: a builder (e, z, alpha, surplus,
    c, w) -> (supply, demand), both sorted, from levels e, backlogs z and
    one slot's quality requests, surplus and prices.

    Batteries are priced by the negated battery queue, so a deeply
    discharged battery bids high to recharge and offers its discharge
    dearly, and quality bids by backlog plus demand, so long-unserved
    residents outbid the market. The purchase offer at v*c and the sale
    bid at v*w join each book before its one sort, a stable sort on price
    alone: entries are appended in (rank, index) order, which price ties
    keep, as a sort of the whole tuples would. headroom_clamp also clamps
    the flow caps to the energy storable or extractable this slot; audits
    can turn it off to expose misparametrization instead of masking it.
    Entries without capacity are left out. Each battery's limits, the
    trade caps and v*c_max are read once, here.
    """
    g = system.grid
    q_max, s_max = g.q_max, g.s_max
    v_c_max = v * g.c_max
    specs = [(k, b.d_max, b.e_min, b.e_max, b.r_max)
             for k, b in enumerate(system.batteries)]
    price = itemgetter(0)

    def books(e, z, alpha, surplus: float, c: float,
              w: float) -> tuple[list, list]:
        supply = [(-math.inf, 0, -1, surplus)] if surplus > 0.0 else []
        demand = [(-(zn + an), 0, n, an)
                  for n, (zn, an) in enumerate(zip(z, alpha)) if an > 0.0]
        for level, (k, d_max, e_min, e_max, r_max) in zip(e, specs):
            # battery_queue(level, spec, v, grid), in its order of operations.
            x = level - d_max - e_min - v_c_max
            # A clamped cap is min(cap, headroom): the headroom only where
            # it is strictly smaller.
            headroom = level - e_min
            d_cap = headroom if headroom_clamp and headroom < d_max else d_max
            headroom = e_max - level
            r_cap = headroom if headroom_clamp and headroom < r_max else r_max
            if d_cap > 0.0:
                supply.append((-x, 1, k, d_cap))
            if r_cap > 0.0:
                demand.append((x, 1, k, r_cap))
        supply.append((v * c, 2, -1, q_max))
        demand.append((-(v * w), 2, -1, s_max))
        supply.sort(key=price)
        demand.sort(key=price)
        return supply, demand

    return books


def slot_solver(system: SystemSpec, v: float, curtail: bool = False,
                headroom_clamp: bool = True):
    """Prepare system's slot problem at v: a solver (e, z, alpha, surplus,
    c, w, t) -> flow row for levels e and backlogs z at slot t, whose
    quality requests are alpha, whose surplus (surplus_power's value) is
    surplus and whose prices are c and w; the row is the one
    merit_order_allocate returns.

    Each call builds the books and makes one merit_order_allocate call;
    since w < c the sweep buys or sells, never both. If the surplus
    exceeds every sink, the sale cap included, the slot is unservable;
    with curtail=True the excess is discarded at zero value and recorded
    in the row instead. An alpha that does not hold one entry per
    resident raises ValueError naming slot t.
    """
    books = _book_builder(system, v, headroom_clamp)
    n_bat, n_res = len(system.batteries), len(system.residents)

    def solve(e, z, alpha, surplus: float, c: float, w: float,
              t: int) -> tuple[float, ...]:
        if len(alpha) != n_res:
            raise width_error(t, "alpha", len(alpha), n_res)
        supply, demand = books(e, z, alpha, surplus, c, w)
        result = merit_order_allocate(supply, demand, n_bat, n_res, curtail)
        if not result.feasible:
            raise UnservableSurplusError(
                f"slot {t}: surplus {surplus} kWh exceeds every "
                "sink; enable curtailment or resize the scenario")
        return result.flows

    return solve


def build_subproblem(system: SystemSpec, state: SystemState,
                     obs: SlotObservation, v: float,
                     headroom_clamp: bool = True) -> tuple[list, list]:
    """The sorted (supply, demand) books that dispatch_slot sweeps: the
    battery and quality entries plus the purchase offer at v*c and the
    sale bid at v*w."""
    return _book_builder(system, v, headroom_clamp)(
        state.e, state.z, obs.alpha, surplus_power(obs), obs.c, obs.w)


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
    piecewise linear in the traded quantity. It finds an entry's place in
    the row once, on reaching it, and keeps no flow for the surplus.

    Returns (feasible, flows, objective). flows is one flat row (q, s,
    r_1..r_K, d_1..d_K, p_1..p_N, objective, curtailed) with K =
    n_batteries and N = n_residents, curtailed being the leftover surplus
    (0.0 unless allow_shortfall); it is None when infeasible.
    """
    k = 2 + n_batteries
    flows = [0.0] * (k + n_batteries + n_residents + 2)
    # Where an entry's index lands in flows, by rank: surplus, discharge,
    # purchase on the supply side and quality, recharge, sale on the
    # demand side. System-level entries carry index -1, so the purchase
    # lands in q and the sale in s. The surplus's own outflow is not
    # kept: its slot, the last, holds the curtailment at the end.
    source_at = (0, k, 1)
    sink_at = (k + n_batteries, 2, 2)
    objective = 0.0
    surplus_left = offers[0][3] if offers and offers[0][1] == 0 else 0.0
    if offers and bids:
        i = j = 0
        n_offers, n_bids = len(offers), len(bids)
        cost, o_rank, o_idx, o_cap = offers[0]
        o_at, o_left = source_at[o_rank] + o_idx, o_cap
        neg_value, rank, idx, cap = bids[0]
        b_at, b_left = sink_at[rank] + idx, cap
        # Strict profitability: an equal-price pair never trades, which is
        # also what keeps a battery from matching its own discharge (cost
        # -x) against its own recharge (value -x).
        while -neg_value > cost:
            take = o_left if o_left < b_left else b_left
            # A flow filled by several takes can overshoot its cap by an
            # ulp (take1 + (cap - take1) need not round back to cap), so
            # every fill snaps the flow into its box.
            f = flows[b_at] + take
            flows[b_at] = f if f < cap else cap
            if o_rank:
                f = flows[o_at] + take
                flows[o_at] = f if f < o_cap else o_cap
                objective += cost * take + neg_value * take
            else:
                objective += neg_value * take
                surplus_left -= take
            o_left -= take
            b_left -= take
            if o_left <= 0.0:
                i += 1
                if i == n_offers:
                    break
                cost, o_rank, o_idx, o_cap = offers[i]
                o_at, o_left = source_at[o_rank] + o_idx, o_cap
            if b_left <= 0.0:
                j += 1
                if j == n_bids:
                    break
                neg_value, rank, idx, cap = bids[j]
                b_at, b_left = sink_at[rank] + idx, cap
    if surplus_left > 0.0 and not allow_shortfall:
        return SubproblemResult(False, None, math.inf)
    flows[-2] = objective
    flows[-1] = surplus_left
    return SubproblemResult(True, tuple(flows), objective)


def merit_order_columns(value, v_cap, cost, c_cap, surplus):
    """Solve B independent slot problems at once, one per column.

    The arguments are oracle_columns', in the batch book layout: bids
    value and v_cap (N + K + 1, B), the N quality rows (values z + alpha,
    caps alpha), the K recharge rows (values -x, x the battery queues),
    then the sale row (v*w, s_max); offers cost and c_cap (K + 1, B), the
    K discharge rows (costs -x), then the purchase row (v*c, q_max); and
    surplus (B,). N is len(value) - len(cost). Caps must be >= 0, and an
    entry with cap 0 is inert, so problems of different sizes can share
    one array padded with zero-capacity entries.

    Each column's books are those merit_order_allocate sweeps, and the
    rows are in the kernel's rank order, so a stable sort by price orders
    every column by the (key, rank, index) of the kernel's tuples. The
    sweep then has a closed form. A bid is filled up to the supply
    (surplus first) priced strictly below its value, less the demand
    queued ahead of it, and an offer up to the demand priced strictly
    above its cost, less the supply queued ahead of it. Both sides read
    those quantities off the same two prefix sums, so the strict
    comparisons reproduce the kernel's matching and tie-breaks, and q*s
    and r_k*d_k are exactly zero: a battery whose recharge is reached has
    its discharge queued behind supply that already covers every bid
    above its price, and likewise for the two trade entries while w <= c.

    Returns (objective, q, s, r, d, p, infeasible): objective, q, s and
    infeasible shaped (B,), r and d (K, B), p (N, B). infeasible flags the
    columns whose surplus exceeds every sink, sale cap included, by the
    kernel's own test (the surplus less each bid's cap in book order stays
    positive); their flows are those of a sweep that curtails the excess.
    """
    n_res = len(value) - len(cost)
    b_order = np.argsort(-value, axis=0, kind="stable")
    o_order = np.argsort(cost, axis=0, kind="stable")
    value = np.take_along_axis(value, b_order, 0)
    v_cap = np.take_along_axis(v_cap, b_order, 0)
    cost = np.take_along_axis(cost, o_order, 0)
    c_cap = np.take_along_axis(c_cap, o_order, 0)

    # Capacity queued ahead of each entry in its book, the surplus first
    # on the supply side; row i + 1 closes entry i.
    b_ahead = np.cumsum(np.vstack([np.zeros_like(surplus), v_cap]), axis=0)
    o_ahead = np.cumsum(np.vstack([surplus, c_cap]), axis=0)
    # The entries priced strictly better than a counterpart's price form a
    # prefix of their sorted book, so their capacity is a prefix sum.
    n_below = (cost[None] < value[:, None]).sum(1)
    n_above = (value[None] > cost[:, None]).sum(1)
    take = np.minimum(np.maximum(
        np.take_along_axis(o_ahead, n_below, 0) - b_ahead[:-1], 0.0), v_cap)
    give = np.minimum(np.maximum(
        np.take_along_axis(b_ahead, n_above, 0) - o_ahead[:-1], 0.0), c_cap)
    objective = (cost * give).sum(0) - (value * take).sum(0)
    left = np.cumsum(np.vstack([surplus, -v_cap]), axis=0)[-1]

    bids = np.empty_like(take)
    np.put_along_axis(bids, b_order, take, 0)
    offers = np.empty_like(give)
    np.put_along_axis(offers, o_order, give, 0)
    return (objective, offers[-1], bids[-1], bids[n_res:-1], offers[:-1],
            bids[:n_res], left > 0.0)


def dispatch_slot(system: SystemSpec, state: SystemState, obs: SlotObservation,
                  v: float, curtail: bool = False,
                  headroom_clamp: bool = True) -> Dispatch:
    """Solve one slot problem with a slot_solver prepared for it alone."""
    return _row_dispatch(slot_solver(system, v, curtail, headroom_clamp)(
        state.e, state.z, obs.alpha, surplus_power(obs), obs.c, obs.w,
        state.t), len(system.batteries))


def _row_total(a: np.ndarray) -> np.ndarray:
    # Adds each row (last axis) left to right, as np.cumsum and ordered_sum
    # do; a.sum(axis=-1) adds pairwise from 8 columns on. Not adding in
    # place keeps cumsum's bits, NaNs' too; [()] makes a 1-D total scalar.
    total = a[..., 0].copy()
    for column in range(1, a.shape[-1]):
        total = total + a[..., column]
    return total[()]


def _fault_rows(faults):
    """Flag each slot that some fault of faults flags (see _fault_words)."""
    flags = {}  # the masks ORed by shape, so each shape's any() runs once
    for mask in [mask for group in faults for mask, _, _ in group]:
        flags[mask.shape] = flags.get(mask.shape, False) | mask
    return reduce(or_, [f if f.ndim == 1 else f.any(1)
                        for f in flags.values()], False)


def _fault_words(faults, t: int) -> list[str]:
    """The messages of the faults that flag slot t, in their order.

    A guarantee's faults are one list of groups of (mask, text, values):
    mask flags slots (T,) or slot entities (T, M), one shape per group,
    and text formats the values' entries where it flags, {i} naming the
    entity. The groups are walked in order, each entity by entity.
    """
    words = []
    for group in faults:
        shape = group[0][0].shape
        for at in ((t, *entity) for entity in np.ndindex(shape[1:])):
            words += [text.format(*(np.broadcast_to(x, shape)[at].item()
                                    for x in values), i=at[-1])
                      for mask, text, values in group if mask[at]]
    return words


def _limits(system: SystemSpec):
    """system's specs as the rows the fault lists read, and validate's
    blocks hold per slot: BatterySpec fields (K, 5), (delta, alpha_max)
    (N, 2) and GridSpec fields (6,)."""
    g = system.grid
    return (np.array([(b.e_min, b.e_max, b.r_max, b.d_max, b.e_init)
                      for b in system.batteries]),
            np.array([(res.delta, res.alpha_max) for res in system.residents]),
            np.array([g.q_max, g.s_max, g.c_min, g.c_max, g.w_min, g.w_max]))


def _finite_faults(u, basic, alpha, c, w):
    """A fault per observation field, u, c and w (T,) and basic and alpha
    (T, N): a value that is NaN or infinite."""
    names = ("generation {}", "basic[{i}] = {}", "alpha[{i}] = {}",
             "purchase price {}", "sell price {}")
    return [[(~np.isfinite(x), name + " is not finite", (x,))]
            for name, x in zip(names, (u, basic, alpha, c, w))]


def _basic_usage_faults(u, basic):
    """The basic-usage fault of T slots, u (T,) and basic (T, N) arrays: a
    basic total above generation."""
    # + 0.0 makes ordered_sum's total of -0.0 requests, which starts from
    # 0; inf and -inf requests add to a NaN, which needs no warning.
    with np.errstate(invalid="ignore"):
        total = _row_total(basic) + 0.0
    return [[(total > u, _BASIC_USAGE, (total, u))]]


def _observation_faults(u, basic, alpha, c, w, limits):
    """The observation faults of T slots, shaped as for _finite_faults or
    as lists, against a system's _limits: a value not finite, then each
    bound of the system model."""
    u, basic, alpha, c, w = (np.asarray(x, dtype=float)
                             for x in (u, basic, alpha, c, w))
    alpha_max = limits[1][:, 1]
    c_min, c_max, w_min, w_max = limits[2][2:]

    def band(name, x, lo, hi):
        return (~((lo <= x) & (x <= hi)), name + " {} outside [{}, {}]",
                (x, lo, hi))

    return _finite_faults(u, basic, alpha, c, w) + [
        [(u < 0.0, "generation {} is negative", (u,))],
        [(basic < 0.0, "basic[{i}] = {} is negative", (basic,))],
        [(alpha < 0.0, "alpha[{i}] = {} is negative", (alpha,)),
         (alpha > alpha_max, "alpha[{i}] = {} exceeds alpha_max {}",
          (alpha, alpha_max))],
        *_basic_usage_faults(u, basic),
        [band("purchase price", c, c_min, c_max)],
        [band("sell price", w, w_min, w_max)],
        [(w >= c, "sell price {} not strictly below purchase price {}",
          (w, c))]]


def _balance_faults(flows, surplus, alpha, limits):
    """The balance faults of T slots' flow rows (T, 2K + N + 4), and their
    exclusivity (T,), against surplus (T,), alpha (T, N) and _limits, one
    system's or one per slot. Boxes and the residual allow BALANCE_TOL of
    dust and flag any value not within, a NaN too; q*s and r_k*d_k must
    be exactly zero, as the solver makes them. Padding flags nothing."""
    flows, surplus, alpha = (np.asarray(x, dtype=float)
                             for x in (flows, surplus, alpha))
    batteries, _, grid = limits
    q, s, curtailed = flows[:, 0], flows[:, 1], flows[:, -1]
    r, d, p = (flows[:, at] for at in _flow_slices(batteries.shape[-2]))
    tol = BALANCE_TOL

    def box(name, x, hi):
        return (~((-tol <= x) & (x <= hi + tol)), name + " {} outside [0, {}]",
                (x, hi))

    # An infinite flow makes NaNs (inf * 0, inf - inf) that the masks
    # flag; numpy need not warn of them.
    with np.errstate(invalid="ignore"):
        both, flips = q * s != 0.0, r * d != 0.0
        residual = (surplus - curtailed + q + _row_total(d) - s
                    - _row_total(r) - _row_total(p))
    return [
        [box("purchase", q, grid[..., 0])], [box("sale", s, grid[..., 1])],
        [(both, "purchase {} and sale {} both active", (q, s))],
        [box("recharge[{i}] =", r, batteries[..., 2]),
         box("discharge[{i}] =", d, batteries[..., 3]),
         (flips, "battery {i} recharges {} and discharges {} in one slot",
          (r, d))],
        [box("service[{i}] =", p, alpha)],
        [(curtailed < -tol, "curtailed {} is negative", (curtailed,))],
        [(~(np.abs(residual) <= tol * np.maximum(surplus, 1.0)),
          "balance residual {} for surplus {}", (residual, surplus))],
    ], both | flips.any(1)


def _threshold_faults(v, flows, alpha, c, w, e, z, limits):
    """The threshold faults of T slots' flow rows at v (broadcast against
    (T, 1)), shaped as for _balance_faults, with c and w (T,) and the
    levels e (T, K) and backlogs z (T, N) each slot starts from.

    All conditions are strict, so ties are exempt. At the "price bounds",
    which always hold, a battery whose queue sits above -v*w_min never
    recharges, one below -v*c_max never discharges, a resident whose
    backlog exceeds v*c_max gets at least (1 - delta)*alpha, and one below
    v*w_min - alpha_max gets nothing. A slot that trades keeps all four
    "at purchase price" or "at sell price", each bid z + alpha set against
    v*price as the sweep sets it, so a bid rounding onto the price ties.
    Each label lists batteries, then residents; padding flags nothing.
    """
    batteries, residents, grid = limits
    r, d, p = (flows[:, at] for at in _flow_slices(batteries.shape[-2]))
    c_max, w_min = grid[..., 3, None], grid[..., 4, None]
    # battery_queue's arithmetic.
    x = e - batteries[..., 3] - batteries[..., 0] - v * c_max
    floor = (1.0 - residents[..., 0]) * alpha
    recharges, discharges = r > 1e-12, d > 1e-12
    short, served = p < floor - 1e-9, p > 1e-12

    def label(name, gate, noun, bids, above, below, serve, block):
        then = f" ({name}) yet "
        queue, bid = "battery {i}: queue {} ", f"resident {{i}}: {noun} {{}} "
        return [
            [(gate & (x > above) & recharges,
              queue + "above {}" + then + "recharges {}", (x, above, r)),
             (gate & (x < below) & discharges,
              queue + "below {}" + then + "discharges {}", (x, below, d))],
            [(gate & (bids > serve) & short,
              bid + "above {}" + then + "served {} < {}",
              (bids, serve, p, floor)),
             (gate & (bids < block) & served,
              bid + "below {}" + then + "served {}", (bids, block, p))]]

    faults = label("price bounds", True, "backlog", z, -v * w_min,
                   -v * c_max, v * c_max, v * w_min - residents[..., 1])
    for traded, price, name in ((flows[:, 0] > 0.0, c, "at purchase price"),
                                (flows[:, 1] > 0.0, w, "at sell price")):
        at_price = v * price[:, None]
        faults += label(name, traded[:, None], "quality bid", z + alpha,
                        -at_price, -at_price, at_price, at_price)
    return faults


def threshold_violations(system: SystemSpec, state: SystemState,
                         obs: SlotObservation, v: float,
                         dispatch: Dispatch) -> list[str]:
    """Audit the threshold structure an optimal dispatch must show: the
    words of _threshold_faults for this one slot, which presume trade
    caps that never saturate; a smaller grid can force other optima."""
    rows = map(np.array, ([_dispatch_row(dispatch)], [obs.alpha], [obs.c],
                          [obs.w], [state.e], [state.z]))
    return _fault_words(_threshold_faults(v, *rows, _limits(system)), 0)


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
    >= 0. Any row order will do, so merit_order_columns' arrays serve
    here unchanged. Returns each column's optimum, math.inf where the
    surplus exceeds the column's demand caps. Only prices with capacity
    are kinks, and the entries' terms are subtracted one after another,
    so entries with cap 0 change no column's optimum: problems of
    different sizes can be padded into one batch.
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


def _fill(amount: float, caps: list[float]) -> tuple[list[float], float]:
    """Fill caps in index order, each with min(cap, left), and return the
    fills and what is left of amount. A fill that would not be positive is
    0.0, so once nothing is left every later fill is 0.0."""
    fills = []
    for cap in caps:
        # min(cap, amount) without the call, which cost ~10% of a mecp slot.
        take = amount if amount < cap else cap
        if take > 0.0:
            amount -= take
        else:
            take = 0.0
        fills.append(take)
    return fills, amount


def _mecp_rule(system: SystemSpec, block_prob: float, charge_prob: float,
               v: float, curtail: bool):
    """Prepare the benchmark policy's rule for system at v: a function
    (e, z, alpha, surplus, c, w, t, coins) -> flow row of one slot, whose
    coins are the slot's N + 1 draws, blocking coins first. Each
    battery's limits and the trade caps are read once, here; the
    arguments are not checked."""
    n_res = len(system.residents)
    grid = system.grid
    q_max, s_max = grid.q_max, grid.s_max
    v_c_max = v * grid.c_max
    specs = [(b.r_max, b.d_max, b.e_min, b.e_max) for b in system.batteries]
    idle = [0.0] * len(specs)

    def decide(e, z, alpha, surplus: float, c: float, w: float, t: int,
               coins) -> tuple[float, ...]:
        admitted = [0.0 if coin < block_prob else request
                    for coin, request in zip(coins, alpha)]
        demand = ordered_sum(admitted)
        p = admitted
        r = d = idle
        q = s = curtailed = 0.0
        if surplus >= demand:
            r, excess = _fill(surplus - demand, [
                min(r_max, e_max - level)
                for level, (r_max, _, _, e_max) in zip(e, specs)])
            s = min(excess, s_max)
            excess -= s
            if excess > 0.0:
                if not curtail:
                    raise UnservableSurplusError(
                        f"slot {t}: benchmark policy cannot absorb "
                        f"{excess} kWh of surplus")
                curtailed = excess
        else:
            d, shortfall = _fill(demand - surplus, [
                min(d_max, level - e_min)
                for level, (_, d_max, e_min, _) in zip(e, specs)])
            if shortfall > 0.0:
                q = min(shortfall, q_max)
                if shortfall - q > 0.0:
                    p, _ = _fill(ordered_sum([surplus, *d, q]), admitted)
        if coins[n_res] < charge_prob:
            top_up, _ = _fill(q_max - q, [
                0.0 if dk > 0.0 else min(r_max - rk, e_max - level - rk)
                for level, (r_max, _, _, e_max), rk, dk
                in zip(e, specs, r, d)])
            r = [rk + fill for rk, fill in zip(r, top_up)]
            q = ordered_sum([q, *top_up])
        objective = v * (q * c - s * w)
        for level, (_, d_max, e_min, _), rk, dk in zip(e, specs, r, d):
            # battery_queue(level, spec, v, grid), in its order of operations.
            objective += (level - d_max - e_min - v_c_max) * (rk - dk)
        for zn, an, pn in zip(z, alpha, p):
            objective -= (zn + an) * pn
        return (q, s, *r, *d, *p, objective, curtailed)

    return decide


def mecp_solver(system: SystemSpec, coins, block_prob: float,
                charge_prob: float, v: float, curtail: bool = False):
    """Prepare the randomized benchmark policy for one run: a solver (e, z,
    alpha, surplus, c, w, t) -> flow row, the row slot_solver returns,
    whose coins at slot t are row t of coins.

    coins is a (T, N + 1) array of uniform draws on [0, 1), one row per
    slot: the blocking coins of residents 0..N-1, then the charge coin.
    run draws it before slot 0 as one block, which holds the same numbers
    as T successive mecp_dispatch draws from the same generator. The
    solver reads the battery limits and trade caps once and takes the
    slot's surplus (surplus_power's value) as given, so a slot builds no
    state, observation or Dispatch; its rows equal mecp_dispatch's
    Dispatch flattened. An alpha that does not hold one entry per
    resident raises ValueError naming slot t, and surplus that the
    policy cannot absorb without curtail raises UnservableSurplusError,
    in mecp_dispatch's words.
    """
    n_res = len(system.residents)
    coins = np.asarray(coins, dtype=float)
    if coins.ndim != 2 or coins.shape[1] != n_res + 1:
        raise ValueError(
            f"coins must hold {n_res + 1} columns, one per resident and a "
            f"charge coin, got shape {coins.shape}")
    rows = coins.tolist()
    decide = _mecp_rule(system, block_prob, charge_prob, v, curtail)

    def solve(e, z, alpha, surplus: float, c: float, w: float,
              t: int) -> tuple[float, ...]:
        if len(alpha) != n_res:
            raise width_error(t, "alpha", len(alpha), n_res)
        return decide(e, z, alpha, surplus, c, w, t, rows[t])

    return solve


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
    this slot, in index order up to the purchase cap. The dispatch's
    objective field is the scheduling objective at v, so runs stay
    comparable with the scheduler: trades weighted by v, battery flows by
    their queue levels, quality service by backlog plus demand. An
    observation whose alpha does not hold one entry per resident raises
    ValueError naming the slot, before any coin is drawn.

    Each call draws rng.random(n_residents + 1): the blocking coins of
    residents 0..N-1 in order, then the charge coin. This is the one-slot
    wrapper of the rule mecp_solver prepares; run prepares that solver
    once per run and draws the run's coins as one block.
    """
    n_res = len(system.residents)
    if len(obs.alpha) != n_res:
        raise width_error(state.t, "alpha", len(obs.alpha), n_res)
    coins = rng.random(n_res + 1).tolist()
    row = _mecp_rule(system, block_prob, charge_prob, v, curtail)(
        state.e, state.z, obs.alpha, surplus_power(obs), obs.c, obs.w,
        state.t, coins)
    return _row_dispatch(row, len(system.batteries))
