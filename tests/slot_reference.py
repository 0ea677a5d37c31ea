"""Earlier bodies of the three steps of the scalar slot path.

The library builds a slot's books (dispatch._book_builder), sweeps them
(dispatch.merit_order_allocate) and advances the levels and backlogs
(sim._advance). These are those three bodies as they stood before the
sweep computed each entry's flow position once per entry and the backlog
step became one recurrence over the residents, kept so the tests can
check that the library's versions return the same books, rows and states
bit for bit, and fail with the same words.
"""

import math

from mgsched import SubproblemResult


def book_builder(system, v, headroom_clamp):
    """_book_builder: a builder (e, z, alpha, surplus, c, w) -> (supply,
    demand), both sorted as whole tuples."""
    g = system.grid
    q_max, s_max = g.q_max, g.s_max
    v_c_max = v * g.c_max
    specs = [(k, b.d_max, b.e_min, b.e_max, b.r_max)
             for k, b in enumerate(system.batteries)]

    def books(e, z, alpha, surplus, c, w):
        supply = [(-math.inf, 0, -1, surplus)] if surplus > 0.0 else []
        demand = [(-(zn + an), 0, n, an)
                  for n, (zn, an) in enumerate(zip(z, alpha)) if an > 0.0]
        for level, (k, d_max, e_min, e_max, r_max) in zip(e, specs):
            x = level - d_max - e_min - v_c_max
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
        supply.sort()
        demand.sort()
        return supply, demand

    return books


def merit_order_allocate(offers, bids, n_batteries, n_residents,
                         allow_shortfall=False):
    """merit_order_allocate, looking up both entries' flow positions on
    every take and accumulating the surplus's own outflow."""
    k = 2 + n_batteries
    flows = [0.0] * (k + n_batteries + n_residents + 2)
    source_at = (0, k, 1)
    sink_at = (k + n_batteries, 2, 2)
    objective = 0.0
    surplus_left = offers[0][3] if offers and offers[0][1] == 0 else 0.0
    if offers and bids:
        i = j = 0
        cost, o_rank, o_idx, o_cap = offers[0]
        o_left = o_cap
        neg_value, rank, idx, cap = bids[0]
        b_left = cap
        while -neg_value > cost:
            take = o_left if o_left < b_left else b_left
            at = source_at[o_rank] + o_idx
            f = flows[at] + take
            flows[at] = f if f < o_cap else o_cap
            at = sink_at[rank] + idx
            f = flows[at] + take
            flows[at] = f if f < cap else cap
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
    flows[-2] = objective
    flows[-1] = surplus_left
    return SubproblemResult(True, tuple(flows), objective)


def update_qose_queue(z, alpha, p, delta):
    """update_qose_queue for one resident, checked argument by argument."""
    if z < 0.0:
        raise ValueError(f"queue level {z} is negative")
    if alpha < 0.0:
        raise ValueError(f"quality demand {alpha} is negative")
    if p < 0.0:
        raise ValueError(f"service {p} is negative")
    if p > alpha:
        if p > alpha + 1e-9:
            raise ValueError(f"service {p} exceeds demand {alpha}")
        p = alpha
    drained = z - delta * alpha
    if drained < 0.0:
        drained = 0.0
    return drained + (alpha - p)


def advance(e, z, alpha, r, d, p, deltas):
    """_advance: the levels e - d + r and one update_qose_queue call per
    resident."""
    return (tuple([level - out + into for level, out, into
                   in zip(e, d, r)]),
            tuple(map(update_qose_queue, z, alpha, p, deltas)))
