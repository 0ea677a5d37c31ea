"""Row-at-a-time references of the three per-slot audits.

The library writes each guarantee once, as an ordered fault list over
stacked slots (dispatch._observation_faults, _balance_faults and
_threshold_faults). These are the same checks written one slot at a time
in plain Python, so the tests can compare the library's masks and
messages with an independent reading of each guarantee: every message
text, its values and their order within a slot.
"""

import math

from mgsched import BALANCE_TOL, battery_queue, surplus_power
from mgsched.model import ordered_sum


def validate_observation(obs, system):
    """validate_observation's messages for one observation."""
    n = system.n_residents
    problems = [f"{name} has {len(values)} entries, expected {n}"
                for name, values in (("basic", obs.basic), ("alpha", obs.alpha))
                if len(values) != n]
    if problems:
        return problems
    fields = ([("generation", obs.u)]
              + [(f"basic[{i}] =", b) for i, b in enumerate(obs.basic)]
              + [(f"alpha[{i}] =", a) for i, a in enumerate(obs.alpha)]
              + [("purchase price", obs.c), ("sell price", obs.w)])
    for name, value in fields:
        if not math.isfinite(value):
            problems.append(f"{name} {value} is not finite")
    if obs.u < 0.0:
        problems.append(f"generation {obs.u} is negative")
    for i, b in enumerate(obs.basic):
        if b < 0.0:
            problems.append(f"basic[{i}] = {b} is negative")
    for i, (a, spec) in enumerate(zip(obs.alpha, system.residents)):
        if a < 0.0:
            problems.append(f"alpha[{i}] = {a} is negative")
        elif a > spec.alpha_max:
            problems.append(f"alpha[{i}] = {a} exceeds alpha_max {spec.alpha_max}")
    total_basic = ordered_sum(obs.basic)
    if total_basic > obs.u:
        problems.append(
            f"basic usage {total_basic} exceeds generation {obs.u}; "
            "the basic-usage guarantee admits no such slot")
    g = system.grid
    if not g.c_min <= obs.c <= g.c_max:
        problems.append(f"purchase price {obs.c} outside [{g.c_min}, {g.c_max}]")
    if not g.w_min <= obs.w <= g.w_max:
        problems.append(f"sell price {obs.w} outside [{g.w_min}, {g.w_max}]")
    if obs.w >= obs.c:
        problems.append(f"sell price {obs.w} not strictly below purchase price {obs.c}")
    return problems


def check_dispatch(dispatch, system, obs):
    """check_dispatch's messages for one dispatch."""
    k, n = system.n_batteries, system.n_residents
    problems = [f"{name} has {len(values)} entries, expected {size}"
                for name, values, size in (("r", dispatch.r, k),
                                           ("d", dispatch.d, k),
                                           ("p", dispatch.p, n),
                                           ("alpha", obs.alpha, n))
                if len(values) != size]
    if problems:
        return problems
    g = system.grid
    tol = BALANCE_TOL
    if not -tol <= dispatch.q <= g.q_max + tol:
        problems.append(f"purchase {dispatch.q} outside [0, {g.q_max}]")
    if not -tol <= dispatch.s <= g.s_max + tol:
        problems.append(f"sale {dispatch.s} outside [0, {g.s_max}]")
    if dispatch.q * dispatch.s != 0.0:
        problems.append(f"purchase {dispatch.q} and sale {dispatch.s} both active")
    for k, (r, d, spec) in enumerate(zip(dispatch.r, dispatch.d, system.batteries)):
        if not -tol <= r <= spec.r_max + tol:
            problems.append(f"recharge[{k}] = {r} outside [0, {spec.r_max}]")
        if not -tol <= d <= spec.d_max + tol:
            problems.append(f"discharge[{k}] = {d} outside [0, {spec.d_max}]")
        if r * d != 0.0:
            problems.append(f"battery {k} recharges {r} and discharges {d} in one slot")
    for n, (p, a) in enumerate(zip(dispatch.p, obs.alpha)):
        if not -tol <= p <= a + tol:
            problems.append(f"service[{n}] = {p} outside [0, {a}]")
    if dispatch.curtailed < -tol:
        problems.append(f"curtailed {dispatch.curtailed} is negative")
    surplus = surplus_power(obs)
    residual = (surplus - dispatch.curtailed + dispatch.q
                + ordered_sum(dispatch.d) - dispatch.s
                - ordered_sum(dispatch.r) - ordered_sum(dispatch.p))
    if not abs(residual) <= tol * max(1.0, surplus):
        problems.append(f"balance residual {residual} for surplus {surplus}")
    return problems


def threshold_violations(system, state, obs, v, dispatch):
    """threshold_violations' messages for one dispatch."""
    g = system.grid
    msgs = []
    x = [battery_queue(e, spec, v, g)
         for e, spec in zip(state.e, system.batteries)]

    def check(recharge_above, discharge_below, serve_above, block_below,
              label, bids, name):
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
            b = bids[n]
            floor = (1.0 - res.delta) * obs.alpha[n]
            if b > serve_above[n] and dispatch.p[n] < floor - 1e-9:
                msgs.append(
                    f"resident {n}: {name} {b} above {serve_above[n]} "
                    f"({label}) yet served {dispatch.p[n]} < {floor}")
            if b < block_below[n] and dispatch.p[n] > 1e-12:
                msgs.append(
                    f"resident {n}: {name} {b} below {block_below[n]} "
                    f"({label}) yet served {dispatch.p[n]}")

    check(-v * g.w_min, -v * g.c_max, [v * g.c_max] * len(obs.alpha),
          [v * g.w_min - res.alpha_max for res in system.residents],
          "price bounds", state.z, "backlog")
    bids = tuple(z + alpha for z, alpha in zip(state.z, obs.alpha))
    for traded, price, label in ((dispatch.q > 0.0, obs.c, "at purchase price"),
                                 (dispatch.s > 0.0, obs.w, "at sell price")):
        if traded:
            at_price = [v * price] * len(bids)
            check(-v * price, -v * price, at_price, at_price, label, bids,
                  "quality bid")
    return msgs
