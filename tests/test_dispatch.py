import math
from bisect import insort
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsched import (
    RunConfig,
    SlotObservation,
    SystemState,
    UnservableSurplusError,
    battery_queue,
    build_subproblem,
    check_dispatch,
    compute_vmax,
    dispatch_slot,
    generate_traces,
    load_config,
    mecp_dispatch,
    mecp_solver,
    merit_order_allocate,
    merit_order_columns,
    oracle_columns,
    oracle_solve,
    random_system,
    run,
    slot_solver,
    surplus_power,
    threshold_violations,
)
from mgsched import dispatch
from mgsched.dispatch import _dispatch_row, _row_dispatch
from mgsched.model import ordered_sum

from conftest import make_system, random_states

FIVE_DAY = Path(__file__).resolve().parent.parent / "configs" / "five_day.yaml"


def obs_of(u, alpha, c=0.10, w=0.03, basic=None):
    n = len(alpha)
    if basic is None:
        basic = (0.0,) * n
    return SlotObservation(u=u, basic=tuple(basic), alpha=tuple(alpha), c=c, w=w)


# The reference slot problem used throughout: battery level 3 kWh at v=60
# puts the battery queue at 3 - 2 - 6 = -5, a backlog of 6 plus a request
# of 2 prices the quality bid at 8, and the purchase offer costs v*c = 6.
# Its exact optimum discharges 1 kWh and serves the full request:
# objective 5*1 - 8*2 = -11.
V_REF = 60.0


def reference_slot():
    system = make_system()
    state = SystemState(t=0, e=(3.0,), z=(6.0,))
    obs = obs_of(1.0, (2.0,), c=0.10, w=1.0 / 30.0)
    return system, state, obs


def slot_objective(system, state, obs, v, dispatch):
    """The per-slot scheduling objective of any dispatch, evaluated entry by
    entry: trades weighted by v, battery flows by their queues, quality
    service by backlog plus demand. The merit-order optimum minimizes it."""
    g = system.grid
    val = v * (dispatch.q * obs.c - dispatch.s * obs.w)
    for e, spec, r, d in zip(state.e, system.batteries, dispatch.r,
                             dispatch.d):
        val += battery_queue(e, spec, v, g) * (r - d)
    for z, alpha, p in zip(state.z, obs.alpha, dispatch.p):
        val -= (z + alpha) * p
    return val


def reference_books(system, state, obs, v, headroom_clamp=True):
    """The slot's books, built from the spec objects one slot at a time:
    the battery and quality entries sorted, then both trade entries
    inserted by bisection."""
    g = system.grid
    surplus = surplus_power(obs)
    supply = [(-math.inf, 0, -1, surplus)] if surplus > 0.0 else []
    demand = [(-(z + alpha), 0, n, alpha)
              for n, (z, alpha) in enumerate(zip(state.z, obs.alpha))
              if alpha > 0.0]
    for k, (e, spec) in enumerate(zip(state.e, system.batteries)):
        x = battery_queue(e, spec, v, g)
        d_cap, r_cap = spec.d_max, spec.r_max
        if headroom_clamp:
            d_cap = min(d_cap, e - spec.e_min)
            r_cap = min(r_cap, spec.e_max - e)
        if d_cap > 0.0:
            supply.append((-x, 1, k, d_cap))
        if r_cap > 0.0:
            demand.append((x, 1, k, r_cap))
    supply.sort()
    demand.sort()
    insort(supply, (v * obs.c, 2, -1, g.q_max))
    insort(demand, (-(v * obs.w), 2, -1, g.s_max))
    return supply, demand


def pick_by_full_sort(system, state, obs, v, curtail=False,
                      headroom_clamp=True):
    """dispatch_slot's result, rebuilt from build_subproblem's books.

    Returns None where dispatch_slot must raise UnservableSurplusError.
    """
    return allocated(merit_order_allocate(
        *build_subproblem(system, state, obs, v,
                          headroom_clamp=headroom_clamp),
        system.n_batteries, system.n_residents,
        allow_shortfall=curtail), system.n_batteries)


def allocated(result, n_batteries):
    """The Dispatch of merit_order_allocate's flow row; None if infeasible."""
    return None if result.flows is None else _row_dispatch(result.flows,
                                                           n_batteries)


class TestBuildSubproblem:
    """Books are sorted (cost, rank, index, cap) supply and (-value, rank,
    index, cap) demand tuples; rank 0 is the surplus or a quality bid, 1 a
    battery entry, 2 a trade entry."""

    def test_books_hold_both_trade_entries(self):
        system, state, obs = reference_slot()
        supply, demand = build_subproblem(system, state, obs, V_REF)
        assert supply == [(-math.inf, 0, -1, pytest.approx(1.0)),
                          (pytest.approx(5.0), 1, 0, pytest.approx(2.0)),
                          (pytest.approx(6.0), 2, -1, pytest.approx(25.0))]
        assert demand == [(pytest.approx(-8.0), 0, 0, pytest.approx(2.0)),
                          (pytest.approx(-5.0), 1, 0, pytest.approx(2.0)),
                          (pytest.approx(-2.0), 2, -1, pytest.approx(25.0))]

    def test_headroom_clamp(self):
        system = make_system()
        state = SystemState(t=0, e=(15.5,), z=(0.0,))
        obs = obs_of(0.0, (0.0,))
        for clamp, cap in ((True, 0.5), (False, 2.0)):
            _, demand = build_subproblem(system, state, obs, 150.0,
                                         headroom_clamp=clamp)
            recharge = next(entry for entry in demand if entry[1] == 1)
            assert recharge[3] == pytest.approx(cap)


class TestMeritOrderAllocate:
    """Raw-book instances with hand-checked optima."""

    def _reference_books(self, surplus=1.0):
        supply = [(-math.inf, 0, -1, surplus), (5.0, 1, 0, 2.0),
                  (6.0, 2, -1, 10.0)]
        demand = [(-8.0, 0, 0, 2.0), (-5.0, 1, 0, 2.0)]
        return supply, demand

    def test_reference_optimum(self):
        supply, demand = self._reference_books()
        result = merit_order_allocate(supply, demand, 1, 1)
        assert result.feasible
        assert result.objective == pytest.approx(-11.0)
        # The row: q, s, r_1, d_1, p_1, objective, curtailed.
        assert result.flows == pytest.approx(
            (0.0, 0.0, 0.0, 1.0, 2.0, -11.0, 0.0))
        dd = allocated(result, 1)
        assert dd.q == 0.0
        assert dd.s == 0.0
        assert dd.d == pytest.approx((1.0,))
        assert dd.r == (0.0,)
        assert dd.p == pytest.approx((2.0,))

    def test_no_profitable_match_is_all_zero(self):
        result = merit_order_allocate([(5.0, 1, 0, 2.0)], [(-3.0, 1, 0, 2.0)],
                                      1, 1)
        assert result.feasible
        assert result.objective == 0.0
        assert allocated(result, 1).r == (0.0,)
        assert allocated(result, 1).d == (0.0,)

    def test_unabsorbable_surplus_is_infeasible(self):
        # purchase mode: bid capacity 2 + 2 = 4 cannot take 10
        supply, demand = self._reference_books(surplus=10.0)
        result = merit_order_allocate(supply, demand, 1, 1)
        assert not result.feasible
        assert result.flows is None
        assert result.objective == math.inf

    def test_shortfall_becomes_curtailment(self):
        supply, demand = self._reference_books(surplus=10.0)
        result = merit_order_allocate(supply, demand, 1, 1,
                                      allow_shortfall=True)
        assert result.feasible
        dd = allocated(result, 1)
        assert dd.p == pytest.approx((2.0,))
        assert dd.r == pytest.approx((2.0,))
        assert dd.curtailed == pytest.approx(6.0)

    def test_mandatory_pour_accepts_negative_value(self):
        result = merit_order_allocate([(-math.inf, 0, -1, 1.0)],
                                      [(4.0, 1, 0, 3.0)], 1, 1)
        assert result.feasible
        assert allocated(result, 1).r == pytest.approx((1.0,))
        assert result.objective == pytest.approx(4.0)

    def test_price_tie_broken_by_index(self):
        demand = sorted([(-5.0, 1, 1, 2.0), (-5.0, 1, 0, 2.0)])
        result = merit_order_allocate([(-math.inf, 0, -1, 1.0)], demand, 2, 1)
        assert allocated(result, 2).r == pytest.approx((1.0, 0.0))

    def test_offer_tie_broken_by_index(self):
        supply = sorted([(3.0, 1, 1, 1.0), (3.0, 1, 0, 1.0)])
        result = merit_order_allocate(supply, [(-8.0, 0, 0, 1.5)], 2, 1)
        assert allocated(result, 2).d == pytest.approx((1.0, 0.5))
        assert allocated(result, 2).p == pytest.approx((1.5,))

    def test_battery_never_trades_with_itself(self):
        result = merit_order_allocate([(5.0, 1, 0, 2.0)], [(-5.0, 1, 0, 2.0)],
                                      1, 1)
        assert allocated(result, 1).r == (0.0,)
        assert allocated(result, 1).d == (0.0,)
        assert result.objective == 0.0


class TestDispatchSlot:
    def test_reference_slot_end_to_end(self):
        system, state, obs = reference_slot()
        dd = dispatch_slot(system, state, obs, V_REF)
        assert dd.q == 0.0
        assert dd.s == 0.0
        assert dd.d == pytest.approx((1.0,))
        assert dd.p == pytest.approx((2.0,))
        assert dd.objective == pytest.approx(-11.0)
        assert check_dispatch(dd, system, obs) == []
        assert threshold_violations(system, state, obs, V_REF, dd) == []

    def test_dead_band_slot_is_inert(self):
        # queue -9 sits strictly between -v*c_max=-15 and -v*w_min=-3, no
        # surplus, no demand: nothing trades.
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        obs = obs_of(0.0, (0.0,), c=0.10, w=0.02)
        dd = dispatch_slot(system, state, obs, 150.0)
        assert dd.q == dd.s == 0.0
        assert dd.r == (0.0,) and dd.d == (0.0,)
        assert dd.p == (0.0,)
        assert dd.objective == 0.0

    def test_surplus_sold_when_storage_unattractive(self):
        # level 14 kWh puts the queue exactly at -v*w_min, so storing and
        # selling tie at value v*w per kWh; the 10 kWh surplus splits over
        # the two sinks and the objective equals selling all of it.
        system = make_system()
        state = SystemState(t=0, e=(14.0,), z=(0.0,))
        obs = obs_of(10.0, (0.0,), c=0.10, w=0.02)
        v = 150.0
        dd = dispatch_slot(system, state, obs, v)
        assert dd.objective == pytest.approx(-10.0 * v * 0.02)
        assert dd.q == 0.0
        assert dd.d == (0.0,)
        assert dd.s + dd.r[0] == pytest.approx(10.0)
        assert dd.r == pytest.approx((2.0,))
        assert dd.s == pytest.approx(8.0)
        assert check_dispatch(dd, system, obs) == []
        assert threshold_violations(system, state, obs, v, dd) == []

    def test_unservable_surplus_raises(self):
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        obs = obs_of(100.0, (0.0,), c=0.10, w=0.02)
        with pytest.raises(UnservableSurplusError):
            dispatch_slot(system, state, obs, 150.0)

    def test_curtailment_absorbs_the_rest(self):
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        obs = obs_of(100.0, (0.0,), c=0.10, w=0.02)
        dd = dispatch_slot(system, state, obs, 150.0, curtail=True)
        assert dd.s == pytest.approx(25.0)
        assert dd.r == pytest.approx((2.0,))
        assert dd.curtailed == pytest.approx(73.0)
        assert check_dispatch(dd, system, obs) == []

    def test_zero_sell_price_sells_before_curtailing(self):
        # At w = 0 a sale earns nothing, but curtailment is only for the
        # surplus left once every sink, the sale cap included, is full.
        system = make_system(w_min=0.0)
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        obs = obs_of(100.0, (0.0,), c=0.10, w=0.0)
        dd = dispatch_slot(system, state, obs, 150.0, curtail=True)
        assert dd.s == 25.0
        assert dd.r == (2.0,)
        assert dd.curtailed == 73.0
        assert check_dispatch(dd, system, obs) == []

    def test_deterministic(self):
        system, state, obs = reference_slot()
        assert dispatch_slot(system, state, obs, V_REF) == dispatch_slot(
            system, state, obs, V_REF)

    def test_run_goes_through_the_public_kernel(self, monkeypatch):
        # run() must solve every slot with one merit_order_allocate call,
        # so what the tests and the oracle suite check is what runs.
        calls = []
        kernel = dispatch.merit_order_allocate

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(dispatch, "merit_order_allocate", counted)
        config = replace(load_config(str(FIVE_DAY)), horizon=20)
        summary = run(config, generate_traces(config), keep_records=False)[1]
        assert summary.slots == 20
        assert len(calls) == 20


class TestObservationWidths:
    @pytest.mark.parametrize("width", [4, 6])
    @pytest.mark.parametrize("policy", ["dispatch_slot", "mecp_dispatch"])
    def test_misshaped_alpha_names_the_slot(self, policy, width):
        config = load_config(str(FIVE_DAY))
        obs = generate_traces(config)[2]
        obs = replace(obs, alpha=(0.1,) * width)
        state = SystemState(t=2, e=tuple(b.e_init for b in config.batteries),
                            z=(0.0,) * 5)
        solve = {"dispatch_slot": lambda: dispatch_slot(
                     config.system, state, obs, 10.0),
                 "mecp_dispatch": lambda: mecp_dispatch(
                     config.system, state, obs, np.random.default_rng(0),
                     0.07, 0.5, 10.0)}[policy]
        with pytest.raises(ValueError) as err:
            solve()
        assert str(err.value) == (
            f"slot 2: observation alpha has {width} entries, expected 5")


class TestTradeEntryTieBreaks:
    """dispatch_slot inserts the trade entries into the sorted books; at an
    equal price each must rank after the battery and quality entries, as
    the rank tables order a full sort. At v=10 the battery
    queue is e - 3, so these levels and prices tie exactly."""

    V = 10.0

    def test_purchase_offer_after_equal_priced_discharge(self):
        system = make_system()
        state = SystemState(t=0, e=(2.5,), z=(10.0,))
        obs = obs_of(0.0, (2.5,), c=0.05, w=0.03)
        spec = system.batteries[0]
        assert -battery_queue(2.5, spec, self.V, system.grid) == self.V * obs.c
        dd = dispatch_slot(system, state, obs, self.V)
        # Discharge serves first at the tied price; the purchase covers the
        # 0.5 kWh the 2 kWh discharge cap leaves of the 2.5 kWh request.
        assert dd.d == (2.0,)
        assert dd.q == 0.5
        assert dd.p == (2.5,)
        assert dd == pick_by_full_sort(system, state, obs, self.V)

    def test_sale_bid_after_equal_valued_quality_and_recharge(self):
        system = make_system()
        state = SystemState(t=0, e=(2.75,), z=(0.0,))
        obs = obs_of(3.0, (0.25,), c=0.05, w=0.025)
        spec = system.batteries[0]
        sale_value = self.V * obs.w
        assert -battery_queue(2.75, spec, self.V, system.grid) == sale_value
        assert state.z[0] + obs.alpha[0] == sale_value
        dd = dispatch_slot(system, state, obs, self.V)
        # The 3 kWh surplus fills the quality request, then the recharge
        # cap, and only the rest is sold.
        assert dd.p == (0.25,)
        assert dd.r == (2.0,)
        assert dd.s == 0.75
        assert dd.d == (0.0,)
        assert dd == pick_by_full_sort(system, state, obs, self.V)


class TestThresholdAudit:
    def _dispatch(self, q=0.0, s=0.0, r=(0.0,), d=(0.0,), p=(0.0,)):
        from mgsched import Dispatch
        return Dispatch(q=q, s=s, r=r, d=d, p=p, objective=0.0)

    def test_recharge_above_floor_flagged(self):
        system = make_system()
        state = SystemState(t=0, e=(16.0,), z=(0.0,))     # x = -1 > -3
        obs = obs_of(0.5, (0.0,), c=0.10, w=0.02)
        msgs = threshold_violations(system, state, obs, 150.0,
                                    self._dispatch(r=(0.5,)))
        assert any("recharges" in m for m in msgs)

    def test_discharge_below_cap_flagged(self):
        system = make_system()
        state = SystemState(t=0, e=(0.0,), z=(0.0,))      # x = -17 < -15
        obs = obs_of(0.0, (0.0,), c=0.10, w=0.02)
        msgs = threshold_violations(system, state, obs, 150.0,
                                    self._dispatch(d=(0.5,), s=0.0))
        assert any("discharges" in m for m in msgs)

    def test_high_backlog_must_be_served(self):
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(16.0,))     # z > v*c_max = 15
        obs = obs_of(2.0, (2.0,), c=0.10, w=0.02)
        msgs = threshold_violations(system, state, obs, 150.0,
                                    self._dispatch(p=(0.0,)))
        assert any("served" in m for m in msgs)

    def test_low_backlog_must_get_nothing(self):
        system = make_system()
        # z = 0.2 < v*w_min - alpha_max = 3 - 2.5 = 0.5
        state = SystemState(t=0, e=(8.0,), z=(0.2,))
        obs = obs_of(1.0, (1.0,), c=0.10, w=0.02)
        msgs = threshold_violations(system, state, obs, 150.0,
                                    self._dispatch(p=(0.1,)))
        assert any("served" in m for m in msgs)

    def test_boundary_ties_exempt(self):
        system = make_system()
        # x = -v*w_min and z = v*c_max exactly: strict checks stay silent
        state = SystemState(t=0, e=(14.0,), z=(15.0,))
        obs = obs_of(1.0, (1.0,), c=0.10, w=0.02)
        msgs = threshold_violations(system, state, obs, 150.0,
                                    self._dispatch(r=(1.0,), p=(0.0,)))
        assert msgs == []

    def test_realized_price_checks_when_buying(self):
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(0.0,))      # x = -9
        obs = obs_of(0.0, (0.0,), c=0.05, w=0.02)          # v*c = 7.5
        msgs = threshold_violations(system, state, obs, 150.0,
                                    self._dispatch(q=0.5, d=(0.5,)))
        assert any("purchase price" in m for m in msgs)

    def test_clean_run_of_random_slots(self):
        system = make_system()
        rng = np.random.default_rng(5)
        bad = 0
        for _ in range(300):
            state = SystemState(
                t=0, e=(float(rng.uniform(0.0, 16.0)),),
                z=(float(rng.uniform(0.0, 17.5)),))
            obs = obs_of(float(rng.uniform(0.0, 8.0)),
                         (float(rng.uniform(0.0, 2.5)),),
                         c=float(rng.uniform(0.05, 0.10)),
                         w=float(rng.uniform(0.02, 0.04)))
            v = float(rng.uniform(45.0, 150.0))
            dd = dispatch_slot(system, state, obs, v)
            bad += len(threshold_violations(system, state, obs, v, dd))
            bad += len(check_dispatch(dd, system, obs))
        assert bad == 0


class TestOracle:
    def test_reference_slot_is_exact(self):
        system, state, obs = reference_slot()
        assert oracle_solve(system, state, obs, V_REF) == -11.0
        assert dispatch_slot(system, state, obs, V_REF).objective == -11.0

    def test_inert_slot_is_exactly_zero(self):
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        obs = obs_of(0.0, (0.0,), c=0.10, w=0.02)
        assert oracle_solve(system, state, obs, 150.0) == 0.0

    def test_infeasibility_detected(self):
        # 10 kWh of surplus, no demand, 2 kWh of recharge headroom: only a
        # sale can close the balance, recharging 2 kWh at value 3 and
        # selling 8 kWh at v*w = 3. 100 kWh overflow the 25 kWh sale cap.
        system = make_system()
        state = SystemState(t=0, e=(14.0,), z=(0.0,))
        obs = obs_of(10.0, (0.0,), c=0.10, w=0.02)
        assert oracle_solve(system, state, obs, 150.0) == -30.0
        obs = obs_of(100.0, (0.0,), c=0.10, w=0.02)
        assert oracle_solve(system, state, obs, 150.0) == math.inf

    @pytest.mark.parametrize("level,u,z", [
        (-1.0, 0.0, 10.0),   # no discharge: only a purchase can supply
        (17.0, 1.5, 6.0),    # no recharge: only the 2 kWh request sinks
    ])
    def test_levels_outside_the_band_clamp_caps_to_zero(self, level, u, z):
        system = make_system()
        state = SystemState(t=0, e=(level,), z=(z,))
        obs = obs_of(u, (2.0,), c=0.10, w=1.0 / 30.0)
        merit = merit_order_allocate(
            *build_subproblem(system, state, obs, V_REF), 1, 1)
        assert merit.feasible
        assert merit.objective == pytest.approx(
            oracle_solve(system, state, obs, V_REF), rel=1e-12)


class TestMecp:
    def test_block_everything(self):
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        obs = obs_of(0.0, (2.0,), c=0.08, w=0.03)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(0),
                           block_prob=1.0, charge_prob=0.0, v=150.0)
        assert dd.p == (0.0,)
        assert dd.q == 0.0 and dd.s == 0.0

    def test_surplus_serves_then_sells_when_full(self):
        system = make_system()
        state = SystemState(t=0, e=(16.0,), z=(0.0,))
        obs = obs_of(5.0, (2.0,), c=0.08, w=0.03)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(0),
                           block_prob=0.0, charge_prob=1.0, v=150.0)
        assert dd.p == pytest.approx((2.0,))
        assert dd.s == pytest.approx(3.0)
        assert dd.q == 0.0
        assert dd.r == (0.0,)

    def test_deficit_buys_when_batteries_empty(self):
        system = make_system(n_residents=2)
        state = SystemState(t=0, e=(0.0,), z=(0.0, 0.0))
        obs = obs_of(0.0, (1.5, 1.5), c=0.08, w=0.03)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(0),
                           block_prob=0.0, charge_prob=0.0, v=150.0)
        assert dd.p == pytest.approx((1.5, 1.5))
        assert dd.q == pytest.approx(3.0)
        assert dd.d == (0.0,)

    def test_charge_coin_buys_extra(self):
        system = make_system(n_residents=2)
        state = SystemState(t=0, e=(0.0,), z=(0.0, 0.0))
        obs = obs_of(0.0, (1.5, 1.5), c=0.08, w=0.03)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(0),
                           block_prob=0.0, charge_prob=1.0, v=150.0)
        assert dd.q == pytest.approx(5.0)
        assert dd.r == pytest.approx((2.0,))

    @pytest.mark.parametrize("level, served", [(0.0, (1.0, 0.0)),
                                               (1.0, (1.5, 0.5))])
    def test_purchase_cap_serves_admitted_requests_in_index_order(
            self, level, served):
        # Discharge plus the 1 kWh purchase cap cannot cover 3 kWh of
        # requests, so what exists goes to resident 0 first.
        system = make_system(n_residents=2, q_max=1.0)
        state = SystemState(t=0, e=(level,), z=(0.0, 0.0))
        obs = obs_of(0.0, (1.5, 1.5), c=0.08, w=0.03)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(0),
                           block_prob=0.0, charge_prob=0.0, v=150.0)
        assert dd.p == served
        assert dd.q == 1.0
        assert dd.d == (level,)
        assert check_dispatch(dd, system, obs) == []

    def test_surplus_past_batteries_and_sale_cap_is_curtailed_or_refused(
            self):
        system = make_system(s_max=1.0)
        state = SystemState(t=7, e=(15.0,), z=(0.0,))
        obs = obs_of(5.0, (2.0,), c=0.08, w=0.03)
        with pytest.raises(UnservableSurplusError, match=r"^slot 7: "):
            mecp_dispatch(system, state, obs, np.random.default_rng(0),
                          block_prob=0.0, charge_prob=0.0, v=150.0)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(0),
                           block_prob=0.0, charge_prob=0.0, v=150.0,
                           curtail=True)
        assert dd.r == (1.0,)
        assert dd.s == 1.0
        assert dd.curtailed == 1.0
        assert check_dispatch(dd, system, obs) == []

    def test_charge_coin_skips_a_discharging_battery_and_stops_at_q_max(
            self):
        system = make_system(n_batteries=3, q_max=3.0)
        state = SystemState(t=0, e=(2.0, 8.0, 8.0), z=(0.0,))
        obs = obs_of(0.0, (2.0,), c=0.08, w=0.03)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(0),
                           block_prob=0.0, charge_prob=1.0, v=150.0)
        assert dd.d == (2.0, 0.0, 0.0)
        assert dd.r == (0.0, 2.0, 1.0)
        assert dd.q == 3.0
        assert check_dispatch(dd, system, obs) == []

    def test_objective_field_matches_evaluation(self):
        system = make_system()
        state = SystemState(t=0, e=(5.0,), z=(3.0,))
        obs = obs_of(1.0, (2.0,), c=0.08, w=0.03)
        dd = mecp_dispatch(system, state, obs, np.random.default_rng(3),
                           block_prob=0.5, charge_prob=0.5, v=150.0)
        assert dd.objective == pytest.approx(
            slot_objective(system, state, obs, 150.0, dd))

    def test_deterministic_under_same_stream(self):
        system = make_system()
        state = SystemState(t=0, e=(5.0,), z=(3.0,))
        obs = obs_of(1.0, (2.0,), c=0.08, w=0.03)
        a = mecp_dispatch(system, state, obs, np.random.default_rng(11),
                          block_prob=0.4, charge_prob=0.6, v=150.0)
        b = mecp_dispatch(system, state, obs, np.random.default_rng(11),
                          block_prob=0.4, charge_prob=0.6, v=150.0)
        assert a == b

    @pytest.mark.parametrize("n_res", [1, 5, 20])
    def test_one_call_draws_one_coin_per_resident_and_a_charge_coin(
            self, n_res):
        system = make_system(n_batteries=2, n_residents=n_res)
        state = SystemState(t=0, e=(5.0, 9.0), z=(1.0,) * n_res)
        obs = obs_of(3.0, (0.5,) * n_res, c=0.08, w=0.03)
        rng = np.random.default_rng(21)
        reference = np.random.default_rng(21)
        for _ in range(3):
            mecp_dispatch(system, state, obs, rng, block_prob=0.3,
                          charge_prob=0.5, v=150.0)
            reference.random(n_res + 1)
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_blocking_coins_come_before_the_charge_coin(self):
        n_res = 5
        system = make_system(n_batteries=2, n_residents=n_res)
        state = SystemState(t=0, e=(5.0, 9.0), z=(0.0,) * n_res)
        # Generation covers every request, so exactly the blocked residents
        # go unserved; with nothing to serve, only the charge coin buys.
        serve = obs_of(2.5 * n_res, (2.5,) * n_res, c=0.08, w=0.03)
        idle = obs_of(0.0, (0.0,) * n_res, c=0.08, w=0.03)
        for seed in range(40):
            coins = np.random.default_rng(seed).random(n_res + 1)
            dd = mecp_dispatch(system, state, serve,
                               np.random.default_rng(seed), block_prob=0.5,
                               charge_prob=0.5, v=150.0)
            assert [p == 0.0 for p in dd.p] == list(coins[:n_res] < 0.5)
            dd = mecp_dispatch(system, state, idle,
                               np.random.default_rng(seed), block_prob=0.5,
                               charge_prob=0.5, v=150.0)
            assert (dd.q > 0.0) == (coins[n_res] < 0.5)

    def test_random_slots_stay_valid(self):
        system = make_system(n_batteries=2, n_residents=3)
        rng = np.random.default_rng(9)
        coin = np.random.default_rng(10)
        for _ in range(200):
            state = SystemState(
                t=0,
                e=tuple(float(x) for x in rng.uniform(0.0, 16.0, 2)),
                z=tuple(float(x) for x in rng.uniform(0.0, 17.5, 3)))
            obs = obs_of(float(rng.uniform(0.0, 10.0)),
                         tuple(float(a) for a in rng.uniform(0.0, 2.5, 3)),
                         c=float(rng.uniform(0.05, 0.10)),
                         w=float(rng.uniform(0.02, 0.04)))
            dd = mecp_dispatch(system, state, obs, coin, block_prob=0.3,
                               charge_prob=0.5, v=150.0)
            assert check_dispatch(dd, system, obs) == []
            assert dd.q * dd.s == 0.0
            for rk, dk in zip(dd.r, dd.d):
                assert rk * dk == 0.0


@st.composite
def mecp_slots(draw):
    """A random_system of up to 5 batteries x 20 residents, its trade caps
    kept or cut so surplus can exceed every sink, its v and coin
    probabilities, and up to four slots t = 0..3 of it whose levels lie
    up to a quarter of each band outside it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    system = random_system(rng, 1, 5, 20).system
    cut = draw(st.sampled_from([None, 0.5, 3.0]))
    if cut is not None:
        system = replace(system, grid=replace(system.grid, q_max=cut,
                                              s_max=cut))
    fraction = st.floats(-0.25, 1.25)
    slots = []
    for t in range(draw(st.integers(1, 4))):
        e = tuple(b.e_min + (b.e_max - b.e_min) * draw(fraction)
                  for b in system.batteries)
        z = tuple(draw(st.floats(0.0, 25.0)) for _ in system.residents)
        alpha = tuple(res.alpha_max * draw(st.floats(0.0, 1.0))
                      for res in system.residents)
        u = draw(st.floats(0.0, 60.0))
        basic = tuple(u * draw(st.floats(0.0, 0.9)) / system.n_residents
                      for _ in system.residents)
        obs = SlotObservation(u=u, basic=basic, alpha=alpha,
                              c=draw(st.floats(0.05, 0.10)),
                              w=draw(st.floats(0.02, 0.04)))
        slots.append((SystemState(t=t, e=e, z=z), obs))
    probs = st.sampled_from([0.0, 0.3, 0.5, 1.0])
    return (system, draw(st.floats(10.0, 150.0)), draw(probs), draw(probs),
            draw(st.integers(0, 2 ** 32 - 1)), slots)


def reference_mecp(system, state, obs, coins, block_prob, charge_prob, v,
                   curtail):
    """The benchmark policy's flow row for one slot and its N + 1 coins,
    decided from the spec objects and the observation, with battery_queue
    for the battery terms: a reference written apart from the rule
    mecp_solver prepares."""
    n_res = len(system.residents)
    p_surplus = surplus_power(obs)
    admitted = [0.0 if coin < block_prob else alpha
                for coin, alpha in zip(coins, obs.alpha)]
    demand = ordered_sum(admitted)
    grid = system.grid
    p = admitted
    r = d = [0.0] * len(system.batteries)
    q = s = curtailed = 0.0
    if p_surplus >= demand:
        r, excess = dispatch._fill(p_surplus - demand, [
            min(spec.r_max, spec.e_max - e)
            for e, spec in zip(state.e, system.batteries)])
        s = min(excess, grid.s_max)
        excess -= s
        if excess > 0.0:
            if not curtail:
                raise UnservableSurplusError(
                    f"slot {state.t}: benchmark policy cannot absorb "
                    f"{excess} kWh of surplus")
            curtailed = excess
    else:
        d, shortfall = dispatch._fill(demand - p_surplus, [
            min(spec.d_max, e - spec.e_min)
            for e, spec in zip(state.e, system.batteries)])
        if shortfall > 0.0:
            q = min(shortfall, grid.q_max)
            if shortfall - q > 0.0:
                p, _ = dispatch._fill(ordered_sum([p_surplus, *d, q]),
                                      admitted)
    if coins[n_res] < charge_prob:
        top_up, _ = dispatch._fill(grid.q_max - q, [
            0.0 if dk > 0.0 else min(spec.r_max - rk, spec.e_max - e - rk)
            for e, spec, rk, dk in zip(state.e, system.batteries, r, d)])
        r = [rk + fill for rk, fill in zip(r, top_up)]
        q = ordered_sum([q, *top_up])
    objective = v * (q * obs.c - s * obs.w)
    for e, spec, rk, dk in zip(state.e, system.batteries, r, d):
        objective += battery_queue(e, spec, v, grid) * (rk - dk)
    for n, alpha in enumerate(obs.alpha):
        objective -= (state.z[n] + alpha) * p[n]
    return (q, s, *r, *d, *p, objective, curtailed)


class TestMecpSolver:
    @given(mecp_slots(), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_rows_equal_the_one_slot_wrapper(self, case, curtail):
        # One coin block drawn up front feeds the solver the coins that
        # successive mecp_dispatch calls draw from the same seed, so each
        # slot's row is the wrapper's Dispatch flattened, and an
        # unservable slot fails in the same words; both decide as the
        # reference does from the spec objects with those coins.
        system, v, block_prob, charge_prob, seed, slots = case
        coins = np.random.default_rng(seed).random(
            (len(slots), system.n_residents + 1))
        solve = mecp_solver(system, coins, block_prob, charge_prob, v,
                            curtail)
        rng = np.random.default_rng(seed)
        for (state, obs), slot_coins in zip(slots, coins.tolist()):
            calls = (
                lambda: reference_mecp(system, state, obs, slot_coins,
                                       block_prob, charge_prob, v, curtail),
                lambda: _dispatch_row(mecp_dispatch(
                    system, state, obs, rng, block_prob, charge_prob, v,
                    curtail=curtail)),
                lambda: solve(state.e, state.z, obs.alpha,
                              surplus_power(obs), obs.c, obs.w, state.t))
            try:
                expected = calls[0]()
            except UnservableSurplusError as exc:
                assert not curtail
                assert str(exc).startswith(f"slot {state.t}: ")
                for call in calls[1:]:
                    with pytest.raises(UnservableSurplusError) as err:
                        call()
                    assert str(err.value) == str(exc)
            else:
                assert [call() for call in calls[1:]] == [expected] * 2

    @pytest.mark.parametrize("width", [0, 2, 4])
    def test_misshaped_request_fails_as_the_wrapper_does(self, width):
        # Both name the slot in the same words; the wrapper draws no coin.
        system = make_system(n_batteries=2, n_residents=3)
        state = SystemState(t=7, e=(5.0, 9.0), z=(1.0,) * 3)
        obs = obs_of(3.0, (0.5,) * width)
        solve = mecp_solver(system, np.zeros((8, 4)), 0.3, 0.5, 150.0)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as wrapped:
            mecp_dispatch(system, state, obs, rng, block_prob=0.3,
                          charge_prob=0.5, v=150.0)
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError) as solved:
            solve(state.e, state.z, obs.alpha, 3.0, obs.c, obs.w, state.t)
        assert str(solved.value) == str(wrapped.value) == (
            f"slot 7: observation alpha has {width} entries, expected 3")

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (4, 5)])
    def test_coin_block_needs_a_column_per_resident_and_a_charge_coin(
            self, shape):
        system = make_system(n_residents=3)
        with pytest.raises(ValueError, match=r"^coins must hold 4 columns"):
            mecp_solver(system, np.zeros(shape), 0.3, 0.5, 150.0)

    @pytest.mark.parametrize("horizon, n_res", [(1, 1), (7, 5), (672, 5),
                                                (50, 20)])
    def test_one_block_is_the_per_slot_draws(self, horizon, n_res):
        # run draws a run's coins as one (T, N + 1) block: the numbers T
        # successive rng.random(N + 1) calls draw, leaving the generator
        # where they leave it.
        block_rng = np.random.default_rng((7, 1))
        slot_rng = np.random.default_rng((7, 1))
        block = block_rng.random((horizon, n_res + 1))
        draws = [slot_rng.random(n_res + 1) for _ in range(horizon)]
        assert block.tobytes() == np.stack(draws).tobytes()
        assert block_rng.bit_generator.state == slot_rng.bit_generator.state


@st.composite
def random_slot(draw):
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    system = make_system(n_batteries=k, n_residents=n)
    e = tuple(draw(st.floats(0.0, 16.0)) for _ in range(k))
    z = tuple(draw(st.floats(0.0, 25.0)) for _ in range(n))
    alpha = tuple(draw(st.floats(0.0, 2.5)) for _ in range(n))
    u = draw(st.floats(0.0, 10.0))
    c = draw(st.floats(0.05, 0.10))
    w = draw(st.floats(0.02, 0.04))
    v = draw(st.floats(10.0, 150.0))
    state = SystemState(t=0, e=e, z=z)
    obs = SlotObservation(u=u, basic=(0.0,) * n, alpha=alpha, c=c, w=w)
    return system, state, obs, v


def poured_bids(supply, demand):
    """How many leading bids the surplus entry pours into, as the sweep
    pours it: their flows may sit inside their boxes without breaking the
    optimum's vertex structure."""
    left = supply[0][3] if supply and supply[0][1] == 0 else 0.0
    count = 0
    for *_, cap in demand:
        if left <= 0.0:
            break
        left -= min(left, cap)
        count += 1
    return count


def interior_flows(dd, supply, demand):
    """Flows strictly inside their boxes, minus mandatory-pour targets."""
    boxes = [(dd.d[i] if rank == 1 else dd.q, cap)
             for _, rank, i, cap in supply if rank]
    boxes += [((dd.p, dd.r)[rank][i] if rank < 2 else dd.s, cap)
              for _, rank, i, cap in demand[poured_bids(supply, demand):]]
    return sum(1e-12 < flow < cap - 1e-12 for flow, cap in boxes)


@st.composite
def large_slot(draw):
    """Slots up to the acceptance fixture's largest systems (5 batteries,
    20 residents), with surpluses that can exceed every sink."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 20))
    system = make_system(n_batteries=k, n_residents=n)
    e = tuple(draw(st.floats(0.0, 16.0)) for _ in range(k))
    z = tuple(draw(st.floats(0.0, 25.0)) for _ in range(n))
    alpha = tuple(draw(st.floats(0.0, 2.5)) for _ in range(n))
    u = draw(st.floats(0.0, 80.0))
    c = draw(st.floats(0.05, 0.10))
    w = draw(st.floats(0.02, 0.04))
    v = draw(st.floats(10.0, 150.0))
    state = SystemState(t=0, e=e, z=z)
    obs = SlotObservation(u=u, basic=(0.0,) * n, alpha=alpha, c=c, w=w)
    return system, state, obs, v


@st.composite
def tied_slot(draw):
    """Slots whose prices tie on purpose, at up to 5 batteries x 20
    residents. v and the prices are dyadic, so every tie is exact: battery
    queues sit at -v*c, -v*w or 0, quality values z + alpha at v*c or v*w,
    and the sell price can be zero."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 20))
    system = make_system(n_batteries=k, n_residents=n, c_min=0.0625,
                         c_max=0.125, w_min=0.0, w_max=0.0625)
    c_step = draw(st.integers(16, 32))
    c = c_step / 256
    w = draw(st.integers(0, min(c_step - 1, 16))) / 256
    v = float(draw(st.integers(1, 100)))
    queues = st.sampled_from([-v * c, -v * w, 0.0])
    # battery_queue is e - d_max - e_min - v*c_max, with d_max = 2.
    e = tuple(draw(queues) + 2.0 + v * 0.125 for _ in range(k))
    alpha = tuple(draw(st.integers(0, 160)) / 64 for _ in range(n))
    z = tuple(max(draw(st.sampled_from([v * c, v * w])) - a, 0.0)
              for a in alpha)
    u = draw(st.one_of(st.sampled_from([0.0, 2.0, 25.0]),
                       st.floats(0.0, 80.0)))
    state = SystemState(t=0, e=e, z=z)
    obs = SlotObservation(u=u, basic=(0.0,) * n, alpha=alpha, c=c, w=w)
    return system, state, obs, v


class TestSolverProperties:
    @given(random_slot())
    @settings(deadline=None, max_examples=150)
    def test_dispatch_is_valid_and_consistent(self, slot):
        system, state, obs, v = slot
        dd = dispatch_slot(system, state, obs, v)
        assert check_dispatch(dd, system, obs) == []
        assert dd.q * dd.s == 0.0
        for rk, dk in zip(dd.r, dd.d):
            assert rk * dk == 0.0
        assert slot_objective(system, state, obs, v, dd) == pytest.approx(
            dd.objective, abs=1e-9)
        assert threshold_violations(system, state, obs, v, dd) == []

    def test_a_bid_that_rounds_onto_the_price_is_a_tie(self):
        # z + alpha rounds to exactly v*c = 0.5 although z > v*c - alpha.
        system = make_system()
        state = SystemState(t=0, e=(0.0,), z=(7.095233997066944e-55,))
        obs = SlotObservation(u=0.0, basic=(0.0,), alpha=(0.5,), c=0.05,
                              w=0.03125)
        dd = dispatch_slot(system, state, obs, 10.0)
        assert dd.q > 0.0 and dd.p == (0.0,)
        assert threshold_violations(system, state, obs, 10.0, dd) == []

    @given(random_slot())
    @settings(deadline=None, max_examples=150)
    def test_at_most_one_interior_flow(self, slot):
        system, state, obs, v = slot
        supply, demand = build_subproblem(system, state, obs, v)
        result = merit_order_allocate(supply, demand, system.n_batteries,
                                      system.n_residents)
        if result.feasible:
            assert interior_flows(allocated(result, system.n_batteries),
                                  supply, demand) <= 1

    @given(tied_slot(), st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_forced_ties_keep_the_exclusive_optimum(self, slot, curtail):
        system, state, obs, v = slot
        expected = pick_by_full_sort(system, state, obs, v, curtail=curtail)
        optimum = oracle_solve(system, state, obs, v)
        if expected is None:
            assert optimum == math.inf
            with pytest.raises(UnservableSurplusError):
                dispatch_slot(system, state, obs, v)
            return
        dd = dispatch_slot(system, state, obs, v, curtail=curtail)
        assert dd == expected
        if math.isfinite(optimum):
            assert dd.objective == pytest.approx(optimum, rel=1e-9, abs=1e-9)
        assert dd.q * dd.s == 0.0
        for rk, dk in zip(dd.r, dd.d):
            assert rk * dk == 0.0
        assert check_dispatch(dd, system, obs) == []

    @given(large_slot())
    @settings(deadline=None, max_examples=150)
    def test_merit_order_matches_oracle(self, slot):
        system, state, obs, v = slot
        oracle = oracle_solve(system, state, obs, v)
        merit = merit_order_allocate(*build_subproblem(system, state, obs, v),
                                     system.n_batteries, system.n_residents)
        assert merit.feasible == math.isfinite(oracle)
        if merit.feasible:
            assert merit.objective == pytest.approx(oracle, rel=1e-9,
                                                    abs=1e-9)


class TestSortedOncePath:
    @given(large_slot(), st.booleans(), st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_matches_full_sort_with_exclusive_flows_in_boxes(
            self, slot, clamp, curtail):
        system, state, obs, v = slot
        expected = pick_by_full_sort(system, state, obs, v, curtail=curtail,
                                     headroom_clamp=clamp)
        if expected is None:
            with pytest.raises(UnservableSurplusError):
                dispatch_slot(system, state, obs, v, curtail=curtail,
                              headroom_clamp=clamp)
            return
        dd = dispatch_slot(system, state, obs, v, curtail=curtail,
                           headroom_clamp=clamp)
        assert dd == expected
        assert dd.q * dd.s == 0.0
        for rk, dk in zip(dd.r, dd.d):
            assert rk * dk == 0.0
        # Boxes hold exactly, with no float dust past a cap.
        g = system.grid
        assert dd.q <= g.q_max and dd.s <= g.s_max
        assert all(pn <= an for pn, an in zip(dd.p, obs.alpha))
        for rk, dk, e, spec in zip(dd.r, dd.d, state.e, system.batteries):
            assert rk <= (min(spec.r_max, spec.e_max - e) if clamp
                          else spec.r_max)
            assert dk <= (min(spec.d_max, e - spec.e_min) if clamp
                          else spec.d_max)


def oracle_arrays(system, state, obs, v, pad_batteries=0, pad_residents=0,
                  pad_price=0.0):
    """oracle_solve's demand and supply entries for one slot as one column
    of oracle_columns' arrays, with zero-capacity entries appended."""
    g = system.grid
    demand = [(z + a, a) for z, a in zip(state.z, obs.alpha)]
    demand += [(pad_price, 0.0)] * pad_residents
    supply = []
    for e, spec in zip(state.e, system.batteries):
        x = battery_queue(e, spec, v, g)
        demand.append((-x, max(0.0, min(spec.r_max, spec.e_max - e))))
        supply.append((-x, max(0.0, min(spec.d_max, e - spec.e_min))))
    demand += [(pad_price, 0.0)] * pad_batteries
    supply += [(pad_price, 0.0)] * pad_batteries
    value, v_cap = np.array(demand + [(v * obs.w, g.s_max)]).T
    cost, c_cap = np.array(supply + [(v * obs.c, g.q_max)]).T
    return value, v_cap, cost, c_cap


class TestOracleColumns:
    @given(large_slot(), st.integers(0, 4), st.integers(0, 19),
           st.sampled_from([0.0, -3.0, 1e3]))
    @settings(deadline=None, max_examples=100)
    def test_zero_capacity_padding_changes_no_optimum(self, slot, k, n,
                                                      price):
        system, state, obs, v = slot
        surplus = np.array([obs.u])
        plain = oracle_columns(*(a[:, None] for a in oracle_arrays(
            system, state, obs, v)), surplus)
        padded = oracle_columns(*(a[:, None] for a in oracle_arrays(
            system, state, obs, v, k, n, price)), surplus)
        assert padded[0] == plain[0] == oracle_solve(system, state, obs, v)

    @given(st.lists(large_slot(), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_a_batch_returns_each_columns_own_optimum(self, slots):
        columns = [oracle_arrays(system, state, obs, v,
                                 5 - system.n_batteries,
                                 20 - system.n_residents)
                   for system, state, obs, v in slots]
        batch = oracle_columns(*(np.stack(a, axis=1) for a in zip(*columns)),
                               np.array([obs.u for _, _, obs, _ in slots]))
        assert batch.tolist() == [oracle_solve(*slot) for slot in slots]


@st.composite
def regime_slot(draw):
    """A slot in the threshold suite's regime: a random_system of up to 5
    batteries x 20 residents, levels anywhere in band (some pinned to an
    edge, so a headroom-clamped cap is 0) and backlogs up to 1.25x their
    cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    config = random_system(rng, 1, 5, 20)
    system = config.system
    v = float(rng.uniform(0.3, 1.0)) * compute_vmax(system.batteries,
                                                    system.grid)
    state = random_states(system, rng, v, 1)[0]
    edges = draw(st.lists(st.sampled_from([None, "e_min", "e_max"]),
                          min_size=system.n_batteries,
                          max_size=system.n_batteries))
    e = tuple(getattr(spec, edge) if edge else level
              for level, spec, edge in zip(state.e, system.batteries, edges))
    return system, replace(state, e=e), generate_traces(config, rng)[0], v


def kernel_columns(slots, pad_prices):
    """merit_order_columns' arguments for slots, one column each: the four
    oracle_arrays books, padded to 5 batteries x 20 residents with
    zero-capacity entries priced at pad_prices (one per column), and the
    surpluses."""
    books = [oracle_arrays(system, state, obs, v, 5 - system.n_batteries,
                           20 - system.n_residents, pad)
             for (system, state, obs, v), pad in zip(slots, pad_prices)]
    return (*(np.stack(a, axis=1) for a in zip(*books)),
            np.array([obs.u - sum(obs.basic) for _, _, obs, _ in slots]))


class TestMeritOrderColumns:
    @given(st.lists(st.one_of(regime_slot(), tied_slot(), large_slot()),
                    min_size=1, max_size=6), st.data())
    @settings(deadline=None, max_examples=200)
    def test_each_column_equals_dispatch_slot(self, slots, data):
        pads = [data.draw(st.sampled_from([0.0, v * obs.c, v * obs.w]))
                for _, _, obs, v in slots]
        books = kernel_columns(slots, pads)
        objective, q, s, r, d, p, infeasible = merit_order_columns(*books)
        # The dual of the very same arrays: infinite exactly where the
        # kernel finds the surplus unservable, the kernel's optimum
        # elsewhere.
        optimum = oracle_columns(*books)
        assert (optimum == np.inf).tolist() == infeasible.tolist()
        assert optimum[~infeasible] == pytest.approx(objective[~infeasible],
                                                     rel=1e-9, abs=1e-9)
        assert r.shape == d.shape == (5, len(slots))
        assert p.shape == (20, len(slots))
        for i, (system, state, obs, v) in enumerate(slots):
            k, n = system.n_batteries, system.n_residents
            try:
                dd = dispatch_slot(system, state, obs, v)
            except UnservableSurplusError:
                assert infeasible[i]
                continue
            assert not infeasible[i]
            flows = (q[i], s[i], *r[:k, i], *d[:k, i], *p[:n, i])
            assert flows == pytest.approx((dd.q, dd.s, *dd.r, *dd.d, *dd.p),
                                          rel=0.0, abs=1e-12)
            assert objective[i] == pytest.approx(dd.objective, rel=1e-12)
            assert q[i] * s[i] == 0.0
            assert (r[:, i] * d[:, i] == 0.0).all()
            assert not (r[k:, i].any() or d[k:, i].any() or p[n:, i].any())

    @pytest.mark.parametrize("u, unservable", [
        (27.5, False), (math.nextafter(27.5, math.inf), True)])
    def test_surplus_filling_every_sink_exactly_is_servable(self, u,
                                                            unservable):
        # A full battery takes nothing, so the sinks are the 2.5 kWh
        # request and the 25 kWh sale cap: a surplus of exactly 27.5 fits,
        # one ulp more does not, in all three solvers alike.
        system = make_system()
        state = SystemState(t=0, e=(16.0,), z=(0.0,))
        obs = SlotObservation(u=u, basic=(0.0,), alpha=(2.5,), c=0.08,
                              w=0.03)
        books = kernel_columns([(system, state, obs, 100.0)], [0.0])
        *_, infeasible = merit_order_columns(*books)
        assert infeasible.tolist() == [unservable]
        assert math.isinf(oracle_columns(*books)[0]) == unservable
        if unservable:
            with pytest.raises(UnservableSurplusError):
                dispatch_slot(system, state, obs, 100.0)
        else:
            assert dispatch_slot(system, state, obs, 100.0).s == 25.0


@st.composite
def prepared_slots(draw):
    """A system at up to 5 batteries x 20 residents, its v, and up to four
    slots of it: one tied_slot, large_slot (whose surplus can exceed every
    sink) or regime_slot, then states drawn as the validate suites draw
    them, with generate_traces observations."""
    system, state, obs, v = draw(st.one_of(regime_slot(), tied_slot(),
                                           large_slot()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(0, 3))
    config = RunConfig(system.batteries, system.residents, system.grid,
                       horizon=max(count, 1))
    more = zip(random_states(system, rng, v, count),
               generate_traces(config, rng))
    return system, v, [(state, obs)] + [
        (replace(other, t=t), seen) for t, (other, seen) in enumerate(more, 1)]


class TestSlotSolver:
    @given(prepared_slots(), st.booleans(), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_one_solver_serves_every_slot_of_its_system(self, case, clamp,
                                                        curtail):
        # One solver, prepared once, solves each slot as merit_order_allocate
        # does on build_subproblem's books, which equal the books built from
        # the spec objects by insertion: the solver returns the kernel's
        # flow row, and dispatch_slot that row's Dispatch.
        system, v, slots = case
        solve = slot_solver(system, v, curtail=curtail, headroom_clamp=clamp)
        for state, obs in slots:
            books = build_subproblem(system, state, obs, v,
                                     headroom_clamp=clamp)
            assert books == reference_books(system, state, obs, v,
                                            headroom_clamp=clamp)
            result = merit_order_allocate(
                *books, system.n_batteries, system.n_residents,
                allow_shortfall=curtail)
            calls = ((lambda: solve(state.e, state.z, obs.alpha,
                                    surplus_power(obs), obs.c, obs.w,
                                    state.t),
                      result.flows),
                     (lambda: dispatch_slot(system, state, obs, v,
                                            curtail=curtail,
                                            headroom_clamp=clamp),
                      allocated(result, system.n_batteries)))
            for call, expected in calls:
                if not result.feasible:
                    with pytest.raises(UnservableSurplusError,
                                       match=f"^slot {state.t}: surplus "):
                        call()
                else:
                    assert call() == expected

    def test_misshaped_request_names_the_slot(self):
        system, state, obs = reference_slot()
        solve = slot_solver(system, V_REF)
        with pytest.raises(ValueError) as err:
            solve(state.e, state.z, (1.0, 1.0), surplus_power(obs), obs.c,
                  obs.w, 7)
        assert str(err.value) == (
            "slot 7: observation alpha has 2 entries, expected 1")
