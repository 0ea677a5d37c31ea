import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsched import (
    Bid,
    Offer,
    SlotObservation,
    SystemState,
    UnservableSurplusError,
    battery_queue,
    build_subproblem,
    check_dispatch,
    dispatch_slot,
    mecp_dispatch,
    merit_order_allocate,
    oracle_coefficient_sum,
    oracle_solve,
    slot_objective,
    threshold_violations,
)
from mgsched.dispatch import (
    BID_QUALITY,
    BID_RECHARGE,
    BID_SALE,
    OFFER_DISCHARGE,
    OFFER_PURCHASE,
    OFFER_SURPLUS,
    PURCHASE,
    SELL,
)

from conftest import make_system


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


def pick_by_full_sort(system, state, obs, v, curtail=False,
                      headroom_clamp=True):
    """dispatch_slot's choice, rebuilt from both modes' full-sort books.

    Returns None where dispatch_slot must raise UnservableSurplusError.
    """
    pu, se = (merit_order_allocate(
        *build_subproblem(mode, system, state, obs, v,
                          headroom_clamp=headroom_clamp),
        system.n_batteries, system.n_residents, allow_shortfall=curtail)
        for mode in (PURCHASE, SELL))
    if not pu.feasible and not se.feasible:
        return None
    if not se.feasible or (pu.feasible and pu.objective < se.objective):
        return pu.dispatch
    if not pu.feasible or se.objective < pu.objective:
        return se.dispatch
    pu_trades = pu.dispatch.q != 0.0 or pu.dispatch.s != 0.0
    se_trades = se.dispatch.q != 0.0 or se.dispatch.s != 0.0
    return se.dispatch if pu_trades and not se_trades else pu.dispatch


class TestBuildSubproblem:
    def test_purchase_mode_books(self):
        system, state, obs = reference_slot()
        offers, bids = build_subproblem(PURCHASE, system, state, obs, V_REF)
        by_kind = {o.kind: o for o in offers}
        assert by_kind[OFFER_SURPLUS].capacity == pytest.approx(1.0)
        assert by_kind[OFFER_DISCHARGE].unit_cost == pytest.approx(5.0)
        assert by_kind[OFFER_DISCHARGE].capacity == pytest.approx(2.0)
        assert by_kind[OFFER_PURCHASE].unit_cost == pytest.approx(6.0)
        assert by_kind[OFFER_PURCHASE].capacity == pytest.approx(25.0)
        bid_kinds = {b.kind: b for b in bids}
        assert bid_kinds[BID_QUALITY].unit_value == pytest.approx(8.0)
        assert bid_kinds[BID_QUALITY].capacity == pytest.approx(2.0)
        assert bid_kinds[BID_RECHARGE].unit_value == pytest.approx(5.0)
        assert BID_SALE not in bid_kinds

    def test_sell_mode_books(self):
        system, state, obs = reference_slot()
        offers, bids = build_subproblem(SELL, system, state, obs, V_REF)
        assert all(o.kind != OFFER_PURCHASE for o in offers)
        sale = next(b for b in bids if b.kind == BID_SALE)
        assert sale.unit_value == pytest.approx(2.0)
        assert sale.capacity == pytest.approx(25.0)

    def test_headroom_clamp(self):
        system = make_system()
        state = SystemState(t=0, e=(15.5,), z=(0.0,))
        obs = obs_of(0.0, (0.0,))
        offers, bids = build_subproblem(PURCHASE, system, state, obs, 150.0)
        recharge = next(b for b in bids if b.kind == BID_RECHARGE)
        assert recharge.capacity == pytest.approx(0.5)
        offers, bids = build_subproblem(PURCHASE, system, state, obs, 150.0,
                                        headroom_clamp=False)
        recharge = next(b for b in bids if b.kind == BID_RECHARGE)
        assert recharge.capacity == pytest.approx(2.0)

    def test_rejects_unknown_mode(self):
        system, state, obs = reference_slot()
        with pytest.raises(ValueError):
            build_subproblem("barter", system, state, obs, V_REF)


class TestMeritOrderAllocate:
    """Raw-book instances with hand-checked optima."""

    def _reference_books(self, surplus=1.0):
        offers = [
            Offer(OFFER_SURPLUS, -1, -math.inf, surplus),
            Offer(OFFER_DISCHARGE, 0, 5.0, 2.0),
            Offer(OFFER_PURCHASE, -1, 6.0, 10.0),
        ]
        bids = [
            Bid(BID_QUALITY, 0, 8.0, 2.0),
            Bid(BID_RECHARGE, 0, 5.0, 2.0),
        ]
        return offers, bids

    def test_reference_optimum(self):
        offers, bids = self._reference_books()
        result = merit_order_allocate(offers, bids, 1, 1)
        assert result.feasible
        assert result.objective == pytest.approx(-11.0)
        dd = result.dispatch
        assert dd.q == 0.0
        assert dd.s == 0.0
        assert dd.d == pytest.approx((1.0,))
        assert dd.r == (0.0,)
        assert dd.p == pytest.approx((2.0,))
        assert result.mandatory_bids == ((BID_QUALITY, 0),)

    def test_no_profitable_match_is_all_zero(self):
        offers = [
            Offer(OFFER_SURPLUS, -1, -math.inf, 0.0),
            Offer(OFFER_DISCHARGE, 0, 5.0, 2.0),
        ]
        bids = [Bid(BID_RECHARGE, 0, 3.0, 2.0)]
        result = merit_order_allocate(offers, bids, 1, 1)
        assert result.feasible
        assert result.objective == 0.0
        assert result.dispatch.r == (0.0,)
        assert result.dispatch.d == (0.0,)

    def test_unabsorbable_surplus_is_infeasible(self):
        # purchase mode: bid capacity 2 + 2 = 4 cannot take 10
        offers, bids = self._reference_books(surplus=10.0)
        result = merit_order_allocate(offers, bids, 1, 1)
        assert not result.feasible
        assert result.dispatch is None
        assert result.objective == math.inf

    def test_shortfall_becomes_curtailment(self):
        offers, bids = self._reference_books(surplus=10.0)
        result = merit_order_allocate(offers, bids, 1, 1, allow_shortfall=True)
        assert result.feasible
        dd = result.dispatch
        assert dd.p == pytest.approx((2.0,))
        assert dd.r == pytest.approx((2.0,))
        assert dd.curtailed == pytest.approx(6.0)

    def test_mandatory_pour_accepts_negative_value(self):
        offers = [Offer(OFFER_SURPLUS, -1, -math.inf, 1.0)]
        bids = [Bid(BID_RECHARGE, 0, -4.0, 3.0)]
        result = merit_order_allocate(offers, bids, 1, 1)
        assert result.feasible
        assert result.dispatch.r == pytest.approx((1.0,))
        assert result.objective == pytest.approx(4.0)

    def test_price_tie_broken_by_index(self):
        offers = [Offer(OFFER_SURPLUS, -1, -math.inf, 1.0)]
        bids = [
            Bid(BID_RECHARGE, 1, 5.0, 2.0),
            Bid(BID_RECHARGE, 0, 5.0, 2.0),
        ]
        result = merit_order_allocate(offers, bids, 2, 1)
        assert result.dispatch.r == pytest.approx((1.0, 0.0))

    def test_offer_tie_broken_by_index(self):
        offers = [
            Offer(OFFER_SURPLUS, -1, -math.inf, 0.0),
            Offer(OFFER_DISCHARGE, 1, 3.0, 1.0),
            Offer(OFFER_DISCHARGE, 0, 3.0, 1.0),
        ]
        bids = [Bid(BID_QUALITY, 0, 8.0, 1.5)]
        result = merit_order_allocate(offers, bids, 2, 1)
        assert result.dispatch.d == pytest.approx((1.0, 0.5))
        assert result.dispatch.p == pytest.approx((1.5,))

    def test_battery_never_trades_with_itself(self):
        offers = [
            Offer(OFFER_SURPLUS, -1, -math.inf, 0.0),
            Offer(OFFER_DISCHARGE, 0, 5.0, 2.0),
        ]
        bids = [Bid(BID_RECHARGE, 0, 5.0, 2.0)]
        result = merit_order_allocate(offers, bids, 1, 1)
        assert result.dispatch.r == (0.0,)
        assert result.dispatch.d == (0.0,)
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

    def test_deterministic(self):
        system, state, obs = reference_slot()
        assert dispatch_slot(system, state, obs, V_REF) == dispatch_slot(
            system, state, obs, V_REF)


class TestTradeEntryTieBreaks:
    """dispatch_slot inserts each mode's trade entry into the sorted shared
    book; at an equal price it must rank after the battery and quality
    entries, as the rank tables order a full sort. At v=10 the battery
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
    def test_reference_slot_sandwich(self):
        system, state, obs = reference_slot()
        results = oracle_solve(system, state, obs, V_REF, grid_step=0.05)
        coef = oracle_coefficient_sum(system, state, obs, V_REF, PURCHASE)
        assert coef == pytest.approx(24.0)
        assert results[PURCHASE].feasible
        assert results[PURCHASE].objective >= -11.0 - 1e-9
        assert results[PURCHASE].objective <= -11.0 + 0.05 * coef + 1e-9

    def test_inert_slot_is_exactly_zero(self):
        system = make_system()
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        obs = obs_of(0.0, (0.0,), c=0.10, w=0.02)
        results = oracle_solve(system, state, obs, 150.0, grid_step=0.25)
        assert results[PURCHASE].objective == 0.0
        assert results[SELL].objective == 0.0

    def test_purchase_mode_infeasibility_detected(self):
        # 10 kWh of surplus, no demand, 2 kWh of recharge headroom: only
        # the sale mode can close the balance.
        system = make_system()
        state = SystemState(t=0, e=(14.0,), z=(0.0,))
        obs = obs_of(10.0, (0.0,), c=0.10, w=0.02)
        results = oracle_solve(system, state, obs, 150.0, grid_step=0.25)
        assert not results[PURCHASE].feasible
        assert results[SELL].feasible
        assert results[SELL].objective >= -30.0 - 1e-9

    def test_dimension_cap(self):
        system = make_system(n_batteries=3)
        state = SystemState(t=0, e=(8.0,) * 3, z=(0.0,))
        obs = obs_of(0.0, (0.0,))
        with pytest.raises(ValueError):
            oracle_solve(system, state, obs, 150.0, grid_step=0.5)

    def test_rejects_bad_step(self):
        system, state, obs = reference_slot()
        with pytest.raises(ValueError):
            oracle_solve(system, state, obs, V_REF, grid_step=0.0)


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


def interior_flows(result, offers, bids):
    """Flows strictly inside their boxes, minus mandatory-pour targets."""
    dd = result.dispatch
    boxes = {}
    for o in offers:
        if o.kind == OFFER_DISCHARGE:
            boxes[(OFFER_DISCHARGE, o.index)] = (dd.d[o.index], o.capacity)
        elif o.kind == OFFER_PURCHASE:
            boxes[(OFFER_PURCHASE, o.index)] = (dd.q, o.capacity)
    for b in bids:
        if b.kind == BID_QUALITY:
            boxes[(BID_QUALITY, b.index)] = (dd.p[b.index], b.capacity)
        elif b.kind == BID_RECHARGE:
            boxes[(BID_RECHARGE, b.index)] = (dd.r[b.index], b.capacity)
        else:
            boxes[(BID_SALE, b.index)] = (dd.s, b.capacity)
    pinned = set(result.mandatory_bids)
    count = 0
    for key, (flow, cap) in boxes.items():
        if key in pinned:
            continue
        if 1e-12 < flow < cap - 1e-12:
            count += 1
    return count


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

    @given(random_slot(), st.sampled_from([PURCHASE, SELL]))
    @settings(deadline=None, max_examples=150)
    def test_at_most_one_interior_flow(self, slot, mode):
        system, state, obs, v = slot
        offers, bids = build_subproblem(mode, system, state, obs, v)
        result = merit_order_allocate(offers, bids, system.n_batteries,
                                      system.n_residents)
        if result.feasible:
            assert interior_flows(result, offers, bids) <= 1

    @given(random_slot())
    @settings(deadline=None, max_examples=40)
    def test_merit_order_matches_oracle(self, slot):
        system, state, obs, v = slot
        step = 0.25
        oracle = oracle_solve(system, state, obs, v, grid_step=step)
        for mode in (PURCHASE, SELL):
            offers, bids = build_subproblem(mode, system, state, obs, v)
            merit = merit_order_allocate(offers, bids, system.n_batteries,
                                         system.n_residents)
            assert merit.feasible == oracle[mode].feasible
            if merit.feasible:
                gap = step * oracle_coefficient_sum(system, state, obs, v, mode)
                assert merit.objective <= oracle[mode].objective + 1e-9
                assert merit.objective >= oracle[mode].objective - gap - 1e-9


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
