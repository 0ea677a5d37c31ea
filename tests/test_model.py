import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsched import (
    BatterySpec,
    Dispatch,
    GridSpec,
    Regime,
    ResidentSpec,
    RunConfig,
    SlotObservation,
    SystemSpec,
    bound_constants,
    check_dispatch,
    compute_vmax,
    generate_traces,
    hindsight_lower_bound,
    load_config,
    random_system,
    run_all_suites,
    run_bound_trials,
    solver_oracle_trials,
    surplus_power,
    threshold_trials,
    validate_observation,
)
from mgsched.dispatch import _fault_words, _limits, _observation_faults
from mgsched.model import ordered_sum
from mgsched.sim import _row_total, check_seed
from mgsched.validate import _draw_block

import audit_reference
from conftest import make_battery, make_grid, make_resident, make_system


class TestBatterySpec:
    def test_slack(self, battery):
        assert battery.slack == 16.0 - 2.0 - 2.0

    @pytest.mark.parametrize("overrides", [
        dict(e_min=-0.1),
        dict(e_max=0.0),
        dict(r_max=0.0),
        dict(d_max=-1.0),
        dict(e_max=3.9),           # band no wider than r_max + d_max
        dict(e_init=-0.5),
        dict(e_init=16.5),
    ])
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            make_battery(**overrides)


class TestResidentSpec:
    @pytest.mark.parametrize("overrides", [
        dict(delta=0.0),
        dict(delta=1.0),
        dict(alpha_max=0.0),
        dict(basic_range=(-0.1, 1.0)),
        dict(basic_range=(2.0, 1.0)),
    ])
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            make_resident(**overrides)


class TestGridSpec:
    @pytest.mark.parametrize("overrides", [
        dict(q_max=0.0),
        dict(s_max=-1.0),
        dict(w_min=-0.01),
        dict(w_max=0.01),          # below w_min
        dict(c_min=0.01),          # below w_min
        dict(c_max=0.04),          # below c_min
        dict(c_max=0.02, c_min=0.02, w_max=0.02),  # c_max == w_min
    ])
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            make_grid(**overrides)

    def test_rejects_a_purchase_cap_below_the_sale_cap(self):
        with pytest.raises(ValueError, match="^c_max must be at least w_max$"):
            make_grid(w_max=0.06, c_max=0.055)


class TestSystemSpec:
    def test_counts(self):
        sys_ = make_system(n_batteries=2, n_residents=3)
        assert sys_.n_batteries == 2
        assert sys_.n_residents == 3

    def test_requires_nonempty(self, battery, resident, grid):
        with pytest.raises(ValueError):
            SystemSpec(batteries=(), residents=(resident,), grid=grid)
        with pytest.raises(ValueError):
            SystemSpec(batteries=(battery,), residents=(), grid=grid)


class TestSurplusPower:
    def test_surplus(self):
        obs = SlotObservation(u=5.0, basic=(1.0, 2.0), alpha=(0.0, 0.0),
                              c=0.08, w=0.03)
        assert surplus_power(obs) == 2.0

    def test_basic_exceeding_generation_rejected(self):
        obs = SlotObservation(u=1.0, basic=(2.0,), alpha=(0.0,),
                              c=0.08, w=0.03)
        with pytest.raises(ValueError):
            surplus_power(obs)


class TestOrderedSum:
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                              st.floats(-1e6, 1e6)), max_size=25))
    @settings(deadline=None, max_examples=300)
    def test_adds_as_row_total_does(self, values):
        # _row_total adds a row left to right from its first entry, so a
        # leading 0.0, ordered_sum's start, makes the two agree bit for
        # bit, signed zeros included.
        expected = float(_row_total(np.array([[0.0, *values]]))[0])
        assert float(ordered_sum(values)).hex() == expected.hex()

    def test_surplus_keeps_left_to_right_bits(self):
        # Ten 0.1s add to 0.9999999999999999 left to right; Python 3.12's
        # compensated sum() makes them 1.0 and this surplus 0.0.
        obs = SlotObservation(1.0, (0.1,) * 10, (), 0.1, 0.05)
        assert surplus_power(obs) == 1.1102230246251565e-16


class TestComputeVmax:
    def test_reference_value(self, battery, grid):
        assert compute_vmax((battery,), grid) == pytest.approx(150.0)

    def test_rejects_no_batteries(self, grid):
        with pytest.raises(ValueError, match="^need at least one battery$"):
            compute_vmax([], grid)

    def test_min_over_batteries(self, battery, grid):
        tight = make_battery(e_max=8.0)   # slack 4
        assert compute_vmax((battery, tight), grid) == pytest.approx(4 / 0.08)

    @given(extra=st.floats(0.01, 20.0))
    @settings(deadline=None, max_examples=50)
    def test_monotone_in_headroom(self, extra):
        grid = make_grid()
        base = make_battery()
        wider = make_battery(e_max=16.0 + extra)
        assert compute_vmax((wider,), grid) >= compute_vmax((base,), grid)

    @given(gap=st.floats(0.001, 0.05))
    @settings(deadline=None, max_examples=50)
    def test_antitone_in_price_gap(self, gap):
        base = make_grid()
        widened = make_grid(c_max=0.10 + gap)
        battery = make_battery()
        assert compute_vmax((battery,), widened) <= compute_vmax((battery,), base)


class TestValidateObservation:
    def _obs(self, **overrides):
        fields = dict(u=4.0, basic=(1.0,), alpha=(2.0,), c=0.08, w=0.03)
        fields.update(overrides)
        return SlotObservation(**fields)

    def test_clean(self, system):
        assert validate_observation(self._obs(), system) == []

    @pytest.mark.parametrize("overrides", [
        dict(alpha=(2.6,)),            # above alpha_max
        dict(basic=(5.0,)),            # basic above generation
        dict(c=0.11),
        dict(c=0.04),
        dict(w=0.05),
        dict(w=0.08, c=0.08),          # not strictly below
        dict(alpha=(-0.1,)),
        dict(u=-1.0),
        dict(basic=(1.0, 1.0)),        # wrong arity
    ])
    def test_flags_problems(self, system, overrides):
        assert validate_observation(self._obs(**overrides), system)

    def test_names_the_alpha_width(self, system):
        problems = validate_observation(self._obs(alpha=(1.0, 1.0)), system)
        assert problems == ["alpha has 2 entries, expected 1"]


def nudge(x: float, steps: int) -> float:
    """x moved |steps| ulps up (steps > 0) or down."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def observation_rows(draw):
    """A system of 1 to 4 residents and 1 to 3 observations of it, each
    field anywhere in its band, on a band edge (the basic total for u,
    the purchase price for w) or one ulp past it, or -0.0, -1.0, NaN or
    infinite; now and then a request of the wrong width."""
    n = draw(st.integers(1, 4))
    system = make_system(n_residents=n)
    g = system.grid

    def field(edges, lo, hi):
        kind = draw(st.sampled_from(("any",) * 3 + ("edge",) * 3 + ("odd",)))
        if kind == "any":
            return draw(st.floats(lo, hi))
        if kind == "edge":
            return nudge(draw(st.sampled_from(edges)),
                         draw(st.sampled_from((-1, 0, 1))))
        return draw(st.sampled_from((-0.0, -1.0, math.nan, math.inf,
                                     -math.inf)))

    observations = []
    for _ in range(draw(st.integers(1, 3))):
        widths = [n + draw(st.sampled_from((0,) * 9 + (-1, 1)))
                  for _ in range(2)]
        basic = tuple(field([0.0], 0.0, 3.0) for _ in range(widths[0]))
        alpha = tuple(field([0.0, 2.5], 0.0, 2.5) for _ in range(widths[1]))
        c = field([g.c_min, g.c_max], g.c_min, g.c_max)
        observations.append(SlotObservation(
            u=field([ordered_sum(basic)], 0.0, 10.0),
            basic=basic, alpha=alpha, c=c,
            w=field([g.w_min, g.w_max, c], g.w_min, g.w_max)))
    return system, observations


class TestObservationMessages:
    @given(observation_rows())
    @settings(deadline=None, max_examples=150)
    def test_messages_equal_the_reference(self, case):
        # validate_observation words one slot, and the stacked fault list
        # words each slot of many, as the row-at-a-time reference does.
        system, observations = case
        expected = [audit_reference.validate_observation(obs, system)
                    for obs in observations]
        assert [validate_observation(obs, system)
                for obs in observations] == expected
        if all(len(obs.basic) == len(obs.alpha) == system.n_residents
               for obs in observations):
            faults = _observation_faults(*(
                [getattr(obs, name) for obs in observations]
                for name in ("u", "basic", "alpha", "c", "w")),
                _limits(system))
            assert [_fault_words(faults, t)
                    for t in range(len(observations))] == expected

    @pytest.mark.parametrize("field", ["u", "basic", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fields_are_reported(self, field, value):
        config = load_config("configs/five_day.yaml")
        obs = generate_traces(config)[0]
        width = len(getattr(obs, field)) if field != "u" else 0
        obs = replace(obs, **{field: (value,) * width if width else value})
        problems = validate_observation(obs, config.system)
        names = ([f"{field}[{i}] =" for i in range(width)] if width
                 else ["generation"])
        assert problems[:len(names)] == [f"{name} {value} is not finite"
                                        for name in names]


class TestCheckDispatch:
    def _obs(self):
        # 3 kWh of surplus to place
        return SlotObservation(u=4.0, basic=(1.0,), alpha=(2.0,),
                               c=0.08, w=0.03)

    def test_balanced_dispatch_passes(self, system):
        dispatch = Dispatch(q=0.0, s=1.0, r=(0.0,), d=(0.0,), p=(2.0,),
                            objective=0.0)
        assert check_dispatch(dispatch, system, self._obs()) == []

    def test_balance_violation(self, system):
        dispatch = Dispatch(q=0.0, s=0.0, r=(0.0,), d=(0.0,), p=(2.0,),
                            objective=0.0)
        assert any("balance" in msg for msg
                   in check_dispatch(dispatch, system, self._obs()))

    def test_exclusivity_is_exact(self, system):
        dispatch = Dispatch(q=1e-12, s=1.0 + 1e-12, r=(0.0,), d=(0.0,),
                            p=(2.0,), objective=0.0)
        assert any("exclusiv" in msg.lower() or "both" in msg for msg
                   in check_dispatch(dispatch, system, self._obs()))

    def test_charge_both_ways_flagged(self, system):
        dispatch = Dispatch(q=0.0, s=1.0, r=(1.0,), d=(1.0,), p=(2.0,),
                            objective=0.0)
        msgs = check_dispatch(dispatch, system, self._obs())
        assert msgs

    def test_overservice_flagged(self, system):
        dispatch = Dispatch(q=0.0, s=0.5, r=(0.0,), d=(0.0,), p=(2.5,),
                            objective=0.0)
        assert check_dispatch(dispatch, system, self._obs())

    def test_length_mismatches_are_reported(self, system):
        # zip against the system's batteries would skip the missing entry
        dispatch = Dispatch(q=0.0, s=1.0, r=(), d=(0.0, 0.0), p=(2.0,),
                            objective=0.0)
        assert check_dispatch(dispatch, system, self._obs()) == [
            "r has 0 entries, expected 1", "d has 2 entries, expected 1"]

    def test_box_violations_flagged(self, system):
        dispatch = Dispatch(q=0.0, s=0.0, r=(2.5,), d=(0.0,), p=(0.5,),
                            objective=0.0)
        assert check_dispatch(dispatch, system, self._obs())


@st.composite
def balanced_case(draw):
    """A one-battery one-resident observation plus a balanced dispatch."""
    basic = draw(st.floats(0.0, 3.0))
    alpha = draw(st.floats(0.0, 2.5))
    surplus = draw(st.floats(0.0, 6.0))
    p = draw(st.floats(0.0, 1.0)) * alpha
    leftover = surplus - p
    if leftover >= 0.0:
        r = min(draw(st.floats(0.0, 2.0)), leftover)
        q, s, d = 0.0, leftover - r, 0.0
    else:
        d = min(-leftover, 2.0)
        q, s, r = -leftover - d, 0.0, 0.0
    obs = SlotObservation(u=basic + surplus, basic=(basic,), alpha=(alpha,),
                          c=0.08, w=0.03)
    dispatch = Dispatch(q=q, s=s, r=(r,), d=(d,), p=(p,), objective=0.0)
    return obs, dispatch


class TestCheckDispatchProperties:
    @given(balanced_case())
    @settings(deadline=None, max_examples=200)
    def test_constructed_balanced_dispatches_pass(self, case):
        obs, dispatch = case
        sys_ = make_system()
        assert check_dispatch(dispatch, sys_, obs) == []


def small_config(**overrides) -> RunConfig:
    return RunConfig((make_battery(),), (make_resident(),), make_grid(),
                     **{"horizon": 10, **overrides})


def hindsight(iterations):
    config = small_config()
    return hindsight_lower_bound(generate_traces(config), config, iterations)


def fresh_rng():
    return np.random.default_rng(0)


# Every argument model._whole guards: (name, low, call with the value).
WHOLE = {
    "RunConfig.horizon": ("horizon", 1, lambda x: small_config(horizon=x)),
    "RunConfig.seed": ("seed", 0, lambda x: small_config(seed=x)),
    "check_seed": ("seed", 0, check_seed),
    "Regime.start_slot": ("start_slot", 0, lambda x: Regime(start_slot=x)),
    "hindsight.iterations": ("iterations", 1, hindsight),
    "random_system.k_max": (
        "k_max", 1, lambda x: random_system(fresh_rng(), 5, k_max=x)),
    "random_system.n_max": (
        "n_max", 1, lambda x: random_system(fresh_rng(), 5, n_max=x)),
    "_draw_block.k_max": ("k_max", 1,
                          lambda x: _draw_block(fresh_rng(), 4, x, 6, 1.0)),
    "_draw_block.n_max": ("n_max", 1,
                          lambda x: _draw_block(fresh_rng(), 4, 3, x, 1.0)),
    "bound.runs": ("runs", 1,
                   lambda x: run_bound_trials(runs=x, slots=1, seed=0)),
    "bound.slots": ("slots", 1,
                    lambda x: run_bound_trials(runs=1, slots=x, seed=0)),
    "bound.seed": ("seed", 0,
                   lambda x: run_bound_trials(runs=1, slots=1, seed=x)),
    "threshold.slots": ("slots", 1,
                        lambda x: threshold_trials(slots=x, seed=0)),
    "threshold.seed": ("seed", 0,
                       lambda x: threshold_trials(slots=1, seed=x)),
    "oracle.instances": ("instances", 1,
                         lambda x: solver_oracle_trials(instances=x, seed=0)),
    "oracle.seed": ("seed", 0,
                    lambda x: solver_oracle_trials(instances=1, seed=x)),
    "run_all_suites.trials": ("trials", 1,
                              lambda x: run_all_suites(x, seed=0)),
}
NOT_WHOLE = [True, False, np.True_, 2.5, 3.0, np.float64(3.0), "3", None]
SEEDS = [guard for guard, (name, _, _) in WHOLE.items() if name == "seed"]

# Every field model._positive guards: (name, call with the value).
POSITIVE = {
    "BatterySpec.r_max": ("r_max", lambda x: make_battery(r_max=x)),
    "BatterySpec.d_max": ("d_max", lambda x: make_battery(d_max=x)),
    "ResidentSpec.alpha_max": ("alpha_max",
                               lambda x: make_resident(alpha_max=x)),
    "GridSpec.q_max": ("q_max", lambda x: make_grid(q_max=x)),
    "GridSpec.s_max": ("s_max", lambda x: make_grid(s_max=x)),
    "Regime.alpha_hi": ("alpha_hi", lambda x: Regime(0, alpha_hi=x)),
    "RunConfig.slot_hours": ("slot_hours",
                             lambda x: small_config(slot_hours=x)),
    "bound_constants.v": ("control parameter",
                          lambda x: bound_constants(make_system(), x)),
}


class TestArgumentRules:
    """A count, size or seed is an int or numpy integer, never a bool, and
    at least its floor; a cap, slot length or control parameter is > 0,
    which NaN is not."""

    @pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
    @pytest.mark.parametrize("guard", WHOLE)
    def test_whole_refuses_what_is_not_an_integer(self, guard, value):
        name, _, call = WHOLE[guard]
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("guard", WHOLE)
    def test_whole_refuses_one_below_the_floor(self, guard):
        name, low, call = WHOLE[guard]
        with pytest.raises(ValueError,
                           match=f"^{name} must be >= {low}, got {low - 1}$"):
            call(low - 1)

    @pytest.mark.parametrize("guard", SEEDS)
    def test_seeds_stay_below_two_to_the_64(self, guard):
        call = WHOLE[guard][2]
        call(np.uint64(2 ** 64 - 1))
        with pytest.raises(ValueError, match=f"^seed must fit in 64 bits, "
                                             f"got {2 ** 64}$"):
            call(2 ** 64)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("guard", [
        "RunConfig.horizon", "RunConfig.seed", "Regime.start_slot",
        "random_system.k_max", "random_system.n_max"])
    def test_numpy_integers_act_as_ints(self, guard, kind):
        call = WHOLE[guard][2]
        assert call(kind(3)) == call(3)

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0], ids=repr)
    @pytest.mark.parametrize("guard", POSITIVE)
    def test_positive_refuses_nan_zero_and_below(self, guard, value):
        name, call = POSITIVE[guard]
        message = f"{name} must be positive, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
