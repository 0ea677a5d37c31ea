import dataclasses
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mgsched.sim
from mgsched import (
    BALANCE_TOL,
    BatterySpec,
    Dispatch,
    GridSpec,
    ResidentSpec,
    RunConfig,
    Regime,
    SlotObservation,
    SystemSpec,
    SystemState,
    TraceError,
    UnservableSurplusError,
    audit_slots,
    battery_queue,
    bound_constants,
    check_dispatch,
    compute_vmax,
    dispatch_slot,
    format_summary,
    generate_traces,
    hindsight_lower_bound,
    load_config,
    load_traces,
    merit_order_allocate,
    merit_order_columns,
    random_system,
    run,
    slot_solver,
    step,
    surplus_power,
    threshold_violations,
    update_qose_queue,
    validate_observation,
    write_slot_records,
    write_summary,
    write_traces,
)
from mgsched.sim import (
    _demand_caps,
    _relaxed_slots,
    _row_total,
    _simulate,
    _unservable,
    first_violation,
    outage_window_flags,
)

from conftest import make_battery, make_grid, make_resident, make_system


def make_config(**overrides) -> RunConfig:
    fields = dict(
        batteries=(make_battery(),),
        residents=(make_resident(),),
        grid=make_grid(),
        horizon=200,
        seed=3,
        burst_prob=0.0,
        surplus_range=(0.0, 2.5),
    )
    fields.update(overrides)
    return RunConfig(**fields)


class TestRunConfig:
    @pytest.mark.parametrize("overrides", [
        dict(horizon=0),
        dict(slot_hours=0.0),
        dict(v_fraction=0.0),
        dict(v_fraction=1.5),
        dict(policy="greedy"),
        dict(seed=-1),
        dict(block_prob=1.5),
        dict(surplus_range=(2.0, 1.0)),
        dict(convergence_tol=-0.1),
        dict(regimes=(Regime(start_slot=10), Regime(start_slot=10))),
        dict(alpha_base=(1.0, 1.0)),     # wrong arity for one resident
        dict(alpha_base=(3.0,)),         # above alpha_max
    ])
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides)

    def test_regime_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Regime(start_slot=-1)

    def test_system_property(self):
        config = make_config()
        assert config.system.n_batteries == 1
        assert config.system.n_residents == 1


class TestGenerateTraces:
    def test_deterministic(self):
        config = make_config()
        assert generate_traces(config) == generate_traces(config)

    def test_horizon_and_validity(self):
        config = make_config(horizon=400, burst_prob=0.05)
        traces = generate_traces(config)
        assert len(traces) == 400
        system = config.system
        for obs in traces:
            assert validate_observation(obs, system) == []

    def test_quality_draws_average_half_cap(self):
        config = make_config(horizon=100_000)
        traces = generate_traces(config)
        mean_alpha = sum(obs.alpha[0] for obs in traces) / len(traces)
        assert mean_alpha == pytest.approx(1.25, rel=0.02)

    def test_alpha_base_narrows_baseline_draws(self):
        config = make_config(horizon=2000, alpha_base=(1.5,))
        traces = generate_traces(config)
        assert max(obs.alpha[0] for obs in traces) <= 1.5
        # the narrower cap is actually used, not just respected
        assert max(obs.alpha[0] for obs in traces) > 1.25

    def test_regime_switches_the_generator(self):
        regime = Regime(start_slot=100, alpha_hi=1.0,
                        surplus_range=(4.0, 4.5), burst_prob=0.0)
        config = make_config(horizon=200, regimes=(regime,))
        traces = generate_traces(config)
        before, after = traces[:100], traces[100:]
        assert max(obs.alpha[0] for obs in before) > 1.0
        assert max(obs.alpha[0] for obs in after) <= 1.0
        for obs in after:
            surplus = obs.u - sum(obs.basic)
            assert 4.0 - 1e-9 <= surplus <= 4.5 + 1e-9

    def test_latest_started_regime_wins(self):
        regimes = (Regime(start_slot=0, alpha_hi=1.0),
                   Regime(start_slot=100, alpha_hi=0.5))
        traces = generate_traces(make_config(horizon=200, regimes=regimes))
        assert 0.5 < max(obs.alpha[0] for obs in traces[:100]) <= 1.0
        assert max(obs.alpha[0] for obs in traces[100:]) <= 0.5

    def test_regime_alpha_clamped_to_alpha_max(self):
        regime = Regime(start_slot=0, alpha_hi=99.0)
        config = make_config(horizon=500, regimes=(regime,))
        traces = generate_traces(config)
        assert max(obs.alpha[0] for obs in traces) <= 2.5

    def test_prices_stay_ordered(self):
        config = make_config(horizon=5000, seed=12)
        for obs in generate_traces(config):
            assert 0.02 <= obs.w <= 0.04
            assert 0.05 <= obs.c <= 0.10
            assert obs.w < obs.c


class TestTraceFiles:
    def test_round_trip_is_exact(self, tmp_path):
        config = make_config(horizon=40, burst_prob=0.1)
        traces = generate_traces(config)
        wind, prices, demand = write_traces(traces, str(tmp_path / "t"))
        loaded = load_traces(wind, prices, demand, config)
        assert loaded == traces

    def test_extra_slots_beyond_horizon_ignored(self, tmp_path):
        config = make_config(horizon=50)
        traces = generate_traces(config)
        paths = write_traces(traces, str(tmp_path / "t"))
        short = make_config(horizon=30)
        assert load_traces(*paths, short) == traces[:30]

    def _write_files(self, tmp_path, horizon=5):
        config = make_config(horizon=horizon)
        traces = generate_traces(config)
        return config, write_traces(traces, str(tmp_path / "t"))

    def test_missing_file(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        with pytest.raises(TraceError, match="nowhere"):
            load_traces(str(tmp_path / "nowhere.csv"), prices, demand, config)

    def test_bad_header(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_text().splitlines()
        lines[0] = "slot,wind_mph"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="expected header"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_non_numeric_field(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_text().splitlines()
        lines[2] = "1,gusty"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="bad.csv:3.*not a number"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_non_finite_field(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_text().splitlines()
        lines[2] = "1,nan"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="not finite"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_duplicate_slot(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_text().splitlines()
        lines.append(lines[1])
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="duplicate slot 0"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_missing_slot(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_text().splitlines()
        del lines[3]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="missing slot 2"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_wrong_field_count(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_text().splitlines()
        lines[2] += ",0.5"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="expected 2 fields"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_resident_out_of_range(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(demand).read_text().splitlines()
        lines[1] = lines[1].replace("0,0,", "0,7,", 1)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="resident 7 outside"):
            load_traces(wind, prices, str(tmp_path / "bad.csv"), config)

    def test_price_outside_band(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(prices).read_text().splitlines()
        parts = lines[1].split(",")
        parts[1] = "0.5"
        lines[1] = ",".join(parts)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="slot 0"):
            load_traces(wind, str(tmp_path / "bad.csv"), demand, config)

    @pytest.mark.parametrize("kind,row", [
        ("wind", "-3,1.0"),
        ("prices", "-2,0.08,0.03"),
        ("demand", "-1,0,99.0,99.0"),     # basic above any generation
    ])
    def test_negative_slot_rejected(self, tmp_path, kind, row):
        config, paths = self._write_files(tmp_path)
        paths = dict(zip(("wind", "prices", "demand"), paths))
        lines = Path(paths[kind]).read_text().splitlines()
        lines.append(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        paths[kind] = str(bad)
        slot = row.split(",")[0]
        with pytest.raises(TraceError,
                           match=f"bad.csv:{len(lines)}: slot {slot} is negative"):
            load_traces(paths["wind"], paths["prices"], paths["demand"], config)

    def test_empty_file(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        (tmp_path / "bad.csv").write_text("")
        with pytest.raises(TraceError, match="empty file"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)


def _set(i, text):
    def edit(lines):
        lines[i] = text
    return edit


def _append(text):
    return lambda lines: lines.append(text)


def _insert(i, text):
    return lambda lines: lines.insert(i, text)


def _delete(i):
    def edit(lines):
        del lines[i]
    return edit


# Trace faults and the one message load_traces reports for them; edits
# apply to the lines (header first) of the files of a valid trace with 8
# slots and 2 residents. {wind}, {prices} and {demand} stand for the paths.
PRECEDENCE = {
    "earlier line wins, bad value first": (
        {"wind": [_set(2, "1,gusty"), _set(4, "3,nan")]},
        "{wind}:3: field generation_kwh is not a number: 'gusty'"),
    "earlier line wins, non-finite first": (
        {"wind": [_set(2, "1,nan"), _set(4, "3,gusty")]},
        "{wind}:3: field generation_kwh is not finite: 'nan'"),
    "earlier bad value beats later duplicate": (
        {"prices": [_set(3, "2,0.08,cheap"), _append("0,0.08,0.03")]},
        "{prices}:4: field sell_price is not a number: 'cheap'"),
    "earlier duplicate beats later bad value": (
        {"wind": [_set(2, "0,1.0"), _set(5, "4,gusty")]},
        "{wind}:3: duplicate slot 0"),
    "slot beats value on one row": (
        {"wind": [_set(2, "x,gusty")]},
        "{wind}:3: field slot is not an integer: 'x'"),
    "negative slot beats value on one row": (
        {"prices": [_set(2, "-1,0.08,cheap")]},
        "{prices}:3: slot -1 is negative"),
    "slot beats resident on one row": (
        {"demand": [_set(3, "x,9,1.0,1.0")]},
        "{demand}:4: field slot is not an integer: 'x'"),
    "resident beats duplicate and value": (
        {"demand": [_set(3, "0,7,oops,1.0")]},
        "{demand}:4: resident 7 outside 0..1"),
    "duplicate beats value on one row": (
        {"demand": [_set(3, "0,0,oops,1.0")]},
        "{demand}:4: duplicate slot 0 resident 0"),
    "basic beats quality on one row": (
        {"demand": [_set(3, "1,0,oops,nope")]},
        "{demand}:4: field basic_kwh is not a number: 'oops'"),
    "wind before prices and demand": (
        {"wind": [_set(4, "3,gusty")], "prices": [_set(2, "1,0.08,cheap")],
         "demand": [_set(2, "0,1,oops,1.0")]},
        "{wind}:5: field generation_kwh is not a number: 'gusty'"),
    "prices before demand": (
        {"prices": [_set(4, "3,0.08,cheap")],
         "demand": [_set(2, "0,1,oops,1.0")]},
        "{prices}:5: field sell_price is not a number: 'cheap'"),
    "parse fault in a later file beats a missing slot": (
        {"wind": [_delete(2)], "demand": [_set(16, "7,1,oops,1.0")]},
        "{demand}:17: field basic_kwh is not a number: 'oops'"),
    "field count is checked over the whole file first": (
        {"wind": [_set(2, "1,gusty"), _set(6, "5,1.0,2.0")]},
        "{wind}:7: expected 2 fields, got 3"),
    "bound at slot 3 before missing slot 5": (
        {"prices": [_set(4, "3,0.5,0.03")], "wind": [_delete(6)]},
        "slot 3: purchase price 0.5 outside [0.05, 0.1]"),
    "missing slot 2 before bound at slot 3": (
        {"prices": [_set(4, "3,0.5,0.03")], "wind": [_delete(3)]},
        "{wind}: missing slot 2 (horizon 8)"),
    "missing wind before missing prices at one slot": (
        {"prices": [_delete(3)], "wind": [_delete(3)],
         "demand": [_delete(5)]},
        "{wind}: missing slot 2 (horizon 8)"),
    "missing prices before missing demand at one slot": (
        {"prices": [_delete(3)], "demand": [_delete(5)]},
        "{prices}: missing slot 2 (horizon 8)"),
    "first missing resident": (
        {"demand": [_delete(6), _delete(5)]},
        "{demand}: missing slot 2 resident 0 (horizon 8)"),
    "missing second resident": (
        {"demand": [_delete(6)]},
        "{demand}: missing slot 2 resident 1 (horizon 8)"),
    "slot too negative for int64": (
        {"wind": [_set(3, f"{-10 ** 30},1.0")]},
        f"{{wind}}:4: slot {-10 ** 30} is negative"),
    "malformed row past the horizon": (
        {"wind": [_append("9,1.0,2.0")]},
        "{wind}:10: expected 2 fields, got 3"),
    "unparsable slot past the horizon rows": (
        {"wind": [_append("9,1.0"), _append("ten,1.0")]},
        "{wind}:11: field slot is not an integer: 'ten'"),
    "resident out of range past the horizon": (
        {"demand": [_append("9,7,1.0,1.0")]},
        "{demand}:18: resident 7 outside 0..1"),
    "blank lines count": (
        {"wind": [_insert(1, ""), _insert(3, ""), _set(4, "1,gusty")]},
        "{wind}:5: field generation_kwh is not a number: 'gusty'"),
    "Infinity is not finite": (
        {"wind": [_set(3, "2,Infinity")]},
        "{wind}:4: field generation_kwh is not finite: 'Infinity'"),
    "negative infinity is not finite": (
        {"demand": [_set(5, "2,0,1.0,-inf")]},
        "{demand}:6: field quality_kwh is not finite: '-inf'"),
}

# Edits that load_traces accepts, with the (slot, field, value) they give.
ACCEPTED = {
    "underscore digits": ({"wind": [_set(1, "0,1_000.5")]}, (0, "u", 1000.5)),
    "padded float": ({"wind": [_set(1, "0, 2.5e3 ")]}, (0, "u", 2500.0)),
    "padded and underscored slot": (
        {"wind": [_delete(1), _append(" 0_0 ,1000.5")]}, (0, "u", 1000.5)),
    "garbage values past the horizon": (
        {"wind": [_append("9,gusty")], "prices": [_append("9,x,y")],
         "demand": [_append("9,1,x,y")]}, None),
    "slot too large for int64": (
        {"wind": [_append(f"{10 ** 30},gusty")],
         "prices": [_append(f"{10 ** 30},0.08,0.03")],
         "demand": [_append(f"{10 ** 30},0,1.0,1.0")]}, None),
}


class TestLoaderFaultPrecedence:
    """When a trace has several faults, load_traces reports the one its
    row-at-a-time reading order meets first."""

    def _load(self, tmp_path, edits):
        config = make_config(horizon=8, residents=(make_resident(),) * 2)
        traces = generate_traces(config)
        paths = dict(zip(("wind", "prices", "demand"),
                         write_traces(traces, str(tmp_path / "t"))))
        for kind, kind_edits in edits.items():
            lines = Path(paths[kind]).read_text().split("\n")[:-1]
            for edit in kind_edits:
                edit(lines)
            Path(paths[kind]).write_text("\n".join(lines) + "\n")
        return paths, traces, lambda: load_traces(
            paths["wind"], paths["prices"], paths["demand"], config)

    @pytest.mark.parametrize("edits,message", PRECEDENCE.values(),
                             ids=PRECEDENCE.keys())
    def test_reports_the_first_fault(self, tmp_path, edits, message):
        paths, _, load = self._load(tmp_path, edits)
        with pytest.raises(TraceError) as info:
            load()
        assert str(info.value) == message.format(**paths)

    @pytest.mark.parametrize("edits,changed", ACCEPTED.values(),
                             ids=ACCEPTED.keys())
    def test_accepts_what_float_and_int_accept(self, tmp_path, edits,
                                               changed):
        _, traces, load = self._load(tmp_path, edits)
        if changed is not None:
            t, field, value = changed
            traces[t] = replace(traces[t], **{field: value})
        assert load() == traces


def _bump(field, i, value):
    """Set entry i of the observation's tuple field to value."""
    def perturb(obs, system):
        values = list(getattr(obs, field))
        values[i] = value(obs, system) if callable(value) else value
        return replace(obs, **{field: tuple(values)})
    return perturb


def _put(field, value):
    def perturb(obs, system):
        return replace(obs, **{field: value(obs, system)
                               if callable(value) else value})
    return perturb


# One perturbation per bound validate_observation checks, with the number
# of problems it then reports: a negative generation is always below the
# basic total too, every other perturbation breaks one bound. The grid's
# purchase band is widened down to 0.03 so that a sell price at the
# purchase price breaks only the w < c bound.
BOUND_PERTURBATIONS = {
    "negative generation": (_put("u", -1.0), 2),
    "negative basic": (_bump("basic", 2, -0.5), 1),
    "negative quality": (_bump("alpha", 3, -0.25), 1),
    "quality above alpha_max": (_bump(
        "alpha", 1, lambda obs, system: system.residents[1].alpha_max + 0.5),
        1),
    "basic above generation": (
        _put("u", lambda obs, system: 0.5 * sum(obs.basic)), 1),
    "purchase price below band": (
        lambda obs, system: replace(obs, c=0.025, w=0.02), 1),
    "purchase price above band": (_put("c", 0.11), 1),
    "sell price below band": (_put("w", 0.015), 1),
    "sell price above band": (
        lambda obs, system: replace(obs, c=0.08, w=0.045), 1),
    "sell price at purchase price": (
        lambda obs, system: replace(obs, c=0.035, w=0.035), 1),
}


class TestLoaderBounds:
    """load_traces' bound masks flag exactly what validate_observation
    reports, and its basic totals are those of sum()."""

    def config(self):
        config = load_config("configs/five_day.yaml")
        return replace(config, grid=replace(config.grid, c_min=0.03))

    @pytest.mark.parametrize("perturb,count", BOUND_PERTURBATIONS.values(),
                             ids=BOUND_PERTURBATIONS.keys())
    def test_reports_validate_observations_first_problem(self, tmp_path,
                                                         perturb, count):
        config = self.config()
        system = config.system
        traces = generate_traces(config)
        t = 217
        traces[t] = perturb(traces[t], system)
        problems = validate_observation(traces[t], system)
        assert len(problems) == count
        paths = write_traces(traces, str(tmp_path / "t"))
        with pytest.raises(TraceError) as info:
            load_traces(*paths, config)
        assert str(info.value) == f"slot {t}: {problems[0]}"

    def test_valid_trace_loads_without_auditing_each_slot(self, tmp_path,
                                                          monkeypatch):
        config = self.config()
        traces = generate_traces(config)
        paths = write_traces(traces, str(tmp_path / "t"))
        monkeypatch.setattr(mgsched.sim, "validate_observation", None)
        assert load_traces(*paths, config) == traces

    @pytest.mark.parametrize("path", ["configs/five_day.yaml",
                                      "configs/seven_day.yaml"])
    def test_row_total_adds_as_sum_does(self, path):
        traces = generate_traces(load_config(path))
        basic = np.array([obs.basic for obs in traces])
        assert _row_total(basic).tolist() == [sum(obs.basic)
                                              for obs in traces]


def inert_trace(n=1):
    return [SlotObservation(u=0.0, basic=(0.0,) * n, alpha=(0.0,) * n,
                            c=0.10, w=0.02)]


def one_by_one(r=0.0, p=0.0):
    """A dispatch for one battery and one resident that only recharges and
    serves."""
    return Dispatch(q=0.0, s=0.0, r=(r,), d=(0.0,), p=(p,), objective=0.0)


class TestStep:
    def test_advances_levels_backlogs_and_slot(self):
        state = SystemState(t=3, e=(8.0,), z=(1.0,))
        obs = SlotObservation(u=2.0, basic=(0.0,), alpha=(2.0,), c=0.10, w=0.02)
        after = step(make_system(), state, obs, one_by_one(r=2.0, p=0.5))
        assert after == SystemState(
            t=4, e=(10.0,), z=(update_qose_queue(1.0, 2.0, 0.5, 0.07),))
        assert after.z == pytest.approx((2.36,))

    def test_advances_past_the_band_and_rejects_service_above_demand(self):
        state = SystemState(t=0, e=(15.0,), z=(3.0,))
        obs = SlotObservation(u=0.0, basic=(0.0,), alpha=(2.0,), c=0.10, w=0.02)
        after = step(make_system(), state, obs, one_by_one(r=2.0))
        assert after.e == (17.0,) and after.z == pytest.approx((4.86,))
        with pytest.raises(ValueError, match="exceeds demand"):
            step(make_system(), state, obs, one_by_one(p=2.5))


def nudge(x: float, steps: int) -> float:
    """x moved |steps| ulps up (steps > 0) or down."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


TOL = BALANCE_TOL
BIG = 1e3
BOX_FIELDS = ("q", "s", "r", "d", "p", "curtailed")
# Every example audits one slot per fault.
FAULTS = (
    [("quiet",), ("wide",), ("both-trades",), ("charge-and-discharge",),
     ("residual", -1.0), ("residual", 1.0)]
    + [("nan", field) for field in BOX_FIELDS[:5]]
    + [("box", field, side) for field in BOX_FIELDS for side in ("lo", "hi")]
    + [("threshold", kind, place, regime)
       for kind in ("recharge", "discharge", "serve", "block")
       for place in ("level", "flow") for regime in ("bounds", "purchase",
                                                     "sell")]
    + [("threshold", kind, "gate", regime)
       for kind in ("recharge", "discharge", "serve", "block")
       for regime in ("purchase", "sell")])


def level_at(x: float, spec, v: float, grid, steps: int) -> float:
    """A battery level whose queue lands on x, moved steps ulps."""
    e = x + v * grid.c_max + spec.e_min + spec.d_max
    for near in (0, -1, 1, -2, 2):
        if battery_queue(nudge(e, near), spec, v, grid) == x:
            e = nudge(e, near)
            break
    return nudge(e, steps)


def place_box_fault(rnd, steps, system, field, side, alpha, flows, e, z):
    """One flow at its box edge +-tol or one ulp to either side; the rest
    of the slot stays clear of every threshold condition."""
    g = system.grid
    k = rnd.randrange(len(system.batteries))
    j = rnd.randrange(len(system.residents) - 1)
    if field in ("q", "s"):
        hi = g.q_max if field == "q" else g.s_max
        flows[field] = nudge(-TOL if side == "lo" else hi + TOL, steps)
    elif field in ("r", "d"):
        spec = system.batteries[k]
        hi = spec.r_max if field == "r" else spec.d_max
        flows[field][k] = nudge(-TOL if side == "lo" else hi + TOL, steps)
        e[k] = -BIG if field == "r" else BIG
    elif field == "p":
        alpha[j] = rnd.uniform(0.01, 2.5)
        flows["p"][j] = nudge(-TOL if side == "lo" else alpha[j] + TOL, steps)
        z[j] = 0.0 if side == "lo" else BIG
    else:
        flows["curtailed"] = nudge(-TOL if side == "lo" else 0.0, steps)


def place_threshold_fault(rnd, steps, system, v, c, w, kind, place, regime,
                          alpha, flows, e, z):
    """One strict threshold comparison with its level or its flow at the
    edge or one ulp to either side, or ("gate") a level between two bounds
    and a trade of 0 or +-1 ulp, so that only the trade's sign decides."""
    g = system.grid
    if place == "gate":
        flows["q" if regime == "purchase" else "s"] = nudge(0.0, steps)
    elif regime != "bounds":
        flows["q" if regime == "purchase" else "s"] = rnd.uniform(0.1, 5.0)
    price = c if regime == "purchase" else w
    if regime == "bounds":
        price = g.w_min if kind == "recharge" else g.c_max
    if kind in ("recharge", "discharge"):
        k = rnd.randrange(len(system.batteries))
        spec = system.batteries[k]
        flow = rnd.uniform(0.01, spec.r_max if kind == "recharge"
                           else spec.d_max)
        bound = -v * price
        if kind == "recharge":
            outer, inner = bound + 0.5, -v * g.w_min
        else:
            outer, inner = bound - 0.5, -v * g.c_max
        if place == "level":
            e[k] = level_at(bound, spec, v, g, steps)
        elif place == "flow":
            e[k] = level_at(outer, spec, v, g, 0)
            flow = nudge(1e-12, steps)
        else:
            e[k] = level_at(0.5 * (bound + inner), spec, v, g, 0)
        flows["r" if kind == "recharge" else "d"][k] = flow
        return
    j = rnd.randrange(len(system.residents) - 1)
    res = system.residents[j]
    alpha[j] = rnd.uniform(0.01, 2.5)
    floor = (1.0 - res.delta) * alpha[j]
    if kind == "serve":
        inner = v * g.c_max
        bound = inner if regime == "bounds" else v * price - alpha[j]
        outer, flow, edge_flow = bound + 1.0, 0.0, floor - 1e-9
    else:
        inner = v * g.w_min - res.alpha_max
        bound = inner if regime == "bounds" else v * price - alpha[j]
        outer, flow, edge_flow = bound - 1.0, alpha[j], 1e-12
    if place == "level":
        z[j] = nudge(bound, steps)
    elif place == "flow":
        z[j] = outer
        flow = nudge(edge_flow, steps)
    else:
        z[j] = 0.5 * (bound + inner)
    flows["p"][j] = flow


@st.composite
def audited_slots(draw):
    """One slot per fault in FAULTS at up to 5 batteries x 20 residents,
    each otherwise clear of every audit condition, plus one slot of flows
    drawn anywhere in their boxes.

    Faults: a flow at its box edge +-tol or one ulp to either side, a NaN
    flow, buying and selling at once, recharging and discharging one
    battery at once, a balance residual at +-tol, and each strict threshold
    comparison on both sides of its edge. The states after each slot sit
    at the band and backlog-cap edges +-tol and at 5e-10 dust. The last
    resident absorbs any energy left over, so only the forced fault can
    break the balance. Hypothesis draws the sizes, v, each fault's ulp
    offset and a seed for everything else: drawing the few thousand other
    values through it takes ten times as long.
    """
    k = draw(st.integers(1, 5))
    n = draw(st.integers(2, 20))
    v = draw(st.floats(10.0, 150.0))
    offsets = draw(st.lists(st.sampled_from((-1, 0, 1)),
                            min_size=len(FAULTS), max_size=len(FAULTS)))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    system = SystemSpec(
        batteries=tuple(make_battery(r_max=rnd.uniform(0.5, 3.0),
                                     d_max=rnd.uniform(0.5, 3.0))
                        for _ in range(k)),
        residents=tuple(make_resident(delta=rnd.uniform(0.02, 0.2))
                        for _ in range(n)),
        grid=make_grid())
    g = system.grid
    z_max = bound_constants(system, v).z_max

    def edge(edges, lo, hi):
        if rnd.random() < 0.5:
            return rnd.uniform(lo, hi)
        return nudge(rnd.choice(edges), rnd.choice((-1, 0, 1)))

    levels = [[edge([b.e_min - TOL, b.e_max + TOL, b.e_min - 5e-10,
                     b.e_max + 5e-10], -1.0, 17.0) for b in system.batteries]
              for _ in range(len(FAULTS) + 1)]
    backlogs = [[edge([cap + TOL, cap + 5e-10, cap], 0.0, 2.0 * cap)
                 for cap in z_max] for _ in range(len(FAULTS) + 1)]
    observations, dispatches = [], []
    for fault, steps, e, z in zip(FAULTS, offsets, levels, backlogs):
        c = rnd.uniform(0.05, 0.10)
        w = rnd.uniform(0.02, 0.04)
        alpha = [0.0] * n
        flows = dict(q=0.0, s=0.0, r=[0.0] * k, d=[0.0] * k, p=[0.0] * n,
                     curtailed=0.0)
        if fault[0] == "wide":
            alpha = [rnd.uniform(0.0, 2.5) for _ in range(n)]
            flows = dict(
                q=rnd.uniform(0.0, g.q_max), s=rnd.uniform(0.0, g.s_max),
                r=[rnd.uniform(0.0, b.r_max) for b in system.batteries],
                d=[rnd.uniform(0.0, b.d_max) for b in system.batteries],
                p=[rnd.uniform(0.0, a) for a in alpha], curtailed=0.0)
        elif fault[0] == "both-trades":
            flows["q"] = flows["s"] = rnd.uniform(1e-6, 20.0)
        elif fault[0] == "charge-and-discharge":
            i = rnd.randrange(k)
            spec = system.batteries[i]
            flows["r"][i] = flows["d"][i] = rnd.uniform(
                1e-6, min(spec.r_max, spec.d_max))
            e[i] = level_at(-0.5 * v * (g.c_max + g.w_min), spec, v, g, 0)
        elif fault[0] == "box":
            place_box_fault(rnd, steps, system, *fault[1:], alpha, flows, e,
                            z)
        elif fault[0] == "threshold":
            place_threshold_fault(rnd, steps, system, v, c, w, *fault[1:],
                                  alpha, flows, e, z)
        need = (flows["curtailed"] - flows["q"] - sum(flows["d"])
                + flows["s"] + sum(flows["r"]) + sum(flows["p"]))
        surplus = max(need, 0.0)
        if need < 0.0 and fault[0] != "wide":
            alpha[-1] = flows["p"][-1] = -need
            z[-1] = BIG
        if fault[0] == "residual":
            # An exact surplus of 0.0 puts the residual exactly at tol.
            surplus = rnd.choice((0.0, rnd.uniform(0.0, 24.0)))
            flows["s"] = nudge(surplus + fault[1] * TOL * max(1.0, surplus),
                               steps)
        elif fault[0] == "nan":
            if fault[1] in ("q", "s"):
                flows[fault[1]] = math.nan
            else:
                flows[fault[1]][rnd.randrange(len(flows[fault[1]]))] = (
                    math.nan)
        # Zero basic usage keeps the residual fault's surplus exact.
        basic = tuple(0.0 if fault[0] == "residual"
                      else rnd.choice((0.0, 0.3)) for _ in range(n))
        observations.append(SlotObservation(
            u=sum(basic) + surplus, basic=basic, alpha=tuple(alpha), c=c,
            w=w))
        dispatches.append(Dispatch(
            q=flows["q"], s=flows["s"], r=tuple(flows["r"]),
            d=tuple(flows["d"]), p=tuple(flows["p"]), objective=0.0,
            curtailed=flows["curtailed"]))
    states = [SystemState(t=t, e=tuple(e), z=tuple(z))
              for t, (e, z) in enumerate(zip(levels, backlogs))]
    return system, v, z_max, states, observations, dispatches


def rows(states):
    """The level and backlog rows of states, as audit_slots takes them."""
    return [state.e for state in states], [state.z for state in states]


def audit_one(system, state, obs, dispatch, z_max, v=150.0):
    """Step one slot and audit it."""
    states = [state, step(system, state, obs, dispatch)]
    return (audit_slots(system, v, *rows(states), [obs], [dispatch], z_max),
            states)


class TestAuditSlots:
    @given(audited_slots())
    @settings(deadline=None, max_examples=40)
    def test_masks_equal_the_per_slot_audits(self, case):
        system, v, z_max, states, observations, dispatches = case
        audit = audit_slots(system, v, *rows(states), observations, dispatches,
                            z_max)
        for t, (obs, dispatch) in enumerate(zip(observations, dispatches)):
            after = states[t + 1]
            assert audit["balance"][t] == bool(
                check_dispatch(dispatch, system, obs))
            assert audit["exclusivity"][t] == (
                dispatch.q * dispatch.s != 0.0
                or any(r * d != 0.0 for r, d in zip(dispatch.r, dispatch.d)))
            assert audit["threshold"][t] == bool(threshold_violations(
                system, states[t], obs, v, dispatch))
            assert audit["battery_band"][t].tolist() == [
                e < b.e_min - BALANCE_TOL or e > b.e_max + BALANCE_TOL
                for e, b in zip(after.e, system.batteries)]
            assert audit["queue_bound"][t].tolist() == [
                z > cap + BALANCE_TOL for z, cap in zip(after.z, z_max)]
            assert repr(audit["cost"][t].item()) == repr(
                dispatch.q * obs.c - dispatch.s * obs.w)
            assert repr(audit["outage"][t].tolist()) == repr(
                [a - p for a, p in zip(obs.alpha, dispatch.p)])

    def test_flags_band_escape_and_queue_breach(self):
        system = make_system()
        state = SystemState(t=0, e=(15.0,), z=(3.0,))
        obs = SlotObservation(u=0.0, basic=(0.0,), alpha=(2.0,), c=0.10, w=0.02)
        # e' = 15 + 2 = 17 > e_max = 16; z' = 3 - 0.14 + 2 = 4.86 > 4
        dispatch = one_by_one(r=2.0)
        audit, states = audit_one(system, state, obs, dispatch, (4.0,))
        assert audit["battery_band"].tolist() == [[True]]
        assert audit["queue_bound"].tolist() == [[True]]
        args = (system, 150.0, *rows(states), [obs], [dispatch], (4.0,))
        assert first_violation(audit, ("battery_band",), *args) == (
            0, "battery_band", "battery 0: level 17.0 outside [0.0, 16.0]")
        assert first_violation(audit, ("queue_bound",), *args) == (
            0, "queue_bound",
            f"resident 0: backlog {states[1].z[0]} above cap 4.0")
        assert states[1].z == pytest.approx((4.86,))

    def test_float_dust_is_not_an_escape(self):
        state = SystemState(t=0, e=(16.0 + 5e-10,), z=(4.0 + 5e-10,))
        obs = SlotObservation(u=0.0, basic=(0.0,), alpha=(0.0,), c=0.10, w=0.02)
        audit, _ = audit_one(make_system(), state, obs, one_by_one(),
                             (4.0,))
        assert not audit["battery_band"].any()
        assert not audit["queue_bound"].any()

    def test_run_counts_band_escapes_as_the_audit_flags_them(self):
        # one battery starts full, one empty; recharging r_max every slot
        # pushes the first out at once and the second after eight slots,
        # while serving nothing lets the backlog pass its cap
        config = make_config(batteries=(make_battery(e_init=16.0),
                                        make_battery(e_init=0.0)),
                             horizon=40)
        traces = generate_traces(config)

        def overfill(state, obs):
            return Dispatch(q=0.0, s=0.0, r=(2.0, 2.0), d=(0.0, 0.0),
                            p=(0.0,), objective=0.0)

        _, summary = run(config, traces, policy=overfill)
        z_max = bound_constants(config.system, summary.v).z_max
        states = [SystemState(t=0, e=(16.0, 0.0), z=(0.0,))]
        dispatches = []
        for obs in traces:
            dispatches.append(overfill(states[-1], obs))
            states.append(step(config.system, states[-1], obs,
                               dispatches[-1]))
        audit = audit_slots(config.system, summary.v, *rows(states), traces,
                            dispatches, z_max)
        assert audit["battery_band"].sum() == 40 + 32
        assert summary.violations["battery_band"] == 40 + 32
        # backlog caps are audited for the scheduler only
        assert audit["queue_bound"].sum() > 0
        assert summary.violations["queue_bound"] == 0

    def test_window_at_its_budget_passes_and_one_above_fails(self):
        # 0.25 kWh unserved per slot adds up exactly: slots 0..499 leave
        # 125.0, the budget 46.875 + 500*0.0625*2.5, and slots 1..500,
        # whose last slot leaves 0.5, leave 125.25
        system = SystemSpec(batteries=(make_battery(),),
                            residents=(make_resident(delta=0.0625),),
                            grid=make_grid())
        obs = [SlotObservation(u=0.0, basic=(0.0,), alpha=(alpha,), c=0.10,
                               w=0.02) for alpha in [0.25] * 500 + [0.5]]
        dispatches = [one_by_one()] * len(obs)
        states = [SystemState(t=0, e=(8.0,), z=(0.0,))] * (len(obs) + 1)
        args = (system, 150.0, *rows(states), obs, dispatches, (46.875,))
        audit = audit_slots(*args)
        audit["outage_window"] = outage_window_flags(
            audit["outage"], system.residents, (46.875,))
        assert np.flatnonzero(audit["outage_window"]).tolist() == [500]
        assert first_violation(audit, ("outage_window",), *args) == (
            500, "outage_window",
            "resident 0: slots 1..500 leave 125.25 unserved, above budget "
            "125.0")

    @pytest.mark.parametrize("field,width", [("basic", 4), ("alpha", 6)])
    def test_misshaped_observation_names_the_slot(self, field, width):
        config = replace(load_config("configs/five_day.yaml"), horizon=5)
        observations = generate_traces(config)
        observations[3] = replace(observations[3], **{field: (0.1,) * width})
        state = SystemState(t=0, e=(8.0, 8.0), z=(0.0,) * 5)
        idle = Dispatch(q=0.0, s=0.0, r=(0.0, 0.0), d=(0.0, 0.0),
                        p=(0.0,) * 5, objective=0.0)
        with pytest.raises(ValueError) as err:
            audit_slots(config.system, 10.0, *rows([state] * 6), observations,
                        [idle] * 5, (4.0,) * 5)
        assert str(err.value) == (
            f"slot 3: observation {field} has {width} entries, expected 5")

    def test_unfed_basic_usage_raises_as_surplus_power_does(self):
        system = make_system()
        obs = SlotObservation(u=1.0, basic=(1.5,), alpha=(0.0,), c=0.10,
                              w=0.02)
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        with pytest.raises(ValueError) as expected:
            surplus_power(obs)
        with pytest.raises(ValueError) as err:
            audit_slots(system, 150.0, *rows([state] * 2), [obs],
                        [one_by_one()], (4.0,))
        assert str(err.value) == str(expected.value)


class TestSimulate:
    @pytest.mark.parametrize("seed, v_factor", [(3, 1.0), (4, 2.0)])
    def test_levels_and_backlogs_are_those_of_step(self, seed, v_factor):
        # The slot loop's tuple recurrence gives, bit for bit, the levels
        # and backlogs that step gives slot by slot on the same dispatches,
        # also past band escapes (at twice the safe v, without the
        # headroom clamp); each dispatch is dispatch_slot's at its state.
        config = random_system(np.random.default_rng(seed), 600, 5, 20)
        system = config.system
        v = v_factor * compute_vmax(config.batteries, config.grid)
        z_max = bound_constants(system, v).z_max
        observations = generate_traces(config)
        levels, backlogs, dispatches, audit = _simulate(
            config, observations,
            slot_solver(system, v, headroom_clamp=False), v, z_max)
        states = [SystemState(0, tuple(b.e_init for b in config.batteries),
                              (0.0,) * system.n_residents)]
        for obs, dispatch in zip(observations, dispatches):
            assert dispatch == dispatch_slot(system, states[-1], obs, v,
                                             headroom_clamp=False)
            states.append(step(system, states[-1], obs, dispatch))
        assert [state.t for state in states] == list(range(601))
        assert repr(levels) == repr([state.e for state in states])
        assert repr(backlogs) == repr([state.z for state in states])
        assert audit["battery_band"].any() == (v_factor > 1.0)

    def test_custom_service_above_demand_raises_as_step_does(self):
        config = make_config(horizon=5, seed=8)
        traces = generate_traces(config)

        def overserve(state, obs):
            return one_by_one(p=obs.alpha[0] + 1e-6)

        start = SystemState(0, (config.batteries[0].e_init,), (0.0,))
        with pytest.raises(ValueError, match="exceeds demand") as expected:
            step(config.system, start, traces[0], overserve(start, traces[0]))
        with pytest.raises(ValueError) as err:
            run(config, traces, policy=overserve)
        assert str(err.value) == str(expected.value)


class TestRun:
    def test_single_inert_slot(self):
        config = make_config(horizon=1)
        records, summary = run(config, inert_trace())
        assert len(records) == 1
        rec = records[0]
        assert rec.t == 0
        assert rec.cost_increment == 0.0
        assert rec.cumulative_cost == 0.0
        assert rec.e == (8.0,)
        assert rec.z == (0.0,)
        assert rec.outage == (0.0,)
        assert summary.policy == "proposed"
        assert summary.slots == 1
        assert summary.v == pytest.approx(150.0)
        assert summary.v_max == pytest.approx(150.0)
        assert summary.total_cost == 0.0
        assert summary.outage_ratio == (0.0,)
        assert summary.convergence_slot == (0,)
        assert summary.stability_pass == (True,)
        assert summary.curtailed_total == 0.0
        assert all(v == 0 for v in summary.violations.values())

    def test_records_replay_consistently(self):
        config = make_config(horizon=300, burst_prob=0.05)
        traces = generate_traces(config)
        records, summary = run(config, traces)
        assert len(records) == 300
        cumulative = 0.0
        e = (8.0,)
        for rec, obs in zip(records, traces):
            d = rec.dispatch
            assert rec.cost_increment == pytest.approx(d.q * obs.c - d.s * obs.w)
            cumulative += rec.cost_increment
            assert rec.cumulative_cost == pytest.approx(cumulative)
            assert rec.e[0] == pytest.approx(e[0] - d.d[0] + d.r[0])
            assert rec.outage[0] == pytest.approx(obs.alpha[0] - d.p[0])
            e = rec.e
        assert summary.total_cost == pytest.approx(cumulative)
        assert summary.mean_cost_per_slot == pytest.approx(cumulative / 300)
        assert summary.alpha_total[0] == pytest.approx(
            sum(obs.alpha[0] for obs in traces))

    def test_deterministic(self):
        config = make_config(horizon=250, policy="mecp")
        traces = generate_traces(config)
        rec_a, sum_a = run(config, traces)
        rec_b, sum_b = run(config, traces)
        assert rec_a == rec_b
        assert sum_a == sum_b

    def test_scheduler_audits_stay_clean(self):
        config = make_config(horizon=600, burst_prob=0.05, seed=5)
        traces = generate_traces(config)
        _, summary = run(config, traces)
        assert summary.violations == {key: 0 for key in summary.violations}
        assert summary.first_violation is None
        assert summary.stability_pass == (True,)

    def test_first_violation_names_the_overfilled_battery(self):
        # battery 0 recharges r_max from slot 5 on and sells or buys the
        # difference: from 8 kWh it reaches 16 after slot 8 and 18 after 9
        config = make_config(batteries=(make_battery(), make_battery()),
                             horizon=20)
        traces = generate_traces(config)

        def overfill(state, obs):
            r0 = 2.0 if state.t >= 5 else 0.0
            net = surplus_power(obs) - r0
            return Dispatch(q=max(-net, 0.0), s=max(net, 0.0), r=(r0, 0.0),
                            d=(0.0, 0.0), p=(0.0,), objective=0.0)

        _, summary = run(config, traces, policy=overfill)
        assert summary.violations == dict.fromkeys(summary.violations, 0) | {
            "battery_band": 11}
        assert summary.first_violation == (
            9, "battery_band", "battery 0: level 18.0 outside [0.0, 16.0]")
        assert "18.0" not in format_summary(summary)

    def test_misshaped_custom_dispatch_names_slot_and_field(self):
        # five_day has 2 batteries and 5 residents; from slot 3 on the
        # policy returns one recharge entry, which run() must name before
        # the audit stacks the slots' flows into arrays
        config = replace(load_config("configs/five_day.yaml"), horizon=10)

        def short_r(state, obs):
            r = (0.0,) if state.t >= 3 else (0.0, 0.0)
            return Dispatch(q=0.0, s=surplus_power(obs), r=r, d=(0.0, 0.0),
                            p=(0.0,) * 5, objective=0.0)

        with pytest.raises(ValueError, match=r"^slot 3: .*\br has 1 entries, "
                                             r"expected 2$"):
            run(config, generate_traces(config), policy=short_r)

    @pytest.mark.parametrize("field,width", [("alpha", 4), ("basic", 6)])
    def test_misshaped_observation_named_before_any_slot(self, field, width):
        # A slot with the wrong number of resident entries is named before
        # any slot is solved, not left to the audit's stacking of the slots
        config = replace(load_config("configs/five_day.yaml"), horizon=10)
        traces = generate_traces(config)
        traces[3] = replace(traces[3], **{field: (0.1,) * width})
        solved = []

        def policy(state, obs):
            solved.append(state.t)
            return dispatch_slot(config.system, state, obs, 1.0)

        for how in (None, policy):
            with pytest.raises(ValueError) as err:
                run(config, traces, policy=how)
            assert str(err.value) == (
                f"slot 3: observation {field} has {width} entries, "
                "expected 5")
        assert solved == []

    def test_overweighted_scheduler_counters_are_pinned(self, monkeypatch):
        # The scheduler at 4x its control weight without the headroom
        # clamp, on one random system drawn at up to 5 batteries x 20
        # residents (here 5 x 10). The counts are those of the per-slot
        # audits the simulator ran before audit_slots existed.
        real = mgsched.sim.slot_solver

        def overweighted(system, v, **kwargs):
            return real(system, 4.0 * v, headroom_clamp=False, **kwargs)

        monkeypatch.setattr(mgsched.sim, "slot_solver", overweighted)
        config = replace(random_system(np.random.default_rng(26), 800,
                                       k_max=5, n_max=20), seed=26)
        _, summary = run(config, generate_traces(config))
        assert summary.violations == {
            "battery_band": 144, "queue_bound": 7918, "outage_window": 6,
            "balance": 0, "exclusivity": 0, "threshold": 745}
        slot, key, msg = summary.first_violation
        assert (slot, key) == (1, "threshold")
        assert msg.startswith("battery 0: queue -0.8027440105226797 above")

    def test_mecp_policy_runs_clean_boxes(self):
        config = make_config(horizon=400, policy="mecp", seed=6)
        traces = generate_traces(config)
        _, summary = run(config, traces)
        assert summary.policy == "mecp"
        assert summary.violations["balance"] == 0
        assert summary.violations["exclusivity"] == 0

    def test_custom_policy_and_balance_counter(self):
        config = make_config(horizon=50, seed=8)
        traces = generate_traces(config)

        def do_nothing(state, obs):
            return Dispatch(q=0.0, s=0.0, r=(0.0,), d=(0.0,), p=(0.0,),
                            objective=0.0)

        _, summary = run(config, traces, policy=do_nothing)
        assert summary.policy == "custom"
        assert summary.violations["balance"] > 0

    def test_short_trace_rejected(self):
        config = make_config(horizon=10)
        with pytest.raises(ValueError, match="horizon"):
            run(config, inert_trace())

    def test_unknown_policy_rejected(self):
        config = make_config(horizon=1)
        with pytest.raises(ValueError, match="policy"):
            run(config, inert_trace(), policy="oracle")

    def test_keep_records_off(self):
        config = make_config(horizon=20)
        records, summary = run(config, generate_traces(config),
                               keep_records=False)
        assert records == []
        assert summary.slots == 20

    def test_convergence_never_settles_is_minus_one(self):
        config = make_config(horizon=30)
        traces = [SlotObservation(u=0.0, basic=(0.0,), alpha=(2.0,),
                                  c=0.10, w=0.02) for _ in range(30)]

        def block_everything(state, obs):
            return Dispatch(q=0.0, s=0.0, r=(0.0,), d=(0.0,), p=(0.0,),
                            objective=0.0)

        _, summary = run(config, traces, policy=block_everything)
        assert summary.convergence_slot == (-1,)
        assert summary.outage_ratio == (1.0,)


class TestHindsight:
    def test_zero_multiplier_bound_is_nonpositive(self):
        config = make_config(horizon=400, seed=4)
        traces = generate_traces(config)
        lb = hindsight_lower_bound(traces, config, iterations=1)
        assert lb <= 1e-12

    def test_best_so_far_is_monotone_in_iterations(self):
        config = make_config(horizon=400, seed=4)
        traces = generate_traces(config)
        lb1 = hindsight_lower_bound(traces, config, iterations=1)
        lb8 = hindsight_lower_bound(traces, config, iterations=8)
        assert lb8 >= lb1 - 1e-12

    def test_bounds_the_online_cost(self):
        config = make_config(horizon=2000, burst_prob=0.05, seed=7)
        traces = generate_traces(config)
        _, summary = run(config, traces, keep_records=False)
        lb = hindsight_lower_bound(traces, config, iterations=15)
        assert lb <= summary.mean_cost_per_slot + 1e-9

    def test_rejects_bad_iterations(self):
        config = make_config(horizon=10)
        with pytest.raises(ValueError):
            hindsight_lower_bound(generate_traces(config), config, iterations=0)

    def test_pinned_on_a_short_five_day_trace(self):
        # The bound's exact floats on these traces: rewriting how the slot
        # problems are solved must reproduce them, and a deliberate change
        # to the bound re-pins them. The 30-iteration value also pins the
        # mu step, which includes the terminal-level term the bound adds;
        # without that term it reads 0.11790508033661118.
        config = load_config("configs/five_day.yaml")
        traces = generate_traces(config)
        lb = hindsight_lower_bound(traces[:200], config, iterations=5)
        assert lb == 0.18882186817510022
        lb = hindsight_lower_bound(traces[:10], config, iterations=30)
        assert lb == 0.11828450818698441

    def test_bounds_a_policy_that_spends_its_initial_charge(self):
        # Serving every request, discharging before buying and recharging
        # before selling is feasible; over 10 slots it drains batteries it
        # never refills, which a bound that pins the terminal level to the
        # initial one overestimates.
        base = replace(load_config("configs/five_day.yaml"), horizon=10,
                       policy="mecp", block_prob=0.0, charge_prob=0.0)
        for seed in range(10):
            config = replace(base, seed=seed)
            traces = generate_traces(config)
            _, summary = run(config, traces, keep_records=False)
            assert summary.outage_total == (0.0,) * 5
            assert summary.violations["battery_band"] == 0
            lb = hindsight_lower_bound(traces, config, iterations=30)
            assert lb <= summary.mean_cost_per_slot

    def test_unservable_slot_named_unless_curtailed(self):
        # A 100 kWh burst outruns the resident (2.5), the battery (2) and
        # the sale cap (25) in slots 3 and 5; slot 3 is the one named.
        config = make_config(horizon=6)
        traces = generate_traces(config)
        for t in (3, 5):
            traces[t] = replace(traces[t], u=traces[t].u + 100.0)
        with pytest.raises(UnservableSurplusError, match=r"^slot 3: "):
            hindsight_lower_bound(traces, config, iterations=3)
        lb = hindsight_lower_bound(traces, replace(config, curtailment=True),
                                   iterations=3)
        assert type(lb) is float and math.isfinite(lb)

    # The bound on ten 500-slot five_day traces (seeds 0-9, 10 iterations)
    # and on six random systems (300 slots, up to 5 batteries x 20
    # residents, 8 iterations). Rewriting how the slot problems are solved
    # must reproduce the five_day floats exactly: their books hold 7 bids,
    # whose sums keep one order in any layout. From 8 bids on, numpy adds
    # a row of bids pairwise and a column one after another, so the random
    # ones may move by an ulp.
    FIVE_DAY_BOUNDS = (
        0.23143150397566717,
        0.2436763297457619,
        0.24184291977480757,
        0.23804356767322168,
        0.2276815799913768,
        0.24516590716050235,
        0.22438142593971444,
        0.24214659142633113,
        0.23625607454699205,
        0.23163111371079875,
    )
    RANDOM_BOUNDS = (
        0.3208292090768654,
        0.009079941752677916,
        -0.14058372516635664,
        0.10255997160377926,
        0.07832300980882768,
        0.10058770295484344,
    )

    def test_five_day_bounds_are_pinned(self):
        base = load_config("configs/five_day.yaml")
        for seed, expected in enumerate(self.FIVE_DAY_BOUNDS):
            config = replace(base, horizon=500, seed=seed)
            lb = hindsight_lower_bound(generate_traces(config), config,
                                       iterations=10)
            assert lb == expected

    def test_random_system_bounds_match_to_an_ulp(self):
        rng = np.random.default_rng(2024)
        for expected in self.RANDOM_BOUNDS:
            config = random_system(rng, 300, 5, 20)
            traces = generate_traces(config, rng)
            lb = hindsight_lower_bound(traces, config, iterations=8)
            assert lb == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_bound_uses_the_first_horizon_slots(self):
        config = make_config(horizon=30, seed=2)
        traces = generate_traces(replace(config, horizon=60))
        lb = hindsight_lower_bound(traces, config, iterations=4)
        assert lb == hindsight_lower_bound(traces[:30], config, iterations=4)
        short = replace(config, horizon=20)
        assert (hindsight_lower_bound(traces[:20], config, iterations=4)
                == hindsight_lower_bound(traces, short, iterations=4))

    @pytest.mark.parametrize("field,width", [("basic", 4), ("alpha", 6)])
    def test_misshaped_observation_names_the_slot(self, field, width):
        config = replace(load_config("configs/five_day.yaml"), horizon=20)
        traces = generate_traces(config)
        traces[3] = replace(traces[3], **{field: (0.1,) * width})
        with pytest.raises(ValueError) as err:
            hindsight_lower_bound(traces, config, iterations=2)
        assert str(err.value) == (
            f"slot 3: observation {field} has {width} entries, expected 5")

    def test_unfed_basic_usage_raises_as_surplus_power_does(self):
        config = make_config(horizon=4)
        traces = generate_traces(config)
        traces[2] = replace(traces[2], u=0.5 * sum(traces[2].basic))
        with pytest.raises(ValueError) as expected:
            surplus_power(traces[2])
        with pytest.raises(ValueError) as err:
            hindsight_lower_bound(traces, config, iterations=2)
        assert str(err.value) == str(expected.value)


def allocate_relaxed(mu, nu, batteries, grid, surplus, alpha, c, w, curtail):
    """One relaxed slot problem through merit_order_allocate, on the books
    the hindsight bound priced slot by slot; None when infeasible."""
    supply = [(-math.inf, 0, -1, surplus)] if surplus > 0.0 else []
    pairs = list(enumerate(zip(mu, batteries)))
    supply += [(-m, 1, k, b.d_max) for k, (m, b) in pairs]
    demand = [(m, 1, k, b.r_max) for k, (m, b) in pairs]
    demand += [(-x, 0, n, a) for n, (x, a) in enumerate(zip(nu, alpha))
               if a > 0.0]
    supply.append((c, 2, -1, grid.q_max))
    demand.append((-w, 2, -1, grid.s_max))
    supply.sort()
    demand.sort()
    return merit_order_allocate(supply, demand, len(batteries), len(nu),
                                curtail).dispatch


@st.composite
def relaxed_slots(draw):
    """Multipliers and a few slots at up to 5 batteries x 20 residents.

    Ties are forced: multipliers repeat, -mu_k lands on a slot's c or w,
    nu_n on a price or on -mu_k, and quality requests are often zero.
    Surpluses reach past every sink, and the sale cap varies so that a
    slot can be infeasible.
    """
    grid = make_grid(s_max=draw(st.floats(0.5, 25.0)))
    batteries = tuple(make_battery(r_max=draw(st.floats(0.1, 4.0)),
                                   d_max=draw(st.floats(0.1, 4.0)))
                      for _ in range(draw(st.integers(1, 5))))
    n_res = draw(st.integers(1, 20))
    horizon = draw(st.integers(1, 4))
    c = [draw(st.floats(grid.c_min, grid.c_max)) for _ in range(horizon)]
    w = [draw(st.floats(grid.w_min, grid.w_max)) for _ in range(horizon)]
    mu: list[float] = []
    for _ in batteries:
        mu.append(draw(st.one_of(
            st.floats(-grid.c_max, -grid.w_min),
            st.sampled_from([-p for p in c + w] + mu))))
    nu: list[float] = []
    for _ in range(n_res):
        nu.append(draw(st.one_of(
            st.floats(0.0, 0.2),
            st.sampled_from(c + w + [-m for m in mu] + nu + [0.0]))))
    alpha = [[draw(st.one_of(st.just(0.0), st.floats(0.0, 2.5)))
              for _ in range(n_res)] for _ in range(horizon)]
    surplus = [draw(st.floats(0.0, 120.0)) for _ in range(horizon)]
    return mu, nu, batteries, grid, surplus, alpha, c, w


class TestRelaxedSlots:
    @given(relaxed_slots(), st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_matches_the_merit_order_kernel_slot_by_slot(self, case, curtail):
        mu, nu, batteries, grid, surplus, alpha, c, w = case
        caps = _demand_caps(np.array(alpha), batteries)
        d_max = np.array([b.d_max for b in batteries])
        objective, q, s, r, d, p = _relaxed_slots(
            mu, nu, caps, d_max, grid, np.array(surplus), np.array(c),
            np.array(w))
        assert r.shape == d.shape == (len(batteries), len(c))
        assert p.shape == (len(nu), len(c))
        unservable = _unservable(np.array(surplus), caps, grid)
        for t in range(len(c)):
            expected = allocate_relaxed(mu, nu, batteries, grid, surplus[t],
                                        alpha[t], c[t], w[t], curtail)
            assert (unservable[t] and not curtail) == (expected is None)
            if expected is None:
                continue
            flows = (q[t], s[t], *r[:, t], *d[:, t], *p[:, t])
            assert flows == pytest.approx(
                (expected.q, expected.s, *expected.r, *expected.d,
                 *expected.p), rel=0.0, abs=1e-12)
            assert objective[t] == pytest.approx(expected.objective,
                                                 rel=1e-12)

    @given(relaxed_slots())
    @settings(deadline=None, max_examples=300)
    def test_equals_the_batched_slot_kernel(self, case):
        # The hindsight bound's closed form and the validate suites' one
        # must not drift apart: with the multipliers in every column,
        # merit_order_columns solves the same books.
        mu, nu, batteries, grid, surplus, alpha, c, w = case
        caps = _demand_caps(np.array(alpha), batteries)
        d_max = np.array([b.d_max for b in batteries])
        surplus, c, w = np.array(surplus), np.array(c), np.array(w)
        n_res = len(nu)

        def every_slot(values):
            return np.repeat(np.array(values, float)[:, None], len(c), 1)

        objective, *flows = _relaxed_slots(mu, nu, caps, d_max, grid,
                                           surplus, c, w)
        got, *got_flows, _ = merit_order_columns(
            every_slot(nu), caps[:n_res], every_slot(mu), caps[n_res:],
            every_slot(d_max), surplus, c, w, grid.q_max, grid.s_max)
        for expected, actual in zip(flows, got_flows):
            assert actual.shape == expected.shape
            assert actual.ravel() == pytest.approx(expected.ravel(), rel=0.0,
                                                   abs=1e-12)
        assert got == pytest.approx(objective, rel=1e-12)


class TestReporting:
    def test_slot_records_csv(self, tmp_path):
        config = make_config(horizon=25, burst_prob=0.05)
        traces = generate_traces(config)
        records, _ = run(config, traces)
        path = tmp_path / "records.csv"
        write_slot_records(records, str(path), 1, 1)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,cost_increment,cumulative_cost,q,s,sum_r,sum_d,"
                            "e_1,z_1,outage_1")
        assert len(lines) == 26
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[7]) == records[0].e[0]

    def test_record_widths_are_checked_before_writing(self, tmp_path):
        # At 2 batteries x 5 residents, a record with one level and six
        # backlogs fills as many fields as the header names; it must still
        # be refused, naming its slot, before anything is written.
        config = replace(load_config("configs/five_day.yaml"), horizon=4)
        records, _ = run(config, generate_traces(config))
        records[2] = replace(records[2], e=records[2].e[:1],
                             z=records[2].z + (0.0,))
        path = tmp_path / "records.csv"
        with pytest.raises(TypeError) as err:
            write_slot_records(records, str(path), 2, 5)
        assert str(err.value) == "slot 2: record e has 1 entries, expected 2"
        assert not path.exists()

    def test_summary_document(self, tmp_path):
        config = make_config(horizon=1)
        _, summary = run(config, inert_trace())
        text = format_summary(summary)
        assert "policy: proposed\n" in text
        assert "slots: 1\n" in text
        assert "violations_balance: 0\n" in text
        assert "stability_pass: true\n" in text
        assert "convergence_slot: 0\n" in text
        path = tmp_path / "summary.txt"
        write_summary(summary, str(path))
        assert path.read_text() == text

    def test_summary_is_byte_stable(self):
        config = make_config(horizon=120, burst_prob=0.05)
        traces = generate_traces(config)
        _, s1 = run(config, traces)
        _, s2 = run(config, traces)
        assert format_summary(s1) == format_summary(s2)


class TestLoadConfig:
    def test_five_day_fields(self):
        config = load_config("configs/five_day.yaml")
        assert config.horizon == 480
        assert config.slot_hours == 0.25
        assert config.seed == 7
        assert len(config.batteries) == 2
        assert config.batteries[0] == make_battery()
        assert len(config.residents) == 5
        res = config.residents[0]
        assert res.delta == 0.07
        assert res.alpha_max == pytest.approx(2.5)
        assert res.basic_range == pytest.approx((0.5, 6.25))
        assert config.alpha_base == pytest.approx((2.5,) * 5)
        assert config.grid.q_max == 25.0
        assert config.grid.c_min == 0.05 and config.grid.c_max == 0.10
        assert config.surplus_range == pytest.approx((0.0, 2.5))
        assert config.burst_prob == 0.05
        assert config.burst_range == pytest.approx((5.0, 15.0))
        assert config.block_prob == 0.07
        assert config.regimes == ()

    def test_seven_day_regime(self):
        config = load_config("configs/seven_day.yaml")
        assert config.horizon == 672
        # alpha_max is lifted to the regime's 20 kW quality cap, while the
        # baseline draws keep the entry's own 10 kW cap
        assert config.residents[0].alpha_max == pytest.approx(5.0)
        assert config.alpha_base == pytest.approx((2.5,) * 5)
        assert len(config.regimes) == 1
        regime = config.regimes[0]
        assert regime.start_slot == 480
        assert regime.basic_range == pytest.approx((1.25, 8.75))
        assert regime.alpha_hi == pytest.approx(5.0)
        assert regime.surplus_range == pytest.approx((0.0, 10.0))
        assert regime.burst_prob == 0.08
        assert regime.burst_range == pytest.approx((10.0, 30.0))
        assert config.block_prob == 0.03

    def test_loaded_config_generates_valid_traces(self):
        config = load_config("configs/seven_day.yaml")
        traces = generate_traces(config)
        system = config.system
        assert len(traces) == 672
        for obs in traces:
            assert validate_observation(obs, system) == []

    def test_missing_file(self):
        with pytest.raises(ValueError, match="nowhere"):
            load_config("configs/nowhere.yaml")

    @pytest.mark.parametrize("name", ["five_day", "seven_day"])
    def test_libyaml_parses_as_pyyaml_does(self, name, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        path = f"configs/{name}.yaml"
        text = Path(path).read_text()
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))
        config = load_config(path)
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert load_config(path) == config

    def test_syntax_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("horizon: [480\nseed: 3\n")
        with pytest.raises(ValueError) as err:
            load_config(str(path))
        assert str(err.value).startswith(f"{path}: invalid YAML: ")
        assert "line 2, column 5" in str(err.value)

    @pytest.mark.parametrize("text,match", [
        ("- 1\n- 2\n", "top level"),
        ("batteries: 3\n", "non-empty list"),
        ("batteries:\n  - e_min_kwh: 0.0\n", "battery entry missing"),
        ("slot_hours: -1\n", "slot_hours"),
    ])
    def test_malformed_configs(self, tmp_path, text, match):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as err:
            load_config(str(path))
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("old,new,match", [
        ("  - count: 2\n", "  - 3\n  - count: 2\n",
         "each batteries entry must be a mapping"),
        ("    quality_max_kw: 10.0\n", "",
         "resident entry missing 'quality_max_kw'"),
        ("[2.0, 25.0]", "2.0", "basic_range_kw must be a"),
        ("  s_max_kwh: 25.0\n", "", "grid missing 's_max_kwh'"),
        ("[0.05, 0.10]", "[0.05]", "grid.purchase_price must be a"),
        ("[0.0, 10.0]", "10.0", "traces.surplus_kw must be a"),
        ("traces:\n", "traces:\n  regimes: 3\n",
         "traces.regimes must be a list"),
        ("traces:\n", "traces:\n  regimes: [3]\n",
         "each regime must be a mapping"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      burst_kw: 3\n", "regime.burst_kw must be a"),
        ("mecp:\n  block_prob: 0.07\n  charge_prob: 0.5\n", "mecp: 3\n",
         "mecp must be a mapping"),
        ("slot_hours: 0.25\n", "slot_hours: abc\n",
         "slot_hours must be a number, got 'abc'"),
        ("horizon: 480\n", "horizon: 4x\n",
         "horizon must be an integer, got '4x'"),
        ("[0.05, 0.10]", "[0.05, cheap]",
         "grid.purchase_price must be a number, got 'cheap'"),
        ("    r_max_kwh: 2.0\n", "    r_max_kwh: -2.0\n",
         "r_max must be positive, got -2.0"),
        ("    delta: 0.07\n", "    delta: 1.5\n", "delta must lie in"),
        ("  q_max_kwh: 25.0\n", "  q_max_kwh: 0.0\n",
         "q_max must be positive, got 0.0"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: -3\n",
         "start_slot must be >= 0, got -3"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      burst_prob: 1.5\n", r"burst_prob must lie in \[0, 1\]"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      surplus_kw: [40.0, 0.0]\n",
         "surplus_range must satisfy 0 <= lo <= hi"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      quality_max_kw: -4.0\n", "alpha_hi must be positive"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      burst_kw: [-40.0, 120.0]\n",
         "burst_range must satisfy 0 <= lo <= hi"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      basic_range_kw: [5.0, 1.0]\n",
         "basic_range must satisfy 0 <= lo <= hi"),
        ("v_fraction: 1.0\n", "v_fraction: 2.0\n", "v_fraction must lie in"),
        ("horizon: 480\n", "horizon: 480.7\n",
         "horizon must be an integer, got 480.7"),
        ("seed: 7\n", "seed: 7.9\n", "seed must be an integer, got 7.9"),
        ("seed: 7\n", "seed: true\n", "seed must be an integer, got True"),
        ("v_fraction: 1.0\n", "v_fraction: true\n",
         "v_fraction must be a number, got True"),
        ("seed: 7\n", 'seed: 7\ncurtailment: "false"\n',
         "curtailment must be true or false, got 'false'"),
        ("  - count: 2\n", "  - count: true\n",
         "count must be an integer, got True"),
    ])
    def test_field_errors_name_the_file(self, tmp_path, old, new, match):
        base = Path("configs/five_day.yaml").read_text()
        assert old in base
        path = tmp_path / "bad.yaml"
        path.write_text(base.replace(old, new, 1))
        with pytest.raises(ValueError, match=match) as err:
            load_config(str(path))
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("old,new,key", [
        ("    delta: 0.07\n", "    detla: 0.1\n", "'detla' in residents"),
        ("    delta: 0.07\n", "    delta: 0.07\n    quality_mean_kw: 3.0\n",
         "'quality_mean_kw' in residents"),
        ("seed: 7\n", "sed: 7\n", "'sed' in the top level"),
        ("    e_init_kwh", "    e_start_kwh", "'e_start_kwh' in batteries"),
        ("  q_max_kwh", "  q_cap_kwh", "'q_cap_kwh' in grid"),
        ("  burst_kw", "  bursts_kw", "'bursts_kw' in traces"),
        ("  block_prob", "  blocking", "'blocking' in mecp"),
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      surplus: [0, 1]\n", "'surplus' in traces.regimes"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, old, new, key):
        base = Path("configs/five_day.yaml").read_text()
        assert old in base
        path = tmp_path / "bad.yaml"
        path.write_text(base.replace(old, new, 1))
        with pytest.raises(ValueError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}: unknown key {key}"

    def test_bad_count(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "batteries:\n"
            "  - count: 0\n"
            "    e_min_kwh: 0.0\n"
            "    e_max_kwh: 16.0\n"
            "    r_max_kwh: 2.0\n"
            "    d_max_kwh: 2.0\n"
            "    e_init_kwh: 8.0\n")
        with pytest.raises(ValueError, match="count") as err:
            load_config(str(path))
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("old,new,message", [
        ("  q_max_kwh: 25.0\n", "  q_max_kwh: .nan\n",
         "grid.q_max_kwh must be finite, got nan"),
        ("seed: 7\n", "seed: 7\nconvergence_tol: .nan\n",
         "convergence_tol must be finite, got nan"),
        ("    r_max_kwh: 2.0\n", "    r_max_kwh: .NaN\n",
         "battery.r_max_kwh must be finite, got nan"),
        ("    quality_max_kw: 10.0\n", "    quality_max_kw: .inf\n",
         "resident.quality_max_kw must be finite, got inf"),
        ("slot_hours: 0.25\n", "slot_hours: -.inf\n",
         "slot_hours must be finite, got -inf"),
        ("[0.0, 10.0]", "[0.0, .Inf]",
         "traces.surplus_kw must be finite, got inf"),
        ("[0.05, 0.10]", '[0.05, "nan"]',
         "grid.purchase_price must be finite, got 'nan'"),
        ("  block_prob: 0.07\n", "  block_prob: -.INF\n",
         "mecp.block_prob must be finite, got -inf"),
    ])
    def test_non_finite_numbers_are_refused(self, tmp_path, old, new,
                                            message):
        base = Path("configs/five_day.yaml").read_text()
        assert old in base
        path = tmp_path / "bad.yaml"
        path.write_text(base.replace(old, new, 1))
        with pytest.raises(ValueError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}: {message}"

    def test_regime_missing_start(self, tmp_path):
        base = Path("configs/five_day.yaml").read_text()
        path = tmp_path / "bad.yaml"
        path.write_text(base.replace(
            "traces:\n",
            "traces:\n  regimes:\n    - quality_max_kw: 20.0\n"))
        with pytest.raises(ValueError, match="start_slot") as err:
            load_config(str(path))
        assert str(err.value).startswith(f"{path}: ")


CONFIG_TABLES = [
    (mgsched.sim.TOP_KEYS, RunConfig),
    (mgsched.sim.BATTERY_KEYS, BatterySpec),
    (mgsched.sim.RESIDENT_KEYS, ResidentSpec),
    (mgsched.sim.GRID_KEYS, GridSpec),
    (mgsched.sim.TRACE_KEYS, RunConfig),
    (mgsched.sim.REGIME_KEYS, Regime),
    (mgsched.sim.MECP_KEYS, RunConfig),
]


class TestConfigTables:
    @pytest.mark.parametrize("keys,target", CONFIG_TABLES)
    def test_every_field_exists_on_its_target(self, keys, target):
        defaults = {f.name: f.default for f in dataclasses.fields(target)}
        for key, (field, kind, default) in keys.items():
            if key in ("traces", "mecp"):
                # Their own tables fill the top level's fields.
                continue
            for name in field if kind == "pair" else (field,):
                assert name in defaults, (key, name)
                has_default = defaults[name] is not dataclasses.MISSING
                if default is mgsched.sim.REQUIRED:
                    assert not has_default, key
                elif default is None and kind != "raw":
                    # An absent key must leave a field its dataclass fills.
                    assert has_default, key

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.yaml"
        path.write_text(
            "batteries:\n"
            "  - {e_min_kwh: 0.0, e_max_kwh: 16.0, r_max_kwh: 2.0,"
            " d_max_kwh: 2.0, e_init_kwh: 8.0}\n"
            "residents:\n"
            "  - {basic_range_kw: [2.0, 25.0], quality_max_kw: 10.0}\n"
            "grid: {q_max_kwh: 25.0, s_max_kwh: 25.0,"
            " purchase_price: [0.05, 0.10], sell_price: [0.02, 0.04]}\n")
        # Only horizon and delta have loader defaults; alpha_base is always
        # the residents' own quality caps.
        expected = RunConfig(batteries=(make_battery(),),
                             residents=(make_resident(delta=0.07),),
                             grid=make_grid(), horizon=480,
                             alpha_base=(2.5,))
        assert repr(load_config(str(path))) == repr(expected)
