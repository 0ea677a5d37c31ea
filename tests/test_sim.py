import codecs
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
    Trace,
    TraceError,
    Trajectory,
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
    mecp_dispatch,
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
from mgsched.dispatch import (
    _balance_faults,
    _dispatch_row,
    _fault_words,
    _flow_slices,
    _limits,
    _row_dispatch,
    _threshold_faults,
)
from mgsched.model import ordered_sum
from mgsched.sim import (
    VIOLATION_KEYS,
    _demand_caps,
    _observation_arrays,
    _relaxed_slots,
    _row_total,
    _simulate,
    _slot_sums,
    _stack,
    first_violation,
    load_seed,
)

import audit_reference
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
        dict(convergence_tol=math.nan),
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


SHIPPED_CONFIGS = ("configs/five_day.yaml", "configs/seven_day.yaml")


class TestTrace:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_runs_and_bounds_as_its_list(self, path, seed):
        # A Trace and the list of its observations, which run() and the
        # bound convert once, give the same arrays, summary and bound.
        config = replace(load_config(path), seed=seed)
        trace = generate_traces(config)
        observations = list(trace)
        for policy in ("proposed", "mecp"):
            a, summary_a = run(config, trace, policy=policy)
            b, summary_b = run(config, observations, policy=policy)
            assert_same_trajectory(a, b)
            assert summary_a == summary_b
        bound = hindsight_lower_bound(trace, config, iterations=5)
        assert repr(bound) == repr(
            hindsight_lower_bound(observations, config, iterations=5))

    def test_acts_as_its_list(self):
        config = replace(load_config("configs/seven_day.yaml"), horizon=10)
        trace = generate_traces(config)
        observations = list(trace)
        assert len(trace) == len(observations) == 10
        assert trace[-1] == observations[-1] == trace[9]
        assert trace[-10] == observations[0]
        with pytest.raises(IndexError):
            trace[10]
        with pytest.raises(IndexError):
            trace[-11]
        assert isinstance(trace[2:5], Trace)
        assert list(trace[2:5]) == observations[2:5]
        assert list(trace[::-3]) == observations[::-3]
        assert [obs for obs in trace] == observations
        other = generate_traces(replace(config, seed=config.seed + 1))
        assert trace == generate_traces(config)
        assert not trace != generate_traces(config)
        assert trace != other and list(trace) != list(other)
        assert trace[2:5] == trace[:5][2:]
        assert trace[2:5] != trace[3:6]
        assert trace != observations

    def test_run_and_bound_read_a_trace_without_converting(self,
                                                           monkeypatch):
        def no_conversion(*args):
            raise AssertionError("_observation_arrays called")

        config = replace(load_config("configs/five_day.yaml"), horizon=100)
        trace = generate_traces(replace(config, horizon=120))
        monkeypatch.setattr(mgsched.sim, "_observation_arrays",
                            no_conversion)
        for policy in ("proposed", "mecp"):
            _, summary = run(config, trace, policy=policy)
            assert summary.slots == 100
        assert math.isfinite(hindsight_lower_bound(trace, config, 3))
        with pytest.raises(AssertionError, match="_observation_arrays"):
            run(config, list(trace))

    def test_checks_widths_and_basic_usage_as_a_list_does(self):
        # A Trace keeps the width and basic-usage checks, with the
        # messages and slot numbers its list gets.
        config = replace(load_config("configs/five_day.yaml"), horizon=6)
        narrow = replace(config, residents=config.residents[:2],
                         alpha_base=config.alpha_base[:2])
        wide = generate_traces(config)
        trace = generate_traces(narrow)
        short = Trace(np.where(np.arange(6) == 4, 0.0, trace.u), trace.basic,
                      trace.alpha, trace.c, trace.w)
        for check in (lambda traces: run(narrow, traces),
                      lambda traces: hindsight_lower_bound(traces, narrow, 2)):
            for bad in (wide, short):
                with pytest.raises(ValueError) as from_trace:
                    check(bad)
                with pytest.raises(ValueError) as from_list:
                    check(list(bad))
                assert str(from_trace.value) == str(from_list.value)
                assert str(from_trace.value).startswith(
                    "slot 0: observation basic has 5 entries, expected 2"
                    if bad is wide else "slot 4: basic usage ")

    def test_columns_are_read_only_copies(self):
        # Neither an edit of the trace nor one of the caller's arrays can
        # leave surplus stale.
        u, c, w = np.full(3, 4.0), np.full(3, 2.0), np.full(3, 1.0)
        basic, alpha = np.ones((3, 2)), np.full((3, 2), -0.0)
        trace = Trace(u, basic, alpha, c, w)
        for name in ("u", "basic", "alpha", "c", "w", "surplus"):
            column = getattr(trace, name)
            assert column.dtype == float and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 9.0
            assert not getattr(trace[1:], name).flags.writeable
        u[0], basic[0, 0] = 0.0, 9.0
        assert u.flags.writeable and basic.flags.writeable
        assert trace.surplus.tolist() == [2.0, 2.0, 2.0]
        assert trace.alpha.tolist() == [[0.0, 0.0]] * 3
        assert math.copysign(1.0, trace.alpha[0, 0]) == 1.0
        assert Trace([4.0], [[1.0]], [[0.0]], [2.0], [1]).w.dtype == float

    @pytest.mark.parametrize("name, bad", [
        ("u", np.ones((3, 1))), ("u", 1.0), ("basic", np.ones(3)),
        ("alpha", np.ones((3, 2, 1))), ("c", np.ones(2)), ("w", np.ones(4)),
        ("basic", np.ones((2, 2))), ("alpha", np.ones((4, 2)))])
    def test_rejects_a_column_of_another_rank_or_length(self, name, bad):
        columns = dict(u=np.full(3, 4.0), basic=np.ones((3, 2)),
                       alpha=np.ones((3, 2)), c=np.full(3, 2.0),
                       w=np.ones(3))
        columns[name] = bad
        with pytest.raises(ValueError,
                           match=f"^Trace column {name} has shape "):
            Trace(**columns)


class TestTraceFiles:
    def test_round_trip_is_exact(self, tmp_path):
        config = make_config(horizon=40, burst_prob=0.1)
        traces = generate_traces(config)
        wind, prices, demand = write_traces(traces, str(tmp_path / "t"))
        loaded = load_traces(wind, prices, demand, config)
        assert loaded == traces
        # The Trace's list of observations writes the same files.
        listed = write_traces(list(traces), str(tmp_path / "l"))
        for path, other in zip((wind, prices, demand), listed):
            assert Path(path).read_bytes() == Path(other).read_bytes()

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

    def test_undecodable_byte_is_reported_first(self, tmp_path):
        # The file is decoded before anything else is checked: its header
        # is wrong too, but the bad byte's line is named.
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_bytes().splitlines()
        lines[0] = b"slot,wind_mph"
        lines[3] = b"2,0.5\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(TraceError) as err:
            load_traces(str(bad), prices, demand, config)
        assert str(err.value) == (
            f"{bad}:4: byte 0xff is not UTF-8: invalid start byte")

    def test_undecodable_byte_after_a_byte_order_mark(self, tmp_path):
        # The mark is dropped before decoding, so the bad byte's line and
        # value are still those of the file as written.
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_bytes().splitlines()
        lines[3] = b"2,0.5\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(codecs.BOM_UTF8 + b"\n".join(lines) + b"\n")
        with pytest.raises(TraceError) as err:
            load_traces(str(bad), prices, demand, config)
        assert str(err.value) == (
            f"{bad}:4: byte 0xff is not UTF-8: invalid start byte")

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_byte_line_under_each_line_ending(self, tmp_path,
                                                          end):
        # A bad byte's line is counted as csv.reader counts a field-count
        # fault's: at \n, \r\n and a lone \r alike.
        config, (wind, prices, demand) = self._write_files(tmp_path)
        for row, fault in ((b"1,oops\xff", "byte 0xff is not UTF-8: "
                            "invalid start byte"),
                           (b"1,2,3", "expected 2 fields, got 3")):
            bad = tmp_path / "bad.csv"
            bad.write_bytes(end.join([b"slot,generation_kwh", b"0,1.0", row,
                                      b""]))
            with pytest.raises(TraceError) as err:
                load_traces(str(bad), prices, demand, config)
            assert str(err.value) == f"{bad}:3: {fault}"

    def test_oversized_field_names_its_line(self, tmp_path):
        # The csv module refuses a field past its size limit; slot 3's row
        # is on line 5, behind the header and slots 0-2.
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = Path(wind).read_text().splitlines()
        lines[4] = "3," + "9" * 200_000
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError) as err:
            load_traces(str(bad), prices, demand, config)
        assert str(err.value) == (
            f"{bad}:5: field larger than field limit (131072)")

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

    @pytest.mark.parametrize("row,message", [
        ("2,oops", "field generation_kwh is not a number: 'oops'"),
        ("2,1.0,2.0", "expected 2 fields, got 3"),
    ], ids=["value", "field count"])
    def test_line_numbers_after_a_multi_line_record(self, tmp_path, row,
                                                    message):
        # The quoted field of slot 1 holds a newline, so slot 2's row
        # starts on physical line 5, not on the fourth record's line 4.
        config, (wind, prices, demand) = self._write_files(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(f'slot,generation_kwh\n0,"1.0"\n1,"2.0\n"\n{row}\n')
        with pytest.raises(TraceError) as err:
            load_traces(str(bad), prices, demand, config)
        assert str(err.value) == f"{bad}:5: {message}"

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
        traces = list(generate_traces(config))
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
        assert list(load()) == traces


TRACE_HEADERS = {
    "wind": ["slot", "generation_kwh"],
    "prices": ["slot", "purchase_price", "sell_price"],
    "demand": ["slot", "resident", "basic_kwh", "quality_kwh"],
}


def reference_load(paths, config):
    """Read three trace files one row at a time, in the order README's
    trace paragraph gives; return the observations, or the message of the
    first fault met."""
    horizon, n_res = config.horizon, len(config.residents)
    tables = {}
    for kind, header in TRACE_HEADERS.items():
        path, keys = paths[kind], 2 if kind == "demand" else 1
        rows = [line.split(",")
                for line in Path(path).read_text().split("\n")[1:-1]]
        for line_no, row in enumerate(rows, 2):
            if len(row) != len(header):
                return (f"{path}:{line_no}: expected {len(header)} fields, "
                        f"got {len(row)}")
        table = tables[kind] = {}
        for line_no, row in enumerate(rows, 2):
            where = f"{path}:{line_no}:"
            key = []
            for name, raw in zip(header[:keys], row):
                try:
                    key.append(int(raw))
                except ValueError:
                    return f"{where} field {name} is not an integer: {raw!r}"
                if name == "slot" and key[0] < 0:
                    return f"{where} slot {key[0]} is negative"
                if name == "resident" and not 0 <= key[1] < n_res:
                    return f"{where} resident {key[1]} outside 0..{n_res - 1}"
            if key[0] >= horizon:
                continue
            if tuple(key) in table:
                return f"{where} duplicate " + " ".join(
                    f"{name} {k}" for name, k in zip(header, key))
            values = []
            for name, raw in zip(header[keys:], row[keys:]):
                try:
                    value = float(raw)
                except ValueError:
                    return f"{where} field {name} is not a number: {raw!r}"
                if not math.isfinite(value):
                    return f"{where} field {name} is not finite: {raw!r}"
                values.append(value + 0.0)
            table[tuple(key)] = values
    traces = []
    for t in range(horizon):
        for kind in ("wind", "prices"):
            if (t,) not in tables[kind]:
                return f"{paths[kind]}: missing slot {t} (horizon {horizon})"
        for n in range(n_res):
            if (t, n) not in tables["demand"]:
                return (f"{paths['demand']}: missing slot {t} resident {n} "
                        f"(horizon {horizon})")
        (u,), (c, w) = tables["wind"][t,], tables["prices"][t,]
        basic, alpha = zip(*(tables["demand"][t, n] for n in range(n_res)))
        obs = SlotObservation(u=u, basic=basic, alpha=alpha, c=c, w=w)
        problems = audit_reference.validate_observation(obs, config.system)
        if problems:
            return f"slot {t}: {problems[0]}"
        traces.append(obs)
    return traces


# Small indices make edits meet on one row more often.
_row_index = st.integers(0, 3) | st.integers(0, 100)


def trace_edit(kind):
    """One edit of a trace file's data rows, as a tuple naming it."""
    edits = [
        st.tuples(st.just("set"), _row_index, _row_index, st.sampled_from(
            ["x", "nan", "Infinity", "1e400", " 2 ", "1_0"])),
        st.tuples(st.just("set"), _row_index, st.just(0),
                  st.sampled_from(["-5", str(10 ** 30)])),
        st.tuples(st.just("duplicate"), _row_index, _row_index),
        st.tuples(st.just("delete"), _row_index),
        st.tuples(st.just("past horizon"), st.integers(8, 12)),
        st.tuples(st.just("extra field"), _row_index),
    ]
    if kind == "demand":
        edits.append(st.tuples(st.just("set"), _row_index, st.just(1),
                               st.just("7")))
    return st.one_of(edits)


def apply_edit(rows, edit, header):
    """Apply one trace_edit to a file's data rows, each a list of fields."""
    kind, *args = edit
    if kind == "past horizon":
        # a slot (and resident) that parse, then values that do not
        keys = 2 if "resident" in header else 1
        rows.append([str(args[0]), "1"][:keys] + ["x"] * (len(header) - keys))
    elif rows:
        i = args[0] % len(rows)
        if kind == "set":
            rows[i][args[1] % len(rows[i])] = args[2]
        elif kind == "duplicate":
            rows.insert(args[1] % (len(rows) + 1), list(rows[i]))
        elif kind == "delete":
            del rows[i]
        else:
            rows[i].append("0.5")


class TestLoaderReferenceReader:
    """load_traces reports exactly the fault a row-at-a-time reader meets
    first, and otherwise loads what that reader reads."""

    config = make_config(horizon=8, residents=(make_resident(),) * 2)
    traces = generate_traces(config)

    @given(st.fixed_dictionaries({
        kind: st.lists(trace_edit(kind), min_size=1, max_size=3)
        for kind in TRACE_HEADERS}))
    @settings(deadline=None, max_examples=400)
    def test_matches_reference_reader(self, tmp_path_factory, edits):
        paths = dict(zip(TRACE_HEADERS, write_traces(
            self.traces, str(tmp_path_factory.mktemp("edited") / "t"))))
        for kind, path in paths.items():
            rows = [line.split(",")
                    for line in Path(path).read_text().split("\n")[1:-1]]
            for edit in edits[kind]:
                apply_edit(rows, edit, TRACE_HEADERS[kind])
            Path(path).write_text("\n".join(
                [",".join(TRACE_HEADERS[kind])] + [",".join(row)
                                                   for row in rows]) + "\n")
        expected = reference_load(paths, self.config)
        if isinstance(expected, str):
            with pytest.raises(TraceError) as info:
                load_traces(paths["wind"], paths["prices"], paths["demand"],
                            self.config)
            assert str(info.value) == expected
        else:
            assert list(load_traces(paths["wind"], paths["prices"],
                                    paths["demand"], self.config)) == expected


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


# One perturbation per bound an observation must keep, with the number
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
    """load_traces' bound masks flag exactly what the row-at-a-time
    reference of validate_observation reports, and its basic totals are
    those of sum()."""

    def config(self):
        config = load_config("configs/five_day.yaml")
        return replace(config, grid=replace(config.grid, c_min=0.03))

    @pytest.mark.parametrize("perturb,count", BOUND_PERTURBATIONS.values(),
                             ids=BOUND_PERTURBATIONS.keys())
    def test_reports_validate_observations_first_problem(self, tmp_path,
                                                         perturb, count):
        config = self.config()
        system = config.system
        traces = list(generate_traces(config))
        t = 217
        traces[t] = perturb(traces[t], system)
        problems = audit_reference.validate_observation(traces[t], system)
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
        monkeypatch.setattr(mgsched.sim, "_fault_words", None)
        assert load_traces(*paths, config) == traces

    @pytest.mark.parametrize("path", ["configs/five_day.yaml",
                                      "configs/seven_day.yaml"])
    def test_row_total_adds_as_sum_does(self, path):
        # ordered_sum is 3.11's sum(); 3.12's compensates, so the built-in
        # would make this test depend on the interpreter.
        traces = generate_traces(load_config(path))
        basic = np.array([obs.basic for obs in traces])
        assert _row_total(basic).tolist() == [ordered_sum(obs.basic)
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
    + [("nan", field) for field in BOX_FIELDS]
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
    flow or curtailment, buying and selling at once, recharging and
    discharging one battery at once, a balance residual at +-tol, and each
    strict threshold comparison on both sides of its edge. The states after
    each slot sit at the band and backlog-cap edges +-tol and at 5e-10
    dust. The last resident absorbs any energy left over, so only the
    forced fault can break the balance. Hypothesis draws the sizes, v, each
    fault's ulp offset and a seed for everything else: drawing the few
    thousand other values through it takes ten times as long.
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
            if fault[1] in ("q", "s", "curtailed"):
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


def flow_array(dispatches):
    """The flows array audit_slots takes: one flow row per dispatch."""
    return np.array(list(map(_dispatch_row, dispatches)), dtype=float)


def assert_same_trajectory(a, b):
    """a and b hold the same rows, flows and audit, bit for bit."""
    assert repr(a.levels) == repr(b.levels)
    assert repr(a.backlogs) == repr(b.backlogs)
    assert a.flows.tobytes() == b.flows.tobytes()
    assert a.audit.keys() == b.audit.keys()
    for key in a.audit:
        assert a.audit[key].tobytes() == b.audit[key].tobytes(), key


def audit_one(system, state, obs, dispatch, z_max, v=150.0):
    """Step one slot and audit it."""
    states = [state, step(system, state, obs, dispatch)]
    return (audit_slots(system, v, *rows(states), [obs],
                        flow_array([dispatch]), z_max), states)


def backlog_at(bid: float, alpha: float, steps: int) -> float:
    """A backlog whose quality bid z + alpha lands on bid, moved steps
    ulps."""
    z = bid - alpha
    for near in (0, -1, 1, -2, 2):
        if nudge(z, near) + alpha == bid:
            z = nudge(z, near)
            break
    return nudge(z, steps)


@st.composite
def audit_rows(draw):
    """One to three slots of a random system of 1 to 3 batteries and 1 to
    4 residents, each value near an edge the balance or threshold audit
    tests, so that one slot often breaks several checks at once.

    Each flow lies anywhere in its box, or on 0, a box edge +-tol or a
    threshold's flow edge, one ulp to either side, or is NaN. Each
    battery queue and backlog lies anywhere, or on a threshold bound or
    one ulp off it, quality bids z + alpha tying with v*c and v*w among
    them. The surplus is often what the flows need, so that the residual
    sits near 0.
    """
    ulps = st.sampled_from((-1, 0, 1))
    kinds = st.sampled_from(("any",) * 5 + ("edge",) * 5 + ("nan",))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    system = SystemSpec(
        batteries=tuple(make_battery(r_max=draw(st.floats(0.5, 3.0)),
                                     d_max=draw(st.floats(0.5, 3.0)))
                        for _ in range(k)),
        residents=tuple(make_resident(delta=draw(st.floats(0.02, 0.2)))
                        for _ in range(n)),
        grid=make_grid())
    g = system.grid
    v = draw(st.floats(10.0, 150.0))

    def near(edges, hi):
        kind = draw(kinds)
        if kind == "any":
            return draw(st.floats(0.0, hi))
        if kind == "nan":
            return math.nan
        return nudge(draw(st.sampled_from(edges)), draw(ulps))

    slots = []
    for t in range(draw(st.integers(1, 3))):
        c = draw(st.floats(g.c_min, g.c_max))
        w = draw(st.floats(g.w_min, g.w_max))
        alpha = [draw(st.sampled_from((0.0, 2.5)) | st.floats(0.0, 2.5))
                 for _ in range(n)]
        e = [level_at(draw(st.sampled_from(
                 (-v * g.w_min, -v * g.c_max, -v * c, -v * w))),
                 spec, v, g, draw(ulps))
             if draw(st.booleans()) else draw(st.floats(-1.0, 17.0))
             for spec in system.batteries]
        z = []
        for a, res in zip(alpha, system.residents):
            kind = draw(st.sampled_from(("any", "backlog", "bid")))
            if kind == "any":
                z.append(draw(st.floats(0.0, 20.0)))
            elif kind == "backlog":
                z.append(nudge(draw(st.sampled_from(
                    (v * g.c_max, v * g.w_min - res.alpha_max))),
                    draw(ulps)))
            else:
                z.append(backlog_at(v * draw(st.sampled_from((c, w))), a,
                                    draw(ulps)))
        r = [near([0.0, 1e-12, -TOL, b.r_max + TOL], b.r_max)
             for b in system.batteries]
        d = [near([0.0, 1e-12, -TOL, b.d_max + TOL], b.d_max)
             for b in system.batteries]
        p = [near([0.0, 1e-12, -TOL, a + TOL, (1.0 - res.delta) * a - 1e-9],
                  a) for a, res in zip(alpha, system.residents)]
        q = near([0.0, -TOL, g.q_max + TOL], g.q_max)
        s = near([0.0, -TOL, g.s_max + TOL], g.s_max)
        curtailed = near([0.0, -TOL], 1.0)
        need = curtailed - q - sum(d) + s + sum(r) + sum(p)
        surplus = (need if need >= 0.0 and draw(st.booleans())
                   else draw(st.floats(0.0, 30.0)))
        basic = tuple(draw(st.sampled_from((0.0, 0.3))) for _ in range(n))
        slots.append((
            SystemState(t=t, e=tuple(e), z=tuple(z)),
            SlotObservation(u=ordered_sum(basic) + surplus, basic=basic,
                            alpha=tuple(alpha), c=c, w=w),
            Dispatch(q=q, s=s, r=tuple(r), d=tuple(d), p=tuple(p),
                     objective=0.0, curtailed=curtailed)))
    return system, v, slots


class TestAuditSlots:
    @given(audited_slots())
    @settings(deadline=None, max_examples=40)
    def test_masks_equal_the_per_slot_audits(self, case):
        system, v, z_max, states, observations, dispatches = case
        audit = audit_slots(system, v, *rows(states), observations,
                            flow_array(dispatches), z_max)
        assert set(VIOLATION_KEYS) <= audit.keys()
        for t, (obs, dispatch) in enumerate(zip(observations, dispatches)):
            after = states[t + 1]
            assert audit["balance"][t] == bool(
                audit_reference.check_dispatch(dispatch, system, obs))
            if FAULTS[t][0] == "nan":
                # A NaN in any flow, curtailment too, is a balance residual.
                assert audit["balance"][t], FAULTS[t]
            assert audit["exclusivity"][t] == (
                dispatch.q * dispatch.s != 0.0
                or any(r * d != 0.0 for r, d in zip(dispatch.r, dispatch.d)))
            assert audit["threshold"][t] == bool(
                audit_reference.threshold_violations(system, states[t], obs,
                                                     v, dispatch))
            assert audit["battery_band"][t].tolist() == [
                e < b.e_min - BALANCE_TOL or e > b.e_max + BALANCE_TOL
                for e, b in zip(after.e, system.batteries)]
            assert audit["queue_bound"][t].tolist() == [
                z > cap + BALANCE_TOL for z, cap in zip(after.z, z_max)]
            assert repr(audit["cost"][t].item()) == repr(
                dispatch.q * obs.c - dispatch.s * obs.w)
            assert repr(audit["outage"][t].tolist()) == repr(
                [a - p for a, p in zip(obs.alpha, dispatch.p)])

    @given(audit_rows())
    @settings(deadline=None, max_examples=150)
    def test_messages_equal_the_reference_audits(self, case):
        # check_dispatch and threshold_violations word one slot, and the
        # stacked fault lists word each slot of many, as the row-at-a-time
        # references do: the same texts, values and order.
        system, v, slots = case
        states, observations, dispatches = zip(*slots)
        balance, threshold = [], []
        for state, obs, dispatch in slots:
            balance.append(audit_reference.check_dispatch(dispatch, system,
                                                          obs))
            threshold.append(audit_reference.threshold_violations(
                system, state, obs, v, dispatch))
            assert check_dispatch(dispatch, system, obs) == balance[-1]
            assert threshold_violations(system, state, obs, v,
                                        dispatch) == threshold[-1]
        trace = _observation_arrays(list(observations), system.n_residents)
        flows = flow_array(dispatches)
        balance_faults, _ = _balance_faults(flows, trace.surplus, trace.alpha,
                                            _limits(system))
        threshold_faults = _threshold_faults(
            v, flows, trace.alpha, trace.c, trace.w,
            np.array([state.e for state in states]),
            np.array([state.z for state in states]), _limits(system))
        for t in range(len(slots)):
            assert _fault_words(balance_faults, t) == balance[t]
            assert _fault_words(threshold_faults, t) == threshold[t]

    def test_a_nan_flow_is_a_balance_residual(self):
        # The residual test reads "not within tolerance", as the box tests
        # do, so a NaN curtailment is flagged by both audits.
        config = replace(load_config("configs/five_day.yaml"), horizon=40)
        traces = generate_traces(config)
        v = config.v_fraction * compute_vmax(config.batteries, config.grid)
        spoilt = []

        def policy(state, obs):
            dispatch = dispatch_slot(config.system, state, obs, v)
            if state.t == 7:
                dispatch = replace(dispatch, curtailed=math.nan)
                spoilt.append(dispatch)
            return dispatch

        _, summary = run(config, traces, policy=policy)
        surplus = surplus_power(traces[7])
        message = f"balance residual nan for surplus {surplus}"
        assert check_dispatch(spoilt[0], config.system, traces[7]) == [
            message]
        assert summary.violations["balance"] == 1
        assert summary.first_violation == (7, "balance", message)
        assert math.isnan(summary.curtailed_total)

    def test_flags_band_escape_and_queue_breach(self):
        system = make_system()
        state = SystemState(t=0, e=(15.0,), z=(3.0,))
        obs = SlotObservation(u=0.0, basic=(0.0,), alpha=(2.0,), c=0.10, w=0.02)
        # e' = 15 + 2 = 17 > e_max = 16; z' = 3 - 0.14 + 2 = 4.86 > 4
        dispatch = one_by_one(r=2.0)
        audit, states = audit_one(system, state, obs, dispatch, (4.0,))
        assert audit["battery_band"].tolist() == [[True]]
        assert audit["queue_bound"].tolist() == [[True]]
        trajectory = Trajectory(*rows(states), flow_array([dispatch]), audit)
        args = (system, 150.0, [obs], (4.0,))
        assert first_violation(trajectory, ("battery_band",), *args) == (
            0, "battery_band", "battery 0: level 17.0 outside [0.0, 16.0]")
        assert first_violation(trajectory, ("queue_bound",), *args) == (
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

    def test_a_bid_that_rounds_onto_the_price_is_a_tie(self):
        # 7.1e-55 + 0.5 rounds to 0.5 = v*c: the sweep sees a tie and buys
        # for the battery alone, so the at-price audit must not ask for
        # the request to be served.
        system = make_system()
        state = SystemState(t=0, e=(0.0,), z=(7.095233997066944e-55,))
        obs = SlotObservation(u=0.0, basic=(0.0,), alpha=(0.5,), c=0.05,
                              w=0.03125)
        dispatch = dispatch_slot(system, state, obs, 10.0)
        assert dispatch.q > 0.0 and dispatch.p == (0.0,)
        audit, _ = audit_one(system, state, obs, dispatch, (25.0,), v=10.0)
        assert not audit["threshold"].any()

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
                            flow_array(dispatches), z_max)
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
        flows = flow_array([one_by_one()] * len(obs))
        states = [SystemState(t=0, e=(8.0,), z=(0.0,))] * (len(obs) + 1)
        audit = audit_slots(system, 150.0, *rows(states), obs, flows,
                            (46.875,))
        assert np.flatnonzero(audit["outage_window"]).tolist() == [500]
        trajectory = Trajectory(*rows(states), flows, audit)
        assert first_violation(trajectory, ("outage_window",), system, 150.0,
                               obs, (46.875,)) == (
            500, "outage_window",
            "resident 0: slots 1..500 leave 125.25 unserved, above budget "
            "125.0")

    @pytest.mark.parametrize("field,width", [("basic", 4), ("alpha", 6)])
    def test_misshaped_observation_names_the_slot(self, field, width):
        config = replace(load_config("configs/five_day.yaml"), horizon=5)
        observations = list(generate_traces(config))
        observations[3] = replace(observations[3], **{field: (0.1,) * width})
        state = SystemState(t=0, e=(8.0, 8.0), z=(0.0,) * 5)
        idle = Dispatch(q=0.0, s=0.0, r=(0.0, 0.0), d=(0.0, 0.0),
                        p=(0.0,) * 5, objective=0.0)
        with pytest.raises(ValueError) as err:
            audit_slots(config.system, 10.0, *rows([state] * 6), observations,
                        flow_array([idle] * 5), (4.0,) * 5)
        assert str(err.value) == (
            f"slot 3: observation {field} has {width} entries, expected 5")

    @pytest.mark.parametrize("edit,message", [
        (lambda a: dict(a, levels=a["levels"][:-1],
                        backlogs=a["backlogs"][:-1]),
         "levels has 5 rows, expected 6"),
        (lambda a: dict(a, backlogs=a["backlogs"][:-1]),
         "backlogs has 5 rows, expected 6"),
        (lambda a: dict(a, levels=a["levels"] + a["levels"][-1:]),
         "levels has 7 rows, expected 6"),
        (lambda a: dict(a, flows=a["flows"][:, :-1]),
         "flows has 12 columns, expected 13"),
        (lambda a: dict(a, observations=a["observations"]
                        + a["observations"][:1]),
         "observations has 6 slots, expected 5"),
        (lambda a: dict(a, z_max=a["z_max"][:-1]),
         "z_max has 4 entries, expected 5"),
    ])
    def test_row_counts_are_checked(self, edit, message):
        # Short level and backlog rows used to audit silently; the other
        # edits died in numpy's broadcasting.
        config = replace(load_config("configs/five_day.yaml"), horizon=5)
        traces = generate_traces(config)
        (levels, backlogs, flows, _), summary = run(config, traces)
        args = dict(system=config.system, v=summary.v, levels=levels,
                    backlogs=backlogs, observations=list(traces),
                    flows=flows,
                    z_max=bound_constants(config.system, summary.v).z_max)
        audit_slots(**args)
        with pytest.raises(ValueError) as err:
            audit_slots(**edit(args))
        assert str(err.value) == message

    def test_unfed_basic_usage_raises_as_surplus_power_does(self):
        system = make_system()
        obs = SlotObservation(u=1.0, basic=(1.5,), alpha=(0.0,), c=0.10,
                              w=0.02)
        state = SystemState(t=0, e=(8.0,), z=(0.0,))
        with pytest.raises(ValueError) as expected:
            surplus_power(obs)
        with pytest.raises(ValueError) as err:
            audit_slots(system, 150.0, *rows([state] * 2), [obs],
                        flow_array([one_by_one()]), (4.0,))
        assert str(err.value) == f"slot 0: {expected.value}"


# (column, entry, value, message): one non-finite value in a five_day trace.
NON_FINITE = [
    ("u", 3, math.nan, "slot 3: generation nan is not finite"),
    ("basic", (4, 0), -math.inf, "slot 4: basic[0] = -inf is not finite"),
    ("alpha", (2, 3), math.nan, "slot 2: alpha[3] = nan is not finite"),
    ("c", 5, math.inf, "slot 5: purchase price inf is not finite"),
    ("w", 1, math.nan, "slot 1: sell price nan is not finite"),
]


def five_day_trace_with(**edits):
    """A five_day config at horizon 20 and its trace, each edit setting one
    entry (column=(entry, value)) of a copy of the drawn columns."""
    config = replace(load_config("configs/five_day.yaml"), horizon=20)
    trace = generate_traces(config)
    columns = {name: getattr(trace, name).copy()
               for name in ("u", "basic", "alpha", "c", "w")}
    for name, (entry, value) in edits.items():
        columns[name][entry] = value
    return config, Trace(**columns)


def audit_idle(config, traces):
    """audit_slots on traces for a five_day run that holds every flow at 0."""
    state = SystemState(t=0, e=(8.0, 8.0), z=(0.0,) * 5)
    idle = Dispatch(q=0.0, s=0.0, r=(0.0, 0.0), d=(0.0, 0.0), p=(0.0,) * 5,
                    objective=0.0)
    return audit_slots(config.system, 10.0, *rows([state] * (len(traces) + 1)),
                       traces, flow_array([idle] * len(traces)), (4.0,) * 5)


NON_FINITE_CALLERS = {
    "run": lambda config, traces: run(config, traces),
    "hindsight_lower_bound": lambda config, traces: hindsight_lower_bound(
        traces, config, 5),
    "audit_slots": audit_idle,
}


class TestNonFiniteTraces:
    """A NaN or infinite trace value handed over in process is refused
    before the first slot, as load_traces refuses one in a file."""

    @pytest.mark.parametrize("caller", NON_FINITE_CALLERS)
    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("column,entry,value,message", NON_FINITE)
    def test_names_the_slot_and_field(self, caller, as_list, column, entry,
                                      value, message):
        config, trace = five_day_trace_with(**{column: (entry, value)})
        traces = list(trace) if as_list else trace
        with pytest.raises(ValueError) as err:
            NON_FINITE_CALLERS[caller](config, traces)
        assert str(err.value) == message

    @pytest.mark.parametrize("caller", NON_FINITE_CALLERS)
    @pytest.mark.parametrize("as_list", [False, True])
    def test_an_inf_and_a_minus_inf_request_add_unwarned(self, caller,
                                                         as_list):
        # The two add to a NaN basic total and surplus, which Trace
        # derives without a warning, so the slot is refused in the words
        # of its first infinite request.
        config, trace = five_day_trace_with()
        basic = trace.basic.copy()
        basic[0, :2] = math.inf, -math.inf
        trace = Trace(trace.u, basic, trace.alpha, trace.c, trace.w)
        with pytest.raises(ValueError) as err:
            NON_FINITE_CALLERS[caller](config, list(trace) if as_list
                                       else trace)
        assert str(err.value) == "slot 0: basic[0] = inf is not finite"

    @pytest.mark.parametrize("caller", NON_FINITE_CALLERS)
    def test_comes_after_the_widths_and_before_the_surplus(self, caller):
        # Slot 0's basic usage exceeds generation; slot 5 is not finite.
        config, trace = five_day_trace_with(u=(5, math.inf),
                                            basic=((0, 0), 1e3))
        with pytest.raises(ValueError) as err:
            NON_FINITE_CALLERS[caller](config, trace)
        assert str(err.value) == "slot 5: generation inf is not finite"
        observations = list(trace)
        observations[9] = replace(observations[9], alpha=(0.1,) * 4)
        with pytest.raises(ValueError) as err:
            NON_FINITE_CALLERS[caller](config, observations)
        assert str(err.value) == (
            "slot 9: observation alpha has 4 entries, expected 5")


class TestBasicUsageFault:
    def test_every_entry_check_words_it_alike(self, tmp_path):
        # five_day at horizon 5 with slot 2's generation halved: the
        # loader, validate_observation and the in-process entry checks
        # refuse the slot in surplus_power's words.
        config = replace(load_config("configs/five_day.yaml"), horizon=5)
        traces = list(generate_traces(config))
        obs = traces[2] = replace(traces[2], u=0.5 * traces[2].u)
        expected = (f"slot 2: basic usage {ordered_sum(obs.basic)} exceeds "
                    f"generation {obs.u}; the basic-usage guarantee admits "
                    f"no such slot")
        with pytest.raises(TraceError) as err:
            load_traces(*write_traces(traces, str(tmp_path / "t")), config)
        words = [str(err.value), "slot 2: " + validate_observation(
            obs, config.system)[0]]
        for caller in NON_FINITE_CALLERS.values():
            with pytest.raises(ValueError) as err:
                caller(config, traces)
            words.append(str(err.value))
        assert words == [expected] * 5


class TestSimulate:
    @pytest.mark.parametrize("seed, v_factor", [(3, 1.0), (4, 2.0)])
    def test_levels_and_backlogs_are_those_of_step(self, seed, v_factor):
        # The slot loop's tuple recurrence gives, bit for bit, the levels
        # and backlogs that step gives slot by slot on the same dispatches,
        # also past band escapes (at twice the safe v, without the
        # headroom clamp); each flow row is that of dispatch_slot's
        # dispatch at its state.
        config = random_system(np.random.default_rng(seed), 600, 5, 20)
        system = config.system
        v = v_factor * compute_vmax(config.batteries, config.grid)
        z_max = bound_constants(system, v).z_max
        observations = generate_traces(config)
        levels, backlogs, flows, audit = _simulate(
            config, _observation_arrays(observations, system.n_residents),
            slot_solver(system, v, headroom_clamp=False), v, z_max)
        states = [SystemState(0, tuple(b.e_init for b in config.batteries),
                              (0.0,) * system.n_residents)]
        for obs, row in zip(observations, flows.tolist()):
            dispatch = dispatch_slot(system, states[-1], obs, v,
                                     headroom_clamp=False)
            assert row == list(_dispatch_row(dispatch))
            states.append(step(system, states[-1], obs, dispatch))
        assert [state.t for state in states] == list(range(601))
        assert repr(levels) == repr([state.e for state in states])
        assert repr(backlogs) == repr([state.z for state in states])
        assert audit["battery_band"].any() == (v_factor > 1.0)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 20),
           st.integers(1, 600), st.sampled_from([1.0, 2.0]), st.booleans())
    @settings(deadline=None, max_examples=30)
    def test_drawn_columns_run_as_the_converted_trace(
            self, seed, k_max, n_max, horizon, v_factor, clamp):
        # A drawn Trace and its observations converted back by
        # _observation_arrays, as run() converts a hand-built list, are
        # the same columns, so the slot loop runs them alike.
        config = random_system(np.random.default_rng(seed), horizon, k_max,
                               n_max)
        system = config.system
        v = v_factor * compute_vmax(config.batteries, config.grid)
        z_max = bound_constants(system, v).z_max
        solve = slot_solver(system, v, headroom_clamp=clamp)
        drawn = generate_traces(config, np.random.default_rng(seed))
        converted = _observation_arrays(list(drawn), system.n_residents)
        for field in dataclasses.fields(drawn):
            assert (getattr(drawn, field.name).tobytes()
                    == getattr(converted, field.name).tobytes()), field.name
        a = _simulate(config, drawn, solve, v, z_max)
        b = _simulate(config, converted, solve, v, z_max)
        assert repr(a.levels) == repr(b.levels)
        assert repr(a.backlogs) == repr(b.backlogs)
        assert np.array_equal(a.flows, b.flows)
        assert a.audit.keys() == b.audit.keys()
        for key in a.audit:
            assert np.array_equal(a.audit[key], b.audit[key]), key

    def test_generate_traces_builds_the_drawn_columns_rows(self):
        # With two regimes and alpha_base, indexing generate_traces' Trace
        # builds the observations its iteration builds, and each segment
        # draws its quality requests up to its own cap.
        config = replace(
            load_config("configs/seven_day.yaml"), horizon=300,
            alpha_base=(1.0,) * 5, regimes=(
                Regime(start_slot=100, alpha_hi=3.0, burst_prob=0.5),
                Regime(start_slot=200, basic_range=(0.5, 2.0),
                       surplus_range=(0.0, 1.0))))
        columns = generate_traces(config)
        traces = list(columns)
        assert len(columns) == 300
        assert repr([columns[t] for t in range(300)]) == repr(traces)
        caps = [columns.alpha[lo:lo + 100].max() for lo in (0, 100, 200)]
        assert caps[0] <= 1.0 < caps[1] <= 3.0 and caps[2] <= 1.0
        assert columns.basic[200:].max() <= 2.0 < columns.basic[:200].max()
        assert (columns.surplus == [surplus_power(obs) for obs in traces]).all()

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


@st.composite
def flow_rows(draw):
    """A flow row of up to 5 batteries x 20 residents, and its K and N."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 20))
    width = 2 * k + n + 4
    row = draw(st.lists(st.floats(allow_nan=False), min_size=width,
                        max_size=width))
    return tuple(row), k, n


class TestFlowRows:
    @given(flow_rows())
    @settings(deadline=None, max_examples=200)
    def test_row_dispatch_round_trips(self, case):
        row, k, n = case
        dispatch = _row_dispatch(row, k)
        assert (len(dispatch.r), len(dispatch.d), len(dispatch.p)) == (k, k, n)
        assert dispatch.q == row[0] and dispatch.s == row[1]
        assert dispatch.r + dispatch.d + dispatch.p == row[2:-2]
        assert (dispatch.objective, dispatch.curtailed) == row[-2:]
        assert _dispatch_row(dispatch) == row
        # A row read back from the flows array is a list.
        assert _row_dispatch(list(row), k) == dispatch

    @pytest.mark.parametrize("name", ["five_day", "seven_day"])
    def test_custom_policy_flattens_as_the_scheduler_rows(self, name):
        # run()'s adapter flattens a custom policy's Dispatch into the
        # row the scheduler's solver returns: dispatch_slot's Dispatch as
        # a custom policy gives the scheduler's trajectory and cost.
        config = load_config(f"configs/{name}.yaml")
        traces = generate_traces(config)
        trajectory, summary = run(config, traces)

        def scheduler(state, obs):
            return dispatch_slot(config.system, state, obs, summary.v,
                                 curtail=config.curtailment)

        custom_trajectory, custom = run(config, traces, policy=scheduler)
        assert custom.policy == "custom"
        assert len(custom_trajectory.flows) == config.horizon
        assert_same_trajectory(custom_trajectory, trajectory)
        assert repr(custom.total_cost) == repr(summary.total_cost)
        assert custom.curtailed_total == summary.curtailed_total

    def test_scheduler_runs_build_no_dispatch(self, monkeypatch):
        # A clean scheduler run keeps its slots as arrays, whether or not
        # it returns them; only a first violation's slot gets a Dispatch.
        calls = []
        init = Dispatch.__init__

        def counted(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Dispatch, "__init__", counted)
        config = load_config("configs/five_day.yaml")
        traces = generate_traces(config)
        for keep in (False, True):
            trajectory, summary = run(config, traces, keep_records=keep)
            assert summary.first_violation is None
            assert (trajectory is not None) == keep
        assert calls == []


    @pytest.mark.parametrize("name", ["five_day", "seven_day"])
    def test_mecp_runs_as_its_wrapper_does_as_a_custom_policy(self, name):
        # run's prepared mecp solver and its one coin block give the
        # trajectory of mecp_dispatch drawing each slot's coins from a
        # generator seeded as run seeds it; the custom adapter hands that
        # policy each slot's SystemState, the run's own levels and
        # backlogs at the right t.
        config = load_config(f"configs/{name}.yaml")
        traces = generate_traces(config)
        trajectory, summary = run(config, traces, policy="mecp")
        rng = np.random.default_rng((config.seed, 1))
        seen = []

        def wrapped(state, obs):
            seen.append(state)
            return mecp_dispatch(config.system, state, obs, rng,
                                 config.block_prob, config.charge_prob,
                                 summary.v, curtail=config.curtailment)

        custom_trajectory, custom = run(config, traces, policy=wrapped)
        assert seen == [SystemState(t, e, z) for t, (e, z) in enumerate(
            zip(trajectory.levels[:-1], trajectory.backlogs[:-1]))]
        assert_same_trajectory(custom_trajectory, trajectory)
        assert custom == replace(summary, policy="custom")


class TestRun:
    def test_single_inert_slot(self):
        config = make_config(horizon=1)
        trajectory, summary = run(config, inert_trace())
        assert trajectory.levels == [(8.0,), (8.0,)]
        assert trajectory.backlogs == [(0.0,), (0.0,)]
        assert trajectory.flows.shape == (1, 7)
        assert trajectory.audit["cost"].tolist() == [0.0]
        assert trajectory.audit["outage"].tolist() == [[0.0]]
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
        (levels, _, flows, audit), summary = run(config, traces)
        assert len(levels) == len(flows) + 1 == 301
        cumulative = 0.0
        for t, obs in enumerate(traces):
            d = _row_dispatch(flows[t].tolist(), 1)
            cost = audit["cost"][t]
            assert cost == pytest.approx(d.q * obs.c - d.s * obs.w)
            cumulative += cost
            assert levels[t + 1][0] == pytest.approx(
                levels[t][0] - d.d[0] + d.r[0])
            assert audit["outage"][t][0] == pytest.approx(
                obs.alpha[0] - d.p[0])
        assert summary.total_cost == pytest.approx(cumulative)
        assert summary.mean_cost_per_slot == pytest.approx(cumulative / 300)
        assert summary.alpha_total[0] == pytest.approx(
            sum(obs.alpha[0] for obs in traces))

    def test_deterministic(self):
        config = make_config(horizon=250, policy="mecp")
        traces = generate_traces(config)
        trajectory_a, sum_a = run(config, traces)
        trajectory_b, sum_b = run(config, traces)
        assert_same_trajectory(trajectory_a, trajectory_b)
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
        traces = list(generate_traces(config))
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

    @pytest.mark.parametrize("policy", ["proposed", "mecp"])
    def test_unfed_basic_usage_named_before_any_slot(self, policy):
        # Basic usage above generation in slot 3 is named before slot 0,
        # ahead of slot 1's surplus, which fits no sink.
        config = replace(load_config("configs/five_day.yaml"), horizon=10,
                         policy=policy)
        traces = list(generate_traces(config))
        traces[1] = replace(traces[1], u=traces[1].u + 1e6)
        traces[3] = replace(traces[3], u=0.0)
        with pytest.raises(ValueError) as expected:
            surplus_power(traces[3])
        with pytest.raises(ValueError) as err:
            run(config, traces)
        assert str(err.value) == f"slot 3: {expected.value}"
        with pytest.raises(UnservableSurplusError, match="^slot 1: "):
            run(replace(config, horizon=3), traces)

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

    def test_uncallable_policy_rejected_before_any_slot(self, monkeypatch):
        # A policy that is neither a known name nor callable is refused
        # before the slot loop starts, naming the policy.
        def no_loop(*args):
            raise AssertionError("slot loop entered")

        monkeypatch.setattr(mgsched.sim, "_simulate", no_loop)
        config = make_config(horizon=1)
        with pytest.raises(ValueError) as err:
            run(config, inert_trace(), policy=3)
        assert str(err.value) == "unknown policy 3"

    def test_keep_records_off(self):
        config = make_config(horizon=20)
        trajectory, summary = run(config, generate_traces(config),
                                  keep_records=False)
        assert trajectory is None
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

    @pytest.mark.parametrize("iterations", [
        True, False, np.True_, 2.5, 3.0, np.float64(3.0), "3", None])
    def test_rejects_iterations_that_are_not_integers(self, iterations):
        # True once ran one iteration, and 2.5 reached range() as a
        # TypeError.
        config = make_config(horizon=10)
        with pytest.raises(ValueError,
                           match="^iterations must be an integer, got"):
            hindsight_lower_bound(generate_traces(config), config,
                                  iterations=iterations)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_accepts_numpy_integers(self, kind):
        config = make_config(horizon=30, seed=2)
        traces = generate_traces(config)
        assert (hindsight_lower_bound(traces, config, iterations=kind(3))
                == hindsight_lower_bound(traces, config, iterations=3))

    def test_rejects_an_empty_trace(self):
        with pytest.raises(ValueError, match="^empty trace$"):
            hindsight_lower_bound([], make_config(horizon=10), iterations=1)

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
        traces = list(generate_traces(config))
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
        traces = list(generate_traces(config))
        traces[3] = replace(traces[3], **{field: (0.1,) * width})
        with pytest.raises(ValueError) as err:
            hindsight_lower_bound(traces, config, iterations=2)
        assert str(err.value) == (
            f"slot 3: observation {field} has {width} entries, expected 5")

    def test_unfed_basic_usage_raises_as_surplus_power_does(self):
        config = make_config(horizon=4)
        traces = list(generate_traces(config))
        traces[2] = replace(traces[2], u=0.5 * sum(traces[2].basic))
        with pytest.raises(ValueError) as expected:
            surplus_power(traces[2])
        with pytest.raises(ValueError) as err:
            hindsight_lower_bound(traces, config, iterations=2)
        assert str(err.value) == f"slot 2: {expected.value}"


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
    flows = merit_order_allocate(supply, demand, len(batteries), len(nu),
                                 curtail).flows
    return None if flows is None else _row_dispatch(flows, len(batteries))


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


def reference_relaxed_slots(mu, nu, caps, d_max, grid, surplus, c, w):
    """_relaxed_slots' closed form on two separate books: the bids and the
    offers as their own arrays, each mask built where it is used. The
    stacked kernel must return the same bytes."""
    n_res = len(nu)
    demand = sorted([(-nu[n], 0, n) for n in range(n_res)]
                    + [(mu[k], 1, n_res + k) for k in range(len(mu))])
    supply = sorted((-m, 1, k) for k, m in enumerate(mu))
    value = np.array([-key for key, _, _ in demand])
    rows = [row for _, _, row in demand]
    cost = np.array([key for key, _, _ in supply])
    order = [k for _, _, k in supply]
    b_cap = caps[rows]
    o_cap = d_max[order]
    o_col = o_cap[:, None]
    q_cap, s_cap = grid.q_max, grid.s_max
    v_col = value[:, None]
    k_col = cost[:, None]
    below = (k_col < value).astype(float)

    b_ahead = (b_cap.cumsum(0) - b_cap) + s_cap * (w > v_col)
    b_reach = surplus + (o_cap @ below)[:, None] + q_cap * (c < v_col)
    take = np.minimum(np.maximum(b_reach - b_ahead, 0.0), b_cap)
    o_ahead = (o_cap.cumsum() - o_cap)[:, None] + q_cap * (c < k_col)
    o_reach = below @ b_cap + s_cap * (w > k_col)
    give = np.minimum(np.maximum(o_reach - surplus - o_ahead, 0.0), o_col)
    q = np.minimum(np.maximum((b_cap * (v_col > c)).sum(0) - surplus
                              - (o_col * (k_col <= c)).sum(0), 0.0), q_cap)
    s = np.minimum(np.maximum(surplus + (o_col * (k_col < w)).sum(0)
                              - (b_cap * (v_col >= w)).sum(0), 0.0), s_cap)

    objective = (np.ascontiguousarray(give.T) @ cost + q * c
                 - np.ascontiguousarray(take.T) @ value - s * w)
    back = np.argsort(rows)
    return (objective, q, s, take[back[n_res:]], give[np.argsort(order)],
            take[back[:n_res]])


def reference_slot_sums(a: np.ndarray) -> np.ndarray:
    """_slot_sums as a slot-major copy sums it: the transposed array,
    made C-contiguous, summed over its first axis."""
    return np.ascontiguousarray(a.T).sum(0)


@st.composite
def slot_blocks(draw):
    """An (entries, T) float array, 1-25 entries by 1-700 slots, whose
    values mix signs, magnitudes from 1e-3 to 1e3, exact zeros and -0.0;
    in half the arrays the first row is all -0.0, which a slot-major sum
    adds up to 0.0."""
    shape = (draw(st.integers(1, 25)), draw(st.integers(1, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = draw(st.sampled_from([0.0, 0.1, 0.5]))
    a = (rng.choice([-1.0, 1.0], shape)
         * 10.0 ** rng.uniform(-3.0, 3.0, shape))
    kind = rng.random(shape)
    a[kind < zero] = 0.0
    a[kind > 0.95] = -0.0
    if draw(st.booleans()):
        a[0] = -0.0
    return a


class TestSlotSums:
    @given(slot_blocks())
    @settings(deadline=None, max_examples=1000)
    def test_returns_the_bytes_of_a_slot_major_sum(self, a):
        # nu @ allowance runs BLAS's dot, which adds a strided vector in
        # another order, so the sums must also come back contiguous.
        got = _slot_sums(a)
        expected = reference_slot_sums(a)
        assert got.flags.c_contiguous
        assert got.shape == expected.shape == (len(a),)
        assert got.tobytes() == expected.tobytes()


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
        unservable = np.array(surplus) > caps.sum(0) + grid.s_max
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
    def test_returns_the_bytes_of_the_separate_books(self, case):
        # The comparisons above allow 1e-12, so they would miss a float
        # operation that changed order; the bound's bits depend on it.
        mu, nu, batteries, grid, surplus, alpha, c, w = case
        args = (mu, nu, _demand_caps(np.array(alpha), batteries),
                np.array([b.d_max for b in batteries]), grid,
                np.array(surplus), np.array(c), np.array(w))
        for got, expected in zip(_relaxed_slots(*args),
                                 reference_relaxed_slots(*args), strict=True):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

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

        def every_slot(values):
            return np.repeat(np.array(values, float)[:, None], len(c), 1)

        objective, *flows = _relaxed_slots(mu, nu, caps, d_max, grid,
                                           surplus, c, w)
        # Recharge values and discharge costs are -mu, in the batch layout.
        neg_mu = -every_slot(mu)
        got, *got_flows, _ = merit_order_columns(
            np.vstack([every_slot(nu), neg_mu, w]),
            np.vstack([caps, every_slot([grid.s_max])]),
            np.vstack([neg_mu, c]), every_slot([*d_max, grid.q_max]),
            surplus)
        for expected, actual in zip(flows, got_flows):
            assert actual.shape == expected.shape
            assert actual.ravel() == pytest.approx(expected.ravel(), rel=0.0,
                                                   abs=1e-12)
        assert got == pytest.approx(objective, rel=1e-12)


def reference_slot_records(trajectory: Trajectory) -> bytes:
    """slots.csv as formatting every field in turn writes it: the table
    write_slot_records builds, each row through one "%s" format."""
    levels, backlogs, flows, audit = trajectory
    n_bat, n_res = len(levels[0]), len(backlogs[0])
    zero = np.zeros((len(flows), 1))
    cost = audit["cost"]
    table = np.column_stack([
        cost, np.cumsum(cost) + 0.0, flows[:, :2],
        *(_row_total(np.hstack([zero, flows[:, at]]))
          for at in _flow_slices(n_bat)[:2]),
        _stack(levels[1:], n_bat), _stack(backlogs[1:], n_res),
        audit["outage"]])
    cols = ["t", "cost_increment", "cumulative_cost", "q", "s", "sum_r", "sum_d"]
    cols += [f"e_{k + 1}" for k in range(n_bat)]
    cols += [f"z_{n + 1}" for n in range(n_res)]
    cols += [f"outage_{n + 1}" for n in range(n_res)]
    row = ",".join(["%s"] * len(cols)) + "\n"
    return "".join([",".join(cols) + "\n"] + [
        row % (t, *values) for t, values in enumerate(table.tolist())
    ]).encode("utf-8")


def reference_write_traces(traces, prefix: str) -> tuple[str, str, str]:
    """write_traces as formatting every field in turn writes it: each
    observation slot by slot, each row through one "%s" format."""
    paths = (f"{prefix}.wind.csv", f"{prefix}.prices.csv",
             f"{prefix}.demand.csv")
    tables = (
        ["slot,generation_kwh\n"]
        + ["%s,%s\n" % (t, obs.u) for t, obs in enumerate(traces)],
        ["slot,purchase_price,sell_price\n"]
        + ["%s,%s,%s\n" % (t, obs.c, obs.w) for t, obs in enumerate(traces)],
        ["slot,resident,basic_kwh,quality_kwh\n"]
        + ["%s,%s,%s,%s\n" % (t, n, b, a) for t, obs in enumerate(traces)
           for n, (b, a) in enumerate(zip(obs.basic, obs.alpha))])
    for path, lines in zip(paths, tables):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    return paths


def _nan(payload: int, sign: int = 0) -> float:
    """A quiet NaN with the given sign bit and mantissa payload."""
    bits = (sign << 63) | 0x7FF8_0000_0000_0000 | payload
    return np.array([bits], dtype=np.uint64).view(float)[0].item()


# Few values, so a trajectory repeats most of them: both zeros, NaNs whose
# bits differ, both infinities, subnormals, both sides of repr's switches
# to exponent form (1e16 and 1e-05) and np.float64s.
SLOT_VALUES = (
    0.0, -0.0, math.nan, _nan(1), _nan(0x5_A5A5, sign=1), math.inf,
    -math.inf, 5e-324, 2.225073858507201e-308, 1e16, 9999999999999998.0,
    1e-05, 0.0001, 0.1, 0.30000000000000004, -2.5, np.float64(-0.0),
    np.float64(0.1), np.float64(1e16), np.float64(1e-05))


@st.composite
def pooled_trajectories(draw):
    """A Trajectory of up to 8 slots, 3 batteries and 3 residents whose
    rows, flows, cost and outage entries all come from SLOT_VALUES."""
    n_bat, n_res = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 8))

    def rows_of(count, width):
        return draw(st.lists(
            st.tuples(*[st.sampled_from(SLOT_VALUES)] * width),
            min_size=count, max_size=count))

    levels = rows_of(horizon + 1, n_bat)
    backlogs = rows_of(horizon + 1, n_res)
    flows = np.array(rows_of(horizon, 2 * n_bat + n_res + 4), dtype=float)
    cost = np.array([row[0] for row in rows_of(horizon, 1)], dtype=float)
    outage = np.array(rows_of(horizon, n_res), dtype=float)
    return Trajectory(levels, backlogs, flows,
                      {"cost": cost, "outage": outage})


@st.composite
def pooled_traces(draw):
    """A Trace of up to 8 slots and 3 residents whose entries all come
    from SLOT_VALUES."""
    horizon, n_res = draw(st.integers(0, 8)), draw(st.integers(1, 3))
    columns = draw(st.tuples(*(
        st.lists(st.sampled_from(SLOT_VALUES), min_size=size, max_size=size)
        for size in (horizon, horizon * n_res, horizon * n_res, horizon,
                     horizon))))
    u, basic, alpha, c, w = (np.array(column, dtype=float)
                             for column in columns)
    # Its surplus column may add inf to -inf.
    with np.errstate(invalid="ignore"):
        return Trace(u, basic.reshape(horizon, n_res),
                     alpha.reshape(horizon, n_res), c, w)


class TestReporting:
    def test_pooled_values_keep_their_bits(self):
        # The pool's NaNs, zeros and subnormals survive into an array, so
        # the writer sees bit patterns that print alike but differ.
        bits = np.array(SLOT_VALUES, dtype=float).view(np.int64)
        assert len(set(bits.tolist())) == len(SLOT_VALUES) - 4
        assert len(set(map(str, SLOT_VALUES))) == len(SLOT_VALUES) - 6

    @given(pooled_trajectories(), pooled_traces())
    @settings(deadline=None, max_examples=300)
    def test_writes_the_bytes_of_formatting_each_field(self, tmp_path_factory,
                                                        trajectory, trace):
        base = tmp_path_factory.getbasetemp()
        path = base / "pooled.slots.csv"
        # The running totals may add inf to -inf; the writer does so
        # without a warning, the reference needs telling.
        write_slot_records(trajectory, str(path))
        with np.errstate(invalid="ignore"):
            expected = reference_slot_records(trajectory)
        assert path.read_bytes() == expected
        written = write_traces(trace, str(base / "pooled"))
        for ours, reference in zip(written, reference_write_traces(
                trace, str(base / "reference"))):
            assert Path(ours).read_bytes() == Path(reference).read_bytes()

    def test_a_list_of_observations_writes_as_its_trace(self, tmp_path):
        # A list is converted as run converts it: int fields write as
        # floats, a -0.0 quality request as 0.0, and ragged request widths
        # raise width_error's ValueError before any file is written.
        listed = [SlotObservation(5, (1, -0.0), (2, -0.0), 3, 1)]
        paths = write_traces(listed, str(tmp_path / "l"))
        assert [Path(path).read_text().splitlines()[1:] for path in paths] == [
            ["0,5.0"], ["0,3.0,1.0"], ["0,0,1.0,2.0", "0,1,-0.0,0.0"]]
        ragged = listed + [replace(listed[0], alpha=(2.0,))]
        with pytest.raises(ValueError, match="^slot 1: observation alpha has "
                                             "1 entries, expected 2$"):
            write_traces(ragged, str(tmp_path / "r"))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            Path(path).name for path in paths)

    def test_infinite_custom_flows_are_flagged_without_warnings(self,
                                                                tmp_path):
        # Warnings are errors in this suite: inf * 0 in the exclusivity
        # audit and inf + -inf in the running totals must stay silent,
        # while the balance audit flags both slots and the totals read nan.
        config = replace(load_config("configs/five_day.yaml"), horizon=3)
        v = config.v_fraction * compute_vmax(config.batteries, config.grid)

        def policy(state, obs):
            dispatch = dispatch_slot(config.system, state, obs, v)
            if state.t == 1:
                return replace(dispatch, q=math.inf)
            if state.t == 2:
                return replace(dispatch, s=math.inf)
            return dispatch

        trajectory, summary = run(config, generate_traces(config),
                                  policy=policy)
        assert trajectory.audit["balance"].tolist() == [False, True, True]
        assert summary.violations["balance"] == 2
        assert summary.first_violation[:2] == (1, "balance")
        assert math.isnan(summary.total_cost)
        path = tmp_path / "records.csv"
        write_slot_records(trajectory, str(path))
        totals = [line.split(",")[2]
                  for line in path.read_text().splitlines()[1:]]
        assert totals[1:] == ["inf", "nan"]

    def test_slot_records_csv(self, tmp_path):
        config = make_config(horizon=25, burst_prob=0.05)
        traces = generate_traces(config)
        trajectory, summary = run(config, traces)
        path = tmp_path / "records.csv"
        write_slot_records(trajectory, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,cost_increment,cumulative_cost,q,s,sum_r,sum_d,"
                            "e_1,z_1,outage_1")
        assert len(lines) == 26
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[7]) == trajectory.levels[1][0]
        assert float(lines[-1].split(",")[2]) == summary.total_cost

    def test_row_totals_add_as_ordered_sum_does(self, tmp_path):
        # A custom policy hands in signed zeros and np.float64 flows; the
        # written totals are ordered_sum's, bit for bit. Added without its
        # leading 0, a row of -0.0s would total -0.0 instead of 0.0.
        config = replace(load_config("configs/five_day.yaml"), horizon=40)
        v = config.v_fraction * compute_vmax(config.batteries, config.grid)
        rows_r, rows_d = [], []

        def signed(flows):
            return tuple(np.float64(x) if x else -0.0 for x in flows)

        def policy(state, obs):
            dispatch = dispatch_slot(config.system, state, obs, v)
            dispatch = replace(dispatch, r=signed(dispatch.r),
                               d=signed(dispatch.d))
            rows_r.append(dispatch.r)
            rows_d.append(dispatch.d)
            return dispatch

        trajectory, _ = run(config, generate_traces(config), policy=policy)
        path = tmp_path / "records.csv"
        write_slot_records(trajectory, str(path))
        lines = path.read_text().splitlines()
        at = lines[0].split(",").index("sum_r")
        written = [line.split(",")[at:at + 2] for line in lines[1:]]
        assert written == [[str(ordered_sum(r)), str(ordered_sum(d))]
                           for r, d in zip(rows_r, rows_d)]
        # Some slot's recharge or discharge row is all -0.0.
        assert any(not any(row) for row in rows_r + rows_d)

    @pytest.mark.parametrize("policy", ["proposed", "mecp"])
    def test_negative_zero_request_prints_as_zero(self, tmp_path, policy):
        # A -0.0 quality request handed to run() in process (the trace
        # loader already reads one as 0.0) prints as 0 everywhere.
        config = make_config(horizon=1, policy=policy)
        trace = [SlotObservation(1.0, (0.2,), (-0.0,), 0.08, 0.03)]
        trajectory, summary = run(config, trace)
        path = tmp_path / "slots.csv"
        write_slot_records(trajectory, str(path))
        text = format_summary(summary)
        fields = [field for line in path.read_text().splitlines()
                  for field in line.split(",")]
        fields += [field for line in text.splitlines()
                   for field in line.split(": ", 1)[-1].split(",")]
        assert "-0.0" not in [field.strip() for field in fields]
        assert summary.alpha_total == summary.outage_total == (0.0,)
        assert math.copysign(1.0, summary.alpha_total[0]) == 1.0

    def test_slot_loop_hands_the_policy_the_audited_request(self):
        # The slot loop reads the same + 0.0 alpha column as the audit, so
        # a policy sees a -0.0 request as 0.0.
        config = make_config(horizon=1)
        trace = [SlotObservation(1.0, (0.2,), (-0.0,), 0.08, 0.03)]
        solve = slot_solver(config.system, 1.0)
        seen = []

        def spy(e, z, alpha, *rest):
            seen.extend(math.copysign(1.0, a) for a in alpha)
            return solve(e, z, alpha, *rest)

        _simulate(config, _observation_arrays(trace, 1), spy, 1.0, (10.0,))
        assert seen == [1.0]

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

    def test_numpy_float_traces_round_trip(self, tmp_path):
        # np.float64 is a float, so a trace may carry it; numpy 2 reprs it
        # as np.float64(...), which load_traces cannot read back.
        config = make_config(horizon=6)
        traces = [replace(obs, u=np.float64(obs.u), c=np.float64(obs.c),
                          basic=tuple(map(np.float64, obs.basic)))
                  for obs in generate_traces(config)]
        paths = write_traces(traces, str(tmp_path / "t"))
        assert all("np." not in Path(path).read_text() for path in paths)
        assert list(load_traces(*paths, config)) == traces

    def test_numpy_float_flows_print_as_numbers(self, tmp_path):
        # A custom policy's np.float64 flows carry into the levels and
        # backlogs; slots.csv prints them as the floats they equal.
        config = make_config(horizon=25, burst_prob=0.05)
        traces = generate_traces(config)
        v = config.v_fraction * compute_vmax(config.batteries, config.grid)

        def plain(state, obs):
            return dispatch_slot(config.system, state, obs, v)

        def as_numpy(state, obs):
            dispatch = plain(state, obs)
            return replace(dispatch, r=tuple(map(np.float64, dispatch.r)),
                           d=tuple(map(np.float64, dispatch.d)),
                           p=tuple(map(np.float64, dispatch.p)))

        written = []
        for policy in (plain, as_numpy):
            trajectory, _ = run(config, traces, policy=policy)
            path = tmp_path / "records.csv"
            write_slot_records(trajectory, str(path))
            written.append(path.read_bytes())
        assert b"np." not in written[1]
        assert written[1] == written[0]

    def test_numpy_float_summary_prints_as_numbers(self):
        _, summary = run(make_config(horizon=1), inert_trace())
        as_numpy = replace(
            summary, v=np.float64(summary.v), v_max=np.float64(summary.v_max),
            total_cost=np.float64(summary.total_cost),
            alpha_total=tuple(map(np.float64, summary.alpha_total)))
        assert format_summary(as_numpy) == format_summary(summary)

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

    @pytest.mark.parametrize("old,new,line,key", [
        # A top-level repeat: five_day.yaml's seed is on line 9.
        ("policy: proposed\n", "policy: proposed\nseed: 9\n", 12, "seed"),
        # A repeat inside a residents entry, whose delta is on line 23.
        ("    delta: 0.07\n", "    delta: 0.07\n    delta: 0.2\n", 24,
         "delta"),
        # A repeat inside a regime, two mappings below the top level;
        # traces is on line 33.
        ("traces:\n", "traces:\n  regimes:\n    - start_slot: 9\n"
         "      burst_prob: 0.1\n      burst_prob: 0.2\n", 37, "burst_prob"),
    ])
    @pytest.mark.parametrize("loader", [load_config, load_seed])
    def test_repeated_keys_are_refused(self, tmp_path, old, new, line, key,
                                       loader):
        base = Path("configs/five_day.yaml").read_text()
        assert old in base
        path = tmp_path / "bad.yaml"
        path.write_text(base.replace(old, new, 1))
        with pytest.raises(ValueError) as err:
            loader(str(path))
        assert str(err.value) == f"{path}:{line}: duplicate key {key!r}"

    @pytest.mark.parametrize("loader", [load_config, load_seed])
    def test_unconstructible_values_name_the_file(self, tmp_path, loader):
        # PyYAML resolves 2001-13-45 as a timestamp, and its safe
        # constructor raises a bare ValueError building the date.
        path = tmp_path / "bad.yaml"
        path.write_text(Path("configs/five_day.yaml").read_text().replace(
            "seed: 7\n", "seed: 2001-13-45\n", 1))
        with pytest.raises(ValueError) as err:
            loader(str(path))
        assert str(err.value) == f"{path}: month must be in 1..12"

    def test_merge_keys_are_no_repeats(self, tmp_path):
        path = tmp_path / "merged.yaml"
        path.write_text("seed: 3\nbase: &b {delta: 0.1}\n"
                        "other:\n  <<: *b\n  delta: 0.2\n")
        assert load_seed(str(path)) == 3

    def test_the_cached_loader_keeps_no_state_between_reads(self, tmp_path):
        # Every read of a process shares one loader class: a key one file
        # or mapping holds must not count as a repeat in the next.
        base = Path("configs/five_day.yaml").read_text()
        reads = mgsched.sim._loader.cache_info()
        for old, new, line, key in [
                ("seed: 7\n", "seed: 7\nseed: 8\n", 10, "seed"),
                ("  q_max_kwh: 25.0\n", "  q_max_kwh: 25.0\n"
                 "  q_max_kwh: 20.0\n", 29, "q_max_kwh")]:
            assert old in base
            path = tmp_path / f"{key}.yaml"
            path.write_text(base.replace(old, new, 1))
            with pytest.raises(ValueError) as err:
                load_config(str(path))
            assert str(err.value) == f"{path}:{line}: duplicate key {key!r}"
        # Two one-battery entries, the second merged from the first and
        # overriding one of its keys with the same value.
        edits = [("  - count: 2\n", "  - &battery\n    count: 1\n"),
                 ("    e_init_kwh: 8.0\n", "    e_init_kwh: 8.0\n"
                  "  - <<: *battery\n    e_init_kwh: 8.0\n")]
        for old, new in edits:
            assert base.count(old) == 1
            base = base.replace(old, new)
        path = tmp_path / "merged.yaml"
        path.write_text(base)
        assert load_config(str(path)) == load_config("configs/five_day.yaml")
        assert mgsched.sim._loader.cache_info().hits - reads.hits >= 3

    @pytest.mark.parametrize("section,count", [
        ("battery", 0), ("battery", -2), ("resident", 0)])
    def test_count_errors_name_the_section(self, tmp_path, section, count):
        base = Path("configs/five_day.yaml").read_text()
        old = "  - count: 2\n" if section == "battery" else "  - count: 5\n"
        assert old in base
        path = tmp_path / "bad.yaml"
        path.write_text(base.replace(old, f"  - count: {count}\n", 1))
        with pytest.raises(ValueError) as err:
            load_config(str(path))
        assert str(err.value) == (f"{path}: {section}.count must be a "
                                  f"positive integer, got {count}")


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
