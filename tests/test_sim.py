import math

import numpy as np
import pytest

from mgsched import (
    Dispatch,
    RunConfig,
    Regime,
    SlotObservation,
    TraceError,
    format_summary,
    generate_traces,
    hindsight_lower_bound,
    load_config,
    load_traces,
    run,
    validate_observation,
    write_slot_records,
    write_summary,
    write_traces,
)

from conftest import make_battery, make_grid, make_resident


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
        lines = open(wind).read().splitlines()
        lines[0] = "slot,wind_mph"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="expected header"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_non_numeric_field(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = open(wind).read().splitlines()
        lines[2] = "1,gusty"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="bad.csv:3.*not a number"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_non_finite_field(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = open(wind).read().splitlines()
        lines[2] = "1,nan"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="not finite"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_duplicate_slot(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = open(wind).read().splitlines()
        lines.append(lines[1])
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="duplicate slot 0"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_missing_slot(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = open(wind).read().splitlines()
        del lines[3]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="missing slot 2"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_wrong_field_count(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = open(wind).read().splitlines()
        lines[2] += ",0.5"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="expected 2 fields"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)

    def test_resident_out_of_range(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = open(demand).read().splitlines()
        lines[1] = lines[1].replace("0,0,", "0,7,", 1)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="resident 7 outside"):
            load_traces(wind, prices, str(tmp_path / "bad.csv"), config)

    def test_price_outside_band(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        lines = open(prices).read().splitlines()
        parts = lines[1].split(",")
        parts[1] = "0.5"
        lines[1] = ",".join(parts)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="slot 0"):
            load_traces(wind, str(tmp_path / "bad.csv"), demand, config)

    def test_empty_file(self, tmp_path):
        config, (wind, prices, demand) = self._write_files(tmp_path)
        (tmp_path / "bad.csv").write_text("")
        with pytest.raises(TraceError, match="empty file"):
            load_traces(str(tmp_path / "bad.csv"), prices, demand, config)


def inert_trace(n=1):
    return [SlotObservation(u=0.0, basic=(0.0,) * n, alpha=(0.0,) * n,
                            c=0.10, w=0.02)]


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
        assert summary.stability_pass == (True,)

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
        # The bound's exact float on this trace: rewriting how its books
        # are built must reproduce it bit for bit. A deliberate change to
        # the bound itself re-pins this value.
        config = load_config("configs/five_day.yaml")
        traces = generate_traces(config)[:200]
        lb = hindsight_lower_bound(traces, config, iterations=5)
        assert lb == 0.1968218681751001


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

    @pytest.mark.parametrize("text,match", [
        ("- 1\n- 2\n", "top level"),
        ("batteries: 3\n", "non-empty list"),
        ("batteries:\n  - e_min_kwh: 0.0\n", "battery entry missing"),
        ("slot_hours: -1\n", "slot_hours"),
    ])
    def test_malformed_configs(self, tmp_path, text, match):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_config(str(path))

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
        with pytest.raises(ValueError, match="count"):
            load_config(str(path))

    def test_regime_missing_start(self, tmp_path):
        base = open("configs/five_day.yaml").read()
        path = tmp_path / "bad.yaml"
        path.write_text(base.replace(
            "traces:\n",
            "traces:\n  regimes:\n    - quality_max_kw: 20.0\n"))
        with pytest.raises(ValueError, match="start_slot"):
            load_config(str(path))
