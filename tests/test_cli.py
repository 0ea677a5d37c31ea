import codecs
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgsched.cli
import mgsched.dispatch
import mgsched.sim
from mgsched import Summary, SuiteResult
from mgsched.cli import main

FIVE_DAY = "configs/five_day.yaml"
SEVEN_DAY = "configs/seven_day.yaml"
ROOT = Path(__file__).resolve().parent.parent
# A locale whose encoding is ASCII: without PYTHONUTF8=0, Python would
# switch to UTF-8 mode under the C locale.
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C"}

# SHA-256 of the files `mgsched run` writes for each shipped config. A
# speed-only change must keep them; a change that means to alter the
# outputs re-records them here.
SHIPPED_DIGESTS = {
    FIVE_DAY: {
        "slots.csv": "a8d24c9b111a57adbad2f57f130604d8c61cd6906f32aa8d1b1b4e61d3cdd663",
        "summary.txt": "e2dd37364bc8ff7221a0e0cfc6d3bd4848253fdb4c64539b8633a6e91284463b",
    },
    SEVEN_DAY: {
        "slots.csv": "6ee1ea06fc14c6302e77906cd6440316ef177946ef735e86f83b22762e3a4f62",
        "summary.txt": "206d89873bbdceba73020c3a9de1b36881f7f2f4dad4a97f8acafbab0236bce0",
    },
}

# SHA-256 of the files `mgsched compare` writes for each shipped config,
# pinned like SHIPPED_DIGESTS; the mecp summary also pins the baseline's
# coin stream.
COMPARE_DIGESTS = {
    FIVE_DAY: {
        "compare.csv": "63b25172d6b0bcce62a902e51bf39c426565ac30edf6b9b1ad1a18a8496dcce0",
        "proposed.summary.txt": "e2dd37364bc8ff7221a0e0cfc6d3bd4848253fdb4c64539b8633a6e91284463b",
        "mecp.summary.txt": "ddff6d38a0cdaee88508c92b562c19b6764a839e0c0ab178b5125a6b8bd01447",
    },
    SEVEN_DAY: {
        "compare.csv": "5cbff6ed791aab5c9d10ad8f26972b966b9d27b02769de4c98e24ceaad4bc2fb",
        "proposed.summary.txt": "206d89873bbdceba73020c3a9de1b36881f7f2f4dad4a97f8acafbab0236bce0",
        "mecp.summary.txt": "dcfeab2e8b33317e8305e2cef9bee78261cdb80dd69d5159c28efaf79d024552",
    },
}

# SHA-256 of the file `mgsched sweep-v --fractions 1,0.5,0.25,0.125`
# writes for each shipped config, pinned like SHIPPED_DIGESTS.
SWEEP_DIGESTS = {
    FIVE_DAY: {
        "sweep.csv": "879b50634b6207802c7706bd12524e867037ce45b252b0e7a6e49f87d474df66",
    },
    SEVEN_DAY: {
        "sweep.csv": "c13c6bc79092f5333ac73b8e0e8e3c5ede14c6e74630d31515004a0ba87aa0ff",
    },
}

# SHA-256 of the three CSVs `mgsched gen-traces` writes for each shipped
# config, pinned like SHIPPED_DIGESTS.
TRACE_DIGESTS = {
    FIVE_DAY: {
        "wind": "d4929234f7b660f7b83248f412371dfddd2646984ade79faaa51f980ab127e67",
        "prices": "c8c2dd5af4bd21271c13f0af4f09afd0255992756b41c3ab1b75c94bf33dbdc6",
        "demand": "b4beb84c72553bae6a62ad997ab3b9a435d3ff4e42d618dd2fecc68901926e9b",
    },
    SEVEN_DAY: {
        "wind": "b58d7fcd2db1314a8890b685f7874a1cb76206c7b340284b1b499004a160f4e7",
        "prices": "e028cad1936d7fb26381d173b693e0b05ec4a2889a954010757840e6ff2e6ae4",
        "demand": "3eb890648da40d1f5f32a7f40a6c0d7e087e28d29b6357ec7828ef9f0bf817e1",
    },
}


def make_summary(**overrides) -> Summary:
    """A one-slot Summary with no violations, fields overridden."""
    fields = dict(
        policy="proposed", slots=1, v=150.0, v_max=150.0, total_cost=0.0,
        mean_cost_per_slot=0.0, alpha_total=(1.0,), outage_total=(0.0,),
        outage_ratio=(0.0,), convergence_slot=(0,), stability_pass=(True,),
        violations={"battery_band": 0, "queue_bound": 0, "outage_window": 0,
                    "balance": 0, "exclusivity": 0, "threshold": 0},
        curtailed_total=0.0)
    fields.update(overrides)
    return Summary(**fields)


def overweight_the_scheduler(monkeypatch):
    """Solve every scheduler slot at four times its v without the headroom
    clamp, which drives the batteries out of their bands."""
    real = mgsched.sim.slot_solver

    def overweighted(system, v, **kwargs):
        return real(system, 4.0 * v, headroom_clamp=False, **kwargs)

    monkeypatch.setattr(mgsched.sim, "slot_solver", overweighted)


class TestRunCommand:
    def test_writes_outputs_and_exits_clean(self, tmp_path, capsys):
        out = str(tmp_path / "base")
        assert main(["run", "--config", FIVE_DAY, "--out", out]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        slots = (tmp_path / "base.slots.csv").read_text().splitlines()
        assert slots[0].startswith("t,cost_increment,cumulative_cost,")
        assert len(slots) == 481
        summary = (tmp_path / "base.summary.txt").read_text()
        assert "policy: proposed\n" in summary
        assert "violations_battery_band: 0\n" in summary

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", "--config", FIVE_DAY, "--out", out_a]) == 0
        assert main(["run", "--config", FIVE_DAY, "--out", out_b]) == 0
        assert ((tmp_path / "a.slots.csv").read_bytes()
                == (tmp_path / "b.slots.csv").read_bytes())
        assert ((tmp_path / "a.summary.txt").read_bytes()
                == (tmp_path / "b.summary.txt").read_bytes())

    @pytest.mark.parametrize("config", [FIVE_DAY, SEVEN_DAY])
    def test_shipped_outputs_are_pinned(self, tmp_path, config):
        out = str(tmp_path / "run")
        assert main(["run", "--config", config, "--out", out]) == 0
        digests = {
            suffix: hashlib.sha256(
                (tmp_path / f"run.{suffix}").read_bytes()).hexdigest()
            for suffix in ("slots.csv", "summary.txt")}
        assert digests == SHIPPED_DIGESTS[config]

    def test_seed_override_changes_the_run(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", "--config", FIVE_DAY, "--out", out_a]) == 0
        assert main(["run", "--config", FIVE_DAY, "--out", out_b,
                     "--seed", "8"]) == 0
        assert ((tmp_path / "a.summary.txt").read_text()
                != (tmp_path / "b.summary.txt").read_text())

    def test_recorded_traces_reproduce_the_synthetic_run(self, tmp_path):
        trace_prefix = str(tmp_path / "traces")
        assert main(["gen-traces", "--config", FIVE_DAY,
                     "--out", trace_prefix]) == 0
        out_gen = str(tmp_path / "gen")
        out_rec = str(tmp_path / "rec")
        assert main(["run", "--config", FIVE_DAY, "--out", out_gen]) == 0
        assert main(["run", "--config", FIVE_DAY, "--out", out_rec,
                     "--wind", f"{trace_prefix}.wind.csv",
                     "--prices", f"{trace_prefix}.prices.csv",
                     "--demand", f"{trace_prefix}.demand.csv"]) == 0
        assert ((tmp_path / "gen.slots.csv").read_bytes()
                == (tmp_path / "rec.slots.csv").read_bytes())
        assert ((tmp_path / "gen.summary.txt").read_bytes()
                == (tmp_path / "rec.summary.txt").read_bytes())

    def test_negative_zero_requests_replay_as_zero(self, tmp_path):
        # A quality request written as -0.0 is a request of 0.0: its sign
        # must not reach slots.csv, here as -0.0 outages in slots 0-2.
        prefix = str(tmp_path / "t")
        assert main(["gen-traces", "--config", FIVE_DAY, "--out", prefix]) == 0
        demand = (tmp_path / "t.demand.csv").read_text().splitlines()
        outputs = []
        for zero in ("-0.0", "0.0"):
            lines = demand[:1] + [
                line.rsplit(",", 1)[0] + f",{zero}"
                if int(line.split(",")[0]) < 3 else line
                for line in demand[1:]]
            path = tmp_path / f"demand{zero}.csv"
            path.write_text("\n".join(lines) + "\n")
            out = tmp_path / f"run{zero}"
            assert main(["run", "--config", FIVE_DAY, "--out", str(out),
                         "--wind", f"{prefix}.wind.csv",
                         "--prices", f"{prefix}.prices.csv",
                         "--demand", str(path)]) == 0
            outputs.append([Path(f"{out}.{suffix}").read_text()
                            for suffix in ("slots.csv", "summary.txt")])
        slots = outputs[0][0]
        assert "-0.0" not in slots.replace("\n", ",").split(",")
        assert outputs[0] == outputs[1]

    def test_partial_trace_flags_rejected(self, tmp_path, capsys):
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x"),
                     "--wind", str(tmp_path / "w.csv")])
        assert code == 1
        assert "together" in capsys.readouterr().err

    def test_violations_exit_two(self, tmp_path, capsys, monkeypatch):
        summary = make_summary(
            alpha_total=(0.0,),
            violations={"battery_band": 3, "queue_bound": 0,
                        "outage_window": 0, "balance": 0,
                        "exclusivity": 0, "threshold": 0})
        real_run = mgsched.cli.run
        monkeypatch.setattr("mgsched.cli.run", lambda config, traces, **kw: (
            real_run(config, traces, **kw)[0], summary))
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "battery_band" in capsys.readouterr().err

    def test_violations_exit_two_and_name_the_first(self, tmp_path, capsys,
                                                    monkeypatch):
        overweight_the_scheduler(monkeypatch)
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bound violations: {" in err
        assert "\nfirst violation: slot " in err

    def test_curtail_flag_lets_an_unservable_surplus_run(self, tmp_path,
                                                          capsys):
        # With a 1 kWh sale cap, slot 4's surplus exceeds every sink.
        config = tmp_path / "small_sale_cap.yaml"
        config.write_text(Path(FIVE_DAY).read_text().replace(
            "s_max_kwh: 25.0", "s_max_kwh: 1.0"))
        out = tmp_path / "x"
        args = ["run", "--config", str(config), "--out", str(out)]
        assert main(args) == 1
        assert "error: slot 4: surplus " in capsys.readouterr().err
        # Curtailment serves the slot; the saturated sale cap then breaks
        # the threshold audit's precondition, which exits 2, not 1.
        assert main([*args, "--curtail"]) not in (0, 1)
        summary = dict(line.split(": ", 1) for line in
                       Path(f"{out}.summary.txt").read_text().splitlines())
        assert float(summary["curtailed_total"]) > 0.0
        assert Path(f"{out}.slots.csv").exists()

    @pytest.mark.parametrize("args, where", [
        (["sweep-v", "--fractions", "1.0"], "at fraction 1.0"),
        (["compare"], "in proposed")])
    def test_sweep_and_compare_name_the_first_violation(
            self, tmp_path, capsys, monkeypatch, args, where):
        overweight_the_scheduler(monkeypatch)
        code = main([*args, "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bound violations {where}: {{" in err
        assert "\nfirst violation: slot " in err


class TestSweepCommand:
    def test_single_fraction_sweep(self, tmp_path):
        out = str(tmp_path / "s")
        assert main(["sweep-v", "--config", FIVE_DAY,
                     "--fractions", "1.0", "--out", out]) == 0
        lines = (tmp_path / "s.sweep.csv").read_text().splitlines()
        assert lines[0] == "fraction,total_cost,mean_outage_ratio"
        assert len(lines) == 2
        assert lines[1].startswith("1.0,")

    @pytest.mark.parametrize("config", [FIVE_DAY, SEVEN_DAY])
    def test_shipped_outputs_are_pinned(self, tmp_path, config):
        out = str(tmp_path / "s")
        assert main(["sweep-v", "--config", config,
                     "--fractions", "1,0.5,0.25,0.125", "--out", out]) == 0
        digests = {
            suffix: hashlib.sha256(
                (tmp_path / f"s.{suffix}").read_bytes()).hexdigest()
            for suffix in SWEEP_DIGESTS[config]}
        assert digests == SWEEP_DIGESTS[config]

    @pytest.mark.parametrize("fractions", ["abc", "0.0", "1.5", ""])
    def test_bad_fractions_exit_one(self, tmp_path, capsys, fractions):
        code = main(["sweep-v", "--config", FIVE_DAY,
                     "--fractions", fractions,
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_trend_break_exits_two(self, tmp_path, capsys, monkeypatch):
        def fake_run(config, traces, policy=None, keep_records=True):
            # cost rises as the fraction grows: the wrong direction
            return None, make_summary(v=config.v_fraction * 150.0,
                                      total_cost=100.0 * config.v_fraction)

        monkeypatch.setattr("mgsched.cli.run", fake_run)
        code = main(["sweep-v", "--config", FIVE_DAY,
                     "--fractions", "1.0,0.5", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "trend break" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_writes_three_files(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert main(["compare", "--config", SEVEN_DAY, "--out", out]) == 0
        rows = (tmp_path / "c.compare.csv").read_text().splitlines()
        assert rows[0] == "policy,total_cost,mean_outage_ratio"
        assert rows[1].startswith("proposed,")
        assert rows[2].startswith("mecp,")
        proposed_cost = float(rows[1].split(",")[1])
        mecp_cost = float(rows[2].split(",")[1])
        assert proposed_cost <= mecp_cost
        assert (tmp_path / "c.proposed.summary.txt").exists()
        assert (tmp_path / "c.mecp.summary.txt").exists()

    def test_scheduler_dearer_than_benchmark_exits_two(self, tmp_path,
                                                       capsys, monkeypatch):
        def fake_run(config, traces, policy=None, keep_records=True):
            # the scheduler costs more than the benchmark
            return None, make_summary(
                policy=policy, total_cost=2.0 if policy == "proposed" else 1.0)

        monkeypatch.setattr("mgsched.cli.run", fake_run)
        code = main(["compare", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "c")])
        assert code == 2
        assert ("scheduler cost 2.0 exceeds benchmark cost 1.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("config", [FIVE_DAY, SEVEN_DAY])
    def test_shipped_outputs_are_pinned(self, tmp_path, config):
        out = str(tmp_path / "c")
        assert main(["compare", "--config", config, "--out", out]) == 0
        digests = {
            suffix: hashlib.sha256(
                (tmp_path / f"c.{suffix}").read_bytes()).hexdigest()
            for suffix in COMPARE_DIGESTS[config]}
        assert digests == COMPARE_DIGESTS[config]

    @pytest.mark.parametrize("config", [FIVE_DAY, SEVEN_DAY])
    def test_runs_build_no_slot_objects(self, tmp_path, monkeypatch,
                                         config):
        # Both policies run as prepared solvers over the trace's columns:
        # no slot builds an observation, a state or a Dispatch, and mecp
        # never goes through its one-slot wrapper.
        def refuse(*args, **kwargs):
            raise AssertionError("a per-slot object was built")

        for module, name in ((mgsched.sim, "SlotObservation"),
                             (mgsched.sim, "SystemState"),
                             (mgsched.dispatch, "Dispatch"),
                             (mgsched.dispatch, "mecp_dispatch")):
            monkeypatch.setattr(module, name, refuse)
        out = str(tmp_path / "c")
        assert main(["compare", "--config", config, "--out", out]) == 0
        digests = {
            suffix: hashlib.sha256(
                (tmp_path / f"c.{suffix}").read_bytes()).hexdigest()
            for suffix in COMPARE_DIGESTS[config]}
        assert digests == COMPARE_DIGESTS[config]


class TestValidateCommand:
    def test_small_validation_run(self, capsys):
        assert main(["validate", "--config", FIVE_DAY, "--trials", "5",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "suite" in out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_zero_trials_exit_one(self, capsys):
        assert main(["validate", "--config", FIVE_DAY, "--trials", "0"]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_fields_other_than_the_seed_are_not_read(self, tmp_path, capsys):
        odd = tmp_path / "odd.yaml"
        odd.write_text(Path(FIVE_DAY).read_text().replace("delta:", "detla:"))
        assert main(["validate", "--config", str(odd), "--trials", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["7.5", "true", "abc", "-1",
                                      "18446744073709551616"])
    def test_bad_seed_names_the_file(self, tmp_path, capsys, seed):
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(FIVE_DAY).read_text().replace(
            "seed: 7", f"seed: {seed}"))
        assert main(["validate", "--config", str(bad), "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "seed" in err

    def test_unreadable_config_and_bad_override_exit_one(self, tmp_path,
                                                         capsys):
        missing = str(tmp_path / "nowhere.yaml")
        assert main(["validate", "--config", missing, "--trials", "1"]) == 1
        assert missing in capsys.readouterr().err
        assert main(["validate", "--config", FIVE_DAY, "--trials", "1",
                     "--seed", "-4"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_override_wins(self, monkeypatch):
        seeds = []
        passing = [SuiteResult(name="battery-band", trials=1, violations=0)]
        monkeypatch.setattr("mgsched.cli.run_all_suites",
                            lambda trials, seed: seeds.append(seed) or passing)
        assert main(["validate", "--config", FIVE_DAY, "--trials", "1"]) == 0
        assert main(["validate", "--config", FIVE_DAY, "--trials", "1",
                     "--seed", "19"]) == 0
        assert seeds == [7, 19]

    def test_failing_suite_exits_two(self, capsys, monkeypatch):
        results = [
            SuiteResult(name="battery-band", trials=10, violations=0),
            SuiteResult(name="queue-bound", trials=10, violations=4,
                        counterexample="state: e=(99.0,)"),
        ]
        monkeypatch.setattr("mgsched.cli.run_all_suites",
                            lambda trials, seed: results)
        assert main(["validate", "--config", FIVE_DAY, "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "first counterexample (queue-bound)" in captured.err
        assert "e=(99.0,)" in captured.err


class TestGenTracesCommand:
    def test_writes_three_csvs(self, tmp_path, capsys):
        out = str(tmp_path / "t")
        assert main(["gen-traces", "--config", FIVE_DAY, "--out", out]) == 0
        for suffix in ("wind", "prices", "demand"):
            path = tmp_path / f"t.{suffix}.csv"
            assert path.exists()
            assert len(path.read_text().splitlines()) > 480

    @pytest.mark.parametrize("config", [FIVE_DAY, SEVEN_DAY])
    def test_shipped_traces_are_pinned(self, tmp_path, config):
        out = str(tmp_path / "t")
        assert main(["gen-traces", "--config", config, "--out", out]) == 0
        digests = {
            suffix: hashlib.sha256(
                (tmp_path / f"t.{suffix}.csv").read_bytes()).hexdigest()
            for suffix in ("wind", "prices", "demand")}
        assert digests == TRACE_DIGESTS[config]

    def test_seed_override(self, tmp_path):
        assert main(["gen-traces", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "a"), "--seed", "19"]) == 0
        assert main(["gen-traces", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "b"), "--seed", "19"]) == 0
        assert main(["gen-traces", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "c"), "--seed", "20"]) == 0
        a = (tmp_path / "a.wind.csv").read_bytes()
        assert a == (tmp_path / "b.wind.csv").read_bytes()
        assert a != (tmp_path / "c.wind.csv").read_bytes()


class TestErrorPaths:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("batteries: 3\n")
        code = main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(FIVE_DAY).read_text().replace("delta:", "detla:"))
        code = main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"{bad}: unknown key 'detla'" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("slot_hours: 0.25", "slot_hours: abc"),
        ("r_max_kwh: 2.0", "r_max_kwh: -2.0"),
        ("horizon: 480", "horizon: 4x"),
        ("horizon: 480", "horizon: 480.7"),
    ])
    def test_bad_config_values_name_the_file(self, tmp_path, capsys, old,
                                              new):
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(FIVE_DAY).read_text().replace(old, new))
        code = main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("old,new", [
        ("q_max_kwh: 25.0", "q_max_kwh: .nan"),
        ("seed: 7", "seed: 7\nconvergence_tol: .nan"),
        ("r_max_kwh: 2.0", "r_max_kwh: .nan"),
        ("quality_max_kw: 10.0", "quality_max_kw: .inf"),
    ])
    def test_non_finite_config_values_exit_one(self, tmp_path, capsys, old,
                                               new):
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(FIVE_DAY).read_text().replace(old, new))
        code = main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "must be finite" in err
        assert not (tmp_path / "x.slots.csv").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_unconstructible_value_names_the_file(self, tmp_path, capsys,
                                                  command):
        # PyYAML resolves 2001-13-45 as a timestamp it cannot build.
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(FIVE_DAY).read_text().replace(
            "seed: 7\n", "seed: 2001-13-45\n"))
        flags = (["--out", str(tmp_path / "x")] if command == "run"
                 else ["--trials", "1"])
        code = main([command, "--config", str(bad), *flags])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: month must be in 1..12\n")

    def test_bad_regime_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(SEVEN_DAY).read_text().replace(
            "burst_prob: 0.08", "burst_prob: 1.5"))
        code = main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: burst_prob must lie in [0, 1], got 1.5")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["run", "--out", "x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_one_parser_serves_calls_in_turn(self, tmp_path, capsys):
        # The parser is built once per process; no call leaves a flag
        # behind for the next.
        def digests(prefix, suffixes):
            return {suffix: hashlib.sha256(Path(f"{prefix}.{suffix}")
                                           .read_bytes()).hexdigest()
                    for suffix in suffixes}

        seeded = str(tmp_path / "seeded")
        assert main(["run", "--config", FIVE_DAY, "--seed", "5", "--out",
                     seeded]) == 0
        assert (digests(seeded, ["summary.txt"])["summary.txt"]
                != SHIPPED_DIGESTS[FIVE_DAY]["summary.txt"])
        compared = str(tmp_path / "compared")
        assert main(["compare", "--config", FIVE_DAY, "--out",
                     compared]) == 0
        assert (digests(compared, COMPARE_DIGESTS[FIVE_DAY])
                == COMPARE_DIGESTS[FIVE_DAY])
        capsys.readouterr()
        assert main(["run", "--config", FIVE_DAY, "--out", seeded,
                     "--frobnicate"]) == 1
        assert ("unrecognized arguments: --frobnicate"
                in capsys.readouterr().err)
        assert mgsched.cli._build_parser() is mgsched.cli._build_parser()

    def test_negative_trace_slot_exits_one(self, tmp_path, capsys):
        prefix = str(tmp_path / "traces")
        assert main(["gen-traces", "--config", FIVE_DAY, "--out", prefix]) == 0
        with open(f"{prefix}.demand.csv", "a") as fh:
            fh.write("-1,0,99.0,99.0\n")
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x"),
                     "--wind", f"{prefix}.wind.csv",
                     "--prices", f"{prefix}.prices.csv",
                     "--demand", f"{prefix}.demand.csv"])
        assert code == 1
        assert "slot -1 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("field,message", [
        ("9" * 200_000, "field larger than field limit (131072)"),
        ("gusty", "field generation_kwh is not a number: 'gusty'")],
        ids=["oversized", "non-numeric"])
    def test_malformed_trace_field_exits_one_without_a_traceback(
            self, tmp_path, field, message):
        prefix = str(tmp_path / "t")
        assert main(["gen-traces", "--config", FIVE_DAY, "--out", prefix]) == 0
        wind = tmp_path / "t.wind.csv"
        lines = wind.read_text().splitlines()
        lines[4] = f"3,{field}"
        wind.write_text("\n".join(lines) + "\n")
        proc = run_module("run", "--config", FIVE_DAY,
                          "--out", str(tmp_path / "x"), "--wind", str(wind),
                          "--prices", f"{prefix}.prices.csv",
                          "--demand", f"{prefix}.demand.csv")
        assert proc.returncode == 1
        assert proc.stderr == f"error: {wind}:5: {message}\n"

    def test_bad_seed_override(self, tmp_path, capsys):
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x"), "--seed", "-4"])
        assert code == 1
        assert "seed" in capsys.readouterr().err


def run_module(*args, options=(), env=None):
    """python [options] -m mgsched args, run from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(env or {}))
    return subprocess.run([sys.executable, *options, "-m", "mgsched", *args],
                          capture_output=True, text=True, cwd=ROOT, env=env)


class TestEncoding:
    """Configs and traces are read, and outputs written, as UTF-8 whatever
    the locale."""

    def test_non_ascii_config_comment_under_an_ascii_locale(self, tmp_path):
        text = Path(FIVE_DAY).read_text(encoding="utf-8")
        assert text.startswith("#")
        end = text.index("\n")
        config = tmp_path / "five_day.yaml"
        config.write_text(text[:end] + " (\u03b1 = quality)" + text[end:],
                          encoding="utf-8")
        proc = run_module("run", "--config", str(config),
                          "--out", str(tmp_path / "run"), env=ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        digests = {
            suffix: hashlib.sha256(
                (tmp_path / f"run.{suffix}").read_bytes()).hexdigest()
            for suffix in ("slots.csv", "summary.txt")}
        assert digests == SHIPPED_DIGESTS[FIVE_DAY]

    def test_undecodable_trace_names_file_and_line(self, tmp_path):
        prefix = str(tmp_path / "t")
        assert main(["gen-traces", "--config", FIVE_DAY, "--out", prefix]) == 0
        wind = tmp_path / "t.wind.csv"
        lines = wind.read_bytes().splitlines(keepends=True)
        lines[1] = b"0,1.5\xe9\n"
        wind.write_bytes(b"".join(lines))
        proc = run_module("run", "--config", FIVE_DAY,
                          "--out", str(tmp_path / "x"), "--wind", str(wind),
                          "--prices", f"{prefix}.prices.csv",
                          "--demand", f"{prefix}.demand.csv",
                          env=ASCII_LOCALE)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {wind}:2: byte 0xe9 is not UTF-8: "
                               "invalid continuation byte\n")

    def test_inputs_may_start_with_a_byte_order_mark(self, tmp_path):
        # Spreadsheet tools often write one; it is dropped before parsing,
        # so the replay matches the synthetic run byte for byte.
        prefix = str(tmp_path / "t")
        assert main(["gen-traces", "--config", FIVE_DAY, "--out", prefix]) == 0
        config = tmp_path / "five_day.yaml"
        config.write_bytes((ROOT / FIVE_DAY).read_bytes())
        for path in [config] + [tmp_path / f"t.{name}.csv"
                                for name in ("wind", "prices", "demand")]:
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "run"),
                     "--wind", f"{prefix}.wind.csv",
                     "--prices", f"{prefix}.prices.csv",
                     "--demand", f"{prefix}.demand.csv"]) == 0
        digests = {
            suffix: hashlib.sha256(
                (tmp_path / f"run.{suffix}").read_bytes()).hexdigest()
            for suffix in ("slots.csv", "summary.txt")}
        assert digests == SHIPPED_DIGESTS[FIVE_DAY]

    def test_no_file_takes_the_platform_line_ending(self, tmp_path,
                                                    monkeypatch):
        # Text mode writes os.linesep unless newline="" is passed; with
        # "\r\n" forced as that default, every output keeps its "\n".
        opened = []

        def crlf_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                kwargs.setdefault("newline", "\r\n")
                opened.append(file)
            return open(file, mode, *args, **kwargs)

        for module in (mgsched.sim, mgsched.cli):
            monkeypatch.setattr(module, "open", crlf_open, raising=False)
        out = str(tmp_path / "out")
        for args in (["run"], ["compare"], ["sweep-v", "--fractions", "0.5"],
                     ["gen-traces"]):
            assert main([*args, "--config", FIVE_DAY, "--out", out]) == 0
        written = sorted(tmp_path.iterdir())
        assert sorted(map(Path, opened)) == written
        assert [path.name for path in written] == [
            "out.compare.csv", "out.demand.csv", "out.mecp.summary.txt",
            "out.prices.csv", "out.proposed.summary.txt", "out.slots.csv",
            "out.summary.txt", "out.sweep.csv", "out.wind.csv"]
        assert [path.name for path in written
                if b"\r" in path.read_bytes()] == []

    @pytest.mark.parametrize("args", [
        ["run", "--wind", "{t}.wind.csv", "--prices", "{t}.prices.csv",
         "--demand", "{t}.demand.csv", "--out", "{out}"],
        ["sweep-v", "--fractions", "0.5", "--out", "{out}"],
        ["compare", "--out", "{out}"],
        ["validate", "--trials", "1"],
        ["gen-traces", "--out", "{out}"]])
    def test_no_file_is_opened_in_the_locale_encoding(self, tmp_path, args):
        prefix = str(tmp_path / "t")
        assert main(["gen-traces", "--config", FIVE_DAY, "--out", prefix]) == 0
        args = [arg.format(t=prefix, out=tmp_path / "out") for arg in args]
        proc = run_module(*args, "--config", FIVE_DAY,
                          options=("-X", "warn_default_encoding",
                                   "-W", "error::EncodingWarning"))
        assert proc.returncode == 0, proc.stderr


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "mgsched"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "subcommand" in proc.stderr


class TestScripts:
    def test_float_totals_check_passes(self):
        # -S leaves site-packages, and with them numpy, unimportable, as on
        # the interpreters CI runs this check with: model.py must load on
        # the standard library alone.
        proc = subprocess.run(
            [sys.executable, "-S",
             str(ROOT / "scripts" / "check_float_totals.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "src/ and scripts/ call no built-in sum()" in proc.stdout

    def test_float_totals_check_flags_builtin_sum_calls(self, tmp_path):
        path = ROOT / "scripts" / "check_float_totals.py"
        spec = importlib.util.spec_from_file_location("check_totals", path)
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "m.py").write_text(
            "n = len(xs)\ntotal = sum(xs) / n\nsum = None\n")
        (tmp_path / "scripts").mkdir()
        (tmp_path / "scripts" / "check_float_totals.py").write_text(
            "sum(values)\nsum(other)\n")
        assert check.builtin_sum_calls(tmp_path) == [
            "scripts/check_float_totals.py:2: sum(other)",
            "src/pkg/m.py:2: sum(xs)"]

    def test_policy_comparison_runs(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "policy_comparison.py"),
             "--seeds", "11", "--trials", "2"],
            capture_output=True, text=True, cwd=root, env=env)
        assert proc.returncode == 0, proc.stderr
        for suite in ("battery-band", "queue-bound", "outage-window",
                      "threshold-structure", "solver-oracle"):
            assert f"{suite} " in proc.stdout
