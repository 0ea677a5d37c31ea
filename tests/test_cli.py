import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgsched.sim
from mgsched import Summary, SuiteResult
from mgsched.cli import main

FIVE_DAY = "configs/five_day.yaml"
SEVEN_DAY = "configs/seven_day.yaml"

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

    def test_partial_trace_flags_rejected(self, tmp_path, capsys):
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x"),
                     "--wind", str(tmp_path / "w.csv")])
        assert code == 1
        assert "together" in capsys.readouterr().err

    def test_violations_exit_two(self, tmp_path, capsys, monkeypatch):
        summary = Summary(
            policy="proposed", slots=1, v=150.0, v_max=150.0,
            total_cost=0.0, mean_cost_per_slot=0.0, alpha_total=(0.0,),
            outage_total=(0.0,), outage_ratio=(0.0,),
            convergence_slot=(0,), stability_pass=(True,),
            violations={"battery_band": 3, "queue_bound": 0,
                        "outage_window": 0, "balance": 0,
                        "exclusivity": 0, "threshold": 0},
            curtailed_total=0.0)
        monkeypatch.setattr("mgsched.cli.run",
                            lambda config, traces, **kw: ([], summary))
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "battery_band" in capsys.readouterr().err

    def test_violations_exit_two_and_name_the_first(self, tmp_path, capsys,
                                                    monkeypatch):
        real = mgsched.sim.slot_solver

        def overweighted(system, v, **kwargs):
            return real(system, 4.0 * v, headroom_clamp=False, **kwargs)

        monkeypatch.setattr(mgsched.sim, "slot_solver", overweighted)
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bound violations: {" in err
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
            summary = Summary(
                policy="proposed", slots=1, v=config.v_fraction * 150.0,
                v_max=150.0, total_cost=100.0 * config.v_fraction,
                mean_cost_per_slot=0.0, alpha_total=(1.0,),
                outage_total=(0.0,), outage_ratio=(0.0,),
                convergence_slot=(0,), stability_pass=(True,),
                violations={"battery_band": 0, "queue_bound": 0,
                            "outage_window": 0, "balance": 0,
                            "exclusivity": 0, "threshold": 0},
                curtailed_total=0.0)
            return [], summary

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

    @pytest.mark.parametrize("config", [FIVE_DAY, SEVEN_DAY])
    def test_shipped_outputs_are_pinned(self, tmp_path, config):
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

    def test_bad_seed_override(self, tmp_path, capsys):
        code = main(["run", "--config", FIVE_DAY,
                     "--out", str(tmp_path / "x"), "--seed", "-4"])
        assert code == 1
        assert "seed" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "mgsched"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "subcommand" in proc.stderr


class TestScripts:
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
