import hashlib
import subprocess
import sys

import pytest

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

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["run", "--out", "x"]) == 1
        assert "error:" in capsys.readouterr().err

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
