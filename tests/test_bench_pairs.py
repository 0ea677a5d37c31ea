"""scripts/bench_pairs.py on canned benchmark output: no run, no timing."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_script():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = load_script()
ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "src_lines": 3485}


def output(correct=True, **values):
    """A perfbench/run.py --trace 0 output whose end-to-end metrics are 1.0
    but for values."""
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                           "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return "\n".join([
        "# env " + json.dumps(ENV),
        "# run " + json.dumps({"workload": "validate-large", "seed": 801}),
        json.dumps({"correct": correct, "attempted": 10,
                    "failed": 0 if correct else 1, "metrics": metrics})])


def pair(seed, parent, change):
    run = {"seed": seed, "first": "parent"}
    for side, text in (("parent", parent), ("change", change)):
        run[side] = pairs.parse_run(text)
        run[side].pop("env")
    return run


class TestParseRun:
    def test_reads_the_env_line_and_the_last_line(self):
        parsed = pairs.parse_run(output(slots_per_s=28501.5))
        assert parsed["env"] == ENV
        assert parsed["correct"] is True
        assert parsed["metrics"]["slots_per_s"] == 28501.5
        assert set(parsed["metrics"]) == {m["name"]
                                          for m in SPEC["end_to_end"]}

    def test_output_without_a_result_is_refused(self):
        with pytest.raises(RuntimeError):
            pairs.parse_run("error: no mgsched sources under src\n")


class TestSummarize:
    def runs(self):
        return [pair(801, output(slots_per_s=100.0, op_p50_s=0.020),
                     output(slots_per_s=110.0, op_p50_s=0.018)),
                pair(802, output(slots_per_s=104.0, op_p50_s=0.019),
                     output(slots_per_s=103.0, op_p50_s=0.021)),
                pair(803, output(slots_per_s=96.0, op_p50_s=0.022),
                     output(slots_per_s=108.0, op_p50_s=0.017))]

    def test_quartiles_and_wins_in_each_metrics_direction(self):
        table = pairs.summarize(SPEC["end_to_end"], self.runs())
        speed = table["slots_per_s"]
        assert speed["better"] == "higher" and speed["pairs"] == 3
        assert speed["change_wins"] == 2
        assert speed["parent"] == {"q1": 98.0, "median": 100.0, "q3": 102.0}
        assert speed["change"] == {"q1": 105.5, "median": 108.0,
                                   "q3": 109.0}
        latency = table["op_p50_s"]
        assert latency["better"] == "lower" and latency["change_wins"] == 2
        # Equal values win nothing.
        assert table["cost_per_slot"]["change_wins"] == 0
        assert set(table) == {m["name"] for m in SPEC["end_to_end"]}

    def test_one_pair_has_its_value_as_every_quartile(self):
        table = pairs.summarize(SPEC["end_to_end"], self.runs()[:1])
        assert table["slots_per_s"]["change"] == {"q1": 110.0,
                                                  "median": 110.0,
                                                  "q3": 110.0}
        # One won pair has no spread, but shows no gain under 10 pairs.
        assert table["slots_per_s"]["change_wins"] == 1
        assert table["slots_per_s"]["gain_shown"] is False

    def test_report_records_the_trees_and_the_bytecode_variable(
            self, monkeypatch):
        sources = {"parent": "a" * 40, "change": "b" * 40,
                   "uncommitted": True}
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        doc = pairs.report(sources, 30, SPEC["end_to_end"],
                           {"validate-large": self.runs()},
                           {"parent": ENV, "change": ENV})
        assert doc["PYTHONDONTWRITEBYTECODE"] is True
        assert {name: doc[name] for name in sources} == sources
        assert doc["seconds"] == 30
        assert len(doc["workloads"]["validate-large"]["runs"]) == 3
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
        assert pairs.report(sources, 30, SPEC["end_to_end"], {}, {})[
            "PYTHONDONTWRITEBYTECODE"] is False


class TestVerdicts:
    # The parent's 10 slots_per_s values, 100 to 109: median 104.5, Q1-Q3
    # spread 106.75 - 102.25 = 4.5.
    PARENT = [100.0 + i for i in range(10)]

    def verdicts(self, name, parent, change):
        runs = [pair(801 + i, output(**{name: old}), output(**{name: new}))
                for i, (old, new) in enumerate(zip(parent, change))]
        return pairs.summarize(SPEC["end_to_end"], runs)

    def test_nine_wins_and_a_tie_beyond_the_spread_show_a_gain(self):
        change = [old + 10.0 for old in self.PARENT[:9]] + [109.0]
        table = self.verdicts("slots_per_s", self.PARENT, change)
        speed = table["slots_per_s"]
        assert speed["change_wins"] == 9
        assert speed["change"]["median"] == 113.5
        assert speed["gain_shown"] is True and speed["regressed"] is False
        # Metrics equal on every run neither gain nor regress.
        assert table["cost_per_slot"]["gain_shown"] is False
        assert table["cost_per_slot"]["regressed"] is False

    def test_eight_wins_and_two_ties_show_no_gain(self):
        change = [old + 10.0 for old in self.PARENT[:8]] + [108.0, 109.0]
        speed = self.verdicts("slots_per_s", self.PARENT, change)[
            "slots_per_s"]
        assert speed["change_wins"] == 8
        assert speed["change"]["median"] - 104.5 > 4.5
        assert speed["gain_shown"] is False

    def test_ten_wins_inside_the_spread_show_no_gain(self):
        change = [old + 1.0 for old in self.PARENT]
        speed = self.verdicts("slots_per_s", self.PARENT, change)[
            "slots_per_s"]
        assert speed["change_wins"] == 10
        assert speed["gain_shown"] is False and speed["regressed"] is False

    @pytest.mark.parametrize("name,bound,parent,worse,within", [
        ("slots_per_s", 0.15, 100.0, 84.0, 86.0),   # higher is better
        ("op_p50_s", 0.15, 0.020, 0.0235, 0.0225),  # lower is better
        ("wall_s", 0.05, 10.0, 10.6, 10.4),
    ])
    def test_regressed_past_the_bound_only(self, name, bound, parent, worse,
                                           within):
        assert {m["name"]: m["bound"]
                for m in SPEC["end_to_end"]}[name] == bound
        for change, regressed in ((worse, True), (within, False)):
            entry = self.verdicts(name, [parent] * 10, [change] * 10)[name]
            assert entry["regressed"] is regressed
            assert entry["gain_shown"] is False


class TestProblems:
    def test_clean_pairs_have_none(self):
        assert pairs.problems("validate-large", [
            pair(801, output(slots_per_s=1.0), output(slots_per_s=2.0))]) == []

    def test_a_run_that_is_not_correct(self):
        assert pairs.problems("cli-week", [
            pair(801, output(), output(correct=False))]) == [
            "cli-week seed 801: change run not correct"]

    @pytest.mark.parametrize("name", ["cost_per_slot", "outage_ratio",
                                      "success_ratio"])
    def test_an_exact_metric_that_differs(self, name):
        assert pairs.problems("hindsight", [
            pair(805, output(**{name: 0.5}), output())]) == [
            f"hindsight seed 805: {name} 0.5 (parent) != 1.0 (change)"]


class TestArguments:
    @pytest.mark.parametrize("flags", [
        ["--pairs", "0"], ["--pairs", "-3"], ["--seconds", "0"],
        ["--seconds", "-1"], ["--seconds", "nan"]])
    def test_refused_before_any_tree_is_exported(self, monkeypatch, capsys,
                                                 flags):
        def export(revision, dest):
            raise AssertionError(f"exported {revision}")

        monkeypatch.setattr(pairs, "export", export)
        monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent",
                                          "HEAD", "--out", "unused.json",
                                          *flags])
        with pytest.raises(SystemExit) as exit_:
            pairs.main()
        assert exit_.value.code == 2
        assert f"error: {flags[0]} must be" in capsys.readouterr().err
