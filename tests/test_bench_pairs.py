"""scripts/bench_pairs.py on canned benchmark output: no run, no timing."""

import importlib.util
import json
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
