"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run the benchmark end to end with short runs (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402
from worker import (REFERENCE_S, reference_loop, run_ops,  # noqa: E402
                    tail_percentile)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    costs = set()
    for name in WORKLOADS:
        res = result(bench("--workload", name, "--seed", "3", "--seconds",
                           "1", "--trace", str(trace)))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] >= 1
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == expected
        if not trace:
            assert all(v["value"] > 0 for v in res["metrics"].values())
            costs.add(res["metrics"]["cost_per_slot"]["value"])
    # The simulated outcome does not depend on the workload.
    assert len(costs) <= 1


def test_traced_call_counts_repeat():
    runs = [result(bench("--workload", "validate-large", "--seed", "5",
                         "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith(".calls")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["dispatch.dispatch_slot.calls"] > 0


def copy_checkout(dest: Path, *dirs: str) -> None:
    """BENCHMARK.json, the benchmark and ``dirs`` of the repo, in ``dest``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for name in ("perfbench", *dirs):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_digest_counts_as_failed_ops(tmp_path):
    copy_checkout(tmp_path, "src", "configs")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    digest = expected["seven_day"]["summary.txt"]
    expected["seven_day"]["summary.txt"] = digest[::-1]
    path.write_text(json.dumps(expected))
    res = result(bench("--workload", "cli-week", "--seed", "3", "--seconds",
                       "1", "--trace", "0", cwd=tmp_path))
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["success_ratio"]["value"] < 1.0


def test_seed_changes_generated_inputs(tmp_path):
    def cli_inputs(seed: int, sub: str) -> bytes:
        workdir = tmp_path / sub
        workdir.mkdir()
        w = workloads.CliWeek(ROOT, seed, workdir, {})
        w.setup()
        return b"".join(p.read_bytes() for p in sorted(workdir.iterdir()))

    assert cli_inputs(1, "a") == cli_inputs(1, "b")
    assert cli_inputs(1, "a2") != cli_inputs(2, "c")

    def hindsight_inputs(seed: int):
        w = workloads.Hindsight(ROOT, seed, tmp_path, {})
        w.setup()
        return [traces for _, traces, _ in w.cases]

    assert hindsight_inputs(1) != hindsight_inputs(2)
    assert (workloads.derive_seed(1, "bound-0")
            != workloads.derive_seed(2, "bound-0"))


def test_fails_without_the_program(tmp_path):
    copy_checkout(tmp_path)
    proc = bench("--workload", "cli-week", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_above():
    pct, value = tail_percentile([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert tail_percentile([1.0, 2.0]) == (100.0, 2.0)


def test_an_op_of_reference_work_takes_reference_seconds():
    class Reference:
        min_ops = 1

        def op(self, i):
            return workloads.Op("reference", 1, reference_loop,
                                lambda result: [])

    _, total, records = run_ops(Reference(), 9, 0.0)
    latency = sorted(r["latency"] for r in records)[4]
    assert 0.8 * REFERENCE_S < latency < 1.25 * REFERENCE_S
    assert total == sum(r["latency"] for r in records)
