"""mgsched benchmark: one workload per invocation, metrics as one JSON line.

    python3 perfbench/run.py --workload cli-week --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and perfbench/predictions.json for why each
is here and what each per-layer figure should move):
  cli-week        in-process ``mgsched.cli.main`` run/replay/compare calls
                  over both shipped configs;
  hindsight       ``mgsched.sim.hindsight_lower_bound`` on five_day traces;
  validate-large  ``mgsched.validate`` suites at up to 5 batteries x 20
                  residents.

Every workload runs in a fresh interpreter (perfbench/worker.py) with the
BLAS/OpenMP thread counts set to 1, as a closed loop: the next op starts
when the previous one returns. With ``--trace 0`` the benchmark sets the
workload up several times in separate interpreters, reports the median
set-up time, and then measures ops for ``--seconds`` with tracing off.
Host time (setup_s, slots_per_s, op_p50_s, op_pNN_s) is CPU time in
reference seconds: scaled by a fixed pure-Python loop timed between ops,
so that the shared host's drifting speed cancels (see worker.py).
With ``--trace 1`` it runs the workload's fixed op count untraced, then
the same ops with spans recorded around mgsched's functions, and reports
per-layer figures; the spans are written under ``.perfbench_work/``.

Lines before the last one describe the environment and the run; the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 whenever a result is printed, also when a correctness
check failed (``correct`` is then false); it is non-zero, with no result,
when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-week", "hindsight", "validate-large")
SETUP_SAMPLES = 7
# Every child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, args, workdir: Path, deadline: float,
              spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "src_lines": src_lines}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    started = time.monotonic()
    deadline = started + 175.0

    if not (ROOT / "src" / "mgsched" / "__init__.py").is_file():
        print(f"error: no mgsched sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            spans = work / f"spans-{args.workload}.jsonl"
            result = run_child("traced", args, workdir, deadline, spans)
        else:
            setups = [run_child("setup", args, workdir, deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            result = run_child("timed", args, workdir, deadline)
            setups.append(result)
            result["metrics"]["setup_s"] = statistics.median(
                s["setup_s"] for s in setups)
            result["info"]["setup_s_samples"] = [s["setup_s"] for s in setups]
            result["info"]["setup_cpu_s_samples"] = [s["setup_cpu_s"]
                                                     for s in setups]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2
    env = environment()
    print("# env " + json.dumps(env))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result["info"],
                                 "benchmark_s": time.monotonic() - started}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
