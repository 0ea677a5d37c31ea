"""One workload in a fresh interpreter; started by run.py, not by hand.

Modes:
  setup   prepare the workload's inputs, report the set-up time, exit;
  timed   set up, then run ops in a closed loop for --seconds with
          tracing off and report the end-to-end figures;
  traced  set up, run a fixed number of ops untraced and then the same
          ops traced, and report per-layer figures from the spans.

The result is one JSON object on the last line of standard output.

Host time is reported in reference seconds. The host this benchmark runs
on is shared: over a few seconds the same op can take a quarter more or
less CPU time as neighbours load the physical core. ``reference_loop``, a
fixed piece of pure-Python work that does not touch mgsched, is timed
between every two ops; each op's CPU time is scaled by REFERENCE_S over
the mean of the loop times on either side of it, which is what the op
would have taken on a host where the loop takes REFERENCE_S. The raw CPU
and wall figures are reported next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# reference_loop's rounds and its nominal time: about what it took on the
# 2-vCPU Intel Xeon VM the benchmark was written on. Changing either
# changes every host-time figure, so both stay fixed.
REFERENCE_ROUNDS = 2000
REFERENCE_S = 0.020


def reference_loop() -> float:
    """Fixed interpreter work of the kind mgsched's slot loop does: small
    tuples, a keyed sort, dict stores, float arithmetic and branches."""
    rng = random.Random(12345)
    acc = 0.0
    for _ in range(REFERENCE_ROUNDS):
        items = [(rng.random(), rng.random(), i) for i in range(12)]
        items.sort(key=lambda t: t[0])
        book = {}
        for a, b, i in items:
            book[i] = a * b + acc * 1e-9
            if a > b:
                acc += a - b
            else:
                acc += min(a, b) * 0.5
    return acc


def reference_time() -> float:
    """CPU seconds one reference_loop takes on this host right now."""
    t0 = time.process_time()
    reference_loop()
    return time.process_time() - t0


# (layer, function, module that defines it). Every span name is
# "<layer>.<function>".
TRACED = (
    ("cli", "main", "mgsched.cli"),
    ("sim", "run", "mgsched.sim"),
    ("sim", "hindsight_lower_bound", "mgsched.sim"),
    ("sim", "generate_traces", "mgsched.sim"),
    ("sim", "load_traces", "mgsched.sim"),
    ("sim", "load_config", "mgsched.sim"),
    ("sim", "write_slot_records", "mgsched.sim"),
    ("dispatch", "dispatch_slot", "mgsched.dispatch"),
    ("dispatch", "build_subproblem", "mgsched.dispatch"),
    ("dispatch", "merit_order_allocate", "mgsched.dispatch"),
    ("dispatch", "threshold_violations", "mgsched.dispatch"),
    ("dispatch", "mecp_dispatch", "mgsched.dispatch"),
    ("dispatch", "oracle_solve", "mgsched.dispatch"),
    ("model", "check_dispatch", "mgsched.model"),
    ("model", "validate_observation", "mgsched.model"),
    ("queues", "bound_constants", "mgsched.queues"),
    ("validate", "run_bound_trials", "mgsched.validate"),
    ("validate", "threshold_trials", "mgsched.validate"),
    ("validate", "solver_oracle_trials", "mgsched.validate"),
)
# Sub-microsecond helpers: counted, not timed.
COUNTED = (("queues", "update_qose_queue", "mgsched.queues"),)


def _file_size(path) -> int:
    return os.path.getsize(path)


def _observe_allocate(extra, args, kwargs, result):
    offers = kwargs["offers"] if "offers" in kwargs else args[0]
    bids = kwargs["bids"] if "bids" in kwargs else args[1]
    extra["dispatch.merit_order_allocate.book_entries"] += len(offers) + len(bids)
    extra["dispatch.merit_order_allocate.feasible"] += bool(result.feasible)


def _observe_hindsight(extra, args, kwargs, result):
    traces = kwargs["traces"] if "traces" in kwargs else args[0]
    config = kwargs["config"] if "config" in kwargs else args[1]
    iterations = kwargs["iterations"] if "iterations" in kwargs else args[2]
    extra["sim.hindsight_lower_bound.iter_slots"] += (
        iterations * min(config.horizon, len(traces)))


def _observe_load_traces(extra, args, kwargs, result):
    extra["sim.load_traces.bytes_read"] += sum(_file_size(p) for p in args[:3])


def _observe_load_config(extra, args, kwargs, result):
    extra["sim.load_config.bytes_read"] += _file_size(
        kwargs["path"] if "path" in kwargs else args[0])


def _observe_write_records(extra, args, kwargs, result):
    extra["sim.write_slot_records.bytes_written"] += _file_size(
        kwargs["path"] if "path" in kwargs else args[1])


OBSERVERS = {
    "dispatch.merit_order_allocate": _observe_allocate,
    "sim.hindsight_lower_bound": _observe_hindsight,
    "sim.load_traces": _observe_load_traces,
    "sim.load_config": _observe_load_config,
    "sim.write_slot_records": _observe_write_records,
}


def _import_mgsched():
    sys.path.insert(0, str(ROOT / "src"))
    import mgsched
    src = (ROOT / "src").resolve()
    if src not in Path(mgsched.__file__).resolve().parents:
        raise ImportError(f"mgsched imported from {mgsched.__file__}, "
                          f"not from {src}")
    # Load every module the tracer patches before set-up starts.
    import mgsched.cli, mgsched.dispatch, mgsched.model  # noqa: E401,F401
    import mgsched.queues, mgsched.sim, mgsched.validate  # noqa: E401,F401


def run_ops(workload, count: int | None, seconds: float):
    """Run ops 0, 1, ... in a closed loop.

    With count None the loop runs until ``seconds`` of wall time have
    passed and at least ``workload.min_ops`` ops are done; otherwise
    exactly ``count`` ops. An op's ``cpu`` is the process CPU time its
    call took (without time spent waiting for a core, or stolen by the
    hypervisor), ``wall`` its wall time and ``latency`` its CPU time in
    reference seconds. Returns (wall seconds, reference seconds summed
    over the ops, per-op records).
    """
    records = []
    start = time.perf_counter()
    ref_before = reference_time()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif (i >= workload.min_ops
              and time.perf_counter() - start >= seconds):
            break
        op = workload.op(i)
        i += 1
        w0 = time.perf_counter()
        t0 = time.process_time()
        try:
            result = op.call()
        except Exception:
            latency = time.process_time() - t0
            problems = ["raised: " + traceback.format_exc(limit=3)]
            units = 0
        else:
            latency = time.process_time() - t0
            problems = op.check(result)
            units = op.units
        wall = time.perf_counter() - w0
        ref_after = reference_time()
        scale = 2 * REFERENCE_S / (ref_before + ref_after)
        ref_before = ref_after
        if problems and not any(r["problems"] for r in records):
            print(f"op {i - 1} ({op.kind}) failed: {problems}",
                  file=sys.stderr)
        records.append({"kind": op.kind, "latency": latency * scale,
                        "cpu": latency, "wall": wall, "units": units,
                        "problems": problems, "reference": ref_after})
    return (time.perf_counter() - start,
            sum(r["latency"] for r in records), records)


def tail_percentile(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that still has at
    least ten samples above it; the maximum if there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0) if n > 10 else n - 1
    return 100.0 * (k + 1) / n, ordered[k]


def _median_by_kind(records, key: str = "latency") -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r[key])
    return {k: statistics.median(v) for k, v in by_kind.items()}


def timed(workload, seconds: float) -> dict:
    from workloads import shipped_outcome

    wall, busy, records = run_ops(workload, None, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [r["latency"] for r in records]
    failed = sum(1 for r in records if r["problems"])
    pct, tail = tail_percentile(latencies)
    cost_per_slot, outage_ratio = shipped_outcome(ROOT)
    return {
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            "wall_s": wall,
            "slots_per_s": sum(r["units"] for r in records) / busy,
            "op_p50_s": statistics.median(latencies),
            "op_pNN_s": tail,
            "success_ratio": (len(records) - failed) / len(records),
            "peak_rss_mb": peak_rss_mb,
            "cost_per_slot": cost_per_slot,
            "outage_ratio": outage_ratio,
        },
        "info": {"op_pNN_percentile": pct, "ops": len(records),
                 "op_p50_s_by_kind": _median_by_kind(records),
                 "op_cpu_p50_s": statistics.median(r["cpu"]
                                                   for r in records),
                 "op_wall_p50_s": statistics.median(r["wall"]
                                                    for r in records),
                 "reference_p50_s": statistics.median(r["reference"]
                                                      for r in records),
                 **workload.info()},
    }


def traced(workload, spans_path: Path) -> dict:
    from spans import Tracer

    n = workload.trace_ops
    untraced_wall, untraced_ref, first = run_ops(workload, n, 0.0)
    tracer = Tracer()
    for layer, fn, module in TRACED:
        name = f"{layer}.{fn}"
        tracer.install(name, module, fn, observe=OBSERVERS.get(name))
    for layer, fn, module in COUNTED:
        tracer.install(f"{layer}.{fn}", module, fn, count_only=True)
    try:
        traced_wall, traced_ref, second = run_ops(workload, n, 0.0)
    finally:
        tracer.uninstall()
    records = first + second
    rows = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    def per_call(name, total):
        calls = row(name)["calls"]
        return total / calls if calls else 0.0

    metrics: dict[str, float] = {}
    for layer, fn, _ in TRACED:
        name = f"{layer}.{fn}"
        metrics[f"{name}.calls"] = row(name)["calls"]
        metrics[f"{name}.self_s"] = row(name)["self_s"]
    for layer, fn, _ in COUNTED:
        metrics[f"{layer}.{fn}.calls"] = row(f"{layer}.{fn}")["calls"]
    extra = tracer.extra
    alloc = "dispatch.merit_order_allocate"
    metrics[f"{alloc}.us_per_call"] = per_call(alloc,
                                               1e6 * row(alloc)["total_s"])
    metrics[f"{alloc}.book_entries"] = per_call(
        alloc, extra[f"{alloc}.book_entries"])
    metrics[f"{alloc}.feasible_ratio"] = per_call(
        alloc, extra[f"{alloc}.feasible"])
    ds = "dispatch.dispatch_slot"
    metrics[f"{ds}.us_per_call"] = per_call(ds, 1e6 * row(ds)["total_s"])
    hb = "sim.hindsight_lower_bound"
    iter_slots = extra[f"{hb}.iter_slots"]
    metrics[f"{hb}.us_per_iter_slot"] = (
        1e6 * row(hb)["total_s"] / iter_slots if iter_slots else 0.0)
    for key in ("sim.load_traces.bytes_read", "sim.load_config.bytes_read",
                "sim.write_slot_records.bytes_written"):
        metrics[key] = extra[key]
    metrics["trace.overhead_ratio"] = traced_ref / untraced_ref

    tracer.write(str(spans_path), {"workload": workload.name,
                                   "ops": n, "traced_wall_s": traced_wall})
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "metrics": metrics,
        "info": {"ops": n, "untraced_wall_s": untraced_wall,
                 "traced_wall_s": traced_wall, "spans": len(tracer.spans),
                 "spans_file": str(spans_path.relative_to(ROOT))},
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "timed", "traced"),
                   required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="where the traced mode writes its spans")
    args = p.parse_args()

    # mgsched's CLI prints progress lines; keep stdout for the result.
    out = sys.stdout
    sys.stdout = open(os.devnull, "w")
    try:
        _import_mgsched()
        from workloads import WORKLOADS

        expected = json.loads((HERE / "expected.json").read_text())
        workload = WORKLOADS[args.workload](
            ROOT, args.seed, Path(args.workdir), expected)
        workload.setup()
        # CPU time since the process started (interpreter start, imports
        # and the workload's set-up), in reference seconds.
        setup_cpu = time.process_time()
        reference = statistics.median(reference_time() for _ in range(3))
        result = {"setup_s": setup_cpu * REFERENCE_S / reference,
                  "setup_cpu_s": setup_cpu}
        if args.mode == "timed":
            result.update(timed(workload, args.seconds))
        elif args.mode == "traced":
            result.update(traced(workload, Path(args.spans)))
    finally:
        sys.stdout.close()
        sys.stdout = out
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
