"""Run one workload in this fresh process and print its raw measurements.

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --scratch DIR [--spans FILE]

run.py starts it with one-thread BLAS settings and PYTHONPATH pointing at
the checkout's src/, so that peak RSS is this workload's alone.  The last
line of standard output is one JSON object.

The loop is closed: one caller, op k+1 is sent when op k has returned.
Op 0 warms up (imports, first-touch allocations) and is checked but not
timed.  With --trace 1 every input is run twice in a row, untraced then
traced, so the tracing overhead is measured on identical work and every
traced output is also checked against its untraced twin.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracing import LAYERS, OpTrace, Tracer, layer_calls, layer_metrics
from workloads import WORKLOADS, Tally


def run_op(workload, k, tracer, tally):
    """One op: returns (latency_s, ok).  Exceptions count as failures."""
    spec = workload.spec(k)
    in_process_trace = tracer is not None and workload.in_process
    output, op = None, None
    if in_process_trace:
        tracer.install()
        tracer.begin_op(k)
    start = time.perf_counter()
    try:
        output = workload.call(spec, traced=tracer is not None)
        failures = []
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failures = [f"op {k}: {type(exc).__name__}: {exc}"]
    finally:
        latency = time.perf_counter() - start
        if in_process_trace:
            op = tracer.end_op()
            tracer.uninstall()
    if output is not None:
        try:
            if tracer is not None and not workload.in_process:
                op = OpTrace.from_json(output.pop("trace"))
                op.op_id = k
                tracer.add_op(op)
            if op is not None:
                op.counters["cli.report_bytes"] += output.get("report_bytes", 0)
            failures = workload.check(spec, output)
        except Exception as exc:
            failures = [f"op {k}: check raised {type(exc).__name__}: {exc}"]
    tally.record(failures)
    return latency, not failures


def layer_failures(workload, tracer) -> list:
    """Every layer the workload runs must show calls in every traced op, and
    every other layer none, so a missed binding cannot undercount."""
    if not tracer.ops:
        return ["no traced op completed"]
    failures = []
    for op in tracer.ops:
        for layer in LAYERS:
            calls = layer_calls(op, layer)
            if layer in workload.active_layers and calls == 0:
                failures.append(f"op {op.op_id}: no traced call into {layer}")
            if layer not in workload.active_layers and calls != 0:
                failures.append(f"op {op.op_id}: {calls} calls into bypassed {layer}")
    return failures[:10]


def provenance(seed) -> dict:
    import numpy
    import avnlab
    import avnlab.kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": avnlab.kernels.BACKEND,
        "avnlab_version": avnlab.__version__,
        "avnlab_file": avnlab.__file__,
        "nproc": os.cpu_count(),
        "workload_seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    # Load every layer up front so that the tracer finds all of them.
    import avnlab.cli  # noqa: F401

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    tracer = Tracer() if args.trace else None
    tally = Tally()

    run_op(workload, 0, None, tally)
    latencies, traced_latencies, completed = [], [], 0
    k = 1
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        latency, ok = run_op(workload, k, None, tally)
        latencies.append(latency)
        completed += ok
        if tracer is not None:
            latency, _ = run_op(workload, k, tracer, tally)
            traced_latencies.append(latency)
        k += 1
    elapsed = time.perf_counter() - loop_start

    try:
        run_failures = workload.finish()
    except Exception as exc:
        run_failures = [f"final check raised {type(exc).__name__}: {exc}"]
    if tracer is not None:
        run_failures += layer_failures(workload, tracer)
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                for op in tracer.ops:
                    if op.spans:
                        fh.write(json.dumps({"op": op.op_id, "spans": op.spans}) + "\n")

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result = {
        "latencies_s": latencies,
        "traced_latencies_s": traced_latencies,
        "elapsed_s": elapsed,
        "completed": completed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "run_failures": run_failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "layer_ops": [layer_metrics(op) for op in tracer.ops] if tracer else [],
        "provenance": provenance(args.seed),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
