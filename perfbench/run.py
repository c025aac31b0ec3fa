"""Benchmark avnlab: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify|mc_sweep|cli_cold \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/avnlab);
nothing needs building.  The workload runs in a fresh worker process
(worker.py) with one-thread BLAS settings, between the fresh-interpreter
probes that measure `setup_s`.  Every metric is printed by name and unit,
with the run's provenance; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from the traced run, whose spans go to perfbench/_runs/.  The full
record of each run is written to perfbench/_runs/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"

# Half the set-up probes run before the workload and half after, so that
# setup_s samples the machine over the whole run, not one moment of it.
SETUP_PROBES = 8
PROBE = (
    "import time; t = time.perf_counter(); import avnlab.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded by every untraced run, but not gated in
# BENCHMARK.json: on a shared 2-core host the per-op latency is bimodal
# (about 190 ms and 340 ms for certify) and the share of slow ops changes
# from minute to minute, so over ten seeds these spread (IQR/median) up to
# 0.34 and 0.27, wider than the largest bound a gated metric may have.
REPORTED = {
    "latency_p50_ms": "ms",
    "throughput_ops_s": "1/s",
}


def _unit(name: str) -> str:
    if name == "error_rate" or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith("kernels.ns_") or name.endswith("ns_per_shot"):
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    return "count"


_LAYER_NAMES = (
    "kernels.histogram_calls kernels.histogram_ms kernels.maxparity_calls "
    "kernels.maxparity_ms kernels.assignments kernels.ns_per_assignment "
    "ks.certificate_ms ks.structure_ms ks.prove_ms ks.sweep_ms ks.self_ms "
    "lhv.certificate_ms lhv.prove_ms lhv.local_bound_calls lhv.local_bound_ms "
    "lhv.self_ms functional.nine_terms_calls functional.nine_terms_ms "
    "functional.verify_calls functional.verify_ms functional.value_ms "
    "pauli.parse_calls pauli.parse_ms pauli.multiply_calls states.apply_calls "
    "states.expectation_calls states.born_calls states.born_ms "
    "simulate.estimate_F_ms simulate.run_experiment_calls "
    "simulate.run_experiment_ms simulate.sampling_ms simulate.shots_requested "
    "simulate.shots_retained simulate.retained_ratio simulate.ns_per_shot "
    "cli.main_ms cli.self_ms cli.report_bytes "
    "trace.latency_p50_ms trace.overhead_ms error_rate"
).split()
PER_LAYER = {name: _unit(name) for name in _LAYER_NAMES}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_checked(cmd, env, timeout) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out)
    return out


def setup_probes(env, n) -> list:
    """Fresh-interpreter times to import avnlab.cli."""
    return [float(run_checked([sys.executable, "-c", PROBE], env, 60).split()[-1])
            for _ in range(n)]


def percentile(values, q) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end_metrics(raw, setup_s, tail_q) -> dict:
    latencies = raw["latencies_s"]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * percentile(latencies, tail_q),
        "throughput_ops_s": raw["completed"] / raw["elapsed_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw) -> dict:
    """Median over traced ops of each per-op layer metric."""
    ops = raw["layer_ops"]
    metrics = {name: statistics.median(op[name] for op in ops) for name in ops[0]}
    traced_p50 = 1e3 * statistics.median(raw["traced_latencies_s"])
    metrics["trace.latency_p50_ms"] = traced_p50
    metrics["trace.overhead_ms"] = traced_p50 - 1e3 * statistics.median(raw["latencies_s"])
    metrics["error_rate"] = raw["failed"] / raw["attempted"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "avnlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no avnlab source under {ROOT / 'src'}\n")
        return 2

    env = worker_env()
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = RUNS / f"tmp-{stem}-{os.getpid()}"
    scratch.mkdir()
    try:
        setup_probes(env, 1)  # fills the bytecode cache; not counted
        probes = setup_probes(env, SETUP_PROBES // 2)
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(scratch), "--spans", str(RUNS / f"{stem}.spans.jsonl")]
        raw = json.loads(run_checked(cmd, env, args.seconds + 90).splitlines()[-1])
        probes += setup_probes(env, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    prov = dict(raw["provenance"], git_sha=git_sha())
    if not Path(prov["avnlab_file"]).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"error: imported avnlab from {prov['avnlab_file']}\n")
        return 2

    tail_q = WORKLOADS[args.workload].tail_percentile
    if args.trace:
        metrics, units = per_layer_metrics(raw), PER_LAYER
    else:
        metrics = end_to_end_metrics(raw, statistics.median(probes), tail_q)
        units = {**END_TO_END, **REPORTED}
    failures = raw["failures"] + raw["run_failures"]
    correct = raw["failed"] == 0 and not raw["run_failures"]

    n = len(raw["latencies_s"])
    tail = percentile(raw["latencies_s"], tail_q)
    beyond = sum(x > tail for x in raw["latencies_s"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"ops attempted {raw['attempted']}  failed {raw['failed']}"
          f"  error_rate {raw['failed'] / raw['attempted']:.6g}"
          f"  timed samples {n}  latency_tail_ms is p{tail_q} ({beyond} beyond)")
    for failure in failures[:10]:
        print(f"FAIL {failure}")
    for name, unit in units.items():
        print(f"{name:30s} {metrics[name]:.6g} {unit}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "correct": correct,
        "attempted": raw["attempted"], "failed": raw["failed"], "failures": failures,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = {name: record["metrics"][name] for name in units
                         if name not in REPORTED}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
