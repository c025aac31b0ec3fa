"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py --base perfbench/_runs/A-*.json \
        --new perfbench/_runs/B-*.json

Each file is a run record written by run.py.  Runs are grouped by workload
and trace mode; for each metric the medians of the two sets are compared,
and an end-to-end metric that got worse by more than its bound in
BENCHMARK.json is flagged (exit 1).  Results whose kernel backend differs
are refused (exit 3): the compiled and pure-Python kernels differ by
15-55x, so such a comparison would measure the build, not the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class MixedBackends(ValueError):
    pass


def load(paths) -> list:
    return [json.loads(Path(p).read_text()) for p in paths]


def compare(base, new, spec) -> list:
    """Rows (workload, trace, metric, base median, new median, change, verdict)."""
    backends = {r["provenance"]["kernel_backend"] for r in base + new}
    if len(backends) > 1:
        raise MixedBackends(f"kernel backends differ: {sorted(backends)}")
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in base}
                    & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        for metric in b[0]["metrics"]:
            mb = statistics.median(r["metrics"][metric]["value"] for r in b)
            mn = statistics.median(r["metrics"][metric]["value"] for r in n)
            change = (mn - mb) / mb if mb else None
            verdict = ""
            if metric in bounds and change is not None:
                sign = 1 if bounds[metric]["better"] == "lower" else -1
                if sign * change > bounds[metric]["bound"]:
                    verdict = "REGRESSION"
            rows.append((workload, trace, metric, mb, mn, change, verdict))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else {}
    try:
        rows = compare(load(args.base), load(args.new), spec)
    except MixedBackends as exc:
        sys.stderr.write(f"refusing to compare: {exc}\n")
        return 3
    for workload, trace, metric, mb, mn, change, verdict in rows:
        pct = "" if change is None else f"{100 * change:+.1f}%"
        print(f"{workload:9s} t{trace} {metric:30s} {mb:12.6g} -> {mn:12.6g} {pct:>8s} {verdict}")
    return 1 if any(row[-1] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
