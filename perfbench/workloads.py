"""The three avnlab benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller in one process: op i+1 is
sent when op i has returned.  `spec(i)` is op i's input, made only from the
workload seed; `call(spec, traced)` performs the op through a production
entry point (the timed part); `check(spec, output)` returns the failed
checks, an empty list when the op is correct.  The expected values below
are the paper's claims, written out here rather than read from avnlab, so
that a broken program cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

EXPECTED_SIGNS = [-1, -1, -1, -1, 1, 1, 1, 1, -1]
KS_ASSIGNMENTS = 1 << 17
CERTIFY_SHOTS = 1000
CLI_DEFAULT_SHOTS = 100000
MC_SHOTS = 200000
MC_VISIBILITIES = (0.70, 0.75, 7 / 9, 0.80, 0.85, 0.90, 0.95, 1.0)
MC_EFFICIENCIES = (1.0, 0.9, 0.7)
MC_ALT_ESTIMATORS = ("yproduct", "bellpairs")
MC_ALT_EVERY = 8
SIGMAS = 5.0
DETERMINISTIC_BLOCKS = ("verify", "lhv", "ks")


class Tally:
    """Ops attempted and failed; a failed check, a non-zero exit and an
    exception each make the op count as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures[:3])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def check_certificate(report, shots, seed) -> list:
    """Checks on one `avnlab all --json` report at V = 1, eta = 1."""
    failures = []

    def need(ok, what):
        if not ok:
            failures.append(what)

    need(report.get("all_ok") is True, "all_ok is not true")
    verify = report["verify"]
    need(verify["signs"] == EXPECTED_SIGNS, f"signs {verify['signs']}")
    need(verify["sign_product"] == -1, "verify sign product is not -1")
    need(verify["eigenvalue_nine"] is True, "operator sum is not 9 on the state")
    lhv = report["lhv"]
    need(lhv["local_bound"] == 7, f"local bound {lhv['local_bound']}")
    need(lhv["satisfying_count"] == 0, f"{lhv['satisfying_count']} EPR assignments")
    need(lhv["quantum_value"] == 9, "quantum value is not 9")
    contradiction = report["ks"]["contradiction"]
    need(
        contradiction["exhaustive_count_satisfying_all"] == 0
        and contradiction["assignments_checked"] == KS_ASSIGNMENTS,
        f"KS {contradiction['exhaustive_count_satisfying_all']}"
        f" of {contradiction['assignments_checked']}",
    )
    family = report["ks"]["eigenfamily"]
    need(len(family) == 16, f"{len(family)} eigenfamily records")
    for rec in family:
        need(
            rec["sign_product"] == -1
            and abs(rec["quantum_value"] - 9.0) <= 1e-12
            and rec["local_bound"] == 7,
            f"eigenfamily {rec['pair13']} x {rec['pair24']}",
        )
    sim = report["simulate"]
    need(
        sim["config"]["seed"] == seed and sim["config"]["shots_per_term"] == shots,
        "simulate config does not echo the request",
    )
    # At V = 1 every term's outcome product is fixed, so F is exactly 9.
    need(sim["F_estimate"] == 9.0, f"F = {sim['F_estimate']} at V = 1")
    return failures


def check_mc_report(report, extras, shots, seed, visibility, efficiency) -> list:
    """Checks on one `estimate_F` report and its alternate term-9 records."""
    failures = []
    config = report["config"]
    if (config["shots_per_term"], config["seed"], config["visibility"],
            config["efficiency"]) != (shots, seed, visibility, efficiency):
        failures.append("config does not echo the request")
    if [r["shots_requested"] for r in report["records"]] != [shots] * 9:
        failures.append("shots requested per term differ from the request")
    # Post-selection is unbiased under this noise model, so E[F] = 9V.
    f, se = report["F_estimate"], report["F_standard_error"]
    if not abs(f - 9 * visibility) <= SIGMAS * se + 1e-12:
        failures.append(f"F = {f} is {abs(f - 9 * visibility)} from 9V (SE {se})")
    direct = report["records"][8]
    for alt in extras:
        bound = SIGMAS * math.hypot(alt["standard_error"], direct["standard_error"])
        if not abs(alt["estimate"] - direct["estimate"]) <= bound + 1e-12:
            failures.append(f"{alt['estimator']} estimate disagrees with direct")
    return failures


class Workload:
    name = ""
    in_process = True
    #: Layers that must show calls in every traced op (all others must not).
    active_layers = ()
    #: The tail percentile reported as latency_tail_ms; chosen so that a
    #: run of the benchmark's length leaves at least ten ops beyond it.
    tail_percentile = None

    def __init__(self, seed, scratch: Path):
        self.scratch = scratch
        self._rng = random.Random(seed)
        self._specs = []
        self._seen = {}
        self._blocks = None

    def spec(self, i):
        while len(self._specs) <= i:
            self._specs.append(self._next_spec(len(self._specs)))
        return self._specs[i]

    def _next_spec(self, i):
        raise NotImplementedError

    def _fresh_seed(self) -> int:
        return self._rng.randrange(1 << 31)

    def _same_as_before(self, key, value) -> list:
        """A repeated input must give an identical output.  Only a digest
        is kept, so the worker's memory does not grow with the op count."""
        if isinstance(value, str):
            value = value.encode()
        digest = hashlib.sha256(value).digest()
        if self._seen.setdefault(key, digest) != digest:
            return [f"repeat of {key} gave a different output"]
        return []

    def _same_blocks(self, report) -> list:
        blocks = {k: _canonical(report[k]) for k in DETERMINISTIC_BLOCKS}
        if self._blocks is None:
            self._blocks = blocks
        return [f"{k} block differs from the first op's" for k in DETERMINISTIC_BLOCKS
                if blocks[k] != self._blocks[k]]

    def finish(self) -> list:
        """Run-level checks after the timed loop."""
        return []


class Certify(Workload):
    """In-process `avnlab.cli.main(["all", ...])` with the simulator made
    negligible: the enumeration kernels do most of the work."""

    name = "certify"
    active_layers = ("pauli", "states", "functional", "kernels", "lhv", "ks",
                     "simulate", "cli")
    tail_percentile = 90

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.out = scratch / "certify.json"

    def _next_spec(self, i):
        return self._fresh_seed()

    def call(self, spec, traced=False):
        from avnlab import cli

        code = cli.main(["all", "--json", "--out", str(self.out),
                         "--shots", str(CERTIFY_SHOTS), "--seed", str(spec)])
        text = self.out.read_bytes()
        return {"code": code, "text": text, "report_bytes": len(text)}

    def check(self, spec, output) -> list:
        failures = [] if output["code"] == 0 else [f"exit code {output['code']}"]
        report = json.loads(output["text"])
        failures += check_certificate(report, CERTIFY_SHOTS, spec)
        failures += self._same_blocks(report)
        failures += self._same_as_before(spec, output["text"])
        return failures


class McSweep(Workload):
    """`simulate.estimate_F` over the (V, eta) grid: the simulator does
    nearly all the work and the enumeration kernels none."""

    name = "mc_sweep"
    active_layers = ("pauli", "states", "functional", "simulate")
    tail_percentile = 90

    def _next_spec(self, i):
        grid = len(MC_VISIBILITIES) * len(MC_EFFICIENCIES)
        if i % grid == 0:
            self._order = [(v, e) for v in MC_VISIBILITIES for e in MC_EFFICIENCIES]
            self._rng.shuffle(self._order)
        visibility, efficiency = self._order[i % grid]
        with_alternates = i % MC_ALT_EVERY == MC_ALT_EVERY - 1
        return (self._fresh_seed(), visibility, efficiency, with_alternates)

    def call(self, spec, traced=False):
        from avnlab import simulate

        seed, visibility, efficiency, with_alternates = spec
        noise = simulate.NoiseModel(visibility, efficiency)
        report = simulate.estimate_F(MC_SHOTS, noise, seed)
        extras = []
        if with_alternates:
            extras = [
                simulate.record_as_dict(
                    simulate.run_experiment(9, MC_SHOTS, noise, seed, estimator=e)
                )
                for e in MC_ALT_ESTIMATORS
            ]
        return {"report": report, "extras": extras}

    def check(self, spec, output) -> list:
        seed, visibility, efficiency, _ = spec
        failures = check_mc_report(
            output["report"], output["extras"], MC_SHOTS, seed, visibility, efficiency
        )
        return failures + self._same_as_before(spec, _canonical(output))

    def finish(self) -> list:
        """Bit-for-bit RNG contract: the first op, run again, repeats exactly."""
        spec = self.spec(0)
        return self.check(spec, self.call(spec))


class CliCold(Workload):
    """A fresh `python -m avnlab.cli all --json` per op, as CI or a script
    runs it: import, KS search and simulator in one blocking path."""

    name = "cli_cold"
    in_process = False
    active_layers = Certify.active_layers
    tail_percentile = 75

    def _next_spec(self, i):
        # Each seed is issued twice, back to back.
        return self._specs[i - 1] if i % 2 else self._fresh_seed()

    def call(self, spec, traced=False):
        args = ["all", "--json", "--seed", str(spec)]
        trace_file = self.scratch / "cli_trace.json"
        if traced:
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *args]
        else:
            cmd = [sys.executable, "-m", "avnlab.cli", *args]
        proc = subprocess.run(cmd, capture_output=True, timeout=60)
        output = {"code": proc.returncode, "text": proc.stdout,
                  "stderr": proc.stderr, "report_bytes": len(proc.stdout)}
        if traced:
            output["trace"] = json.loads(trace_file.read_text())
        return output

    def check(self, spec, output) -> list:
        if output["code"] != 0:
            return [f"exit code {output['code']}: "
                    f"{output['stderr'].decode(errors='replace')[-200:]}"]
        report = json.loads(output["text"])
        failures = check_certificate(report, CLI_DEFAULT_SHOTS, spec)
        failures += self._same_blocks(report)
        failures += self._same_as_before(spec, output["text"])
        return failures


WORKLOADS = {w.name: w for w in (Certify, McSweep, CliCold)}
