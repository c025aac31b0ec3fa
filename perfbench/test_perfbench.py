"""Tests of the benchmark itself: live checks, exact work counts, tracing.

Run with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import MC_SHOTS, WORKLOADS, Tally, check_mc_report  # noqa: E402

import avnlab.cli  # noqa: E402,F401  (loads every layer for the tracer)
from avnlab import simulate  # noqa: E402

KS_PLUS_LHV_ASSIGNMENTS = (1 << 17) + 19 * (1 << 12)  # = 208896


def traced_op(workload, k=1):
    """Run spec k untraced then traced, as the worker's traced loop does."""
    tracer, tally = tracing.Tracer(), Tally()
    worker.run_op(workload, k, None, tally)
    worker.run_op(workload, k, tracer, tally)
    assert tally.failed == 0, tally.failures
    assert worker.layer_failures(workload, tracer) == []
    return tracer.ops[-1]


def error_rate_of(workload, spec, output):
    tally = Tally()
    tally.record(workload.check(spec, output))
    return tally.error_rate


@pytest.fixture(scope="module")
def certify_run(tmp_path_factory):
    workload = WORKLOADS["certify"](seed=5, scratch=tmp_path_factory.mktemp("certify"))
    spec = workload.spec(0)
    return workload, spec, workload.call(spec)


class TestBenchmarkSpec:
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads(run.ROOT.joinpath("BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_layer_metrics_cover_the_per_layer_list(self):
        op = tracing.OpTrace(0)
        derived = {"trace.latency_p50_ms", "trace.overhead_ms", "error_rate"}
        assert set(tracing.layer_metrics(op)) | derived == set(run.PER_LAYER)


class TestNegativeControls:
    """A corrupted report must raise error_rate above zero."""

    def test_real_certificate_passes(self, certify_run):
        workload, spec, output = certify_run
        assert error_rate_of(workload, spec, output) == 0

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: r["verify"]["signs"].__setitem__(4, -1),
            lambda r: r["ks"]["contradiction"].__setitem__(
                "exhaustive_count_satisfying_all", 1),
            lambda r: r["lhv"].__setitem__("local_bound", 8),
            lambda r: r["ks"]["eigenfamily"].pop(),
            lambda r: r["simulate"].__setitem__("F_estimate", 8.9),
        ],
        ids=["flipped-sign", "ks-count-1", "local-bound-8", "15-eigenstates", "F-not-9"],
    )
    def test_corrupted_certificate_fails(self, certify_run, corrupt):
        workload, spec, output = certify_run
        report = json.loads(output["text"])
        corrupt(report)
        bad = dict(output, text=json.dumps(report).encode())
        fresh = WORKLOADS["certify"](seed=5, scratch=workload.scratch)
        assert error_rate_of(fresh, spec, bad) > 0

    def test_changed_deterministic_block_fails(self, certify_run):
        workload, spec, output = certify_run
        fresh = WORKLOADS["certify"](seed=5, scratch=workload.scratch)
        assert error_rate_of(fresh, spec, output) == 0
        report = json.loads(output["text"])
        report["lhv"]["witness"]["z1"] *= -1
        other = dict(output, text=json.dumps(report).encode())
        assert "lhv block differs from the first op's" in fresh.check(spec, other)

    def test_cli_nonzero_exit_fails(self):
        workload = WORKLOADS["cli_cold"](seed=1, scratch=Path("."))
        output = {"code": 1, "text": b"", "stderr": b"boom"}
        assert error_rate_of(workload, workload.spec(0), output) > 0

    def test_mc_report_shifted_by_ten_se_fails(self):
        report = simulate.estimate_F(20000, simulate.NoiseModel(0.8, 0.9), 7)
        assert check_mc_report(report, [], 20000, 7, 0.8, 0.9) == []
        shifted = copy.deepcopy(report)
        shifted["F_estimate"] += 10 * report["F_standard_error"]
        assert check_mc_report(shifted, [], 20000, 7, 0.8, 0.9) != []

    def test_mc_rerun_with_other_output_fails(self):
        workload = WORKLOADS["mc_sweep"](seed=3, scratch=Path("."))
        spec = workload.spec(0)
        output = workload.call(spec)
        assert error_rate_of(workload, spec, output) == 0
        output["report"]["records"][0]["shots_retained"] -= 1
        assert error_rate_of(workload, spec, output) > 0


class TestExactCounts:
    def test_certify_op(self, tmp_path):
        op = traced_op(WORKLOADS["certify"](seed=9, scratch=tmp_path))
        m = tracing.layer_metrics(op)
        assert m["kernels.assignments"] == KS_PLUS_LHV_ASSIGNMENTS == 208896
        assert m["kernels.histogram_calls"] == 2
        assert m["kernels.maxparity_calls"] == 18
        assert m["lhv.local_bound_calls"] == 18
        assert m["functional.verify_calls"] == 17
        assert m["simulate.shots_requested"] == 9 * 1000
        # cli.main is the only root span, so self times add up to it.
        assert sum(op.self_s.values()) == pytest.approx(op.total_s["cli.main"])

    def test_mc_sweep_plain_op(self):
        workload = WORKLOADS["mc_sweep"](seed=4, scratch=Path("."))
        assert not workload.spec(1)[3]  # op 1 runs no alternate estimators
        first = tracing.layer_metrics(traced_op(workload))
        again = tracing.layer_metrics(traced_op(workload))
        assert first["kernels.assignments"] == 0
        assert first["simulate.shots_requested"] == 9 * MC_SHOTS == 1800000
        assert first["simulate.run_experiment_calls"] == 9
        counts = [k for k in first if k.endswith(("_calls", "assignments", "shots_requested",
                                                   "shots_retained"))]
        assert {k: first[k] for k in counts} == {k: again[k] for k in counts}

    def test_cli_cold_op_traced_in_a_fresh_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", str(run.ROOT / "src"))
        op = traced_op(WORKLOADS["cli_cold"](seed=2, scratch=tmp_path))
        assert tracing.layer_metrics(op)["kernels.assignments"] == 208896


class TestTracer:
    def test_wraps_every_binding_and_restores(self):
        import avnlab.functional
        import avnlab.ks
        from avnlab.pauli import PauliString

        bindings = [
            (avnlab.simulate, "born_probabilities"),
            (avnlab.ks, "verify_nine_identities"),
            (avnlab.cli, "parse"),
            (avnlab.functional, "parse"),
            (avnlab.pauli, "parse"),
            (PauliString, "__mul__"),
            (PauliString, "multiply"),
        ]
        before = [vars(owner)[name] for owner, name in bindings]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = [vars(owner)[name] for owner, name in bindings]
            assert all(a is not b for a, b in zip(before, during))
            assert avnlab.cli.parse is avnlab.functional.parse is avnlab.pauli.parse
            assert PauliString.__mul__ is PauliString.multiply
        finally:
            tracer.uninstall()
        assert [vars(owner)[name] for owner, name in bindings] == before


class TestCompare:
    @staticmethod
    def record(backend, latency):
        return {"workload": "certify", "trace": 0,
                "provenance": {"kernel_backend": backend},
                "metrics": {"latency_p50_ms": {"value": latency, "unit": "ms"}}}

    def test_refuses_mixed_backends(self):
        with pytest.raises(compare.MixedBackends):
            compare.compare([self.record("python", 300.0)],
                            [self.record("cython", 20.0)], {})

    def test_flags_a_regression_beyond_the_bound(self):
        spec = {"end_to_end": [{"name": "latency_p50_ms", "better": "lower", "bound": 0.1}]}
        rows = compare.compare([self.record("python", 300.0)],
                               [self.record("python", 360.0)], spec)
        assert rows[0][-1] == "REGRESSION"


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH.glob("*.py"):
        bench.joinpath(path.name).write_text(path.read_text())
    tmp_path.joinpath("BENCHMARK.json").write_text(run.ROOT.joinpath("BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
