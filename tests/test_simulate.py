"""Monte Carlo estimators: convergence, noise scaling, reproducibility."""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnlab.functional import EXPECTED_SIGNS
from avnlab.simulate import (
    MAX_SHOTS,
    RNG_CONTRACT,
    CorrelationRecord,
    DegenerateRecordError,
    NoiseModel,
    estimate_F,
    records_to_csv,
    run_experiment,
)

IDEAL = NoiseModel(1.0, 1.0)
TERM_ESTIMATORS = [
    *((k, "direct") for k in range(1, 10)),
    (9, "yproduct"),
    (9, "bellpairs"),
]


def within_sigmas(a, b, se_a, se_b=0.0, n_sigma=4.0):
    return abs(a - b) <= n_sigma * math.sqrt(se_a**2 + se_b**2) + 1e-12


class TestNoiseModel:
    def test_defaults(self):
        noise = NoiseModel()
        assert noise.visibility == 1.0 and noise.detector_efficiency == 1.0

    @pytest.mark.parametrize("v", [-0.1, 1.1])
    def test_rejects_bad_visibility(self, v):
        with pytest.raises(ValueError):
            NoiseModel(visibility=v)

    @pytest.mark.parametrize("eta", [0.0, -1.0, 1.5])
    def test_rejects_bad_efficiency(self, eta):
        with pytest.raises(ValueError):
            NoiseModel(detector_efficiency=eta)


class TestRunExperiment:
    def test_ideal_term_one_is_perfectly_anticorrelated(self):
        record = run_experiment(1, 100_000, IDEAL, seed=0)
        assert within_sigmas(record.estimate, -1.0, record.standard_error)
        assert record.estimate == -1.0  # eigenstate: every shot gives -1

    @pytest.mark.parametrize("term_index", range(1, 10))
    def test_all_terms_converge_to_exact_expectations(self, term_index):
        record = run_experiment(term_index, 10_000, IDEAL, seed=0)
        assert within_sigmas(
            record.estimate, EXPECTED_SIGNS[term_index - 1], record.standard_error
        )

    def test_zero_visibility_is_uncorrelated(self):
        record = run_experiment(1, 100_000, NoiseModel(0.0, 1.0), seed=0)
        assert within_sigmas(record.estimate, 0.0, record.standard_error)

    def test_half_visibility_scales_correlation(self):
        record = run_experiment(1, 200_000, NoiseModel(0.5, 1.0), seed=0)
        assert within_sigmas(record.estimate, -0.5, record.standard_error)

    def test_detection_losses_reduce_retained_shots(self):
        record = run_experiment(5, 10_000, NoiseModel(1.0, 0.5), seed=0)
        # three factors, each kept with probability 0.5
        assert record.shots_retained < record.shots_requested
        assert record.shots_retained == pytest.approx(10_000 * 0.5**3, rel=0.2)

    def test_post_selection_is_unbiased_for_this_model(self):
        lossy = run_experiment(1, 400_000, NoiseModel(0.6, 0.5), seed=0)
        clean = run_experiment(1, 400_000, NoiseModel(0.6, 1.0), seed=0)
        assert within_sigmas(
            lossy.estimate, clean.estimate, lossy.standard_error, clean.standard_error
        )

    def test_all_shots_lost_is_an_error(self):
        with pytest.raises(DegenerateRecordError):
            run_experiment(1, 5, NoiseModel(1.0, 1e-6), seed=0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_experiment(0, 10)
        with pytest.raises(ValueError):
            run_experiment(1, 0)
        with pytest.raises(ValueError):
            run_experiment(1, 10, estimator="nonsense")
        with pytest.raises(ValueError):
            run_experiment(1, 10, estimator="yproduct")

    def test_reproducible_bit_for_bit(self):
        a = run_experiment(3, 5_000, NoiseModel(0.8, 0.9), seed=42)
        b = run_experiment(3, 5_000, NoiseModel(0.8, 0.9), seed=42)
        assert a == b

    def test_shot_count_limit(self):
        record = run_experiment(1, MAX_SHOTS, NoiseModel(0.9, 0.9), seed=0)
        assert record.shots_requested == MAX_SHOTS == 2**63 - 1
        with pytest.raises(ValueError, match="shots must be at most"):
            run_experiment(1, MAX_SHOTS + 1)

    def test_cost_does_not_grow_with_shots(self):
        noise = NoiseModel(0.85, 0.9)
        run_experiment(9, 10, noise, seed=0)  # lazy imports and caches
        tracemalloc.start()
        try:
            start = time.perf_counter()
            record = run_experiment(9, 10**12, noise, seed=1)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.shots_requested == 10**12
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_sampling_distribution_of_term_nine(self):
        """Mean, spread and retained count over 400 seeds match the
        binomial model: E = -V, sd = sqrt((1 - V^2)/n), n = shots eta^4."""
        v, eta, shots, seeds = 0.85, 0.9, 2_000, 400
        records = [
            run_experiment(9, shots, NoiseModel(v, eta), seed=s) for s in range(seeds)
        ]
        estimates = np.array([r.estimate for r in records])
        retained = np.array([r.shots_retained for r in records])
        keep = eta**4
        sd_theory = math.sqrt((1 - v**2) / (shots * keep))
        assert within_sigmas(estimates.mean(), -v, sd_theory / math.sqrt(seeds))
        assert estimates.std(ddof=1) == pytest.approx(sd_theory, rel=0.15)
        retained_se = math.sqrt(shots * keep * (1 - keep) / seeds)
        assert within_sigmas(retained.mean(), shots * keep, retained_se)

    @pytest.mark.parametrize("term_index, estimator", TERM_ESTIMATORS)
    def test_noiseless_estimate_is_exact(self, term_index, estimator):
        record = run_experiment(term_index, 12_345, IDEAL, seed=11, estimator=estimator)
        assert record.estimate == EXPECTED_SIGNS[term_index - 1]
        assert record.shots_retained == 12_345
        assert record.standard_error == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        visibility=st.floats(0.0, 1.0),
        efficiency=st.floats(0.5, 1.0),
        order=st.permutations(TERM_ESTIMATORS),
    )
    def test_call_order_does_not_matter(self, seed, visibility, efficiency, order):
        noise = NoiseModel(visibility, efficiency)
        canonical = {
            (k, e): run_experiment(k, 1_000, noise, seed, estimator=e)
            for k, e in sorted(order)
        }
        for k, e in order:
            assert run_experiment(k, 1_000, noise, seed, estimator=e) == canonical[k, e]


class TestTermNineEstimators:
    """Three independently sampled routes to the ninth correlation."""

    @pytest.mark.parametrize("estimator", ["direct", "yproduct", "bellpairs"])
    def test_ideal_value_is_minus_one(self, estimator):
        record = run_experiment(9, 50_000, IDEAL, seed=0, estimator=estimator)
        assert record.estimate == -1.0

    def test_estimators_agree_under_noise(self):
        noise = NoiseModel(0.8, 1.0)
        records = [
            run_experiment(9, 100_000, noise, seed=0, estimator=e)
            for e in ("direct", "yproduct", "bellpairs")
        ]
        for i, a in enumerate(records):
            assert within_sigmas(a.estimate, -0.8, a.standard_error)
            for b in records[i + 1:]:
                assert within_sigmas(
                    a.estimate, b.estimate, a.standard_error, b.standard_error
                )


class TestEstimateF:
    def test_ideal_reaches_nine_and_violates(self):
        report = estimate_F(100_000, IDEAL, seed=0)
        assert within_sigmas(
            report["F_estimate"], 9.0, report["F_standard_error"], n_sigma=3
        )
        assert report["violates_local_bound"]

    def test_half_visibility_gives_four_and_a_half(self):
        report = estimate_F(100_000, NoiseModel(0.5, 1.0), seed=0)
        assert within_sigmas(
            report["F_estimate"], 4.5, report["F_standard_error"], n_sigma=3
        )
        assert not report["violates_local_bound"]

    def test_threshold_visibility_sits_at_the_bound(self):
        report = estimate_F(100_000, NoiseModel(7 / 9, 1.0), seed=0)
        assert within_sigmas(
            report["F_estimate"], 7.0, report["F_standard_error"], n_sigma=3
        )
        assert not report["violates_local_bound"]

    def test_config_names_the_rng_contract(self):
        report = estimate_F(1_000, IDEAL, seed=0)
        assert report["config"]["rng_contract"] == RNG_CONTRACT == 2

    def test_reports_are_bit_for_bit_reproducible(self):
        a = estimate_F(10_000, NoiseModel(0.9, 0.8), seed=7)
        b = estimate_F(10_000, NoiseModel(0.9, 0.8), seed=7)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_execution_order_does_not_matter(self):
        noise = NoiseModel(0.7, 0.9)
        report = estimate_F(5_000, noise, seed=3)
        shuffled = {
            k: run_experiment(k, 5_000, noise, seed=3) for k in reversed(range(1, 10))
        }
        for record_dict in report["records"]:
            k = record_dict["term_index"]
            assert record_dict["estimate"] == shuffled[k].estimate
            assert record_dict["shots_retained"] == shuffled[k].shots_retained

    def test_standard_error_form(self):
        report = estimate_F(10_000, NoiseModel(0.5, 1.0), seed=0)
        for r in report["records"]:
            expected = math.sqrt((1 - r["estimate"] ** 2) / r["shots_retained"])
            assert r["standard_error"] == pytest.approx(expected, abs=1e-15)


class TestCsvExport:
    def test_roundtrip_fields(self):
        records = [run_experiment(k, 1_000, IDEAL, seed=0) for k in (1, 9)]
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0].startswith("term_index,label,estimator")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
