"""Monte Carlo estimators: convergence, noise scaling, reproducibility."""

import bisect
import json
import math
import random
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnlab import cli
from avnlab.functional import EXPECTED_SIGNS
from avnlab.simulate import (
    MAX_SHOTS,
    RNG_CONTRACT,
    CorrelationRecord,
    DegenerateRecordError,
    NoiseModel,
    _binomial,
    _log_pmf_ratio,
    _measurement_plan,
    estimate_F,
    run_experiment,
    term_rng,
)

IDEAL = NoiseModel(1.0, 1.0)
TERM_ESTIMATORS = [
    *((k, "direct") for k in range(1, 10)),
    (9, "yproduct"),
    (9, "bellpairs"),
]


#: The three public entry points that take a seed.
SEEDED_CALLS = [
    lambda seed: run_experiment(1, 10, seed=seed),
    lambda seed: estimate_F(10, seed=seed),
    lambda seed: term_rng(seed, 1),
]
SEEDED_CALL_IDS = ["run_experiment", "estimate_F", "term_rng"]


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

    @pytest.mark.parametrize("bad", ["a", None, 1j, True, [0.5]])
    @pytest.mark.parametrize("field", ["visibility", "detector_efficiency"])
    def test_rejects_non_numbers(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            NoiseModel(**{field: bad})

    def test_accepts_numpy_and_fraction_values(self):
        noise = NoiseModel(np.float64(0.5), Fraction(1, 2))
        assert noise.visibility == noise.detector_efficiency == 0.5

    @pytest.mark.parametrize("noise", [None, (1.0, 1.0), "ideal"])
    def test_run_experiment_wants_a_noise_model(self, noise):
        with pytest.raises(ValueError, match="^noise must be a NoiseModel"):
            run_experiment(1, 10, noise)


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
        with pytest.raises(ValueError, match="^term_index must be 1..9$"):
            run_experiment(0, 10)
        with pytest.raises(ValueError, match="^shots must be positive$"):
            run_experiment(1, 0)
        with pytest.raises(ValueError, match="^unknown estimator 'nonsense'$"):
            run_experiment(1, 10, estimator="nonsense")
        with pytest.raises(ValueError, match=r"^unknown estimator \['direct'\]$"):
            run_experiment(1, 10, estimator=["direct"])
        with pytest.raises(ValueError, match="^alternate estimators exist only for term 9$"):
            run_experiment(1, 10, estimator="yproduct")

    @pytest.mark.parametrize("shots", [2.5, 2.0, True, "10", None])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match="shots must be an integer"):
            run_experiment(1, shots)

    @pytest.mark.parametrize("term_index", [1.5, 2.0, True, "1", None])
    def test_term_index_must_be_an_integer(self, term_index):
        with pytest.raises(ValueError, match="term_index must be an integer"):
            run_experiment(term_index, 10)

    @pytest.mark.parametrize("call", SEEDED_CALLS, ids=SEEDED_CALL_IDS)
    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "1", None])
    def test_seed_must_be_an_integer(self, call, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            call(seed)

    @pytest.mark.parametrize("call", SEEDED_CALLS, ids=SEEDED_CALL_IDS)
    def test_negative_seed_is_a_one_line_value_error(self, call):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            call(-1)

    def test_seed_of_two_to_the_128_runs(self):
        report = estimate_F(10, NoiseModel(0.9, 0.8), seed=2**128)
        assert report["config"]["seed"] == 2**128
        assert report == estimate_F(10, NoiseModel(0.9, 0.8), seed=2**128)
        assert report != estimate_F(10, NoiseModel(0.9, 0.8), seed=0)

    @pytest.mark.parametrize("term_index", [1.5, True, "1", None])
    def test_substream_term_index_must_be_an_integer(self, term_index):
        with pytest.raises(ValueError, match="^term_index must be an integer"):
            term_rng(0, term_index)

    def test_integer_like_seed_is_recorded_as_int(self):
        report = estimate_F(10, seed=np.int64(3))
        assert type(report["config"]["seed"]) is int
        assert report == estimate_F(10, seed=3)

    def test_unknown_estimator_substream_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown estimator 'nope'"):
            term_rng(0, 1, "nope")

    def test_integer_like_shots_are_stored_as_int(self):
        record = run_experiment(1, np.int64(50), seed=0)
        assert record.shots_requested == 50
        assert type(record.shots_requested) is int

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

    @pytest.mark.parametrize("estimator", ["yproduct", "bellpairs"])
    def test_alternate_plans_are_built_once(self, estimator, monkeypatch):
        plan = _measurement_plan(9, estimator)
        monkeypatch.setattr("avnlab.simulate.parse", None)  # no call may parse
        assert _measurement_plan(9, estimator) is plan
        assert run_experiment(9, 1000, IDEAL, seed=0, estimator=estimator).estimate == -1.0


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
        assert report["config"]["rng_contract"] == RNG_CONTRACT == 3

    def test_numpy_and_fraction_config_is_recorded_as_python_numbers(self):
        report = estimate_F(
            np.int64(1000),
            NoiseModel(np.float64(0.5), Fraction(1, 2)),
            seed=np.int64(4),
        )
        config = report["config"]
        names = ("shots_per_term", "seed", "visibility", "efficiency", "sigma_rule")
        assert [type(config[k]) for k in names] == [int, int, float, float, float]
        plain = estimate_F(1000, NoiseModel(0.5, 0.5), seed=4)
        assert report == plain
        assert cli._json_text(report) == cli._json_text(plain)

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


def binomial_pmf(n, p):
    """{k: P(K = k)} for K ~ Binomial(n, p), over the k whose mass is at
    least 1e-17 of the mode's: the ratio f(k + 1) / f(k) = (n - k) p /
    ((k + 1) q) walked out from the mode, then normalized.  Independent of
    the sampler's Stirling formula."""
    q = 1.0 - p
    mode = math.floor((n + 1) * p)
    mass = {mode: 1.0}
    f, k = 1.0, mode
    while k < n and f > 1e-17:
        f *= (n - k) * p / ((k + 1) * q)
        k += 1
        mass[k] = f
    f, k = 1.0, mode
    while k > 0 and f > 1e-17:
        f *= k * q / ((n - k + 1) * p)
        k -= 1
        mass[k] = f
    total = math.fsum(mass.values())
    return {k: mass[k] / total for k in sorted(mass)}


def chi_square(draws, n, p):
    """(statistic, degrees of freedom) of `draws` against Binomial(n, p).
    Consecutive k are merged until each bin expects at least 5 draws; the
    end bins also take every k outside the table."""
    edges, expected, pending = [], [], 0.0
    for k, mass in binomial_pmf(n, p).items():
        pending += mass * len(draws)
        if pending >= 5.0:
            edges.append(k)
            expected.append(pending)
            pending = 0.0
    expected[-1] += pending
    edges[-1] = n
    observed = [0] * len(edges)
    for draw in draws:
        observed[bisect.bisect_left(edges, draw)] += 1
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return statistic, len(edges) - 1


def chi_square_critical(df, z=4.753):
    """Wilson-Hilferty upper quantile of chi-square(df) at the standard
    normal quantile z; z = 4.753 leaves 1e-6 above it."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def log_pmf_ratio_reference(n, num, den, k):
    """log(f(k) / f(m)) for the Binomial(n, num/den) pmf f and its mode m,
    to 60 digits: Stirling's series for each log factorial, whose first
    omitted term is below 1e-60 at the factorials of 1e9 and more used
    here; its log(2 pi) / 2 cancels in the ratio."""

    def log_factorial(j):
        z = Decimal(j + 1)
        tail = sum(1 / (c * z**e) for c, e in ((12, 1), (-360, 3), (1260, 5), (-1680, 7)))
        return (z - Decimal("0.5")) * z.ln() - z + tail

    with localcontext() as context:
        context.prec = 60
        m = (n + 1) * num // den
        ratio = log_factorial(m) + log_factorial(n - m) - log_factorial(k) - log_factorial(n - k)
        return float(ratio + (k - m) * (Decimal(num) / Decimal(den - num)).ln())


#: (n, p, draws): inversion (n p < 10), BTRS (n p >= 10), both at their
#: border, and p > 1/2 reflected onto each.  BTRS accepts most draws in
#: its squeeze without evaluating the pmf, and an error there (a centre
#: off by 1/2, say) shows most at small n: 250,000 draws at n p near 10
#: find that one, 40,000 do not.
SMALL_POINTS = [
    (1, 0.3, 40_000), (20, 0.3, 40_000), (1000, 0.0099, 40_000),
    (20, 0.5, 250_000), (25, 0.41, 250_000), (1000, 0.0101, 40_000),
    (30, 0.8, 40_000), (60, 0.75, 40_000), (10**5, 0.5, 40_000),
]
#: Points of the mc_sweep grid, n = 2e5 eta^m and p+ = (1 -+ V)/2 for
#: V in {0.7, 0.95}, and the retention draw Binomial(2e5, 0.9^4).
GRID_POINTS = [
    (200_000, 0.975, 40_000), (145_800, 0.025, 40_000), (48_020, 0.15, 40_000),
    (98_000, 0.85, 40_000), (200_000, 0.9**4, 40_000),
]


class TestBinomialSampler:
    """The exact sampler behind RNG contract 3 against the exact pmf."""

    # Each point draws from a fixed seed.  For a correct sampler and a seed
    # drawn at random, each test would fail with probability about 1e-6
    # (14 tests: about 1.4e-5 for the class).
    @pytest.mark.parametrize("n, p, draws", SMALL_POINTS + GRID_POINTS)
    def test_matches_the_exact_pmf(self, n, p, draws):
        rng = random.Random(f"chi-square:{n}:{p}")
        sample = [_binomial(rng, n, p) for _ in range(draws)]
        statistic, df = chi_square(sample, n, p)
        assert statistic < chi_square_critical(df), (statistic, df)

    @pytest.mark.parametrize("n", [1, 7, 10**6, MAX_SHOTS])
    def test_p_zero_and_one_are_exact_and_draw_nothing(self, n):
        rng = random.Random(1)
        state = rng.getstate()
        assert [_binomial(rng, n, p) for p in (0.0, -0.0, 1.0)] == [0, 0, n]
        assert rng.getstate() == state

    @pytest.mark.parametrize("p", [1e-18, 0.3, 0.5, 0.9])
    def test_draws_at_max_shots(self, p):
        rng = random.Random(5)
        draws = [_binomial(rng, MAX_SHOTS, p) for _ in range(200)]
        sd = math.sqrt(MAX_SHOTS * p * (1 - p))
        assert all(0 <= k <= MAX_SHOTS for k in draws)
        assert all(abs(k - MAX_SHOTS * p) <= 8 * sd + 1 for k in draws)
        # A float holds integers near 2^62 only to a multiple of 1024; the
        # draws still reach every residue.
        assert len({k % 4 for k in draws}) == 4

    @pytest.mark.parametrize("n, p", [(25, 0.41), (1000, 0.0101), (5000, 0.5)])
    def test_log_pmf_ratio_matches_exact_binomials(self, n, p):
        num, den = p.as_integer_ratio()
        mode = (n + 1) * num // den
        sd = math.sqrt(n * p * (1 - p))
        low, high = max(0, int(mode - 10 * sd)), min(n, int(mode + 10 * sd))
        for k in range(low, high + 1, max(1, int(sd / 4))):
            exact = (
                math.log(math.comb(n, k)) - math.log(math.comb(n, mode))
                + (k - mode) * math.log(num / (den - num))
            )
            assert _log_pmf_ratio(n, num, den, k) == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.025, 1e-3])
    def test_log_pmf_ratio_at_max_shots(self, p):
        # Within +-4 sd of the mode, d = k - m reaches about 6e9 and each
        # log1p term about 6e9, but the ratio stays within 1e-12 of a
        # 60-digit reference.
        n = MAX_SHOTS
        num, den = p.as_integer_ratio()
        mode = (n + 1) * num // den
        sd = math.sqrt(n * p * (1 - p))
        for t in (-4, -2.5, -1, -0.3, 0.3, 1, 2.5, 4):
            k = mode + int(t * sd)
            assert _log_pmf_ratio(n, num, den, k) == pytest.approx(
                log_pmf_ratio_reference(n, num, den, k), abs=1e-12
            )

    def test_distinct_keys_give_distinct_streams(self):
        heads = {
            (seed, k, e): tuple(term_rng(seed, k, e).random() for _ in range(2))
            for seed in (0, 1, 10, 2**64)
            for k in range(1, 10)
            for e in ("direct", "yproduct", "bellpairs")
        }
        assert len(set(heads.values())) == len(heads)
        assert term_rng(10, 3, "bellpairs").getstate() == term_rng(10, 3, "bellpairs").getstate()


class TestContractThreeDraws:
    """Pinned draws of RNG contract 3: a change to any of these is a change
    of contract, and RNG_CONTRACT must be bumped with it."""

    def test_substream_head(self):
        rng = term_rng(0, 1)
        assert [rng.random(), rng.random()] == [0.9887411358996124, 0.4520562882221242]

    def test_sampler_draws(self):
        rng = random.Random(2024)
        points = [(20, 0.3), (25, 0.41), (1000, 0.011), (200_000, 0.975),
                  (48_020, 0.15), (MAX_SHOTS, 0.5), (MAX_SHOTS, 1e-18)]
        assert [_binomial(rng, n, p) for n, p in points] == [
            6, 12, 16, 194955, 7142, 4611686018420212581, 11,
        ]

    def test_records(self):
        report = estimate_F(1000, NoiseModel(0.9, 0.8), seed=7)
        counts = [
            (r["shots_retained"], round((1 + r["estimate"]) * r["shots_retained"] / 2))
            for r in report["records"]
        ]
        assert counts == [
            (645, 25), (642, 22), (616, 34), (623, 42), (505, 475),
            (515, 491), (498, 472), (515, 489), (414, 25),
        ]
