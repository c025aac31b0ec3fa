"""The numpy enumeration kernels against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from avnlab import kernels, lhv

KERNELS = [kernels.satisfaction_histogram, kernels.max_weighted_parity]


def random_system(rng, n_vars, n_constraints):
    masks = [int(rng.integers(1, 1 << n_vars)) for _ in range(n_constraints)]
    parities = [int(rng.integers(2)) for _ in range(n_constraints)]
    signs = [1 if rng.integers(2) else -1 for _ in range(n_constraints)]
    return masks, parities, signs


@st.composite
def systems(draw, max_vars=16, max_constraints=6):
    """(masks, parities, signs, n_vars) with masks anywhere in [0, 2^n)."""
    n_vars = draw(st.integers(0, max_vars))
    k = draw(st.integers(0, max_constraints))
    masks = draw(st.lists(st.integers(0, (1 << n_vars) - 1), min_size=k, max_size=k))
    parities = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    signs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return masks, parities, signs, n_vars


class TestPureKernels:
    """Small cases whose answers are known without the oracle."""

    def test_histogram_counts_all_assignments(self):
        hist = kernels.satisfaction_histogram([0b11, 0b01], [1, 0], 4)
        assert sum(hist) == 16

    def test_histogram_single_parity_constraint(self):
        # popcount(x & 0b1) odd for half the assignments
        assert kernels.satisfaction_histogram([0b1], [1], 10) == [512, 512]

    def test_max_weighted_parity_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            masks, _, signs = random_system(rng, 6, 4)
            best, witness = kernels.max_weighted_parity(masks, signs, 6)
            values = []
            for x in range(64):
                v = sum(
                    -s if bin(x & m).count("1") % 2 else s
                    for m, s in zip(masks, signs)
                )
                values.append(v)
            assert best == max(values)
            assert witness == values.index(best)


class TestBackendAgreement:
    def test_histograms_match(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n_vars = int(rng.integers(4, 14))
            masks, parities, _ = random_system(rng, n_vars, int(rng.integers(1, 12)))
            assert kernels.satisfaction_histogram(
                masks, parities, n_vars
            ) == oracle.satisfaction_histogram(masks, parities, n_vars)

    def test_max_weighted_parity_matches(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n_vars = int(rng.integers(4, 14))
            masks, _, signs = random_system(rng, n_vars, int(rng.integers(1, 12)))
            assert kernels.max_weighted_parity(
                masks, signs, n_vars
            ) == oracle.max_weighted_parity(masks, signs, n_vars)

    @settings(max_examples=60, deadline=None)
    @given(systems())
    @example(([], [], [], 0))
    @example(([], [], [], 5))
    @example(([0], [1], [-1], 0))
    @example(([1 << 16, (1 << 16) | 1, 0b101], [1, 0, 1], [-1, 1, -1], 17))
    def test_property_matches_oracle(self, system):
        masks, parities, signs, n_vars = system
        hist = kernels.satisfaction_histogram(masks, parities, n_vars)
        assert hist == oracle.satisfaction_histogram(masks, parities, n_vars)
        assert all(type(h) is int for h in hist)
        result = kernels.max_weighted_parity(masks, signs, n_vars)
        assert result == oracle.max_weighted_parity(masks, signs, n_vars)
        assert all(type(v) is int for v in result)

    @pytest.mark.parametrize(
        "masks, signs, expected",
        [
            # The maximum is attained in every chunk; the first one wins.
            ([(1 << 16) | 1], [-1], (1, 1)),
            # First attained only past the first chunks, at bit 16.
            ([1 << 16], [-1], (1, 1 << 16)),
            # A constant functional ties everywhere; the witness is 0.
            ([0, 0], [1, -1], (0, 0)),
        ],
    )
    def test_ties_give_the_smallest_witness(self, masks, signs, expected):
        assert kernels.max_weighted_parity(masks, signs, 17) == expected


class TestValidation:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_lengths_must_match(self, kernel):
        with pytest.raises(ValueError, match="2 masks but 1"):
            kernel([1, 3], [1], 2)
        with pytest.raises(ValueError, match="1 masks but 2"):
            kernel([1], [1, 1], 2)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n_vars", [-1, 31])
    def test_n_vars_outside_cap(self, kernel, n_vars):
        with pytest.raises(ValueError, match="n_vars"):
            kernel([], [], n_vars)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rejects_oversized_problems(self, kernel):
        with pytest.raises(ValueError, match="at most 64"):
            kernel([1] * 65, [1] * 65, 4)
        kernel([1] * 64, [1] * 64, 4)  # 64 is allowed

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mask", [8, 4, -1])
    def test_mask_outside_range(self, kernel, mask):
        with pytest.raises(ValueError, match="outside"):
            kernel([1, mask], [0, 1], 2)

    def test_largest_mask_is_accepted(self):
        assert kernels.satisfaction_histogram([0b11], [0], 2) == [2, 2]

    @pytest.mark.parametrize("parity", [2, -1])
    def test_parity_outside_zero_one(self, parity):
        with pytest.raises(ValueError, match="parity"):
            kernels.satisfaction_histogram([1], [parity], 1)

    @pytest.mark.parametrize("signs", [[2**62, 2**62], [2**70], [-(2**63)]])
    def test_weights_that_could_overflow_int64(self, signs):
        with pytest.raises(ValueError, match="2\\^63"):
            kernels.max_weighted_parity([1] * len(signs), signs, 1)

    @pytest.mark.parametrize("sign", [1.5, 1.0, "1"])
    def test_signs_must_be_integers(self, sign):
        with pytest.raises(ValueError, match="integers"):
            kernels.max_weighted_parity([1], [sign], 1)

    def test_largest_weight_sum_is_accepted(self):
        # x = 0 attains the full sum 2^63 - 1, which still fits in int64.
        result = kernels.max_weighted_parity([1, 1], [2**62, 2**62 - 1], 1)
        assert result == (2**63 - 1, 0)


class TestParitySystem:
    """`lhv.ParitySystem.prove` against the oracle on generated systems."""

    @settings(max_examples=60, deadline=None)
    @given(systems(max_vars=12))
    @example(([], [], [], 3))
    @example(([0], [1], [-1], 0))
    @example(([0b11, 0b11], [0, 1], [1, 1], 2))
    @example(([0b011, 0b110, 0b101], [1, 0, 0], [1, 1, 1], 3))
    def test_prove_matches_oracle(self, system):
        masks, parities, _, n_vars = system
        proof = lhv.ParitySystem(tuple(masks), tuple(parities), n_vars).prove()
        hist = oracle.satisfaction_histogram(masks, parities, n_vars)
        assert proof["histogram"] == hist
        assert proof["occurrences"] == [
            sum(bool(mask & 1 << i) for mask in masks) for i in range(n_vars)
        ]
        assert proof["parity_product"] == (-1) ** sum(parities)
        assert proof["exhaustive_count_satisfying_all"] == hist[-1]
        assert proof["assignments_checked"] == 1 << n_vars
        if proof["parity_says_impossible"]:
            assert hist[-1] == 0


class TestBackendSelection:
    def test_default_backend_is_named(self):
        assert kernels.BACKEND == "numpy"
