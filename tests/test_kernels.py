"""The bit-sliced enumeration kernels against the brute-force oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from avnlab import cli, kernels, ks, lhv
from avnlab.functional import BellFunctional

from test_ks import _scribble

KERNELS = [kernels.satisfaction_histogram, kernels.max_weighted_parity]


def random_system(rng, n_vars, n_constraints):
    masks = [int(rng.integers(1, 1 << n_vars)) for _ in range(n_constraints)]
    parities = [int(rng.integers(2)) for _ in range(n_constraints)]
    signs = [1 if rng.integers(2) else -1 for _ in range(n_constraints)]
    return masks, parities, signs


@st.composite
def systems(draw, max_vars=16, max_constraints=6, min_vars=0):
    """(masks, parities, signs, n_vars) with masks anywhere in [0, 2^n)."""
    n_vars = draw(st.integers(min_vars, max_vars))
    k = draw(st.integers(0, max_constraints))
    masks = draw(st.lists(st.integers(0, (1 << n_vars) - 1), min_size=k, max_size=k))
    parities = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    return masks, parities, signs, n_vars


@st.composite
def one_chunk_systems(draw):
    """(masks, signs, n_vars) on at most 12 variables, many constraints at small n."""
    n_vars = draw(st.integers(0, 12))
    max_constraints = 64 if n_vars <= 10 else 1 << (16 - n_vars)
    masks = draw(st.lists(st.integers(0, (1 << n_vars) - 1), max_size=max_constraints))
    k = len(masks)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    return masks, signs, n_vars


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

    # Every n_vars up to the cap of 17, each on planes of 2^n_vars bits.
    # The oracle's cost grows as (k + 1) * 2^n_vars, which keeps k small
    # at large n_vars.
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 17).flatmap(
            lambda n: systems(
                min_vars=n,
                max_vars=n,
                max_constraints=min(64, max(0, (1 << 18 >> n) - 1)),
            )
        )
    )
    # Masks only on the top variables, whose planes are the widest runs:
    # every assignment below 2^15 has the same value.
    @example(([1 << 16, 1 << 15, 1 << 16 | 1 << 15], [1, 0, 1], [-1, 1, -1], 17))
    @example(([1 << 16 | 1 << 14, 1 << 15, 1 << 16], [1, 0, 1], [-1, 1, -1], 17))
    @example(([(i % 7 + 1) << 10 for i in range(64)], [i % 2 for i in range(64)],
              [(-1) ** (i // 3) for i in range(64)], 13))
    # Masks only on the low variables, whose planes repeat 2^13 times or more.
    @example(([0b1011, 1 << 3], [1, 1], [1, -1], 17))
    @example(([(i * 37) % 1024 for i in range(64)], [i % 2 for i in range(64)],
              [(-1) ** i for i in range(64)], 13))
    @example(([], [], [], 17))
    def test_many_chunks_match_oracle(self, system):
        masks, parities, signs, n_vars = system
        assert kernels.satisfaction_histogram(
            masks, parities, n_vars
        ) == oracle.satisfaction_histogram(masks, parities, n_vars)
        assert kernels.max_weighted_parity(
            masks, signs, n_vars
        ) == oracle.max_weighted_parity(masks, signs, n_vars)

    # Up to 12 variables, as for the local bounds, with up to 64
    # constraints.  Repeated masks make ties that the smallest witness
    # must break.
    @settings(max_examples=80, deadline=None)
    @given(one_chunk_systems())
    @example(([0b011, 0b110], [-1, -1], 3))
    # Distinct columns that tie: x = 1, 2, 3 in the first, x = 2 and 6
    # in the second.
    @example(([1, 2, 3], [-1, -1, -1], 2))
    @example(([1, 2, 4, 4], [1, -1, 1, -1], 3))
    @example(([0, 0], [1, -1], 12))
    @example(([], [], 0))
    def test_one_chunk_matches_oracle(self, system):
        masks, signs, n_vars = system
        result = kernels.max_weighted_parity(masks, signs, n_vars)
        assert result == oracle.max_weighted_parity(masks, signs, n_vars)
        assert all(type(v) is int for v in result)

    # At 17 variables, the cap, padded with pairs of opposite constraints
    # on one mask, which cancel but fill the counter's planes; the witness
    # is still the lowest assignment that attains the maximum.
    @pytest.mark.parametrize("k", [1, 9, 64])
    @pytest.mark.parametrize(
        "masks, signs, expected",
        [
            # The maximum is attained in both halves; the lower one wins.
            ([(1 << 16) | 1], [-1], (1, 1)),
            # First attained only in the upper half, at bit 16.
            ([1 << 16], [-1], (1, 1 << 16)),
            # A constant functional ties everywhere; the witness is 0.
            ([0, 0], [1, -1], (0, 0)),
        ],
    )
    def test_ties_give_the_smallest_witness(self, masks, signs, expected, k):
        padding = [(i * 40503) % (1 << 17) for i in range((k - len(masks)) // 2)]
        masks = masks + [mask for mask in padding for _ in range(2)]
        signs = signs + [1, -1] * len(padding)
        assert kernels.max_weighted_parity(masks, signs, 17) == expected


class TestValidation:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_lengths_must_match(self, kernel):
        with pytest.raises(ValueError, match="2 masks but 1"):
            kernel([1, 3], [1], 2)
        with pytest.raises(ValueError, match="1 masks but 2"):
            kernel([1], [1, 1], 2)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n_vars", [-1, 18, 31])
    def test_n_vars_outside_cap(self, kernel, n_vars):
        with pytest.raises(ValueError, match=r"^n_vars must be in \[0, 17\], got -?\d+$"):
            kernel([], [], n_vars)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mask", [1.5, "1", None, True, False])
    def test_masks_must_be_integers(self, kernel, mask):
        with pytest.raises(ValueError, match="masks must be integers"):
            kernel([mask], [1], 2)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n_vars", [2.0, True, "2", None])
    def test_n_vars_must_be_an_int(self, kernel, n_vars):
        with pytest.raises(ValueError, match="n_vars must be an int"):
            kernel([1], [1], n_vars)

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
        full = (1 << 17) - 1
        assert kernels.satisfaction_histogram([full], [0], 17) == [1 << 16, 1 << 16]
        assert kernels.max_weighted_parity([full], [-1], 17) == (1, 1)

    @pytest.mark.parametrize("parity", [2, -1, 1.0, True, False])
    def test_parity_outside_zero_one(self, parity):
        with pytest.raises(ValueError, match="parity"):
            kernels.satisfaction_histogram([1], [parity], 1)

    # Signs are ±1: integer weights, however large, are rejected.
    @pytest.mark.parametrize("signs", [[2**62, 2**62], [2**70], [-(2**63)]])
    def test_weights_that_could_overflow_int64(self, signs):
        with pytest.raises(ValueError, match="^sign values must be 1 or -1"):
            kernels.max_weighted_parity([1] * len(signs), signs, 1)

    @pytest.mark.parametrize("sign", [0, 2, -2, 2**62])
    def test_signs_must_be_plus_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="^sign values must be 1 or -1"):
            kernels.max_weighted_parity([1, 1], [1, sign], 1)

    @pytest.mark.parametrize("sign", [1.5, 1.0, "1", True, False])
    def test_signs_must_be_integers(self, sign):
        with pytest.raises(ValueError, match="integers"):
            kernels.max_weighted_parity([1], [sign], 1)

    def test_largest_weight_sum_is_accepted(self):
        # 64 constraints, the cap, all met at x = 0: the largest value.
        assert kernels.max_weighted_parity([0] * 64, [1] * 64, 1) == (64, 0)

    # Constant constraints with sign -1 fail at every assignment, so the
    # best cost fills the counter up to its top plane and the best value
    # is negative; mixed with other signs, the witness must still be exact.
    @pytest.mark.parametrize(
        "masks, signs",
        [
            ([1, 2], [1, -1]),
            ([0], [-1]),
            ([0, 0, 0], [-1, -1, -1]),
            ([0, 0, 0, 0], [-1, -1, -1, -1]),
            ([1, 2, 3], [-1, 1, -1]),
            ([3, 1, 2, 0], [-1, -1, -1, 1]),
        ],
    )
    def test_mixed_sign_extremes_match_oracle(self, masks, signs):
        result = kernels.max_weighted_parity(masks, signs, 2)
        assert result == oracle.max_weighted_parity(masks, signs, 2)


class TestMemory:
    """Planes are at most 2^17 bits, the cap, and constraint planes are
    made one at a time, so the working set stays small whatever the
    problem size."""

    LIMIT = 512 * 1024

    @staticmethod
    def peak_bytes(masks, parities, n_vars):
        # A first call leaves nothing behind that the second would reuse.
        kernels.satisfaction_histogram(masks, parities, n_vars)
        tracemalloc.start()
        try:
            kernels.satisfaction_histogram(masks, parities, n_vars)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ks_histogram(self):
        system = ks.KsTable.canonical().parity_system
        assert (len(system.masks), system.n_vars) == (10, 17)
        peak = self.peak_bytes(system.masks, system.parities, system.n_vars)
        assert peak < self.LIMIT

    def test_64_constraint_histogram(self):
        masks = [(1 << 16) - 1 - 997 * i for i in range(64)]
        peak = self.peak_bytes(masks, [i % 2 for i in range(64)], 16)
        assert peak < self.LIMIT

    def test_one_constraint_histogram(self):
        # Planes of 2^17 bits, the cap, with a counter of one plane.
        assert self.peak_bytes([0b1011], [1], 17) < self.LIMIT


class TestKernelContracts:
    """What callers may rely on: results that belong to the caller, exact
    answers at the constraint cap, memory that does not grow from run to
    run, and the number of kernel calls per certificate."""

    def test_mutating_results_leaves_the_next_certificate_unchanged(self, tmp_path):
        out = tmp_path / "all.json"
        args = ["all", "--shots", "1000", "--json", "--out", str(out)]
        assert cli.main(args) == 0
        before = out.read_bytes()
        lhv_system = lhv.constraints_for(BellFunctional.canonical())
        ks_system = ks.KsTable.canonical().parity_system
        for system in (lhv_system, ks_system):
            _scribble(kernels.satisfaction_histogram(system.masks, system.parities,
                                                     system.n_vars))
            _scribble(system.prove())
        _scribble(lhv.certificate())
        _scribble(ks.certificate())
        assert cli.main(args) == 0
        assert out.read_bytes() == before

    @settings(max_examples=40, deadline=None)
    @given(systems(max_vars=10, max_constraints=64))
    @example(([], [], [], 0))
    @example(([1 << 9, 3], [0, 0], [1, -1], 10))
    @example(([0b1111] * 3, [0] * 3, [-1] * 3, 4))
    @example(([(i * 37) % 1024 for i in range(64)], [i % 2 for i in range(64)],
              [(-1) ** i for i in range(64)], 10))
    def test_up_to_64_constraints_match_oracle(self, system):
        masks, parities, signs, n_vars = system
        assert kernels.satisfaction_histogram(
            masks, parities, n_vars
        ) == oracle.satisfaction_histogram(masks, parities, n_vars)
        assert kernels.max_weighted_parity(
            masks, signs, n_vars
        ) == oracle.max_weighted_parity(masks, signs, n_vars)

    def test_repeated_all_runs_stay_within_a_memory_bound(self, tmp_path):
        # Nothing is kept from one run to the next.  What stays allocated
        # is the interpreter's free lists, which stop growing at about
        # 530 KB; a leak of 8 KB per run would pass 768 KB.
        args = ["all", "--shots", "1000", "--json", "--out", str(tmp_path / "all.json")]
        assert cli.main(args) == 0
        tracemalloc.start()
        try:
            for _ in range(30):
                assert cli.main(args) == 0
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 768 * 1024
        assert peak < 1536 * 1024

    def test_one_all_run_makes_two_histograms_and_18_bounds(self, tmp_path, monkeypatch):
        # The LHV and KS histograms, and the canonical and 17 sweep bounds.
        calls = []
        for name in ("satisfaction_histogram", "max_weighted_parity"):
            kernel = getattr(kernels, name)
            monkeypatch.setattr(
                kernels, name,
                lambda *args, _name=name, _kernel=kernel: calls.append(_name) or _kernel(*args),
            )
        out = tmp_path / "all.json"
        assert cli.main(["all", "--shots", "1000", "--json", "--out", str(out)]) == 0
        assert calls.count("satisfaction_histogram") == 2
        assert calls.count("max_weighted_parity") == 18


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
        assert kernels.BACKEND == "bitslice"
