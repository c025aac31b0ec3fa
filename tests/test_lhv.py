"""Hidden-variable side: constraint impossibility and the local bound."""

import itertools

import numpy as np
import pytest

import kernel_oracle as oracle
import lhv_oracle
from avnlab import ks, lhv
from avnlab.functional import BellFunctional, nine_terms, verify_nine_identities
from avnlab.pauli import parse
from avnlab.states import build_psi

from conftest import dense_observable, oracle_matrix


def make_functional(specs):
    """Tiny functionals for toy cases: specs of (sign, alice, bob) labels."""
    from avnlab.functional import ExperimentTerm

    return BellFunctional(
        tuple(
            ExperimentTerm(
                sign,
                tuple(parse(s, 4) for s in alice),
                tuple(parse(s, 4) for s in bob),
            )
            for sign, alice, bob in specs
        )
    )


def brute_force_bound(functional):
    """Independent enumerator over all ±1 assignments (no kernels)."""
    ids = lhv_oracle.functional_ids(functional)
    best = None
    for values in itertools.product((+1, -1), repeat=len(ids)):
        point = dict(zip(ids, values))
        total = 0
        for term in functional.terms:
            product = term.sign
            for name in lhv_oracle.factor_labels(term):
                product *= point[name]
            total += product
        best = total if best is None else max(best, total)
    return best


def canonical_system():
    return lhv.constraints_for(BellFunctional.canonical())


class TestConstraintSystem:
    def test_nine_constraints_with_expected_products(self):
        system = canonical_system()
        assert system.parities == (1, 1, 1, 1, 0, 0, 0, 0, 1)
        assert system.n_vars == 12

    def test_id_order_is_the_canonical_functionals(self):
        assert lhv.ID_ORDER is BellFunctional.canonical().ids
        assert lhv.ID_ORDER == (
            "z1", "z2", "x1", "x2", "z1z2", "x1x2", "z3", "z4", "x3", "x4", "z3x4", "x3z4",
        )

    def test_every_id_appears_exactly_twice(self):
        occurrences = {name: 0 for name in lhv.ID_ORDER}
        for term in nine_terms():
            for name in lhv_oracle.factor_labels(term):
                occurrences[name] += 1
        assert occurrences == {name: 2 for name in lhv.ID_ORDER}
        assert canonical_system().prove()["occurrences"] == [2] * 12

    def test_constraint_ids_match_term_factors(self):
        system = canonical_system()
        for mask, term in zip(system.masks, nine_terms()):
            ids = {lhv.ID_ORDER[i] for i in range(12) if mask >> i & 1}
            assert ids == {f.label for f in term.factors}

    def test_ids_are_derived_from_the_terms(self):
        # Alice's ids first, then Bob's, each in order of first appearance.
        functional = make_functional(
            [(+1, ["y1"], ["z3"]), (-1, ["x2", "y1"], ["x3"]), (+1, ["x2"], ["z3"])]
        )
        bound, witness = lhv.local_bound(functional)
        assert functional.ids == ("y1", "x2", "z3", "x3")
        assert functional.masks == (0b0101, 0b1011, 0b0110)
        assert list(witness) == list(functional.ids)
        assert lhv.constraints_for(functional).masks == functional.masks
        assert bound == brute_force_bound(functional) == 3

    def test_more_ids_than_the_kernels_take_raise_on_every_call(self):
        # Nine different factors per observer: 18 ids, one past the cap.
        alice = ["z1", "z2", "x1", "x2", "y1", "y2", "z1z2", "x1x2", "y1y2"]
        bob = ["z3", "z4", "x3", "x4", "y3", "y4", "z3x4", "x3z4", "y3y4"]
        functional = make_functional([(+1, [a], [b]) for a, b in zip(alice, bob)])
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^n_vars must be in \[0, 17\], got 18$"):
                lhv.prove_no_valid_assignment(lhv.constraints_for(functional))
            with pytest.raises(ValueError, match=r"^n_vars must be in \[0, 17\], got 18$"):
                lhv.local_bound(functional)

    def test_repeated_factor_cancels_in_its_mask(self):
        # z1·z1 is the identity: term 1 selects z3 alone, so the bound is 2.
        functional = make_functional([(+1, ["z1", "z1"], ["z3"]), (-1, ["z1"], ["z3"])])
        assert lhv.constraints_for(functional).masks == (0b10, 0b11)
        assert lhv.local_bound(functional)[0] == brute_force_bound(functional) == 2

    def test_sign_adapted_functionals_have_equal_masks(self):
        functional = BellFunctional.canonical()
        flipped = functional.with_signs([-t.sign for t in functional.terms])
        system, flipped_system = (lhv.constraints_for(f) for f in (functional, flipped))
        assert flipped_system.masks == system.masks
        assert flipped_system.parities == tuple(1 - p for p in system.parities)


class TestSweepBounds:
    @pytest.mark.parametrize("pair13", ["phi+", "phi-", "psi+", "psi-"])
    @pytest.mark.parametrize("pair24", ["phi+", "phi-", "psi+", "psi-"])
    def test_sweep_functional_matches_oracle(self, pair13, pair24):
        signs = verify_nine_identities(ks.two_pair_state(pair13, pair24))
        adapted = BellFunctional.canonical().with_signs(signs)
        masks = lhv.constraints_for(adapted).masks
        bound, witness = oracle.max_weighted_parity(masks, signs, len(lhv.ID_ORDER))
        assert lhv.local_bound(adapted) == (bound, lhv.assignment_from_int(witness, lhv.ID_ORDER))
        assert bound == brute_force_bound(adapted) == 7


class TestCheckAssignment:
    def test_all_plus_one_satisfies_four(self):
        values = {name: +1 for name in lhv.ID_ORDER}
        assert lhv_oracle.check_assignment(values, BellFunctional.canonical()) == 4

    def test_no_assignment_satisfies_all_nine(self):
        functional = BellFunctional.canonical()
        ids = lhv_oracle.functional_ids(functional)
        best = max(
            lhv_oracle.check_assignment(dict(zip(ids, values)), functional)
            for values in itertools.product((+1, -1), repeat=len(ids))
        )
        assert best == 8

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError):
            lhv_oracle.check_assignment({"z1": 1}, BellFunctional.canonical())


class TestImpossibilityProof:
    def test_canonical_certificate(self):
        proof = lhv.prove_no_valid_assignment(canonical_system())
        assert proof["parity_product"] == -1
        assert proof["all_ids_even_multiplicity"]
        assert proof["parity_says_impossible"]
        assert proof["exhaustive_count_satisfying_all"] == 0
        assert proof["max_simultaneously_satisfiable"] == 8
        assert proof["assignments_checked"] == 4096

    def test_flipping_ninth_sign_makes_it_satisfiable(self):
        system = canonical_system()
        mutated = lhv.ParitySystem(system.masks, system.parities[:8] + (0,), system.n_vars)
        proof = lhv.prove_no_valid_assignment(mutated)
        assert proof["parity_product"] == +1
        assert not proof["parity_says_impossible"]
        assert proof["exhaustive_count_satisfying_all"] > 0
        # all-plus-one fails (the four -1 constraints), but some vertex works
        functional = BellFunctional.canonical()
        flipped = functional.with_signs([t.sign for t in functional.terms][:8] + [+1])
        assert lhv.constraints_for(flipped) == mutated
        assert lhv_oracle.check_assignment({n: 1 for n in lhv.ID_ORDER}, flipped) == 5

    @pytest.mark.parametrize("flip", range(9))
    def test_parity_and_exhaustion_agree_on_mutations(self, flip):
        system = canonical_system()
        parities = list(system.parities)
        parities[flip] ^= 1
        mutated = lhv.ParitySystem(system.masks, tuple(parities), system.n_vars)
        proof = lhv.prove_no_valid_assignment(mutated)
        assert proof["parity_product"] == +1
        assert proof["exhaustive_count_satisfying_all"] > 0

    def test_single_constraint_leaves_half(self):
        system = lhv.constraints_for(make_functional([(-1, ["z1"], ["z3"])]))
        proof = lhv.prove_no_valid_assignment(system)
        assert proof["exhaustive_count_satisfying_all"] == 2
        assert proof["assignments_checked"] == 4

    def test_disagreeing_count_is_an_internal_error(self, monkeypatch):
        # A histogram that claims a satisfying assignment contradicts the
        # parity argument; the proof must refuse it rather than report it.
        monkeypatch.setattr(
            lhv.kernels, "satisfaction_histogram", lambda m, p, n: [0] * 9 + [1]
        )
        with pytest.raises(AssertionError, match="disagree"):
            lhv.prove_no_valid_assignment(canonical_system())

    def test_malformed_system_is_rejected_by_the_kernel(self):
        with pytest.raises(ValueError, match="parity"):
            lhv.ParitySystem((0b11,), (2,), 2).prove()
        with pytest.raises(ValueError, match="outside"):
            lhv.ParitySystem((0b100,), (1,), 2).prove()


class TestLocalBound:
    def test_paper_functional_bound_is_seven(self):
        bound, witness = lhv.local_bound(BellFunctional.canonical())
        assert bound == 7
        assert lhv_oracle.functional_at_point(BellFunctional.canonical(), witness) == 7

    def test_witness_is_lexicographically_first(self):
        functional = BellFunctional.canonical()
        bound, witness = lhv.local_bound(functional)
        for x in range(4096):
            values = lhv.assignment_from_int(x, lhv.ID_ORDER)
            if lhv_oracle.functional_at_point(functional, values) == bound:
                assert values == witness
                break

    def test_single_term_bound_is_one(self):
        functional = make_functional([(-1, ["z1"], ["z3"])])
        bound, _ = lhv.local_bound(functional)
        assert bound == 1

    def test_chsh_style_toy_matches_brute_force(self):
        functional = make_functional(
            [
                (+1, ["z1"], ["z3"]),
                (+1, ["x1"], ["x3"]),
                (+1, ["z1"], ["x3"]),
                (-1, ["x1"], ["z3"]),
            ]
        )
        bound, _ = lhv.local_bound(functional)
        assert bound == brute_force_bound(functional) == 2

    def test_nine_term_bound_matches_brute_force(self):
        assert brute_force_bound(BellFunctional.canonical()) == 7

    def test_vertex_values_are_odd_integers_in_range(self):
        functional = BellFunctional.canonical()
        for x in range(4096):
            value = lhv_oracle.functional_at_point(
                functional, lhv.assignment_from_int(x, lhv.ID_ORDER)
            )
            assert value == int(value)
            assert int(value) % 2 == 1
            assert -9 <= value <= 9

    def test_invariant_under_observer_internal_relabeling(self):
        # swap qubits 1<->2 and 3<->4 in every factor label
        table = str.maketrans("1234", "2143")
        permuted = make_functional(
            [
                (
                    t.sign,
                    [f.label.translate(table) for f in t.alice_factors],
                    [f.label.translate(table) for f in t.bob_factors],
                )
                for t in nine_terms()
            ]
        )
        bound, _ = lhv.local_bound(permuted)
        assert bound == 7

    def test_factorizing_vertices_cannot_beat_seven(self):
        singles = ("z1", "z2", "x1", "x2", "z3", "z4", "x3", "x4")
        best = -99
        functional = BellFunctional.canonical()
        for values in itertools.product((+1, -1), repeat=8):
            point = dict(zip(singles, values))
            point["z1z2"] = point["z1"] * point["z2"]
            point["x1x2"] = point["x1"] * point["x2"]
            point["z3x4"] = point["z3"] * point["x4"]
            point["x3z4"] = point["x3"] * point["z4"]
            best = max(best, lhv_oracle.functional_at_point(functional, point))
        assert best <= 7


class TestMultilinearity:
    def test_interior_sampling_never_exceeds_bound(self):
        assert lhv_oracle.bound_is_attained_at_vertices(
            BellFunctional.canonical(), trials=100_000, seed=0
        )

    def test_zero_point_is_zero(self):
        value = lhv_oracle.functional_at_point(
            BellFunctional.canonical(), {name: 0.0 for name in lhv.ID_ORDER}
        )
        assert value == 0.0 <= 7

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            lhv_oracle.bound_is_attained_at_vertices(BellFunctional.canonical(), 0, 0)


class TestVisibilityThreshold:
    def test_threshold_is_seven_ninths(self):
        threshold = lhv.visibility_threshold(BellFunctional.canonical())
        assert threshold == (7, 9)
        assert threshold[0] / threshold[1] == pytest.approx(7 / 9, abs=1e-15)

    def test_threshold_is_in_lowest_terms(self):
        # All-plus signs: bound 9 at the all-plus vertex, so L/Q = 9/9 = 1/1.
        all_plus = BellFunctional.canonical().with_signs((+1,) * 9)
        assert lhv.visibility_threshold(all_plus) == (1, 1)

    def test_every_term_observable_is_traceless(self):
        for t in nine_terms():
            assert abs(np.trace(oracle_matrix(t.observable))) < 1e-12

    @pytest.mark.parametrize("visibility", [0.0, 0.5, 7 / 9, 1.0])
    def test_werner_scaling_by_density_matrix_oracle(self, visibility):
        psi = np.asarray(build_psi().amplitudes)
        rho = visibility * np.outer(psi, psi.conj()) + (1 - visibility) * np.eye(16) / 16
        value = sum(
            t.sign * np.trace(rho @ oracle_matrix(t.observable)).real
            for t in nine_terms()
        )
        assert value == pytest.approx(9 * visibility, abs=1e-12)

    def test_violation_only_above_threshold(self):
        assert 9 * 1.0 > 7
        assert 9 * 0.0 < 7
        assert 9 * (7 / 9) == pytest.approx(7, abs=1e-12)


class TestCertificate:
    def test_json_ready(self):
        import json

        report = lhv.certificate()
        json.dumps(report)
        assert report["local_bound"] == 7
        assert report["satisfying_count"] == 0
        assert report["visibility_threshold_exact"] == "7/9"
        assert report["all_ok"] is True
