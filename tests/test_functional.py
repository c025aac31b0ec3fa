"""Nine-term structure, the operator sum, and its eigenvalue nine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avnlab.functional import (
    CANONICAL,
    EXPECTED_SIGNS,
    BellFunctional,
    ExperimentTerm,
    nine_terms,
    operator_o_check,
    verify_nine_identities,
)
from avnlab.pauli import parse
from avnlab.states import StateVector, build_psi

from conftest import basis, dense_observable, oracle_matrix

# (sign, [alice labels], [bob labels]) per identity, for the matrix oracle
TERM_SPECS = [
    (-1, ["z1"], ["z3"]),
    (-1, ["z2"], ["z4"]),
    (-1, ["x1"], ["x3"]),
    (-1, ["x2"], ["x4"]),
    (+1, ["z1z2"], ["z3", "z4"]),
    (+1, ["x1x2"], ["x3", "x4"]),
    (+1, ["z1", "x2"], ["z3x4"]),
    (+1, ["x1", "z2"], ["x3z4"]),
    (-1, ["z1z2", "x1x2"], ["z3x4", "x3z4"]),
]


def dense_operator_sum():
    """The signed operator sum built purely from the matrix oracle."""
    total = np.zeros((16, 16), dtype=complex)
    for sign, alice, bob in TERM_SPECS:
        product = np.eye(16, dtype=complex)
        for label in alice + bob:
            product = product @ dense_observable(label, 4)
        total += sign * product
    return total


class TestTermStructure:
    def test_signs(self):
        assert tuple(t.sign for t in nine_terms()) == EXPECTED_SIGNS

    def test_factor_counts_match_paper_grouping(self):
        counts = [(len(t.alice_factors), len(t.bob_factors)) for t in nine_terms()]
        assert counts == [
            (1, 1), (1, 1), (1, 1), (1, 1),
            (1, 2), (1, 2), (2, 1), (2, 1), (2, 2),
        ]

    def test_rejects_noncommuting_factors(self):
        with pytest.raises(ValueError):
            ExperimentTerm(+1, (parse("z1", 4), parse("x1", 4)), ())

    def test_rejects_wrong_support(self):
        with pytest.raises(ValueError):
            ExperimentTerm(+1, (parse("z3", 4),), ())

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            ExperimentTerm(2, (parse("z1", 4),), (parse("z3", 4),))

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, None])
    def test_sign_must_be_an_int(self, sign):
        with pytest.raises(ValueError, match=f"^sign must be ±1, got {sign!r}$"):
            ExperimentTerm(sign, (parse("z1", 4),), (parse("z3", 4),))

    @pytest.mark.parametrize(
        "alice, bob",
        [(("z1",), ("z3",)), (None, ()), ((), 3), ((parse("z1", 4), None), ())],
    )
    def test_factors_must_be_pauli_strings(self, alice, bob):
        with pytest.raises(ValueError, match=r"^factors must be PauliStrings, got .*$"):
            ExperimentTerm(+1, alice, bob)

    def test_factor_lists_are_stored_as_tuples(self):
        term = ExperimentTerm(-1, [parse("z1", 4)], [parse("z3", 4)])
        assert term == nine_terms()[0]
        assert type(term.alice_factors) is type(term.bob_factors) is tuple
        assert hash(term) == hash(nine_terms()[0])

    @pytest.mark.parametrize(
        "alice, bob, reason",
        [
            (("z1", "x1"), (), "do not commute"),
            (("z3",), (), "bad Alice factor"),
            (("z1",), ("x1",), "bad Bob factor"),
            # Each factor is one free ±1 value: a sign or the identity is not.
            (("-z1",), ("z3",), "bad Alice factor"),
            (("I",), ("z3",), "bad Alice factor"),
            (("z1",), ("I",), "bad Bob factor"),
            ((parse("z1", 2),), (parse("z1", 2),), "factors on 4 qubits"),
            ((parse("z1", 8),), (), "factors on 4 qubits"),
            ((), (), "one or more factors"),
        ],
    )
    def test_bad_factors_raise_on_every_construction(self, alice, bob, reason):
        # Nothing is cached between constructions: each one checks and raises.
        # Labels are parsed on 4 qubits; PauliStrings are taken as they are.
        alice = tuple(parse(f, 4) if isinstance(f, str) else f for f in alice)
        bob = tuple(parse(f, 4) if isinstance(f, str) else f for f in bob)
        for sign in (+1, -1, +1):
            with pytest.raises(ValueError, match=reason):
                ExperimentTerm(sign, alice, bob)


class TestNineIdentities:
    def test_signs_on_psi(self, psi):
        assert verify_nine_identities(psi) == list(EXPECTED_SIGNS)

    def test_sign_product_is_minus_one(self, psi):
        signs = verify_nine_identities(psi)
        assert np.prod(signs) == -1

    def test_ground_state_mixes_definite_and_nondefinite(self):
        signs = verify_nine_identities(basis(4, "0000"))
        assert signs[0] == signs[1] == +1  # z1z3, z2z4
        assert signs[4] == +1              # z1z2 z3 z4
        for k in (2, 3, 5, 6, 7, 8):       # any x or y content flips bits
            assert signs[k] is None


class TestOperatorO:
    def test_term_sum_equals_dense_oracle(self):
        total = sum(
            t.sign * oracle_matrix(t.observable) for t in nine_terms()
        )
        assert np.allclose(total, dense_operator_sum(), atol=1e-12)

    def test_eigenvalue_nine(self, psi):
        assert operator_o_check(psi)
        assert np.allclose(
            dense_operator_sum() @ psi.amplitudes, 9 * np.asarray(psi.amplitudes),
            atol=1e-12,
        )

    def test_quantum_value_nine(self, psi):
        assert BellFunctional.canonical().value(psi) == pytest.approx(9, abs=1e-12)

    def test_uniform_superposition_matches_oracle(self):
        state = StateVector(4, np.full(16, 0.25, dtype=complex))
        oracle_value = np.vdot(
            state.amplitudes, dense_operator_sum() @ state.amplitudes
        ).real
        value = BellFunctional.canonical().value(state)
        assert value == pytest.approx(oracle_value, abs=1e-12)

    def test_mixed_singlet_family_value_by_sign_sweep(self):
        from avnlab.ks import two_pair_state

        state = two_pair_state("psi-", "psi+")
        signs = verify_nine_identities(state)
        assert None not in signs
        swept = sum(t.sign * s for t, s in zip(nine_terms(), signs))
        value = BellFunctional.canonical().value(state)
        assert value == pytest.approx(swept, abs=1e-12)


class TestOperatorIdentities:
    def test_alice_product_is_minus_yy(self):
        assert parse("z1z2", 4) * parse("x1x2", 4) == parse("-y1y2", 4)

    def test_bob_product_is_plus_yy(self):
        assert parse("z3x4", 4) * parse("x3z4", 4) == parse("y3y4", 4)

    def test_ninth_observable_equals_minus_y_string(self):
        ninth = nine_terms()[8].observable
        assert ninth == parse("-y1y2y3y4", 4)


class TestBellFunctional:
    @pytest.mark.parametrize("terms", [["x"], None, "x", (nine_terms()[0], 1)])
    def test_terms_must_be_experiment_terms(self, terms):
        with pytest.raises(ValueError, match=r"^terms must be ExperimentTerms, got .*$"):
            BellFunctional(terms)

    def test_term_lists_are_stored_as_tuples(self):
        functional = BellFunctional(list(nine_terms()))
        assert type(functional.terms) is tuple
        assert functional == BellFunctional.canonical()
        assert hash(functional) == hash(BellFunctional.canonical())
        assert hash(BellFunctional([])) == hash(BellFunctional(()))
        assert BellFunctional([]).ids == BellFunctional([]).masks == ()

    def test_canonical_is_built_once_at_import(self):
        assert BellFunctional.canonical() is BellFunctional.canonical() is CANONICAL
        assert CANONICAL.terms is nine_terms()

    def test_hidden_variables_are_not_compared_or_shown(self):
        canonical = BellFunctional.canonical()
        assert repr(canonical) == f"BellFunctional(terms={canonical.terms!r})"
        with pytest.raises(AttributeError):
            canonical.ids = ()
        with pytest.raises(AttributeError):
            canonical.masks = ()


class TestWithSigns:
    def test_adapted_functional_value(self, psi):
        flipped = BellFunctional.canonical().with_signs([1] * 9)
        value = flipped.value(psi)
        # each term expectation equals its canonical sign
        assert value == pytest.approx(sum(EXPECTED_SIGNS), abs=1e-12)

    @pytest.mark.parametrize("n_signs", [0, 2, 8, 10, 12])
    def test_one_sign_per_term(self, n_signs):
        with pytest.raises(ValueError, match=f"{n_signs} signs for 9 terms"):
            BellFunctional.canonical().with_signs([1] * n_signs)

    @pytest.mark.parametrize("bad", [0, 2, -2, 0.5, None])
    def test_signs_must_be_plus_or_minus_one(self, bad):
        signs = list(EXPECTED_SIGNS)
        signs[4] = bad
        with pytest.raises(ValueError, match="±1"):
            BellFunctional.canonical().with_signs(signs)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([+1, -1]), min_size=9, max_size=9))
    def test_matches_freshly_built_terms(self, signs):
        canonical = BellFunctional.canonical()
        adapted = canonical.with_signs(signs)
        fresh = tuple(
            ExperimentTerm(s, t.alice_factors, t.bob_factors)
            for s, t in zip(signs, canonical.terms)
        )
        assert adapted.terms == fresh
        assert [hash(t) for t in adapted.terms] == [hash(t) for t in fresh]
        # The copy shares the base functional's hidden variables, which a
        # freshly built functional derives to the same values.
        assert adapted.ids is canonical.ids and adapted.masks is canonical.masks
        rebuilt = BellFunctional(fresh)
        assert (rebuilt.ids, rebuilt.masks) == (canonical.ids, canonical.masks)
        for term, new, base in zip(adapted.terms, fresh, canonical.terms):
            assert term.sign == new.sign
            # The adapted term shares the base term's checked observable.
            assert term.observable is base.observable
            assert term.observable == new.observable
            assert term.ids == new.ids == tuple(f.label for f in base.factors)
            # A term whose sign is unchanged is the base term itself.
            assert (term is base) == (term.sign == base.sign)
