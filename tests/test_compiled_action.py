"""The Pauli action of whole families and the stored observables and labels.

`states.images`, `eigensigns`, `expectations` and the Born tables take a
family of Pauli strings at once.  These tests pin each family result to
the same function applied one operator at a time, to a scatter copy of the
per-operator formula (byte for byte wherever the arithmetic is exact), to
the numpy formulas of `tests/dense_oracle.py` and to the dense-matrix
oracle, for every Pauli string on up to six qubits.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from avnlab import ks, states
from avnlab.functional import BellFunctional, ExperimentTerm, nine_terms
from avnlab.pauli import PauliString
from avnlab.simulate import _measurement_plan

import dense_oracle
from conftest import basis, oracle_matrix

MAX_QUBITS = 6

PLANS = [(k, "direct") for k in range(1, 10)] + [(9, "yproduct"), (9, "bellpairs")]
PAIRS = ("phi+", "phi-", "psi+", "psi-")
NINE = [term.observable for term in nine_terms()]


def uncached_apply(op, amps):
    """The dense action with every derived array rebuilt per call."""
    n = op.n_qubits
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint32)
    phase = (1j) ** ((op.phase_power + op._n_y()) % 4)
    z_par = np.bitwise_count(idx & np.uint32(op.z_mask)) & 1
    out = np.empty(dim, dtype=complex)
    out[idx ^ np.uint32(op.x_mask)] = phase * np.where(z_par, -1.0, 1.0) * amps
    return out


def same_entries(got, want) -> bool:
    """Equal as complex numbers, and byte for byte on every nonzero entry:
    the engine writes 0j where the formula may write a signed zero."""
    want = [complex(w) for w in want]
    return list(got) == want and all(
        (g.real.hex(), g.imag.hex()) == (w.real.hex(), w.imag.hex())
        for g, w in zip(got, want)
        if w
    )


def uncached_born_hex(factors, amps):
    """Born table from the uncached action, each probability as float.hex."""
    table = {}
    for outcome in itertools.product((+1, -1), repeat=len(factors)):
        vec = amps
        for eps, f in zip(outcome, factors):
            vec = 0.5 * (vec + eps * uncached_apply(f, vec))
        table[outcome] = float(np.sum(np.abs(vec) ** 2)).hex()
    return table


@st.composite
def paulis(draw, n_qubits=None):
    n = draw(st.integers(1, MAX_QUBITS)) if n_qubits is None else n_qubits
    full = (1 << n) - 1
    return PauliString(
        n, draw(st.integers(0, full)), draw(st.integers(0, full)), draw(st.integers(0, 3))
    )


@st.composite
def pauli_pairs(draw):
    n = draw(st.integers(1, MAX_QUBITS))
    return draw(paulis(n)), draw(paulis(n))


_parts = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3, allow_nan=False)
)


def amplitudes(n):
    return st.lists(
        st.builds(complex, _parts, _parts), min_size=1 << n, max_size=1 << n
    ).map(lambda values: np.array(values, dtype=complex))


@st.composite
def op_and_amplitudes(draw):
    op = draw(paulis())
    return op, draw(amplitudes(op.n_qubits))


@st.composite
def families(draw):
    """(ops, state): 1-12 Pauli strings, repeats allowed, and a random, a
    basis or a two-pair eigenstate on the same qubits."""
    kind = draw(st.sampled_from(["random", "basis", "two_pair"]))
    if kind == "two_pair":
        pairs = st.sampled_from(PAIRS)
        state = ks.two_pair_state(draw(pairs), draw(pairs))
    else:
        n = draw(st.integers(1, MAX_QUBITS))
        if kind == "basis":
            bits = draw(st.integers(0, (1 << n) - 1))
            state = basis(n, format(bits, f"0{n}b"))
        else:
            amps = draw(amplitudes(n))
            norm = np.linalg.norm(amps)
            assume(norm > 1e-3)
            state = states.StateVector(n, amps / norm)
    distinct = draw(st.lists(paulis(state.n_qubits), min_size=1, max_size=12))
    ops = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
    return ops, state


def hermitian(op):
    return PauliString(op.n_qubits, op.x_mask, op.z_mask, op.phase_power & 2)


class TestCompiledAction:
    @settings(max_examples=150, deadline=None)
    @given(op_and_amplitudes())
    def test_matches_uncached_formula_bytewise(self, case):
        # One image of a state whose amplitudes include signed zeros.
        op, amps = case
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        state = states.StateVector(op.n_qubits, amps / norm)
        got = states.images([op], state)[0]
        assert same_entries(got, uncached_apply(op, state.amplitudes))

    @settings(max_examples=100, deadline=None)
    @given(op_and_amplitudes())
    def test_image_matches_dense_matrix(self, case):
        op, amps = case
        norm = np.linalg.norm(amps)
        if norm < 1e-3:
            amps = np.zeros_like(amps)
            amps[0] = 1.0
        else:
            amps = amps / norm
        state = states.StateVector(op.n_qubits, amps)
        assert np.allclose(
            states.images([op], state)[0], oracle_matrix(op) @ amps, rtol=0, atol=1e-12
        )


class TestStackedFamilies:
    @settings(max_examples=150, deadline=None)
    @given(families())
    @example((NINE, states.build_psi()))
    @example((NINE + NINE[:3], ks.two_pair_state("phi-", "psi+")))
    def test_eigensigns_match_per_op_code(self, case):
        ops, state = case
        want = [dense_oracle.eigensigns([op], state.amplitudes)[0] for op in ops]
        assert [states.eigensigns([op], state)[0] for op in ops] == want
        assert states.eigensigns(ops, state) == want
        assert states.eigensigns(ops, state, rows=states.images(ops, state)) == want

    @settings(max_examples=150, deadline=None)
    @given(families())
    @example((NINE, states.build_psi()))
    @example((NINE, ks.two_pair_state("psi-", "phi+")))
    def test_expectations_match_per_op_code_bytewise(self, case):
        ops, state = case
        ops = [hermitian(op) for op in ops]
        got = [value.hex() for value in states.expectations(ops, state)]
        assert got == [states.expectations([op], state)[0].hex() for op in ops]
        rows = states.images(ops, state)
        assert [value.hex() for value in states.expectations(ops, state, rows)] == got
        # np.vdot sums in its own order, so only exact sums agree bitwise.
        want = dense_oracle.expectations(ops, state.amplitudes)
        assert [float.fromhex(value) for value in got] == pytest.approx(
            want, rel=0, abs=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(families())
    def test_images_match_uncached_formula_bytewise(self, case):
        ops, state = case
        rows = states.images(ops, state)
        assert len(rows) == len(ops)
        for op, row in zip(ops, rows):
            assert same_entries(row, uncached_apply(op, state.amplitudes))

    @settings(max_examples=50, deadline=None)
    @given(families(), st.data())
    def test_bad_member_raises_from_inside_a_family(self, case, data):
        ops, state = case
        ops = [hermitian(op) for op in ops]
        at = data.draw(st.integers(0, len(ops)))
        n = state.n_qubits
        wrong_size = PauliString(n % MAX_QUBITS + 1, 0, 1, 0)
        for call in (states.eigensigns, states.expectations, states.images):
            with pytest.raises(ValueError, match="qubit count mismatch"):
                call(ops[:at] + [wrong_size] + ops[at:], state)
        with pytest.raises(ValueError, match="not Hermitian"):
            states.expectations(ops[:at] + [PauliString(n, 0, 1, 1)] + ops[at:], state)
        nan_state = object.__new__(states.StateVector)
        object.__setattr__(nan_state, "n_qubits", n)
        object.__setattr__(
            nan_state, "amplitudes", (complex(np.nan),) + (0j,) * ((1 << n) - 1)
        )
        for call in (states.eigensigns, states.expectations, states.images):
            with pytest.raises(ValueError, match="not normalized"):
                call(ops, nan_state)

    def test_empty_family(self, psi):
        assert states.eigensigns([], psi) == []
        assert states.expectations([], psi) == []
        assert states.images([], psi) == []
        assert states.born_probabilities([], psi) == {(): pytest.approx(1.0)}

    def test_rows_and_amplitudes_are_immutable(self, psi):
        rows = states.images([PauliString(4, 0b0101, 0b0011, 0), NINE[0]], psi)
        assert [len(row) for row in rows] == [16, 16]
        for value in (rows[0], rows[1], psi.amplitudes):
            with pytest.raises(TypeError):
                value[0] = 1.0

    def test_repeated_families_stay_within_a_memory_bound(self, psi):
        # Nothing is kept between calls, so many distinct families cost no
        # more memory than one.
        def run(count):
            for x in range(count):
                family = [PauliString(4, x % 16, x // 16 % 16, 0), PauliString(4, 0, 0, 0)]
                states.images(family, psi)
                states.images(family[:1], psi)
                states.born_probabilities(family, psi)

        run(8)
        tracemalloc.start()
        try:
            run(300)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 16 * 1024
        assert peak < 64 * 1024


class TestProductsAgainstDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(pauli_pairs())
    def test_product_matrix_is_matrix_product(self, pair):
        a, b = pair
        assert np.array_equal(oracle_matrix(a * b), oracle_matrix(a) @ oracle_matrix(b))


class TestCachedObservables:
    def test_sign_copies_share_one_observable(self):
        # with_signs reuses each term's checked observable; a term built
        # again from the same factors checks them again and equals it.
        canonical = nine_terms()
        flipped = BellFunctional(canonical).with_signs([-t.sign for t in canonical])
        for term, resigned in zip(canonical, flipped.terms):
            assert resigned.observable is term.observable
            rebuilt = ExperimentTerm(-term.sign, term.alice_factors, term.bob_factors)
            assert (rebuilt.observable, rebuilt.ids) == (term.observable, term.ids)

    @settings(max_examples=100, deadline=None)
    @given(paulis())
    def test_label_leaves_eq_hash_and_repr(self, op):
        twin = PauliString(op.n_qubits, op.x_mask, op.z_mask, op.phase_power)
        before = (hash(op), repr(op))
        assert op.label == twin.label
        assert op == twin and twin == op
        assert (hash(op), repr(op)) == before == (hash(twin), repr(twin))
        assert op.label is op.label

    def test_observable_leaves_term_eq_and_hash(self):
        for term in nine_terms():
            twin = ExperimentTerm(term.sign, term.alice_factors, term.bob_factors)
            before = hash(twin)
            assert twin.observable == term.observable
            assert twin.label == term.label
            assert twin == term and hash(twin) == before == hash(term)


class TestBornTablesBitIdentical:
    @pytest.mark.parametrize("term_index, estimator", PLANS)
    def test_all_plans_on_psi_and_two_pair_states(self, term_index, estimator):
        factors, _ = _measurement_plan(term_index, estimator)
        family = [states.build_psi()] + [
            ks.two_pair_state(a, b) for a in PAIRS for b in PAIRS
        ]
        for state in family:
            table = states.born_probabilities(factors, state)
            got = {outcome: p.hex() for outcome, p in table.items()}
            assert got == uncached_born_hex(factors, state.amplitudes)
