"""The standard-library state engine against the numpy formulas it replaced.

`tests/dense_oracle.py` keeps the engine's former numpy gather formulas.
A Pauli image only permutes and signs amplitudes, so images agree with
the oracle on every state, byte for byte on every nonzero entry (the
engine writes 0j where numpy may write a signed zero).  Sums and moduli
round differently: `np.vdot` accumulates in its own order and `np.abs`
is not libm's `hypot`.  So expectations and Born tables agree bitwise
where the arithmetic is exact, on states whose amplitudes are dyadic, and
to within 1e-12 elsewhere.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracle
from avnlab import states
from avnlab.pauli import PauliString

MAX_QUBITS = 6

_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_PART = st.one_of(_SIGNED_ZERO, st.floats(-1e3, 1e3, allow_nan=False))


def hex_of(value):
    return (value.real.hex(), value.imag.hex())


def _normalized(n, amps):
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    assume(norm > 1e-3)
    return states.StateVector(n, [a / norm for a in amps])


@st.composite
def dense_states(draw, n):
    return _normalized(n, draw(st.lists(st.builds(complex, _PART, _PART),
                                        min_size=1 << n, max_size=1 << n)))


@st.composite
def sparse_states(draw, n):
    """A few nonzero amplitudes; every other entry has signed-zero parts."""
    amps = [complex(draw(_SIGNED_ZERO), draw(_SIGNED_ZERO)) for _ in range(1 << n)]
    for index in draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=3)):
        amps[index] = complex(draw(_PART), draw(_PART))
    return _normalized(n, amps)


@st.composite
def dyadic_states(draw, n, real=False):
    """2^j amplitudes of modulus 2^(-j/2) with dyadic parts, signed zeros
    elsewhere, so that every product and sum below is exact.  Odd j needs
    two nonzero parts per amplitude, so real states take even j."""
    j = draw(st.integers(0, n).filter(lambda j: not real or j % 2 == 0))
    support = draw(st.permutations(range(1 << n)))[: 1 << j]
    amps = [complex(draw(_SIGNED_ZERO), draw(_SIGNED_ZERO)) for _ in range(1 << n)]
    sign = st.sampled_from([1.0, -1.0])
    for index in support:
        if j % 2:
            part = 2.0 ** (-(j + 1) // 2)
            amps[index] = complex(draw(sign) * part, draw(sign) * part)
        else:
            part = draw(sign) * 2.0 ** (-j // 2)
            zero = draw(_SIGNED_ZERO)
            imaginary = not real and draw(st.booleans())
            amps[index] = complex(zero, part) if imaginary else complex(part, zero)
    return states.StateVector(n, amps)


def hermitian_paulis(n, real=False):
    """Hermitian strings on n qubits; real ones have an even Y count."""
    full = (1 << n) - 1
    return st.builds(
        lambda x, z, sign: PauliString(n, x, z, sign),
        st.integers(0, full), st.integers(0, full), st.sampled_from([0, 2]),
    ).filter(lambda op: not real or (op.x_mask & op.z_mask).bit_count() % 2 == 0)


def commuting(ops):
    """Each op that commutes with every op kept before it, at most four."""
    kept = []
    for op in ops:
        if len(kept) < 4 and all(op.commutes(other) for other in kept):
            kept.append(op)
    return kept


@st.composite
def cases(draw, kinds=("dense", "sparse", "dyadic")):
    n = draw(st.integers(1, MAX_QUBITS))
    kind = draw(st.sampled_from(kinds))
    state = draw({"dense": dense_states, "sparse": sparse_states,
                  "dyadic": dyadic_states}[kind](n))
    ops = draw(st.lists(hermitian_paulis(n), min_size=1, max_size=12))
    return ops, state


class TestAgainstDenseOracle:
    @settings(max_examples=100, deadline=None)
    @given(cases())
    def test_images_and_eigensigns_on_any_state(self, case):
        ops, state = case
        want = dense_oracle.images(ops, state.amplitudes).tolist()
        rows = states.images(ops, state)
        assert [list(row) for row in rows] == want
        for row, wanted in zip(rows, want):
            assert [hex_of(g) for g, w in zip(row, wanted) if w] == [
                hex_of(w) for w in wanted if w
            ]
        assert states.eigensigns(ops, state) == dense_oracle.eigensigns(
            ops, state.amplitudes
        )

    @settings(max_examples=100, deadline=None)
    @given(cases())
    def test_sums_within_tolerance_on_any_state(self, case):
        ops, state = case
        assert states.expectations(ops, state) == pytest.approx(
            dense_oracle.expectations(ops, state.amplitudes), rel=0, abs=1e-12
        )
        factors = commuting(ops)
        got = states.born_probabilities(factors, state)
        want = dense_oracle.born_probabilities(factors, state.amplitudes)
        assert list(got) == list(want)
        assert list(got.values()) == pytest.approx(list(want.values()), rel=0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(cases(kinds=("dyadic",)))
    def test_expectations_bitwise_on_exact_states(self, case):
        ops, state = case
        assert [v.hex() for v in states.expectations(ops, state)] == [
            v.hex() for v in dense_oracle.expectations(ops, state.amplitudes)
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, MAX_QUBITS).flatmap(lambda n: st.tuples(
        st.lists(hermitian_paulis(n, real=True), min_size=1, max_size=8),
        dyadic_states(n, real=True),
    )))
    def test_born_tables_bitwise_on_exact_real_states(self, case):
        ops, state = case
        factors = commuting(ops)
        got = states.born_probabilities(factors, state)
        want = dense_oracle.born_probabilities(factors, state.amplitudes)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    @settings(max_examples=50, deadline=None)
    @given(cases(), st.data())
    def test_nan_in_a_passed_row(self, case, data):
        # A NaN anywhere in a row, under a zero amplitude too, makes that
        # row an eigenvector of neither sign and its expectation fail.
        ops, state = case
        rows = [list(row) for row in states.images(ops, state)]
        k = data.draw(st.integers(0, len(rows) - 1))
        rows[k][data.draw(st.integers(0, len(rows[k]) - 1))] = complex(np.nan, 0.0)
        signs = states.eigensigns(ops, state, rows=rows)
        assert signs == dense_oracle.eigensigns(ops, state.amplitudes, rows)
        assert signs[k] is None
        assert math.isnan(complex(np.vdot(np.asarray(state.amplitudes), rows[k])).imag)
        with pytest.raises(AssertionError, match="imaginary part nan"):
            states.expectations(ops, state, rows=rows)
