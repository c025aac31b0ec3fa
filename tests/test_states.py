"""State engine: amplitudes, Pauli action, expectations, Born tables."""

import numpy as np
import pytest

from avnlab.pauli import PauliString, parse
from avnlab.states import (
    PSI,
    StateVector,
    bell_phi,
    bell_psi,
    born_probabilities,
    build_psi,
    eigensigns,
    expectations,
    images,
)

from conftest import basis, dense_observable, oracle_matrix

SINGLET = np.array([0, 1, -1, 0]) / np.sqrt(2)


def image(op, state):
    return images([op], state)[0]


def expectation(op, state):
    return expectations([op], state)[0]


def eigensign(op, state):
    return eigensigns([op], state)[0]


def unchecked_state(n_qubits, amps):
    """A StateVector that skips the norm check, to reach the checks
    downstream of it."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "n_qubits", n_qubits)
    object.__setattr__(state, "amplitudes", tuple(map(complex, amps)))
    return state


class TestBuildPsi:
    def test_built_once_at_import(self, psi):
        assert build_psi() is build_psi() is psi is PSI

    def test_amplitude_table(self, psi):
        expected = np.zeros(16, dtype=complex)
        expected[0b0011] = 0.5
        expected[0b0110] = -0.5
        expected[0b1001] = -0.5
        expected[0b1100] = 0.5
        assert np.array_equal(psi.amplitudes, expected)

    def test_zero_elsewhere(self, psi):
        assert psi.amplitudes[0b0000] == 0
        assert psi.amplitudes[0b1111] == 0

    def test_equals_two_singlets(self, psi):
        # singlet on (1,3) times singlet on (2,4): interleave qubit order
        s = np.kron(SINGLET, SINGLET)  # order q1 q3 q2 q4
        reordered = np.zeros(16, dtype=complex)
        for q1 in range(2):
            for q3 in range(2):
                for q2 in range(2):
                    for q4 in range(2):
                        src = q1 << 3 | q3 << 2 | q2 << 1 | q4
                        dst = q1 << 3 | q2 << 2 | q3 << 1 | q4
                        reordered[dst] = s[src]
        assert np.allclose(psi.amplitudes, reordered, rtol=0, atol=1e-12)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    # A huge or negative count is compared without building 2^n_qubits,
    # and a length that is no power of two never matches.
    @pytest.mark.parametrize(
        "n_qubits, amps",
        [(10**12, [1]), (-1, [1]), (-1, []), (0, []), (1, [1, 0, 0]), (2, [1, 0, 0])],
    )
    def test_rejects_a_qubit_count_that_does_not_match(self, n_qubits, amps):
        with pytest.raises(ValueError, match="^amplitude vector has wrong length$"):
            StateVector(n_qubits, amps)

    @pytest.mark.parametrize(
        "amps",
        [
            [np.nan, 0.0],
            [1.0, np.nan],
            [complex(0.0, np.nan), 0.0],
            [np.inf, 0.0],
            [-np.inf, 0.0],
            [complex(0.0, np.inf), 0.0],
        ],
    )
    def test_rejects_nan_and_inf(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array(amps))

    @pytest.mark.parametrize("amps", ["10", b"10", ["a", "0"], [None, 1.0], 1.0])
    def test_rejects_non_numeric_amplitudes(self, amps):
        with pytest.raises(ValueError, match="complex numbers"):
            StateVector(1, amps)

    def test_amplitudes_read_only(self, psi):
        with pytest.raises(TypeError):
            psi.amplitudes[0] = 1.0


class TestImages:
    def test_identity(self, psi):
        assert np.array_equal(image(PauliString.identity(4), psi), psi.amplitudes)

    def test_bit_flip(self):
        assert np.array_equal(
            image(parse("x1", 2), basis(2, "00")), basis(2, "10").amplitudes
        )

    def test_z1z3_on_psi_is_minus_psi(self, psi):
        assert np.array_equal(image(parse("z1z3", 4), psi), -np.asarray(psi.amplitudes))

    def test_matches_matrix_oracle_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            state = StateVector(3, amps)
            op = PauliString(
                3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4))
            )
            assert np.allclose(image(op, state), oracle_matrix(op) @ amps, atol=1e-12)

    def test_preserves_normalization(self, psi):
        out = image(parse("-y1y2y3y4", 4), psi)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12

    def test_dimension_mismatch(self, psi):
        with pytest.raises(ValueError):
            image(PauliString.identity(2), psi)


class TestExpectation:
    def test_z1_z3_anticorrelation(self, psi):
        assert expectation(parse("z1z3", 4), psi) == pytest.approx(-1, abs=1e-12)

    def test_ninth_observable(self, psi):
        op = parse("z1z2", 4) * parse("x1x2", 4) * parse("z3x4", 4) * parse("x3z4", 4)
        assert expectation(op, psi) == pytest.approx(-1, abs=1e-12)

    def test_trivial_z_on_00(self):
        assert expectation(parse("z1", 2), basis(2, "00")) == 1.0

    def test_rejects_non_hermitian(self, psi):
        with pytest.raises(ValueError):
            expectation(parse("i·y1", 4), psi)

    def test_nan_expectation_raises(self):
        # The norm of the image op|state> is checked, so that check fires
        # before the imaginary-part check is reached.
        state = unchecked_state(1, [np.nan, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            expectation(parse("z1", 1), state)


class TestEigensigns:
    def test_x_eigenstates(self):
        x = parse("x1", 1)
        assert eigensign(x, StateVector(1, np.array([1, 1]) / np.sqrt(2))) == +1
        assert eigensign(x, StateVector(1, np.array([1, -1]) / np.sqrt(2))) == -1

    def test_eigensign(self, psi):
        assert eigensign(parse("z1z3", 4), psi) == -1
        assert eigensign(parse("z1", 4), psi) is None

    def test_nan_image_matches_neither_sign(self, psi):
        ops = [parse("z1z3", 4)]
        rows = np.asarray(images(ops, psi)).copy()
        rows[0, 3] = np.nan
        assert eigensigns(ops, psi, rows=rows) == [None]
        assert type(eigensign(ops[0], psi)) is int


class TestBornProbabilities:
    def test_nan_table_raises(self):
        state = unchecked_state(1, [np.nan, 0.0])
        with pytest.raises(AssertionError, match="sums to nan"):
            born_probabilities([parse("z1", 1)], state)

    def test_z1_z3_on_psi(self, psi):
        table = born_probabilities([parse("z1", 4), parse("z3", 4)], psi)
        assert table[(+1, +1)] == pytest.approx(0, abs=1e-12)
        assert table[(+1, -1)] == pytest.approx(0.5, abs=1e-12)
        assert table[(-1, +1)] == pytest.approx(0.5, abs=1e-12)
        assert table[(-1, -1)] == pytest.approx(0, abs=1e-12)

    def test_z_on_ground_state(self):
        table = born_probabilities([parse("z1", 4)], basis(4, "0000"))
        assert table[(+1,)] == pytest.approx(1, abs=1e-12)

    def test_phi_plus_pair_is_deterministic(self):
        state = StateVector(4, np.kron(bell_phi(+1).amplitudes, bell_phi(+1).amplitudes))
        table = born_probabilities([parse("z1z2", 4), parse("x1x2", 4)], state)
        assert table[(+1, +1)] == pytest.approx(1, abs=1e-12)

    def test_sums_to_one(self, psi):
        table = born_probabilities(
            [parse("z1z2", 4), parse("x1x2", 4), parse("z3x4", 4), parse("x3z4", 4)],
            psi,
        )
        assert sum(table.values()) == pytest.approx(1, abs=1e-12)

    def test_rejects_non_commuting(self, psi):
        with pytest.raises(ValueError):
            born_probabilities([parse("z1", 4), parse("x1", 4)], psi)

    def test_correlation_matches_expectation_for_each_term(self, psi):
        from avnlab.functional import nine_terms

        for term in nine_terms():
            table = born_probabilities(term.factors, psi)
            correlation = sum(np.prod(outcome) * p for outcome, p in table.items())
            assert correlation == pytest.approx(
                expectation(term.observable, psi), abs=1e-12
            )


class TestBellPairs:
    @pytest.mark.parametrize(
        "state, outcome",
        [(bell_phi(+1), +1), (bell_psi(-1), +1), (bell_phi(-1), -1), (bell_psi(+1), -1)],
    )
    def test_alice_pairs_are_eigenstates(self, state, outcome):
        observable = parse("z1z2", 2) * parse("x1x2", 2)
        assert eigensign(observable, state) == outcome

    def test_phi_minus_eigenvalue(self):
        observable = parse("z1z2", 2) * parse("x1x2", 2)
        assert expectation(observable, bell_phi(-1)) == pytest.approx(-1, abs=1e-12)


class TestDenseOracleConsistency:
    """The two conftest oracles agree on the parsed paper observables."""

    @pytest.mark.parametrize(
        "label", ["z1z3", "x2x4", "z3x4", "-y1y2y3y4", "x1x2"]
    )
    def test_oracle_agreement(self, label):
        assert np.allclose(oracle_matrix(parse(label, 4)), dense_observable(label, 4))
