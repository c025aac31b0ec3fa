"""Shared fixtures and the project's only dense-matrix oracles.

avnlab builds no dense matrix: avnlab.pauli is integer algebra and
avnlab.states applies strings as signed permutations.  The oracle helpers
here build matrices straight from the single-qubit Pauli matrices with
numpy.kron, independently of both, so they can certify them.
"""

import numpy as np
import pytest

from avnlab.states import StateVector, build_psi

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

LETTER_MATRIX = {"i": I2, "x": SX, "y": SY, "z": SZ}


def kron_letters(letters):
    """Tensor product of single-qubit matrices, qubit 1 leftmost.

    `letters` is a string like 'zixi' with one letter per qubit.
    """
    out = np.eye(1, dtype=complex)
    for letter in letters:
        out = np.kron(out, LETTER_MATRIX[letter])
    return out


def oracle_matrix(op):
    """Dense matrix of a PauliString, read from its masks and phase only:
    no table or method of avnlab.pauli is used."""
    shifts = range(op.n_qubits - 1, -1, -1)
    letters = "".join(
        "ixzy"[(op.x_mask >> s & 1) | (op.z_mask >> s & 1) << 1] for s in shifts
    )
    return (1j) ** op.phase_power * kron_letters(letters)


def dense_observable(label, n_qubits):
    """Dense matrix for a product like 'z1x2' or '-y1y2y3y4' on n qubits,
    built by plain matrix multiplication of elementary factors."""
    sign = 1.0
    if label.startswith("-"):
        sign, label = -1.0, label[1:]
    dim = 1 << n_qubits
    out = sign * np.eye(dim, dtype=complex)
    for i in range(0, len(label), 2):
        letter, qubit = label[i], int(label[i + 1])
        letters = ["i"] * n_qubits
        letters[qubit - 1] = letter
        out = out @ kron_letters("".join(letters))
    return out


def basis(n_qubits, bits):
    """Basis ket from a bit string, e.g. basis(4, '0011')."""
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(n_qubits, amps)


@pytest.fixture(scope="session")
def psi():
    return build_psi()
