"""Dense state vectors, Pauli action, expectations and Born-rule tables.

Basis convention: the ket |q1 q2 ... qn> is stored at integer index
q1*2^(n-1) + ... + qn, i.e. qubit 1 is the most significant bit, matching
the mask convention of :mod:`avnlab.pauli`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString

NORM_TOL = 1e-12

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over 2^n basis states."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |amps|^2 = {norm}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_qubits: int, bits: str) -> "StateVector":
        """Basis ket from a bit string, e.g. basis(4, '0011')."""
        if len(bits) != n_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"bad basis label {bits!r}")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(n_qubits, amps)

    def to_json_amplitudes(self) -> list:
        """Amplitudes as (re, im) pairs indexed by basis-state integer."""
        return [[a.real, a.imag] for a in self.amplitudes]


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with a's qubits first (most significant)."""
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


# -- named states ----------------------------------------------------------

def singlet() -> StateVector:
    """(|01> - |10>)/sqrt(2)."""
    return StateVector(2, np.array([0, 1, -1, 0]) * _SQRT_HALF)


def build_psi() -> StateVector:
    """The four-qubit double-singlet state.

    Amplitudes +1/2 on |0011> and |1100>, -1/2 on |0110> and |1001>,
    which is the singlet on qubits (1,3) tensored with the singlet on
    qubits (2,4).
    """
    amps = np.zeros(16, dtype=complex)
    amps[0b0011] = 0.5
    amps[0b0110] = -0.5
    amps[0b1001] = -0.5
    amps[0b1100] = 0.5
    return StateVector(4, amps)


def bell_phi(sign: int) -> StateVector:
    """(|00> ± |11>)/sqrt(2)."""
    return StateVector(2, np.array([1, 0, 0, sign]) * _SQRT_HALF)


def bell_psi(sign: int) -> StateVector:
    """(|01> ± |10>)/sqrt(2)."""
    return StateVector(2, np.array([0, 1, sign, 0]) * _SQRT_HALF)


def barred(bit: int) -> StateVector:
    """X eigenbasis: x|0bar> = |0bar>, x|1bar> = -|1bar>."""
    return StateVector(1, np.array([1, 1 if bit == 0 else -1]) * _SQRT_HALF)


def bell_chi(sign: int) -> StateVector:
    """(|0 0bar> ± |1 1bar>)/sqrt(2): second qubit in the barred basis."""
    amps = np.kron([1, 0], barred(0).amplitudes) + sign * np.kron(
        [0, 1], barred(1).amplitudes
    )
    return StateVector(2, amps * _SQRT_HALF)


def bell_omega(sign: int) -> StateVector:
    """(|1 0bar> ± |0 1bar>)/sqrt(2)."""
    amps = np.kron([0, 1], barred(0).amplitudes) + sign * np.kron(
        [1, 0], barred(1).amplitudes
    )
    return StateVector(2, amps * _SQRT_HALF)


# -- operator action -------------------------------------------------------

def _apply_raw(op: PauliString, amps: np.ndarray) -> np.ndarray:
    """op acting on a raw amplitude array (no normalization check)."""
    n = op.n_qubits
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint32)
    # X^x Z^z |b> = (-1)^(z.b) |b xor x>; the Y count folds into the phase.
    phase = (1j) ** ((op.phase_power + op._n_y()) % 4)
    z_par = np.bitwise_count(idx & np.uint32(op.z_mask)) & 1
    out = np.empty(dim, dtype=complex)
    out[idx ^ np.uint32(op.x_mask)] = phase * np.where(z_par, -1.0, 1.0) * amps
    return out


def apply(op: PauliString, state: StateVector) -> StateVector:
    """op|state> by bit-mask permutation; no matrix is materialized."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch")
    return StateVector(state.n_qubits, _apply_raw(op, state.amplitudes))


def expectation(op: PauliString, state: StateVector) -> float:
    """<state|op|state>, asserted real to within 1e-12."""
    if not op.is_hermitian:
        raise ValueError(f"{op} is not Hermitian")
    value = complex(np.vdot(state.amplitudes, apply(op, state).amplitudes))
    if abs(value.imag) > NORM_TOL:
        raise AssertionError(f"expectation has imaginary part {value.imag}")
    return value.real


def equal_up_to_phase(a: StateVector, b: StateVector, tol: float = NORM_TOL) -> bool:
    """Amplitude equality after rotating each state's dominant amplitude
    to the positive real axis."""
    if a.n_qubits != b.n_qubits:
        return False

    def normalized(amps):
        pivot = amps[np.argmax(np.abs(amps))]
        return amps * (abs(pivot) / pivot)

    return bool(
        np.all(np.abs(normalized(a.amplitudes) - normalized(b.amplitudes)) <= tol)
    )


def eigensign(op: PauliString, state: StateVector, tol: float = NORM_TOL):
    """+1 or -1 if state is an eigenstate of op at that sign, else None."""
    image = apply(op, state).amplitudes
    for sign in (+1, -1):
        if np.all(np.abs(image - sign * state.amplitudes) <= tol):
            return sign
    return None


# -- Born rule -------------------------------------------------------------

def born_probabilities(factors, state: StateVector) -> dict:
    """Joint outcome distribution for mutually commuting ±1 observables.

    The projector for outcome e of factor M is (I + e*M)/2; the joint
    probability is the squared norm after applying all projectors.
    Returns {(e1, ..., em): probability} over all 2^m sign tuples.
    """
    factors = list(factors)
    for f in factors:
        if not f.is_hermitian:
            raise ValueError(f"{f} is not Hermitian")
        if f.n_qubits != state.n_qubits:
            raise ValueError("qubit count mismatch")
    for a, b in itertools.combinations(factors, 2):
        if not a.commutes(b):
            raise ValueError(f"{a} and {b} do not commute")

    table = {}
    for outcome in itertools.product((+1, -1), repeat=len(factors)):
        vec = state.amplitudes
        for eps, f in zip(outcome, factors):
            vec = 0.5 * (vec + eps * _apply_raw(f, vec))
        table[outcome] = float(np.sum(np.abs(vec) ** 2))
    total = sum(table.values())
    if abs(total - 1.0) > NORM_TOL:
        raise AssertionError(f"Born table sums to {total}")
    return table


# -- Bell-pair discrimination ----------------------------------------------

_PAIR_TABLE = {
    ("alice", +1): ("phi+", "psi-"),
    ("alice", -1): ("phi-", "psi+"),
    ("bob", +1): ("chi+", "omega-"),
    ("bob", -1): ("chi-", "omega+"),
}


def classify_bell_pair(which: str, outcome: int) -> tuple:
    """Bell-state pair singled out by one product-observable outcome.

    Alice's product observable is (z1z2)(x1x2) on her qubit pair; Bob's is
    (z3x4)(x3z4) on his.  Each ±1 outcome leaves a two-state subspace.
    """
    try:
        return _PAIR_TABLE[(which, outcome)]
    except KeyError:
        raise ValueError(f"no pair for ({which!r}, {outcome!r})") from None
