"""Dense state vectors, Pauli action, expectations and Born-rule tables.

Basis convention: the ket |q1 q2 ... qn> is stored at integer index
q1*2^(n-1) + ... + qn, i.e. qubit 1 is the most significant bit, matching
the mask convention of :mod:`avnlab.pauli`.

Pauli strings act in gather form: the image of a family of strings on
one state is one gather and one multiply, factors * amps[sources], with
one row per string.  A string's source map and per-amplitude phases
depend only on the string, so each family's (family x 2^n) arrays are
built on first use and cached read-only.  `images`, `eigensigns`,
`expectations` and the Born tables all read that one cache.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over 2^n basis states."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if type(self.n_qubits) is not int:
            raise ValueError(f"n_qubits must be an int, got {self.n_qubits!r}")
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        norm = float(np.vdot(amps, amps).real)
        # Written so that a NaN norm fails too.
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: |amps|^2 = {norm}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


# -- named states ----------------------------------------------------------

def build_psi() -> StateVector:
    """The paper's four-qubit state psi.

    Amplitudes +1/2 on |0011> and |1100>, -1/2 on |0110> and |1001>:
    (|01> - |10>)/sqrt(2) on qubits (1,3) times the same pair state on
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


# -- operator action -------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _stacked_action(keys: tuple):
    """Read-only (sources, factors) of a family of Pauli strings in gather
    form: row k of the images is factors[k] * amps[sources[k]].

    X^x Z^z |b> = (-1)^(z.b) |b xor x>, so the image's amplitude at c is
    read from source c xor x, with that source's z-parity sign; the Y
    count folds into the phase.
    """
    idx = np.arange(1 << keys[0][0], dtype=np.uint32)
    sources = np.stack([idx ^ np.uint32(x_mask) for _, x_mask, _, _ in keys])
    factors = np.stack([
        (1j) ** ((phase_power + (x_mask & z_mask).bit_count()) % 4)
        * np.where(np.bitwise_count(source & np.uint32(z_mask)) & 1, -1.0, 1.0)
        for source, (_, x_mask, z_mask, phase_power) in zip(sources, keys)
    ])
    sources.flags.writeable = False
    factors.flags.writeable = False
    return sources, factors


def _family_action(ops, n_qubits: int):
    """The cached (sources, factors) of a family of Pauli strings, each of
    which must act on n_qubits qubits."""
    keys = tuple((op.n_qubits, op.x_mask, op.z_mask, op.phase_power) for op in ops)
    if any(key[0] != n_qubits for key in keys):
        raise ValueError("qubit count mismatch")
    if not keys:
        dim = 1 << n_qubits
        return np.empty((0, dim), dtype=np.uint32), np.empty((0, dim), dtype=complex)
    return _stacked_action(keys)


def images(ops, state: StateVector) -> np.ndarray:
    """Rows op|state> for each op of a family, each checked like a
    StateVector."""
    sources, factors = _family_action(ops, state.n_qubits)
    rows = factors * state.amplitudes[sources]
    for norm in np.square(rows.view(float)).sum(axis=1).tolist():
        # Written so that a NaN norm fails too.
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: |amps|^2 = {norm}")
    return rows


def expectations(ops, state: StateVector, rows=None) -> list:
    """<state|op|state> for each op of a family, each asserted real to
    within 1e-12; `rows`, when given, are `images(ops, state)`."""
    ops = list(ops)
    for op in ops:
        if not op.is_hermitian:
            raise ValueError(f"{op} is not Hermitian")
    if rows is None:
        rows = images(ops, state)
    amps = state.amplitudes
    values = []
    for row in rows:
        # One vdot per row: a single matmul would round differently.
        value = complex(np.vdot(amps, row))
        if not abs(value.imag) <= NORM_TOL:
            raise AssertionError(f"expectation has imaginary part {value.imag}")
        values.append(value.real)
    return values


_PLUS_MINUS = np.array([[1.0], [-1.0]])


def eigensigns(ops, state: StateVector, rows=None) -> list:
    """For each op of a family: +1 or -1 if state is an eigenstate of op
    at that sign, else None; `rows`, when given, are `images(ops, state)`."""
    if rows is None:
        rows = images(ops, state)
    # Each row's largest distance from +state and from -state, in one
    # pass over the family; a NaN distance is within NORM_TOL of neither.
    distances = np.abs(rows[:, None, :] - _PLUS_MINUS * state.amplitudes).max(axis=2)
    return [
        +1 if plus <= NORM_TOL else -1 if minus <= NORM_TOL else None
        for plus, minus in distances.tolist()
    ]


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
    actions = list(zip(*_family_action(factors, state.n_qubits)))
    for a, b in itertools.combinations(factors, 2):
        if not a.commutes(b):
            raise ValueError(f"{a} and {b} do not commute")

    table = {}
    for outcome in itertools.product((+1, -1), repeat=len(factors)):
        vec = state.amplitudes
        for eps, (source, phase) in zip(outcome, actions):
            vec = 0.5 * (vec + eps * (phase * vec[source]))
        table[outcome] = float(np.sum(np.abs(vec) ** 2))
    total = sum(table.values())
    if not abs(total - 1.0) <= NORM_TOL:
        raise AssertionError(f"Born table sums to {total}")
    return table
