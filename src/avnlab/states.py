"""State vectors, Pauli action, expectations and Born-rule tables, on
tuples of Python complex numbers.

Basis convention: the ket |q1 q2 ... qn> is stored at integer index
q1*2^(n-1) + ... + qn, i.e. qubit 1 is the most significant bit, matching
the mask convention of :mod:`avnlab.pauli`.

A Pauli string is a signed permutation of the basis: X^x Z^z |b> =
(-1)^popcount(b & z) |b xor x>, and the Y count folds into its phase.  So
the image of a state has one entry per nonzero amplitude, factor *
amplitude, where the factor is one of the string's two complex values;
zero amplitudes are skipped and their images are 0j.  An expectation sums
conj(amplitude) * image over every index, left to right, so a NaN in a
row is never skipped.  A Born probability is math.fsum of |amplitude|^2,
the correctly rounded sum.
"""

from __future__ import annotations

import itertools
import math

from ._frozen import Frozen

NORM_TOL = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)

#: The factors of a string with phase i^k: for an even, then an odd
#: z-parity of the source index.
_FACTORS = tuple(((1j) ** k * 1.0, (1j) ** k * -1.0) for k in range(4))


class StateVector(Frozen):
    """Normalized complex amplitude vector over 2^n basis states."""

    _fields = ("n_qubits", "amplitudes")
    _shown = ("n_qubits",)

    def __init__(self, n_qubits: int, amplitudes: tuple):
        if type(n_qubits) is not int:
            raise ValueError(f"n_qubits must be an int, got {n_qubits!r}")
        try:
            if isinstance(amplitudes, (str, bytes)):
                raise TypeError
            amps = tuple(map(complex, amplitudes))
        except (TypeError, ValueError):
            raise ValueError("amplitudes must be complex numbers") from None
        size = len(amps)
        # Through bit_length: 1 << n_qubits may be huge or a negative shift.
        if size & (size - 1) or not 0 <= n_qubits == size.bit_length() - 1:
            raise ValueError("amplitude vector has wrong length")
        _check_norm(amps)
        self.__dict__.update(n_qubits=n_qubits, amplitudes=amps)


def _check_norm(amps):
    """ValueError unless the squared moduli of `amps` sum to 1."""
    norm = sum(a.real * a.real + a.imag * a.imag for a in amps)
    # Written so that a NaN norm fails too.
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state not normalized: |amps|^2 = {norm}")


# -- named states ----------------------------------------------------------

#: The paper's four-qubit state psi: amplitudes +1/2 on |0011> and
#: |1100>, -1/2 on |0110> and |1001>, that is (|01> - |10>)/sqrt(2) on
#: qubits (1,3) times the same pair state on qubits (2,4).
PSI = StateVector(4, [{0b0011: 0.5, 0b0110: -0.5, 0b1001: -0.5, 0b1100: 0.5}.get(b, 0j)
                      for b in range(16)])


def build_psi() -> StateVector:
    """The paper's state `PSI`, built once at import."""
    return PSI


def bell_phi(sign: int) -> StateVector:
    """(|00> ± |11>)/sqrt(2)."""
    return StateVector(2, [v * _SQRT_HALF for v in (1, 0, 0, sign)])


def bell_psi(sign: int) -> StateVector:
    """(|01> ± |10>)/sqrt(2)."""
    return StateVector(2, [v * _SQRT_HALF for v in (0, 1, sign, 0)])


# -- operator action -------------------------------------------------------

def _actions(ops, n_qubits: int) -> list:
    """(x_mask, z_mask, even factor, odd factor) of each of a family of
    Pauli strings, each of which must act on n_qubits qubits."""
    actions = []
    for op in ops:
        if op.n_qubits != n_qubits:
            raise ValueError("qubit count mismatch")
        x, z = op.x_mask, op.z_mask
        actions.append((x, z, *_FACTORS[(op.phase_power + (x & z).bit_count()) % 4]))
    return actions


def images(ops, state: StateVector) -> list:
    """Rows op|state>, as tuples, for each op of a family; the state's
    norm is checked once for the family, since each row permutes it."""
    actions = _actions(ops, state.n_qubits)
    amps = state.amplitudes
    support = [(b, a) for b, a in enumerate(amps) if a]
    if actions:
        _check_norm([a for _, a in support])
    rows = []
    for x, z, even, odd in actions:
        row = [0j] * len(amps)
        for b, a in support:
            row[b ^ x] = (odd if (b & z).bit_count() & 1 else even) * a
        rows.append(tuple(row))
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
    conjugates = [a.conjugate() for a in state.amplitudes]
    values = []
    for row in rows:
        value = 0j
        for conj, entry in zip(conjugates, row):
            value += conj * entry
        if not abs(value.imag) <= NORM_TOL:
            raise AssertionError(f"expectation has imaginary part {value.imag}")
        values.append(value.real)
    return values


def eigensigns(ops, state: StateVector, rows=None) -> list:
    """For each op of a family: +1 or -1 if state is an eigenstate of op
    at that sign, else None; `rows`, when given, are `images(ops, state)`."""
    if rows is None:
        rows = images(ops, state)
    plus = state.amplitudes
    minus = tuple(-a for a in plus)

    def near(row, target):
        # Exact equality first; else every entry within NORM_TOL, which a
        # NaN entry never is.
        return row == target or all(abs(r - a) <= NORM_TOL for r, a in zip(row, target))

    return [
        +1 if near(row, plus) else -1 if near(row, minus) else None
        for row in map(tuple, rows)
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
    actions = _actions(factors, state.n_qubits)
    for a, b in itertools.combinations(factors, 2):
        if not a.commutes(b):
            raise ValueError(f"{a} and {b} do not commute")

    # Level by level in the order of itertools.product((+1, -1), ...), so
    # that outcomes sharing a prefix share its projections.
    level = [((), {c: a for c, a in enumerate(state.amplitudes) if a})]
    for action in actions:
        level = [(outcome + (eps,), _project(vec, eps, *action))
                 for outcome, vec in level for eps in (+1, -1)]
    table = {
        outcome: math.fsum(m * m for m in map(abs, vec.values())) for outcome, vec in level
    }
    total = sum(table.values())
    if not abs(total - 1.0) <= NORM_TOL:
        raise AssertionError(f"Born table sums to {total}")
    return table


def _project(vec, eps, x, z, even, odd):
    """0.5 * (vec + eps * M vec) on the entries that can be nonzero, where
    (M vec)[c] = factor * vec[c ^ x] and an absent entry is zero."""
    out = {}
    for c in vec.keys() | {b ^ x for b in vec}:
        factor = odd if ((c ^ x) & z).bit_count() & 1 else even
        out[c] = 0.5 * (vec.get(c, 0j) + eps * (factor * vec.get(c ^ x, 0j)))
    return out
