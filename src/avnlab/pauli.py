"""Exact algebra of n-qubit Pauli strings.

A Pauli string is i^k times a Kronecker product of single-qubit I, X, Y, Z
factors, encoded symplectically as one (x, z) bit pair per qubit:

    (0, 0) = I,   (1, 0) = X,   (0, 1) = Z,   (1, 1) = Y.

Qubit 1 occupies the most significant bit of every mask, matching the
convention that the basis ket |q1 q2 ... qn> is the integer with q1 as its
top bit.  All phase arithmetic is exact integer mod 4; no floating point
enters any product or commutator.
"""

from __future__ import annotations

import re
from functools import cached_property

from ._frozen import Frozen

_PHASE_PREFIX = {0: "+", 1: "i·", 2: "-", 3: "-i·"}

_LETTER = {(0, 0): "", (1, 0): "x", (0, 1): "z", (1, 1): "y"}

_TOKEN_RE = re.compile(r"([xyz])(\d+)")
_STRING_RE = re.compile(r"^([+-]?)(i)?[·*]?((?:[xyz]\d+)*|I)$")


class PauliString(Frozen):
    """One n-qubit Pauli operator with exact phase i^phase_power."""

    _fields = ("n_qubits", "x_mask", "z_mask", "phase_power")

    def __init__(self, n_qubits: int, x_mask: int, z_mask: int, phase_power: int = 0):
        if not type(n_qubits) is type(x_mask) is type(z_mask) is type(phase_power) is int:
            for name, value in zip(self._fields, (n_qubits, x_mask, z_mask, phase_power)):
                if type(value) is not int:
                    raise ValueError(f"{name} must be an int, got {value!r}")
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        full = (1 << n_qubits) - 1
        if not (0 <= x_mask <= full and 0 <= z_mask <= full):
            raise ValueError("mask outside qubit range")
        self.__dict__.update(n_qubits=n_qubits, x_mask=x_mask, z_mask=z_mask,
                             phase_power=phase_power % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def single(cls, letter: str, qubit: int, n_qubits: int) -> "PauliString":
        """The operator `letter` (x, y or z) acting on one qubit (1-based)."""
        if type(qubit) is not int or type(n_qubits) is not int:
            raise ValueError(f"qubit {qubit!r} and n_qubits {n_qubits!r} must be ints")
        if not 1 <= qubit <= n_qubits:
            raise ValueError(f"qubit {qubit} outside 1..{n_qubits}")
        bit = 1 << (n_qubits - qubit)
        if letter == "x":
            return cls(n_qubits, bit, 0, 0)
        if letter == "z":
            return cls(n_qubits, 0, bit, 0)
        if letter == "y":
            return cls(n_qubits, bit, bit, 0)
        raise ValueError(f"unknown Pauli letter {letter!r}")

    # -- algebra ---------------------------------------------------------

    def _n_y(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    def multiply(self, other: "PauliString") -> "PauliString":
        """Exact operator product self * other, phase included."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        # Work in X^x Z^z normal form: Y = i X Z, and Z X = -X Z.
        exp = (
            self.phase_power + self._n_y()
            + other.phase_power + other._n_y()
            + 2 * (self.z_mask & other.x_mask).bit_count()
        )
        x = self.x_mask ^ other.x_mask
        z = self.z_mask ^ other.z_mask
        exp -= (x & z).bit_count()
        return PauliString(self.n_qubits, x, z, exp % 4)

    __mul__ = multiply

    def commutes(self, other: "PauliString") -> bool:
        """True iff self * other == other * self (symplectic overlap even)."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        overlap = (self.x_mask & other.z_mask).bit_count() + (
            self.z_mask & other.x_mask
        ).bit_count()
        return overlap % 2 == 0

    @property
    def is_hermitian(self) -> bool:
        """Hermitian iff the global phase is real (+1 or -1)."""
        return self.phase_power % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian string."""
        if not self.is_hermitian:
            raise ValueError(f"{self} has imaginary phase")
        return 1 if self.phase_power == 0 else -1

    def supported_on(self, qubits) -> bool:
        """True iff every non-identity factor acts on one of `qubits`."""
        allowed = 0
        for q in qubits:
            allowed |= 1 << (self.n_qubits - q)
        return (self.x_mask | self.z_mask) & ~allowed == 0

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        body = "".join(
            _LETTER[
                (self.x_mask >> (self.n_qubits - q) & 1,
                 self.z_mask >> (self.n_qubits - q) & 1)
            ]
            + (str(q) if (self.x_mask | self.z_mask) >> (self.n_qubits - q) & 1 else "")
            for q in range(1, self.n_qubits + 1)
        )
        return _PHASE_PREFIX[self.phase_power] + (body or "I")

    @cached_property
    def label(self) -> str:
        """Text form without the leading '+' of a phase-free string;
        rendered once per instance."""
        text = str(self)
        return text[1:] if text.startswith("+") else text


def parse(text: str, n_qubits: int) -> PauliString:
    """Parse the canonical rendering, e.g. '-y1y2y3y4', 'i·z1x1', 'z3x4'.

    Factors are multiplied left to right, so repeated qubits accumulate
    phase exactly as operator products do ('z1x1' parses to i·y1).
    """
    if not isinstance(text, str):
        raise ValueError(f"cannot parse Pauli string {text!r}")
    m = _STRING_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse Pauli string {text!r}")
    sign, imag, body = m.groups()
    phase = (2 if sign == "-" else 0) + (1 if imag else 0)
    result = PauliString(n_qubits, 0, 0, phase % 4)
    if body != "I":
        for letter, qubit in _TOKEN_RE.findall(body):
            result = result * PauliString.single(letter, int(qubit), n_qubits)
    return result
