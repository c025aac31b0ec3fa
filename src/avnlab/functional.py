"""The nine correlation terms and the Bell functional they sum to.

Each term carries a sign and two lists of local factors, one for each
observer: Alice acts on qubits 1 and 2, Bob on qubits 3 and 4.  The
factor lists preserve the grouping into locally measurable quantities;
flattening a term multiplies everything into a single Pauli string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import states
from .pauli import PauliString, parse

ALICE_QUBITS = (1, 2)
BOB_QUBITS = (3, 4)

#: Right-hand-side eigenvalues of the nine identities on the double singlet.
EXPECTED_SIGNS = (-1, -1, -1, -1, +1, +1, +1, +1, -1)


@dataclass(frozen=True)
class ExperimentTerm:
    """One signed correlation term with its local factor structure."""

    sign: int
    alice_factors: tuple
    bob_factors: tuple

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be ±1")
        for f in self.alice_factors:
            if not (f.is_hermitian and f.supported_on(ALICE_QUBITS)):
                raise ValueError(f"bad Alice factor {f}")
        for f in self.bob_factors:
            if not (f.is_hermitian and f.supported_on(BOB_QUBITS)):
                raise ValueError(f"bad Bob factor {f}")
        fs = self.factors
        for i, a in enumerate(fs):
            for b in fs[i + 1:]:
                if not a.commutes(b):
                    raise ValueError(f"{a} and {b} do not commute")

    @property
    def factors(self) -> tuple:
        return self.alice_factors + self.bob_factors

    @property
    def observable(self) -> PauliString:
        """Product of all factors (the term's sign is not included)."""
        return reduce(PauliString.multiply, self.factors)

    @property
    def label(self) -> str:
        alice = "".join(f.label for f in self.alice_factors)
        bob = "".join(f.label for f in self.bob_factors)
        return f"{alice}·{bob}"


def _term(sign, alice, bob, n=4):
    return ExperimentTerm(
        sign,
        tuple(parse(s, n) for s in alice),
        tuple(parse(s, n) for s in bob),
    )


#: The nine terms, in the order of the nine eigenvalue identities.
NINE_TERMS = (
    _term(-1, ["z1"], ["z3"]),
    _term(-1, ["z2"], ["z4"]),
    _term(-1, ["x1"], ["x3"]),
    _term(-1, ["x2"], ["x4"]),
    _term(+1, ["z1z2"], ["z3", "z4"]),
    _term(+1, ["x1x2"], ["x3", "x4"]),
    _term(+1, ["z1", "x2"], ["z3x4"]),
    _term(+1, ["x1", "z2"], ["x3z4"]),
    _term(-1, ["z1z2", "x1x2"], ["z3x4", "x3z4"]),
)


def nine_terms() -> tuple:
    """The nine terms, in the order of the nine eigenvalue identities;
    built once at import, since terms and Pauli strings are immutable."""
    return NINE_TERMS


@dataclass(frozen=True)
class BellFunctional:
    """Signed sum of correlation terms; quantum value 9, local bound 7."""

    terms: tuple

    @classmethod
    def canonical(cls) -> "BellFunctional":
        return cls(nine_terms())

    def with_signs(self, signs) -> "BellFunctional":
        """Same observables with replaced term signs (eigenfamily adaptation)."""
        return BellFunctional(
            tuple(
                ExperimentTerm(s, t.alice_factors, t.bob_factors)
                for s, t in zip(signs, self.terms)
            )
        )

    def value(self, state: states.StateVector) -> float:
        """Sum of sign-weighted expectations of the flattened observables."""
        return sum(t.sign * states.expectation(t.observable, state) for t in self.terms)


def verify_nine_identities(state: states.StateVector, tol: float = states.NORM_TOL):
    """Eigenvalue sign of each term observable on `state`.

    Returns a list of nine entries, each +1, -1 or None when the state is
    not an eigenstate of that observable (a legal outcome for general
    states).
    """
    return [states.eigensign(t.observable, state, tol) for t in nine_terms()]


def bell_functional_value(state: states.StateVector) -> float:
    return BellFunctional.canonical().value(state)


def operator_o_check(state: states.StateVector, tol: float = states.NORM_TOL) -> bool:
    """True iff the signed sum of term operators maps state to 9*state."""
    import numpy as np

    total = sum(
        t.sign * states.apply(t.observable, state).amplitudes for t in nine_terms()
    )
    return bool(np.all(np.abs(total - 9.0 * state.amplitudes) <= tol))
