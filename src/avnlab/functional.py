"""The nine correlation terms and the Bell functional they sum to.

Each term carries a sign and two lists of local factors, one for each
observer: Alice acts on qubits 1 and 2, Bob on qubits 3 and 4.  The
factor lists preserve the grouping into locally measurable quantities;
flattening a term multiplies everything into a single Pauli string.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from . import states
from ._frozen import Frozen
from .pauli import PauliString, parse

ALICE_QUBITS = (1, 2)
BOB_QUBITS = (3, 4)

#: Right-hand-side eigenvalues of the nine identities on psi.
EXPECTED_SIGNS = (-1, -1, -1, -1, +1, +1, +1, +1, -1)

#: The functional's local (LHV) bound and its value on psi.
LOCAL_BOUND = 7
QUANTUM_VALUE = 9


class ExperimentTerm(Frozen):
    """One signed correlation term with its local factor structure, and,
    uncompared, `observable`, the product of all factors without the sign,
    and `ids`, their labels, Alice's first: the local observable ids.  Each
    factor is one ±1 hidden variable, so it is phase-free and not I."""

    _fields = ("sign", "alice_factors", "bob_factors")

    def __init__(self, sign: int, alice_factors: tuple, bob_factors: tuple):
        _check_sign(sign)
        alice_factors = _tuple_of(PauliString, alice_factors, "factors")
        bob_factors = _tuple_of(PauliString, bob_factors, "factors")
        observable, ids = _checked_observable(alice_factors, bob_factors)
        self.__dict__.update(sign=sign, alice_factors=alice_factors, bob_factors=bob_factors,
                             observable=observable, ids=ids)

    def _resigned(self, sign) -> "ExperimentTerm":
        """This term with `sign`, which must be ±1, reusing the checked
        observable and ids; the term itself when the sign is unchanged."""
        _check_sign(sign)
        if sign == self.sign:
            return self
        term = object.__new__(ExperimentTerm)
        term.__dict__.update(self.__dict__, sign=sign)
        return term

    @property
    def factors(self) -> tuple:
        return self.alice_factors + self.bob_factors

    @property
    def label(self) -> str:
        alice = "".join(f.label for f in self.alice_factors)
        bob = "".join(f.label for f in self.bob_factors)
        return f"{alice}·{bob}"


def _check_sign(sign):
    if type(sign) is not int or sign not in (+1, -1):
        raise ValueError(f"sign must be ±1, got {sign!r}")


def _tuple_of(kind, items, name) -> tuple:
    """`items`, a tuple or list of `kind` instances, as a tuple."""
    if isinstance(items, (tuple, list)) and all(isinstance(item, kind) for item in items):
        return tuple(items)
    raise ValueError(f"{name} must be {kind.__name__}s, got {items!r}")


def _checked_observable(alice_factors: tuple, bob_factors: tuple) -> tuple:
    """(product, labels) of a term's factors, after checking that there is
    at least one and that each is on 4 qubits, phase-free, not the
    identity, supported on its observer's qubits and commutes with the
    others."""
    fs = alice_factors + bob_factors
    if not fs or any(f.n_qubits != 4 for f in fs):
        raise ValueError(f"a term needs one or more factors on 4 qubits, got {fs}")
    for f in alice_factors:
        if f.phase_power or not f.x_mask | f.z_mask or not f.supported_on(ALICE_QUBITS):
            raise ValueError(f"bad Alice factor {f}")
    for f in bob_factors:
        if f.phase_power or not f.x_mask | f.z_mask or not f.supported_on(BOB_QUBITS):
            raise ValueError(f"bad Bob factor {f}")
    for i, a in enumerate(fs):
        for b in fs[i + 1:]:
            if not a.commutes(b):
                raise ValueError(f"{a} and {b} do not commute")
    return reduce(PauliString.multiply, fs), tuple(f.label for f in fs)


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


class BellFunctional(Frozen):
    """Signed sum of correlation terms; quantum value 9, local bound 7; and,
    uncompared, its hidden variables, derived once here: `ids`, the distinct
    factor labels, Alice's first and then Bob's, each in order of first
    appearance, and `masks`, one XOR mask per term, bit i standing for ids[i]."""

    _fields = ("terms",)

    def __init__(self, terms: tuple):
        terms = _tuple_of(ExperimentTerm, terms, "terms")
        index = {}
        for factors in [t.alice_factors for t in terms] + [t.bob_factors for t in terms]:
            for f in factors:
                index.setdefault(f.label, len(index))
        masks = tuple(reduce(xor, (1 << index[name] for name in t.ids)) for t in terms)
        self.__dict__.update(terms=terms, ids=tuple(index), masks=masks)

    @classmethod
    def canonical(cls) -> "BellFunctional":
        """The nine terms' functional; built once at import."""
        return CANONICAL

    def with_signs(self, signs) -> "BellFunctional":
        """Same observables with replaced term signs (eigenfamily
        adaptation), one ±1 sign per term; the copy reuses the checked
        factors and the hidden variables, which do not depend on signs."""
        signs = tuple(signs)
        if len(signs) != len(self.terms):
            raise ValueError(f"{len(signs)} signs for {len(self.terms)} terms")
        adapted = object.__new__(BellFunctional)
        terms = tuple(t._resigned(s) for s, t in zip(signs, self.terms))
        adapted.__dict__.update(self.__dict__, terms=terms)
        return adapted

    def value(self, state: states.StateVector, rows=None) -> float:
        """Sum of sign-weighted expectations of the flattened observables;
        `rows`, when given, are their images of `state` from
        `states.images`."""
        terms = self.terms
        values = states.expectations([t.observable for t in terms], state, rows)
        # Left to right, not the builtin sum, which compensates its
        # rounding from Python 3.12 on.
        total = 0
        for t, v in zip(terms, values):
            total += t.sign * v
        return total


#: The nine terms' functional.
CANONICAL = BellFunctional(NINE_TERMS)


def verify_nine_identities(state: states.StateVector, rows=None):
    """Eigenvalue sign of each term observable on `state`.

    Returns a list of nine entries, each +1, -1 or None when the state is
    not an eigenstate of that observable (a legal outcome for general
    states).  `rows`, when given, are the observables' images of `state`
    from `states.images`.
    """
    return states.eigensigns([t.observable for t in nine_terms()], state, rows)


def operator_o_check(state: states.StateVector) -> bool:
    """True iff the signed sum of term operators maps state to 9*state,
    entry by entry within NORM_TOL."""
    terms = nine_terms()
    rows = states.images([t.observable for t in terms], state)
    return all(
        abs(sum(t.sign * row[c] for t, row in zip(terms, rows)) - QUANTUM_VALUE * a)
        <= states.NORM_TOL
        for c, a in enumerate(state.amplitudes)
    )
