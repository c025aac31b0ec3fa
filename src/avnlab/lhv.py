"""Local-hidden-variable side: value-assignment constraints and the local bound.

The 12 local observables (6 per observer) are treated as independent ±1
quantities.  The nine product constraints they inherit from the quantum
identities are jointly unsatisfiable, by a parity argument and by
exhaustive enumeration of all 4096 deterministic assignments; the same
enumeration yields the local bound 7 on the Bell functional, against the
quantum value 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .functional import EXPECTED_SIGNS, BellFunctional

ALICE_IDS = ("z1", "z2", "x1", "x2", "z1z2", "x1x2")
BOB_IDS = ("z3", "z4", "x3", "x4", "z3x4", "x3z4")

#: Canonical enumeration order: Alice before Bob, singles before products.
ID_ORDER = ALICE_IDS + BOB_IDS
_ID_INDEX = {name: i for i, name in enumerate(ID_ORDER)}

N_IDS = len(ID_ORDER)


@dataclass(frozen=True)
class Constraint:
    """Required product of a set of local observable values."""

    ids: tuple
    required_product: int

    def __post_init__(self):
        if self.required_product not in (+1, -1):
            raise ValueError("required product must be ±1")
        unknown = set(self.ids) - set(ID_ORDER)
        if unknown:
            raise ValueError(f"unknown observable ids {sorted(unknown)}")

    @property
    def mask(self) -> int:
        m = 0
        for name in self.ids:
            m ^= 1 << _ID_INDEX[name]
        return m

    @property
    def parity(self) -> int:
        return 0 if self.required_product == +1 else 1


@dataclass(frozen=True)
class ConstraintSystem:
    constraints: tuple

    @classmethod
    def canonical(cls) -> "ConstraintSystem":
        """The nine constraints inherited from the nine identities."""
        return constraints_for(BellFunctional.canonical())

    def masks_and_parities(self):
        return (
            [c.mask for c in self.constraints],
            [c.parity for c in self.constraints],
        )


def term_ids(term) -> tuple:
    """Local observable ids referenced by one term's factors."""
    ids = tuple(f.label for f in term.factors)
    unknown = set(ids) - set(ID_ORDER)
    if unknown:
        raise ValueError(f"term references non-local observables {sorted(unknown)}")
    return ids


def constraints_for(functional: BellFunctional) -> ConstraintSystem:
    """One product constraint per term, with the term's sign as target."""
    return ConstraintSystem(
        tuple(Constraint(term_ids(t), t.sign) for t in functional.terms)
    )


def assignment_from_int(x: int) -> dict:
    """Decode an assignment integer (bit i set means ID_ORDER[i] = -1)."""
    return {name: -1 if x >> i & 1 else +1 for i, name in enumerate(ID_ORDER)}


def check_assignment(values: dict, cs: ConstraintSystem) -> int:
    """Number of constraints whose product requirement the assignment meets."""
    missing = set(ID_ORDER) - set(values)
    if missing:
        raise ValueError(f"assignment missing ids {sorted(missing)}")
    count = 0
    for c in cs.constraints:
        product = 1
        for name in c.ids:
            product *= values[name]
        if product == c.required_product:
            count += 1
    return count


def prove_no_valid_assignment(cs: ConstraintSystem) -> dict:
    """Impossibility certificate: parity argument plus exhaustive search.

    The parity argument applies when every id occurs an even number of
    times across the constraints while the product of required products is
    -1; the exhaustive count over all 2^12 assignments must agree with it
    either way.
    """
    parity_product = 1
    occurrences = {name: 0 for name in ID_ORDER}
    for c in cs.constraints:
        parity_product *= c.required_product
        for name in c.ids:
            occurrences[name] += 1
    all_even = all(count % 2 == 0 for count in occurrences.values())
    parity_says_impossible = all_even and parity_product == -1

    masks, parities = cs.masks_and_parities()
    hist = kernels.satisfaction_histogram(masks, parities, N_IDS)
    satisfying = hist[len(cs.constraints)]
    max_satisfiable = max(k for k, n in enumerate(hist) if n > 0)

    if parity_says_impossible and satisfying != 0:
        raise AssertionError("parity and exhaustive methods disagree")

    return {
        "parity_product": parity_product,
        "all_ids_even_multiplicity": all_even,
        "parity_says_impossible": parity_says_impossible,
        "exhaustive_count_satisfying_all": satisfying,
        "max_simultaneously_satisfiable": max_satisfiable,
        "assignments_checked": 1 << N_IDS,
    }


def local_bound(functional: BellFunctional):
    """Max of the functional over all 4096 deterministic ±1 assignments.

    Returns (bound, witness_assignment); the witness is the assignment
    with the smallest integer encoding in the canonical id order that
    attains the bound.
    """
    cs = constraints_for(functional)
    masks = [c.mask for c in cs.constraints]
    signs = [t.sign for t in functional.terms]
    bound, witness = kernels.max_weighted_parity(masks, signs, N_IDS)
    return bound, assignment_from_int(witness)


def functional_at_point(functional: BellFunctional, values: dict) -> float:
    """Multilinear integrand at a point E in [-1, 1]^12."""
    total = 0.0
    for term in functional.terms:
        product = float(term.sign)
        for name in term_ids(term):
            product *= values[name]
        total += product
    return total


def bound_is_attained_at_vertices(
    functional: BellFunctional, trials: int, seed: int
) -> bool:
    """Random interior points never beat the vertex maximum.

    Samples `trials` points uniformly in [-1, 1]^12 and checks the
    multilinear integrand stays below local_bound + 1e-9.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    bound, _ = local_bound(functional)
    rng = np.random.default_rng(seed)
    signs = np.array([t.sign for t in functional.terms], dtype=float)
    index_lists = [
        [_ID_INDEX[name] for name in term_ids(t)] for t in functional.terms
    ]
    points = rng.uniform(-1.0, 1.0, size=(trials, N_IDS))
    values = np.ones((trials, len(functional.terms)))
    for k, idxs in enumerate(index_lists):
        for i in idxs:
            values[:, k] *= points[:, i]
    totals = values @ signs
    return bool(np.all(totals <= bound + 1e-9))


def visibility_threshold(functional: BellFunctional, quantum_value: float) -> Fraction:
    """Critical visibility L/Q under uniform correlation scaling.

    Werner-type mixing with the maximally mixed state multiplies every
    term's correlation by the visibility V, because every term observable
    is traceless; the functional then exceeds the local bound exactly when
    V > L/Q.
    """
    if quantum_value == 0:
        raise ZeroDivisionError("quantum value is zero")
    bound, _ = local_bound(functional)
    return Fraction(bound) / Fraction(quantum_value).limit_denominator(10**6)


def certificate() -> dict:
    """JSON-ready impossibility-plus-bound certificate for the canonical case."""
    functional = BellFunctional.canonical()
    cs = constraints_for(functional)
    proof = prove_no_valid_assignment(cs)
    bound, witness = local_bound(functional)
    threshold = visibility_threshold(functional, 9)
    return {
        "id_order": list(ID_ORDER),
        "constraints": [
            {"ids": list(c.ids), "required_product": c.required_product}
            for c in cs.constraints
        ],
        "expected_signs": list(EXPECTED_SIGNS),
        "parity_product": proof["parity_product"],
        "satisfying_count": proof["exhaustive_count_satisfying_all"],
        "max_simultaneously_satisfiable": proof["max_simultaneously_satisfiable"],
        "local_bound": bound,
        "witness": witness,
        "quantum_value": 9,
        "visibility_threshold": float(threshold),
        "visibility_threshold_exact": f"{threshold.numerator}/{threshold.denominator}",
    }
