"""Local-hidden-variable side: value-assignment constraints and the local bound.

The hidden variables of a functional are its terms' n distinct local
factors, each an independent ±1 quantity, with 2^n deterministic
assignments; `BellFunctional` derives them once, when it is built, as
its `ids` and one mask per term, and this module reads them there.  For
the canonical terms these are the 12 local observables
(6 per observer); the nine product constraints they inherit from the
quantum identities are jointly unsatisfiable, by a parity argument and by
exhaustive enumeration, and the same enumeration yields the local bound 7
on the Bell functional, against the quantum value 9.
"""

from __future__ import annotations

import math

from . import kernels
from ._frozen import Frozen
from .functional import EXPECTED_SIGNS, LOCAL_BOUND, QUANTUM_VALUE, BellFunctional


#: The canonical functional's ids: Alice before Bob, singles before products.
ID_ORDER = BellFunctional.canonical().ids


class ParitySystem(Frozen):
    """Parity constraints over `n_vars` ±1 variables, in the kernels' encoding.

    Constraint k holds at an assignment when the product of the values
    selected by masks[k] equals (-1)^parities[k].  Both hidden-variable
    proofs are instances: the nine EPR product constraints here and the ten
    table lines in `avnlab.ks`.
    """

    _fields = ("masks", "parities", "n_vars")

    def __init__(self, masks: tuple, parities: tuple, n_vars: int):
        self.__dict__.update(masks=masks, parities=parities, n_vars=n_vars)

    def prove(self) -> dict:
        """Parity argument plus exhaustive count; the two must agree.

        If every variable occurs an even number of times across the
        constraints, multiplying all of them squares every value away, so
        targets that multiply to -1 cannot all be met.  The histogram of
        all 2^n_vars assignments must then have an empty top bin.
        """
        hist = kernels.satisfaction_histogram(self.masks, self.parities, self.n_vars)
        occurrences = [
            sum(mask >> i & 1 for mask in self.masks) for i in range(self.n_vars)
        ]
        parity_product = -1 if sum(self.parities) % 2 else +1
        parity_says_impossible = parity_product == -1 and all(
            n % 2 == 0 for n in occurrences
        )
        if parity_says_impossible and hist[-1] != 0:
            raise AssertionError("parity and exhaustive methods disagree")
        return {
            "parity_product": parity_product,
            "parity_says_impossible": parity_says_impossible,
            "exhaustive_count_satisfying_all": hist[-1],
            "assignments_checked": 1 << self.n_vars,
            "histogram": hist,
            "occurrences": occurrences,
        }


def constraints_for(functional: BellFunctional) -> ParitySystem:
    """One parity constraint per term, with the term's sign as target."""
    parities = tuple(0 if t.sign == +1 else 1 for t in functional.terms)
    return ParitySystem(functional.masks, parities, len(functional.ids))


def assignment_from_int(x: int, ids: tuple) -> dict:
    """Decode an assignment integer (bit i set means ids[i] = -1)."""
    return {name: -1 if x >> i & 1 else +1 for i, name in enumerate(ids)}


def prove_no_valid_assignment(system: ParitySystem) -> dict:
    """Impossibility certificate: parity argument plus exhaustive search
    over all 2^n assignments of the system's n ids (see `ParitySystem.prove`)."""
    proof = system.prove()
    hist = proof.pop("histogram")
    proof["all_ids_even_multiplicity"] = all(
        n % 2 == 0 for n in proof.pop("occurrences")
    )
    proof["max_simultaneously_satisfiable"] = max(k for k, n in enumerate(hist) if n)
    return proof


def local_bound(functional: BellFunctional):
    """Max of the functional over all 2^n deterministic ±1 assignments of
    its n ids: one kernel call over its `masks` and term signs.

    Returns (bound, witness_assignment); the witness is the assignment
    with the smallest integer encoding in the functional's id order that
    attains the bound.
    """
    ids = functional.ids
    signs = [t.sign for t in functional.terms]
    bound, witness = kernels.max_weighted_parity(functional.masks, signs, len(ids))
    return bound, assignment_from_int(witness, ids)


def visibility_threshold(functional: BellFunctional) -> tuple:
    """Critical visibility L/Q, as an int pair in lowest terms, (7, 9) for
    the canonical functional: L is its local bound, Q = QUANTUM_VALUE.
    Werner-type mixing with the maximally mixed state multiplies every
    term's correlation by the visibility V, because every term observable
    is traceless; the functional then exceeds L exactly when V > L/Q."""
    bound, _ = local_bound(functional)
    common = math.gcd(bound, QUANTUM_VALUE)
    return bound // common, QUANTUM_VALUE // common


def certificate() -> dict:
    """JSON-ready impossibility-plus-bound certificate for the canonical case."""
    functional = BellFunctional.canonical()
    proof = prove_no_valid_assignment(constraints_for(functional))
    bound, witness = local_bound(functional)
    numerator, denominator = visibility_threshold(functional)
    return {
        "id_order": list(ID_ORDER),
        "constraints": [
            {"ids": list(t.ids), "required_product": t.sign}
            for t in functional.terms
        ],
        "expected_signs": list(EXPECTED_SIGNS),
        "parity_product": proof["parity_product"],
        "satisfying_count": proof["exhaustive_count_satisfying_all"],
        "max_simultaneously_satisfiable": proof["max_simultaneously_satisfiable"],
        "local_bound": bound,
        "witness": witness,
        "quantum_value": QUANTUM_VALUE,
        "visibility_threshold": numerator / denominator,
        "visibility_threshold_exact": f"{numerator}/{denominator}",
        "all_ok": proof["exhaustive_count_satisfying_all"] == 0 and bound == LOCAL_BOUND,
    }
