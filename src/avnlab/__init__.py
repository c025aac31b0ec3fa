"""Verification lab for the two-observer all-versus-nothing Bell argument.

Exact Pauli-string algebra, dense state-vector checks of the nine
eigenvalue identities, exhaustive hidden-variable refutations (4096 EPR
assignments, 131072 noncontextual valuations), the local bound 7 against
the quantum value 9, and Monte Carlo simulation of the nine experiments
under noise.
"""

from .functional import (
    BellFunctional,
    EXPECTED_SIGNS,
    ExperimentTerm,
    nine_terms,
    verify_nine_identities,
)
from .pauli import PauliString, parse
from .states import StateVector, born_probabilities, build_psi

__version__ = "0.1.0"

__all__ = [
    "BellFunctional",
    "EXPECTED_SIGNS",
    "ExperimentTerm",
    "PauliString",
    "StateVector",
    "born_probabilities",
    "build_psi",
    "nine_terms",
    "parse",
    "verify_nine_identities",
    "__version__",
]
