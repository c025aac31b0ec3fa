"""Local-Clifford covariance: a metamorphic test of every certificate.

Conjugating every operator and psi by one single-qubit Clifford per qubit,
U = U1 ⊗ U2 ⊗ U3 ⊗ U4, gives an equivalent two-observer proof: each factor
maps to ± a Pauli string on the same observer's qubits, its sign moves into
its term's sign, and the hidden variables are relabelled.  So the term
signs must follow on U psi, the value must stay 9, the local bound 7 with
no assignment meeting all nine constraints, and the conjugated table must
keep its structure and refute all 2^17 noncontextual assignments.

The Paulis are conjugated here by the symplectic rules of the two
generators, H: X <-> Z, Y -> -Y and S: X -> Y, Y -> -X, Z -> Z; psi by
their 2x2 matrices with numpy.  Everything else runs through `avnlab`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avnlab import ks, lhv, states
from avnlab.functional import BellFunctional, ExperimentTerm
from avnlab.pauli import PauliString

_MATRICES = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]]),
}

#: One word of H and S gates per qubit, applied left to right.
_FRAMES = st.tuples(*[st.lists(st.sampled_from("HS"), max_size=7)] * 4)


def conjugate(op: PauliString, words) -> PauliString:
    """U op U† for U the tensor product of the words' Cliffords, phase included."""
    x_mask = z_mask = 0
    phase = op.phase_power
    for q, word in enumerate(words):
        bit = 1 << (op.n_qubits - 1 - q)
        x, z = bool(op.x_mask & bit), bool(op.z_mask & bit)
        for gate in word:
            phase += 2 * (x and z)  # H and S both send Y to minus a Pauli
            x, z = (z, x) if gate == "H" else (x, z ^ x)
        x_mask |= bit * x
        z_mask |= bit * z
    return PauliString(op.n_qubits, x_mask, z_mask, phase)


def conjugate_term(term, words) -> ExperimentTerm:
    """The term with every factor conjugated and the factors' signs moved
    into the term's sign."""
    sign = term.sign
    sides = []
    for factors in (term.alice_factors, term.bob_factors):
        images = [conjugate(f, words) for f in factors]
        for image in images:
            sign *= image.sign
        sides.append(tuple(PauliString(4, p.x_mask, p.z_mask) for p in images))
    return ExperimentTerm(sign, *sides)


def conjugate_state(state, words) -> states.StateVector:
    amps = np.asarray(state.amplitudes).reshape((2,) * state.n_qubits)
    for q, word in enumerate(words):
        u = np.eye(2)
        for gate in word:
            u = _MATRICES[gate] @ u
        amps = np.moveaxis(np.tensordot(u, amps, axes=(1, q)), 0, q)
    return states.StateVector(state.n_qubits, amps.ravel().tolist())


@settings(max_examples=50, deadline=None)
@given(words=_FRAMES)
def test_conjugated_instance_keeps_every_certificate(words):
    functional = BellFunctional(
        tuple(conjugate_term(t, words) for t in BellFunctional.canonical().terms)
    )
    psi = conjugate_state(states.build_psi(), words)
    signs = [t.sign for t in functional.terms]
    assert states.eigensigns([t.observable for t in functional.terms], psi) == signs
    assert abs(functional.value(psi) - 9) <= 1e-9

    proof = lhv.prove_no_valid_assignment(lhv.constraints_for(functional))
    assert (proof["exhaustive_count_satisfying_all"], proof["assignments_checked"]) == (0, 4096)
    assert proof["parity_says_impossible"]
    assert lhv.local_bound(functional)[0] == 7

    canonical = ks.KsTable.canonical()
    table = ks.KsTable(
        tuple(tuple(None if op is None else conjugate(op, words) for op in row)
              for row in canonical.grid),
        canonical.row_targets,
        canonical.column_targets,
    )
    assert ks.verify_table_structure(table)["all_ok"]
    contradiction = ks.prove_ks_contradiction(table)
    assert contradiction["exhaustive_count_satisfying_all"] == 0
    assert contradiction["assignments_checked"] == 1 << 17

