"""Dense numpy oracle for the state engine in `avnlab.states`.

These are the numpy gather formulas the engine used before it moved to
tuples of Python complex numbers: a family's (sources, factors) arrays,
row k of the images being factors[k] * amps[sources[k]], one `np.vdot` per
expectation, the distance of each row from ±state for the eigensigns and
`np.sum(np.abs(vec) ** 2)` per Born probability.  They share no code with
the engine, so the two can certify each other.  Inputs are not validated.
"""

import itertools

import numpy as np

NORM_TOL = 1e-12


def stacked_action(ops):
    """(sources, factors) of a family of Pauli strings on n qubits.

    X^x Z^z |b> = (-1)^(z.b) |b xor x>, so the image's amplitude at c is
    read from source c xor x, with that source's z-parity sign; the Y
    count folds into the phase.
    """
    idx = np.arange(1 << ops[0].n_qubits, dtype=np.uint32)
    sources = np.stack([idx ^ np.uint32(op.x_mask) for op in ops])
    factors = np.stack([
        (1j) ** ((op.phase_power + (op.x_mask & op.z_mask).bit_count()) % 4)
        * np.where(np.bitwise_count(source & np.uint32(op.z_mask)) & 1, -1.0, 1.0)
        for source, op in zip(sources, ops)
    ])
    return sources, factors


def images(ops, amps):
    """The (family x 2^n) array of rows op|amps>."""
    amps = np.asarray(amps, dtype=complex)
    sources, factors = stacked_action(list(ops))
    return factors * amps[sources]


def expectations(ops, amps):
    """<amps|op|amps> for each op, real parts, one vdot per row."""
    amps = np.asarray(amps, dtype=complex)
    return [complex(np.vdot(amps, row)).real for row in images(ops, amps)]


def eigensigns(ops, amps, rows=None):
    """+1, -1 or None per op, from each row's largest distance from
    ±amps; a NaN distance is within NORM_TOL of neither."""
    amps = np.asarray(amps, dtype=complex)
    rows = images(ops, amps) if rows is None else np.asarray(rows, dtype=complex)
    plus_minus = np.array([[1.0], [-1.0]])
    distances = np.abs(rows[:, None, :] - plus_minus * amps).max(axis=2)
    return [
        +1 if plus <= NORM_TOL else -1 if minus <= NORM_TOL else None
        for plus, minus in distances.tolist()
    ]


def born_probabilities(factors, amps):
    """{outcome: probability} with the projectors (I + e*M)/2 applied in
    order and each probability summed by np.sum."""
    amps = np.asarray(amps, dtype=complex)
    factors = list(factors)
    actions = list(zip(*stacked_action(factors))) if factors else []
    table = {}
    for outcome in itertools.product((+1, -1), repeat=len(factors)):
        vec = amps
        for eps, (source, phase) in zip(outcome, actions):
            vec = 0.5 * (vec + eps * (phase * vec[source]))
        table[outcome] = float(np.sum(np.abs(vec) ** 2))
    return table
