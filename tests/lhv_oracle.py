"""Acceptance oracles for the hidden-variable side in `avnlab.lhv`.

Plain Python and numpy over named ±1 (or [-1, 1]) values, independent of
the enumeration kernels: a constraint count for one assignment, the Bell
functional's multilinear integrand at a point, and a random-sampling
check that no interior point beats the vertex maximum.
"""

import numpy as np

from avnlab import lhv


def check_assignment(values: dict, system: lhv.ParitySystem) -> int:
    """Number of constraints whose product requirement the assignment meets."""
    missing = set(lhv.ID_ORDER) - set(values)
    if missing:
        raise ValueError(f"assignment missing ids {sorted(missing)}")
    count = 0
    for mask, parity in zip(system.masks, system.parities):
        product = 1
        for i, name in enumerate(lhv.ID_ORDER):
            if mask >> i & 1:
                product *= values[name]
        if product == (-1) ** parity:
            count += 1
    return count


def functional_at_point(functional, values: dict) -> float:
    """Multilinear integrand at a point E in [-1, 1]^12."""
    total = 0.0
    for term in functional.terms:
        product = float(term.sign)
        for name in lhv.term_ids(term):
            product *= values[name]
        total += product
    return total


def bound_is_attained_at_vertices(functional, trials: int, seed: int) -> bool:
    """Random interior points never beat the vertex maximum.

    Samples `trials` points uniformly in [-1, 1]^12 and checks the
    multilinear integrand stays below local_bound + 1e-9.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    bound, _ = lhv.local_bound(functional)
    rng = np.random.default_rng(seed)
    signs = np.array([t.sign for t in functional.terms], dtype=float)
    index_lists = [
        [lhv.ID_ORDER.index(name) for name in lhv.term_ids(t)]
        for t in functional.terms
    ]
    points = rng.uniform(-1.0, 1.0, size=(trials, lhv.N_IDS))
    values = np.ones((trials, len(functional.terms)))
    for k, idxs in enumerate(index_lists):
        for i in idxs:
            values[:, k] *= points[:, i]
    totals = values @ signs
    return bool(np.all(totals <= bound + 1e-9))
