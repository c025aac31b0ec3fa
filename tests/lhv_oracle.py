"""Acceptance oracles for the hidden-variable side in `avnlab.lhv`.

Plain Python and numpy over named ±1 (or [-1, 1]) values, independent of
the enumeration kernels and of `lhv`'s numbering of the ids, which are
read here from the terms' factor labels: a constraint count for one
assignment, the Bell functional's multilinear integrand at a point, and a
random-sampling check that no interior point beats the vertex maximum.
"""

import numpy as np

from avnlab import lhv


def factor_labels(term) -> list:
    """The labels of one term's factors, Alice's first: its ids."""
    return [f.label for f in term.alice_factors + term.bob_factors]


def functional_ids(functional) -> list:
    """Every id the functional's terms name, sorted."""
    return sorted({name for t in functional.terms for name in factor_labels(t)})


def check_assignment(values: dict, functional) -> int:
    """Number of terms whose sign the product of their ids' values meets."""
    missing = set(functional_ids(functional)) - set(values)
    if missing:
        raise ValueError(f"assignment missing ids {sorted(missing)}")
    count = 0
    for term in functional.terms:
        product = 1
        for name in factor_labels(term):
            product *= values[name]
        if product == term.sign:
            count += 1
    return count


def functional_at_point(functional, values: dict) -> float:
    """Multilinear integrand at a point E in [-1, 1]^n."""
    total = 0.0
    for term in functional.terms:
        product = float(term.sign)
        for name in factor_labels(term):
            product *= values[name]
        total += product
    return total


def bound_is_attained_at_vertices(functional, trials: int, seed: int) -> bool:
    """Random interior points never beat the vertex maximum.

    Samples `trials` points uniformly in [-1, 1]^n over the functional's n
    ids and checks the multilinear integrand stays below local_bound + 1e-9.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    bound, _ = lhv.local_bound(functional)
    rng = np.random.default_rng(seed)
    ids = functional_ids(functional)
    signs = np.array([t.sign for t in functional.terms], dtype=float)
    index_lists = [[ids.index(name) for name in factor_labels(t)] for t in functional.terms]
    points = rng.uniform(-1.0, 1.0, size=(trials, len(ids)))
    values = np.ones((trials, len(functional.terms)))
    for k, idxs in enumerate(index_lists):
        for i in idxs:
            values[:, k] *= points[:, i]
    totals = values @ signs
    return bool(np.all(totals <= bound + 1e-9))
