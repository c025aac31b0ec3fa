"""Exhaustive-enumeration kernels over ±1 assignments, vectorized with numpy.

Bit convention: an assignment of `n_vars` ±1 variables is an integer x in
[0, 2^n_vars), and bit i set means variable i takes the value -1.  A
parity constraint (mask, parity) holds at x when popcount(x & mask) % 2 ==
parity, i.e. when the product of the values selected by `mask` equals
(-1)^parity.

Caps: `n_vars` in [0, 30], at most 64 constraints, every mask in
[0, 2^n_vars), and one parity or sign per mask.  Parities are 0 or 1.
Signs are integer weights whose absolute values sum to at most 2^63 - 1,
so that every weighted sum fits in int64.  Anything else raises
ValueError.

Chunking: assignments are enumerated as uint32 arrays of at most 2^14
consecutive values.  Each constraint adds its parity bit into one counter
per assignment, so memory stays a few hundred kilobytes at any `n_vars`
and no (constraints x assignments) matrix is built.
"""

import operator

import numpy as np

BACKEND = "numpy"

_MAX_VARS = 30
_MAX_CONSTRAINTS = 64
_MAX_WEIGHT = 2**63 - 1
_CHUNK_BITS = 14


def _validated(masks, coefficients, n_vars):
    """Masks as Python ints and coefficients as a list, or ValueError."""
    masks = [operator.index(mask) for mask in masks]
    coefficients = list(coefficients)
    if len(masks) != len(coefficients):
        raise ValueError(
            f"{len(masks)} masks but {len(coefficients)} parities or signs"
        )
    if not 0 <= n_vars <= _MAX_VARS:
        raise ValueError(f"n_vars must be in [0, {_MAX_VARS}], got {n_vars}")
    if len(masks) > _MAX_CONSTRAINTS:
        raise ValueError(
            f"at most {_MAX_CONSTRAINTS} constraints, got {len(masks)}"
        )
    for mask in masks:
        if not 0 <= mask < 1 << n_vars:
            raise ValueError(f"mask {mask} outside [0, 2^{n_vars})")
    return masks, coefficients


def _chunks(n_vars):
    """All assignments [0, 2^n_vars) in ascending uint32 chunks."""
    size = 1 << min(n_vars, _CHUNK_BITS)
    block = np.arange(size, dtype=np.uint32)
    for start in range(0, 1 << n_vars, size):
        yield block + start


def _odd(x, mask):
    """popcount(x & mask) & 1 for every assignment in the chunk x."""
    return np.bitwise_count(x & mask) & 1


def satisfaction_histogram(masks, parities, n_vars):
    """Histogram of assignments by number of satisfied parity constraints.

    Returns a list h of length len(masks)+1 where h[k] counts assignments
    satisfying exactly k constraints; sum(h) == 2^n_vars.
    """
    masks, parities = _validated(masks, parities, n_vars)
    for parity in parities:
        if parity not in (0, 1):
            raise ValueError(f"parity {parity} is not 0 or 1")
    violated_counts = np.zeros(len(masks) + 1, dtype=np.int64)
    for x in _chunks(n_vars):
        violated = np.zeros(len(x), dtype=np.uint8)
        for mask, parity in zip(masks, parities):
            violated += _odd(x, mask) != parity
        violated_counts += np.bincount(violated, minlength=len(violated_counts))
    # Exactly v violated is exactly len(masks) - v satisfied.
    return violated_counts[::-1].tolist()


def max_weighted_parity(masks, signs, n_vars):
    """Maximize sum_k signs[k] * prod of the ±1 values selected by masks[k].

    `signs` are integer weights.  Returns (best_value, witness) where
    witness is the smallest assignment integer attaining best_value.
    """
    masks, signs = _validated(masks, signs, n_vars)
    try:
        signs = [operator.index(sign) for sign in signs]
    except TypeError:
        raise ValueError(f"signs must be integers, got {signs}") from None
    if sum(abs(sign) for sign in signs) > _MAX_WEIGHT:
        raise ValueError("signs' absolute values sum past 2^63 - 1")
    best = witness = None
    for x in _chunks(n_vars):
        value = np.zeros(len(x), dtype=np.int64)
        for mask, sign in zip(masks, signs):
            value += np.where(_odd(x, mask), -sign, sign)
        # argmax takes the first maximum, and a later chunk must be strictly
        # better, so the witness is the smallest attaining assignment.
        i = int(np.argmax(value))
        if best is None or value[i] > best:
            best, witness = int(value[i]), int(x[i])
    return best, witness


__all__ = ["BACKEND", "satisfaction_histogram", "max_weighted_parity"]
