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

Chunking: assignments are enumerated as uint32 arrays of consecutive
values, and each chunk is tested against every constraint at once, in one
(constraints x chunk) block of parity bits.  A block holds at most 2^16
bits: with k constraints a chunk holds 2^(16 - ceil(log2 k)) assignments,
and never more than 2^14.  The largest temporary is the uint32 masked
block, at most 256 KB, so memory stays a few hundred kilobytes at any
`n_vars`.
"""

import operator

import numpy as np

BACKEND = "numpy"

_MAX_VARS = 30
_MAX_CONSTRAINTS = 64
_MAX_WEIGHT = 2**63 - 1
_BLOCK_BITS = 16
_CHUNK_BITS = 14


def _validated(masks, coefficients, n_vars):
    """Masks as a uint32 array and coefficients as a list, or ValueError."""
    try:
        masks = [operator.index(mask) for mask in masks]
    except TypeError:
        raise ValueError(f"masks must be integers, got {masks}") from None
    coefficients = list(coefficients)
    if len(masks) != len(coefficients):
        raise ValueError(
            f"{len(masks)} masks but {len(coefficients)} parities or signs"
        )
    if type(n_vars) is not int:
        raise ValueError(f"n_vars must be an int, got {n_vars!r}")
    if not 0 <= n_vars <= _MAX_VARS:
        raise ValueError(f"n_vars must be in [0, {_MAX_VARS}], got {n_vars}")
    if len(masks) > _MAX_CONSTRAINTS:
        raise ValueError(
            f"at most {_MAX_CONSTRAINTS} constraints, got {len(masks)}"
        )
    for mask in masks:
        if not 0 <= mask < 1 << n_vars:
            raise ValueError(f"mask {mask} outside [0, 2^{n_vars})")
    return np.array(masks, dtype=np.uint32), coefficients


def _blocks(masks, n_vars):
    """(x, odd) per ascending uint32 chunk x of [0, 2^n_vars), where
    odd[k, i] = popcount(x[i] & masks[k]) & 1."""
    k_bits = (max(len(masks), 1) - 1).bit_length()
    size = 1 << min(n_vars, _CHUNK_BITS, _BLOCK_BITS - k_bits)
    block = np.arange(size, dtype=np.uint32)
    column = masks[:, None]
    for start in range(0, 1 << n_vars, size):
        x = block + start
        odd = np.bitwise_count(x & column)
        odd &= 1
        yield x, odd


def satisfaction_histogram(masks, parities, n_vars):
    """Histogram of assignments by number of satisfied parity constraints.

    Returns a list h of length len(masks)+1 where h[k] counts assignments
    satisfying exactly k constraints; sum(h) == 2^n_vars.
    """
    masks, parities = _validated(masks, parities, n_vars)
    for parity in parities:
        if parity not in (0, 1):
            raise ValueError(f"parity {parity} is not 0 or 1")
    parities = np.array(parities, dtype=np.uint8)[:, None]
    violated_counts = np.zeros(len(masks) + 1, dtype=np.int64)
    for _, odd in _blocks(masks, n_vars):
        # For bits, xor is inequality; at most 64 constraints fit in uint8.
        violated = (odd ^ parities).sum(axis=0, dtype=np.uint8)
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
    total = sum(signs)
    # Sum of all terms minus twice the odd ones.  The products may wrap mod
    # 2^64, but every true value lies within +-(2^63 - 1), so the wrapped
    # result is exact.
    weights = np.array(signs, dtype=np.int64) * -2
    best = witness = None
    for x, odd in _blocks(masks, n_vars):
        # einsum casts odd to int64 in small buffers; a matmul would
        # widen the whole block at once.
        value = np.einsum("k,kn->n", weights, odd)
        value += total
        # argmax takes the first maximum, and a later chunk must be strictly
        # better, so the witness is the smallest attaining assignment.
        i = int(np.argmax(value))
        if best is None or value[i] > best:
            best, witness = int(value[i]), int(x[i])
    return best, witness


__all__ = ["BACKEND", "satisfaction_histogram", "max_weighted_parity"]
