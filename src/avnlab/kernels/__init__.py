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

Chunking: assignments are enumerated in chunks of consecutive values,
and each chunk is tested against every constraint at once, in one
(constraints x chunk) block of parity bits.  A block holds at most 2^16
bits: with k constraints a chunk holds 2^(16 - ceil(log2 k)) assignments,
and never more than 2^14.  Chunks have power-of-two size and start at
multiples of it, so a chunk start s and an offset i share no bits and
popcount((s + i) & m) = popcount(s & m) + popcount(i & m).  Every chunk's
block is therefore the first chunk's block with row k flipped when
popcount(s & masks[k]) is odd.  The first block is built once per
(masks, n_vars) and kept, read-only, in a small bounded cache (at most
64 KB per entry), so repeated calls on one system, such as the local
bounds of sign-adapted functionals, share it and no chunk recomputes a
parity bit.
"""

import functools
import operator

import numpy as np

BACKEND = "numpy"

_MAX_VARS = 30
_MAX_CONSTRAINTS = 64
_MAX_WEIGHT = 2**63 - 1
_BLOCK_BITS = 16
_CHUNK_BITS = 14
# At most 2^16 bits per block, so the cache holds at most 1 MB of blocks.
_CACHED_BLOCKS = 16


def _validated(masks, coefficients, n_vars):
    """Masks as a tuple of ints and coefficients as a list, or ValueError."""
    try:
        masks = tuple(operator.index(mask) for mask in masks)
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
    return masks, coefficients


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _first_block(masks, n_vars):
    """Read-only odd[k, i] = popcount(i & masks[k]) & 1 over the first chunk."""
    k_bits = (max(len(masks), 1) - 1).bit_length()
    size = 1 << min(n_vars, _CHUNK_BITS, _BLOCK_BITS - k_bits)
    column = np.array(masks, dtype=np.uint32)[:, None]
    odd = np.bitwise_count(np.arange(size, dtype=np.uint32) & column) & 1
    odd.flags.writeable = False
    return odd


def _blocks(masks, n_vars):
    """(start, odd0, flip) per ascending chunk of [0, 2^n_vars): the chunk
    holds start + i for i < odd0.shape[1], and odd0[k, i] ^ flip[k] is
    popcount((start + i) & masks[k]) & 1."""
    odd0 = _first_block(masks, n_vars)
    column = np.array(masks, dtype=np.uint32)
    for start in range(0, 1 << n_vars, odd0.shape[1]):
        yield start, odd0, np.bitwise_count(column & np.uint32(start)) & 1


def satisfaction_histogram(masks, parities, n_vars):
    """Histogram of assignments by number of satisfied parity constraints.

    Returns a list h of length len(masks)+1 where h[k] counts assignments
    satisfying exactly k constraints; sum(h) == 2^n_vars.
    """
    masks, parities = _validated(masks, parities, n_vars)
    for parity in parities:
        if parity not in (0, 1):
            raise ValueError(f"parity {parity} is not 0 or 1")
    parities = np.array(parities, dtype=np.uint8)
    violated_counts = np.zeros(len(masks) + 1, dtype=np.int64)
    for _, odd0, flip in _blocks(masks, n_vars):
        # For bits, xor is inequality; at most 64 constraints fit in uint8.
        violated = (odd0 ^ (flip ^ parities)[:, None]).sum(axis=0, dtype=np.uint8)
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
    signs = np.array(signs, dtype=np.int64)
    best = witness = None
    for start, odd0, flip in _blocks(masks, n_vars):
        # A flipped row swaps odd and even, which negates that term.
        weights = np.where(flip, -signs, signs)
        # Sum of all terms minus twice the odd ones.  The products may wrap
        # mod 2^64, but every true value lies within +-(2^63 - 1), so the
        # wrapped result is exact.  einsum casts odd0 to int64 in small
        # buffers; a matmul would widen the whole block at once.
        value = np.einsum("k,kn->n", weights * -2, odd0)
        value += weights.sum()
        # argmax takes the first maximum, and a later chunk must be strictly
        # better, so the witness is the smallest attaining assignment.
        i = int(np.argmax(value))
        if best is None or value[i] > best:
            best, witness = int(value[i]), start + i
    return best, witness


__all__ = ["BACKEND", "satisfaction_histogram", "max_weighted_parity"]
