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

Chunking: assignments are enumerated in chunks of consecutive values.
With k constraints a chunk holds 2^(16 - ceil(log2 k)) assignments, and
never more than 2^14.  Chunks have power-of-two size and start at
multiples of it, so a chunk start s and an offset i share no bits and
popcount((s + i) & m) = popcount(s & m) + popcount(i & m).  Every chunk is
therefore the first chunk with row k flipped when popcount(s & masks[k])
is odd.  Within the first chunk, an offset's column of parity bits
(popcount(i & masks[k]) & 1 over k) is all that the kernels read, and few
columns are distinct: the 9 LHV and the 10 KS constraints give 256 of
4096.  The distinct columns are found once per (masks, n_vars), by packing
each column into one integer syndrome (bit k for constraint k), and kept,
read-only, in a small bounded cache together with the smallest offset and
the number of offsets that have each (at most 128 KB per entry).  Each
distinct column is evaluated once per chunk and weighted by its count, so
every assignment is still counted exactly once, and its smallest offset
gives the smallest witness.  The flips of many chunks are applied in one
batched operation, in groups whose (chunks x max(k, 8) x columns)
product stays within 2^16 entries.  When all 2^n_vars assignments fit in
one chunk, as for every local bound, max-parity flips nothing and is one
product of the signs with the cached columns.
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
# At most 2^16 bits of columns and 2^15 uint16 per entry, so the cache
# holds at most 2 MB.
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


def _chunk_size(n_constraints, n_vars):
    """Assignments per chunk, so that a chunk's parity bits over all
    constraints number at most 2^16."""
    k_bits = (max(n_constraints, 1) - 1).bit_length()
    return 1 << min(n_vars, _CHUNK_BITS, _BLOCK_BITS - k_bits)


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _first_block(masks, n_vars):
    """Read-only (odd, first, count) of the first chunk's distinct columns:
    column j has odd[k, j] = popcount(first[j] & masks[k]) & 1, first[j] is
    the smallest offset with that column and count[j] the number of
    offsets with it.  Columns are ordered by first offset."""
    offsets = np.arange(_chunk_size(len(masks), n_vars), dtype=np.uint32)
    column = np.array(masks, dtype=np.uint32)[:, None]
    syndromes = np.zeros(len(offsets), dtype=np.uint64)
    for k, row in enumerate(np.bitwise_count(offsets & column) & 1):
        syndromes |= row.astype(np.uint64) << np.uint64(k)
    # With return_index, unique sorts stably and reports first occurrences.
    _, first, count = np.unique(syndromes, return_index=True, return_counts=True)
    # Offsets and counts are at most 2^14, so uint16 holds them.
    order = np.argsort(first, kind="stable")
    first, count = first[order].astype(np.uint16), count[order].astype(np.uint16)
    odd = np.bitwise_count(offsets[first] & column) & 1
    for array in (odd, first, count):
        array.flags.writeable = False
    return odd, first, count


def _chunk_flips(masks, n_vars, n_columns):
    """(starts, flip) per group of consecutive chunks, in ascending order:
    flip[g, k] = popcount(starts[g] & masks[k]) & 1.  A group's (chunks x
    max(constraints, 8) x columns) product stays within 2^16, so its
    tables of 8-byte values per (chunk, column) stay within 64 KB."""
    size = _chunk_size(len(masks), n_vars)
    per_group = size * max(1, (1 << _BLOCK_BITS) // (max(len(masks), 8) * n_columns))
    end = 1 << n_vars
    column = np.array(masks, dtype=np.uint32)
    for low in range(0, end, per_group):
        starts = np.arange(low, min(low + per_group, end), size, dtype=np.uint32)
        yield starts, np.bitwise_count(starts[:, None] & column) & 1


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
    odd, _, count = _first_block(masks, n_vars)
    violated_counts = np.zeros(len(masks) + 1)
    for _, flip in _chunk_flips(masks, n_vars, len(count)):
        # For bits, xor is inequality; at most 64 constraints fit in uint8.
        violated = (odd ^ (flip ^ parities)[:, :, None]).sum(axis=1, dtype=np.uint8)
        # Column j stands for count[j] assignments of every chunk.  Counts
        # stay below 2^53, so float weights add them exactly.
        violated_counts += np.bincount(
            violated.ravel(),
            np.broadcast_to(count, violated.shape).ravel(),
            len(violated_counts),
        )
    # Exactly v violated is exactly len(masks) - v satisfied.
    return violated_counts[::-1].astype(np.int64).tolist()


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
    signs = np.array(signs, dtype=np.int64)
    odd, first, _ = _first_block(masks, n_vars)
    # The products below may wrap mod 2^64, but every true value lies
    # within +-(2^63 - 1), so the wrapped result is exact.
    if 1 << n_vars == _chunk_size(len(masks), n_vars):
        # One chunk, which is the first: no row is flipped.  Sum of all
        # terms minus twice the odd ones, per distinct column.
        value = signs @ odd
        value *= -2
        value += total
        # Columns are ordered by first offset, so the first maximum is
        # the smallest attaining assignment.
        j = int(value.argmax())
        return int(value[j]), int(first[j])
    best = witness = None
    for starts, flip in _chunk_flips(masks, n_vars, len(first)):
        # A flipped row swaps odd and even, which negates that term.
        weights = np.where(flip, -signs, signs)
        # Sum of all terms minus twice the odd ones.  einsum casts odd to
        # int64 in small buffers; a matmul would widen the whole block at
        # once.
        value = np.einsum("gk,kj->gj", weights * -2, odd)
        value += weights.sum(axis=1)[:, None]
        # Columns are ordered by first offset, so the first maximum in
        # row-major order is the smallest attaining assignment of the
        # group, and a later group must be strictly better.
        g, j = divmod(int(np.argmax(value)), value.shape[1])
        if best is None or value[g, j] > best:
            best, witness = int(value[g, j]), int(starts[g]) + int(first[j])
    return best, witness


__all__ = ["BACKEND", "satisfaction_histogram", "max_weighted_parity"]
