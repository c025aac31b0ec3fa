"""Exhaustive-enumeration kernels over ±1 assignments, bit-sliced on
Python ints.

Bit convention: an assignment of `n_vars` ±1 variables is an integer x in
[0, 2^n_vars), and bit i set means variable i takes the value -1.  A
parity constraint (mask, parity) holds at x when popcount(x & mask) % 2 ==
parity, i.e. when the product of the values selected by `mask` equals
(-1)^parity.

Caps: `n_vars` in [0, 17], at most 64 constraints, every mask in
[0, 2^n_vars), and one parity or sign per mask.  Parities are the
integers 0 or 1 and signs the integers +1 or -1.  Anything else, bools
included, raises ValueError.  17 is the largest system a certificate
builds, the canonical table's parity system (the EPR one takes 12).

Bit layout: a "plane" is one 2^n_vars-bit int.  Bit x of variable i's
plane is bit i of assignment x, and a constraint's plane, the XOR of its
variables' planes, marks where its product is -1.  A ripple-carry adder
sums the constraint planes into a bit-sliced counter, whose plane j
holds bit j of every assignment's sum.  Memory at n_vars = 17: the
variable planes, built once per n_vars on first use, take 272 KB, and a
call adds one constraint plane and at most 7 counter planes of 16 KB
each, under 300 KB with their temporaries.
"""

import functools
import operator

BACKEND = "bitslice"

_MAX_VARS = 17
_MAX_CONSTRAINTS = 64


@functools.lru_cache(maxsize=_MAX_VARS + 1)
def _planes(n_vars):
    """The plane of each variable i < n_vars: runs of 2^i zeros then 2^i ones."""
    planes = []
    for i in range(n_vars):
        # Double the planes over 2^i assignments and add variable i's.
        half = 1 << i
        planes = [plane | plane << half for plane in planes] + [((1 << half) - 1) << half]
    return tuple(planes)


def _index(value) -> int:
    """`value` as an int, refusing bools as every avnlab constructor does."""
    if type(value) is bool:
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def _validated(masks, coefficients, n_vars, name, allowed):
    """Masks as a tuple of ints and `name` coefficients as ints from the pair `allowed`."""
    try:
        masks = tuple(_index(mask) for mask in masks)
    except TypeError:
        raise ValueError(f"masks must be integers, got {masks}") from None
    try:
        coefficients = [_index(value) for value in coefficients]
    except TypeError:
        raise ValueError(f"{name} values must be integers, got {coefficients}") from None
    if len(masks) != len(coefficients):
        raise ValueError(f"{len(masks)} masks but {len(coefficients)} parities or signs")
    if type(n_vars) is not int:
        raise ValueError(f"n_vars must be an int, got {n_vars!r}")
    if not 0 <= n_vars <= _MAX_VARS:
        raise ValueError(f"n_vars must be in [0, {_MAX_VARS}], got {n_vars}")
    if len(masks) > _MAX_CONSTRAINTS:
        raise ValueError(f"at most {_MAX_CONSTRAINTS} constraints, got {len(masks)}")
    for mask in masks:
        if not 0 <= mask < 1 << n_vars:
            raise ValueError(f"mask {mask} outside [0, 2^{n_vars})")
    if not set(coefficients) <= set(allowed):
        raise ValueError(f"{name} values must be {allowed[0]} or {allowed[1]}, got {coefficients}")
    return masks, coefficients


def _counter(masks, n_vars, complements):
    """(full, counter): the all-ones plane and the bit-sliced sum over k of
    constraint k's plane, complemented when complements[k] is true."""
    full = (1 << (1 << n_vars)) - 1
    planes = _planes(n_vars)
    # Every partial sum is at most len(masks), so its bits suffice.
    counter = [0] * len(masks).bit_length()
    for mask, complement in zip(masks, complements):
        plane = full if complement else 0
        while mask:
            plane ^= planes[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        # Ripple-carry add the plane.
        bit, carry = 0, plane
        while carry:
            counter[bit], carry = counter[bit] ^ carry, counter[bit] & carry
            bit += 1
    return full, counter


def satisfaction_histogram(masks, parities, n_vars):
    """Histogram of assignments by number of satisfied parity constraints.

    Returns a list h of length len(masks)+1 where h[k] counts assignments
    satisfying exactly k constraints; sum(h) == 2^n_vars.
    """
    masks, parities = _validated(masks, parities, n_vars, "parity", (0, 1))
    # A plane complemented by its parity marks where the constraint fails.
    full, counter = _counter(masks, n_vars, parities)
    # Split the assignments by each counter bit, top down and depth first,
    # by how many constraints they violate; one pending leaf per bit at most.
    violated = [0] * (len(masks) + 1)
    stack = [(full, len(counter) - 1, 0)]
    while stack:
        leaf, bit, value = stack.pop()
        if leaf and bit < 0:
            violated[value] += leaf.bit_count()
        elif leaf:
            stack.append((leaf & counter[bit], bit - 1, value | 1 << bit))
            stack.append((leaf & (counter[bit] ^ full), bit - 1, value))
    # Exactly v violated is exactly len(masks) - v satisfied.
    return violated[::-1]


def max_weighted_parity(masks, signs, n_vars):
    """Maximize sum_k signs[k] * prod of the ±1 values selected by masks[k].

    `signs` are +1 or -1.  Returns (best_value, witness) where witness is
    the smallest assignment integer attaining best_value.
    """
    masks, signs = _validated(masks, signs, n_vars, "sign", (1, -1))
    # Term k is +1 where its plane (complemented for sign -1) is clear, so
    # the value is len(masks) - 2 * the number of set planes, its cost.
    full, counter = _counter(masks, n_vars, [sign < 0 for sign in signs])
    # Top-down minimum: keep the assignments whose cost has a 0 at each
    # bit when any has one.  The lowest survivor is the smallest witness.
    cost, candidates = 0, full
    for bit in range(len(counter) - 1, -1, -1):
        low = candidates & (counter[bit] ^ full)
        if low:
            candidates = low
        else:
            cost |= 1 << bit
    return len(masks) - 2 * cost, (candidates & -candidates).bit_length() - 1


__all__ = ["BACKEND", "satisfaction_histogram", "max_weighted_parity"]
