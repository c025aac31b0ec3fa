"""Exhaustive-enumeration kernels over ±1 assignments, bit-sliced on
Python ints.

Bit convention: an assignment of `n_vars` ±1 variables is an integer x in
[0, 2^n_vars), and bit i set means variable i takes the value -1.  A
parity constraint (mask, parity) holds at x when popcount(x & mask) % 2 ==
parity, i.e. when the product of the values selected by `mask` equals
(-1)^parity.

Caps: `n_vars` in [0, 30], at most 64 constraints, every mask in
[0, 2^n_vars), and one parity or sign per mask.  Parities are the
integers 0 or 1 and signs the integers +1 or -1.  Anything else, bools
included, raises ValueError.

Bit layout: assignments run in windows of W = 2^min(n_vars, 16).  In a
window, a "plane" is one W-bit int: bit x of variable i's plane is bit i
of assignment x, and a constraint's plane, the XOR of its variables'
planes, marks where its product is -1.  A ripple-carry adder sums the
constraint planes into a bit-sliced counter, whose plane j holds bit j of
every assignment's sum.  A window start s (a multiple of W) and an offset
share no bits, so popcount((s + i) & m) = popcount(s & m) +
popcount(i & m): each window is the first with constraint k's plane
complemented when popcount(s & masks[k]) is odd, and each distinct set of
complements is evaluated once.  Memory per call: at most 8 KB per plane
for the 16 variable planes, one constraint plane and the counter's
bit_length(number of constraints) <= 7 planes: under 300 KB.
"""

import operator

BACKEND = "bitslice"

_MAX_VARS = 30
_MAX_CONSTRAINTS = 64
_WINDOW_BITS = 16

# Plane of variable i over the widest window: runs of 2^i zeros then 2^i
# ones, 8 KB each; a narrower window keeps their low bits.
_PLANES = []
for _i in range(_WINDOW_BITS):
    _plane, _period = ((1 << (1 << _i)) - 1) << (1 << _i), 2 << _i
    while _period < 1 << _WINDOW_BITS:
        _plane |= _plane << _period
        _period *= 2
    _PLANES.append(_plane)


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


def _counters(masks, n_vars, complements):
    """(start, count, full, counter) per distinct window: counter is the
    bit-sliced sum over k of constraint k's plane, complemented when
    complements[k] is true; full is the window's all-ones plane, start the
    first window that gives this counter and count the number of windows
    that do.  Starts ascend."""
    width = min(n_vars, _WINDOW_BITS)
    full = (1 << (1 << width)) - 1
    planes = [plane & full for plane in _PLANES[:width]]
    # Bit k of window h's flip is popcount(h's start & masks[k]) & 1, the
    # XOR of the columns of h's set bits.
    flips = [0]
    for i in range(width, n_vars):
        column = sum((mask >> i & 1) << k for k, mask in enumerate(masks))
        flips += [flip ^ column for flip in flips]
    windows = {}
    for h, flip in enumerate(flips):
        start, count = windows.get(flip, (h << width, 0))
        windows[flip] = (start, count + 1)
    # Every partial sum is at most len(masks), so its bits suffice.
    bits = len(masks).bit_length()
    for flip, (start, count) in windows.items():
        counter = [0] * bits
        for k, mask in enumerate(masks):
            plane = full if complements[k] ^ (flip >> k & 1) else 0
            low = mask & (1 << width) - 1
            while low:
                plane ^= planes[(low & -low).bit_length() - 1]
                low &= low - 1
            # Ripple-carry add the plane.
            bit, carry = 0, plane
            while carry:
                counter[bit], carry = counter[bit] ^ carry, counter[bit] & carry
                bit += 1
        yield start, count, full, counter


def satisfaction_histogram(masks, parities, n_vars):
    """Histogram of assignments by number of satisfied parity constraints.

    Returns a list h of length len(masks)+1 where h[k] counts assignments
    satisfying exactly k constraints; sum(h) == 2^n_vars.
    """
    masks, parities = _validated(masks, parities, n_vars, "parity", (0, 1))
    # A plane complemented by its parity marks where the constraint fails.
    violated = [0] * (len(masks) + 1)
    for _, count, full, counter in _counters(masks, n_vars, parities):
        # Split the window by each counter bit, top down and depth first,
        # into the assignments that violate exactly v constraints for each
        # v; at most one pending leaf per counter bit is alive.
        stack = [(full, len(counter) - 1, 0)]
        while stack:
            leaf, bit, value = stack.pop()
            if leaf and bit < 0:
                violated[value] += leaf.bit_count() * count
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
    # Term k is +1 where its plane is clear and -1 where set, with the
    # plane complemented for sign -1, so the value is len(masks) - 2 *
    # cost, cost being the number of set planes: maximize by minimizing it.
    best = witness = None
    for start, _, full, counter in _counters(masks, n_vars, [sign < 0 for sign in signs]):
        # Top-down minimum: keep the assignments whose cost has a 0 at
        # each bit when any has one.
        cost, candidates = 0, full
        for bit in range(len(counter) - 1, -1, -1):
            low = candidates & (counter[bit] ^ full)
            if low:
                candidates = low
            else:
                cost |= 1 << bit
        # Starts ascend, so only a strictly smaller cost replaces the
        # smallest witness found so far.
        if best is None or cost < best:
            best = cost
            witness = start + (candidates & -candidates).bit_length() - 1
    return len(masks) - 2 * best, witness


__all__ = ["BACKEND", "satisfaction_histogram", "max_weighted_parity"]
