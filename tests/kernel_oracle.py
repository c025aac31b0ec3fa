"""Brute-force oracle for the enumeration kernels in `avnlab.kernels`.

Plain Python loops over every assignment, sharing no code with the numpy
kernels, so the two can certify each other.  Same contract: assignments
are integers in [0, 2^n_vars), bit i set means variable i takes the value
-1, and a parity constraint (mask, parity) is satisfied when
popcount(x & mask) % 2 == parity, i.e. when the product of the ±1 values
selected by `mask` equals (-1)^parity.  Inputs are not validated.
"""


def satisfaction_histogram(masks, parities, n_vars):
    """Histogram of assignments by number of satisfied parity constraints.

    Returns a list h of length len(masks)+1 where h[k] counts assignments
    satisfying exactly k constraints; sum(h) == 2^n_vars.
    """
    pairs = list(zip(masks, parities))
    hist = [0] * (len(pairs) + 1)
    for x in range(1 << n_vars):
        sat = 0
        for mask, parity in pairs:
            if (x & mask).bit_count() & 1 == parity:
                sat += 1
        hist[sat] += 1
    return hist


def max_weighted_parity(masks, signs, n_vars):
    """Maximize sum_k signs[k] * prod of the ±1 values selected by masks[k].

    Returns (best_value, witness) where witness is the smallest assignment
    integer attaining best_value.
    """
    pairs = list(zip(masks, signs))
    best = None
    witness = 0
    for x in range(1 << n_vars):
        value = 0
        for mask, sign in pairs:
            value += -sign if (x & mask).bit_count() & 1 else sign
        if best is None or value > best:
            best = value
            witness = x
    return best, witness
