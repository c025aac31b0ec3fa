"""Monte Carlo simulation of the nine experiments under noise.

Each run samples one term's sufficient statistic rather than every shot.
The joint outcomes of the term's local factors follow the exact Born
distribution on the state psi of `states.build_psi`, mixed with a uniform
(depolarized) outcome table with weight 1 - visibility; each factor is
detected independently, with coincidence post-selection.  Detection does
not depend on the outcome, so the number of retained shots and the number
of those whose outcome product is +1 are two binomial draws, with the
same distribution as a shot-by-shot simulation, at a cost independent of
the shot count.  Per-term RNG substreams make reports reproducible
regardless of the order in which terms are executed.  The draws use the
standard library only: `random.Random.random()`, whose sequence for a
given seed Python keeps the same across versions.
"""

from __future__ import annotations

import math
import numbers
import operator
import random

from ._frozen import Frozen
from .functional import LOCAL_BOUND, QUANTUM_VALUE, nine_terms
from .pauli import parse
from .states import born_probabilities, build_psi

#: Version of the draws a seed maps to: 1 sampled every shot; 2 drew two
#: binomials per term from numpy substreams; 3 draws the same two
#: binomials from a `random.Random` per term.
RNG_CONTRACT = 3

#: A documented cap, not a limit of the sampler: shot counts stay within a
#: signed 64-bit integer, as most JSON readers hold integers, and the
#: sampler is tested at the cap.
MAX_SHOTS = 2**63 - 1

#: Standard errors by which F must exceed the local bound to violate it.
SIGMA_RULE = 3.0

_ESTIMATOR_CODES = {"direct": 0, "yproduct": 1, "bellpairs": 2}


class NoiseModel(Frozen):
    """Werner-type visibility plus independent detector efficiency."""

    _fields = ("visibility", "detector_efficiency")

    def __init__(self, visibility: float = 1.0, detector_efficiency: float = 1.0):
        _real("visibility", visibility)
        _real("detector_efficiency", detector_efficiency)
        if not 0.0 <= visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not 0.0 < detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")
        self.__dict__.update(visibility=visibility, detector_efficiency=detector_efficiency)


class CorrelationRecord(Frozen):
    _fields = ("term_index", "label", "estimator", "shots_requested", "shots_retained",
               "estimate", "standard_error")

    def __init__(self, term_index: int, label: str, estimator: str, shots_requested: int,
                 shots_retained: int, estimate: float, standard_error: float):
        self.__dict__.update(term_index=term_index, label=label, estimator=estimator,
                             shots_requested=shots_requested, shots_retained=shots_retained,
                             estimate=estimate, standard_error=standard_error)


class DegenerateRecordError(RuntimeError):
    """No shots survived coincidence post-selection."""


def term_rng(seed: int, term_index: int, estimator: str = "direct") -> random.Random:
    """Generator of one term, seeded from a string naming the contract,
    the master seed, the term and the estimator code, so every (term,
    estimator) pair owns an independent, reproducible substream."""
    seed = _seed(seed)
    term_index = _integer("term_index", term_index)
    if not isinstance(estimator, str) or estimator not in _ESTIMATOR_CODES:
        raise ValueError(f"unknown estimator {estimator!r}")
    code = _ESTIMATOR_CODES[estimator]
    # Version 2 seeding uses every bit of the string (through the builtin
    # _sha512, not OpenSSL), so distinct keys give distinct streams.
    return random.Random(f"avnlab-rng-{RNG_CONTRACT}:{seed}:{term_index}:{code}")


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One exact Binomial(n, p) draw that calls only `rng.random()`: 0 at
    p <= 0 and n at p >= 1 without a draw, n - B(n, 1 - p) for p > 1/2,
    inversion when n p < 10 and BTRS otherwise."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        return _inversion(rng, n, p)
    return _btrs(rng, n, p)


def _inversion(rng, n, p):
    """Sequential search of the pmf from 0, about n p + 1 steps."""
    ratio = p / (1.0 - p)
    start = math.exp(n * math.log1p(-p))
    while True:
        u = rng.random()
        k, f = 0, start
        while u > f:
            u -= f
            k += 1
            f *= (n - k + 1) * ratio / k
            if f == 0.0:  # past n, or rounding left u above the whole mass
                break
        else:
            return k


def _btrs(rng, n, p):
    """Hörmann's transformed rejection with squeeze (J. Statist. Comput.
    Simul. 46, 101 (1993)), exact for n p >= 10 and p <= 1/2.  The centre
    n p + 1/2 is split exactly into whole and fractional parts, so k keeps
    unit resolution up to n = 2^63 - 1, where a float cannot hold every
    integer."""
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    num, den = p.as_integer_ratio()
    c_whole, c_rest = divmod(2 * n * num + den, 2 * den)
    c_frac = c_rest / (2 * den)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -1/2 maps to k = -infinity
            continue
        k = c_whole + math.floor((2.0 * a / us + b) * u + c_frac)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        if v * alpha / (a / (us * us) + b) <= math.exp(_log_pmf_ratio(n, num, den, k)):
            return k


def _log_pmf_ratio(n, num, den, k):
    """log(f(k) / f(m)) for the Binomial(n, p = num/den) pmf f and its
    mode m = floor((n + 1) p).  Stirling's formula with exact integer
    differences: differences of lgamma would lose every digit near
    n = 2^63, where log k! is about 2e20.  Every term is about as large
    as the result, so none cancels, up to n = 2^63 - 1."""
    m = (n + 1) * num // den
    d = k - m
    # (m + 1/2) log(m + 1) - (k + 1/2) log(k + 1) is -(m + 1/2) log1p(d /
    # (m + 1)) less d log(k + 1), and the same with n - m and n - k is
    # -(n - m + 1/2) log1p(-d / (n - m + 1)) plus d log(n - k + 1).  The
    # parts of the two log1p terms linear in d, each about +-d, cancel, so
    # they are summed exactly here, and _log1pmx keeps the rest.
    ratio = d * (n - 2 * m) / (2 * (m + 1) * (n - m + 1))
    ratio -= (m + 0.5) * _log1pmx(d / (m + 1))
    ratio -= (n - m + 0.5) * _log1pmx(-d / (n - m + 1))
    # Those two logs with d log(p / q) are d log(p (n - k + 1) / (q (k + 1))),
    # taken from integers so that q = 1 - p carries no rounding.
    ratio += d * math.log1p((num * (n + 2) - den * (k + 1)) / ((den - num) * (k + 1)))
    return ratio + (
        _stirling_tail(m) + _stirling_tail(n - m) - _stirling_tail(k) - _stirling_tail(n - k)
    )


def _log1pmx(x):
    """log(1 + x) - x, to full relative precision where the two cancel."""
    if abs(x) >= 0.01:
        return math.log1p(x) - x
    # -x^2/2 + x^3/3 - ... - x^10/10, cut where x^11/11 < 1e-18 x^2/2.
    return x * x * (-1 / 2 + x * (1 / 3 + x * (-1 / 4 + x * (1 / 5 + x * (
        -1 / 6 + x * (1 / 7 + x * (-1 / 8 + x * (1 / 9 - x / 10))))))))


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SMALL_TAILS = tuple(
    math.lgamma(j + 1) - ((j + 0.5) * math.log(j + 1) - (j + 1) + _HALF_LOG_2PI)
    for j in range(10)
)


def _stirling_tail(j):
    """log j! - ((j + 1/2) log(j + 1) - (j + 1) + log(2 pi) / 2), from a
    table below 10 and Stirling's series in 1/(j + 1) (error < 1e-14)."""
    if j < 10:
        return _SMALL_TAILS[j]
    z = 1.0 / (j + 1)
    z2 = z * z
    return z * (1 / 12 - z2 * (1 / 360 - z2 * (1 / 1260 - z2 * (1 / 1680 - z2 / 1188))))


_TERM_9 = nine_terms()[8]

#: Term 9's alternate plans, built once at import: estimator -> (factors
#: to sample, map from their outcome product to the term's value).
_ALTERNATE_PLANS = {
    # (z1z2)(x1x2) = -y1y2 and (z3x4)(x3z4) = +y3y4, so the term's
    # outcome is minus the product of the four single y outcomes.
    "yproduct": (tuple(parse(f"y{q}", 4) for q in (1, 2, 3, 4)), -1),
    # One ±1 outcome per side: the product observables themselves,
    # whose outcomes label the Bell-state pairs each side holds.
    "bellpairs": ((_TERM_9.alice_factors[0] * _TERM_9.alice_factors[1],
                   _TERM_9.bob_factors[0] * _TERM_9.bob_factors[1]), +1),
}


def _measurement_plan(term_index: int, estimator: str):
    """Factors to sample and the map from their outcome product to the
    term's correlation value."""
    if estimator == "direct":
        return nine_terms()[term_index - 1].factors, +1
    if term_index != 9:
        raise ValueError("alternate estimators exist only for term 9")
    return _ALTERNATE_PLANS[estimator]


def _integer(name: str, value) -> int:
    """value as an int; a bool or a non-integer raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value):
    """value, if a real number other than a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _seed(value) -> int:
    """value as a non-negative int, or ValueError."""
    seed = _integer("seed", value)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def run_experiment(
    term_index: int,
    shots: int,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
    estimator: str = "direct",
) -> CorrelationRecord:
    """Estimate one term's correlation from `shots` simulated runs."""
    term_index = _integer("term_index", term_index)
    if not 1 <= term_index <= 9:
        raise ValueError("term_index must be 1..9")
    shots = _integer("shots", shots)
    if shots <= 0:
        raise ValueError("shots must be positive")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}")
    if not isinstance(noise, NoiseModel):
        raise ValueError(f"noise must be a NoiseModel, got {noise!r}")

    rng = term_rng(seed, term_index, estimator)  # checks the estimator's name
    factors, multiplier = _measurement_plan(term_index, estimator)
    table = born_probabilities(factors, build_psi())
    uniform = (1.0 - noise.visibility) / len(table)
    mass = {+1: 0.0, -1: 0.0}
    for outcome, p in table.items():
        mass[multiplier * math.prod(outcome)] += noise.visibility * p + uniform
    # A ratio of non-negative masses lies in [0, 1], and is exactly 0 or 1
    # when one side has none, so an eigenstate at V = 1 estimates exactly ±1.
    p_plus = mass[+1] / (mass[+1] + mass[-1])

    keep = float(noise.detector_efficiency) ** len(factors)
    n_retained = _binomial(rng, shots, keep)
    if n_retained == 0:
        raise DegenerateRecordError(
            f"term {term_index}: all {shots} shots lost to detection"
        )
    n_plus = _binomial(rng, n_retained, float(p_plus))

    estimate = (2 * n_plus - n_retained) / n_retained
    standard_error = math.sqrt(max(0.0, 1.0 - estimate**2) / n_retained)
    return CorrelationRecord(
        term_index=term_index,
        label=nine_terms()[term_index - 1].label,
        estimator=estimator,
        shots_requested=shots,
        shots_retained=n_retained,
        estimate=estimate,
        standard_error=standard_error,
    )


def estimate_F(
    shots_per_term: int,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
) -> dict:
    """Run all nine experiments and aggregate the Bell functional.

    F is the signed sum of the nine estimates; its standard error adds in
    quadrature; the violation verdict requires the bound 7 to be exceeded
    by SIGMA_RULE standard errors.  The config records plain ints and
    floats whatever numeric types were passed.
    """
    shots_per_term = _integer("shots", shots_per_term)
    seed = _seed(seed)
    records = [
        run_experiment(k, shots_per_term, noise, seed) for k in range(1, 10)
    ]
    # Left to right, not the builtin sum, which compensates its rounding
    # from Python 3.12 on.
    f_estimate = f_variance = 0
    for t, r in zip(nine_terms(), records):
        f_estimate += t.sign * r.estimate
        f_variance += r.standard_error**2
    f_se = math.sqrt(f_variance)
    return {
        "config": {
            "shots_per_term": shots_per_term,
            "seed": seed,
            "visibility": float(noise.visibility),
            "efficiency": float(noise.detector_efficiency),
            "sigma_rule": SIGMA_RULE,
            "rng_contract": RNG_CONTRACT,
        },
        "records": [record_as_dict(r) for r in records],
        "F_estimate": f_estimate,
        "F_standard_error": f_se,
        "local_bound": LOCAL_BOUND,
        "quantum_value": QUANTUM_VALUE,
        "violates_local_bound": f_estimate - SIGMA_RULE * f_se > LOCAL_BOUND,
        "noise_model_note": (
            "visibility/efficiency model is a design choice of this artifact; "
            "coincidence post-selection is unbiased for this model only"
        ),
    }


def record_as_dict(r: CorrelationRecord) -> dict:
    return {name: getattr(r, name) for name in CorrelationRecord._fields}
