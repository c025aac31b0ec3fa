"""Monte Carlo simulation of the nine experiments under noise.

Each run samples one term's sufficient statistic rather than every shot.
The joint outcomes of the term's local factors follow the exact Born
distribution on the double-singlet state, mixed with a uniform
(depolarized) outcome table with weight 1 - visibility; each factor is
detected independently, with coincidence post-selection.  Detection does
not depend on the outcome, so the number of retained shots and the number
of those whose outcome product is +1 are two binomial draws, with the
same distribution as a shot-by-shot simulation, at a cost independent of
the shot count.  Per-term RNG substreams make reports reproducible
regardless of the order in which terms are executed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .functional import nine_terms
from .pauli import parse
from .states import born_probabilities, build_psi

LOCAL_BOUND = 7
QUANTUM_VALUE = 9

#: Version of the draws a seed maps to: 1 sampled every shot; 2 draws two
#: binomials per term from the same substreams.
RNG_CONTRACT = 2

#: numpy's binomial sampler takes its count as a C int64.
MAX_SHOTS = 2**63 - 1

_ESTIMATOR_CODES = {"direct": 0, "yproduct": 1, "bellpairs": 2}


@dataclass(frozen=True)
class NoiseModel:
    """Werner-type visibility plus independent detector efficiency."""

    visibility: float = 1.0
    detector_efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class CorrelationRecord:
    term_index: int
    label: str
    estimator: str
    shots_requested: int
    shots_retained: int
    estimate: float
    standard_error: float


class DegenerateRecordError(RuntimeError):
    """No shots survived coincidence post-selection."""


def term_rng(seed: int, term_index: int, estimator: str = "direct"):
    """Child generator for one term: the master seed is extended by the
    spawn key (term_index, estimator_code), so every (term, estimator)
    pair owns an independent, reproducible substream."""
    key = (term_index, _ESTIMATOR_CODES[estimator])
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _measurement_plan(term_index: int, estimator: str):
    """Factors to sample and the map from their outcome product to the
    term's correlation value."""
    term = nine_terms()[term_index - 1]
    if estimator == "direct":
        return term.factors, +1
    if term_index != 9:
        raise ValueError("alternate estimators exist only for term 9")
    if estimator == "yproduct":
        # (z1z2)(x1x2) = -y1y2 and (z3x4)(x3z4) = +y3y4, so the term's
        # outcome is minus the product of the four single y outcomes.
        return tuple(parse(f"y{q}", 4) for q in (1, 2, 3, 4)), -1
    if estimator == "bellpairs":
        # One ±1 outcome per side: the product observables themselves,
        # whose outcomes label the Bell-state pairs each side holds.
        alice = term.alice_factors[0] * term.alice_factors[1]
        bob = term.bob_factors[0] * term.bob_factors[1]
        return (alice, bob), +1
    raise ValueError(f"unknown estimator {estimator!r}")


def run_experiment(
    term_index: int,
    shots: int,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
    estimator: str = "direct",
) -> CorrelationRecord:
    """Estimate one term's correlation from `shots` simulated runs."""
    if not 1 <= term_index <= 9:
        raise ValueError("term_index must be 1..9")
    if shots <= 0:
        raise ValueError("shots must be positive")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}")

    factors, multiplier = _measurement_plan(term_index, estimator)
    table = born_probabilities(factors, build_psi())
    uniform = (1.0 - noise.visibility) / len(table)
    mass = {+1: 0.0, -1: 0.0}
    for outcome, p in table.items():
        mass[multiplier * math.prod(outcome)] += noise.visibility * p + uniform
    # A ratio of non-negative masses lies in [0, 1], and is exactly 0 or 1
    # when one side has none, so an eigenstate at V = 1 estimates exactly ±1.
    p_plus = mass[+1] / (mass[+1] + mass[-1])

    rng = term_rng(seed, term_index, estimator)
    n_retained = int(rng.binomial(shots, noise.detector_efficiency ** len(factors)))
    if n_retained == 0:
        raise DegenerateRecordError(
            f"term {term_index}: all {shots} shots lost to detection"
        )
    n_plus = int(rng.binomial(n_retained, p_plus))

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
    sigma_rule: float = 3.0,
) -> dict:
    """Run all nine experiments and aggregate the Bell functional.

    F is the signed sum of the nine estimates; its standard error adds in
    quadrature; the violation verdict requires the bound 7 to be exceeded
    by `sigma_rule` standard errors.
    """
    records = [
        run_experiment(k, shots_per_term, noise, seed) for k in range(1, 10)
    ]
    signs = [t.sign for t in nine_terms()]
    f_estimate = float(sum(s * r.estimate for s, r in zip(signs, records)))
    f_se = math.sqrt(sum(r.standard_error**2 for r in records))
    return {
        "config": {
            "shots_per_term": shots_per_term,
            "seed": seed,
            "visibility": noise.visibility,
            "efficiency": noise.detector_efficiency,
            "sigma_rule": sigma_rule,
            "rng_contract": RNG_CONTRACT,
        },
        "records": [record_as_dict(r) for r in records],
        "F_estimate": f_estimate,
        "F_standard_error": f_se,
        "local_bound": LOCAL_BOUND,
        "quantum_value": QUANTUM_VALUE,
        "violates_local_bound": f_estimate - sigma_rule * f_se > LOCAL_BOUND,
        "noise_model_note": (
            "visibility/efficiency model is a design choice of this artifact; "
            "coincidence post-selection is unbiased for this model only"
        ),
    }


def record_as_dict(r: CorrelationRecord) -> dict:
    return {
        "term_index": r.term_index,
        "label": r.label,
        "estimator": r.estimator,
        "shots_requested": r.shots_requested,
        "shots_retained": r.shots_retained,
        "estimate": r.estimate,
        "standard_error": r.standard_error,
    }


def records_to_csv(records) -> str:
    """CSV export of per-term records."""
    buf = io.StringIO()
    fields = [
        "term_index", "label", "estimator", "shots_requested",
        "shots_retained", "estimate", "standard_error",
    ]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow(record_as_dict(r) if isinstance(r, CorrelationRecord) else r)
    return buf.getvalue()
