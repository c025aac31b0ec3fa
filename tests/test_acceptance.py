"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances: 1e-12 for exact algebra, the stated sigma rules for
Monte Carlo, and wall-clock budgets per criterion.
"""

import math
import time

import numpy as np
import pytest

from avnlab import kernels, ks, lhv
from avnlab.functional import (
    EXPECTED_SIGNS,
    BellFunctional,
    nine_terms,
    operator_o_check,
    verify_nine_identities,
)
from avnlab.pauli import parse
from avnlab.simulate import NoiseModel, estimate_F, run_experiment
from avnlab.states import build_psi

import lhv_oracle
from conftest import oracle_matrix


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_nine_identities():
    signs, elapsed = timed(lambda: verify_nine_identities(build_psi()))
    assert signs == [-1, -1, -1, -1, +1, +1, +1, +1, -1]
    assert elapsed < 0.1
    report(1, f"nine identities return (-1,-1,-1,-1,+1,+1,+1,+1,-1) in {elapsed:.3f}s")


def test_criterion_2_quantum_value():
    psi = build_psi()
    value = BellFunctional.canonical().value(psi)
    assert value == pytest.approx(9, abs=1e-12)
    assert operator_o_check(psi)
    report(2, f"functional value {value} and operator sum maps psi to 9*psi")


def test_criterion_3_epr_impossibility():
    proof, elapsed = timed(
        lambda: lhv.prove_no_valid_assignment(
            lhv.constraints_for(BellFunctional.canonical())
        )
    )
    assert proof["exhaustive_count_satisfying_all"] == 0
    assert proof["assignments_checked"] == 4096
    assert proof["parity_product"] == -1
    assert elapsed < 0.1
    report(3, f"0/4096 assignments satisfy all nine, parity -1, in {elapsed:.3f}s")


def test_criterion_4_local_bound():
    functional = BellFunctional.canonical()

    def work():
        bound, witness = lhv.local_bound(functional)
        never_exceeded = lhv_oracle.bound_is_attained_at_vertices(
            functional, trials=100_000, seed=0
        )
        return bound, witness, never_exceeded

    (bound, witness, never_exceeded), elapsed = timed(work)
    assert bound == 7
    assert lhv_oracle.functional_at_point(functional, witness) == 7
    assert never_exceeded
    assert elapsed < 1.0
    report(4, f"local bound 7 with attaining witness, 1e5 interior samples <= 7+1e-9, in {elapsed:.3f}s")


def test_criterion_5_ks_proof():
    table = ks.KsTable.canonical()

    def work():
        structure = ks.verify_table_structure(table)
        proof = ks.prove_ks_contradiction(table)
        return structure, proof

    (structure, proof), elapsed = timed(work)
    assert structure["all_ok"] and len(structure["lines"]) == 10
    row_products = [l["product"] for l in structure["lines"] if l["line"].startswith("row")]
    col_products = [l["product"] for l in structure["lines"] if l["line"].startswith("column")]
    assert row_products == ["I"] * 5
    assert col_products == ["I"] * 4 + ["-I"]
    assert proof["exhaustive_count_satisfying_all"] == 0
    assert proof["assignments_checked"] == 131072
    assert elapsed < 1.0
    report(5, f"10/10 lines commute, products +I/+I/-I as required, 0/131072 valuations, in {elapsed:.3f}s")


def test_criterion_6_operator_identities():
    assert parse("z1z2", 4) * parse("x1x2", 4) == parse("-y1y2", 4)
    assert parse("z3x4", 4) * parse("x3z4", 4) == parse("y3y4", 4)
    report(6, "z1z2*x1x2 = -y1y2 and z3x4*x3z4 = +y3y4 as exact Pauli equalities")


def test_criterion_7_eigenfamily_sweep():
    sweep = ks.eigenfamily_sweep()
    assert len(sweep) == 16
    for record in sweep:
        assert all(s in (+1, -1) for s in record["signs"])
        assert record["sign_product"] == -1
        assert record["quantum_value"] == pytest.approx(9, abs=1e-12)
        assert record["local_bound"] == 7
    report(7, "all 16 joint eigenstates: sign product -1, adapted value 9 vs bound 7")


def test_criterion_8_monte_carlo_convergence():
    def work():
        noise = NoiseModel(1.0, 1.0)
        result = estimate_F(100_000, noise, seed=0)
        alternates = [
            run_experiment(9, 100_000, noise, seed=0, estimator=e)
            for e in ("direct", "yproduct", "bellpairs")
        ]
        return result, alternates

    (result, alternates), elapsed = timed(work)
    for record in result["records"]:
        exact = EXPECTED_SIGNS[record["term_index"] - 1]
        tol = 4 * record["standard_error"] + 1e-12
        assert abs(record["estimate"] - exact) <= tol
    f_tol = 3 * result["F_standard_error"] + 1e-12
    assert abs(result["F_estimate"] - 9.0) <= f_tol
    for i, a in enumerate(alternates):
        for b in alternates[i + 1:]:
            joint = math.sqrt(a.standard_error**2 + b.standard_error**2)
            assert abs(a.estimate - b.estimate) <= 4 * joint + 1e-12
    assert elapsed < 10.0
    report(8, f"per-term estimates within 4 sigma, F within 3 sigma of 9, three term-9 estimators agree, in {elapsed:.2f}s")


def test_criterion_9_noise_threshold():
    psi = np.asarray(build_psi().amplitudes)
    rho_pure = np.outer(psi, psi.conj())
    for visibility in (0.0, 0.5, 7 / 9, 1.0):
        rho = visibility * rho_pure + (1 - visibility) * np.eye(16) / 16
        oracle = sum(
            t.sign * np.trace(rho @ oracle_matrix(t.observable)).real
            for t in nine_terms()
        )
        assert oracle == pytest.approx(9 * visibility, abs=1e-12)
        sim = estimate_F(100_000, NoiseModel(visibility, 1.0), seed=0)
        f_tol = 3 * sim["F_standard_error"] + 1e-12
        assert abs(sim["F_estimate"] - 9 * visibility) <= f_tol
    below = estimate_F(100_000, NoiseModel(0.7, 1.0), seed=0)
    above = estimate_F(100_000, NoiseModel(0.9, 1.0), seed=0)
    assert not below["violates_local_bound"]
    assert above["violates_local_bound"]
    report(9, "F(V) = 9V confirmed by density-matrix oracle and simulation; verdict flips across V = 7/9")
