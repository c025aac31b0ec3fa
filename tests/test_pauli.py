"""Pauli-string algebra against the independent dense-matrix oracle."""

import itertools

import numpy as np
import pytest

from avnlab.pauli import PauliString, parse
from avnlab.states import StateVector

from conftest import LETTER_MATRIX, kron_letters, oracle_matrix


def all_phase_free(n_qubits):
    full = 1 << n_qubits
    return [
        PauliString(n_qubits, x, z, 0) for x in range(full) for z in range(full)
    ]


class TestMatrixEncoding:
    """The symplectic mask encoding read by the oracle matches the
    independent kron construction."""

    def test_identity(self):
        assert np.array_equal(oracle_matrix(PauliString.identity(1)), np.eye(2))

    def test_single_y(self):
        y = PauliString.single("y", 1, 1)
        assert np.array_equal(oracle_matrix(y), LETTER_MATRIX["y"])

    def test_z1x2_is_tensor_product(self):
        op = parse("z1x2", 2)
        assert np.array_equal(oracle_matrix(op), kron_letters("zx"))

    def test_all_two_qubit_strings_match_kron(self):
        letters = {(0, 0): "i", (1, 0): "x", (0, 1): "z", (1, 1): "y"}
        for p in all_phase_free(2):
            want = kron_letters(
                "".join(
                    letters[(p.x_mask >> (2 - q) & 1, p.z_mask >> (2 - q) & 1)]
                    for q in (1, 2)
                )
            )
            # the (1,1) letter is Y itself, no extra phase
            assert np.allclose(oracle_matrix(p), want)


class TestMultiply:
    def test_x_squared_is_identity(self):
        x = PauliString.single("x", 1, 1)
        assert x * x == PauliString.identity(1)

    def test_z_times_x_is_i_y(self):
        z = PauliString.single("z", 1, 1)
        x = PauliString.single("x", 1, 1)
        product = z * x
        assert product == PauliString(1, 1, 1, 1)
        assert np.allclose(oracle_matrix(product), LETTER_MATRIX["z"] @ LETTER_MATRIX["x"])

    def test_zx_zx_gives_minus_yy(self):
        product = parse("z1x1", 2) * parse("z2x2", 2)
        assert product == parse("-y1y2", 2)
        want = kron_letters("zi") @ kron_letters("xi") @ kron_letters("iz") @ kron_letters("ix")
        assert np.allclose(oracle_matrix(product), want)

    def test_exhaustive_two_qubit_products_match_matrices(self):
        strings = all_phase_free(2)
        for a in strings:
            for phase in range(4):
                ap = PauliString(2, a.x_mask, a.z_mask, phase)
                am = oracle_matrix(ap)
                for b in strings:
                    assert np.allclose(
                        oracle_matrix(ap * b), am @ oracle_matrix(b)
                    ), f"{ap} * {b}"

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b, c = (
                PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PauliString.identity(2) * PauliString.identity(3)


class TestCommutes:
    def test_z_x_anticommute(self):
        assert not parse("z1", 1).commutes(parse("x1", 1))

    def test_disjoint_supports_commute(self):
        assert parse("z1z3", 4).commutes(parse("z2z4", 4))

    def test_two_anticommutations_cancel(self):
        a, b = parse("z1z2", 2), parse("x1x2", 2)
        assert a.commutes(b)
        assert np.allclose(
            oracle_matrix(a) @ oracle_matrix(b), oracle_matrix(b) @ oracle_matrix(a)
        )

    def test_commutes_iff_products_equal(self):
        for a, b in itertools.product(all_phase_free(2), repeat=2):
            assert a.commutes(b) == (a * b == b * a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PauliString.identity(2).commutes(PauliString.identity(3))


class TestHermitian:
    def test_hermitian_square_is_identity(self):
        for p in all_phase_free(3):
            assert p.is_hermitian
            assert p * p == PauliString.identity(3)
        for p in all_phase_free(2):
            neg = PauliString(p.n_qubits, p.x_mask, p.z_mask, 2)
            assert neg.is_hermitian and neg.sign == -1
            assert neg * neg == PauliString.identity(2)

    def test_products_of_hermitians_stay_in_phase_group(self):
        for a, b in itertools.product(all_phase_free(2), repeat=2):
            assert (a * b).phase_power in (0, 1, 2, 3)

    def test_imaginary_phase_not_hermitian(self):
        iy = parse("z1x1", 2)
        assert not iy.is_hermitian
        with pytest.raises(ValueError):
            iy.sign


class TestTextForm:
    @pytest.mark.parametrize(
        "text,n",
        [("z1", 4), ("-y1y2y3y4", 4), ("z3x4", 4), ("i·y1", 2), ("-i·x2", 2), ("I", 3), ("-I", 3)],
    )
    def test_roundtrip(self, text, n):
        assert str(parse(text, n)).lstrip("+") == text.lstrip("+")

    def test_parse_accumulates_phase(self):
        assert parse("z1x1", 2) == PauliString(2, 0b10, 0b10, 1)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = PauliString(
                4, int(rng.integers(16)), int(rng.integers(16)), int(rng.integers(4))
            )
            assert parse(str(p), 4) == p

    def test_reject_garbage(self):
        for bad in ("q1", "z0z", "zz", "1z", "z1 x2 junk"):
            with pytest.raises(ValueError):
                parse(bad, 4)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            parse("z5", 4)


class TestSupport:
    def test_supported_on(self):
        assert parse("z1z2", 4).supported_on((1, 2))
        assert not parse("z1z3", 4).supported_on((1, 2))
        assert parse("z3x4", 4).supported_on((3, 4))
        assert PauliString.identity(4).supported_on(())


class TestFieldTypes:
    @pytest.mark.parametrize(
        "args",
        [(2, 1.5, 0), (2, 1, 0, 1.5), (2.0, 1, 0), (True, 1, 0), (2, 1, False),
         (2, np.int64(1), 0)],
    )
    def test_non_int_field_raises_value_error(self, args):
        with pytest.raises(ValueError, match="must be an int"):
            PauliString(*args)


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: PauliString.single("x", 1.5, 4),
            lambda: PauliString.single("x", True, 4),
            lambda: PauliString.single("x", 1, 4.0),
            lambda: StateVector(2.0, [1, 0, 0, 0]),
            lambda: StateVector(None, [1, 0]),
            lambda: parse(123, 4),
            lambda: parse(b"z1", 4),
            lambda: parse(None, 4),
        ],
        ids=["single-qubit-float", "single-qubit-bool", "single-n-float",
             "state-n-float", "state-n-none", "parse-int", "parse-bytes",
             "parse-none"],
    )
    def test_wrong_type_raises_value_error(self, call):
        with pytest.raises(ValueError):
            call()
