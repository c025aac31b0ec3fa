"""The eight value classes: built by keyword or position with their
defaults, immutable, compared and hashed on their compared fields, and
shown by a fixed repr."""

import pytest

from avnlab.functional import BellFunctional, ExperimentTerm
from avnlab.ks import KsTable
from avnlab.lhv import ParitySystem
from avnlab.pauli import PauliString, parse
from avnlab.simulate import CorrelationRecord, NoiseModel
from avnlab.states import StateVector

Z1 = "PauliString(n_qubits=4, x_mask=0, z_mask=8, phase_power=0)"
Z3 = "PauliString(n_qubits=4, x_mask=0, z_mask=2, phase_power=0)"
TERM = f"ExperimentTerm(sign=-1, alice_factors=({Z1},), bob_factors=({Z3},))"


def term_arguments():
    return {"sign": -1, "alice_factors": (parse("z1", 4),), "bob_factors": (parse("z3", 4),)}


# class: (fresh keyword arguments, defaults of the omitted arguments,
#         compared fields, repr)
CASES = {
    PauliString: (
        lambda: {"n_qubits": 2, "x_mask": 1, "z_mask": 3},
        {"phase_power": 0},
        ("n_qubits", "x_mask", "z_mask", "phase_power"),
        "PauliString(n_qubits=2, x_mask=1, z_mask=3, phase_power=0)",
    ),
    ExperimentTerm: (
        term_arguments,
        {},
        ("sign", "alice_factors", "bob_factors"),
        TERM,
    ),
    BellFunctional: (
        lambda: {"terms": (ExperimentTerm(**term_arguments()),)},
        {},
        ("terms",),
        f"BellFunctional(terms=({TERM},))",
    ),
    StateVector: (
        lambda: {"n_qubits": 1, "amplitudes": (0.6, 0.8j)},
        {},
        ("n_qubits", "amplitudes"),
        "StateVector(n_qubits=1)",
    ),
    KsTable: (
        lambda: {"grid": ((parse("z1", 1),),), "row_targets": (1,), "column_targets": (1,)},
        {},
        ("grid", "row_targets", "column_targets"),
        "KsTable(grid=((PauliString(n_qubits=1, x_mask=0, z_mask=1, phase_power=0),),),"
        " row_targets=(1,), column_targets=(1,))",
    ),
    ParitySystem: (
        lambda: {"masks": (3,), "parities": (1,), "n_vars": 2},
        {},
        ("masks", "parities", "n_vars"),
        "ParitySystem(masks=(3,), parities=(1,), n_vars=2)",
    ),
    NoiseModel: (
        lambda: {"visibility": 0.9},
        {"detector_efficiency": 1.0},
        ("visibility", "detector_efficiency"),
        "NoiseModel(visibility=0.9, detector_efficiency=1.0)",
    ),
    CorrelationRecord: (
        lambda: {
            "term_index": 1, "label": "z1·z3", "estimator": "direct", "shots_requested": 10,
            "shots_retained": 8, "estimate": -0.75, "standard_error": 0.25,
        },
        {},
        (
            "term_index", "label", "estimator", "shots_requested", "shots_retained",
            "estimate", "standard_error",
        ),
        "CorrelationRecord(term_index=1, label='z1·z3', estimator='direct',"
        " shots_requested=10, shots_retained=8, estimate=-0.75, standard_error=0.25)",
    ),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_class_semantics(cls):
    arguments, defaults, compared, text = CASES[cls]

    # Keyword and positional construction agree, and omitted arguments
    # take their defaults.
    value = cls(**arguments())
    twin = cls(*arguments().values())
    for name, default in defaults.items():
        assert getattr(value, name) == default
    assert value.__class__ is cls

    # Equal inputs give equal objects, hashed on the compared fields.
    assert value is not twin
    assert value == twin and not value != twin
    key = tuple(getattr(value, name) for name in compared)
    assert hash(value) == hash(twin) == hash(key)
    assert value.__eq__(key) is NotImplemented
    assert value != key

    # No field can be assigned or deleted, and no attribute added.
    for name in [*vars(value), "extra"]:
        before = vars(value).get(name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert vars(value).get(name) is before
    assert value == twin

    assert repr(value) == text
