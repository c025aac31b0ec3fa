"""State-independent contextuality proof on the 17-operator table,
plus the sweep over all 16 joint eigenstates of the four seed operators.

The table is a 5x5 grid with 17 populated cells.  Every row and column is
mutually commuting; each row multiplies to +I, each column to +I except
the last, which multiplies to -I.  Assigning noncontextual ±1 values is
impossible: each operator sits in exactly one row and one column, so the
product of all ten line constraints squares every value away, yet the
targets multiply to -1.  Both the parity argument and the exhaustive
search over 2^17 assignments are run, by `lhv.ParitySystem`, and must
agree.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import lhv, states
from ._frozen import Frozen
from .functional import (
    LOCAL_BOUND, QUANTUM_VALUE, BellFunctional, verify_nine_identities,
)
from .pauli import PauliString, parse

_CANONICAL_CELLS = (
    ("z1z3", "z2z4", "x1x3", "x2x4", "y1y2y3y4"),
    ("z1", "z2", None, None, "z1z2"),
    (None, None, "x1", "x2", "x1x2"),
    ("z3", None, None, "x4", "z3x4"),
    (None, "z4", "x3", None, "x3z4"),
)


class KsTable(Frozen):
    """Grid of optional Pauli strings with per-line product targets, stored
    as tuples: rows of cells, each a PauliString or None."""

    _fields = ("grid", "row_targets", "column_targets")

    def __init__(self, grid: tuple, row_targets: tuple, column_targets: tuple):
        try:
            grid = tuple(map(tuple, grid))
            row_targets, column_targets = tuple(row_targets), tuple(column_targets)
        except TypeError:
            raise ValueError("the grid and the line targets must be sequences") from None
        if len(row_targets) != len(grid) or any(len(row) != len(column_targets) for row in grid):
            raise ValueError("grid shape does not match the line targets")
        for kind, index, ops, target in _lines(grid, row_targets, column_targets):
            if not ops:
                raise ValueError(f"{kind} {index + 1} has no operators")
            if not all(isinstance(op, PauliString) for op in ops):
                raise ValueError(f"{kind} {index + 1} has a cell that is not a PauliString")
            if type(target) is not int or target not in (+1, -1):
                raise ValueError(f"{kind} {index + 1} target {target!r} is not ±1")
        if not grid:  # then no column either: the loop refuses an empty one
            raise ValueError("a table needs one or more lines")
        self.__dict__.update(grid=grid, row_targets=row_targets, column_targets=column_targets)

    @classmethod
    def canonical(cls) -> "KsTable":
        """The 17-operator table; built once at import, since tables and
        Pauli strings are immutable."""
        return CANONICAL_TABLE

    def cells(self):
        """Populated cells in (row, column) scan order."""
        return [
            (r, c, op)
            for r, row in enumerate(self.grid)
            for c, op in enumerate(row)
            if op is not None
        ]

    def lines(self):
        """All ten (kind, index, operators, target) line records."""
        return _lines(self.grid, self.row_targets, self.column_targets)

    @functools.cached_property
    def line_checks(self) -> tuple:
        """(line, operator labels, commuting, product label, target, ok) for
        each line; checked on first use and kept, since tables are
        immutable."""
        checks = []
        for kind, index, ops, target in self.lines():
            commuting = all(
                a.commutes(b) for i, a in enumerate(ops) for b in ops[i + 1:]
            )
            product = ops[0]
            for op in ops[1:]:
                product = product * op
            # Phase i^0 for +I and i^2 for -I; an imaginary phase is neither.
            is_target_identity = (
                product.x_mask == 0
                and product.z_mask == 0
                and product.phase_power == (0 if target == +1 else 2)
            )
            checks.append((
                f"{kind} {index + 1}",
                tuple(op.label for op in ops),
                commuting,
                product.label,
                "+I" if target == +1 else "-I",
                commuting and is_target_identity,
            ))
        return tuple(checks)

    @functools.cached_property
    def parity_system(self) -> lhv.ParitySystem:
        """One parity constraint per line, over the populated cells numbered
        in (row, column) scan order; built on first use and kept, since
        tables and parity systems are immutable."""
        index = {(r, c): i for i, (r, c, _) in enumerate(self.cells())}
        masks, parities = [], []
        for kind, line, _, target in self.lines():
            axis = 0 if kind == "row" else 1
            masks.append(sum(1 << i for cell, i in index.items() if cell[axis] == line))
            parities.append(0 if target == +1 else 1)
        return lhv.ParitySystem(tuple(masks), tuple(parities), len(index))


def _lines(grid, row_targets, column_targets) -> list:
    out = []
    for r, target in enumerate(row_targets):
        ops = [op for op in grid[r] if op is not None]
        out.append(("row", r, ops, target))
    for c, target in enumerate(column_targets):
        ops = [row[c] for row in grid if row[c] is not None]
        out.append(("column", c, ops, target))
    return out


#: The 17-operator table of the proof.
CANONICAL_TABLE = KsTable(
    tuple(
        tuple(None if cell is None else parse(cell, 4) for cell in row)
        for row in _CANONICAL_CELLS
    ),
    (+1,) * 5,
    (+1, +1, +1, +1, -1),
)


def verify_table_structure(table: KsTable) -> dict:
    """Commutativity and exact line products, phase included.  The checks
    run once per table; every call returns fresh dicts and lists."""
    lines = [
        {
            "line": line,
            "operators": list(operators),
            "commuting": commuting,
            "product": product,
            "target": target,
            "ok": ok,
        }
        for line, operators, commuting, product, target, ok in table.line_checks
    ]
    return {"lines": lines, "all_ok": all(line["ok"] for line in lines)}


def prove_ks_contradiction(table: KsTable) -> dict:
    """Noncontextuality impossibility certificate for the table; a failed
    structure check raises ValueError."""
    if not all(ok for *_, ok in table.line_checks):
        raise ValueError("table structure check failed")

    system = table.parity_system
    proof = system.prove()
    hist = proof.pop("histogram")
    proof["n_operators"] = system.n_vars
    proof["each_operator_in_two_lines"] = all(n == 2 for n in proof.pop("occurrences"))
    proof["count_satisfying_nine_of_ten"] = hist[-2]
    return proof


def render_table(table: KsTable) -> str:
    """Plaintext layout with per-line pass/fail annotations, in columns
    of max(10, longest label + 2) characters."""
    status = {line: "ok" if ok else "FAIL" for line, *_, ok in table.line_checks}
    width = max([10] + [len(op.label) + 2 for _, _, op in table.cells()])
    rows = []
    for r, row in enumerate(table.grid):
        cells = "".join(
            (op.label if op is not None else "").ljust(width) for op in row
        )
        rows.append(f"{cells}| row {r + 1}: {status[f'row {r + 1}']}")
    footer = "  ".join(
        f"col {c + 1}: {status[f'column {c + 1}']}"
        for c in range(len(table.column_targets))
    )
    return "\n".join(rows) + "\n" + footer


# -- eigenstate family -------------------------------------------------------

_PAIR_STATES = {
    "phi+": (states.bell_phi(+1), +1, +1),
    "phi-": (states.bell_phi(-1), +1, -1),
    "psi+": (states.bell_psi(+1), -1, +1),
    "psi-": (states.bell_psi(-1), -1, -1),
}


@functools.lru_cache(maxsize=16)
def two_pair_state(pair13: str, pair24: str) -> states.StateVector:
    """4-qubit state with a Bell state on qubits (1,3) and one on (2,4);
    each of the 16 is built on first use and kept, since states are
    immutable."""
    try:
        s13, s24 = (_PAIR_STATES[pair][0].amplitudes for pair in (pair13, pair24))
    except KeyError as exc:
        raise ValueError(f"unknown Bell pair {exc.args[0]!r}") from None
    # Qubits (1,3) index s13 and qubits (2,4) index s24.
    amps = [
        s13[q1 << 1 | q3] * s24[q2 << 1 | q4]
        for q1, q2, q3, q4 in itertools.product((0, 1), repeat=4)
    ]
    return states.StateVector(4, amps)


def eigenfamily_sweep() -> list:
    """All 16 joint eigenstates of z1z3, z2z4, x1x3 and x2x4.

    Each is a product of two Bell states.  Every one is a joint eigenstate
    of all nine term observables with definite signs multiplying to -1,
    and the sign-adapted functional keeps quantum value 9 against local
    bound 7.
    """
    canonical = BellFunctional.canonical()
    observables = [t.observable for t in canonical.terms]
    records = []
    for pair13 in ("phi+", "phi-", "psi+", "psi-"):
        for pair24 in ("phi+", "phi-", "psi+", "psi-"):
            state = two_pair_state(pair13, pair24)
            # One gather of the nine images gives the signs and the value.
            rows = states.images(observables, state)
            signs = verify_nine_identities(state, rows=rows)
            if None in signs:
                raise AssertionError(
                    f"{pair13} x {pair24} is not a joint eigenstate of all terms"
                )
            adapted = canonical.with_signs(signs)
            quantum_value = adapted.value(state, rows=rows)
            bound, _ = lhv.local_bound(adapted)
            _, z13, x13 = _PAIR_STATES[pair13]
            _, z24, x24 = _PAIR_STATES[pair24]
            records.append(
                {
                    "pair13": pair13,
                    "pair24": pair24,
                    "seed_eigenvalues": {
                        "z1z3": z13,
                        "z2z4": z24,
                        "x1x3": x13,
                        "x2x4": x24,
                    },
                    "signs": signs,
                    "sign_product": math.prod(signs),
                    "quantum_value": quantum_value,
                    "local_bound": bound,
                }
            )
    return records


def certificate() -> dict:
    """JSON-ready report: structure, contradiction, eigenfamily sweep."""
    table = KsTable.canonical()
    structure = verify_table_structure(table)
    contradiction = prove_ks_contradiction(table)
    sweep = eigenfamily_sweep()
    return {
        "table": [
            [None if op is None else op.label for op in row] for row in table.grid
        ],
        "structure": structure,
        "contradiction": contradiction,
        "eigenfamily": sweep,
        "all_ok": (
            structure["all_ok"]
            and contradiction["exhaustive_count_satisfying_all"] == 0
            and all(rec["sign_product"] == -1 for rec in sweep)
            and all(abs(rec["quantum_value"] - QUANTUM_VALUE) < 1e-12 for rec in sweep)
            and all(rec["local_bound"] == LOCAL_BOUND for rec in sweep)
        ),
    }
