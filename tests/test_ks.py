"""The 17-operator noncontextuality proof and the eigenstate-family sweep."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import dense_oracle
from avnlab import ks, lhv
from avnlab.functional import EXPECTED_SIGNS
from avnlab.pauli import PauliString, parse
from avnlab.states import eigensigns


@pytest.fixture(scope="module")
def table():
    return ks.KsTable.canonical()


class TestTableStructure:
    def test_seventeen_cells(self, table):
        assert len(table.cells()) == 17

    def test_all_lines_pass(self, table):
        report = ks.verify_table_structure(table)
        assert report["all_ok"]
        assert len(report["lines"]) == 10

    def test_row_one_product_is_identity(self, table):
        ops = [op for op in table.grid[0]]
        product = ops[0]
        for op in ops[1:]:
            product = product * op
        assert product == PauliString.identity(4)

    def test_last_column_product_is_minus_identity(self, table):
        ops = [row[4] for row in table.grid]
        product = ops[0]
        for op in ops[1:]:
            product = product * op
        assert product == PauliString(4, 0, 0, 2)  # -I

    def test_operators_pairwise_distinct(self, table):
        cells = [op for _, _, op in table.cells()]
        assert len({(op.x_mask, op.z_mask) for op in cells}) == 17
        assert all(op.phase_power == 0 for op in cells)

    def test_only_first_row_is_nonlocal(self, table):
        for op in table.grid[0]:
            assert not op.supported_on((1, 2)) and not op.supported_on((3, 4))
        for row in table.grid[1:]:
            for op in row:
                if op is not None:
                    assert op.supported_on((1, 2)) or op.supported_on((3, 4))

    def test_negative_control_identity_cell(self, table):
        grid = list(map(list, table.grid))
        grid[0][4] = PauliString.identity(4)
        mutated = ks.KsTable(
            tuple(map(tuple, grid)), table.row_targets, table.column_targets
        )
        report = ks.verify_table_structure(mutated)
        assert not report["all_ok"]
        failing = {line["line"] for line in report["lines"] if not line["ok"]}
        assert "column 5" in failing


class TestMalformedTable:
    """A table that cannot describe ten lines is refused when built."""

    def test_empty_row(self, table):
        grid = table.grid[:1] + ((None,) * 5,) + table.grid[2:]
        with pytest.raises(ValueError, match="^row 2 has no operators$"):
            ks.KsTable(grid, table.row_targets, table.column_targets)

    def test_empty_column(self, table):
        grid = tuple(row[:3] + (None,) + row[4:] for row in table.grid)
        with pytest.raises(ValueError, match="^column 4 has no operators$"):
            ks.KsTable(grid, table.row_targets, table.column_targets)

    def test_no_lines(self):
        # No line leaves a one-bin histogram, with no nine-of-ten bin to read.
        for grid in ((), [], iter(())):
            with pytest.raises(ValueError, match="^a table needs one or more lines$"):
                ks.KsTable(grid, (), ())

    @pytest.mark.parametrize("target", [0, 2, -2, None, True, False, 1.0, -1.0])
    def test_target_outside_plus_minus_one(self, table, target):
        with pytest.raises(ValueError, match=f"^column 5 target {target!r} is not ±1$"):
            ks.KsTable(table.grid, table.row_targets, (+1, +1, +1, +1, target))
        with pytest.raises(ValueError, match=f"^row 1 target {target!r} is not ±1$"):
            ks.KsTable(table.grid, (target,) + (+1,) * 4, table.column_targets)

    @pytest.mark.parametrize(
        "changes",
        [
            {"row_targets": (+1,) * 4},
            {"column_targets": (+1,) * 6},
        ],
    )
    def test_targets_must_match_the_grid(self, table, changes):
        fields = {
            "grid": table.grid,
            "row_targets": table.row_targets,
            "column_targets": table.column_targets,
        }
        with pytest.raises(ValueError, match="grid shape"):
            ks.KsTable(**{**fields, **changes})

    def test_list_rows_are_stored_as_tuples(self, table):
        # Lists once built a table that raised TypeError (unhashable) in
        # prove_ks_contradiction and render_table.
        listed = ks.KsTable(
            [list(row) for row in table.grid],
            list(table.row_targets),
            list(table.column_targets),
        )
        assert listed == table
        assert type(listed.grid) is tuple and all(type(row) is tuple for row in listed.grid)
        assert type(listed.row_targets) is type(listed.column_targets) is tuple
        assert ks.prove_ks_contradiction(listed) == ks.prove_ks_contradiction(table)
        assert ks.render_table(listed) == ks.render_table(table)

    @pytest.mark.parametrize(
        "grid, row_targets, column_targets",
        [
            (None, (+1,), (+1,)),
            (5, (+1,), (+1,)),
            ((None, None), (+1, +1), (+1,)),
            (((None,),), None, (+1,)),
            (((None,),), (+1,), 1),
        ],
    )
    def test_arguments_must_be_sequences(self, grid, row_targets, column_targets):
        with pytest.raises(ValueError, match="^the grid and the line targets must be sequences$"):
            ks.KsTable(grid, row_targets, column_targets)

    @pytest.mark.parametrize("grid", [(("z1",),), ("z1",), ((1,),), ((parse("z1", 1), 0),)])
    def test_cells_must_be_pauli_strings_or_none(self, grid):
        with pytest.raises(ValueError, match="^row 1 has a cell that is not a PauliString$"):
            ks.KsTable(grid, (+1,) * len(grid), (+1,) * len(grid[0]))

    def test_imaginary_line_product_is_not_ok(self):
        # x1·y1·z1 = i·I, which is neither +I nor -I, and must not raise.
        cells = tuple(parse(label, 4) for label in ("x1", "y1", "z1"))
        table = ks.KsTable((cells,), (+1,), (+1,) * 3)
        row = ks.verify_table_structure(table)["lines"][0]
        assert [row[k] for k in ("line", "product", "target", "ok")] == ["row 1", "i·I", "+I", False]
        with pytest.raises(ValueError, match="^table structure check failed$"):
            ks.prove_ks_contradiction(table)


class TestContradiction:
    def test_canonical_proof(self, table):
        proof = ks.prove_ks_contradiction(table)
        assert proof["parity_product"] == -1
        assert proof["each_operator_in_two_lines"]
        assert proof["parity_says_impossible"]
        assert proof["exhaustive_count_satisfying_all"] == 0
        assert proof["assignments_checked"] == 131072

    def test_nine_of_ten_is_achievable(self, table):
        proof = ks.prove_ks_contradiction(table)
        assert proof["count_satisfying_nine_of_ten"] > 0

    def test_flipped_last_column_target_is_satisfiable(self, table):
        # mutated targets break the structure check, so prove the system directly
        system = table.parity_system
        flipped = lhv.ParitySystem(system.masks, system.parities[:-1] + (0,), system.n_vars)
        hist = flipped.prove()["histogram"]
        assert hist[10] > 0

    def test_rows_and_columns_each_partition_the_cells(self, table):
        system = table.parity_system
        assert system.n_vars == 17
        assert len(system.masks) == 10
        for masks in (system.masks[:5], system.masks[5:]):
            covered = 0
            for mask in masks:
                assert covered & mask == 0
                covered |= mask
            assert covered == (1 << 17) - 1

    def test_line_masks_select_the_line_operators(self, table):
        cells = [op for _, _, op in table.cells()]
        system = table.parity_system
        for mask, (_, _, ops, target), parity in zip(
            system.masks, table.lines(), system.parities
        ):
            assert [cells[i] for i in range(17) if mask >> i & 1] == ops
            assert (-1) ** parity == target

    def test_canonical_table_is_built_once(self, table):
        assert ks.KsTable.canonical() is table is ks.CANONICAL_TABLE

    def test_certificate_checks_structure_once(self, table, monkeypatch):
        calls = []
        check = ks.verify_table_structure

        def counted(t):
            calls.append(t)
            return check(t)

        monkeypatch.setattr(ks, "verify_table_structure", counted)
        monkeypatch.setattr(ks, "eigenfamily_sweep", lambda: [])
        report = ks.certificate()
        assert calls == [table]
        assert report["contradiction"] == ks.prove_ks_contradiction(table)

    def test_checks_run_once_per_table(self, table):
        for _ in range(3):
            ks.certificate()
        assert table.line_checks is table.line_checks
        assert table.parity_system is table.parity_system
        # An equal table built from the same cells derives equal values,
        # as objects of its own.
        twin = ks.KsTable(table.grid, table.row_targets, table.column_targets)
        assert twin == table
        assert twin.line_checks == table.line_checks
        assert twin.line_checks is not table.line_checks
        assert twin.parity_system == table.parity_system
        assert twin.parity_system is not table.parity_system

    def test_mutating_a_certificate_leaves_the_next_unchanged(self):
        golden = json.loads((Path(__file__).parent / "golden" / "ks.json").read_text())
        before = copy.deepcopy(ks.certificate())
        assert before["structure"] == golden["structure"]
        _scribble(ks.certificate())
        assert ks.certificate() == before
        _scribble(ks.verify_table_structure(ks.CANONICAL_TABLE))
        assert ks.verify_table_structure(ks.CANONICAL_TABLE) == before["structure"]

    def test_structure_failure_raises(self, table):
        grid = list(map(list, table.grid))
        grid[0][4] = PauliString.identity(4)
        mutated = ks.KsTable(
            tuple(map(tuple, grid)), table.row_targets, table.column_targets
        )
        with pytest.raises(ValueError):
            ks.prove_ks_contradiction(mutated)


def _scribble(value):
    """Change every list and dict inside `value`, in place."""
    if isinstance(value, dict):
        for item in value.values():
            _scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            _scribble(item)
        value.append("scribbled")


PAIRS = ("phi+", "phi-", "psi+", "psi-")


class TestTwoPairStates:
    def test_double_singlet_matches_build_psi(self):
        from avnlab.states import build_psi

        assert np.allclose(
            ks.two_pair_state("psi-", "psi-").amplitudes, build_psi().amplitudes,
            rtol=0, atol=1e-12,
        )

    def test_states_are_built_once(self):
        ks.two_pair_state.cache_clear()
        first = [ks.two_pair_state(a, b) for a in PAIRS for b in PAIRS]
        again = [ks.two_pair_state(a, b) for a in PAIRS for b in PAIRS]
        assert all(x is y for x, y in zip(first, again))
        info = ks.two_pair_state.cache_info()
        assert (info.currsize, info.misses, info.hits) == (16, 16, 16)
        assert info.maxsize == 16
        for state in first:
            with pytest.raises(TypeError):
                state.amplitudes[0] = 1.0

    @pytest.mark.parametrize("pair13", PAIRS)
    @pytest.mark.parametrize("pair24", PAIRS)
    def test_each_amplitude_is_one_pair_product(self, pair13, pair24):
        s13 = ks._PAIR_STATES[pair13][0].amplitudes
        s24 = ks._PAIR_STATES[pair24][0].amplitudes
        want = np.zeros(16, dtype=complex)
        for q1, q2, q3, q4 in np.ndindex(2, 2, 2, 2):
            want[q1 << 3 | q2 << 2 | q3 << 1 | q4] = s13[q1 << 1 | q3] * s24[q2 << 1 | q4]
        got = np.asarray(ks.two_pair_state(pair13, pair24).amplitudes)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pairs", [("xx", "phi+"), ("phi+", "psi"), ("PHI+", "psi-")])
    def test_unknown_pair_raises_value_error(self, pairs):
        with pytest.raises(ValueError, match="unknown Bell pair"):
            ks.two_pair_state(*pairs)

    @pytest.mark.parametrize("pair13", PAIRS)
    @pytest.mark.parametrize("pair24", PAIRS)
    def test_seed_operator_eigenvalues(self, pair13, pair24):
        state = ks.two_pair_state(pair13, pair24)
        _, z13, x13 = ks._PAIR_STATES[pair13]
        _, z24, x24 = ks._PAIR_STATES[pair24]
        seeds = [parse(label, 4) for label in ("z1z3", "x1x3", "z2z4", "x2x4")]
        assert eigensigns(seeds, state) == [z13, x13, z24, x24]
        assert dense_oracle.eigensigns(seeds, state.amplitudes) == [z13, x13, z24, x24]


@pytest.fixture(scope="module")
def sweep():
    return ks.eigenfamily_sweep()


class TestEigenfamilySweep:
    def test_sixteen_states(self, sweep):
        assert len(sweep) == 16
        assert len({(r["pair13"], r["pair24"]) for r in sweep}) == 16

    def test_double_singlet_signs(self, sweep):
        record = next(
            r for r in sweep if r["pair13"] == "psi-" and r["pair24"] == "psi-"
        )
        assert record["signs"] == list(EXPECTED_SIGNS)

    def test_all_sign_products_are_minus_one(self, sweep):
        assert all(r["sign_product"] == -1 for r in sweep)

    def test_all_signs_definite(self, sweep):
        for r in sweep:
            assert all(s in (+1, -1) for s in r["signs"])

    def test_one_gather_per_state(self, monkeypatch):
        gathered, verified = [], []
        images, verify = ks.states.images, ks.verify_nine_identities
        monkeypatch.setattr(
            ks.states, "images",
            lambda ops, state: gathered.append(state) or images(ops, state),
        )
        monkeypatch.setattr(
            ks, "verify_nine_identities",
            lambda state, **kw: verified.append(state) or verify(state, **kw),
        )
        ks.eigenfamily_sweep()
        assert len(gathered) == len(set(map(id, gathered))) == 16
        assert list(map(id, verified)) == list(map(id, gathered))

    def test_seed_eigenvalues_are_read_off_the_states(self, sweep):
        # The reported values come from the hand table ks._PAIR_STATES.
        labels = ("z1z3", "z2z4", "x1x3", "x2x4")
        seeds = [parse(label, 4) for label in labels]
        vectors = set()
        for r in sweep:
            state = ks.two_pair_state(r["pair13"], r["pair24"])
            reported = [r["seed_eigenvalues"][label] for label in labels]
            assert eigensigns(seeds, state) == reported
            vectors.add(tuple(reported))
        # Four commuting independent ±1 observables on four qubits have 16
        # one-dimensional joint eigenspaces: the sweep visits each once.
        assert len(vectors) == 16

    def test_adapted_functionals_keep_nine_versus_seven(self, sweep):
        for r in sweep:
            assert r["quantum_value"] == pytest.approx(9, abs=1e-12)
            assert r["local_bound"] == 7


class TestReporting:
    def test_render_table_mentions_every_line(self, table):
        text = ks.render_table(table)
        assert "row 1: ok" in text and "col 5: ok" in text
        assert "y1y2y3y4" in text

    def test_mermin_peres_square_renders(self):
        cells = (("x1", "x2", "x1x2"), ("z2", "z1", "z1z2"), ("x1z2", "z1x2", "y1y2"))
        square = ks.KsTable(
            tuple(tuple(parse(cell, 2) for cell in row) for row in cells),
            (+1, +1, +1),
            (+1, +1, -1),
        )
        structure = ks.verify_table_structure(square)
        assert structure["all_ok"]
        proof = ks.prove_ks_contradiction(square)
        assert proof["exhaustive_count_satisfying_all"] == 0
        assert proof["assignments_checked"] == 512
        lines = ks.render_table(square).split("\n")
        assert len(lines) == 4
        assert lines[0] == "x1        x2        x1x2      | row 1: ok"
        assert lines[-1] == "col 1: ok  col 2: ok  col 3: ok"

    def test_long_labels_stay_apart(self):
        # Columns widen to the longest label plus two.
        cells = (("x1x2x3x4x5x6", "z1"), ("z1", "x1x2x3x4x5x6"))
        table = ks.KsTable(
            tuple(tuple(parse(cell, 6) for cell in row) for row in cells),
            (+1, +1),
            (+1, +1),
        )
        lines = ks.render_table(table).split("\n")
        assert lines[0] == "x1x2x3x4x5x6  z1            | row 1: FAIL"
        assert lines[1] == "z1            x1x2x3x4x5x6  | row 2: FAIL"

    def test_certificate_is_json_ready(self):
        import json

        report = ks.certificate()
        json.dumps(report)
        assert report["all_ok"]
