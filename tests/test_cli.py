"""CLI contract: subcommands, exit codes, deterministic JSON reports."""

import json

import numpy as np
import pytest

from avnlab import cli
from avnlab.states import StateVector, build_psi


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out = run(["verify"], capsys)
        assert code == 0
        assert "[-1, -1, -1, -1, 1, 1, 1, 1, -1]" in out
        assert "PASS" in out

    def test_json_certificate(self, capsys):
        code, out = run(["verify", "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["signs"] == [-1, -1, -1, -1, 1, 1, 1, 1, -1]
        assert report["sign_product"] == -1
        assert report["eigenvalue_nine"] is True
        assert report["all_ok"] is True

    def test_corrupted_state_names_failing_identity(self):
        amps = np.array(build_psi().amplitudes)
        amps[0b0011], amps[0b0110] = amps[0b0110], amps[0b0011]
        report = cli.run_verify(StateVector(4, amps))
        assert not report["all_ok"]
        assert any("identity" in failure for failure in report["failures"])


class TestLhv:
    def test_exit_zero_with_certificate(self, capsys):
        code, out = run(["lhv", "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["local_bound"] == 7
        assert report["satisfying_count"] == 0
        assert report["parity_product"] == -1


class TestKs:
    def test_exit_zero(self, capsys):
        code, out = run(["ks", "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["contradiction"]["exhaustive_count_satisfying_all"] == 0
        assert len(report["eigenfamily"]) == 16


class TestSimulate:
    def test_default_violates(self, capsys):
        code, out = run(["simulate", "--shots", "2000", "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["violates_local_bound"] is True

    def test_identical_config_gives_identical_bytes(self, capsys, tmp_path):
        args = ["simulate", "--shots", "3000", "--seed", "5",
                "--visibility", "0.9", "--json"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_noise_flags_are_honored(self, capsys):
        code, out = run(
            ["simulate", "--shots", "3000", "--visibility", "0.0", "--json"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["config"]["visibility"] == 0.0
        assert not report["violates_local_bound"]


class TestAll:
    def test_aggregate_certificate(self, capsys):
        code, out = run(["all", "--shots", "1000", "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert set(report) >= {"verify", "lhv", "ks", "simulate", "all_ok"}
        assert report["all_ok"] is True


class TestUsageErrors:
    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 64

    def test_nonpositive_shots_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--shots", "0"])
        assert exc.value.code == 64

    def test_oversized_shots_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--shots", "100000000000000000000000"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert f"error: shots must be at most {2**63 - 1}\n" in err
        assert "Traceback" not in err

    def test_out_of_range_visibility_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--visibility", "2.0"])
        assert exc.value.code == 64

    def test_every_shot_lost_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--efficiency", "1e-6", "--shots", "3"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert "error: term 1: all 3 shots lost to detection\n" in err
        assert "Traceback" not in err


class TestOutputErrors:
    def test_unwritable_out_exits_74(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code = cli.main(["verify", "--json", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_IOERR == 74
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {path}: No such file or directory\n"
        )
