"""CLI contract: subcommands, exit codes, deterministic JSON reports."""

import collections
import contextlib
import enum
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avnlab import cli, lhv, simulate
from avnlab.states import StateVector, build_psi

GOLDEN = Path(__file__).parent / "golden"


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

    def test_text_count_follows_the_id_order(self):
        report = lhv.certificate()
        assert "satisfying assignments: 0 of 4096" in cli._render_text(report, "lhv")
        report["id_order"] = report["id_order"][:3]
        assert "satisfying assignments: 0 of 8" in cli._render_text(report, "lhv")


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


    def test_negative_zero_visibility_is_recorded_as_zero(self, capsys):
        code, out = run(
            ["simulate", "--shots", "3000", "--visibility", "-0.0", "--json"],
            capsys,
        )
        assert code == 0
        assert '"visibility": 0.0' in out
        assert '"visibility": -0.0' not in out
        assert json.loads(out) == json.loads(
            run(["simulate", "--shots", "3000", "--visibility", "0", "--json"],
                capsys)[1]
        )


class TestAll:
    def test_aggregate_certificate(self, capsys):
        code, out = run(["all", "--shots", "1000", "--json"], capsys)
        report = json.loads(out)
        assert code == 0
        assert set(report) >= {"verify", "lhv", "ks", "simulate", "all_ok"}
        assert report["all_ok"] is True

    def test_seed_0_certificate_matches_golden_bytes(self, tmp_path):
        # At the default visibility and efficiency of 1 both binomial draws
        # of every term are degenerate, so these bytes do not depend on the
        # random stream; only the rng_contract field names its version.
        # Any change to them is a change of output.
        path = tmp_path / "all.json"
        code = cli.main(["all", "--json", "--seed", "0", "--out", str(path)])
        assert code == 0
        assert path.read_bytes() == (GOLDEN / "all_seed0.json").read_bytes()

    def test_seed_0_text_report_matches_golden_bytes(self, tmp_path):
        path = tmp_path / "all.txt"
        code = cli.main(["all", "--seed", "0", "--out", str(path)])
        assert code == 0
        assert path.read_bytes() == (GOLDEN / "all_seed0.txt").read_bytes()


class TestSubcommandBytes:
    # Written by `avnlab COMMAND [--json] --out FILE`.  These reports do not
    # depend on the seed or on the random stream, so any change to their
    # bytes is a change of output.
    @pytest.mark.parametrize("command", ["verify", "lhv", "ks"])
    @pytest.mark.parametrize("suffix, options", [("json", ["--json"]), ("txt", [])])
    def test_report_matches_golden_bytes(self, command, suffix, options, tmp_path):
        path = tmp_path / f"{command}.{suffix}"
        assert cli.main([command, *options, "--out", str(path)]) == 0
        assert path.read_bytes() == (GOLDEN / f"{command}.{suffix}").read_bytes()

    # Noisy runs, where F - 3 SE falls on either side of the bound 7: at
    # V = 0.8 F = 7.142 but F - 3 SE = 6.969, so the verdict is false; at
    # V = 0.9 and eta = 0.8 it is true.  These bytes depend on the random
    # stream of the current RNG contract.
    @pytest.mark.parametrize("name, noise", [
        ("simulate_v0.8_shots1000", ["--visibility", "0.8"]),
        ("simulate_v0.9_eta0.8_shots1000", ["--visibility", "0.9", "--efficiency", "0.8"]),
    ])
    @pytest.mark.parametrize("suffix, options", [("json", ["--json"]), ("txt", [])])
    def test_noisy_simulate_matches_golden_bytes(self, name, noise, suffix, options, tmp_path):
        path = tmp_path / f"{name}.{suffix}"
        argv = ["simulate", *options, "--seed", "0", *noise, "--shots", "1000"]
        assert cli.main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == (GOLDEN / f"{name}.{suffix}").read_bytes()


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

    def test_negative_seed_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--seed", "-5"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: avnlab")
        assert captured.err.endswith("\nerror: seed must be non-negative\n")
        assert captured.err.count("error:") == 1

    # argparse alone takes a negative number in exponent form, or -inf,
    # for an option and reports "expected one argument".
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--visibility", "-1e-3", "visibility must lie in [0, 1]"),
            ("--seed", "-1e3", "argument --seed: invalid int value: '-1e3'"),
            ("--visibility", "-inf", "visibility must lie in [0, 1]"),
        ],
    )
    def test_negative_numbers_reach_the_real_check(self, option, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", option, value])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: avnlab")
        assert captured.err.endswith(f"\nerror: {message}\n")
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err

    def test_seed_of_two_to_the_128_runs(self, capsys):
        code, out = run(["simulate", "--shots", "1000", "--seed", str(2**128),
                         "--visibility", "0.9", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 2**128

    def test_out_of_range_visibility_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--visibility", "2.0"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("command", ["verify", "lhv", "ks"])
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--visibility", "7", "visibility must lie in [0, 1]"),
            ("--efficiency", "0", "detector efficiency must lie in (0, 1]"),
        ],
    )
    def test_noise_options_checked_without_simulation(
        self, command, option, value, message, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, option, value])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"\nerror: {message}\n")
        assert captured.err.count("error:") == 1

    def test_empty_out_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--json", "--out", ""])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\nerror: --out must name a file\n")

    def test_parser_is_built_once(self, monkeypatch):
        calls = []
        build = cli.build_parser

        def counting_build():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--shots", "100000000000000000000000"])
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--shots", "0"])
        assert len(calls) == 2

    def test_two_calls_share_one_parser_and_no_options(self, capsys, monkeypatch):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        seen = []
        parse_args = parser.parse_args
        monkeypatch.setattr(
            parser, "parse_args", lambda argv: seen.append(argv) or parse_args(argv)
        )
        code, out = run(["verify", "--json"], capsys)
        assert code == 0 and json.loads(out)["all_ok"] is True
        code, out = run(["verify"], capsys)
        assert code == 0 and out.startswith("[verify]\n")
        assert seen == [["verify", "--json"], ["verify"]]

    def test_one_run_builds_one_noise_model(self, capsys, monkeypatch):
        calls = []
        init = simulate.NoiseModel.__init__
        monkeypatch.setattr(simulate.NoiseModel, "__init__",
                            lambda self, *args: calls.append(args) or init(self, *args))
        code, _ = run(["all", "--shots", "1000", "--visibility", "0.9"], capsys)
        assert code == 0
        assert calls == [(0.9, 1.0)]

    def test_every_shot_lost_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--efficiency", "1e-6", "--shots", "3"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert "error: term 1: all 3 shots lost to detection\n" in err
        assert "Traceback" not in err


class TestVerdictExits:
    @pytest.mark.parametrize("command", ["lhv", "all"])
    def test_a_failing_block_exits_1(self, command, capsys, monkeypatch):
        # A local bound of 8 fails the lhv block, and with it `all`.
        witness = lhv.assignment_from_int(0, lhv.ID_ORDER)
        monkeypatch.setattr(lhv, "local_bound", lambda f: (8, witness))
        code = cli.main([command, "--shots", "1000"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_FAIL == 1
        assert "  local bound: 8  quantum value: 9\n  critical visibility: 8/9\n" in captured.out
        assert captured.out.endswith("  result: FAIL\n")
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["ks", "all"])
    def test_an_invariant_breach_exits_2(self, command, capsys, monkeypatch):
        def breach():
            raise AssertionError("parity and exhaustive methods disagree")

        monkeypatch.setattr(cli.ks, "certificate", breach)
        code = cli.main([command, "--json"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVARIANT == 2
        assert captured.out == ""
        assert captured.err == "internal invariant breach: parity and exhaustive methods disagree\n"


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


def _child(argv, redirect="", **kwargs):
    """Run `python ARGV REDIRECT` through sh from this source checkout,
    with stdout and stderr buffered as Python buffers them by default."""
    path = str(Path(cli.__file__).resolve().parents[1])
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, *argv],
                          stderr=subprocess.PIPE, env=env, timeout=120, **kwargs)


_HAS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestFailureExits:
    """A failed write, to stdout, stderr or --out, exits with its documented
    code and at most one line on stderr: no traceback, and no "Exception
    ignored" from the interpreter's flush at exit."""

    def _assert_exit(self, proc, code, line):
        assert (proc.returncode, proc.stderr.decode()) == (code, line)

    @_HAS_DEV_FULL
    def test_full_stdout_exits_74(self):
        proc = _child(["-m", "avnlab.cli", "ks"], ">/dev/full")
        self._assert_exit(proc, 74, "error: cannot write standard output: No space left on device\n")

    def test_broken_pipe_exits_74(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts: every write fails
        try:
            proc = _child(["-m", "avnlab.cli", "all", "--json"], stdout=write_end)
        finally:
            os.close(write_end)
        self._assert_exit(proc, 74, "error: cannot write standard output: Broken pipe\n")

    def test_closed_stdout_exits_74(self):
        proc = _child(["-m", "avnlab.cli", "verify"], ">&-")
        self._assert_exit(proc, 74, "error: cannot write standard output: Bad file descriptor\n")

    @pytest.mark.parametrize(
        "redirect, reason",
        [pytest.param(">/dev/full", "No space left on device", marks=_HAS_DEV_FULL),
         (">&-", "Bad file descriptor")],
    )
    def test_unwritable_help_exits_74(self, redirect, reason):
        proc = _child(["-m", "avnlab.cli", "--help"], redirect)
        self._assert_exit(proc, 74, f"error: cannot write standard output: {reason}\n")

    def test_help_goes_to_stdout_and_exits_0(self):
        proc = _child(["-m", "avnlab.cli", "-h"], stdout=subprocess.PIPE)
        self._assert_exit(proc, 0, "")
        assert proc.stdout == cli.build_parser().format_help().encode()

    @pytest.mark.parametrize(
        "redirect", [pytest.param("2>/dev/full", marks=_HAS_DEV_FULL), "2>&-"]
    )
    def test_usage_error_exits_64_whatever_stderr(self, redirect):
        proc = _child(["-m", "avnlab.cli", "--bogus"], redirect, stdout=subprocess.PIPE)
        self._assert_exit(proc, 64, "")
        assert proc.stdout == b""

    def test_invariant_breach_with_closed_stderr_exits_2(self):
        code = (
            "import sys\n"
            "from avnlab import cli, ks\n"
            "def breach():\n"
            "    raise AssertionError('parity and exhaustive methods disagree')\n"
            "ks.certificate = breach\n"
            "sys.exit(cli.main(['ks']))\n"
        )
        proc = _child(["-c", code], "2>&-", stdout=subprocess.PIPE)
        self._assert_exit(proc, 2, "")
        assert proc.stdout == b""

    def test_unwritable_out_with_closed_stderr_exits_74(self, tmp_path):
        out = tmp_path / "missing" / "x"
        proc = _child(["-m", "avnlab.cli", "verify", "--out", str(out)], "2>&-",
                      stdout=subprocess.PIPE)
        self._assert_exit(proc, 74, "")
        assert proc.stdout == b""


#: Option values that have broken number parsing: nan, infinities, signed
#: zero, subnormals, 2^63, non-numeric text and the empty string; and
#: values that every option takes, so that drawn commands also run.
_OPTION_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "-0.0", "5e-324", "2.2250738585072014e-308", str(2**63),
     str(2**63 - 1), "-1", "1e3", "abc", ""]
) | st.text(max_size=6) | st.sampled_from(["1", "0.9", "1000"])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


class TestArgvContract:
    @settings(max_examples=300, deadline=None)
    @given(
        # Less "-h" and "--h...", which print the help and exit 0.
        command=st.sampled_from([*cli._BLOCKS, "all"])
        | st.text(max_size=6).filter(lambda text: not text.startswith(("-h", "--h"))),
        options=st.dictionaries(
            st.sampled_from(["--shots", "--seed", "--visibility", "--efficiency"]),
            _OPTION_VALUES, max_size=2,
        ),
        json_flag=st.booleans(),
        out=st.sampled_from([None, "devnull", "file", "directory", "missing parent"]
                            + ["/dev/full"] * os.path.exists("/dev/full")),
    )
    def test_every_argv_exits_with_a_documented_code(
        self, out_dir, command, options, json_flag, out
    ):
        argv = [command, *(item for pair in options.items() for item in pair)]
        argv += ["--json"] * json_flag
        target = {"devnull": os.devnull, "file": str(out_dir / "report"),
                  "directory": str(out_dir), "missing parent": str(out_dir / "no" / "x"),
                  "/dev/full": "/dev/full", None: None}[out]
        if target is not None:
            argv += ["--out", target]
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        err = stderr.getvalue()
        assert "Traceback" not in err
        writable = out in (None, "devnull", "file")
        if code in (0, 1):
            assert err == "" and writable
        elif code == 64:
            assert err.startswith("usage: avnlab") and err.endswith("\n")
            lines = err.splitlines()
            assert lines[-1].startswith("error: ")
            assert not any(line.startswith("error:") for line in lines[:-1])
        else:
            assert code == 74 and not writable
            assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
            assert err.endswith("\n")


class TestTextEncoding:
    # Text reports hold "·" and "±".  Under the C locale Python's stdout
    # and text files default to ASCII, so the CLI must encode them itself.
    @pytest.mark.parametrize(
        "argv, golden",
        [(["verify"], "verify.txt"), (["all", "--seed", "0"], "all_seed0.txt")],
        ids=["verify", "all"],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_text_report_is_utf8_under_the_c_locale(self, argv, golden, to_file, tmp_path):
        path = str(Path(cli.__file__).resolve().parents[1])
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0", "PYTHONPATH": path}
        env.pop("PYTHONIOENCODING", None)
        out = tmp_path / "report.txt"
        if to_file:
            argv = [*argv, "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "avnlab.cli", *argv],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stderr == b""
        written = out.read_bytes() if to_file else proc.stdout
        assert written == (GOLDEN / golden).read_bytes()

    def test_text_only_stdout_gets_the_text(self):
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert cli.main(["verify"]) == 0
        assert stream.getvalue().encode("utf-8") == (GOLDEN / "verify.txt").read_bytes()


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
)
_TEXT = st.text(st.characters(exclude_categories=()))  # lone surrogates too
_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _FLOATS | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_TEXT, children)
    ),
    max_leaves=40,
)


class TestJsonEncoder:
    """`cli._json_text` against `json.dumps(indent=2, sort_keys=True)` on
    the types reports hold; every other type raises TypeError."""

    @settings(max_examples=400, deadline=None)
    @given(_VALUES)
    @example({"": [], "\x00\ud800é": {}, "b": ((), [[]], {"a": -0.0})})
    def test_same_text_as_json(self, value):
        assert cli._json_text(value) == _dumps(value)

    @pytest.mark.parametrize(
        "value",
        [{1: "a", -2: "b"}, {1.5: 0, math.nan: 1, -math.inf: 2}, {True: 1},
         {None: [1, 2]}, {2**70: {}}, {np.float64(0.25): None}],
    )
    def test_rejects_non_string_keys(self, value):
        with pytest.raises(TypeError, match="keys must be str"):
            cli._json_text({"ok": [value]})

    @pytest.mark.parametrize(
        "value",
        [
            type("Label", (str,), {})("k"),
            enum.IntEnum("Sign", {"PLUS": 1}).PLUS,
            np.float64(-0.5),
            type("Row", (list,), {})([1]),
            collections.OrderedDict(a=1),
        ],
    )
    def test_rejects_subclasses(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"value": [value]})

    @settings(max_examples=100, deadline=None)
    @given(
        _VALUES,
        st.sampled_from([set(), {1}, np.int64(3), np.bool_(True), b"ab", object()]),
        st.booleans(),
    )
    def test_rejects_what_json_rejects(self, value, bad, as_key):
        tree = {"value": value, "bad": [bad]}
        if as_key and not isinstance(bad, set):  # a set cannot be a key
            tree["bad"] = {bad: 1}
        with pytest.raises(TypeError):
            _dumps(tree)
        with pytest.raises(TypeError):
            cli._json_text(tree)

    @pytest.mark.parametrize("value", [{1: 0, "a": 0}, {(1, 2): 0}])
    def test_rejects_keys_json_rejects(self, value):
        with pytest.raises(TypeError):
            _dumps(value)
        with pytest.raises(TypeError):
            cli._json_text(value)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        visibility=st.floats(0.0, 1.0),
        efficiency=st.floats(0.7, 1.0),
        shots=st.integers(200, 3000),
    )
    def test_all_reports_encode_as_json(self, seed, visibility, efficiency, shots):
        reports = []
        encode = cli._json_text

        def recording(report):
            reports.append(report)
            return encode(report)

        argv = ["all", "--json", "--out", os.devnull, "--seed", str(seed),
                "--shots", str(shots), "--visibility", repr(visibility),
                "--efficiency", repr(efficiency)]
        with mock.patch.object(cli, "_json_text", recording):
            assert cli.main(argv) == 0
        (report,) = reports
        assert encode(report) == _dumps(report)
