"""Command-line entry point: reproducible verification runs and reports.

Subcommands: verify | lhv | ks | simulate | all.  Exit codes: 0 success,
1 verification failure, 2 internal invariant breach, 64 usage error
(including a simulation that loses every shot to detection), 74 cannot write the report.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
# The C quoter that json.encoder re-exports; taking it from _json loads
# no part of the json package, whose decoder no command needs.
from _json import encode_basestring_ascii as _quote

from . import ks, lhv, simulate
from .functional import EXPECTED_SIGNS, operator_o_check, verify_nine_identities
from .pauli import parse
from .states import build_psi

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVARIANT = 2
EXIT_USAGE = 64
EXIT_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Not print_usage(sys.stderr): with stderr closed, that prints to stdout.
        sys.exit(_fail(EXIT_USAGE, f"{self.format_usage()}error: {message}"))

    def print_help(self):
        # Through _emit, as every report: a full or closed stdout exits 74.
        if code := _emit(self.format_help(), None):
            sys.exit(code)

    def _parse_optional(self, arg_string):
        # A number is a value, "-1e3" and "-inf" too, never an option.
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


#: The two operator identities behind the nine: (a, b, a·b) on each side.
_OPERATOR_IDENTITIES = tuple(
    tuple(parse(text, 4) for text in identity)
    for identity in (("z1z2", "x1x2", "-y1y2"), ("z3x4", "x3z4", "y3y4"))
)


def run_verify(state=None) -> dict:
    """Exact checks of the state-side claims; `state` is injectable for
    negative-control tests."""
    if state is None:
        state = build_psi()
    signs = verify_nine_identities(state)
    failures = [
        f"identity {i + 1}: expected {want:+d}, got {got}"
        for i, (want, got) in enumerate(zip(EXPECTED_SIGNS, signs))
        if got != want
    ]

    eigen_ok = operator_o_check(state)
    if not eigen_ok:
        failures.append("operator sum does not map the state to 9x itself")

    identity_checks = []
    for lhs_a, lhs_b, rhs in _OPERATOR_IDENTITIES:
        product = lhs_a * lhs_b
        ok = product == rhs
        lhs = f"{lhs_a.label}·{lhs_b.label}"
        identity_checks.append(
            {"lhs": lhs, "rhs": rhs.label, "product": product.label, "ok": ok}
        )
        if not ok:
            failures.append(f"operator identity {lhs} != {rhs.label}")

    return {
        "signs": signs,
        "expected_signs": list(EXPECTED_SIGNS),
        "sign_product": None if any(s is None for s in signs) else math.prod(signs),
        "eigenvalue_nine": eigen_ok,
        "operator_identities": identity_checks,
        "failures": failures,
        "all_ok": not failures,
    }


def run_simulate(shots, seed, noise) -> dict:
    report = simulate.estimate_F(shots, noise, seed)
    report["all_ok"] = True  # statistical report; no pass/fail gate
    return report


def _discard(stream) -> None:
    """Point `stream`'s descriptor at os.devnull, where the flush at exit cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _fail(code, reason) -> int:
    """Write `reason` and a newline to stderr, best effort, and return `code`."""
    if sys.stderr is not None:  # None when the process started with fd 2 closed
        try:
            sys.stderr.write(reason + "\n")
        except OSError:
            _discard(sys.stderr)
    return code


def _emit(text, out) -> int:
    """Write `text` as UTF-8, whatever the locale, to the file `out` or to stdout
    if `out` is None; EXIT_OK, or EXIT_IOERR with one line on stderr when it
    cannot be written."""
    try:
        if out is not None:
            with open(out, "wb") as fh:
                fh.write(text.encode("utf-8"))
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        elif not hasattr(sys.stdout, "buffer"):  # a text-only stream such as io.StringIO
            sys.stdout.write(text)
        else:
            try:
                sys.stdout.flush()
                sys.stdout.buffer.write(text.encode("utf-8"))
                sys.stdout.flush()
            except OSError:
                _discard(sys.stdout)
                raise
    except OSError as exc:  # --out is never empty: that is a usage error
        return _fail(EXIT_IOERR, f"error: cannot write {out or 'standard output'}: "
                                 f"{exc.strerror or exc}")
    return EXIT_OK


# -- JSON --------------------------------------------------------------------
#
# `json.dumps(report, indent=2, sort_keys=True)` always takes json's
# pure-Python generator encoder when `indent` is set, which costs about
# twice this one: a walk that appends to one list, joined once.  It
# accepts exactly what reports hold, str keys and values of the types in
# `_SCALARS` or dicts, lists and tuples of them, and gives the same string
# as json for those; anything else raises TypeError.

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


#: Encoders of the scalar types, looked up by exact type.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(value, newline, parts):
    """Append the encoding of `value`, whose lines after the first start
    with `newline`, to `parts`.  Values are trees: a container holding
    itself recurses without end."""
    append, scalars = parts.append, _SCALARS
    kind = type(value)
    if kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            append(separator)
            separator = comma
            append(_quote(key))
            text = scalars.get(type(item))
            if text is not None:
                append(": " + text(item))
            else:
                append(": ")
                _encode(item, inner, parts)
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "[" + inner
        for item in value:
            append(separator)
            separator = comma
            text = scalars.get(type(item))
            if text is not None:
                append(text(item))
            else:
                _encode(item, inner, parts)
        append(newline + "]")
    elif kind in scalars:
        append(scalars[kind](value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(report) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)` plus a newline."""
    parts = []
    _encode(report, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _verify_lines(report) -> list:
    return [
        f"  nine signs: {report['signs']}  (product {report['sign_product']})",
        f"  eigenvalue-nine check: {report['eigenvalue_nine']}",
        *(f"  {c['lhs']} = {c['product']}  (want {c['rhs']}): {c['ok']}"
          for c in report["operator_identities"]),
        *(f"  FAIL {failure}" for failure in report["failures"]),
    ]


def _lhv_lines(report) -> list:
    ids = report["id_order"]
    witness = "".join("-" if report["witness"][k] < 0 else "+" for k in ids)
    return [
        f"  parity product: {report['parity_product']}",
        f"  satisfying assignments: {report['satisfying_count']} of {1 << len(ids)}",
        f"  local bound: {report['local_bound']}  quantum value: {report['quantum_value']}",
        f"  critical visibility: {report['visibility_threshold_exact']}",
        f"  witness ({' '.join(ids)}): {witness}",
    ]


def _ks_lines(report) -> list:
    c, family = report["contradiction"], report["eigenfamily"]
    return [
        ks.render_table(ks.KsTable.canonical()),
        f"  parity product: {c['parity_product']}",
        f"  satisfying assignments: {c['exhaustive_count_satisfying_all']}"
        f" of {c['assignments_checked']}",
        f"  eigenfamily: {len(family)} states, sign products"
        f" {'all -1' if all(r['sign_product'] == -1 for r in family) else 'MIXED'}",
    ]


def _simulate_lines(report) -> list:
    return [
        *(f"  term {r['term_index']} ({r['label']}): "
          f"{r['estimate']:+.5f} ± {r['standard_error']:.5f} "
          f"[{r['shots_retained']}/{r['shots_requested']} shots]"
          for r in report["records"]),
        f"  F = {report['F_estimate']:.5f} ± {report['F_standard_error']:.5f}"
        f"  (local bound {report['local_bound']}, quantum value {report['quantum_value']})",
        f"  violates local bound: {report['violates_local_bound']}",
    ]


#: The report's blocks in their order under `all`: name -> (builder from
#: the arguments and noise model, text lines).  Each sets its own `all_ok`;
#: builders resolve names per call, so a rebound (traced) function runs.
_BLOCKS = {
    "verify": (lambda args, noise: run_verify(), _verify_lines),
    "lhv": (lambda args, noise: lhv.certificate(), _lhv_lines),
    "ks": (lambda args, noise: ks.certificate(), _ks_lines),
    "simulate": (lambda args, noise: run_simulate(args.shots, args.seed, noise),
                 _simulate_lines),
}


def _render_text(report, command) -> str:
    if command in _BLOCKS:
        body = _BLOCKS[command][1](report)
    else:  # all: each block's own text
        body = [_render_text(report[name], name) for name in _BLOCKS]
    lines = [f"[{command}]", *body, f"  result: {'PASS' if report['all_ok'] else 'FAIL'}"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it;
    parsing keeps no state between calls."""
    parser = _Parser(prog="avnlab", description=__doc__)
    parser.add_argument("command", choices=[*_BLOCKS, "all"])
    parser.add_argument("--shots", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--visibility", type=float, default=1.0)
    parser.add_argument("--efficiency", type=float, default=1.0)
    parser.add_argument("--json", action="store_true", help="emit a JSON certificate")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.visibility += 0.0  # -0.0 + 0.0 is 0.0: -0.0 would be reported with its sign
    try:
        if args.shots <= 0:
            raise ValueError("--shots must be positive")
        if args.out == "":
            raise ValueError("--out must name a file")
        # Checked for every command, not only those that simulate.
        noise = simulate.NoiseModel(args.visibility, args.efficiency)
        if args.command in _BLOCKS:
            report = _BLOCKS[args.command][0](args, noise)
        else:
            report = {name: build(args, noise) for name, (build, _) in _BLOCKS.items()}
            report["all_ok"] = all(block["all_ok"] for block in report.values())
    except (ValueError, simulate.DegenerateRecordError) as exc:
        parser.error(str(exc))
    except AssertionError as exc:
        return _fail(EXIT_INVARIANT, f"internal invariant breach: {exc}")

    text = _json_text(report) if args.json else _render_text(report, args.command)
    return _emit(text, args.out) or (EXIT_OK if report["all_ok"] else EXIT_FAIL)


if __name__ == "__main__":
    sys.exit(main())
