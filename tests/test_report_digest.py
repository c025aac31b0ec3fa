"""Byte identity of the CLI's reports over a fixed set of 40 outputs.

Each output's SHA-256 is pinned in `report_digests.json`, keyed by its
argv, so a failure names the output whose bytes changed.  The set is
`all` at seeds 0-3, V in {1, 0.9} and eta in {1, 0.8}, and `verify`,
`lhv`, `ks` and `simulate` at their defaults, each in JSON and text.

After a deliberate, documented change of report bytes, regenerate the
file with

    PYTHONPATH=src python tests/test_report_digest.py > tests/report_digests.json
"""

import builtins
import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import sys
from pathlib import Path

import pytest

from avnlab import cli

DIGESTS = Path(__file__).with_name("report_digests.json")

ARGVS = [
    [command, *form]
    for command in ("verify", "lhv", "ks", "simulate")
    for form in (["--json"], [])
] + [
    ["all", "--seed", str(seed), "--visibility", visibility,
     "--efficiency", efficiency, *form]
    for seed in range(4)
    for visibility in ("1", "0.9")
    for efficiency in ("1", "0.8")
    for form in (["--json"], [])
]


def report_digest(argv) -> str:
    """SHA-256 of the bytes `avnlab <argv>` writes to stdout."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, f"{argv} exited {code}"
    return hashlib.sha256(stdout.buffer.getvalue()).hexdigest()


def test_the_set_is_pinned_in_full():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(" ".join(argv) for argv in ARGVS)
    assert len(pinned) == 40


@pytest.mark.parametrize("argv", ARGVS, ids=[",".join(argv) for argv in ARGVS])
def test_report_bytes_are_unchanged(argv):
    pinned = json.loads(DIGESTS.read_text())
    assert report_digest(argv) == pinned[" ".join(argv)]


def compensated_sum(iterable, start=0):
    """The builtin sum by the rule of Python 3.12 and later: exact over
    leading ints, then Neumaier's compensated sum over floats (ints added
    as floats), the compensation added at the end when it is non-zero and
    finite; any other item ends the fast paths, and the rest is added
    with `+`."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) in (int, bool):
                total += float(item)
                continue
            if type(item) is not float:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_follows_the_newer_rule():
    tenths = [0.1] * 10
    assert functools.reduce(operator.add, tenths, 0) == 0.9999999999999999
    assert compensated_sum(tenths) == 1.0
    assert compensated_sum([1, 2, 0.5, 1e100, 1.0, -1e100]) == 4.5
    assert compensated_sum([1, 2]) == 3 and type(compensated_sum([1, True])) is int
    assert compensated_sum([1, 0.5, 1j]) == 1.5 + 1j
    assert compensated_sum([[1], [2]], []) == [1, 2]
    assert compensated_sum([]) == 0


@pytest.mark.parametrize("argv", ARGVS, ids=[",".join(argv) for argv in ARGVS])
def test_report_bytes_do_not_depend_on_the_builtin_sum(argv, monkeypatch):
    # requires-python admits versions whose builtin sum rounds differently.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    pinned = json.loads(DIGESTS.read_text())
    assert report_digest(argv) == pinned[" ".join(argv)]


if __name__ == "__main__":
    digests = {" ".join(argv): report_digest(argv) for argv in ARGVS}
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
