"""Byte identity of the CLI's reports over a fixed set of 40 outputs.

Each output's SHA-256 is pinned in `report_digests.json`, keyed by its
argv, so a failure names the output whose bytes changed.  The set is
`all` at seeds 0-3, V in {1, 0.9} and eta in {1, 0.8}, and `verify`,
`lhv`, `ks` and `simulate` at their defaults, each in JSON and text.

After a deliberate, documented change of report bytes, regenerate the
file with

    PYTHONPATH=src python tests/test_report_digest.py > tests/report_digests.json
"""

import contextlib
import hashlib
import io
import json
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


if __name__ == "__main__":
    digests = {" ".join(argv): report_digest(argv) for argv in ARGVS}
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
