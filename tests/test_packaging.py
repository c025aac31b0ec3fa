"""Packaging metadata: the version is written once, in avnlab/__init__.py."""

import ast
import sys
from pathlib import Path

import pytest

import avnlab

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_is_single_sourced():
    import tomllib

    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "avnlab.__version__"}
    # setuptools reads an `attr` version without importing the package
    # (and numpy) only when it is assigned a literal.
    tree = ast.parse((ROOT / "src" / "avnlab" / "__init__.py").read_text())
    literals = [
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [avnlab.__version__]
