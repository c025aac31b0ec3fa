"""Packaging metadata: the version is written once, in avnlab/__init__.py,
and every third-party module the tests import is a declared dependency."""

import ast
import re
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


def _third_party_imports(directory: Path) -> set:
    """Top-level names imported by the .py files in `directory`, less the
    standard library, avnlab and the directory's own modules."""
    local = {path.stem for path in directory.glob("*.py")} | {"avnlab"}
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - local - set(sys.stdlib_module_names)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_test_imports_are_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in requirements
    }
    imported = _third_party_imports(ROOT / "tests") | _third_party_imports(
        ROOT / "perfbench"
    )
    assert {"numpy", "pytest", "hypothesis"} <= imported
    assert imported - declared == set()
