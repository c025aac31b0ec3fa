"""Packaging metadata: the version is written once, in avnlab/__init__.py,
every third-party module the tests import is a declared dependency, no
module of the package imports a third-party module and no command loads
numpy, dataclasses, fractions or json, the public API is pinned, and
importing the CLI builds none of the cached work."""

import ast
import os
import re
import subprocess
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


def _third_party_imports(directory: Path, pattern: str = "*.py") -> set:
    """Top-level names imported by the files matching `pattern` in
    `directory`, less the standard library, avnlab and the directory's own
    modules."""
    local = {path.stem for path in directory.glob("*.py")} | {"avnlab"}
    names = set()
    for path in directory.glob(pattern):
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


MODULES = sorted(
    path.relative_to(ROOT / "src" / "avnlab").as_posix()
    for path in (ROOT / "src" / "avnlab").rglob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_integer_algebra_imports_only_the_standard_library(module):
    # Every module runs on the standard library; numpy, dense matrices and
    # sampling oracles live in the tests.
    assert {"pauli.py", "lhv.py", "states.py", "kernels.py"} <= set(MODULES)
    assert _third_party_imports(ROOT / "src" / "avnlab", module) == set()


def test_public_api_is_pinned():
    assert avnlab.__all__ == [
        "BellFunctional",
        "EXPECTED_SIGNS",
        "ExperimentTerm",
        "PauliString",
        "StateVector",
        "born_probabilities",
        "build_psi",
        "nine_terms",
        "parse",
        "verify_nine_identities",
        "__version__",
    ]
    namespace = {}
    exec("from avnlab import *", namespace)
    assert set(avnlab.__all__) <= namespace.keys()


def _run_python(code: str) -> str:
    """stdout of `python -c code` in a fresh process that imports avnlab
    from this checkout."""
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return result.stdout


def _cached_functions() -> list:
    """(module, function) for every function of the package decorated with
    `lru_cache` or `functools.lru_cache`, called or not."""
    found = []
    for module in MODULES:
        name = "avnlab." + module.removesuffix(".py").replace("/", ".")
        tree = ast.parse((ROOT / "src" / "avnlab" / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                "lru_cache" in (getattr(target, "attr", None), getattr(target, "id", None))
                for target in (getattr(d, "func", d) for d in node.decorator_list)
            ):
                found.append((name.removesuffix(".__init__"), node.name))
    return found


def test_sources_parse_at_the_declared_python_floor():
    # Only the grammar is checked: the tests may run on a newer Python.
    declared = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    floor = (3, int(declared.group(1)))
    assert floor == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
    sources = sorted((ROOT / "src" / "avnlab").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_import_builds_no_cached_work():
    # Every CLI process pays for what import builds, so cached work must be
    # built on first use, not at import.  The module caches are keyed by
    # scalars or by nothing; what is derived from a table is kept on it.
    cached = _cached_functions()
    assert sorted(cached) == [
        ("avnlab.cli", "build_parser"),
        ("avnlab.kernels", "_planes"),
        ("avnlab.ks", "two_pair_state"),
    ]
    code = "import importlib, os\nimport avnlab.cli\n" + "".join(
        f"print(importlib.import_module({module!r}).{function}.cache_info().currsize)\n"
        for module, function in cached
    ) + (
        "from avnlab import cli, ks\n"
        "table = vars(ks.CANONICAL_TABLE)\n"
        "print(*(name in table for name in ('line_checks', 'parity_system')))\n"
        "cli.main(['all', '--json', '--out', os.devnull])\n"
        "print(*(name in table for name in ('line_checks', 'parity_system')))\n"
    )
    assert _run_python(code).split() == ["0"] * len(cached) + ["False"] * 2 + ["True"] * 2


def test_simulator_draws_from_the_standard_library():
    # numpy.random would bring secrets, hmac and OpenSSL's _hashlib into
    # every CLI process; the simulator's substreams and draws need none.
    assert _third_party_imports(ROOT / "src" / "avnlab", "simulate.py") == set()
    code = (
        "import os, sys\n"
        "from avnlab import cli\n"
        "code = cli.main(['all', '--json', '--out', os.devnull, '--shots', '1000',\n"
        "                 '--visibility', '0.9', '--efficiency', '0.8'])\n"
        "print(code, *(m in sys.modules for m in ('numpy.random', '_hashlib')))\n"
    )
    assert _run_python(code).split() == ["0", "False", "False"]


#: Modules no command may load.  numpy is a test dependency only:
#: importing it would cost every CLI process more than half of its run
#: time.  dataclasses brings inspect (and ast, dis, tokenize) and fractions
#: brings decimal, which together cost a cold process about 10 ms.  The
#: CLI never decodes JSON, so it loads neither json nor its decoder.
UNLOADED = ("numpy", "dataclasses", "inspect", "fractions", "decimal", "json")


@pytest.mark.parametrize("command", ["verify", "lhv", "ks", "simulate", "all"])
def test_no_command_loads_numpy(command):
    code = (
        "import os, sys\n"
        "from avnlab import cli\n"
        f"code = cli.main([{command!r}, '--json', '--out', os.devnull])\n"
        f"print(code, *(m for m in {UNLOADED!r} if m in sys.modules))\n"
    )
    assert _run_python(code).split() == ["0"]
