"""Every import in the package is stdlib, the package itself, or a declared
dependency, so an installed-but-undeclared package cannot slip in; and every
name the benchmark scripts import from the package still exists, so that a
deletion in the package fails here before it fails a benchmark run."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sbparity").glob("*.py"))
BENCHMARK_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))


def declared_dependencies() -> set[str]:
    """Import names of pyproject's [project] dependencies."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def absolute_imports(path: Path):
    """Top-level module of every absolute import in ``path``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_are_found():
    assert {"fockspace.py", "cli.py", "__init__.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_stdlib_or_declared(path):
    allowed = set(sys.stdlib_module_names) | {"sbparity"} | declared_dependencies()
    undeclared = sorted(set(absolute_imports(path)) - allowed)
    assert not undeclared, f"{path.name} imports undeclared {undeclared}"


def package_imports(path: Path):
    """(module, name) of every import from sbparity in ``path``, at any
    depth; name is None for a plain ``import sbparity.x``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "sbparity")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "sbparity"):
            yield from ((node.module, alias.name) for alias in node.names)


def test_benchmark_scripts_import_from_the_package():
    assert any(name for path in BENCHMARK_SCRIPTS for _, name in package_imports(path))


@pytest.mark.parametrize("path", BENCHMARK_SCRIPTS, ids=lambda p: p.name)
def test_every_name_the_benchmark_imports_resolves(path):
    missing = []
    for module, name in package_imports(path):
        target = importlib.import_module(module)
        if name is not None and not hasattr(target, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports missing {missing}"
