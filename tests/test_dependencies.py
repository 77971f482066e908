"""Every import in the package is stdlib, the package itself, or a declared
dependency, so an installed-but-undeclared package cannot slip in; every
name a module imports is used there, so a deletion leaves no import behind;
and every name the benchmark scripts import from the package still exists,
so that a deletion in the package fails here before it fails a benchmark
run."""

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


def imported_names(tree: ast.Module):
    """The name each import in ``tree`` binds, at any depth, but for
    ``__future__`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports names only to re-export them.
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - read)
    assert not unused, f"{path.name} imports unused {unused}"


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


# Span names the benchmark's tables still carry for code the package no
# longer has.  The benchmark change that repairs them shrinks this set; a
# name that goes stale anywhere else fails here.
KNOWN_STALE_SPANS = {"symmat", "symmat.SymmetricMatrix.to_dense", "fockspace.d_matrix",
                     "fockspace.l_element_single", "hamiltonian.assemble_branch"}


def module_value(path: Path, name: str) -> ast.expr:
    """The expression assigned to the module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def benchmark_span_names() -> list[str]:
    """The keys of LAYER_SPANS and the entries of LAYER_MODULES in
    perfbench/run.py, and the keys of FACTS in perfbench/spans.py, read
    without importing the benchmark."""
    run, spans = ROOT / "perfbench" / "run.py", ROOT / "perfbench" / "spans.py"
    return ([ast.literal_eval(key) for key in module_value(run, "LAYER_SPANS").keys]
            + list(ast.literal_eval(module_value(run, "LAYER_MODULES")))
            + [ast.literal_eval(key) for key in module_value(spans, "FACTS").keys])


def resolves(name: str) -> bool:
    """Whether ``name``, a module of sbparity and attributes below it, exists."""
    module, *attrs = name.split(".")
    try:
        target = importlib.import_module(f"sbparity.{module}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def test_every_benchmark_span_name_resolves_or_is_known_stale():
    names = benchmark_span_names()
    assert {"spectra.eigen_lowest", "cli", "parity.d_square_audit"} <= set(names)
    stale = {name for name in names if not resolves(name)}
    assert stale <= KNOWN_STALE_SPANS, f"stale span names {sorted(stale - KNOWN_STALE_SPANS)}"
