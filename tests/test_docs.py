"""The README examples run as written, its usage block lists each
subcommand's flags, its configuration block lists the configuration schema,
and every exported name resolves."""

import argparse
import ast
import contextlib
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import sbparity
from sbparity import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading):
    """The first ```python block under the README section ``heading``."""
    text = README.read_text()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("Library quick tour"), str(README), "exec"), {})
    margin, verdict = out.getvalue().splitlines()[0].split()
    assert float(margin) > 0.0 and verdict == "strictly-below"
    alpha_c, beta = map(float, out.getvalue().splitlines()[1].split())
    assert alpha_c > 0.0 and beta > 0.0


def readme_config_block():
    """The JSON block of the README section "Configuration", decoded."""
    section = README.read_text().split("### Configuration\n", 1)[1].split("\n### ", 1)[0]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_readme_config_block_names_the_schema_keys_and_defaults():
    block = readme_config_block()
    assert [(section, list(keys)) for section, keys in block.items()] == [
        (section, list(rows)) for section, rows in cli.CONFIG_SCHEMA.items()]
    defaults = {}
    for section, rows in cli.CONFIG_SCHEMA.items():
        for key, (_, _, required, default) in rows.items():
            if not required and section != "sweep":  # examples there
                defaults[f"{section}.{key}"] = default
                shown = block[section][key]
                assert (shown, type(shown)) == (default, type(default)), key
    assert defaults == {
        "model.modes": None, "disc.n_modes": 30, "disc.lambda_disc": 2.0,
        "trunc.policy": None, "trunc.cap": 20, "solver.tol": 1e-10,
        "solver.max_iter": 10000, "solver.k_levels": 1, "parity.epsilon": 0.01,
        "parity.m_ref": 0,
    }
    cli.parse_config(block)  # the documented configuration is valid


def test_readme_usage_lists_each_subcommands_flags():
    # A deleted flag must not linger in the usage block, nor a new one be missing.
    section = README.read_text().split("## Command-line interface\n", 1)[1]
    usage = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = {line.split()[1]: set(re.findall(r"--[\w-]+", line)) - {"--config", "--out"}
                  for line in usage.splitlines()}
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in parser._actions for flag in action.option_strings}
             - {"-h", "--help", "--config", "--out"}
             for name, parser in subparsers.choices.items()}
    assert documented == flags


def test_readme_exit_codes_are_the_cli_table():
    section = README.read_text().split("### Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d) \|.*\|(.*)\|$", section, re.M)
    documented = {int(code): set(re.findall(r"`(\w+)`", errors)) for code, errors in rows}
    table = {0: set()}
    for cls, code in cli.EXIT_CODES.items():
        table.setdefault(code, set()).add(cls.__name__)
    assert documented == table


def test_every_exported_name_resolves():
    # A deleted function must not linger in an export list.
    package = Path(sbparity.__file__).parent
    for info in pkgutil.iter_modules([str(package)]):
        module = importlib.import_module(f"sbparity.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sbparity.{info.name}.__all__ names {name!r}"
    # The package re-exports names of its modules, each in that module's
    # __all__ where it has one.
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"sbparity.{node.module}")
            for alias in node.names:
                assert alias.name in getattr(module, "__all__", [alias.name]), alias.name
                assert getattr(sbparity, alias.name) is getattr(module, alias.name)
