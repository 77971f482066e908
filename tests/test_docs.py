"""The README examples run as written, its usage block lists each
subcommand's flags, its configuration block lists the configuration schema,
the numbers it quotes for the solver rule and the guards are the code's,
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
from sbparity import cli, fockspace, parity, spectra

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


SUPERSCRIPTS = "⁰¹²³⁴⁵⁶⁷⁸⁹"


def readme_number(text):
    """A number as README writes it: 600, 4.8e7, 5·10⁷ or 10⁶."""
    power = re.fullmatch(rf"(?:(\d+)·)?10([{SUPERSCRIPTS}]+)", text)
    if power is None:
        return float(text)
    exponent = int(power.group(2).translate(str.maketrans(SUPERSCRIPTS, "0123456789")))
    return float(power.group(1) or 1) * 10 ** exponent


# The README phrase that quotes each constant; the number is the group.
QUOTED_CONSTANTS = [
    (r"`dim\*\*3 >= ([\d.e]+) \+", spectra.LANCZOS_MIN_DIM3),
    (r"\+ (\d+) \* box \* n_modes", spectra.LANCZOS_DIM3_PER_MAC),
    (r"`(\d+) \* k <= dim`", spectra.LANCZOS_K_FACTOR),
    (r"`box <= ([\d.e]+)`", fockspace.MAX_BOX_STATES),
    (r"The box guard \(`([\d.e]+)` states", fockspace.MAX_BOX_STATES),
    (r"`MAX_TABLE_DIM` \((\d+)\)", fockspace.MAX_TABLE_DIM),
    (r"refuse more than (\d+) states", fockspace.MAX_BASIS_STATES),
    (r"`trunc.cap` <= (\d+), the factorial guard", fockspace.FACTORIAL_GUARD),
    (r"Occupations above (\d+) are refused", fockspace.FACTORIAL_GUARD),
    (rf"A sum above ([\d·{SUPERSCRIPTS}]+) multiply-adds", parity.MAX_CONVOLUTION_WORK),
    (rf"takes caps up to ([\d·{SUPERSCRIPTS}]+),", parity.MAX_SERIES_CAP),
]


def test_readme_quotes_the_solver_rule_and_guards_as_the_code_sets_them():
    text = " ".join(README.read_text().split())  # phrases may wrap
    for pattern, constant in QUOTED_CONSTANTS:
        found = re.findall(pattern, text)
        assert found, pattern
        assert [readme_number(number) for number in found] == [constant] * len(found), pattern


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
