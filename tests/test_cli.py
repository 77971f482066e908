"""Configuration loading, subcommand behavior, exit codes, and byte-stable
output."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from sbparity import BathLadder, bath_ladder, cli, critical_alpha, spectra
from sbparity.errors import ConfigError, ParameterError, SearchError
from sbparity.fockspace import MAX_BASIS_STATES

from conftest import bare_fock_ground_energy


# Integer literals written into a config file in place of their marker
# string, which keeps test ids short (json.dumps refuses an int past 4300
# digits).
LONG_LITERALS = {"<1 and 400 zeros>": "1" + "0" * 400, "<1 and 5000 zeros>": "1" + "0" * 5000}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    text = json.dumps(data)
    for marker, digits in LONG_LITERALS.items():
        text = text.replace(json.dumps(marker), digits)
    path.write_text(text)
    return str(path)


SINGLE_MODE_THEOREM = {
    "model": {"delta": 0.2, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
              "modes": [[1.0, 1.0]]},
    "trunc": {"policy": "per-mode", "cap": 40},
}

# Two modes at per-mode cap 30 (dim 961): above the Lanczos crossover.
MATRIX_FREE_THEOREM = {
    "model": {"delta": 0.2, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
              "modes": [[1.0, 0.6], [0.5, 0.3]]},
    "trunc": {"policy": "per-mode", "cap": 30},
    "solver": {"k_levels": 4},
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    path = write_config(tmp_path, {"model": {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2}})
    cfg = cli.load_config(path)
    assert cfg.delta == 0.1
    assert cfg.n_modes == 30
    assert cfg.lambda_disc == 2.0
    assert cfg.cap == 20
    assert cfg.tol == 1e-10
    assert cfg.epsilon == 0.01
    assert cfg.m_ref == 0
    assert cfg.policy is None


def test_negative_s_names_field_and_bound(tmp_path):
    path = write_config(tmp_path, {"model": {"delta": 0.1, "omega_c": 1, "s": -1, "alpha": 0.2}})
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    message = str(err.value)
    assert '"model.s"' in message
    assert "s > 0" in message


def test_duplicate_key_is_a_parse_error(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"model": {"delta": 0.1, "delta": 0.2, "omega_c": 1, "s": 1, "alpha": 0}}')
    with pytest.raises(ConfigError) as err:
        cli.load_config(str(path))
    assert "duplicate" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    path = write_config(
        tmp_path, {"model": {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2}, "bogus": 1}
    )
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    assert "bogus" in str(err.value)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"delta": 0.1,,}')
    with pytest.raises(ConfigError) as err:
        cli.load_config(str(path))
    assert "line 1" in str(err.value)


def test_missing_required_field(tmp_path):
    path = write_config(tmp_path, {"model": {"delta": 0.1, "omega_c": 1, "s": 1}})
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    assert "model.alpha" in str(err.value)


# Every configuration key fed its bad values through cli.main: the exact
# ConfigError message and exit code 1.
FULL_CONFIG = {
    "model": {"delta": 0.1, "omega_c": 1.0, "s": 0.5, "alpha": 0.1,
              "modes": [[2.0, 0.5], [1.0, 0.25]]},
    "disc": {"n_modes": 2, "lambda_disc": 2.0},
    "trunc": {"policy": "per-mode", "cap": 3},
    "solver": {"tol": 1e-10, "max_iter": 100, "k_levels": 1},
    "parity": {"epsilon": 0.01, "m_ref": [0, 0]},
    "sweep": {"variable": "s", "from": 0.5, "to": 1.0, "steps": 2},
}
# (field name, path into FULL_CONFIG, comparison, bound) of each number field.
NUMBER_FIELDS = [
    ("model.delta", ("model", "delta"), ">=", 0.0),
    ("model.omega_c", ("model", "omega_c"), ">", 0.0),
    ("model.s", ("model", "s"), ">", 0.0),
    ("model.alpha", ("model", "alpha"), ">=", 0.0),
    ("model.modes[0].omega", ("model", "modes", 0, 0), ">", 0.0),
    ("model.modes[1].lam", ("model", "modes", 1, 1), ">=", 0.0),
    ("disc.lambda_disc", ("disc", "lambda_disc"), ">", 1.0),
    ("solver.tol", ("solver", "tol"), ">", 0.0),
    ("parity.epsilon", ("parity", "epsilon"), ">", 0.0),
    ("sweep.from", ("sweep", "from"), ">", 0.0),
    ("sweep.to", ("sweep", "to"), ">", 0.0),
]
# (field name, path into FULL_CONFIG, lower bound) of each integer field.
INT_FIELDS = [
    ("disc.n_modes", ("disc", "n_modes"), 1),
    ("trunc.cap", ("trunc", "cap"), 0),
    ("solver.max_iter", ("solver", "max_iter"), 1),
    ("solver.k_levels", ("solver", "k_levels"), 1),
    ("parity.m_ref[1]", ("parity", "m_ref", 1), 0),
    ("sweep.steps", ("sweep", "steps"), 1),
]


def with_value(path, value):
    """A copy of FULL_CONFIG with ``value`` at ``path``."""
    config = json.loads(json.dumps(FULL_CONFIG))
    target = config
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    return config


def bad_value_cases():
    for name, path, op, low in NUMBER_FIELDS:
        key = name.split(".", 1)[1]
        for value in ("0.5", None, [1.0], True, False):
            yield name, path, value, f'field "{name}": expected a number, got {value!r}'
        # Infinity is legal for disc.lambda_disc only.
        for value in [math.nan, -math.inf] + [math.inf] * (key != "lambda_disc"):
            yield name, path, value, f'field "{name}": must be finite, got {value!r}'
        # An integer past the double range reads as inf, as the literal 1e400
        # does; it once escaped as an OverflowError.
        if key != "lambda_disc":
            yield name, path, "<1 and 400 zeros>", f'field "{name}": must be finite, got inf'
        for value in [low] * (op == ">") + [low - 0.5, int(low) - 1]:
            yield (name, path, value,
                   f'field "{name}": must satisfy {key} {op} {low}, got {float(value)!r}')
    for name, path, low in INT_FIELDS:
        key = name.split(".", 1)[1]
        for value in ("1", None, [1], True, False, 1.5, float(low + 1), math.nan, math.inf):
            yield name, path, value, f'field "{name}": expected an integer, got {value!r}'
        for value in (low - 1, low - 7):
            yield name, path, value, f'field "{name}": must satisfy {key} >= {low}, got {value}'
    for value in (cli.MAX_SWEEP_STEPS + 1, 10 ** 9):
        yield ("sweep.steps", ("sweep", "steps"), value,
               f'field "sweep.steps": must satisfy steps <= {cli.MAX_SWEEP_STEPS}, got {value}')
    path = ("parity", "epsilon")
    for value in (1.0, 1, 2.5, 1e300):
        yield ("parity.epsilon", path, value,
               f'field "parity.epsilon": must satisfy epsilon < 1, got {float(value)!r}')
    path = ("trunc", "policy")
    for value in ("per mode", "", 0, True, ["per-mode"]):
        yield ("trunc.policy", path, value,
               f'field "trunc.policy": must be "per-mode" or "total-quanta", got {value!r}')
    path = ("parity", "m_ref")
    for value in (True, False, 1.5, 2.0, "2", None, {"0": 2}, math.nan):
        yield ("parity.m_ref", path, value,
               'field "parity.m_ref": expected an integer or a list of integers')
    for value in (-1, -3):
        yield ("parity.m_ref", path, value,
               f'field "parity.m_ref": must satisfy m_ref >= 0, got {value}')
    path = ("model", "modes")
    for value in ([], "x", 5, {"0": [1.0, 1.0]}, True):
        yield ("model.modes", path, value,
               'field "model.modes": expected a non-empty list of [omega, lam] pairs')
    for value, i in (([[1.0]], 0), ([[1.0, 0.5, 0.5]], 0), ([1.0, 0.5], 0),
                     ([[2.0, 0.5], 1.0], 1), ([[2.0, 0.5], {"omega": 1.0, "lam": 0.5}], 1)):
        yield "model.modes", path, value, f'field "model.modes[{i}]": expected [omega, lam]'
    path = ("sweep", "variable")
    for value in ("t", "S", None, 1, ["s"]):
        yield ("sweep.variable", path, value,
               f'field "sweep.variable": only "s" sweeps are supported, got {value!r}')
    # Past Python's 4300-digit limit json.loads itself refuses the literal; this
    # once escaped as a bare ValueError.
    yield ("model.delta", ("model", "delta"), "<1 and 5000 zeros>",
           "parse error: Exceeds the limit (4300 digits) for integer string conversion: "
           "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit")


BAD_VALUE_CASES = list(bad_value_cases())


def without(section, key):
    return dict(FULL_CONFIG, **{section: {k: v for k, v in FULL_CONFIG[section].items()
                                          if k != key}})


def structural_cases():
    for key in ("delta", "omega_c", "s", "alpha"):
        yield without("model", key), f'field "model.{key}" is required'
    for key in ("variable", "from", "to", "steps"):
        yield without("sweep", key), f'field "sweep.{key}" is required when sweep is given'
    for section in ("model", "disc", "trunc", "solver", "parity", "sweep"):
        config = dict(FULL_CONFIG, **{section: dict(FULL_CONFIG[section], zeta=1, beta=2)})
        yield config, f"unknown key 'beta' in section {section!r}"
    # The model keys live under "model" only, and the output path in --out.
    for key in ("output", "n_modes", "cap", "epsilon", "zeta", "Model", "sweeps"):
        yield dict(FULL_CONFIG, **{key: 1}), f"unknown key {key!r}"
    for key in ("delta", "omega_c", "s", "alpha", "modes"):
        yield dict(FULL_CONFIG, **{key: FULL_CONFIG["model"][key]}), f"unknown key {key!r}"
    for value in (5, "s", [1], True, 0.5):
        yield dict(FULL_CONFIG, sweep=value), 'field "sweep": expected an object'
    for value in (5, "s", [1], True, {"path": "curve.csv"}):
        yield dict(FULL_CONFIG, output=value), "unknown key 'output'"
    for lo, hi in ((1.0, 0.5), (0.5, 0.49999999999999994), (1, 0.75)):
        yield (dict(FULL_CONFIG, sweep=dict(FULL_CONFIG["sweep"], **{"from": lo, "to": hi})),
               'field "sweep.to": must satisfy to >= from')
    for value in ([1], "config", 3, None):
        yield value, "top-level configuration must be a JSON object"
    # Several errors at once: the first in section order, then the unknown-key
    # check, then the required check, then key order, is the one reported.
    model = without("model", "alpha")["model"]
    yield {**FULL_CONFIG, "zeta": 1, "delta": 0.2}, "unknown key 'delta'"
    yield ({**FULL_CONFIG, "zeta": 1, "model": dict(model, delta=-1.0, x=1)},
           "unknown key 'zeta'")
    yield dict(FULL_CONFIG, model=dict(model, delta=-1.0, x=1)), "unknown key 'x' in section 'model'"
    yield dict(FULL_CONFIG, model=dict(model, delta=-1.0)), 'field "model.alpha" is required'
    yield (dict(FULL_CONFIG, model=dict(FULL_CONFIG["model"], s=0.0, omega_c=0.0)),
           'field "model.omega_c": must satisfy omega_c > 0.0, got 0.0')
    yield (dict(FULL_CONFIG, model=dict(FULL_CONFIG["model"], modes=[]), disc={"n_modes": 0}),
           'field "model.modes": expected a non-empty list of [omega, lam] pairs')
    yield (dict(FULL_CONFIG, model=dict(FULL_CONFIG["model"], alpha=-1.0, modes=[])),
           'field "model.alpha": must satisfy alpha >= 0.0, got -1.0')
    yield (dict(FULL_CONFIG, disc={"lambda_disc": 0.5, "n_modes": 0}),
           'field "disc.n_modes": must satisfy n_modes >= 1, got 0')
    yield (dict(FULL_CONFIG, disc={"lambda_disc": 0.5, "bogus": 0}),
           "unknown key 'bogus' in section 'disc'")
    yield (dict(FULL_CONFIG, trunc={"cap": -1, "policy": "x"}),
           'field "trunc.policy": must be "per-mode" or "total-quanta", got \'x\'')
    yield (dict(FULL_CONFIG, solver={"k_levels": 0, "tol": 0.0}, disc={"n_modes": 0}),
           'field "disc.n_modes": must satisfy n_modes >= 1, got 0')
    yield (dict(FULL_CONFIG, solver={"k_levels": 0, "max_iter": 0, "tol": 0.0}),
           'field "solver.tol": must satisfy tol > 0.0, got 0.0')
    yield (dict(FULL_CONFIG, solver={"k_levels": 0, "max_iter": 0}),
           'field "solver.max_iter": must satisfy max_iter >= 1, got 0')
    yield (dict(FULL_CONFIG, parity={"m_ref": -1, "epsilon": 1.0}),
           'field "parity.epsilon": must satisfy epsilon < 1, got 1.0')
    yield (dict(FULL_CONFIG, parity={"m_ref": -1}, trunc={"cap": -1}),
           'field "trunc.cap": must satisfy cap >= 0, got -1')
    yield (dict(FULL_CONFIG, sweep=5, parity={"epsilon": 0.0}),
           'field "parity.epsilon": must satisfy epsilon > 0.0, got 0.0')
    yield (dict(FULL_CONFIG, sweep={"from": 0.5, "bogus": 1}),
           "unknown key 'bogus' in section 'sweep'")
    yield (dict(FULL_CONFIG, sweep={"variable": "t", "from": 0.5}),
           'field "sweep.to" is required when sweep is given')
    yield (dict(FULL_CONFIG, sweep={"steps": 0, "to": 0.1, "from": 0.5, "variable": "t"}),
           'field "sweep.variable": only "s" sweeps are supported, got \'t\'')
    yield (dict(FULL_CONFIG, sweep={"steps": 0, "to": 0.1, "from": 0.5, "variable": "s"}),
           'field "sweep.steps": must satisfy steps >= 1, got 0')
    yield (dict(FULL_CONFIG, sweep={"steps": 1.5, "to": 0.0, "from": 0.5, "variable": "s"}),
           'field "sweep.to": must satisfy to > 0.0, got 0.0')
    yield (dict(FULL_CONFIG, sweep={"steps": 2, "to": 0.1, "from": 0.5, "variable": "s"}),
           'field "sweep.to": must satisfy to >= from')
    yield (dict(FULL_CONFIG, output={"path": "", "zeta": 1, "beta": 1}, sweep=[]),
           "unknown key 'output'")
    yield dict(FULL_CONFIG, sweep=[]), 'field "sweep": expected an object'
    yield (dict(FULL_CONFIG, sweep={"steps": 10 ** 9, "to": 0.0, "from": 0.5, "variable": "s"}),
           'field "sweep.to": must satisfy to > 0.0, got 0.0')
    yield (dict(FULL_CONFIG, sweep={"steps": 10 ** 9, "to": 0.1, "from": 0.5, "variable": "s"}),
           f'field "sweep.steps": must satisfy steps <= {cli.MAX_SWEEP_STEPS}, got 1000000000')


STRUCTURAL_CASES = list(structural_cases())


def assert_config_error(tmp_path, capsys, config, message):
    path = write_config(tmp_path, config)
    code = cli.main(["theorem", "--config", path])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out) == {"error": {"type": "ConfigError", "message": message}}


@pytest.mark.parametrize("path, value, message", [case[1:] for case in BAD_VALUE_CASES],
                         ids=[f"{name}={value!r}" for name, _, value, _ in BAD_VALUE_CASES])
def test_every_key_rejects_its_bad_values(tmp_path, capsys, path, value, message):
    assert_config_error(tmp_path, capsys, with_value(path, value), message)


@pytest.mark.parametrize("config, message", STRUCTURAL_CASES,
                         ids=[f"{i}-{message}" for i, (_, message) in enumerate(STRUCTURAL_CASES)])
def test_structural_config_errors_and_which_comes_first(tmp_path, capsys, config, message):
    assert_config_error(tmp_path, capsys, config, message)


@pytest.mark.parametrize("value", [5, "model", [["n_modes", 2]], True])
@pytest.mark.parametrize("section", ["model", "disc", "trunc", "solver", "parity"])
def test_a_section_that_is_not_an_object_exits_1(tmp_path, capsys, section, value):
    # Such a section once escaped as a bare TypeError or ValueError, and a
    # list of pairs was read as an object.
    assert_config_error(tmp_path, capsys, dict(FULL_CONFIG, **{section: value}),
                        f'field "{section}": expected an object')


def test_a_null_section_takes_its_defaults(tmp_path):
    model = {"model": {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2}}
    config = {**model, **dict.fromkeys(["disc", "trunc", "solver", "parity", "sweep"])}
    cfg = cli.load_config(write_config(tmp_path, config))
    assert cfg == cli.load_config(write_config(tmp_path, model))
    assert (cfg.n_modes, cfg.cap, cfg.epsilon, cfg.sweep) == (30, 20, 0.01, None)

@pytest.mark.parametrize("path, value", [
    (("model", "delta"), 0), (("model", "alpha"), 0.0), (("model", "modes", 1, 1), 0),
    (("model", "modes"), None), (("disc", "n_modes"), 1), (("disc", "lambda_disc"), math.inf),
    (("trunc", "policy"), None), (("trunc", "policy"), "total-quanta"), (("trunc", "cap"), 0),
    (("solver", "max_iter"), 1), (("solver", "k_levels"), 1), (("parity", "m_ref"), 0),
    (("parity", "m_ref", 1), 0), (("sweep", "to"), 0.5), (("sweep", "steps"), 1),
    (("sweep",), None),
    (("sweep", "steps"), cli.MAX_SWEEP_STEPS),
])
def test_values_on_a_closed_bound_are_accepted(tmp_path, path, value):
    cli.load_config(write_config(tmp_path, with_value(path, value)))


def config_echo(text):
    """The bytes of a JSON report's config echo."""
    return text.split('"config": ', 1)[1].split(', "versions": ', 1)[0]


def test_config_echo_bytes_of_a_full_config(tmp_path, capsys):
    # Explicit modes, a list m_ref and sweep (echoed as given), with
    # integer-valued floats.
    report = tmp_path / "report.json"
    config = {
        "model": {"delta": 0.25, "omega_c": 2, "s": 1, "alpha": 0,
                  "modes": [[2, 0.5], [1, 0.25]]},
        "disc": {"n_modes": 7, "lambda_disc": 3},
        "trunc": {"policy": "per-mode", "cap": 3},
        "solver": {"tol": 1e-9, "max_iter": 50, "k_levels": 2},
        "parity": {"epsilon": 0.5, "m_ref": [0, 2]},
        "sweep": {"steps": 3, "to": 12345678901234567890, "from": 1, "variable": "s"},
    }
    assert cli.main(["theorem", "--config", write_config(tmp_path, config),
                     "--out", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert config_echo(report.read_text()) == (
        '{"model": {"delta": 0.25, "omega_c": 2, "s": 1, "alpha": 0, '
        '"modes": [[2, 0.5], [1, 0.25]]}, "disc": {"n_modes": 2, "lambda_disc": null}, '
        '"trunc": {"policy": "per-mode", "cap": 3}, '
        '"solver": {"tol": 1.0000000000000001e-09, "max_iter": 50, "k_levels": 2}, '
        '"parity": {"epsilon": 0.5, "m_ref": [0, 2]}, '
        '"sweep": {"steps": 3, "to": 12345678901234567890, "from": 1, "variable": "s"}}'
    )


def test_config_echo_bytes_of_the_defaults(tmp_path, capsys):
    config = {"model": {"delta": 0, "omega_c": 2, "s": 0.5, "alpha": 1},
              "disc": {"n_modes": 3, "lambda_disc": math.inf}}
    assert cli.main(["closure", "--config", write_config(tmp_path, config)]) == 0
    assert config_echo(capsys.readouterr().out) == (
        '{"model": {"delta": 0, "omega_c": 2, "s": 0.5, "alpha": 1}, '
        '"disc": {"n_modes": 3, "lambda_disc": "inf"}, "trunc": {"policy": null, "cap": 20}, '
        '"solver": {"tol": 1e-10, "max_iter": 10000, "k_levels": 1}, '
        '"parity": {"epsilon": 0.01, "m_ref": 0}}'
    )


# Each value has one home: epsilon in parity.epsilon, the output path in --out
# and the model keys under "model".  Any other place is refused by the errors
# every unknown flag or key gets.
REMOVED_INPUTS = {
    "alpha-c --epsilon": (["alpha-c", "--epsilon", "0.05"], {}, None),
    "phase-diagram --epsilon": (["phase-diagram", "--epsilon", "0.05"], {}, None),
    "output.path": (["alpha-c"], {"output": {"path": "curve.csv"}}, "unknown key 'output'"),
    "top-level delta": (["alpha-c"], {"delta": 0.1, "model": {"omega_c": 1.0, "s": 1.0,
                                                              "alpha": 0.1}},
                        "unknown key 'delta'"),
}


@pytest.mark.parametrize("argv, extra, message", REMOVED_INPUTS.values(), ids=REMOVED_INPUTS)
def test_a_value_given_outside_its_one_home_exits_1(tmp_path, capsys, monkeypatch, argv, extra,
                                                     message):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, dict(PHASE_CONFIG, **extra))
    code = cli.main(argv[:1] + ["--config", path, "--out", "out.csv"] + argv[1:])
    out, err = capsys.readouterr()
    assert code == 1
    if message is None:  # argparse's usage error
        assert (out, err.splitlines()[-1]) == (
            "", "sbparity: error: unrecognized arguments: --epsilon 0.05")
    else:
        assert (json.loads(out), err) == ({"error": {"type": "ConfigError",
                                                     "message": message}}, "")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


# ---------------------------------------------------------------------------
# theorem
# ---------------------------------------------------------------------------

def test_theorem_degenerate_at_zero_delta(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.0, "omega_c": 1.0, "s": 1.0, "alpha": 0.2},
            "disc": {"n_modes": 1, "lambda_disc": 2.0},
            "trunc": {"cap": 10},
        },
    )
    code = cli.main(["theorem", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "degenerate-at-delta-zero"
    assert report["config"]["model"]["delta"] == 0


def test_theorem_decoupled_limit(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.4, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                      "modes": [[1.0, 0.0]]},
            "trunc": {"cap": 6},
        },
    )
    code = cli.main(["theorem", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["e_gs"] == pytest.approx(-0.2, abs=1e-12)
    assert report["margin"] == pytest.approx(0.2, abs=1e-12)
    assert report["measured_gap"] == pytest.approx(0.4, abs=1e-12)


def test_theorem_single_mode_against_oracle(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_MODE_THEOREM)
    code = cli.main(["theorem", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "strictly-below"
    oracle = -0.25 - bare_fock_ground_energy(1.0, 1.0, 0.2, 200)
    assert report["margin"] == pytest.approx(oracle, abs=1e-8)
    assert report["versions"]["sbparity"]


@pytest.mark.parametrize("lam, cap", [(4.0, 60), (6.0, 120)])
def test_theorem_strong_coupling_against_bare_basis(tmp_path, capsys, lam, cap):
    # q = 2 at cap 60 is the configuration that once printed e_gs = -4519.63.
    path = write_config(
        tmp_path,
        {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                   "modes": [[1.0, lam]]},
         "trunc": {"cap": cap}},
    )
    code = cli.main(["theorem", "--config", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    oracle = bare_fock_ground_energy(1.0, lam, 0.1, 250)
    assert report["e_gs"] == pytest.approx(oracle, abs=1e-9)
    assert report["verdict"] == "strictly-below"


def test_theorem_json_round_trips_bytes(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_MODE_THEOREM)
    cli.main(["theorem", "--config", path])
    out = capsys.readouterr().out
    assert cli.dumps(json.loads(out)) == out


def test_theorem_solver_failure_exits_3(tmp_path, capsys):
    config = {
        "model": SINGLE_MODE_THEOREM["model"],
        "trunc": SINGLE_MODE_THEOREM["trunc"],
        "solver": {"tol": 1e-30},
    }
    path = write_config(tmp_path, config)
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["error"]["type"] == "SolverError"


def test_theorem_writes_out_file(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_MODE_THEOREM)
    out_file = tmp_path / "report.json"
    code = cli.main(["theorem", "--config", path, "--out", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_file.read_text())["verdict"] == "strictly-below"


def test_unwritable_output_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    argv = ["theorem", "--out", str(target), "--config", write_config(tmp_path, SINGLE_MODE_THEOREM)]
    code = cli.main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"
    assert f"cannot write output {target}" in out["error"]["message"]
    # The same path in an existing directory is written.
    target.parent.mkdir()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["verdict"] == "strictly-below"


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_zero_delta_matches_ladder(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.0, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                      "modes": [[1.0, 1.0]]},
            "trunc": {"cap": 4},
            "solver": {"k_levels": 5},
        },
    )
    code = cli.main(["spectrum", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    ladder = [n - 0.25 for n in range(5)]
    assert out["plus"]["values"] == pytest.approx(ladder, abs=1e-12)
    assert out["minus"]["values"] == pytest.approx(ladder, abs=1e-12)
    assert out["degenerate_energy_set"] == pytest.approx(ladder, abs=1e-15)
    assert len(out["plus"]["vectors"]) == 5


def test_spectrum_dump_matrix(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.3, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                      "modes": [[1.0, 1.0]]},
            "trunc": {"cap": 2},
        },
    )
    prefix = str(tmp_path / "mat")
    code = cli.main(["spectrum", "--config", path, "--dump-matrix", prefix])
    capsys.readouterr()
    assert code == 0
    for name in ("hplus", "hminus"):
        lines = (tmp_path / f"mat_{name}.csv").read_text().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 1 + 6  # lower triangle of a 3x3 matrix


# Two modes at per-mode cap 8 (dim 81): the dense path.
DENSE_PATH_SPECTRUM = {
    "model": {"delta": 0.3, "omega_c": 1.0, "s": 0.6, "alpha": 0.2},
    "disc": {"n_modes": 2, "lambda_disc": 2.0},
    "trunc": {"policy": "per-mode", "cap": 8},
    "solver": {"k_levels": 4},
}

# 4 modes at total-quanta cap 10 (dim 1001): Lanczos, on the trimmed product.
TRIMMED_PRODUCT_THEOREM = {
    "model": {"delta": 0.3, "omega_c": 1.0, "s": 0.6, "alpha": 0.2},
    "disc": {"n_modes": 4, "lambda_disc": 2.0},
    "trunc": {"policy": "total-quanta", "cap": 10},
}


def test_spectrum_dump_matrix_and_solve_share_one_parity(tmp_path, capsys, monkeypatch):
    # The dumps and the dense solve read the model's one D: each mode's table
    # is built once and D is gathered once.
    from sbparity import fockspace, spectra

    calls = {"_gather": 0, "single_mode_d_table": 0}

    def counted(name):
        original = getattr(fockspace, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(fockspace, name, wrapper)

    for name in calls:
        counted(name)
    path = write_config(tmp_path, DENSE_PATH_SPECTRUM)
    prefix = str(tmp_path / "mat")
    assert cli.main(["spectrum", "--config", path, "--dump-matrix", prefix]) == 0
    capsys.readouterr()
    assert calls == {"_gather": 1, "single_mode_d_table": 2}

    params = cli._model_params(cli.load_config(path))
    assert not spectra.use_lanczos(params.basis, 4)
    for name, branch in zip(("plus", "minus"), params.branches):
        expected = branch.dense()
        with open(tmp_path / f"mat_h{name}.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert len(rows) == params.basis.dim * (params.basis.dim + 1) // 2
        dumped = np.zeros_like(expected)
        for i, j, value in rows:
            dumped[int(i), int(j)] = float(value)
        # 17 significant digits parse back to the same double.
        assert np.array_equal(dumped, np.tril(expected))


@pytest.mark.parametrize("config, argv", [
    (DENSE_PATH_SPECTRUM, ["theorem"]),
    (MATRIX_FREE_THEOREM, ["theorem"]),
    (TRIMMED_PRODUCT_THEOREM, ["theorem"]),
    (DENSE_PATH_SPECTRUM, ["spectrum", "--dump-matrix", "mat"]),
], ids=["theorem-dense", "theorem-lanczos", "theorem-lanczos-trimmed", "spectrum-dump-matrix"])
def test_one_op_builds_h0_and_each_mode_table_once(tmp_path, capsys, monkeypatch, config, argv):
    # The solve, the verdict's energy scale, the degenerate set and the dumps
    # all read the model's one H0 and its one D, so an op builds H0 once,
    # each mode's table once, and the product's index plan once if it runs
    # a product: read-only arrays on the trimmed 4-mode basis, None on the
    # per-mode box.
    from sbparity import KroneckerParity, ModelParams, fockspace

    calls = {"h0": 0, "single_mode_d_table": 0}
    plans = []  # what each build of the product's index plan returned
    cached_h0 = vars(ModelParams)["h0"]  # the cached properties, whose builders are counted
    cached_ends = vars(KroneckerParity)["_ends"]
    build_h0, build_table, build_ends = (cached_h0.func, fockspace.single_mode_d_table,
                                         cached_ends.func)

    def h0(self):
        calls["h0"] += 1
        return build_h0(self)

    def table(*args):
        calls["single_mode_d_table"] += 1
        return build_table(*args)

    def ends(self):
        plans.append(build_ends(self))
        return plans[-1]

    monkeypatch.setattr(cached_h0, "func", h0)
    monkeypatch.setattr(cached_ends, "func", ends)
    monkeypatch.setattr(fockspace, "single_mode_d_table", table)
    path = write_config(tmp_path, config)
    argv = [argv[0], "--config", path] + [
        str(tmp_path / arg) if arg == "mat" else arg for arg in argv[1:]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    basis = cli._model_params(cli.load_config(path)).basis
    lanczos = spectra.use_lanczos(basis, 1)
    assert calls == {"h0": 1, "single_mode_d_table": basis.n_modes}
    assert len(plans) == int(lanczos)
    if config is TRIMMED_PRODUCT_THEOREM:
        assert lanczos and all(not array.flags.writeable for array in plans[0])
    else:
        assert plans in ([], [None])


# ---------------------------------------------------------------------------
# parity-audit
# ---------------------------------------------------------------------------

def test_parity_audit_zero_coupling(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.0},
            "disc": {"n_modes": 2, "lambda_disc": 2.0},
            "trunc": {"cap": 3},
        },
    )
    code = cli.main(["parity-audit", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["deficiency"] == 0
    assert all(v == 0 for v in out["d2_diag_residuals"])
    assert out["m"] == [0, 0]
    assert out["n_tr"] == 3


def test_parity_audit_dump_tables(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                      "modes": [[1.0, 1.0]]},
            "trunc": {"cap": 1},
        },
    )
    prefix = str(tmp_path / "tab")
    code = cli.main(["parity-audit", "--config", path, "--dump-tables", prefix])
    capsys.readouterr()
    assert code == 0
    l_lines = (tmp_path / "tab_l.csv").read_text().splitlines()
    d_lines = (tmp_path / "tab_d.csv").read_text().splitlines()
    assert l_lines[0] == "row,col,value"
    assert d_lines[0] == "row,col,value"
    # D = exp(-2 q^2) * L entry by entry.
    for l_row, d_row in zip(l_lines[1:], d_lines[1:]):
        li, lj, lv = l_row.split(",")
        di, dj, dv = d_row.split(",")
        assert (li, lj) == (di, dj)
        assert float(dv) == pytest.approx(math.exp(-0.5) * float(lv), rel=1e-12)


# ---------------------------------------------------------------------------
# alpha-c and closure
# ---------------------------------------------------------------------------

def test_alpha_c_command(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.1, "omega_c": 1.0, "s": 0.5, "alpha": 0.1},
            "disc": {"n_modes": 10, "lambda_disc": 2.0},
            "trunc": {"cap": 10},
        },
    )
    code = cli.main(["alpha-c", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["alpha_c"] > 0.0
    assert out["epsilon"] == 0.01
    assert out["n_tr"] == 10
    assert out["m_ref"] == [0] * 10


def test_alpha_c_epsilon_override(tmp_path, capsys):
    base = {
        "model": {"delta": 0.1, "omega_c": 1.0, "s": 0.5, "alpha": 0.1},
        "disc": {"n_modes": 10, "lambda_disc": 2.0},
        "trunc": {"cap": 10},
    }
    cli.main(["alpha-c", "--config", write_config(tmp_path, base)])
    small = json.loads(capsys.readouterr().out)
    cli.main(["alpha-c", "--config", write_config(tmp_path, dict(base, parity={"epsilon": 0.05}))])
    large = json.loads(capsys.readouterr().out)
    assert large["epsilon"] == 0.05
    assert large["alpha_c"] > small["alpha_c"]


def test_alpha_c_refuses_an_epsilon_below_float_resolution(tmp_path, capsys):
    # At epsilon = 1e-12 the deficiency cannot be resolved to 1e-6 relative;
    # a fixed 1e-10 tolerance once printed alpha_c = 1 here with exit 0.
    path = write_config(tmp_path, {
        "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
        "parity": {"epsilon": 1e-12, "m_ref": 2},
    })
    code = cli.main(["alpha-c", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 4
    assert out["error"]["type"] == "SearchError"


def test_integer_m_ref_excites_the_highest_frequency_mode(tmp_path, capsys):
    # The shorthand k puts k quanta on mode 0, the highest-frequency mode.
    # Below s = 1 that mode has the smallest q, so m_ref 2 leaves alpha_c
    # where the vacuum puts it; the same quanta on the lowest-frequency mode
    # move it.
    def alpha_c(m_ref):
        config = {"model": {"delta": 0.1, "omega_c": 1.0, "s": 0.5, "alpha": 0.1},
                  "disc": {"n_modes": 30}, "trunc": {"cap": 20},
                  "parity": {"epsilon": 0.01, "m_ref": m_ref}}
        assert cli.main(["alpha-c", "--config", write_config(tmp_path, config)]) == 0
        return json.loads(capsys.readouterr().out)["alpha_c"]

    assert alpha_c(0) == alpha_c(2) == alpha_c([2] + [0] * 29) == 3.451091629358416e-4
    assert alpha_c([0] * 29 + [2]) == 2.1775187087769154e-4

def test_closure_command(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
            "disc": {"n_modes": 100, "lambda_disc": 2.0},
            "trunc": {"cap": 9},
        },
    )
    code = cli.main(["closure", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ratio_value"] == 10.0
    assert out["ratio"] == "10/1"
    assert out["unknowns_discarded"] == 100 * 10 ** 99
    assert out["independent_equations"] == 10 ** 100


def test_closure_refuses_total_quanta_policy(tmp_path, capsys):
    # The closure counts are those of the per-mode bare basis.
    config = {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
              "disc": {"n_modes": 3, "lambda_disc": 2.0},
              "trunc": {"policy": "total-quanta", "cap": 4}}
    code = cli.main(["closure", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"
    assert "trunc.policy" in out["error"]["message"]
    config["trunc"]["policy"] = "per-mode"
    assert cli.main(["closure", "--config", write_config(tmp_path, config)]) == 0
    assert json.loads(capsys.readouterr().out)["ratio"] == "3/5"


def closure_config(n_modes, cap):
    return {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
            "disc": {"n_modes": n_modes, "lambda_disc": 2.0}, "trunc": {"cap": cap}}


@pytest.mark.parametrize("n_modes, cap", [
    ("<1 and 400 zeros>", 20),  # a power of ~1.8e400 bits, never formed
    (4000, 20),  # counts of 5289 digits, past Python's int-to-str limit
    ("<1 and 400 zeros>", 0),  # a ratio of 1e400, past the double range
    (4298, 9),  # unknowns_discarded 4298 * 10**4297: one digit too many
    (2 ** 1024, 0),  # a ratio one past the double range
])
def test_closure_refuses_counts_it_cannot_print(tmp_path, capsys, n_modes, cap):
    path = write_config(tmp_path, closure_config(n_modes, cap))
    start = time.perf_counter()
    code = cli.main(["closure", "--config", path])
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"
    assert "disc.n_modes" in out["error"]["message"]
    assert "trunc.cap" in out["error"]["message"]


@pytest.mark.parametrize("n_modes, cap", [
    (3000, 20),
    (4297, 9),  # unknowns_discarded 4297 * 10**4296: 4300 digits, the limit
    (int(sys.float_info.max), 0),  # the largest double as the ratio
])
def test_closure_prints_counts_up_to_the_limits(tmp_path, capsys, n_modes, cap):
    path = write_config(tmp_path, closure_config(n_modes, cap))
    assert cli.main(["closure", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["unknowns_discarded"] == n_modes * (cap + 1) ** (n_modes - 1)
    assert out["independent_equations"] == (cap + 1) ** n_modes
    assert out["ratio_value"] == n_modes / (cap + 1)


TOTAL_QUANTA_ALPHA_C = {
    "model": {"delta": 0.1, "omega_c": 1.0, "s": 0.8, "alpha": 0.1},
    "disc": {"n_modes": 3, "lambda_disc": 2.0},
    "trunc": {"policy": "total-quanta", "cap": 6},
    "parity": {"epsilon": 0.01},
    "sweep": {"variable": "s", "from": 0.8, "to": 0.8, "steps": 1},
}


@pytest.mark.parametrize("command", ["alpha-c", "phase-diagram"])
def test_alpha_c_commands_honour_truncation_policy(tmp_path, capsys, command):
    path = write_config(tmp_path, TOTAL_QUANTA_ALPHA_C)
    code = cli.main([command, "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    ladder = bath_ladder(0.8, 1.0, 3, 2.0)
    expected = critical_alpha(ladder, n_tr=6, epsilon=0.01, policy="total-quanta").alpha_c
    per_mode = critical_alpha(ladder, n_tr=6, epsilon=0.01).alpha_c
    assert abs(expected - per_mode) > 0.5
    if command == "alpha-c":
        assert json.loads(out)["alpha_c"] == expected
    else:
        assert out.splitlines()[1].split(",")[1] == cli.format_float(expected)


def test_phase_diagram_total_quanta_at_default_size_meets_incomplete_gamma(tmp_path, capsys):
    # 30 modes at total-quanta cap 20 (~4.7e13 states) sum by convolution.
    # At the vacuum reference 1 - deficiency = Q(cap + 1, 4 * sum_q2), and
    # 4 * sum_q2 = 2 * beta * alpha.
    config = dict(PHASE_CONFIG, trunc={"policy": "total-quanta", "cap": 20})
    config["disc"] = {"n_modes": 30, "lambda_disc": 2.0}
    out_path = tmp_path / "curve.csv"
    code = cli.main(["phase-diagram", "--config", write_config(tmp_path, config),
                     "--out", str(out_path)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert len(rows) == 4
    for row in rows:
        mu = 2.0 * float(row["beta"]) * float(row["alpha_c"])
        assert abs(1.0 - gammaincc(21, mu) - float(row["epsilon"])) <= 1e-9


@pytest.mark.parametrize("command", ["alpha-c", "phase-diagram"])
def test_total_quanta_beyond_work_guard_exits_1_before_any_row(tmp_path, capsys, command):
    config = dict(PHASE_CONFIG, trunc={"policy": "total-quanta", "cap": 100_000})
    config["disc"] = {"n_modes": 30, "lambda_disc": 2.0}
    out_path = tmp_path / "out"
    start = time.perf_counter()
    code = cli.main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out_path)])
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "CapacityError"
    assert "disc.n_modes" in out["error"]["message"]
    assert "trunc.cap" in out["error"]["message"]
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["alpha-c", "phase-diagram"])
def test_reference_occupation_outside_basis_exits_1(tmp_path, capsys, command):
    config = dict(PHASE_CONFIG, trunc={"cap": 2}, parity={"m_ref": 3})
    config["disc"] = {"n_modes": 2, "lambda_disc": 2.0}
    code = cli.main([command, "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ParameterError"
    assert "parity.m_ref" in out["error"]["message"]
    assert "trunc.cap" in out["error"]["message"]
    config["parity"] = {"m_ref": 1}
    assert cli.main([command, "--config", write_config(tmp_path, config)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("policy", ["per-mode", "total-quanta"])
@pytest.mark.parametrize("command", ["alpha-c", "phase-diagram"])
def test_excited_reference_above_factorial_guard_exits_1(tmp_path, capsys, command, policy):
    # An excited reference runs a Laguerre row, which stops at occupation 170.
    config = dict(PHASE_CONFIG, trunc={"policy": policy, "cap": 200}, parity={"m_ref": 1})
    config["disc"] = {"n_modes": 5, "lambda_disc": 2.0}
    out_path = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ParameterError"
    for name in ("trunc.cap", "parity.m_ref", "170"):
        assert name in out["error"]["message"]
    assert not out_path.exists()
    config["parity"] = {"m_ref": 0}
    assert cli.main([command, "--config", write_config(tmp_path, config)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["alpha-c", "phase-diagram", "theorem"])
def test_omega_c_overflowing_the_bin_weights_exits_1(tmp_path, capsys, command):
    # omega_c**(s + 1) = 1e450 does not fit in a double.
    config = dict(PHASE_CONFIG, model={"delta": 0.1, "omega_c": 1e300, "s": 0.5, "alpha": 0.1})
    config["disc"] = {"n_modes": 3, "lambda_disc": 2.0}
    out_path = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ParameterError"
    assert "model.omega_c" in out["error"]["message"]
    assert "model.s" in out["error"]["message"]
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["alpha-c", "theorem"])
def test_a_mode_frequency_past_half_the_double_range_exits_1_quietly(tmp_path, capsys, command):
    # 2 * omega_k overflows; numpy's warning once reached stderr before the error.
    config = {"model": {"delta": 0.1, "omega_c": 1.7e308, "s": 1e-6, "alpha": 0.2},
              "disc": {"n_modes": 1, "lambda_disc": 1.0001}}
    code = cli.main([command, "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out) == {"error": {
        "type": "ParameterError", "message": "mode coupling must be >= 0, got inf"}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, expected", [
    ("theorem", {"e_gs": -0.05, "e_min_eo": 0.0}),
    ("spectrum", {"plus": -0.05, "minus": 0.05}),
    ("parity-audit", {"deficiency": 0.0, "o_value": 1.0}),
])
def test_alpha_0_runs_on_a_ladder_that_overflows_at_alpha_1(tmp_path, capsys, command,
                                                           expected):
    # At alpha = 1 the squared couplings, ~omega_c**(1-s) * omega_c**(s+1), are
    # 1e400.  The bath at alpha = 0 once rescaled the ladder to alpha = 1 for a
    # beta no command prints, and exited 1 with "mode coupling must be >= 0,
    # got inf"; it is the decoupled bath.
    config = {"model": {"delta": 0.1, "omega_c": 1e200, "s": 0.5, "alpha": 0.0},
              "disc": {"n_modes": 2, "lambda_disc": 2.0},
              "trunc": {"policy": "per-mode", "cap": 4}}
    code = cli.main([command, "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    out = json.loads(captured.out)
    if command == "spectrum":
        out = {branch: out[branch]["values"][0] for branch in ("plus", "minus")}
    assert {key: out[key] for key in expected} == expected


# ---------------------------------------------------------------------------
# phase-diagram
# ---------------------------------------------------------------------------

PHASE_CONFIG = {
    "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
    "disc": {"n_modes": 10, "lambda_disc": 2.0},
    "trunc": {"cap": 10},
    "sweep": {"variable": "s", "from": 0.4, "to": 1.0, "steps": 4},
}


@pytest.mark.parametrize("command", ["alpha-c", "phase-diagram", "closure"])
def test_discretizing_commands_reject_explicit_modes(tmp_path, capsys, command):
    # These commands build their baths from the spectral law; explicit modes
    # would be ignored while the echo listed them.
    config = dict(PHASE_CONFIG)
    config["model"] = dict(PHASE_CONFIG["model"], modes=[[1.0, 0.5]])
    path = write_config(tmp_path, config)
    code = cli.main([command, "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"
    assert "disc.n_modes" in out["error"]["message"]
    assert '"model.modes" is not accepted' in out["error"]["message"]


def test_phase_diagram_refuses_more_sweep_points_than_it_can_hold(tmp_path, capsys):
    # Every point's bath ladder is built before the first search: 1e9 steps
    # once ran out of memory (a bare MemoryError under a 1 GB address-space cap).
    config = dict(PHASE_CONFIG, sweep=dict(PHASE_CONFIG["sweep"], steps=10 ** 9))
    path = write_config(tmp_path, config)
    out = tmp_path / "curve.csv"
    assert cli.main(["phase-diagram", "--config", path, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {
        "type": "ConfigError",
        "message": f'field "sweep.steps": must satisfy steps <= {cli.MAX_SWEEP_STEPS}, '
                   f'got 1000000000'}}
    assert not out.exists()


def test_phase_diagram_runs_and_repeats_byte_identically(tmp_path, capsys):
    path = write_config(tmp_path, PHASE_CONFIG)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["phase-diagram", "--config", path, "--out", str(out_a)]) == 0
    assert cli.main(["phase-diagram", "--config", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "s,alpha_c,epsilon,n_tr,n_modes,lambda_disc,beta,o_value,m_ref"
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) > 0.0
        assert cells[8] == "0"
    assert not out_a.read_text().endswith("\r\n")


def test_phase_diagram_reference_column(tmp_path, capsys):
    path = write_config(tmp_path, PHASE_CONFIG)
    ref = tmp_path / "ref.csv"
    ref.write_text("s,alpha_c,label\n0.5,0.1,qmc\n1.0,0.3,qmc\n")
    out = tmp_path / "with_ref.csv"
    code = cli.main(
        ["phase-diagram", "--config", path, "--reference", str(ref), "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",alpha_c_ref")
    first = lines[1].split(",")   # s = 0.4 lies outside the reference range
    assert first[-1] == "NaN"
    last = lines[-1].split(",")   # s = 1.0 hits the reference node exactly
    assert float(last[-1]) == pytest.approx(0.3)
    mid = lines[2].split(",")     # s = 0.6 interpolates linearly
    assert float(mid[-1]) == pytest.approx(0.1 + (0.6 - 0.5) / 0.5 * 0.2)


def test_phase_diagram_unbracketable_point_gives_nan_and_exit_4(tmp_path, capsys):
    config = {
        "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
        "disc": {"n_modes": 1, "lambda_disc": 2.0},
        "trunc": {"cap": 40000},
        "parity": {"epsilon": 0.5},
        "sweep": {"variable": "s", "from": 1.0, "to": 1.0, "steps": 1},
    }
    path = write_config(tmp_path, config)
    out = tmp_path / "nan.csv"
    code = cli.main(["phase-diagram", "--config", path, "--out", str(out)])
    capsys.readouterr()
    assert code == 4
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == "NaN"
    assert math.isfinite(float(row[6]))  # beta is still reported


DATA = Path(__file__).parent / "data"
# The seeded m_ref-2 sweep of the phase-sweep benchmark workload (seed 1).
SEEDED_SWEEP = {
    "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
    "disc": {"n_modes": 30, "lambda_disc": 2.0},
    "trunc": {"cap": 20},
    "parity": {"epsilon": 0.015572824723997295, "m_ref": 2},
    "sweep": {"variable": "s", "from": 0.4355413732285959, "to": 0.8505622445200534,
              "steps": 16},
}


@pytest.mark.parametrize("policy", ["per-mode", "total-quanta"])
def test_excited_reference_sweep_keeps_its_pinned_bytes(tmp_path, capsys, policy):
    # Pinned from the one-point-at-a-time sweep, before the lockstep search.
    config = dict(SEEDED_SWEEP, trunc={"policy": policy, "cap": 20})
    out = tmp_path / "sweep.csv"
    assert cli.main(["phase-diagram", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    pinned = DATA / f"phase_diagram_mref2_{policy.replace('-', '_')}.csv"
    assert out.read_bytes() == pinned.read_bytes()


def sweep_ladders(config):
    """The ladder of each point of the sweep, built as the CLI builds it."""
    sweep = config["sweep"]
    lo, hi, steps = sweep["from"], sweep["to"], sweep["steps"]
    points = [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]
    for s in points:
        yield bath_ladder(s, config["model"]["omega_c"], config["disc"]["n_modes"], 2.0)


def sequential_sweep_error(config):
    """The error a loop of one-point searches over the sweep raises first,
    with SearchError points kept as NaN rows; None if there is none."""
    try:
        for ladder in sweep_ladders(config):
            try:
                critical_alpha(ladder, config["trunc"]["cap"],
                               epsilon=config["parity"]["epsilon"])
            except SearchError:
                pass
    except ParameterError as exc:
        return exc
    return None


def one_mode_sweep(omega_c, cap, epsilon):
    return {
        "model": {"delta": 0.1, "omega_c": omega_c, "s": 1.0, "alpha": 0.1},
        "disc": {"n_modes": 1, "lambda_disc": 2.0},
        "trunc": {"cap": cap},
        "parity": {"epsilon": epsilon},
        "sweep": {"variable": "s", "from": 0.1, "to": 1.2, "steps": 12},
    }


def assert_sweep_fails_with(tmp_path, capsys, config, expected):
    out = tmp_path / "sweep.csv"
    code = cli.main(["phase-diagram", "--config", write_config(tmp_path, config),
                     "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "ParameterError", "message": str(expected)}
    assert not out.exists()


@pytest.mark.parametrize("omega_c, cap, epsilon, failing", [
    # NaN rows (no bracket) before points whose bins overflow.
    (1e150, 14000, 0.5, "overflows the bin weights"),
])
def test_sweep_reports_the_earliest_points_error(tmp_path, capsys, omega_c, cap, epsilon,
                                                 failing):
    config = one_mode_sweep(omega_c, cap, epsilon)
    expected = sequential_sweep_error(config)
    assert failing in str(expected)
    assert_sweep_fails_with(tmp_path, capsys, config, expected)


def test_a_sweep_raises_a_bin_failure_before_any_search(tmp_path, capsys):
    # One mode with q**2 ~ alpha: the couplings overflow at alpha = 256 from
    # s ~ 0.6 on, and the bin weights themselves from s ~ 1.01.  Every point
    # is binned before the first search, so the bin failure is met first,
    # though a loop of one-point searches meets a coupling first.
    config = one_mode_sweep(1.2e153, 200, 0.01)
    assert "mode coupling must be >= 0, got inf" in str(sequential_sweep_error(config))
    with pytest.raises(ParameterError, match="overflows the bin weights") as expected:
        list(sweep_ladders(config))
    assert_sweep_fails_with(tmp_path, capsys, config, expected.value)


def test_a_sweep_builds_a_bath_only_for_a_nan_rows_beta(tmp_path, capsys, monkeypatch):
    # One mode at cap 14000 and epsilon 0.5: no bracket below alpha = 1e4
    # from s ~ 0.7 on.  The search rescales its ladders in arrays; only the
    # beta column of a NaN row asks a ladder for its bath, at alpha = 1.
    calls = []
    at = BathLadder.at
    monkeypatch.setattr(BathLadder, "at", lambda self, alpha: calls.append(alpha) or at(self, alpha))
    config = {
        "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
        "disc": {"n_modes": 1, "lambda_disc": 2.0},
        "trunc": {"cap": 14000},
        "parity": {"epsilon": 0.5},
        "sweep": {"variable": "s", "from": 0.1, "to": 1.2, "steps": 12},
    }
    assert cli.main(["phase-diagram", "--config", write_config(tmp_path, config)]) == 4
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    nan_rows = sum(row["alpha_c"] == "NaN" for row in rows)
    assert 0 < nan_rows < len(rows)
    assert calls == [1.0] * nan_rows


@pytest.mark.parametrize("config, message", [
    # The reference does not fit under the cap, and the coupling overflows at
    # alpha = 1: the reference, which every point shares, is reported.  Once
    # "mode coupling must be >= 0, got inf".
    ({"model": {"delta": 0.1, "omega_c": 1e200, "s": 0.5, "alpha": 0.1},
      "disc": {"n_modes": 1}, "trunc": {"cap": 20}, "parity": {"m_ref": 25}},
     "reference occupation [25] lies outside the per-mode basis of cap 20"),
    # An excited reference whose one coupling overflows while the bracket
    # doubles (alpha = 2).  Once a ValueError traceback.
    ({"model": {"delta": 0.1, "omega_c": 8e153, "s": 1.0, "alpha": 0.1},
      "disc": {"n_modes": 1}, "trunc": {"cap": 150}, "parity": {"m_ref": 1}},
     "mode coupling must be >= 0, got inf"),
])
def test_alpha_c_reports_a_bad_search_input_by_name(tmp_path, capsys, config, message):
    assert cli.main(["alpha-c", "--config", write_config(tmp_path, config)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError"
    assert error["message"].startswith(message)


@pytest.mark.parametrize("cap", [20, 200])
def test_alpha_c_takes_decoupled_modes_above_the_factorial_guard(tmp_path, capsys, cap):
    # 511 of the 1000 couplings underflow to q = 0.
    config = {
        "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.2, "alpha": 0.1},
        "disc": {"n_modes": 1000, "lambda_disc": 2.0},
        "trunc": {"cap": cap},
    }
    code = cli.main(["alpha-c", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    if cap == 20:
        assert out["alpha_c"] == 9.969510793685913  # as before decoupled rows skipped the guard
    else:
        assert out["alpha_c"] > 9.969510793685913


def test_phase_diagram_range_validation(tmp_path, capsys):
    config = dict(PHASE_CONFIG)
    config["sweep"] = {"variable": "s", "from": 0.4, "to": 1.5, "steps": 3}
    path = write_config(tmp_path, config)
    code = cli.main(["phase-diagram", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "(0, 1.2]" in out["error"]["message"]


def test_reference_curve_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("s,alpha_c,label\n1.0,0.3,qmc\n0.5,0.1,qmc\n")
    with pytest.raises(ConfigError):
        cli.load_reference_curve(str(bad))
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("s,alpha_c,label\n0.5,0.1,a\n1.0,0.3,b\n")
    with pytest.raises(ConfigError):
        cli.load_reference_curve(str(mixed))


def reference_cases(tmp_path):
    """(reference path, error message) for each curve the sweep refuses."""
    def curve(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    missing = str(tmp_path / "missing.csv")
    yield missing, (f"cannot read reference curve {missing}: [Errno 2] No such file or "
                    f"directory: {missing!r}")
    path = curve("empty.csv", "")
    yield path, f"reference curve {path} is empty"
    path = curve("header.csv", "s,alpha,label\n0.5,0.1,qmc\n")
    yield path, f"reference curve {path} must have header s,alpha_c,label"
    path = curve("columns.csv", "s,alpha_c,label\n0.5,0.1,qmc\n0.7,0.2\n")
    yield path, f"reference curve {path}:3: expected 3 columns"
    path = curve("number.csv", "s,alpha_c,label\n0.5,x,qmc\n")
    yield path, f"reference curve {path}:2: could not convert string to float: 'x'"
    path = curve("rows.csv", "s,alpha_c,label\n\n")
    yield path, f"reference curve {path} has no data rows"
    path = curve("finite.csv", "s,alpha_c,label\n0.5,0.1,qmc\n1.0,inf,qmc\n")
    yield path, f"reference curve {path} contains non-finite values"


def test_phase_diagram_refuses_each_malformed_reference_curve(tmp_path, capsys):
    config = write_config(tmp_path, PHASE_CONFIG)
    out = tmp_path / "out.csv"
    for path, message in reference_cases(tmp_path):
        code = cli.main(["phase-diagram", "--config", config, "--reference", path,
                         "--out", str(out)])
        assert code == 1, message
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "ConfigError", "message": message}}
        assert not out.exists()


def test_reference_curve_skips_blank_lines(tmp_path, capsys):
    config = write_config(tmp_path, PHASE_CONFIG)
    outputs = []
    for name, text in (("plain.csv", "s,alpha_c,label\n0.5,0.1,qmc\n1.0,0.3,qmc\n"),
                       ("blank.csv", "s,alpha_c,label\n\n0.5,0.1,qmc\n\n1.0,0.3,qmc\n\n")):
        (tmp_path / name).write_text(text)
        assert cli.main(["phase-diagram", "--config", config,
                         "--reference", str(tmp_path / name)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert cli.load_reference_curve(str(tmp_path / "blank.csv"))[0] == "qmc"


@pytest.mark.parametrize("command, config, message", [
    ("alpha-c", dict(PHASE_CONFIG, parity={"m_ref": [0, 1]}),
     'field "parity.m_ref": length 2 does not match 10 modes'),
    ("phase-diagram", dict(PHASE_CONFIG, parity={"m_ref": [0] * 11}),
     'field "parity.m_ref": length 11 does not match 10 modes'),
    ("phase-diagram", {key: value for key, value in PHASE_CONFIG.items() if key != "sweep"},
     'phase-diagram requires a sweep section with variable "s"'),
])
def test_search_commands_refuse_a_config_they_cannot_run(tmp_path, capsys, command, config,
                                                         message):
    assert cli.main([command, "--config", write_config(tmp_path, config)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"type": "ConfigError", "message": message}}


# ---------------------------------------------------------------------------
# exit codes and serialization details
# ---------------------------------------------------------------------------

def test_usage_error_exits_1(capsys):
    code = cli.main(["theorem"])  # missing --config
    capsys.readouterr()
    assert code == 1
    code = cli.main([])  # missing subcommand
    capsys.readouterr()
    assert code == 1


def test_theorem_output_is_byte_stable(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_MODE_THEOREM)
    cli.main(["theorem", "--config", path])
    first = capsys.readouterr().out
    cli.main(["theorem", "--config", path])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("command", ["theorem", "spectrum"])
def test_matrix_free_runs_repeat_byte_identically(tmp_path, capsys, command):
    from sbparity.cli import build_basis, build_bath, load_config
    from sbparity.spectra import use_lanczos

    path = write_config(tmp_path, MATRIX_FREE_THEOREM)
    cfg = load_config(path)
    assert use_lanczos(build_basis(cfg, build_bath(cfg)), cfg.k_levels)
    outputs = []
    for _ in range(2):
        assert cli.main([command, "--config", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert cli.dumps(json.loads(outputs[0])) == outputs[0]


def test_matrix_free_max_iter_exhausted_exits_3(tmp_path, capsys):
    config = dict(MATRIX_FREE_THEOREM, solver={"max_iter": 1})
    path = write_config(tmp_path, config)
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["error"]["type"] == "SolverError"
    assert "max_iter = 1" in out["error"]["message"]


def test_invariant_violation_exits_2(tmp_path, capsys, monkeypatch):
    from sbparity.errors import InvariantViolation

    def broken(params, tol=1e-10, max_iter=10_000):
        raise InvariantViolation("forced for the exit-code contract")

    monkeypatch.setattr(cli, "theorem_report", broken)
    path = write_config(tmp_path, SINGLE_MODE_THEOREM)
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "invariant_violation" in out or out.get("error", {}).get("type") == "InvariantViolation"


def test_an_error_outside_the_exit_table_propagates(tmp_path, capsys, monkeypatch):
    # main reports only the classes of cli.EXIT_CODES; any other error, a
    # ConvergenceError among them, is raised rather than mapped onto exit 1.
    from sbparity.errors import ConvergenceError

    def broken(cfg, args):
        raise ConvergenceError("forced past the exit table")

    monkeypatch.setitem(cli.COMMANDS, "theorem", (broken, *cli.COMMANDS["theorem"][1:]))
    path = write_config(tmp_path, SINGLE_MODE_THEOREM)
    with pytest.raises(ConvergenceError, match="forced past the exit table"):
        cli.main(["theorem", "--config", path])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("config", [SINGLE_MODE_THEOREM, MATRIX_FREE_THEOREM],
                         ids=["dense", "lanczos"])
def test_margin_below_the_vacuum_floor_exits_2(tmp_path, capsys, monkeypatch, config):
    # A solve that reports both branch minima at their mean keeps the
    # two-branch sum, but lifts e_gs above the even-branch vacuum energy
    # e_min_eo - (delta/2) * exp(-2 * sum_q2), which no true minimum can do.
    from sbparity import spectra

    path = write_config(tmp_path, config)
    assert cli.main(["theorem", "--config", path]) == 0
    honest = json.loads(capsys.readouterr().out)
    sum_q2 = cli.build_bath(cli.load_config(path)).sum_q2
    floor = 0.5 * config["model"]["delta"] * math.exp(-2.0 * sum_q2)
    assert honest["margin"] >= floor

    solve = spectra.solve_branches

    def averaged(*args, **kwargs):
        parity, plus, minus = solve(*args, **kwargs)
        mean = 0.5 * (plus.values + minus.values)
        return (parity, dataclasses.replace(plus, values=mean),
                dataclasses.replace(minus, values=mean))

    monkeypatch.setattr(spectra, "solve_branches", averaged)
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "vacuum floor" in out["invariant_violation"]
    assert out["margin"] < floor


@pytest.mark.parametrize(
    "command, value, guard, config",
    [
        pytest.param("theorem", 2.0, "|D| <= 1", SINGLE_MODE_THEOREM,
                     id="theorem-2.0-|D| <= 1"),
        pytest.param("theorem", math.nan, "|D| <= 1", SINGLE_MODE_THEOREM,
                     id="theorem-nan-|D| <= 1"),
        pytest.param("parity-audit", 2.0, "|D| <= 1", SINGLE_MODE_THEOREM,
                     id="parity-audit-2.0-|D| <= 1"),
        # |D| <= 1 holds, (D@D)_mm does not
        pytest.param("parity-audit", 0.9, "row-norm bound", SINGLE_MODE_THEOREM,
                     id="parity-audit-0.9-row-norm bound"),
        pytest.param("theorem", 2.0, "|D| <= 1", MATRIX_FREE_THEOREM,
                     id="matrix-free-theorem-2.0-|D| <= 1"),
        pytest.param("theorem", math.nan, "|D| <= 1", MATRIX_FREE_THEOREM,
                     id="matrix-free-theorem-nan-|D| <= 1"),
        pytest.param("spectrum", 2.0, "|D| <= 1", MATRIX_FREE_THEOREM,
                     id="matrix-free-spectrum-2.0-|D| <= 1"),
    ],
)
def test_corrupted_parity_table_exits_2(tmp_path, capsys, monkeypatch, command, value, guard,
                                        config):
    from sbparity import fockspace

    def corrupted(q, m_max, n_max, scaled):
        return np.full((m_max + 1, n_max + 1), value)

    monkeypatch.setattr(fockspace, "_single_mode_block", corrupted)
    path = write_config(tmp_path, config)
    code = cli.main([command, "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "InvariantViolation"
    assert guard in out["error"]["message"]


@pytest.mark.parametrize("config", [SINGLE_MODE_THEOREM, MATRIX_FREE_THEOREM],
                         ids=["1-mode", "2-modes"])
def test_audit_vacuum_mismatch_exits_2(tmp_path, capsys, monkeypatch, config):
    # Row 0 of the basis is the vacuum, so the square's first row norm and
    # the series deficiency are one number; a square whose vacuum row drifts
    # by 1e-9, inside every other bound, must not print.
    from sbparity import fockspace

    square = fockspace.KroneckerParity.square

    def drifted(self):
        diag, offdiag = square(self)
        diag[0] -= 1e-9
        return diag, offdiag

    path = write_config(tmp_path, config)
    monkeypatch.setattr(fockspace.KroneckerParity, "square", drifted)
    code = cli.main(["parity-audit", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "InvariantViolation"
    assert "vacuum deficiency" in out["error"]["message"]


THEOREM_KEYS = ["e_gs", "e_plus_min", "e_minus_min", "e_min_eo", "margin", "predicted_gap",
                "measured_gap", "verdict"]
DISCRETIZED = {"model": {"delta": 0.1, "omega_c": 1.0, "s": 0.5, "alpha": 0.1},
               "disc": {"n_modes": 3, "lambda_disc": 2.0}, "trunc": {"cap": 4}}


@pytest.mark.parametrize("command, config, keys", [
    ("theorem", SINGLE_MODE_THEOREM, THEOREM_KEYS),
    ("spectrum", SINGLE_MODE_THEOREM, ["plus", "minus", "degenerate_energy_set"]),
    ("parity-audit", SINGLE_MODE_THEOREM,
     ["m", "n_tr", "o_value", "scale", "deficiency", "d2_diag_residuals", "d2_max_offdiag"]),
    ("alpha-c", DISCRETIZED,
     ["s", "alpha_c", "epsilon", "n_tr", "n_modes", "lambda_disc", "beta", "m_ref",
      "o_value", "ln_o_over_2beta"]),
    ("closure", DISCRETIZED,
     ["n_modes", "n_tr", "unknowns_discarded", "independent_equations", "ratio",
      "ratio_value", "conclusion"]),
])
def test_json_reports_keep_their_key_order(tmp_path, capsys, command, config, keys):
    # The result fields in declaration order, then the echo and the stamp.
    assert cli.main([command, "--config", write_config(tmp_path, config)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys + ["config", "versions"]


def test_theorem_invariant_report_keeps_its_key_order(tmp_path, capsys, monkeypatch):
    from sbparity import spectra

    solve = spectra.solve_branches

    def averaged(*args, **kwargs):  # lifts e_gs above the vacuum floor
        parity, plus, minus = solve(*args, **kwargs)
        mean = 0.5 * (plus.values + minus.values)
        return (parity, dataclasses.replace(plus, values=mean),
                dataclasses.replace(minus, values=mean))

    monkeypatch.setattr(spectra, "solve_branches", averaged)
    assert cli.main(["theorem", "--config", write_config(tmp_path, SINGLE_MODE_THEOREM)]) == 2
    assert list(json.loads(capsys.readouterr().out)) == THEOREM_KEYS + [
        "invariant_violation", "config", "versions"]


@pytest.mark.parametrize("command", ["theorem", "spectrum", "parity-audit"])
def test_infinite_displacement_exits_1(tmp_path, capsys, command):
    # lam / (2 * omega) overflows to inf; this once exited 2 with max|D| = nan.
    config = {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                        "modes": [[1e-320, 1.0]]}, "trunc": {"cap": 5}}
    code = cli.main([command, "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == {"type": "ParameterError",
                            "message": "displacement q must be finite and >= 0, got inf"}


# Two modes with q_k**2 = 1.69e308 each: their sum overflows a double.
OVERFLOWING_SUM_Q2 = {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                                "modes": [[1.0, 2.6e154], [0.5, 1.3e154]]}, "trunc": {"cap": 0}}


@pytest.mark.parametrize("command", ["theorem", "spectrum", "parity-audit"])
def test_a_sum_q2_past_the_double_range_exits_1(tmp_path, capsys, command):
    # Once a bare OverflowError from math.fsum.
    code = cli.main([command, "--config", write_config(tmp_path, OVERFLOWING_SUM_Q2)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == {"type": "ParameterError",
                            "message": "sum_k q_k**2 overflows a double"}


# One finite q_k whose q_k**2 is inf (q = 5e154), and one whose
# omega_k * q_k**2 is inf (q = 1e154 at omega 10): math.fsum returns inf.
INFINITE_MODE_SUMS = {
    "sum_k q_k**2": [[1.0, 1e155]],
    "sum_k omega_k * q_k**2": [[10.0, 2e155]],
}


@pytest.mark.parametrize("command", ["theorem", "spectrum", "parity-audit"])
@pytest.mark.parametrize("cap", [0, 3])
@pytest.mark.parametrize("name", INFINITE_MODE_SUMS)
def test_an_infinite_mode_sum_exits_1(tmp_path, capsys, command, cap, name):
    # Once a bare ValueError from scipy.linalg.eigh (theorem, spectrum at cap
    # 0), exit 2 from the |D| <= 1 guard (cap 3) or a NaN deficiency (audit).
    config = {"model": {"delta": 0.1, "omega_c": 10.0, "s": 1.0, "alpha": 0.0,
                        "modes": INFINITE_MODE_SUMS[name]}, "trunc": {"cap": cap}}
    code = cli.main([command, "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == {"type": "ParameterError", "message": f"{name} overflows a double"}


# At alpha = 1, 4 * q_k**2 of a mode overflows a double.  310 modes at
# Lambda 10: two q_k**2 are inf, and further down their sum overflows fsum.
# 3 modes at Lambda 3.2e155: the last q_k**2 is 1.5e308.
OVERFLOWING_SEARCH = {
    "310-modes": {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1e-4, "alpha": 0.1},
                  "disc": {"n_modes": 310, "lambda_disc": 10}, "trunc": {"cap": 0}},
    "3-modes": {"model": {"delta": 0.1, "omega_c": 1.0, "s": 0.01, "alpha": 0.1},
                "disc": {"n_modes": 3, "lambda_disc": 3.1622776601683794e155},
                "trunc": {"cap": 4}},
}


# Both once printed numpy RuntimeWarnings beside the error JSON.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["alpha-c", "phase-diagram"])
@pytest.mark.parametrize("config", OVERFLOWING_SEARCH.values(), ids=OVERFLOWING_SEARCH)
def test_alpha_c_refuses_a_parity_sum_past_the_double_range(tmp_path, capsys, config, command):
    # Once an OverflowError traceback (310 modes), and alpha_c 1 with beta
    # inf and o_value NaN (3 modes; exit 0, and 4 for the sweep's next point):
    # every comparison with the NaN deficiency was false, so the bisection
    # kept its first point.
    s = config["model"]["s"]
    config = dict(config, sweep={"variable": "s", "from": s, "to": 2 * s, "steps": 2})
    code = cli.main([command, "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == {
        "type": "ParameterError",
        "message": "4 * q_k**2 overflows a double at alpha = 1.0"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, config, code, expected", [
    ("theorem", "310-modes", 0, {"verdict": "indeterminate-below-resolution"}),
    ("parity-audit", "310-modes", 2, {"error": {
        "type": "InvariantViolation",
        "message": "vacuum deficiency nan from the series and 1 from the square disagree"}}),
    ("theorem", "3-modes", 0, {"verdict": "indeterminate-below-resolution"}),
    ("parity-audit", "3-modes", 0, {"deficiency": 1.0}),
])
def test_the_other_commands_keep_their_reports_on_those_baths(tmp_path, capsys, command,
                                                              config, code, expected):
    # The refusal is the search's: the commands that build these baths at
    # their own alpha print what they printed before.
    path = write_config(tmp_path, OVERFLOWING_SEARCH[config])
    assert cli.main([command, "--config", path]) == code
    out = json.loads(capsys.readouterr().out)
    assert {key: out[key] for key in expected} == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["theorem", "spectrum"])
@pytest.mark.parametrize("delta", [1e170, 1e200, 1e300])
def test_a_dense_residual_past_the_square_overflow_exits_0(tmp_path, capsys, command, delta):
    # Residual entries past ~1.3e154 overflow a sum of squares: this once
    # exited 3 with "eigensolver residual inf exceeds tol * norm(H)" and a
    # numpy overflow warning, though the true residual met its bound.
    config = {"model": {"delta": delta, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
              "disc": {"n_modes": 2, "lambda_disc": 2.0},
              "trunc": {"policy": "per-mode", "cap": 3}}
    code = cli.main([command, "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    if command == "spectrum":
        out = json.loads(captured.out)
        for branch in ("plus", "minus"):
            assert 0.0 < out[branch]["residual"] <= 1e-10 * delta


@pytest.mark.parametrize("command", ["theorem", "spectrum"])
def test_a_dense_residual_bound_past_the_norm_overflow_still_holds(tmp_path, capsys, monkeypatch,
                                                                    command):
    # Row sums of |H| past the double range once made the bound tol * norm(H)
    # inf, with a numpy overflow warning, so that no residual could fail it.
    import scipy.linalg

    config = {"model": {"delta": 1e308, "omega_c": 1e-05, "s": 2.0, "alpha": 0.5},
              "disc": {"n_modes": 4, "lambda_disc": 10.0},
              "trunc": {"policy": "total-quanta", "cap": 6}}
    path = write_config(tmp_path, config)
    assert not spectra.use_lanczos(cli._model_params(cli.load_config(path)).basis, 1)
    code = cli.main([command, "--config", path])
    assert (code, capsys.readouterr().err) == (0, "")

    eigh = scipy.linalg.eigh

    def perturbed(h, **kwargs):
        values, vectors = eigh(h, **kwargs)
        vectors[0] += 1e-3
        return values, vectors

    monkeypatch.setattr(scipy.linalg, "eigh", perturbed)
    assert cli.main([command, "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "SolverError"
    assert "exceeds tol * norm(H)" in error["message"]


def test_config_error_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"delta": 0.1, "omega_c": 1, "s": -2, "alpha": 0.2}})
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"


def test_capacity_error_exits_1(tmp_path, capsys):
    # Default disc (30 modes) with a per-mode cap is far beyond the basis guard.
    path = write_config(
        tmp_path,
        {"model": {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2},
         "trunc": {"policy": "per-mode", "cap": 20}},
    )
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "CapacityError"


@pytest.mark.parametrize("command", ["theorem", "spectrum", "parity-audit"])
def test_capacity_error_names_the_settings_to_change(tmp_path, capsys, command):
    # The README defaults: 30 modes at total-quanta cap 20.  The basis
    # already is total-quanta, so switching to it is not advised.
    model = {"delta": 0.1, "omega_c": 1.0, "s": 0.7, "alpha": 0.2}
    path = write_config(tmp_path, {"model": model})
    code = cli.main([command, "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "CapacityError"
    for knob in ("disc.n_modes", "trunc.cap", "trunc.policy"):
        assert knob in out["error"]["message"]
    assert 'set trunc.policy to "total-quanta"' not in out["error"]["message"]

    path = write_config(tmp_path, {"model": model, "disc": {"n_modes": 10},
                                   "trunc": {"policy": "per-mode"}})
    assert cli.main([command, "--config", path]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        f"basis would hold {21 ** 10} states, above the guard of {MAX_BASIS_STATES} (10 modes, "
        "per-mode cap 20); lower disc.n_modes (or list fewer model.modes) or trunc.cap, "
        'or set trunc.policy to "total-quanta", which keeps comb(cap + n_modes, n_modes) '
        "states instead of (cap + 1)**n_modes")


@pytest.mark.parametrize("command", ["theorem", "spectrum", "parity-audit"])
def test_config_echo_reports_the_modes_used(tmp_path, capsys, command):
    path = write_config(tmp_path, SINGLE_MODE_THEOREM)
    assert cli.main([command, "--config", path]) == 0
    echo = json.loads(capsys.readouterr().out)["config"]
    assert echo["disc"] == {"n_modes": 1, "lambda_disc": None}
    assert echo["model"]["modes"] == [[1.0, 1.0]]

    discretized = {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
                   "disc": {"n_modes": 2, "lambda_disc": 3.0}, "trunc": {"cap": 3}}
    path = write_config(tmp_path, discretized)
    assert cli.main([command, "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["disc"] == {
        "n_modes": 2, "lambda_disc": 3.0}

    # Explicit modes are the modes used, whatever a disc section says.
    listed = dict(discretized, model=dict(discretized["model"], modes=[[1.0, 0.5], [0.5, 0.25]]),
                  disc={"n_modes": 7, "lambda_disc": 5.0})
    path = write_config(tmp_path, listed)
    assert cli.main([command, "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["disc"] == {
        "n_modes": 2, "lambda_disc": None}


def test_theorem_cap_above_factorial_guard_exits_1(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
                   "modes": [[1.0, 40.0]]},
         "trunc": {"cap": 171}},
    )
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "CapacityError"


def test_format_float_round_trip():
    values = [0.1, -0.0, 1.0, math.pi, 1e-300, 2.0 ** -52, 12345.6789]
    for v in values:
        text = cli.format_float(v)
        assert float(text) == v or (v == 0.0 and float(text) == 0.0)
    assert cli.format_float(float("nan")) == "NaN"
    assert cli.format_float(float("inf")) == "inf"
    assert cli.format_float(-0.0) == "0"


def test_dumps_is_parseable_and_stable():
    payload = {"a": 0.1, "b": [1, 2.5, None, True], "c": {"nested": "x"}}
    text = cli.dumps(payload)
    assert cli.dumps(json.loads(text)) == text


def recursive_dumps(obj):
    """The serializer that recurses once per list item (reference)."""
    parts = []

    def fragment(value):
        if value is None:
            parts.append("null")
        elif isinstance(value, bool):
            parts.append("true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            parts.append(str(int(value)))
        elif isinstance(value, (float, np.floating)):
            value = float(value)
            if math.isfinite(value):
                parts.append(cli.format_float(value))
            else:
                parts.append(json.dumps(cli.format_float(value)))
        elif isinstance(value, str):
            parts.append(json.dumps(value))
        elif isinstance(value, (list, tuple, np.ndarray)):
            parts.append("[")
            for i, item in enumerate(value):
                if i:
                    parts.append(", ")
                fragment(item)
            parts.append("]")
        elif isinstance(value, dict):
            parts.append("{")
            for i, (key, item) in enumerate(value.items()):
                if i:
                    parts.append(", ")
                parts.append(json.dumps(str(key)))
                parts.append(": ")
                fragment(item)
            parts.append("}")
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")

    fragment(obj)
    parts.append("\n")
    return "".join(parts)


def random_payload(rng, depth=0):
    specials = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308,
                float(np.copysign(math.nan, -1.0))]

    def number():
        kind = rng.integers(8)
        if kind == 0:
            return specials[rng.integers(len(specials))]
        if kind == 1:
            return np.float64(rng.normal() * 10.0 ** rng.integers(-300, 300))
        if kind == 2:
            return np.int64(rng.integers(-10**12, 10**12))
        if kind == 3:
            return bool(rng.integers(2))
        if kind == 4:
            return None
        if kind == 5:
            return int(rng.integers(-5, 5))
        return float(rng.normal() * 10.0 ** rng.integers(-20, 20))

    kind = rng.integers(6 if depth < 3 else 2)
    size = int(rng.integers(0, 12))
    if kind == 0:  # all floats, the joined path
        return [float(v) if rng.random() < 0.8 else specials[rng.integers(len(specials))]
                for v in rng.normal(size=size) * 10.0 ** rng.integers(-10, 10)]
    if kind == 1:  # a float array, with non-finite entries
        arr = rng.normal(size=(size,) if rng.random() < 0.5 else (size, 3))
        arr[rng.random(arr.shape) < 0.2] = specials[rng.integers(len(specials))]
        return arr
    if kind == 2:
        return [number() for _ in range(size)]
    if kind == 3:
        return tuple(random_payload(rng, depth + 1) for _ in range(size % 4))
    if kind == 4:
        return {f"k{i}": random_payload(rng, depth + 1) for i in range(size % 5)}
    return [np.float64(v) for v in rng.normal(size=size)] + [number() for _ in range(size % 3)]


def test_dumps_writes_float_rows_as_format_float_does():
    # A row of finite entries without -0.0 is written in one % pass; any
    # other row keeps the per-entry path.  Each entry reads as format_float.
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, -2.5e-7]
    rows = [specials, specials[4:], [1.0, -0.0], [1.0, math.nan], [], [3.0]]
    for row in rows:
        texts = [cli.format_float(x) if math.isfinite(x) else json.dumps(cli.format_float(x))
                 for x in row]
        assert cli.dumps(np.array(row)) == "[" + ", ".join(texts) + "]\n"
    rng = np.random.default_rng(3)
    for shape in [(4, 7), (1, 5), (3, 0), (0, 4)]:
        array = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        array.flat[::3] = -0.0
        array[:1] = specials[: shape[1]]
        assert cli.dumps(array) == cli.dumps(array.tolist())


@pytest.mark.parametrize("seed", range(5))
def test_dumps_matches_the_recursive_serializer(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        payload = {"body": random_payload(rng), "ints": np.arange(3), "x": -0.0}
        assert cli.dumps(payload) == recursive_dumps(payload)


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------

def test_cli_import_leaves_sparse_linalg_unloaded(tmp_path):
    # scipy.linalg and scipy.sparse.linalg are imported only by the solves
    # that use them, and scipy.special not at all: loading them at import
    # took ~0.3 s of every command.  scipy itself is imported only for the
    # versions stamp, which phase-diagram does not print.  The commands that
    # solve nothing load no submodule; a dense theorem loads scipy.linalg
    # alone.
    audit = {"model": {"delta": 0.1, "omega_c": 1.0, "s": 0.6, "alpha": 0.2},
             "disc": {"n_modes": 3, "lambda_disc": 2.0}, "trunc": {"cap": 4}}
    diagram = ["phase-diagram", "--config", write_config(tmp_path, PHASE_CONFIG, "diagram.json")]
    quiet = [[command, "--config", write_config(tmp_path, config, f"{command}.json")]
             for command, config in [("alpha-c", PHASE_CONFIG), ("closure", closure_config(3, 4)),
                                     ("parity-audit", audit)]]
    theorem = ["theorem", "--config", write_config(tmp_path, SINGLE_MODE_THEOREM)]
    code = f"""
import contextlib, io, sys
from sbparity import cli
def loaded():
    print([m for m in ("scipy", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")
           if m in sys.modules])
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded()
run({diagram!r})
loaded()
for argv in {quiet!r}:
    run(argv)
loaded()
run({theorem!r})
loaded()
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines() == ["[]", "[]", "['scipy']", "['scipy', 'scipy.linalg']"]


@pytest.mark.parametrize("n_modes, code", [(3, 0), (0, 1)], ids=["closure", "refused"])
def test_module_entry_point_runs_main(tmp_path, capsys, n_modes, code):
    # python -m sbparity.cli prints what main prints and exits with its code.
    path = write_config(tmp_path, closure_config(n_modes, 4))
    assert cli.main(["closure", "--config", path]) == code
    expected = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "sbparity.cli", "closure", "--config", path],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.stdout, proc.returncode) == (expected, code)


MAX_FUZZ_DIM = 400


def _largest_cap(n_modes, policy):
    cap = 0
    while (math.comb(cap + 1 + n_modes, n_modes) if policy == "total-quanta"
           else (cap + 2) ** n_modes) <= MAX_FUZZ_DIM:
        cap += 1
    return cap


@st.composite
def fuzz_runs(draw):
    command = draw(st.sampled_from(["theorem", "spectrum", "parity-audit", "alpha-c"]))
    n_modes = draw(st.integers(1, 3))
    policy = draw(st.sampled_from(["per-mode", "total-quanta"]))
    config = {
        "model": {
            "delta": draw(st.floats(0.0, 1.0)),
            "omega_c": draw(st.floats(0.5, 2.0)),
            "s": draw(st.floats(0.0, 1.2, exclude_min=True)),
            "alpha": draw(st.floats(0.0, 2.0)),
        },
        "disc": {"n_modes": n_modes, "lambda_disc": draw(st.floats(1.5, 4.0))},
        "trunc": {"policy": policy, "cap": draw(st.integers(0, _largest_cap(n_modes, policy)))},
        "solver": {"k_levels": draw(st.integers(1, 3))},
        "parity": {"epsilon": draw(st.floats(0.001, 0.5)), "m_ref": draw(st.integers(0, 3))},
    }
    return command, config


@settings(max_examples=40, deadline=None)
@given(run=fuzz_runs())
def test_fuzzed_configs_exit_cleanly(run):
    # Every valid config ends in success with parseable JSON, an invariant
    # report (exit 2), or an error JSON under its documented exit code.
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), config)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", path])
    out = json.loads(buf.getvalue())
    if code == 0:
        assert "error" not in out
    elif code == 2:
        assert "invariant_violation" in out or "error" in out
    else:
        assert code in (1, 3, 4)
        assert set(out) == {"error"}
