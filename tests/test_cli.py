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

from sbparity import bath_ladder, cli, critical_alpha
from sbparity.errors import ConfigError

from conftest import bare_fock_ground_energy


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
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
    path = write_config(tmp_path, {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2})
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
    path = write_config(tmp_path, {"delta": 0.1, "omega_c": 1, "s": -1, "alpha": 0.2})
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    message = str(err.value)
    assert '"model.s"' in message
    assert "s > 0" in message


def test_duplicate_key_is_a_parse_error(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"delta": 0.1, "delta": 0.2, "omega_c": 1, "s": 1, "alpha": 0}')
    with pytest.raises(ConfigError) as err:
        cli.load_config(str(path))
    assert "duplicate" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    path = write_config(
        tmp_path, {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2, "bogus": 1}
    )
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    assert "bogus" in str(err.value)


def test_shorthand_and_model_key_conflict(tmp_path):
    path = write_config(
        tmp_path,
        {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2, "model": {"delta": 0.3}},
    )
    with pytest.raises(ConfigError):
        cli.load_config(path)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"delta": 0.1,,}')
    with pytest.raises(ConfigError) as err:
        cli.load_config(str(path))
    assert "line 1" in str(err.value)


def test_missing_required_field(tmp_path):
    path = write_config(tmp_path, {"delta": 0.1, "omega_c": 1, "s": 1})
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    assert "model.alpha" in str(err.value)


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


def test_output_format_is_not_a_key(tmp_path, capsys):
    # Output formats are fixed per command; a format key would be ignored.
    config = dict(SINGLE_MODE_THEOREM, output={"format": "json"})
    code = cli.main(["theorem", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == {"type": "ConfigError",
                            "message": "unknown key 'format' in section 'output'"}


@pytest.mark.parametrize("path", [5, "", ["a.json"]])
def test_output_path_must_be_a_string(tmp_path, capsys, path):
    config = dict(SINGLE_MODE_THEOREM, output={"path": path})
    code = cli.main(["theorem", "--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"
    assert '"output.path"' in out["error"]["message"]


@pytest.mark.parametrize("where", ["--out", "output.path"])
def test_unwritable_output_exits_1(tmp_path, capsys, where):
    target = tmp_path / "missing" / "report.json"
    config = dict(SINGLE_MODE_THEOREM)
    argv = ["theorem"]
    if where == "--out":
        argv += ["--out", str(target)]
    else:
        config["output"] = {"path": str(target)}
    code = cli.main(argv + ["--config", write_config(tmp_path, config)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"
    assert f"cannot write output {target}" in out["error"]["message"]
    # The same path in an existing directory is written.
    target.parent.mkdir()
    assert cli.main(argv + ["--config", write_config(tmp_path, config)]) == 0
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
    path = write_config(tmp_path, base)
    cli.main(["alpha-c", "--config", path])
    small = json.loads(capsys.readouterr().out)
    cli.main(["alpha-c", "--config", path, "--epsilon", "0.05"])
    large = json.loads(capsys.readouterr().out)
    assert large["epsilon"] == 0.05
    assert large["alpha_c"] > small["alpha_c"]


def test_alpha_c_refuses_an_epsilon_below_float_resolution(tmp_path, capsys):
    # At epsilon = 1e-12 the deficiency cannot be resolved to 1e-6 relative;
    # a fixed 1e-10 tolerance once printed alpha_c = 1 here with exit 0.
    path = write_config(tmp_path, {
        "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
        "parity": {"m_ref": 2},
    })
    code = cli.main(["alpha-c", "--config", path, "--epsilon", "1e-12"])
    out = json.loads(capsys.readouterr().out)
    assert code == 4
    assert out["error"]["type"] == "SearchError"


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


def test_config_error_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, {"delta": 0.1, "omega_c": 1, "s": -2, "alpha": 0.2})
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "ConfigError"


def test_capacity_error_exits_1(tmp_path, capsys):
    # Default disc (30 modes) with a per-mode cap is far beyond the basis guard.
    path = write_config(
        tmp_path,
        {"delta": 0.1, "omega_c": 1, "s": 1, "alpha": 0.2,
         "trunc": {"policy": "per-mode", "cap": 20}},
    )
    code = cli.main(["theorem", "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "CapacityError"


@pytest.mark.parametrize("command", ["theorem", "spectrum", "parity-audit"])
def test_capacity_error_names_the_settings_to_change(tmp_path, capsys, command):
    # The README defaults: 30 modes at total-quanta cap 20.
    path = write_config(tmp_path, {"delta": 0.1, "omega_c": 1.0, "s": 0.7, "alpha": 0.2})
    code = cli.main([command, "--config", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "CapacityError"
    for knob in ("disc.n_modes", "trunc.cap", "trunc.policy"):
        assert knob in out["error"]["message"]


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


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------

def test_cli_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg is imported only by the Lanczos path; loading it
    # at import time would add ~25 ms to every command.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, sbparity.cli; "
            "print('scipy.sparse.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


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
