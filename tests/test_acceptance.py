"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Criterion 2's parameter grid is solved
once in a module fixture and shared by criteria 2-4.
"""

import contextlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from sbparity import (
    BathLadder,
    KroneckerParity,
    ModelParams,
    SpectralLaw,
    bath_from_modes,
    bath_ladder,
    closure_report,
    critical_alpha,
    default_policy,
    degenerate_energy_set,
    discretize_bath,
    e_min_eo,
    eigen_lowest,
    enumerate_basis,
    overlap_oracle,
    parity_deficiency,
    o_diagonal,
    theorem_report,
)
from sbparity import cli
from sbparity.spectra import energy_scale, GAP_RESOLUTION_FACTOR, VERDICT_DEGENERATE

from conftest import bare_fock_ground_energy, gap_identity, index_of, kronecker_sum

EPS = float(np.finfo(float).eps)
GOLDEN = Path(__file__).parent / "data" / "phase_diagram_golden.csv"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number}: {description}")
        raise
    print(f"ACCEPTANCE PASS criterion {number}: {description}")


# ---------------------------------------------------------------------------
# Criterion 2 grid, shared with criteria 3 and 4
# ---------------------------------------------------------------------------

GRID_TOL = 1e-10


@pytest.fixture(scope="module")
def theorem_grid():
    records = []
    start = time.perf_counter()
    for delta in (0.05, 0.1, 0.5):
        for s in (0.3, 0.5, 0.7, 1.0):
            for alpha in (0.01, 0.1, 0.5, 1.0):
                for n_modes, cap, policy in ((1, 40, "per-mode"), (3, 10, "total-quanta")):
                    bath = discretize_bath(SpectralLaw(alpha, s, 1.0), n_modes, 2.0)
                    basis = enumerate_basis(n_modes, cap, policy)
                    params = ModelParams(delta=delta, bath=bath, basis=basis)
                    report = theorem_report(params, tol=GRID_TOL)
                    record = {
                        "n_modes": n_modes,
                        "params": params,
                        "report": report,
                        "scale": energy_scale(params),
                    }
                    if n_modes == 1:
                        record["gap"] = gap_identity(params, tol=GRID_TOL)
                    records.append(record)
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_branches_degenerate_at_zero_tunneling():
    with criterion(1, "zero-tunneling branch spectra equal the analytic ladder"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_modes = int(rng.integers(1, 4))
            cap = int(rng.integers(2, 7))
            alpha = float(rng.uniform(0.01, 0.6))
            s = float(rng.uniform(0.3, 1.0))
            bath = discretize_bath(SpectralLaw(alpha, s, 1.0), n_modes, 2.0)
            basis = enumerate_basis(n_modes, cap, default_policy(n_modes))
            params = ModelParams(delta=0.0, bath=bath, basis=basis)
            ladder = degenerate_energy_set(params)
            for branch in params.branches:
                res = eigen_lowest(branch.dense(), basis.dim, 1e-10)
                assert np.max(np.abs(res.values - ladder)) <= 1e-12
            report = theorem_report(params, tol=1e-10)
            assert report.verdict == VERDICT_DEGENERATE
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"


def test_criterion_2_strict_nondegeneracy_on_grid(theorem_grid):
    with criterion(2, "margin positive wherever the gap is resolvable"):
        records, elapsed = theorem_grid
        assert len(records) == 96
        for rec in records:
            report, scale = rec["report"], rec["scale"]
            slack = 10.0 * GRID_TOL * scale
            assert report.margin >= -slack
            if (
                report.predicted_gap is not None
                and abs(report.predicted_gap) > GAP_RESOLUTION_FACTOR * EPS * scale
            ):
                assert report.margin > 0.0
        assert elapsed < 120.0, f"grid took {elapsed:.1f}s (budget 120s)"


def test_criterion_3_rayleigh_inequality(theorem_grid):
    with criterion(3, "branch minima sum below twice the degeneracy floor"):
        records, _ = theorem_grid
        for rec in records:
            report, scale = rec["report"], rec["scale"]
            assert (
                report.e_plus_min + report.e_minus_min
                <= 2.0 * report.e_min_eo + 10.0 * GRID_TOL * scale
            )


def test_criterion_4_gap_identity(theorem_grid):
    with criterion(4, "eigenvalue gap equals the parity matrix element form"):
        records, _ = theorem_grid
        checked = 0
        for rec in records:
            if rec["n_modes"] != 1:
                continue
            gap = rec["gap"]
            if abs(gap.overlap) > 1e-6:
                assert gap.abs_err <= 1e-8 * max(1.0, abs(gap.lhs))
                checked += 1
        assert checked > 0


def test_criterion_5_single_mode_oracle_equivalence():
    with criterion(5, "displaced-basis ground energy matches bare-basis oracle"):
        start = time.perf_counter()
        for lam in (0.5, 1.0, 1.5, 2.0):
            for delta in (0.25, 0.5, 1.0):
                bath = bath_from_modes([(1.0, lam)])
                basis = enumerate_basis(1, 40, "per-mode")
                params = ModelParams(delta=delta, bath=bath, basis=basis)
                report = theorem_report(params, tol=1e-10)
                oracle = bare_fock_ground_energy(1.0, lam, delta, 200)
                assert abs(report.e_gs - oracle) <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s (budget 30s)"


def test_criterion_6_matrix_element_oracle():
    with criterion(6, "D elements agree with the bare-basis expansion oracle"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_modes = int(rng.integers(1, 3))
            qs = rng.uniform(0.05, 1.0, size=n_modes)
            omegas = np.sort(rng.uniform(0.3, 2.0, size=n_modes))[::-1]
            bath = bath_from_modes(
                [(float(w), float(2.0 * w * q)) for w, q in zip(omegas, qs)]
            )
            while True:
                m = tuple(int(v) for v in rng.integers(0, 5, size=n_modes))
                n = tuple(int(v) for v in rng.integers(0, 5, size=n_modes))
                if sum(m) + sum(n) <= 8:
                    break
            basis = enumerate_basis(n_modes, 4, "per-mode")
            table = KroneckerParity(basis, bath).dense()
            direct = table[index_of(basis, m), index_of(basis, n)]
            assert abs(direct - overlap_oracle(m, n, bath, 80)) <= 1e-8
            assert table[index_of(basis, n), index_of(basis, m)] == direct
            assert np.array_equal(table, table.T)
        # q = 0 collapses D to the signed identity exactly.
        bath0 = bath_from_modes([(1.0, 0.0), (0.5, 0.0)])
        basis0 = enumerate_basis(2, 3, "per-mode")
        dense = KroneckerParity(basis0, bath0).dense()
        signs = np.array([(-1.0) ** sum(v) for v in basis0.occupations])
        assert np.array_equal(dense, np.diag(signs))


def test_criterion_7_parity_invariance_closed_forms():
    with criterion(7, "diagonal invariance sums match partial exponential series"):
        for q in (0.2, 0.5, 0.8, 1.0):
            bath = bath_from_modes([(1.0, 2.0 * q)])
            mu = 4.0 * q * q
            partial = 0.0
            term = 1.0
            scaled_prev = 0.0
            for n in range(51):
                partial = partial + term
                got = o_diagonal((0,), bath, n)
                assert abs(got - partial) <= 1e-12 * max(1.0, partial)
                scaled = math.exp(-mu) * got
                # Monotone from below, up to 1-ulp wobble between the
                # independently evaluated partial sums at the plateau.
                assert scaled >= scaled_prev - 4.0 * EPS
                assert scaled <= 1.0 + 4.0 * EPS
                scaled_prev = scaled
                term = term * mu / (n + 1)
        bath1 = bath_from_modes([(1.0, 1.0)])  # 4q^2 = 1
        assert abs(
            parity_deficiency(bath1, 1) - (1.0 - 2.0 * math.exp(-1.0))
        ) <= 1e-12


def test_criterion_8_critical_alpha_behavior():
    with criterion(8, "critical dissipation grows with the cap; analytic root"):
        start = time.perf_counter()
        ladder = bath_ladder(0.5, 1.0, 30, 2.0)
        values = [
            critical_alpha(ladder, n_tr=n, epsilon=0.01).alpha_c
            for n in (5, 10, 20, 40)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

        # Single mode with q**2 = alpha/2, i.e. beta = 1.
        beta_one = BathLadder(s=1.0, lambda_disc=math.inf, omegas=(1.0,),
                              hi_pows=(1.0,), wc_pow=1.0, w_shape=1.0)
        point = critical_alpha(beta_one, n_tr=1, epsilon=0.01)
        oracle_x = brentq(
            lambda x: 1.0 - math.exp(-x) * (1.0 + x) - 0.01, 1e-8, 5.0, xtol=1e-15
        )
        assert abs(point.alpha_c - 0.0743) <= 1e-4
        assert abs(point.alpha_c - oracle_x / 2.0) <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 8 took {elapsed:.1f}s (budget 10s)"


def test_criterion_9_phase_diagram_reproducibility(tmp_path):
    with criterion(9, "phase-diagram output is byte-stable and regression-pinned"):
        config = {
            "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
            "disc": {"n_modes": 30, "lambda_disc": 2.0},
            "trunc": {"cap": 20},
            "parity": {"epsilon": 0.01, "m_ref": 0},
            "sweep": {"variable": "s", "from": 0.25, "to": 1.0, "steps": 16},
        }
        cfg_path = tmp_path / "phase.json"
        cfg_path.write_text(json.dumps(config))
        out_a = tmp_path / "run_a.csv"
        out_b = tmp_path / "run_b.csv"
        assert cli.main(
            ["phase-diagram", "--config", str(cfg_path), "--out", str(out_a)]
        ) == 0
        assert cli.main(
            ["phase-diagram", "--config", str(cfg_path), "--out", str(out_b)]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = out_a.read_text().splitlines()
        assert len(rows) == 17
        assert all(float(r.split(",")[1]) > 0.0 for r in rows[1:])
        # Regression pin from the first verified run on this platform.
        assert GOLDEN.exists(), "golden phase diagram missing"
        assert out_a.read_bytes() == GOLDEN.read_bytes()


def test_criterion_10_kronecker_sum_spectral_property():
    with criterion(10, "direct-sum spectrum equals all pairwise branch sums"):
        bath = bath_from_modes([(1.0, 1.0)])
        basis = enumerate_basis(1, 3, "per-mode")
        params = ModelParams(delta=0.2, bath=bath, basis=basis)
        hplus, hminus = (branch.dense() for branch in params.branches)
        combined = eigen_lowest(kronecker_sum(hplus, hminus), 16, 1e-10).values
        ev_plus = eigen_lowest(hplus, 4, 1e-10).values
        ev_minus = eigen_lowest(hminus, 4, 1e-10).values
        pairwise = np.sort(np.add.outer(ev_plus, ev_minus).ravel())
        assert np.max(np.abs(combined - pairwise)) <= 1e-10


def test_criterion_11_closure_ratios():
    with criterion(11, "closure ratios are exact rationals"):
        assert closure_report(1, 9).ratio == Fraction(1, 10)
        assert closure_report(100, 9).ratio == Fraction(10, 1)
        assert closure_report(10, 99).ratio == Fraction(1, 10)
