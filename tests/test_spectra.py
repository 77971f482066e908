"""Eigensolving and the ground-state verdicts, checked against a full
bare-basis diagonalization oracle for the single-mode model."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg

from sbparity import (
    KroneckerParity,
    ModelParams,
    ParameterError,
    SolverError,
    bath_from_modes,
    degeneracy_condition_value,
    degenerate_energy_set,
    e_min_eo,
    eigen_lowest,
    enumerate_basis,
    theorem_report,
)
from sbparity import cli, spectra
from sbparity.spectra import (
    VERDICT_DEGENERATE,
    VERDICT_INDETERMINATE,
    VERDICT_STRICT,
    use_lanczos,
)

from conftest import bare_fock_ground_energy, gap_identity, random_bath, single_mode_bath


def make_params(omega, lam, delta, cap):
    bath = bath_from_modes([(omega, lam)])
    return ModelParams(delta=delta, bath=bath, basis=enumerate_basis(1, cap, "per-mode"))


# ---------------------------------------------------------------------------
# eigen_lowest
# ---------------------------------------------------------------------------

def test_eigen_flip_matrix():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = eigen_lowest(h, 2, 1e-10)
    assert np.allclose(res.values, [-1.0, 1.0], atol=1e-14)
    assert res.residual <= 1e-14


def test_eigen_sorts_diagonal():
    h = np.diag([3.0, 1.0, 2.0])
    res = eigen_lowest(h, 3, 1e-10)
    assert np.array_equal(res.values, [1.0, 2.0, 3.0])


def test_eigen_orthonormal_vectors():
    params = make_params(1.0, 1.0, 0.2, 20)
    h = params.branches[0].dense()
    res = eigen_lowest(h, 4, 1e-10)
    gram = res.vectors.T @ res.vectors
    assert np.allclose(gram, np.eye(4), atol=1e-10)


def test_eigen_is_deterministic():
    params = make_params(1.0, 1.3, 0.4, 25)
    h = params.branches[0].dense()
    a = eigen_lowest(h, 3, 1e-10)
    b = eigen_lowest(h, 3, 1e-10)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eigen_validation():
    h = np.diag([1.0, 2.0])
    with pytest.raises(ParameterError):
        eigen_lowest(h, 0, 1e-10)
    with pytest.raises(ParameterError):
        eigen_lowest(h, 3, 1e-10)
    with pytest.raises(ParameterError):
        eigen_lowest(h, 1, 0.0)


def test_eigen_residual_contract():
    params = make_params(1.0, 1.0, 0.2, 30)
    h = params.branches[0].dense()
    with pytest.raises(SolverError) as err:
        eigen_lowest(h, 1, 1e-30)
    assert err.value.residual is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [0, 500, 700, 1000])
def test_residual_scales_exactly_past_the_square_overflow(exponent):
    # H, the values and so every residual entry scaled by 2**exponent: the
    # residual scales by exactly that power, though past ~1.3e154 a plain
    # sum of squares overflows, and nothing warns.
    rng = np.random.default_rng(3)
    h = rng.standard_normal((12, 12))
    h = h + h.T
    values, vectors = np.linalg.eigh(h)
    values, vectors = values[:3] + 1e-3, vectors[:, :3]
    expected = math.ldexp(spectra._residual(h, values, vectors), exponent)
    scaled = spectra._residual(np.ldexp(h, exponent), np.ldexp(values, exponent), vectors)
    assert scaled.hex() == expected.hex()
    assert math.isfinite(scaled)


def test_ground_energy_matches_bare_basis_oracle():
    # Displaced-basis branch minimum vs full bare-basis diagonalization.
    params = make_params(1.0, 1.0, 0.2, 40)
    res = eigen_lowest(params.branches[0].dense(), 1, 1e-10)
    oracle = bare_fock_ground_energy(1.0, 1.0, 0.2, 200)
    assert res.values[0] == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# theorem_report
# ---------------------------------------------------------------------------

def test_theorem_degenerate_at_zero_tunneling(rng):
    bath = random_bath(rng, 1)
    params = ModelParams(delta=0.0, bath=bath, basis=enumerate_basis(1, 10, "per-mode"))
    report = theorem_report(params)
    assert report.verdict == VERDICT_DEGENERATE
    assert report.margin == pytest.approx(0.0, abs=1e-12)
    assert report.measured_gap == pytest.approx(0.0, abs=1e-12)
    assert report.e_gs == min(report.e_plus_min, report.e_minus_min)


def test_theorem_decoupled_limit():
    params = ModelParams(
        delta=0.4,
        bath=bath_from_modes([(1.0, 0.0)]),
        basis=enumerate_basis(1, 6, "per-mode"),
    )
    report = theorem_report(params)
    assert report.e_gs == pytest.approx(-0.2, abs=1e-12)
    assert report.e_min_eo == 0.0
    assert report.margin == pytest.approx(0.2, abs=1e-12)
    assert report.measured_gap == pytest.approx(0.4, abs=1e-12)
    assert report.verdict == VERDICT_STRICT


def test_theorem_margin_matches_oracle():
    params = make_params(1.0, 1.0, 0.2, 40)
    report = theorem_report(params)
    oracle_margin = e_min_eo(params.bath) - bare_fock_ground_energy(1.0, 1.0, 0.2, 200)
    assert report.margin > 0.0
    assert report.margin == pytest.approx(oracle_margin, abs=1e-8)
    assert report.verdict == VERDICT_STRICT


def test_theorem_rayleigh_inequality_holds(rng):
    for _ in range(8):
        bath = random_bath(rng, 1)
        params = ModelParams(
            delta=float(rng.uniform(0.0, 1.0)),
            bath=bath,
            basis=enumerate_basis(1, 25, "per-mode"),
        )
        report = theorem_report(params, tol=1e-10)
        assert report.e_plus_min + report.e_minus_min <= 2.0 * report.e_min_eo + 1e-8


def test_theorem_predicted_gap_equals_measured_gap():
    # For converged ground pairs the two gap routes agree to solver accuracy.
    params = make_params(1.0, 0.9, 0.3, 35)
    report = theorem_report(params)
    assert report.predicted_gap == pytest.approx(report.measured_gap, abs=1e-9)


def test_theorem_handles_orthogonal_ground_pair():
    # Decoupled bath with delta > omega: the odd ground state moves to |1>,
    # the overlap vanishes, and the gap identity is reported unavailable.
    params = ModelParams(
        delta=3.0,
        bath=bath_from_modes([(1.0, 0.0)]),
        basis=enumerate_basis(1, 4, "per-mode"),
    )
    report = theorem_report(params)
    assert report.predicted_gap is None
    assert report.verdict == VERDICT_INDETERMINATE
    assert report.margin == pytest.approx(1.5, abs=1e-12)


def test_variational_monotonicity_in_cap():
    energies = []
    for cap in (10, 20, 40):
        params = make_params(1.0, 1.4, 0.5, cap)
        energies.append(theorem_report(params).e_gs)
    assert energies[0] >= energies[1] >= energies[2]


def test_branch_spectra_match_ladder_exactly_at_zero_delta(rng):
    for _ in range(5):
        n_modes = int(rng.integers(1, 4))
        bath = random_bath(rng, n_modes)
        basis = enumerate_basis(n_modes, 3, "per-mode")
        params = ModelParams(delta=0.0, bath=bath, basis=basis)
        ladder = degenerate_energy_set(params)
        for branch in params.branches:
            res = eigen_lowest(branch.dense(), basis.dim, 1e-10)
            assert np.allclose(res.values, ladder, atol=1e-12)


# ---------------------------------------------------------------------------
# Gap identity
# ---------------------------------------------------------------------------

def test_gap_identity_decoupled():
    params = ModelParams(
        delta=0.5,
        bath=bath_from_modes([(1.0, 0.0)]),
        basis=enumerate_basis(1, 5, "per-mode"),
    )
    result = gap_identity(params)
    assert result.lhs == pytest.approx(0.5, abs=1e-12)
    assert result.rhs == pytest.approx(0.5, abs=1e-12)


def test_gap_identity_zero_delta():
    params = make_params(1.0, 0.7, 0.0, 15)
    result = gap_identity(params)
    assert result.lhs == pytest.approx(0.0, abs=1e-12)
    assert result.rhs == pytest.approx(0.0, abs=1e-12)


def test_gap_identity_converged_ground_pair():
    params = make_params(1.0, 0.8, 0.3, 40)
    result = gap_identity(params)
    assert result.abs_err <= 1e-8 * max(1.0, abs(result.lhs))


def test_gap_identity_excited_levels():
    params = make_params(1.0, 0.6, 0.25, 40)
    result = gap_identity(params, level=1)
    assert result.abs_err <= 1e-8 * max(1.0, abs(result.lhs))


# ---------------------------------------------------------------------------
# Degeneracy condition
# ---------------------------------------------------------------------------

def test_degeneracy_condition_on_basis_vectors():
    bath = single_mode_bath(1.0, 1.0)  # q = 0.5
    basis = enumerate_basis(1, 3, "per-mode")
    table = KroneckerParity(basis, bath).dense()
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    assert degeneracy_condition_value(e0, e0, table) == pytest.approx(
        math.exp(-0.5), rel=1e-12
    )


def test_degeneracy_condition_zero_displacement():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, 3, "per-mode")
    table = KroneckerParity(basis, bath).dense()
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    e1 = np.zeros(basis.dim)
    e1[1] = 1.0
    assert degeneracy_condition_value(e0, e1, table) == 0.0


def test_degeneracy_condition_consistent_with_gap():
    params = make_params(1.0, 1.0, 0.2, 30)
    table = KroneckerParity(params.basis, params.bath).dense()
    res_plus = eigen_lowest(params.branches[0].dense(), 1, 1e-10)
    res_minus = eigen_lowest(params.branches[1].dense(), 1, 1e-10)
    phi_plus = res_plus.vectors[:, 0]
    phi_minus = res_minus.vectors[:, 0]
    value = degeneracy_condition_value(phi_plus, phi_minus, table)
    overlap = float(phi_plus @ phi_minus)
    measured_gap = float(res_minus.values[0] - res_plus.values[0])
    assert value == pytest.approx(measured_gap / params.delta * overlap, abs=1e-10)


# ---------------------------------------------------------------------------
# Lanczos on the matrix-free branch operator
# ---------------------------------------------------------------------------

def identical_modes_bath(omega, lam):
    """Two modes of equal frequency and coupling.  bath_from_modes wants
    strictly decreasing frequencies, so the pair is set up directly."""
    one = bath_from_modes([(omega, lam)])
    return dataclasses.replace(one, omegas=one.omegas * 2, lams=one.lams * 2, qs=one.qs * 2,
                               sum_wq2=2.0 * one.sum_wq2, sum_q2=2.0 * one.sum_q2)


def seeded_params(seed, n_modes, cap, policy):
    rng = np.random.default_rng(seed)
    bath = random_bath(rng, n_modes)
    return ModelParams(delta=float(rng.uniform(0.05, 0.5)), bath=bath,
                       basis=enumerate_basis(n_modes, cap, policy))


LANCZOS_CASES = {
    # H is diag(n1 + n2): levels exactly 0, 1, 1, 2.
    "zero-delta-q0-pair": lambda: ModelParams(
        delta=0.0, bath=identical_modes_bath(1.0, 0.0), basis=enumerate_basis(2, 25, "per-mode")),
    # Exchange symmetry of the two modes makes levels degenerate.
    "identical-modes": lambda: ModelParams(
        delta=0.2, bath=identical_modes_bath(1.0, 0.8), basis=enumerate_basis(2, 25, "per-mode")),
    "q0-beside-coupled": lambda: ModelParams(
        delta=0.3, bath=bath_from_modes([(1.0, 0.9), (0.5, 0.0)]),
        basis=enumerate_basis(2, 25, "per-mode")),
    "m2-pm30-seed1": lambda: seeded_params(1, 2, 30, "per-mode"),
    "m2-pm30-seed2": lambda: seeded_params(2, 2, 30, "per-mode"),
    "m3-tq16-seed1": lambda: seeded_params(1, 3, 16, "total-quanta"),
    "m3-tq16-seed2": lambda: seeded_params(2, 3, 16, "total-quanta"),
}


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_lanczos_matches_dense_solve(case):
    params = LANCZOS_CASES[case]()
    for op in params.branches:
        dense = op.dense()
        reference = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[0, 3])
        for k in (1, 4):
            assert use_lanczos(params.basis, k)
            res = eigen_lowest(op, k, 1e-10)
            # Degenerate levels appear as often as in the dense solve.
            assert np.allclose(res.values, reference[:k], rtol=0.0, atol=1e-10)
            assert np.max(np.linalg.norm(dense @ res.vectors - res.vectors * res.values,
                                         axis=0)) <= 1e-10
            assert np.allclose(res.vectors.T @ res.vectors, np.eye(k), atol=1e-10)
            leads = res.vectors[np.argmax(np.abs(res.vectors), axis=0), np.arange(k)]
            assert np.all(leads > 0.0)
    if case == "zero-delta-q0-pair":
        assert np.allclose(reference, [0.0, 1.0, 1.0, 2.0], rtol=0.0, atol=1e-12)


def test_theorem_and_gap_identity_agree_on_both_paths(monkeypatch):
    params = seeded_params(3, 3, 16, "total-quanta")
    assert use_lanczos(params.basis, 2)
    lanczos = theorem_report(params)
    gap = gap_identity(params, level=1)
    monkeypatch.setattr(spectra, "use_lanczos", lambda basis, k: False)
    dense = theorem_report(params)
    dense_gap = gap_identity(params, level=1)
    for key in ("e_gs", "e_plus_min", "e_minus_min", "margin", "measured_gap",
                "predicted_gap"):
        assert getattr(lanczos, key) == pytest.approx(getattr(dense, key), abs=1e-10)
    assert lanczos.verdict == dense.verdict == VERDICT_STRICT
    assert gap.lhs == pytest.approx(dense_gap.lhs, abs=1e-10)
    assert gap.rhs == pytest.approx(dense_gap.rhs, abs=1e-9)


def test_solve_branches_returns_the_d_of_its_path():
    # The dense path hands back the dense D array its branches were built on,
    # so later products with D (the theorem's predicted gap) stay dense ones.
    dense_params = seeded_params(5, 3, 6, "per-mode")
    assert not use_lanczos(dense_params.basis, 1)
    table, res_plus, _ = spectra.solve_branches(dense_params, 1, 1e-10)
    assert isinstance(table, np.ndarray)
    assert np.array_equal(table, KroneckerParity(dense_params.basis, dense_params.bath).dense())
    h = dense_params.branches[0].dense()
    assert np.array_equal(res_plus.values, eigen_lowest(h, 1, 1e-10).values)
    lanczos_params = seeded_params(5, 3, 16, "total-quanta")
    assert use_lanczos(lanczos_params.basis, 1)
    parity, _, _ = spectra.solve_branches(lanczos_params, 1, 1e-10)
    assert isinstance(parity, KroneckerParity)
    assert parity.basis is lanczos_params.basis


def test_degeneracy_condition_through_the_operator(rng):
    params = seeded_params(4, 3, 5, "total-quanta")
    a = rng.standard_normal(params.basis.dim)
    b = rng.standard_normal(params.basis.dim)
    parity = KroneckerParity(params.basis, params.bath)
    through_table = degeneracy_condition_value(a, b, parity.dense())
    through_operator = degeneracy_condition_value(a, b, parity)
    assert through_operator == pytest.approx(through_table, rel=1e-12)


def test_lanczos_completeness_check_catches_a_skipped_level(monkeypatch):
    import scipy.sparse.linalg as sla

    real = sla.eigsh
    calls = []

    def skipping(op, k, **kwargs):
        calls.append(k)
        if len(calls) > 1:
            return real(op, k=k, **kwargs)
        # The solve hands back levels 1..k and passes over the ground level.
        values, vectors = real(op, k=k + 1, **kwargs)
        order = np.argsort(values)
        return values[order][1:], vectors[:, order][:, 1:]

    monkeypatch.setattr(sla, "eigsh", skipping)
    params = LANCZOS_CASES["m2-pm30-seed1"]()
    with pytest.raises(SolverError, match="missed a level") as err:
        eigen_lowest(params.branches[0], 2, 1e-10)
    assert err.value.residual is not None
    assert calls == [2]


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_completeness_check_finds_the_next_level(case, monkeypatch):
    # The check's search returns the lowest level of H with the k returned
    # pairs deflated to c = 2 * (lambda_k - sigma) in the shifted operator:
    # lambda_{k+1}, or c + sigma where that lies lower.
    found = []
    search = spectra._lowest_level

    def spy(matvec, diag, bound, max_iter):
        found.append((search(matvec, diag, bound, max_iter), diag))
        return found[-1][0]

    monkeypatch.setattr(spectra, "_lowest_level", spy)
    params = LANCZOS_CASES[case]()
    for op in params.branches:
        reference = scipy.linalg.eigh(op.dense(), eigvals_only=True, subset_by_index=[0, 4])
        for k in (1, 4):
            res = eigen_lowest(op, k, 1e-10)
            value, diag = found[-1]
            sigma = op.h0 - diag
            assert np.allclose(sigma, sigma[0], rtol=0.0, atol=1e-13)
            expected = min(reference[k], 2.0 * res.values[-1] - sigma[0])
            assert value + sigma[0] == pytest.approx(expected, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("seed", [29, 80, 87])
def test_completeness_search_orthogonalizes_again_after_cancellation(seed):
    # One preconditioner entry near 0 makes r / diag point almost along a
    # direction the basis already holds, so one Gram-Schmidt pass leaves
    # mostly rounding error.  With that pass alone these searches return
    # ~1e-15 for the lowest level, 1.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((36, 36))
    a += a.T
    a += (1.0 - scipy.linalg.eigvalsh(a)[0]) * np.eye(36)
    diag = np.ones(36)
    diag[rng.integers(36)] = 10.0 ** rng.uniform(-12, -4)
    value = spectra._lowest_level(lambda x: a @ x, diag, 1e-10, 10_000)
    assert value == pytest.approx(scipy.linalg.eigvalsh(a)[0], rel=0.0, abs=1e-8)


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_completeness_check_raises_exactly_on_a_skipped_level(case, monkeypatch):
    # The solve hands back levels 0..top but one; from every start seed the
    # check must raise exactly when the skipped level lies more than its
    # margin below the highest returned.  Only the degenerate levels of
    # zero-delta-q0-pair (0, 1, 1, 2) give a skip that must pass.
    import scipy.sparse.linalg as sla

    params = LANCZOS_CASES[case]()
    tol = 1e-10
    for op in params.branches:
        levels, vectors = scipy.linalg.eigh(op.dense(), subset_by_index=[0, 3])
        margin = 10.0 * tol * max(1.0, np.max(np.abs(op.h0)) + abs(op.coupling))
        for top, skipped in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
            kept = vectors[:, [i for i in range(top + 1) if i != skipped]]

            def solve(shifted, k, **kwargs):
                return np.array([v @ shifted.matvec(v) for v in kept.T]), kept

            monkeypatch.setattr(sla, "eigsh", solve)
            for seed in range(2, 7):
                monkeypatch.setattr(spectra, "_CHECK_SEED", seed)
                if levels[skipped] < levels[top] - margin:
                    with pytest.raises(SolverError, match="missed a level"):
                        eigen_lowest(op, top, tol)
                else:
                    assert eigen_lowest(op, top, tol).values[-1] == pytest.approx(
                        levels[top], rel=0.0, abs=1e-12)


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_completeness_check_product_budget(case, monkeypatch):
    # A tripwire on the check's cost, counted through the parity operator:
    # every product after the solve returns, less the k residual products.
    # The search takes 14-41 here; a check by a second Lanczos solve, 111-181.
    import scipy.sparse.linalg as sla

    products = []
    solve_products = []
    apply = KroneckerParity.apply
    solve = sla.eigsh

    def counting_apply(self, x):
        products.append(1)
        return apply(self, x)

    def counting_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        solve_products.append(len(products))
        return result

    monkeypatch.setattr(KroneckerParity, "apply", counting_apply)
    monkeypatch.setattr(sla, "eigsh", counting_solve)
    params = LANCZOS_CASES[case]()
    for op in params.branches:
        for k in (1, 4):
            eigen_lowest(op, k, 1e-10)
            assert 0 < len(products) - solve_products[-1] - k <= 60


def solve_to_convergence(monkeypatch):
    """Let every ``eigsh`` call run to convergence whatever ``max_iter`` is
    passed, so that only the completeness check can fail on it."""
    import scipy.sparse.linalg as sla

    solve = sla.eigsh

    def converged(shifted, k, **kwargs):
        return solve(shifted, k=k, **{**kwargs, "maxiter": None})

    monkeypatch.setattr(sla, "eigsh", converged)


def test_completeness_check_without_convergence_is_a_solver_error(monkeypatch):
    solve_to_convergence(monkeypatch)
    params = LANCZOS_CASES["m3-tq16-seed2"]()
    op = params.branches[0]
    assert eigen_lowest(op, 1, 1e-10, max_iter=2).values.shape == (1,)
    with pytest.raises(SolverError, match="completeness check did not converge "
                                          "within max_iter = 1") as err:
        eigen_lowest(op, 1, 1e-10, max_iter=1)
    assert err.value.residual is not None and err.value.residual <= 1e-9


def test_completeness_check_without_convergence_exits_3(tmp_path, capsys, monkeypatch):
    solve_to_convergence(monkeypatch)
    config = {"model": {"delta": 0.3, "omega_c": 1.0, "s": 0.6, "alpha": 0.2},
              "disc": {"n_modes": 3, "lambda_disc": 2.0},
              "trunc": {"policy": "total-quanta", "cap": 16},
              "solver": {"max_iter": 1}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["theorem", "--config", str(path)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "SolverError"
    assert "completeness check did not converge" in error["message"]


def test_lanczos_without_convergence_is_a_solver_error():
    params = LANCZOS_CASES["m2-pm30-seed1"]()
    with pytest.raises(SolverError, match="max_iter = 1") as err:
        eigen_lowest(params.branches[0], 1, 1e-10, max_iter=1)
    assert err.value.residual is not None


@pytest.mark.parametrize("command", ["theorem", "spectrum"])
def test_the_lanczos_shift_keeps_its_margin_at_large_h0(tmp_path, capsys, command):
    # At |H0| ~ 1e150 the shift min(h0) - delta/2 - 1 rounds to min(h0): the
    # completeness check then divided by a zero diagonal, warned, and exited 3.
    config = {"model": {"delta": 1, "omega_c": 1e150, "s": 0.5, "alpha": 1},
              "disc": {"n_modes": 2, "lambda_disc": 10.0},
              "trunc": {"policy": "per-mode", "cap": 20}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert use_lanczos(cli._model_params(cli.load_config(path)).basis, 1)
    code = cli.main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    if command == "theorem":
        assert json.loads(captured.out)["verdict"] == VERDICT_INDETERMINATE


def test_lanczos_validation():
    params = make_params(1.0, 1.0, 0.2, 30)
    h = params.branches[0]
    with pytest.raises(ParameterError):
        eigen_lowest(h, 2, 1e-10)  # k = 2 is too close to dim = 31
    with pytest.raises(ParameterError):
        eigen_lowest(h, 1, 1e-10, max_iter=0)
