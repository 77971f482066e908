"""Eigensolving and the ground-state verdicts, checked against a full
bare-basis diagonalization oracle for the single-mode model."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from sbparity import (
    Branch,
    KroneckerParity,
    ModelParams,
    OverlapGuardError,
    ParameterError,
    PerModeCap,
    SolverError,
    TotalQuantaCap,
    bath_from_modes,
    branch_operator,
    degeneracy_condition_value,
    degenerate_energy_set,
    e_min_eo,
    eigen_lowest,
    enumerate_basis,
    gap_identity_check,
    theorem_report,
)
from sbparity import spectra
from sbparity.spectra import (
    VERDICT_DEGENERATE,
    VERDICT_INDETERMINATE,
    VERDICT_STRICT,
    use_lanczos,
)

from conftest import bare_fock_ground_energy, random_bath, single_mode_bath


def make_params(omega, lam, delta, cap):
    bath = bath_from_modes([(omega, lam)])
    return ModelParams(delta=delta, bath=bath, basis=enumerate_basis(1, PerModeCap(cap)))


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
    h = branch_operator(params, Branch.EVEN).dense()
    res = eigen_lowest(h, 4, 1e-10)
    gram = res.vectors.T @ res.vectors
    assert np.allclose(gram, np.eye(4), atol=1e-10)


def test_eigen_is_deterministic():
    params = make_params(1.0, 1.3, 0.4, 25)
    h = branch_operator(params, Branch.EVEN).dense()
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
    h = branch_operator(params, Branch.EVEN).dense()
    with pytest.raises(SolverError) as err:
        eigen_lowest(h, 1, 1e-30)
    assert err.value.residual is not None


def test_ground_energy_matches_bare_basis_oracle():
    # Displaced-basis branch minimum vs full bare-basis diagonalization.
    params = make_params(1.0, 1.0, 0.2, 40)
    res = eigen_lowest(branch_operator(params, Branch.EVEN).dense(), 1, 1e-10)
    oracle = bare_fock_ground_energy(1.0, 1.0, 0.2, 200)
    assert res.values[0] == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# theorem_report
# ---------------------------------------------------------------------------

def test_theorem_degenerate_at_zero_tunneling(rng):
    bath = random_bath(rng, 1)
    params = ModelParams(delta=0.0, bath=bath, basis=enumerate_basis(1, PerModeCap(10)))
    report = theorem_report(params)
    assert report.verdict == VERDICT_DEGENERATE
    assert report.margin == pytest.approx(0.0, abs=1e-12)
    assert report.measured_gap == pytest.approx(0.0, abs=1e-12)
    assert report.e_gs == min(report.e_plus_min, report.e_minus_min)


def test_theorem_decoupled_limit():
    params = ModelParams(
        delta=0.4,
        bath=bath_from_modes([(1.0, 0.0)]),
        basis=enumerate_basis(1, PerModeCap(6)),
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
            basis=enumerate_basis(1, PerModeCap(25)),
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
        basis=enumerate_basis(1, PerModeCap(4)),
    )
    report = theorem_report(params)
    assert report.predicted_gap is None
    assert report.verdict == VERDICT_INDETERMINATE
    assert report.margin == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(OverlapGuardError):
        gap_identity_check(params)


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
        basis = enumerate_basis(n_modes, PerModeCap(3))
        params = ModelParams(delta=0.0, bath=bath, basis=basis)
        ladder = degenerate_energy_set(basis, bath)
        for branch in (Branch.EVEN, Branch.ODD):
            res = eigen_lowest(branch_operator(params, branch).dense(), basis.dim, 1e-10)
            assert np.allclose(res.values, ladder, atol=1e-12)


# ---------------------------------------------------------------------------
# Gap identity
# ---------------------------------------------------------------------------

def test_gap_identity_decoupled():
    params = ModelParams(
        delta=0.5,
        bath=bath_from_modes([(1.0, 0.0)]),
        basis=enumerate_basis(1, PerModeCap(5)),
    )
    result = gap_identity_check(params)
    assert result.lhs == pytest.approx(0.5, abs=1e-12)
    assert result.rhs == pytest.approx(0.5, abs=1e-12)


def test_gap_identity_zero_delta():
    params = make_params(1.0, 0.7, 0.0, 15)
    result = gap_identity_check(params)
    assert result.lhs == pytest.approx(0.0, abs=1e-12)
    assert result.rhs == pytest.approx(0.0, abs=1e-12)


def test_gap_identity_converged_ground_pair():
    params = make_params(1.0, 0.8, 0.3, 40)
    result = gap_identity_check(params)
    assert result.abs_err <= 1e-8 * max(1.0, abs(result.lhs))


def test_gap_identity_excited_levels():
    params = make_params(1.0, 0.6, 0.25, 40)
    result = gap_identity_check(params, level_plus=1, level_minus=1)
    assert result.abs_err <= 1e-8 * max(1.0, abs(result.lhs))


# ---------------------------------------------------------------------------
# Degeneracy condition
# ---------------------------------------------------------------------------

def test_degeneracy_condition_on_basis_vectors():
    bath = single_mode_bath(1.0, 1.0)  # q = 0.5
    basis = enumerate_basis(1, PerModeCap(3))
    table = KroneckerParity(basis, bath).dense()
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    assert degeneracy_condition_value(e0, e0, table) == pytest.approx(
        math.exp(-0.5), rel=1e-12
    )


def test_degeneracy_condition_zero_displacement():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, PerModeCap(3))
    table = KroneckerParity(basis, bath).dense()
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    e1 = np.zeros(basis.dim)
    e1[1] = 1.0
    assert degeneracy_condition_value(e0, e1, table) == 0.0


def test_degeneracy_condition_consistent_with_gap():
    params = make_params(1.0, 1.0, 0.2, 30)
    table = KroneckerParity(params.basis, params.bath).dense()
    res_plus = eigen_lowest(branch_operator(params, Branch.EVEN).dense(table), 1, 1e-10)
    res_minus = eigen_lowest(branch_operator(params, Branch.ODD).dense(table), 1, 1e-10)
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


def seeded_params(seed, n_modes, policy):
    rng = np.random.default_rng(seed)
    bath = random_bath(rng, n_modes)
    return ModelParams(delta=float(rng.uniform(0.05, 0.5)), bath=bath,
                       basis=enumerate_basis(n_modes, policy))


LANCZOS_CASES = {
    # H is diag(n1 + n2): levels exactly 0, 1, 1, 2.
    "zero-delta-q0-pair": lambda: ModelParams(
        delta=0.0, bath=identical_modes_bath(1.0, 0.0), basis=enumerate_basis(2, PerModeCap(25))),
    # Exchange symmetry of the two modes makes levels degenerate.
    "identical-modes": lambda: ModelParams(
        delta=0.2, bath=identical_modes_bath(1.0, 0.8), basis=enumerate_basis(2, PerModeCap(25))),
    "q0-beside-coupled": lambda: ModelParams(
        delta=0.3, bath=bath_from_modes([(1.0, 0.9), (0.5, 0.0)]),
        basis=enumerate_basis(2, PerModeCap(25))),
    "m2-pm30-seed1": lambda: seeded_params(1, 2, PerModeCap(30)),
    "m2-pm30-seed2": lambda: seeded_params(2, 2, PerModeCap(30)),
    "m3-tq16-seed1": lambda: seeded_params(1, 3, TotalQuantaCap(16)),
    "m3-tq16-seed2": lambda: seeded_params(2, 3, TotalQuantaCap(16)),
}


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_lanczos_matches_dense_solve(case):
    params = LANCZOS_CASES[case]()
    parity = KroneckerParity(params.basis, params.bath)
    table = parity.dense()
    for branch in (Branch.EVEN, Branch.ODD):
        op = branch_operator(params, branch, parity)
        dense = op.dense(table)
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
    params = seeded_params(3, 3, TotalQuantaCap(16))
    assert use_lanczos(params.basis, 2)
    lanczos = theorem_report(params)
    gap = gap_identity_check(params, level_plus=1, level_minus=1)
    monkeypatch.setattr(spectra, "use_lanczos", lambda basis, k: False)
    dense = theorem_report(params)
    dense_gap = gap_identity_check(params, level_plus=1, level_minus=1)
    for key in ("e_gs", "e_plus_min", "e_minus_min", "margin", "measured_gap",
                "predicted_gap"):
        assert getattr(lanczos, key) == pytest.approx(getattr(dense, key), abs=1e-10)
    assert lanczos.verdict == dense.verdict == VERDICT_STRICT
    assert gap.lhs == pytest.approx(dense_gap.lhs, abs=1e-10)
    assert gap.rhs == pytest.approx(dense_gap.rhs, abs=1e-9)


def test_solve_branches_returns_the_d_of_its_path():
    # The dense path hands back the dense D array its branches were built on,
    # so later products with D (the theorem's predicted gap) stay dense ones.
    dense_params = seeded_params(5, 3, PerModeCap(6))
    assert not use_lanczos(dense_params.basis, 1)
    table, res_plus, _ = spectra.solve_branches(dense_params, 1, 1, 1e-10)
    assert isinstance(table, np.ndarray)
    assert np.array_equal(table, KroneckerParity(dense_params.basis, dense_params.bath).dense())
    h = branch_operator(dense_params, Branch.EVEN).dense()
    assert np.array_equal(res_plus.values, eigen_lowest(h, 1, 1e-10).values)
    lanczos_params = seeded_params(5, 3, TotalQuantaCap(16))
    assert use_lanczos(lanczos_params.basis, 1)
    parity, _, _ = spectra.solve_branches(lanczos_params, 1, 1, 1e-10)
    assert isinstance(parity, KroneckerParity)
    assert parity.basis is lanczos_params.basis


def test_degeneracy_condition_through_the_operator(rng):
    params = seeded_params(4, 3, TotalQuantaCap(5))
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
        eigen_lowest(branch_operator(params, Branch.EVEN), 2, 1e-10)
    assert err.value.residual is not None
    assert calls == [2, 1]


def test_lanczos_without_convergence_is_a_solver_error():
    params = LANCZOS_CASES["m2-pm30-seed1"]()
    with pytest.raises(SolverError, match="max_iter = 1") as err:
        eigen_lowest(branch_operator(params, Branch.EVEN), 1, 1e-10, max_iter=1)
    assert err.value.residual is not None


def test_lanczos_validation():
    params = make_params(1.0, 1.0, 0.2, 30)
    h = branch_operator(params, Branch.EVEN)
    with pytest.raises(ParameterError):
        eigen_lowest(h, 2, 1e-10)  # k = 2 is too close to dim = 31
    with pytest.raises(ParameterError):
        eigen_lowest(h, 1, 1e-10, max_iter=0)
