"""Branch assembly, the degenerate-energy ladder, and the Kronecker-sum
spectral property."""

import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from sbparity import (
    Branch,
    CapacityError,
    KroneckerParity,
    ModelParams,
    ParameterError,
    PerModeCap,
    TotalQuantaCap,
    bath_from_modes,
    branch_operator,
    degenerate_energy_set,
    e_min_eo,
    enumerate_basis,
    h0_diagonal,
    kronecker_sum,
)

from sbparity.fockspace import single_mode_d_table

from conftest import random_bath, single_mode_bath


def test_h0_single_mode_ladder():
    bath = single_mode_bath(1.0, 1.0)  # q = 0.5 shifts everything by -0.25
    basis = enumerate_basis(1, PerModeCap(2))
    h0 = h0_diagonal(basis, bath)
    assert np.array_equal(h0, [-0.25, 0.75, 1.75])


def test_h0_decoupled_is_bare_ladder():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, PerModeCap(4))
    assert np.array_equal(h0_diagonal(basis, bath), [0, 1, 2, 3, 4])


def test_h0_two_mode_hand_sum():
    bath = bath_from_modes([(1.0, 1.0), (0.5, 0.0)])  # q = (0.5, 0)
    basis = enumerate_basis(2, PerModeCap(1))
    h0 = h0_diagonal(basis, bath)
    idx = basis.index_of((1, 1))
    # 1*1 + 0.5*1 - (1*0.25 + 0.5*0) accumulated independently by hand
    expected = math.fsum([1.0, 0.5, -0.25])
    assert h0[idx] == pytest.approx(expected, abs=1e-15)
    assert expected == 1.25


def test_branches_coincide_at_zero_tunneling():
    bath = single_mode_bath(1.0, 0.8)
    basis = enumerate_basis(1, PerModeCap(5))
    params = ModelParams(delta=0.0, bath=bath, basis=basis)
    hplus = branch_operator(params, Branch.EVEN).dense()
    hminus = branch_operator(params, Branch.ODD).dense()
    h0 = np.diag(h0_diagonal(basis, bath))
    assert np.array_equal(hplus, h0)
    assert np.array_equal(hminus, h0)


def test_decoupled_branches_are_shifted_diagonals():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, PerModeCap(1))
    params = ModelParams(delta=0.3, bath=bath, basis=basis)
    hplus = branch_operator(params, Branch.EVEN).dense()
    hminus = branch_operator(params, Branch.ODD).dense()
    assert np.allclose(hplus, np.diag([-0.15, 1.15]), atol=1e-15)
    assert np.allclose(hminus, np.diag([0.15, 0.85]), atol=1e-15)


def test_branch_sum_recovers_twice_h0(rng):
    for _ in range(10):
        bath = random_bath(rng, 2)
        basis = enumerate_basis(2, PerModeCap(3))
        params = ModelParams(delta=float(rng.uniform(0.0, 1.0)), bath=bath, basis=basis)
        table = KroneckerParity(basis, bath).dense()
        hplus = branch_operator(params, Branch.EVEN).dense(table)
        hminus = branch_operator(params, Branch.ODD).dense(table)
        h0 = np.diag(h0_diagonal(basis, bath))
        assert np.allclose(hplus + hminus, 2.0 * h0, atol=1e-15)


def test_branch_swap_identity(rng):
    # The API rejects delta < 0; the swap identity H-(delta) = H0 + (delta/2) D
    # = "H+ at -delta" is asserted entrywise from the assembled pieces.
    bath = random_bath(rng, 1)
    basis = enumerate_basis(1, PerModeCap(6))
    delta = 0.37
    params = ModelParams(delta=delta, bath=bath, basis=basis)
    table = KroneckerParity(basis, bath).dense()
    hminus = branch_operator(params, Branch.ODD).dense(table)
    manual = np.diag(h0_diagonal(basis, bath)) + 0.5 * delta * table
    assert np.array_equal(hminus, manual)
    with pytest.raises(ParameterError):
        ModelParams(delta=-0.1, bath=bath, basis=basis)


def test_branch_spectra_swap_under_delta_sign(rng):
    bath = random_bath(rng, 1)
    basis = enumerate_basis(1, PerModeCap(8))
    table = KroneckerParity(basis, bath).dense()
    params = ModelParams(delta=0.4, bath=bath, basis=basis)
    hminus = branch_operator(params, Branch.ODD).dense(table)
    h_plus_neg = np.diag(h0_diagonal(basis, bath)) + 0.2 * table
    ev_minus = scipy.linalg.eigvalsh(hminus)
    ev_plus_neg = scipy.linalg.eigvalsh(h_plus_neg)
    assert np.allclose(ev_minus, ev_plus_neg, atol=1e-14)


def test_degenerate_energy_set_single_mode():
    bath = single_mode_bath(1.0, 1.0)
    basis = enumerate_basis(1, PerModeCap(2))
    assert np.array_equal(degenerate_energy_set(basis, bath), [-0.25, 0.75, 1.75])


def test_degenerate_energy_set_decoupled():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, PerModeCap(5))
    assert np.array_equal(degenerate_energy_set(basis, bath), np.arange(6.0))


def test_degenerate_set_minimum_is_e_min_eo(rng):
    for _ in range(50):
        n_modes = int(rng.integers(1, 4))
        bath = random_bath(rng, n_modes)
        basis = enumerate_basis(n_modes, PerModeCap(int(rng.integers(1, 4))))
        energies = degenerate_energy_set(basis, bath)
        assert energies[0] == pytest.approx(e_min_eo(bath), abs=1e-15)
        assert np.all(np.diff(energies) >= 0.0)


def test_kronecker_sum_of_diagonals():
    a = np.diag([1.0, 2.0])
    b = np.diag([10.0, 20.0])
    ev = np.sort(scipy.linalg.eigvalsh(kronecker_sum(a, b)))
    assert np.allclose(ev, [11.0, 12.0, 21.0, 22.0], atol=1e-14)


def test_kronecker_sum_of_flips():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    ev = np.sort(scipy.linalg.eigvalsh(kronecker_sum(flip, flip)))
    assert np.allclose(ev, [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_kronecker_sum_spectral_property_on_branches():
    bath = single_mode_bath(1.0, 1.0)
    basis = enumerate_basis(1, PerModeCap(3))
    params = ModelParams(delta=0.2, bath=bath, basis=basis)
    table = KroneckerParity(basis, bath).dense()
    hplus = branch_operator(params, Branch.EVEN).dense(table)
    hminus = branch_operator(params, Branch.ODD).dense(table)
    ksum = kronecker_sum(hplus, hminus)
    ev = np.sort(scipy.linalg.eigvalsh(ksum))
    ev_plus = scipy.linalg.eigvalsh(hplus)
    ev_minus = scipy.linalg.eigvalsh(hminus)
    pairwise = np.sort(np.add.outer(ev_plus, ev_minus).ravel())
    assert np.allclose(ev, pairwise, atol=1e-10)


def test_kronecker_sum_capacity_guard():
    a = np.zeros((30, 30))
    with pytest.raises(CapacityError):
        kronecker_sum(a, a, max_dim=100)


KRONECKER_MODES = [(1.0, 0.9), (0.6, 0.4), (0.3, 0.0), (0.15, 0.2)]


@pytest.mark.parametrize("policy", [PerModeCap(3), TotalQuantaCap(5)],
                         ids=["per-mode", "total-quanta"])
@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_d_matrix_is_the_restricted_kronecker_product(n_modes, policy):
    # Over the per-mode box D is the Kronecker product of the single-mode
    # tables; over any basis it is the principal submatrix at the basis
    # states, gathered in the same mode order, so the match is exact.
    bath = bath_from_modes(KRONECKER_MODES[:n_modes])
    basis = enumerate_basis(n_modes, policy)
    tables = [single_mode_d_table(mode.q, size - 1)
              for mode, size in zip(bath.modes, basis.box_shape)]
    idx = np.ravel_multi_index(basis.occupations.T, basis.box_shape)
    parity = KroneckerParity(basis, bath)
    d = parity.dense()
    assert np.array_equal(d, reduce(np.kron, tables)[np.ix_(idx, idx)])
    assert np.array_equal(d, d.T)
    params = ModelParams(delta=0.3, bath=bath, basis=basis)
    h0 = h0_diagonal(basis, bath)
    for branch in (Branch.EVEN, Branch.ODD):
        c = branch.coupling_sign * 0.15
        op = branch_operator(params, branch, parity)
        assert np.array_equal(op.dense(d), np.diag(h0) + c * d)
        # Without a table the branch gathers its own D, with the same bits.
        assert np.array_equal(branch_operator(params, branch).dense(), np.diag(h0) + c * d)


def test_branch_dense_rejects_a_table_of_another_size():
    bath = single_mode_bath()
    params = ModelParams(delta=0.1, bath=bath, basis=enumerate_basis(1, PerModeCap(3)))
    table = KroneckerParity(enumerate_basis(1, PerModeCap(4)), bath).dense()
    with pytest.raises(ParameterError, match="shape"):
        branch_operator(params, Branch.EVEN).dense(table)


def test_model_params_mode_count_mismatch():
    bath = single_mode_bath()
    basis = enumerate_basis(2, PerModeCap(1))
    with pytest.raises(ParameterError):
        ModelParams(delta=0.1, bath=bath, basis=basis)
