"""Branch assembly, the degenerate-energy ladder, and the Kronecker-sum
spectral property."""

import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from sbparity import (
    CapacityError,
    KroneckerParity,
    ModelParams,
    ParameterError,
    bath_from_modes,
    degenerate_energy_set,
    e_min_eo,
    enumerate_basis,
    hamiltonian,
    kronecker_sum,
)

from sbparity.fockspace import single_mode_d_table

from conftest import random_bath, single_mode_bath


def test_h0_single_mode_ladder():
    bath = single_mode_bath(1.0, 1.0)  # q = 0.5 shifts everything by -0.25
    basis = enumerate_basis(1, 2, "per-mode")
    h0 = ModelParams(0.1, bath, basis).h0
    assert np.array_equal(h0, [-0.25, 0.75, 1.75])


def test_h0_decoupled_is_bare_ladder():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, 4, "per-mode")
    assert np.array_equal(ModelParams(0.1, bath, basis).h0, [0, 1, 2, 3, 4])


def test_h0_two_mode_hand_sum():
    bath = bath_from_modes([(1.0, 1.0), (0.5, 0.0)])  # q = (0.5, 0)
    basis = enumerate_basis(2, 1, "per-mode")
    h0 = ModelParams(0.1, bath, basis).h0
    idx = basis.index_of((1, 1))
    # 1*1 + 0.5*1 - (1*0.25 + 0.5*0) accumulated independently by hand
    expected = math.fsum([1.0, 0.5, -0.25])
    assert h0[idx] == pytest.approx(expected, abs=1e-15)
    assert expected == 1.25


def test_branches_coincide_at_zero_tunneling():
    bath = single_mode_bath(1.0, 0.8)
    basis = enumerate_basis(1, 5, "per-mode")
    params = ModelParams(delta=0.0, bath=bath, basis=basis)
    hplus, hminus = (branch.dense() for branch in params.branches)
    h0 = np.diag(params.h0)
    assert np.array_equal(hplus, h0)
    assert np.array_equal(hminus, h0)


def test_decoupled_branches_are_shifted_diagonals():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, 1, "per-mode")
    params = ModelParams(delta=0.3, bath=bath, basis=basis)
    hplus, hminus = (branch.dense() for branch in params.branches)
    assert np.allclose(hplus, np.diag([-0.15, 1.15]), atol=1e-15)
    assert np.allclose(hminus, np.diag([0.15, 0.85]), atol=1e-15)


def test_branch_sum_recovers_twice_h0(rng):
    for _ in range(10):
        bath = random_bath(rng, 2)
        basis = enumerate_basis(2, 3, "per-mode")
        params = ModelParams(delta=float(rng.uniform(0.0, 1.0)), bath=bath, basis=basis)
        hplus, hminus = (branch.dense() for branch in params.branches)
        h0 = np.diag(params.h0)
        assert np.allclose(hplus + hminus, 2.0 * h0, atol=1e-15)


def test_branch_swap_identity(rng):
    # The API rejects delta < 0; the swap identity H-(delta) = H0 + (delta/2) D
    # = "H+ at -delta" is asserted entrywise from the assembled pieces.
    bath = random_bath(rng, 1)
    basis = enumerate_basis(1, 6, "per-mode")
    delta = 0.37
    params = ModelParams(delta=delta, bath=bath, basis=basis)
    table = KroneckerParity(basis, bath).dense()
    hminus = params.branches[1].dense()
    manual = np.diag(params.h0) + 0.5 * delta * table
    assert np.array_equal(hminus, manual)
    with pytest.raises(ParameterError):
        ModelParams(delta=-0.1, bath=bath, basis=basis)


def test_branch_spectra_swap_under_delta_sign(rng):
    bath = random_bath(rng, 1)
    basis = enumerate_basis(1, 8, "per-mode")
    table = KroneckerParity(basis, bath).dense()
    params = ModelParams(delta=0.4, bath=bath, basis=basis)
    hminus = params.branches[1].dense()
    h_plus_neg = np.diag(params.h0) + 0.2 * table
    ev_minus = scipy.linalg.eigvalsh(hminus)
    ev_plus_neg = scipy.linalg.eigvalsh(h_plus_neg)
    assert np.allclose(ev_minus, ev_plus_neg, atol=1e-14)


def test_degenerate_energy_set_single_mode():
    bath = single_mode_bath(1.0, 1.0)
    basis = enumerate_basis(1, 2, "per-mode")
    params = ModelParams(0.1, bath, basis)
    assert np.array_equal(degenerate_energy_set(params), [-0.25, 0.75, 1.75])


def test_degenerate_energy_set_decoupled():
    bath = bath_from_modes([(1.0, 0.0)])
    basis = enumerate_basis(1, 5, "per-mode")
    params = ModelParams(0.1, bath, basis)
    assert np.array_equal(degenerate_energy_set(params), np.arange(6.0))


def test_degenerate_set_minimum_is_e_min_eo(rng):
    for _ in range(50):
        n_modes = int(rng.integers(1, 4))
        bath = random_bath(rng, n_modes)
        basis = enumerate_basis(n_modes, int(rng.integers(1, 4)), "per-mode")
        energies = degenerate_energy_set(ModelParams(0.1, bath, basis))
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
    basis = enumerate_basis(1, 3, "per-mode")
    params = ModelParams(delta=0.2, bath=bath, basis=basis)
    hplus, hminus = (branch.dense() for branch in params.branches)
    ksum = kronecker_sum(hplus, hminus)
    ev = np.sort(scipy.linalg.eigvalsh(ksum))
    ev_plus = scipy.linalg.eigvalsh(hplus)
    ev_minus = scipy.linalg.eigvalsh(hminus)
    pairwise = np.sort(np.add.outer(ev_plus, ev_minus).ravel())
    assert np.allclose(ev, pairwise, atol=1e-10)


def test_kronecker_sum_capacity_guard(monkeypatch):
    a = np.zeros((30, 30))
    kronecker_sum(a, a)  # 900 states, under the default guard
    monkeypatch.setattr(hamiltonian, "MAX_KRONECKER_DIM", 100)
    with pytest.raises(CapacityError):
        kronecker_sum(a, a)


KRONECKER_MODES = [(1.0, 0.9), (0.6, 0.4), (0.3, 0.0), (0.15, 0.2)]


@pytest.mark.parametrize("cap, policy", [(3, "per-mode"), (5, "total-quanta")],
                         ids=["per-mode", "total-quanta"])
@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_d_matrix_is_the_restricted_kronecker_product(n_modes, cap, policy):
    # Over the per-mode box D is the Kronecker product of the single-mode
    # tables; over any basis it is the principal submatrix at the basis
    # states, gathered in the same mode order, so the match is exact.
    bath = bath_from_modes(KRONECKER_MODES[:n_modes])
    basis = enumerate_basis(n_modes, cap, policy)
    tables = [single_mode_d_table(q, size - 1) for q, size in zip(bath.qs, basis.box_shape)]
    idx = np.ravel_multi_index(basis.occupations.T, basis.box_shape)
    parity = KroneckerParity(basis, bath)
    d = parity.dense()
    assert np.array_equal(d, reduce(np.kron, tables)[np.ix_(idx, idx)])
    assert np.array_equal(d, d.T)
    params = ModelParams(delta=0.3, bath=bath, basis=basis)
    for branch, c in zip(params.branches, (-0.15, 0.15)):
        # The branch is formed on the model's own D, with the same bits.
        assert np.array_equal(branch.dense(), np.diag(params.h0) + c * d)


def test_model_params_own_one_parity_shared_by_both_branches():
    bath = bath_from_modes(KRONECKER_MODES[:2])
    params = ModelParams(delta=0.3, bath=bath, basis=enumerate_basis(2, 3, "per-mode"))
    assert params.parity is params.parity
    assert (params.parity.basis, params.parity.bath) == (params.basis, params.bath)
    assert params.branches is params.branches
    for branch in params.branches:
        assert branch.parity is params.parity


def test_model_params_own_one_read_only_h0_shared_by_both_branches():
    bath = bath_from_modes(KRONECKER_MODES[:3])
    params = ModelParams(delta=0.3, bath=bath, basis=enumerate_basis(3, 4, "total-quanta"))
    assert params.h0 is params.h0
    assert not params.h0.flags.writeable
    with pytest.raises(ValueError):
        params.h0[0] = 0.0
    even, odd = params.branches
    assert even.h0 is params.h0 and odd.h0 is params.h0
    assert (even.coupling, odd.coupling) == (-0.15, 0.15)
    # A branch's dense array is its own, writable, and leaves H0 as it was.
    h = even.dense()
    h[0, 0] = 1e9
    assert params.h0[0] != 1e9
    assert np.array_equal(np.sort(params.h0), degenerate_energy_set(params))


def test_model_params_mode_count_mismatch():
    bath = single_mode_bath()
    basis = enumerate_basis(2, 1, "per-mode")
    with pytest.raises(ParameterError):
        ModelParams(delta=0.1, bath=bath, basis=basis)
