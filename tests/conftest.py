"""Shared fixtures and independent oracles used across the suite."""

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg

from sbparity import bath_from_modes, degeneracy_condition_value, discretize_bath, SpectralLaw
from sbparity.spectra import solve_branches


def single_mode_bath(omega=1.0, lam=1.0):
    return bath_from_modes([(omega, lam)])


def bare_fock_ground_energy(omega, lam, delta, cap):
    """Oracle: full spin-boson diagonalization in the bare product basis.

    Assembles -delta/2 sigma_x + omega a+a + lam/2 (a+ + a) sigma_z over
    {|up, n>, |down, n>} with n <= cap and returns the lowest eigenvalue.
    Independent of the displaced-basis route: no parity decomposition, no
    displaced states, no L elements.
    """
    dim = cap + 1
    n = np.arange(dim)
    a = np.diag(np.sqrt(n[1:].astype(float)), 1)
    x = a + a.T
    hosc = np.diag(omega * n.astype(float))
    h = np.zeros((2 * dim, 2 * dim))
    h[:dim, :dim] = hosc + 0.5 * lam * x
    h[dim:, dim:] = hosc - 0.5 * lam * x
    h[:dim, dim:] = -0.5 * delta * np.eye(dim)
    h[dim:, :dim] = -0.5 * delta * np.eye(dim)
    return float(scipy.linalg.eigh(h, eigvals_only=True, subset_by_index=[0, 0])[0])


def random_bath(rng, n_modes, alpha_range=(0.01, 0.5), s_range=(0.3, 1.0)):
    alpha = float(rng.uniform(*alpha_range))
    s = float(rng.uniform(*s_range))
    return discretize_bath(SpectralLaw(alpha, s, 1.0), n_modes, 2.0)


def index_of(basis, vec):
    """Row of the occupation vector ``vec`` in ``basis``: the first that matches."""
    return int(np.flatnonzero((basis.occupations == tuple(vec)).all(axis=1))[0])


def spectral_density(law, omega):
    """J(omega) = 2*pi*alpha*omega_c**(1-s)*omega**s on (0, omega_c], else 0."""
    if omega <= 0.0 or omega > law.omega_c:
        return 0.0
    return 2.0 * math.pi * law.alpha * law.omega_c ** (1.0 - law.s) * omega ** law.s


def e_min_eo_continuum(law):
    """Continuum limit of e_min_eo: -(1/pi) * integral of J(w)/(4w) = -alpha*omega_c/(2*s)."""
    return -law.alpha * law.omega_c / (2.0 * law.s)


def kronecker_sum(a, b):
    """A (x) I + I (x) B; its spectrum is all pairwise eigenvalue sums."""
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


class GapIdentity(NamedTuple):
    lhs: float
    rhs: float
    abs_err: float
    overlap: float


def gap_identity(params, level_plus=0, level_minus=0, tol=1e-10):
    """E-(level) - E+(level) against delta * <phi+|D|phi-> / <phi+|phi->, by
    the solve and the matrix element `theorem` uses for its predicted gap."""
    parity, res_plus, res_minus = solve_branches(params, level_plus + 1, level_minus + 1, tol)
    phi_plus, phi_minus = res_plus.vectors[:, level_plus], res_minus.vectors[:, level_minus]
    lhs = float(res_minus.values[level_minus] - res_plus.values[level_plus])
    overlap = float(phi_plus @ phi_minus)
    rhs = params.delta * degeneracy_condition_value(phi_plus, phi_minus, parity) / overlap
    return GapIdentity(lhs, rhs, abs(lhs - rhs), overlap)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
