"""Shared fixtures and independent oracles used across the suite."""

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

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


def laguerre_block_loop(q, m_max, n_max, scaled):
    """Single-mode L(m, n; q) for m <= m_max, n <= n_max, times exp(-2 q**2)
    when ``scaled``, for a float or a 1-D array ``q`` (reference): the
    normalized Laguerre recurrence as one loop over the steps j, each
    writing column j and row j of the block from the step's diagonals and
    forming the next step from the k-only factors of that step."""
    qs = np.array(q, dtype=float, ndmin=1)
    out = np.zeros((len(qs), m_max + 1, n_max + 1))
    k = np.arange(max(m_max, n_max) + 1)
    factors = tuple((2 * j + 1 + k, np.sqrt(j * (j + k)), np.sqrt((j + 1) * (j + 1 + k)))
                    for j in range(min(m_max, n_max) + 1))
    half_lgamma = 0.5 * gammaln(k + 1.0)
    x = 2.0 * qs
    log_x = np.array([math.log(v) if v != 0.0 else 0.0 for v in x.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        t = (x * x)[:, None]
        f = np.exp((-0.5 * t if scaled else 0.0) + k * log_x[:, None] - half_lgamma)
        f_prev = np.zeros_like(f)
        for j, (diag, back, ahead) in enumerate(factors):
            out[:, j:, j] = f[:, : m_max + 1 - j]  # (j + k, j)
            out[:, j, j + 1:] = f[:, 1 : n_max + 1 - j]  # (j, j + k), k >= 1
            if j + 1 < len(factors):
                f, f_prev = ((t - diag) * f - back * f_prev) / ahead, f
    zero = qs == 0.0
    if zero.any():
        j = np.arange(len(factors))
        identity = np.zeros((m_max + 1, n_max + 1))
        identity[j, j] = np.where(j % 2, -1.0, 1.0)
        out[zero] = identity
    return out if np.ndim(q) else out[0]


def box_product(parity, x):
    """D @ x over ``parity``'s basis with every mode step on the whole
    per-mode box (reference): the vector is scattered into a zeroed box by
    its flat box index, each step contracts the leading mode axis and moves
    it to the back, and the basis entries are read back."""
    x = np.asarray(x, dtype=float)
    box = math.prod(parity.basis.box_shape)
    index = (None if box == parity.basis.dim
             else np.ravel_multi_index(parity.basis.occupations.T, parity.basis.box_shape))
    if index is None:
        t = x
    else:
        t = np.zeros(box)
        t[index] = x
    for table in parity.tables:
        t = t.reshape(table.shape[0], -1).T @ table.T
    t = t.reshape(-1)
    return t if index is None else t[index]


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


def gap_identity(params, level=0, tol=1e-10):
    """E-(level) - E+(level) against delta * <phi+|D|phi-> / <phi+|phi->, by
    the solve and the matrix element `theorem` uses for its predicted gap."""
    parity, res_plus, res_minus = solve_branches(params, level + 1, tol)
    phi_plus, phi_minus = res_plus.vectors[:, level], res_minus.vectors[:, level]
    lhs = float(res_minus.values[level] - res_plus.values[level])
    overlap = float(phi_plus @ phi_minus)
    rhs = params.delta * degeneracy_condition_value(phi_plus, phi_minus, parity) / overlap
    return GapIdentity(lhs, rhs, abs(lhs - rhs), overlap)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
