"""Assembly of the diagonal shifted-oscillator Hamiltonian and the even/odd
parity branches.

In the displaced number basis the shifted-oscillator part is diagonal with
entries sum_k omega_k*n_k - sum_k omega_k*q_k**2, and the two parity branches
differ only in the sign of the tunneling term:

    H(even) = H0 - (delta/2) * D
    H(odd)  = H0 + (delta/2) * D

so H(even) + H(odd) = 2*H0 entrywise, and the odd branch at delta equals the
even branch at -delta.  Only delta >= 0 is accepted at the API boundary; the
swap identity covers negative tunneling.

One :class:`ModelParams` per parameter point builds, once each, everything
the point derives: H0 as its diagonal (:attr:`ModelParams.h0`), D as one
:class:`KroneckerParity` (:attr:`ModelParams.parity`), and the two branches
(:attr:`ModelParams.branches`), each a :class:`BranchOperator` on that one
H0 array and that one D.  A branch applies to a vector with ``@`` and gives
its dense dim x dim array, formed on the one dense D, with ``dense``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import BathModel
from .errors import ParameterError, is_real
from .fockspace import BasisSet, KroneckerParity

__all__ = [
    "ModelParams",
    "BranchOperator",
    "degenerate_energy_set",
]


@dataclass(frozen=True)
class ModelParams:
    """Tunneling amplitude plus the bath and basis it acts in, and the one
    owner of what they derive: ``h0``, ``parity`` and ``branches``, each
    built on first use and then shared by the solve, the verdict and the
    dumps."""

    delta: float
    bath: BathModel
    basis: BasisSet

    def __post_init__(self):
        if not (is_real(self.delta) and self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ParameterError(
                f"delta must satisfy delta >= 0 (use the branch-swap identity "
                f"for negative tunneling), got {self.delta}"
            )
        if self.bath.n_modes != self.basis.n_modes:
            raise ParameterError(
                f"bath has {self.bath.n_modes} modes but basis has {self.basis.n_modes}"
            )
        # math.fsum returns inf without raising when a term is already inf,
        # as q_k**2 is for a finite q_k past 1.3e154.  A q_k that is itself
        # inf is refused by name where the D tables are built.
        if all(map(math.isfinite, self.bath.qs)):
            for name, total in (("sum_k q_k**2", self.bath.sum_q2),
                                ("sum_k omega_k * q_k**2", self.bath.sum_wq2)):
                if not math.isfinite(total):
                    raise ParameterError(f"{name} overflows a double")

    @cached_property
    def parity(self) -> KroneckerParity:
        """The model's one parity matrix D, shared by both branches, their
        dense arrays, the gap check and the dumps."""
        return KroneckerParity(self.basis, self.bath)

    @cached_property
    def h0(self) -> np.ndarray:
        """The diagonal of H0, sum_k omega_k*n_k - sum_k omega_k*q_k**2 per
        basis vector, as one read-only array."""
        h0 = self.basis.occupations @ np.array(self.bath.omegas) - self.bath.sum_wq2
        h0.flags.writeable = False
        return h0

    @cached_property
    def branches(self) -> tuple[BranchOperator, BranchOperator]:
        """(even, odd): H0 - (delta/2)*D and H0 + (delta/2)*D, both on ``h0``
        and ``parity``."""
        half = 0.5 * self.delta
        return tuple(BranchOperator(h0=self.h0, coupling=c, parity=self.parity)
                     for c in (-half, half))


@dataclass(frozen=True)
class BranchOperator:
    """One parity branch H0 + coupling * D.

    ``h0`` is the diagonal of H0 and ``coupling`` is -delta/2 for the even
    branch, +delta/2 for the odd one.  ``norm_bound`` bounds its 2-norm and
    is the one energy scale of the solves' residual checks, the Lanczos
    checks and the verdict.
    """

    h0: np.ndarray
    coupling: float
    parity: KroneckerParity

    @property
    def shape(self) -> tuple[int, int]:
        return (self.h0.shape[0], self.h0.shape[0])

    @cached_property
    def norm_bound(self) -> float:
        """max|H0| + |coupling|, at least the 2-norm of this branch, since the
        2-norm of D, a compression of an involution, is at most 1."""
        return float(np.max(np.abs(self.h0))) + abs(self.coupling)

    def __matmul__(self, x) -> np.ndarray:
        return self.apply(x)

    def apply(self, x) -> np.ndarray:
        """H @ x for one vector x of shape (dim,), without forming H; D is
        applied first, so it names a vector of any other shape."""
        return self.coupling * self.parity.apply(x) + self.h0 * x

    def dense(self) -> np.ndarray:
        """This branch as one new dim x dim array, formed on ``parity.dense()``."""
        # Summed onto the diagonal matrix, so a -0.0 product off the diagonal
        # becomes +0.0, as it would in H0 + coupling * D.
        h = np.diag(self.h0)
        h += self.coupling * self.parity.dense()
        return h


def degenerate_energy_set(params: ModelParams) -> np.ndarray:
    """Ascending energies at which the two branches could be degenerate.

    These are exactly the diagonal entries of H0; the minimum is
    -sum_k omega_k*q_k**2, independent of the tunneling amplitude.
    """
    return np.sort(params.h0)
