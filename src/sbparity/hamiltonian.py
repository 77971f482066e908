"""Assembly of the diagonal shifted-oscillator Hamiltonian, the even/odd
parity branches, and the Kronecker-sum validator.

In the displaced number basis the shifted-oscillator part is diagonal with
entries sum_k omega_k*n_k - sum_k omega_k*q_k**2, and the two parity branches
differ only in the sign of the tunneling term:

    H(even) = H0 - (delta/2) * D
    H(odd)  = H0 + (delta/2) * D

so H(even) + H(odd) = 2*H0 entrywise, and the odd branch at delta equals the
even branch at -delta.  Only delta >= 0 is accepted at the API boundary; the
swap identity covers negative tunneling.

H0 is carried as its diagonal, :func:`h0_diagonal`.  A branch is one
:class:`BranchOperator` on a :class:`KroneckerParity`: it applies to a
vector with ``@`` and gives its dense dim x dim array with ``dense``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathModel
from .errors import CapacityError, ParameterError
from .fockspace import BasisSet, KroneckerParity

__all__ = [
    "Branch",
    "ModelParams",
    "h0_diagonal",
    "BranchOperator",
    "branch_operator",
    "degenerate_energy_set",
    "kronecker_sum",
]


class Branch(enum.Enum):
    """Parity branch label; ``coupling_sign`` multiplies +(delta/2)*D."""

    EVEN = "+"
    ODD = "-"

    @property
    def coupling_sign(self) -> float:
        return -1.0 if self is Branch.EVEN else 1.0


@dataclass(frozen=True)
class ModelParams:
    """Tunneling amplitude plus the bath and basis it acts in."""

    delta: float
    bath: BathModel
    basis: BasisSet

    def __post_init__(self):
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ParameterError(
                f"delta must satisfy delta >= 0 (use the branch-swap identity "
                f"for negative tunneling), got {self.delta}"
            )
        if self.bath.n_modes != self.basis.n_modes:
            raise ParameterError(
                f"bath has {self.bath.n_modes} modes but basis has {self.basis.n_modes}"
            )


def h0_diagonal(basis: BasisSet, bath: BathModel) -> np.ndarray:
    """Diagonal entries sum_k omega_k*n_k - sum_k omega_k*q_k**2 per vector."""
    if basis.n_modes != bath.n_modes:
        raise ParameterError(
            f"basis has {basis.n_modes} modes but bath has {bath.n_modes}"
        )
    omegas = np.array(bath.omegas)
    return basis.occupations @ omegas - bath.sum_wq2


@dataclass(frozen=True)
class BranchOperator:
    """One parity branch H0 + coupling * D.

    ``h0`` is the diagonal of H0 and ``coupling`` is -delta/2 for the even
    branch, +delta/2 for the odd one.
    """

    h0: np.ndarray
    coupling: float
    parity: KroneckerParity

    @property
    def shape(self) -> tuple[int, int]:
        return (self.h0.shape[0], self.h0.shape[0])

    def __matmul__(self, x) -> np.ndarray:
        return self.apply(x)

    def apply(self, x) -> np.ndarray:
        """H @ x for one vector x of shape (dim,), without forming H."""
        return self.h0 * x + self.coupling * self.parity.apply(x)

    def dense(self, table: np.ndarray | None = None) -> np.ndarray:
        """This branch as one dim x dim array; ``table`` may carry
        ``self.parity.dense()`` to share across both branches."""
        if table is None:
            table = self.parity.dense()
        elif table.shape != self.shape:
            raise ParameterError(
                f"parity table has shape {table.shape}, expected {self.shape} for the basis"
            )
        # Summed onto the diagonal matrix, so a -0.0 product off the diagonal
        # becomes +0.0, as it would in H0 + coupling * D.
        h = np.diag(self.h0)
        h += self.coupling * table
        return h


def branch_operator(
    params: ModelParams,
    branch: Branch,
    parity: KroneckerParity | None = None,
) -> BranchOperator:
    """One parity branch H0 -/+ (delta/2)*D.

    ``parity`` may carry a :class:`KroneckerParity` built over
    ``params.basis`` to share across both branches.
    """
    if parity is None:
        parity = KroneckerParity(params.basis, params.bath)
    elif parity.basis is not params.basis and parity.basis != params.basis:
        raise ParameterError("parity operator was built over a different basis")
    return BranchOperator(
        h0=h0_diagonal(params.basis, params.bath),
        coupling=branch.coupling_sign * (0.5 * params.delta),
        parity=parity,
    )


def degenerate_energy_set(basis: BasisSet, bath: BathModel) -> np.ndarray:
    """Ascending energies at which the two branches could be degenerate.

    These are exactly the diagonal entries of H0; the minimum is
    -sum_k omega_k*q_k**2, independent of the tunneling amplitude.
    """
    return np.sort(h0_diagonal(basis, bath))


def kronecker_sum(a: np.ndarray, b: np.ndarray, max_dim: int = 4096) -> np.ndarray:
    """A (x) I + I (x) B; its spectrum is all pairwise eigenvalue sums.

    Raises
    ------
    CapacityError
        If dim(A) * dim(B) exceeds ``max_dim`` (dense storage bound).
    """
    prod = a.shape[0] * b.shape[0]
    if prod > max_dim:
        raise CapacityError(
            f"Kronecker sum of dimension {prod} exceeds guard {max_dim}"
        )
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)
