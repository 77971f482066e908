"""Parity-branch decomposition of the zero-bias spin-boson model.

Builds the even/odd parity branches of the Hamiltonian in the displaced
oscillator number basis, compares the branch ground states against the
analytic set of possible degeneracy energies, and quantifies how finite
basis truncation breaks the parity invariance as the dissipation grows.
"""

__version__ = "0.1.0"

from .bath import (
    BathLadder,
    BathModel,
    SpectralLaw,
    bath_from_modes,
    bath_ladder,
    discretize_bath,
    e_min_eo,
)
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    InvariantViolation,
    ParameterError,
    SearchError,
    SolverError,
    SpinBosonError,
)
from .fockspace import (
    BasisSet,
    KroneckerParity,
    default_policy,
    enumerate_basis,
    overlap_oracle,
)
from .hamiltonian import (
    ModelParams,
    degenerate_energy_set,
)
from .parity import (
    ClosureReport,
    CriticalPoint,
    ParityAudit,
    closure_report,
    critical_alpha,
    critical_alphas,
    d_square_audit,
    o_diagonal,
    parity_deficiency,
)
from .spectra import (
    EigenResult,
    TheoremReport,
    degeneracy_condition_value,
    eigen_lowest,
    theorem_report,
)
