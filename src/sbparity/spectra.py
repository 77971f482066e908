"""Symmetric eigensolving and the ground-state verdicts.

For delta > 0 the ground state of the pair of parity branches lies strictly
below the lowest branch-degeneracy energy.  The margin by which it does so
shrinks with the tunneling matrix element delta * exp(-2 * sum_k q_k**2), so
at strong dissipation it falls below what double precision can resolve; the
verdict then reports indeterminate-below-resolution instead of pretending to
certify a strict inequality.

Two cross-checks accompany the verdict: the sum of the two branch minima
never exceeds twice the lowest degeneracy energy, and the difference of any
two branch eigenvalues equals delta * <phi+|D|phi-> / <phi+|phi-> whenever
the eigenvector overlap is resolvable.

Both branches are the model's own, ``params.branches``: two
:class:`BranchOperator`s on its one H0 array and its one
:class:`KroneckerParity`, ``params.parity``.  Their eigenpairs come from one
of two solvers, picked per basis by :func:`use_lanczos`: a dense symmetric
solve of the branch's dense array (on the one dense D) for small bases, and
ARPACK Lanczos on the operator itself, whose parity factor is applied one
mode at a time, above the crossover.  A Lanczos solve is then checked for
a level it passed over by a short preconditioned (Davidson) search on the
operator with the returned levels deflated.

The Lanczos checks and the verdict read one scale per branch,
:attr:`BranchOperator.norm_bound` (max|H0| + delta/2 >= norm(H)).  The dense
solve takes any symmetric array, so its residual bound reads the array's norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import e_min_eo
from .errors import InvariantViolation, ParameterError, SolverError, as_integer, is_real
from .fockspace import MAX_BOX_STATES, BasisSet, KroneckerParity
from .hamiltonian import BranchOperator, ModelParams

__all__ = [
    "EigenResult",
    "eigen_lowest",
    "use_lanczos",
    "solve_branches",
    "TheoremReport",
    "theorem_report",
    "degeneracy_condition_value",
    "VERDICT_STRICT",
    "VERDICT_DEGENERATE",
    "VERDICT_INDETERMINATE",
]

VERDICT_STRICT = "strictly-below"
VERDICT_DEGENERATE = "degenerate-at-delta-zero"
VERDICT_INDETERMINATE = "indeterminate-below-resolution"

_EPS = float(np.finfo(float).eps)

# Eigenvector overlaps below this are treated as numerically zero.
OVERLAP_GUARD = 1e-12

# Resolution threshold for the predicted gap, in units of eps * energy scale.
GAP_RESOLUTION_FACTOR = 1e3

DEFAULT_MAX_ITER = 10_000

# Crossover between the dense solve and Lanczos, measured on both paths with
# BLAS on one thread (the table is in CHANGES.md).  The dense solve costs
# about 0.25 ns * dim**3; Lanczos about 12 ms plus 150 ns per multiply-add of
# one product, box * sum_k (cap_k + 1), for its few hundred products.  So
# Lanczos is taken when dim**3 >= LANCZOS_MIN_DIM3 + LANCZOS_DIM3_PER_MAC *
# box * sum_k (cap_k + 1).
LANCZOS_MIN_DIM3 = 48_000_000
# This still models the whole box product, though a total-quanta product of
# four or more modes trims its first and last steps.  It is kept on
# purpose: the rule picks the path, and with it the printed bytes.
LANCZOS_DIM3_PER_MAC = 600
# ARPACK needs k well below dim: Lanczos is taken only for k <= dim / 20.
LANCZOS_K_FACTOR = 20

# Fixed seeds of the start vectors: the Lanczos solve and its completeness check.
_SOLVE_SEED = 1
_CHECK_SEED = 2

# Basis size of the completeness check's search, ARPACK's default ncv here.
_CHECK_BASIS = 20
# A new direction is orthogonalized a second time when the first pass leaves
# less than this share of its norm (Daniel, Gragg, Kaufman & Stewart, Math.
# Comp. 30, 772 (1976)).
_REORTHOGONALIZE = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs of a symmetric matrix.

    ``values`` ascend; ``vectors`` holds matching orthonormal columns with a
    deterministic sign (largest-magnitude component positive).  ``residual``
    is the largest 2-norm of H v - E v over the returned pairs.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float


def use_lanczos(basis: BasisSet, k: int) -> bool:
    """Whether the k lowest branch pairs over ``basis`` go to Lanczos rather
    than to the dense solve: the measured crossover rule."""
    dim = basis.dim
    box = math.prod(basis.box_shape)
    return (
        LANCZOS_K_FACTOR * k <= dim
        and box <= MAX_BOX_STATES
        and dim ** 3 >= LANCZOS_MIN_DIM3 + LANCZOS_DIM3_PER_MAC * box * sum(basis.box_shape)
    )


def eigen_lowest(
    h: np.ndarray | BranchOperator,
    k: int,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EigenResult:
    """The k algebraically smallest eigenpairs of ``h``.

    A dense symmetric array gets a direct dense symmetric solve.  A
    :class:`BranchOperator` gets ARPACK Lanczos (``eigsh``) with at most
    ``max_iter`` restarts, fixed-seed start vectors and a completeness check
    (see :func:`_lanczos_lowest`).  Both are deterministic for a given input
    on a given build.

    Raises
    ------
    SolverError
        If the residual exceeds tol times a bound on norm(H), or Lanczos does
        not converge or misses a level; carries the residual reached.
    """
    dim = h.shape[0]
    if not 1 <= (as_integer(k) or 0) <= dim:
        raise ParameterError(f"k must lie in [1, {dim}], got {k}")
    if not (is_real(tol) and tol > 0.0):
        raise ParameterError(f"tol must be > 0, got {tol}")
    if not (as_integer(max_iter) or 0) >= 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    if isinstance(h, BranchOperator):
        return _lanczos_lowest(h, k, tol, max_iter)
    # Imported here, as scipy.sparse.linalg is in the Lanczos path: loading
    # scipy.linalg takes ~0.2 s, and only theorem and spectrum solve.
    import scipy.linalg

    values, vectors = scipy.linalg.eigh(h, subset_by_index=[0, k - 1])
    _fix_signs(vectors)
    resid = _residual(h, values, vectors)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(h, np.inf))
        if math.isinf(norm):  # a row sum past the double range: take it on h scaled by 2**-e
            e = math.frexp(float(np.max(np.abs(h))))[1]
            bound = float(np.ldexp(tol * np.linalg.norm(np.ldexp(h, -e), np.inf), e))
        else:
            bound = tol * norm
    _check_residual(resid, bound)
    return EigenResult(values=values, vectors=vectors, residual=resid)


def _fix_signs(vectors: np.ndarray) -> None:
    """Make the largest-magnitude component of every column positive."""
    for col in range(vectors.shape[1]):
        lead = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[lead, col] < 0.0:
            vectors[:, col] = -vectors[:, col]


def _residual(h: np.ndarray | BranchOperator, values: np.ndarray, vectors: np.ndarray) -> float:
    # A dense array takes the block in one GEMM; the operator one column at a time.
    h_vectors = h @ vectors if isinstance(h, np.ndarray) else np.column_stack(
        [h @ v for v in vectors.T])
    r = h_vectors - vectors * values
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(r, axis=0)
        # Entries past ~1.3e154 overflow a sum of squares: redo that column scaled by 2**-e.
        for j in np.flatnonzero(np.isinf(norms)).tolist():
            e = math.frexp(float(np.max(np.abs(r[:, j]))))[1]
            norms[j] = np.ldexp(np.linalg.norm(np.ldexp(r[:, j], -e)), e)
    return float(np.max(norms))


def _check_residual(resid: float, bound: float) -> None:
    bound = max(bound, 1e-30)
    if not resid <= bound:
        raise SolverError(
            f"eigensolver residual {resid:.3e} exceeds tol * norm(H) = {bound:.3e}",
            residual=resid,
        )


def _lanczos_lowest(h: BranchOperator, k: int, tol: float, max_iter: int) -> EigenResult:
    """Lanczos on H - sigma with sigma = min(h0) - delta/2 - 1, or with a
    margin of 4 * eps * ``h.norm_bound`` in place of 1 where |min(h0)| is so
    large that 1 rounds away.

    norm(D) <= 1, because D is a compression of an involution, so every
    eigenvalue of the shifted operator is at least the margin; ARPACK is
    asked for the smallest ones to machine precision (tol=0), and its
    residual must be at most tol * ``h.norm_bound``.  Afterwards
    :func:`_lowest_level` searches P (H - sigma) P + c V V^T, with
    P = 1 - V V^T and c above the k-th shifted value, to the same residual
    bound, for a level the solve passed over: a value more than
    10 * tol * max(1, ``h.norm_bound``) below the k-th level raises, and so
    does a search that does not converge within ``max_iter`` restarts.
    """
    # Imported here, as scipy.linalg is in the dense path: scipy.sparse.linalg
    # takes ~25 ms more to load.
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    dim = h.shape[0]
    if LANCZOS_K_FACTOR * k > dim:
        raise ParameterError(
            f"k = {k} is too close to dim = {dim} for Lanczos; solve the assembled matrix"
        )
    spread, norm_bound = abs(h.coupling), h.norm_bound
    h0_min = float(np.min(h.h0))
    sigma = h0_min - spread - 1.0
    if not h0_min - sigma >= 1.0:  # the margin rounded away: diag would hold a zero
        sigma = h0_min - spread - 4.0 * _EPS * norm_bound

    def shifted(x):
        return h @ x - sigma * x

    op = LinearOperator((dim, dim), matvec=shifted, dtype=float)
    v0 = np.random.default_rng(_SOLVE_SEED).standard_normal(dim)
    try:
        shifted_values, vectors = eigsh(op, k=k, which="SA", tol=0, maxiter=max_iter, v0=v0)
    except ArpackError as exc:
        found = getattr(exc, "eigenvectors", None)
        resid = (_residual(h, exc.eigenvalues + sigma, found)
                 if found is not None and found.size else math.inf)
        raise SolverError(
            f"Lanczos failed within max_iter = {max_iter} restarts: {exc}",
            residual=resid,
        ) from None
    order = np.argsort(shifted_values, kind="stable")
    shifted_values = shifted_values[order]
    vectors = np.ascontiguousarray(vectors[:, order])
    values = shifted_values + sigma
    _fix_signs(vectors)
    resid = _residual(h, values, vectors)
    _check_residual(resid, tol * norm_bound)

    c = 2.0 * shifted_values[-1]

    def deflated(x):
        vvx = vectors @ (vectors.T @ x)
        y = shifted(x - vvx)
        return y - vectors @ (vectors.T @ y) + c * vvx

    missed = _lowest_level(deflated, h.h0 - sigma, tol * norm_bound, max_iter)
    if missed is None:
        raise SolverError(
            f"Lanczos completeness check did not converge within max_iter = {max_iter} "
            "restarts",
            residual=resid,
        )
    missed += sigma
    if missed < values[-1] - 10.0 * tol * max(1.0, norm_bound):
        raise SolverError(
            f"Lanczos missed a level: {missed:.17g} lies below the highest of the "
            f"{k} returned, {values[-1]:.17g}",
            residual=resid,
        )
    return EigenResult(values=values, vectors=vectors, residual=resid)


def _lowest_level(matvec, diag: np.ndarray, bound: float, max_iter: int) -> float | None:
    """Lowest eigenvalue of the symmetric operator ``matvec`` by Davidson's
    method, or None if it is not found within ``max_iter`` restarts or the
    search stalls.

    The search starts from a fixed-seed random vector and grows an
    orthonormal basis of at most ``_CHECK_BASIS`` vectors by the Ritz
    residual r preconditioned as r / diag; ``diag`` must be positive, so the
    new direction never lies in the basis while r does not vanish.  Each
    direction is orthogonalized against the basis by classical Gram-Schmidt,
    a second time only when the first pass leaves less than 1/sqrt(2) of
    its norm.  Only the two lowest Ritz pairs are read, so LAPACK's
    ``dsyevr`` computes just those (16 against 10 us at n = 10 and 50
    against 22 us at n = 20 for a full ``eigh``, BLAS on one thread, with
    eigenvalues within 5e-16 relative); a failed Ritz solve ends the search
    as a stall does.  A full basis restarts from the two lowest Ritz
    vectors.  A value is returned only once its residual norm is at most
    ``bound``.
    """
    # Loaded with scipy.sparse.linalg on the Lanczos path, the only caller.
    from scipy.linalg.lapack import dsyevr

    dim = diag.shape[0]
    size = min(_CHECK_BASIS, dim)
    # One vector per row, so every product with the basis is a contiguous GEMV.
    basis = np.empty((size, dim))
    images = np.empty((size, dim))
    gram = np.zeros((size, size))
    t = np.random.default_rng(_CHECK_SEED).standard_normal(dim)
    n = 0
    for _ in range(max_iter):
        while n < size:
            before = np.linalg.norm(t)
            t -= (basis[:n] @ t) @ basis[:n]
            norm = np.linalg.norm(t)
            if norm < _REORTHOGONALIZE * before:  # cancellation: once more is enough
                t -= (basis[:n] @ t) @ basis[:n]
                norm = np.linalg.norm(t)
            if not norm > dim * _EPS * before:
                return None  # no new direction: the search has stalled
            new = np.divide(t, norm, out=basis[n])
            images[n] = matvec(new)
            gram[n, : n + 1] = images[: n + 1] @ new
            n += 1
            if n == 1:
                theta, s = gram[:1, 0], np.ones((1, 1))
            else:  # the two lowest Ritz pairs, from the lower triangle
                theta, s, _, _, info = dsyevr(gram[:n, :n], lower=1, range="I", il=1, iu=2)
                if info:
                    return None
            r = s[:, 0] @ images[:n]
            r -= theta[0] * (s[:, 0] @ basis[:n])
            if np.linalg.norm(r) <= bound:
                return float(theta[0])
            t = np.divide(r, diag, out=r)
        basis[:2] = s[:, :2].T @ basis
        images[:2] = s[:, :2].T @ images
        gram[:2, :2] = np.diag(theta[:2])
        n = 2
    return None


def solve_branches(
    params: ModelParams,
    k: int,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray | KroneckerParity, EigenResult, EigenResult]:
    """The k lowest pairs of each of the two branches, ``params.branches``.

    Returns ``(parity, res_plus, res_minus)``: ``parity`` is
    ``params.parity`` on the path :func:`use_lanczos` picks, and on the dense
    path ``params.parity.dense()``, on which each branch's dense array is
    formed while it is solved.
    """
    lanczos = use_lanczos(params.basis, k)
    results = [eigen_lowest(op if lanczos else op.dense(), k, tol, max_iter)
               for op in params.branches]
    return (params.parity if lanczos else params.parity.dense()), *results


@dataclass(frozen=True)
class TheoremReport:
    """Ground-state verdict for one parameter point.

    ``margin`` is e_min_eo - e_gs.  ``predicted_gap`` is the branch splitting
    delta * <phi+|D|phi-> / <phi+|phi->, or None when the overlap falls under
    the division guard.  ``measured_gap`` is e_minus_min - e_plus_min.
    """

    e_gs: float
    e_plus_min: float
    e_minus_min: float
    e_min_eo: float
    margin: float
    predicted_gap: float | None
    measured_gap: float
    verdict: str


def theorem_report(
    params: ModelParams, tol: float = 1e-10, max_iter: int = DEFAULT_MAX_ITER
) -> TheoremReport:
    """Solve both branch ground states and compare against e_min_eo.

    The vacuum lies in every truncated basis, and its even-branch energy is
    e_min_eo - (delta/2) * exp(-2 * sum_q2), so every run must find
    margin >= (delta/2) * exp(-2 * sum_q2): the vacuum floor.

    The scale is max(1, norm_bound) of the even branch.  Only a resolvable
    gap, delta > 0 and |gap| > GAP_RESOLUTION_FACTOR * eps * scale, with a
    positive margin is strictly-below.

    Raises
    ------
    InvariantViolation
        If a guaranteed inequality fails beyond 10 * tol * scale: the
        two-branch sum bound or the vacuum floor, or if the margin is not
        positive at a resolvable gap.  The offending report rides on the
        exception as ``report``.
    """
    parity, res_plus, res_minus = solve_branches(params, 1, tol, max_iter)
    e_plus = float(res_plus.values[0])
    e_minus = float(res_minus.values[0])
    e_gs = min(e_plus, e_minus)
    e_deg = e_min_eo(params.bath)
    margin = e_deg - e_gs
    measured_gap = e_minus - e_plus

    phi_plus, phi_minus = res_plus.vectors[:, 0], res_minus.vectors[:, 0]
    overlap = float(phi_plus @ phi_minus)
    if abs(overlap) < OVERLAP_GUARD:
        predicted_gap = None
    else:
        predicted_gap = (params.delta * degeneracy_condition_value(phi_plus, phi_minus, parity)
                         / overlap)

    scale = max(1.0, params.branches[0].norm_bound)
    slack = 10.0 * tol * scale
    vacuum_floor = 0.5 * params.delta * math.exp(-2.0 * params.bath.sum_q2)
    resolvable = (params.delta > 0.0 and predicted_gap is not None
                  and abs(predicted_gap) > GAP_RESOLUTION_FACTOR * _EPS * scale)

    if params.delta == 0.0:
        verdict = VERDICT_DEGENERATE
    elif resolvable and margin > 0.0:
        verdict = VERDICT_STRICT
    else:
        verdict = VERDICT_INDETERMINATE

    report = TheoremReport(
        e_gs=e_gs, e_plus_min=e_plus, e_minus_min=e_minus, e_min_eo=e_deg,
        margin=margin, predicted_gap=predicted_gap, measured_gap=measured_gap,
        verdict=verdict,
    )

    if e_plus + e_minus > 2.0 * e_deg + slack:
        raise InvariantViolation(
            f"branch minima sum {e_plus + e_minus:.17g} exceeds "
            f"2*e_min_eo + slack = {2.0 * e_deg + slack:.17g}",
            report=report,
        )
    if margin < vacuum_floor - slack:
        raise InvariantViolation(
            f"margin {margin:.17g} below the vacuum floor (delta/2)*exp(-2*sum_q2) "
            f"- slack = {vacuum_floor - slack:.17g}",
            report=report,
        )
    if resolvable and margin <= 0.0:
        raise InvariantViolation(
            f"margin {margin:.17g} not positive although the predicted gap "
            f"{predicted_gap:.17g} is resolvable",
            report=report,
        )
    return report


def degeneracy_condition_value(
    phi_plus: np.ndarray,
    phi_minus: np.ndarray,
    table: np.ndarray | KroneckerParity,
) -> float:
    """<phi+|D|phi-> through the dense D array or the matrix-free operator;
    zero iff the pair can be degenerate.

    The delta/2 prefactor of the tunneling term is deliberately not folded
    in, so the caller can scale by whichever delta is under discussion.
    """
    phi_plus = np.asarray(phi_plus, dtype=float)
    phi_minus = np.asarray(phi_minus, dtype=float)
    dim = table.shape[0]
    if phi_plus.shape != (dim,) or phi_minus.shape != (dim,):
        raise ParameterError(f"vectors must have shape ({dim},) to match the table")
    return float(phi_plus @ (table @ phi_minus))
