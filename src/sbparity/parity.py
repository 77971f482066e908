"""Truncation-induced parity breaking: diagonal invariance sums, deficiency,
the critical dissipation strength, and the closure bookkeeping for the bare
number basis.

In the complete displaced basis the squared bosonic parity factor is the
identity, which for the diagonal element at occupation m reads

    exp(-4 * sum_k q_k**2) * sum_n L(m, n)**2 = 1.

Truncating the inner sum at a cap makes the left side fall short of 1; the
shortfall (the "deficiency") grows with the dissipation strength alpha
because every q_k**2 is linear in alpha.  The critical alpha reported here is
the root of deficiency(alpha) = epsilon for a caller-chosen tolerance
epsilon, since at any finite cap the deficiency is positive for every
alpha > 0 and a parameter-free crossing point does not exist.

No basis is enumerated for O.  The rows of all modes are built as one
array, the vacuum rows (the bulk of a sweep at reference 0 or 2) from one
partial-exponential-series formula; under a per-mode cap O is the product
of the row sums, under a total-quanta cap a truncated convolution of the
rows.  The search takes its bath as one
:class:`~sbparity.bath.BathLadder`, binned once, and rescales it per alpha,
so one bisection step costs one bath rescale and one such sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .bath import BathLadder, BathModel
from .errors import CapacityError, InvariantViolation, ParameterError, SearchError
from .fockspace import (
    D_BOUND,
    FACTORIAL_GUARD,
    BasisSet,
    _check_table_dim,
    _checked_d_tables,
    _gather,
    single_mode_d_row,
)

__all__ = [
    "o_diagonal",
    "parity_deficiency",
    "CriticalPoint",
    "critical_alpha",
    "ParityAudit",
    "d_square_audit",
    "ClosureReport",
    "closure_report",
]

# Truncation caps above this make the diagonal sums pointlessly long.
MAX_SERIES_CAP = 1_000_000

# Multiply-adds of one total-quanta sum, (n_modes - 1) * (cap + 1)**2, above
# which it is refused.  np.convolve runs at 0.25-0.5 ns per multiply-add on a
# 2-vCPU x86 host, so one sum at the guard takes 12-25 ms.
MAX_CONVOLUTION_WORK = 50_000_000

_CLAMP_SLACK = 1e-14

# The critical-alpha search doubles its bracket from alpha = 1 up to this.
MAX_BRACKET_ALPHA = 1e4
# Deficiency tolerance of the search, tightened to 1e-6 * epsilon below it.
DEFICIENCY_TOL = 1e-10


def _normalize_m(m, n_modes: int) -> tuple[int, ...]:
    if m is None:
        return (0,) * n_modes
    m = tuple(int(v) for v in m)
    if len(m) != n_modes:
        raise ParameterError(
            f"reference occupation has length {len(m)}, expected {n_modes}"
        )
    for v in m:
        if v < 0:
            raise ParameterError(f"occupations must be >= 0, got {v}")
        if v > FACTORIAL_GUARD:
            raise ParameterError(
                f"reference occupation {v} exceeds the guard of {FACTORIAL_GUARD}"
            )
    return m


def _check_cap(n_tr: int):
    if not isinstance(n_tr, int) or n_tr < 0:
        raise ParameterError(f"truncation cap must be an integer >= 0, got {n_tr}")
    if n_tr > MAX_SERIES_CAP:
        raise ParameterError(
            f"truncation cap {n_tr} exceeds the series guard of {MAX_SERIES_CAP}"
        )


def _log_l2_row(m: int, q: float, n_tr: int) -> np.ndarray:
    """log L(m, n; q)**2 for n = 0..n_tr; -inf where L vanishes."""
    # Squares of D rather than L, so nothing overflows at large q.
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.abs(single_mode_d_row(m, q, n_tr))) + 4.0 * q * q


def _scaled_rows(m: tuple[int, ...], qs, n_tr: int):
    """Every mode's row of log L(m_k, n; q_k)**2, n = 0..n_tr, split into
    its maximum and exp(row - maximum): (list of maxima, (modes, n_tr + 1)
    array) in mode order, or None when some row is -inf throughout (O = 0).

    A vacuum row (m_k = 0, q_k != 0) is the partial exponential series
    L(0, n)**2 = mu**n / n!, mu = 4 q_k**2.  Those rows, all but a few in a
    sweep, come from that one formula over the whole array; the other rows
    are then written from :func:`_log_l2_row`.
    """
    log_mus, others = [], []
    for k, (mk, q) in enumerate(zip(m, qs)):
        if mk == 0 and q != 0.0:
            log_mus.append(math.log(4.0 * q * q))
        else:
            log_mus.append(0.0)
            others.append(k)
    n = np.arange(n_tr + 1, dtype=float)
    rows = n * np.array(log_mus)[:, None] - gammaln(n + 1.0)
    for k in others:
        rows[k] = _log_l2_row(m[k], qs[k], n_tr)
    shifts = rows.max(axis=1)
    tops = shifts.tolist()
    if -math.inf in tops:
        return None
    return tops, np.exp(rows - shifts[:, None])


def _exp_or_inf(log_o: float) -> float:
    try:
        return math.exp(log_o)
    except OverflowError:
        return math.inf


def o_diagonal(m, bath: BathModel, n_tr: int, policy: str = "per-mode") -> float:
    """Truncated diagonal invariance sum O at reference occupation ``m``.

    Under the per-mode policy the sum over the truncated index set factorizes
    into per-mode partial sums; under the total-quanta policy it is a
    truncated convolution of the per-mode rows, so no basis is enumerated
    under either policy.  Can overflow to inf at large couplings; callers
    needing the scaled combination should use :func:`parity_deficiency`,
    which works in log space throughout.
    """
    _check_cap(n_tr)
    m = _normalize_m(m, bath.n_modes)
    return _exp_or_inf(_log_o(m, bath, n_tr, policy))


def _log_o(m: tuple[int, ...], bath: BathModel, n_tr: int, policy: str) -> float:
    """log of the diagonal sum O at reference ``m``.

    Under a per-mode cap O is the product of the row sums, so its log is the
    exactly rounded sum (math.fsum) of their logs.  Under a total-quanta cap
    the sum over |n| <= n_tr of prod_k w_k(n_k) is the sum of the first
    n_tr + 1 coefficients of prod_k W_k(z), W_k(z) = sum_n w_k(n) z**n, so
    it is built by truncated convolution over the modes in
    (n_modes - 1) * (n_tr + 1)**2 multiply-adds.  The running product is
    scaled by its maximum after every mode, with the logs of the scales
    carried apart; every term is >= 0, so nothing cancels.
    """
    if policy == "total-quanta":
        work = (bath.n_modes - 1) * (n_tr + 1) ** 2
        if work > MAX_CONVOLUTION_WORK:
            raise CapacityError(
                f"total-quanta sum over {bath.n_modes} modes at cap {n_tr} needs {work} "
                f"multiply-adds, above the guard of {MAX_CONVOLUTION_WORK}; lower "
                f"disc.n_modes or trunc.cap"
            )
    elif policy != "per-mode":
        raise ParameterError(f"unknown truncation policy {policy!r}")
    rows = _scaled_rows(m, bath.qs, n_tr)
    if rows is None:
        return -math.inf
    logs, weights = rows
    if policy == "per-mode":
        sums = weights.sum(axis=1).tolist()
        return math.fsum(top + math.log(total) for top, total in zip(logs, sums))
    acc = weights[0]  # its maximum is exp(0) = 1
    for w in weights[1:]:
        acc = np.convolve(acc, w)[: n_tr + 1]
        top = float(np.max(acc))
        if top == 0.0:
            return -math.inf  # every nonzero product lies beyond the cap
        acc /= top
        logs.append(math.log(top))
    logs.append(math.log(float(np.sum(acc))))
    return math.fsum(logs)


def parity_deficiency(
    bath: BathModel, n_tr: int, m=None, policy: str = "per-mode"
) -> float:
    """1 - exp(-4 * sum_q2) * O at reference ``m`` (defaults to all zeros).

    Always lies in [0, 1]; float noise within 1e-14 of the boundary is
    clamped, anything beyond raises because the underlying sum of squares
    cannot exceed the complete-basis value.

    Raises
    ------
    CapacityError
        If a total-quanta sum needs more than MAX_CONVOLUTION_WORK
        multiply-adds.
    """
    _check_cap(n_tr)
    m = _normalize_m(m, bath.n_modes)
    return _deficiency(_log_o(m, bath, n_tr, policy), bath)


def _deficiency(log_o: float, bath: BathModel) -> float:
    """1 - exp(-4 * sum_q2) * O from log O, clamped as parity_deficiency says."""
    log_scaled = log_o - 4.0 * bath.sum_q2
    deficiency = 1.0 - math.exp(min(log_scaled, 700.0))
    # The log-space roundoff grows with the exponent magnitude, so the clamp
    # slack does too; it stays at 1e-14 whenever 4*sum_q2 <= 1.
    slack = _CLAMP_SLACK * max(1.0, 4.0 * bath.sum_q2)
    if deficiency < 0.0:
        if deficiency < -slack:
            raise InvariantViolation(
                f"scaled diagonal sum exceeds 1 by {-deficiency:.3e}; "
                "the truncated sum of squares cannot beat the complete basis"
            )
        deficiency = 0.0
    elif deficiency > 1.0:
        if deficiency > 1.0 + slack:
            raise InvariantViolation(f"deficiency {deficiency:.17g} above 1")
        deficiency = 1.0
    return deficiency


@dataclass(frozen=True)
class CriticalPoint:
    """Root of deficiency(alpha) = epsilon plus the inputs that shaped it.

    ``ln_o_over_2beta`` evaluates ln(O)/2*beta at the root, the logarithmic
    form the deficiency condition rearranges into; ``o_value`` may be inf
    when the unscaled sum overflows double precision.
    """

    s: float
    alpha_c: float
    epsilon: float
    n_tr: int
    n_modes: int
    lambda_disc: float
    beta: float
    m_ref: tuple[int, ...]
    o_value: float
    ln_o_over_2beta: float

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "alpha_c": self.alpha_c,
            "epsilon": self.epsilon,
            "n_tr": self.n_tr,
            "n_modes": self.n_modes,
            "lambda_disc": self.lambda_disc,
            "beta": self.beta,
            "m_ref": list(self.m_ref),
            "o_value": self.o_value,
            "ln_o_over_2beta": self.ln_o_over_2beta,
        }


def critical_alpha(
    ladder: BathLadder,
    n_tr: int,
    epsilon: float = 0.01,
    m_ref=None,
    policy: str = "per-mode",
) -> CriticalPoint:
    """Dissipation strength at which the parity deficiency reaches epsilon.

    ``ladder`` is the bath binned once without alpha (build it with
    :func:`sbparity.bath.bath_ladder`); every step of the search takes its
    bath from ``ladder.at(alpha)``, and the reported s, n_modes and
    lambda_disc are the ladder's.  Brackets by doubling from alpha = 1 up to
    MAX_BRACKET_ALPHA and bisects on the deficiency value; the returned root
    satisfies |deficiency(alpha_c) - epsilon| <= tol with
    tol = min(DEFICIENCY_TOL, 1e-6 * epsilon), so alpha_c is resolved to a
    relative deficiency error of 1e-6 however small epsilon is.

    Raises
    ------
    ParameterError
        If ``m_ref`` lies outside the truncated basis (some m_k > n_tr under
        the per-mode policy, or sum(m) > n_tr under total-quanta), or is
        excited while n_tr exceeds the factorial guard of 170.
    CapacityError
        If a total-quanta sum needs more than MAX_CONVOLUTION_WORK
        multiply-adds.
    SearchError
        If no bracket exists below MAX_BRACKET_ALPHA, or bisection exhausts
        float resolution without meeting the tolerance.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    _check_cap(n_tr)
    tol = min(DEFICIENCY_TOL, 1e-6 * epsilon)

    probe = ladder.at(1.0)
    m = _normalize_m(m_ref, probe.n_modes)
    quanta = max(m) if policy == "per-mode" else sum(m)
    if quanta > n_tr:
        # At alpha -> 0 the deficiency of such a state tends to 1, so the
        # search would only stall; say what is wrong instead.
        raise ParameterError(
            f"reference occupation {list(m)} lies outside the {policy} basis of "
            f"cap {n_tr}: parity.m_ref must fit under trunc.cap"
        )
    if quanta and n_tr > FACTORIAL_GUARD:
        # Excited rows are Laguerre rows, which stop at the factorial guard.
        raise ParameterError(
            f"trunc.cap {n_tr} exceeds the factorial guard of {FACTORIAL_GUARD} "
            f"for the excited parity.m_ref {list(m)}; only the vacuum reference "
            f"takes a larger cap"
        )

    def miss(bath):
        return _deficiency(_log_o(m, bath, n_tr, policy), bath) - epsilon

    hi = 1.0
    f_hi = miss(probe)
    while f_hi < 0.0:
        hi *= 2.0
        if hi > MAX_BRACKET_ALPHA:
            raise SearchError(
                f"deficiency stays below epsilon={epsilon:g} for alpha up to "
                f"{MAX_BRACKET_ALPHA:g} (last value {f_hi + epsilon:.6g}); no bracket"
            )
        f_hi = miss(ladder.at(hi))
    lo = 0.0
    root = hi
    f_root = f_hi
    for _ in range(500):
        if abs(f_root) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval exhausted at float resolution
        f_mid = miss(ladder.at(mid))
        if abs(f_mid) <= abs(f_root):
            root, f_root = mid, f_mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    if abs(f_root) > tol:
        raise SearchError(
            f"bisection stalled at deficiency error {f_root:.3e} "
            f"(target {tol:g}) near alpha = {root:.17g}"
        )

    bath_c = ladder.at(root)
    log_o = _log_o(m, bath_c, n_tr, policy)
    beta = bath_c.beta
    return CriticalPoint(
        s=ladder.s,
        alpha_c=root,
        epsilon=epsilon,
        n_tr=n_tr,
        n_modes=bath_c.n_modes,
        lambda_disc=ladder.lambda_disc,
        beta=beta,
        m_ref=m,
        o_value=_exp_or_inf(log_o),
        ln_o_over_2beta=log_o / (2.0 * beta),
    )


@dataclass(frozen=True)
class ParityAudit:
    """Squared-parity audit over a truncated basis.

    ``d2_diag_residuals`` holds |(D@D)_mm - 1| per basis vector; the
    deficiency fields refer to the all-zeros reference diagonal.
    """

    m: tuple[int, ...]
    n_tr: int
    o_value: float
    scale: float
    deficiency: float
    d2_diag_residuals: np.ndarray
    d2_max_offdiag: float

    def as_dict(self) -> dict:
        return {
            "m": list(self.m),
            "n_tr": self.n_tr,
            "o_value": self.o_value,
            "scale": self.scale,
            "deficiency": self.deficiency,
            "d2_diag_residuals": [float(v) for v in self.d2_diag_residuals],
            "d2_max_offdiag": self.d2_max_offdiag,
        }


def d_square_audit(basis: BasisSet, bath: BathModel) -> ParityAudit:
    """Square D over ``basis`` from per-mode pieces and report departures
    from identity.

    Write each basis state as a prefix u over modes 0..n-2 and a last-mode
    occupation a <= room(u), where room(u) is the cap under a per-mode cap
    and cap - |u| under a total-quanta cap.  Summing the middle index over
    the basis gives

        (D@D)[(v,a),(w,c)] = sum_r G_r[v,w] * Q_r[a,c],
        G_r = D'[:, U_r] @ D'[U_r, :],    Q_r = T[:, :r+1] @ T[:r+1, :],

    with D' the parity matrix over the prefix basis, U_r the prefixes of
    room r and T the last mode's table.  A per-mode basis has the single
    room cap, so D@D = D'@D' (x) T@T; a single mode has one empty prefix, so
    D@D = T@T.  Neither D nor any dim x dim product is formed: the prefixes
    are sorted by room and each group of rows with room s is paired with the
    columns of room >= s, which covers every unordered pair of the symmetric
    D@D once.  The last-mode axis is padded to cap + 1 and masked.

    Raises
    ------
    CapacityError
        If ``basis.dim`` exceeds MAX_TABLE_DIM: a per-mode basis still
        squares to one dim x dim block.
    InvariantViolation
        If any |D_mn| exceeds 1 + 1e-12, or a row norm (D@D)_mm exceeds
        1 + 1e-12.
    """
    _check_table_dim(basis.dim)
    tables = _checked_d_tables(basis, bath)
    occ = basis.occupations
    # Lexicographic order runs the last mode fastest, so each prefix owns the
    # contiguous states from its last-mode occupation 0 up to its room.
    starts = np.flatnonzero(occ[:, -1] == 0)
    room = np.maximum.reduceat(occ[:, -1], starts)
    order = np.argsort(room, kind="stable")
    starts, room = starts[order], room[order]
    # One group (room r, sorted positions lo:hi) per distinct room.
    cuts = [0, *(np.flatnonzero(np.diff(room)) + 1), len(room)]
    groups = [(room[lo], lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    d_prefix = _gather(occ[starts, :-1], tables[:-1])
    last = tables[-1]
    g = np.empty((len(groups),) + d_prefix.shape)
    q = np.empty((len(groups),) + last.shape)
    for i, (r, lo, hi) in enumerate(groups):
        np.matmul(d_prefix[:, lo:hi], d_prefix[lo:hi], out=g[i])
        np.matmul(last[:, : r + 1], last[: r + 1], out=q[i])
    # Padded last-mode occupations c > room(w) lie outside the basis.
    inside = np.arange(last.shape[0]) <= room[:, None]
    diag = np.empty(basis.dim)
    offdiag = 0.0
    for r, lo, hi in groups:
        # Rows of room r against every column of room >= r: by symmetry
        # this meets each unordered pair of states once.
        block = np.tensordot(g[:, lo:hi, lo:], q[:, : r + 1, :], axes=(0, 0))
        block *= inside[None, lo:, None, :]  # axes (v, w, a, c)
        v = np.arange(hi - lo)[:, None]
        a = np.arange(r + 1)
        diag[starts[lo:hi, None] + a] = block[v, v, a, a]
        block[v, v, a, a] = 0.0
        offdiag = max(offdiag, float(np.max(block)), -float(np.min(block)))
    worst = float(np.max(diag))
    if not worst <= D_BOUND:
        raise InvariantViolation(f"max (D@D)_mm = {worst:.17g} breaks the row-norm bound 1")
    policy = basis.policy
    zeros = (0,) * basis.n_modes
    log_o = _log_o(zeros, bath, policy.cap, policy.kind)
    return ParityAudit(
        m=zeros,
        n_tr=policy.cap,
        o_value=_exp_or_inf(log_o),
        scale=math.exp(-4.0 * bath.sum_q2),
        deficiency=_deficiency(log_o, bath),
        d2_diag_residuals=np.abs(diag - 1.0),
        d2_max_offdiag=offdiag,
    )


@dataclass(frozen=True)
class ClosureReport:
    """Counting argument for the bare-basis characteristic system.

    At per-mode cutoff ``n_tr`` with ``n_modes`` modes, every equation at a
    cutoff-boundary occupation references an amplitude outside the subspace.
    ``ratio`` = unknowns_discarded / independent_equations reduces exactly to
    n_modes / (n_tr + 1); only when it vanishes is the system determinate.
    The displaced-basis equations contain no such boundary terms and close
    under every truncation.
    """

    n_modes: int
    n_tr: int
    unknowns_discarded: int
    independent_equations: int
    ratio: Fraction

    @property
    def ratio_value(self) -> float:
        return float(self.ratio)

    @property
    def conclusion(self) -> str:
        return (
            "bare-basis characteristic system is underdetermined at any finite "
            "cutoff (boundary amplitudes discarded); displaced-basis equations "
            "close under every truncation"
        )

    def as_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "n_tr": self.n_tr,
            "unknowns_discarded": self.unknowns_discarded,
            "independent_equations": self.independent_equations,
            "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
            "ratio_value": self.ratio_value,
            "conclusion": self.conclusion,
        }


def closure_report(n_modes: int, n_tr: int) -> ClosureReport:
    """Exact discarded-unknowns ratio n_modes/(n_tr + 1) with its counts."""
    if not isinstance(n_modes, int) or n_modes < 1:
        raise ParameterError(f"n_modes must be an integer >= 1, got {n_modes}")
    if not isinstance(n_tr, int) or n_tr < 0:
        raise ParameterError(f"n_tr must be an integer >= 0, got {n_tr}")
    return ClosureReport(
        n_modes=n_modes,
        n_tr=n_tr,
        unknowns_discarded=n_modes * (n_tr + 1) ** (n_modes - 1),
        independent_equations=(n_tr + 1) ** n_modes,
        ratio=Fraction(n_modes, n_tr + 1),
    )
