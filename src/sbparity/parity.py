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
rows.  The search takes each bath as one
:class:`~sbparity.bath.BathLadder`, binned once.  A phase diagram searches
all its points in lockstep (:func:`critical_alphas`): every point keeps its
own bisection, and each round rescales the ladders of the points still
searching and sums their rows as one (n_tr + 1, points, modes) array, so
the per-call cost of numpy is paid once per round instead of once per
point.  What the points share (the reference occupation, the cap, the
policy and the log n! table) is checked and built once per search, in one
:class:`_LogO`; a point's own ladder is checked by its first round, at
alpha = 1.  A point whose search finds no root keeps its SearchError, and
any other fault ends the whole search in the round that meets it.
:func:`critical_alpha` is the one-point case.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bath import BathLadder, BathModel, LadderStack, _beta
from .errors import (
    CapacityError,
    InvariantViolation,
    ParameterError,
    SearchError,
    as_integer,
    check_count,
    check_policy,
    is_real,
)
from .fockspace import (D_BOUND, FACTORIAL_GUARD, BasisSet, KroneckerParity, _logs, log_factorials,
                        single_mode_d_row)

__all__ = [
    "o_diagonal",
    "parity_deficiency",
    "CriticalPoint",
    "critical_alpha",
    "critical_alphas",
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

# The critical-alpha search doubles its bracket from alpha = 1 up to this.
MAX_BRACKET_ALPHA = 1e4
# Deficiency tolerance of the search, tightened to 1e-6 * epsilon below it.
DEFICIENCY_TOL = 1e-10
# Entries of the (n_tr + 1, points, modes) row array that one chunk of a
# lockstep search holds, 160 kB per array.  At 30 modes, cap 20 (31 points a
# chunk) a 256-point sweep took 1.18 ms a point; 8 and 16 points a chunk took
# 1.44 and 1.25 ms, 64 to 256 points 1.34-1.40 ms (2-vCPU x86 host).
SEARCH_CHUNK_ENTRIES = 20_000


def _normalize_m(m, n_modes: int) -> tuple[int, ...]:
    if m is None:
        return (0,) * n_modes
    occ = tuple(map(as_integer, m)) if isinstance(m, Iterable) else (None,)
    if None in occ:
        raise ParameterError(
            f"reference occupation must be a sequence of {n_modes} integers, got {m!r}"
        )
    if len(occ) != n_modes:
        raise ParameterError(
            f"reference occupation has length {len(occ)}, expected {n_modes}"
        )
    for v in occ:
        if v < 0:
            raise ParameterError(f"occupations must be >= 0, got {v}")
        if v > FACTORIAL_GUARD:
            raise ParameterError(
                f"reference occupation {v} exceeds the guard of {FACTORIAL_GUARD}"
            )
    return occ


def _check_cap(n_tr: int) -> int:
    n_tr = check_count("truncation cap", n_tr, 0)
    if n_tr > MAX_SERIES_CAP:
        raise ParameterError(
            f"truncation cap {n_tr} exceeds the series guard of {MAX_SERIES_CAP}"
        )
    return n_tr


def _log_l2_row(m: int, q, n_tr: int) -> np.ndarray:
    """log L(m, n; q)**2 for n = 0..n_tr; -inf where L vanishes.  For a 1-D
    array ``q``, one such row per entry."""
    # Squares of D rather than L, so nothing overflows at large q.
    column = np.asarray(q)[..., None]
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.abs(single_mode_d_row(m, q, n_tr))) + 4.0 * column * column


def _check_policy(policy: str, n_modes: int, n_tr: int):
    if check_policy(policy) == "total-quanta":
        work = (n_modes - 1) * (n_tr + 1) ** 2
        if work > MAX_CONVOLUTION_WORK:
            raise CapacityError(
                f"total-quanta sum over {n_modes} modes at cap {n_tr} needs {work} "
                f"multiply-adds, above the guard of {MAX_CONVOLUTION_WORK}; lower "
                f"disc.n_modes or trunc.cap"
            )


class _LogO:
    """log of the diagonal sum O at reference ``m_ref`` for a stack of baths
    of ``n_modes`` modes, with the constants of the rows (log n!, the
    excited modes) built once.  The constructor owns the checks on its
    inputs, in this order: the cap, ``m_ref`` (None for the vacuum; kept
    normalized as ``m``), the policy name and the convolution guard.  A
    search builds one, which is its one check of the inputs its points
    share.

    Every mode's row of log L(m_k, n; q_k)**2, n = 0..n_tr, is built in one
    (n_tr + 1, baths, modes) array and split into its maximum and
    exp(row - maximum).  A vacuum row (m_k = 0) is the partial exponential
    series L(0, n)**2 = mu**n / n!, mu = 4 q_k**2, and is 0 at n = 0 and
    -inf beyond when mu is 0; those rows, all but a few in a sweep, come
    from that one formula.  The excited rows are then written over theirs
    from :func:`_log_l2_row`, one recurrence per distinct occupation.  With
    n leading, the maximum over n, the shift and the exp are elementwise
    passes over contiguous (baths, modes) slabs; a reduction over a short
    last axis costs as much as the whole exp.  The row sums and the
    convolution read one contiguous (baths, modes, n_tr + 1) copy of the
    weights instead, because numpy sums a contiguous row pairwise and the
    sweep bytes rest on that order.

    Under a per-mode cap O is the product of the row sums, so its log is
    the exactly rounded sum (math.fsum) of their logs.  Under a total-quanta
    cap the sum over |n| <= n_tr of prod_k w_k(n_k) is the sum of the first
    n_tr + 1 coefficients of prod_k W_k(z), W_k(z) = sum_n w_k(n) z**n, so
    it is built by truncated convolution over the modes in
    (n_modes - 1) * (n_tr + 1)**2 multiply-adds.  The running product is
    scaled by its maximum after every mode, with the logs of the scales
    carried apart; every term is >= 0, so nothing cancels.  Each bath's log
    O is rounded exactly as it would be alone.
    """

    def __init__(self, m_ref, n_modes: int, n_tr: int, policy: str):
        self.n_tr = n_tr = _check_cap(n_tr)
        self.m = m = _normalize_m(m_ref, n_modes)
        _check_policy(policy, n_modes, n_tr)
        self.policy = policy
        n = np.arange(n_tr + 1, dtype=float)
        self.n, self.log_fact = n, log_factorials(n_tr)
        self.decoupled = np.where(n == 0.0, 0.0, -math.inf)
        self.excited = {}  # occupation -> the modes that hold it
        for k, mk in enumerate(m):
            if mk:
                self.excited.setdefault(mk, []).append(k)

    def __call__(self, qs: np.ndarray) -> list[float]:
        """log O for every row of ``qs``, an array of shape (baths, modes)."""
        # A 4 q**2 past the double range is inf, and inf * (n = 0) makes log O
        # NaN, which the search refuses by name.
        with np.errstate(over="ignore", invalid="ignore"):
            mus = 4.0 * qs * qs
            decoupled = mus == 0.0
            some_decoupled = decoupled.any()
            if some_decoupled:
                mus[decoupled] = 1.0  # no log 0; these rows are set below
            rows = self.n[:, None, None] * _logs(mus)
        rows -= self.log_fact[:, None, None]
        if some_decoupled:
            rows[:, decoupled] = self.decoupled[:, None]  # excited ones are overwritten
        for mk, modes in self.excited.items():
            rows[:, :, modes] = _log_l2_row(mk, qs[:, modes].ravel(), self.n_tr).T.reshape(
                -1, len(qs), len(modes))
        shifts = rows.max(axis=0)
        with np.errstate(invalid="ignore"):  # rows of a bath whose O is 0
            rows -= shifts
        weights = np.exp(rows, out=rows).transpose(1, 2, 0).copy()
        # A row that is -inf throughout makes O = 0.
        zero = (shifts == -math.inf).any(axis=1).tolist()
        if self.policy == "per-mode":
            terms = (shifts + _logs(weights.sum(axis=2))).tolist()
            return [-math.inf if z else math.fsum(t) for z, t in zip(zero, terms)]
        return [-math.inf if z else self._convolved(logs, w)
                for z, logs, w in zip(zero, shifts.tolist(), weights)]

    def _convolved(self, logs: list[float], weights: np.ndarray) -> float:
        acc = weights[0]  # its maximum is exp(0) = 1
        for w in weights[1:]:
            acc = np.convolve(acc, w)[: self.n_tr + 1]
            top = float(np.max(acc))
            if top == 0.0:
                return -math.inf  # every nonzero product lies beyond the cap
            acc /= top
            logs.append(math.log(top))
        logs.append(math.log(float(np.sum(acc))))
        return math.fsum(logs)


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
    return _exp_or_inf(_log_o(m, bath, n_tr, policy))


def _log_o(m, bath: BathModel, n_tr: int, policy: str) -> float:
    """log of the diagonal sum O at reference ``m`` (see :class:`_LogO`)."""
    return _LogO(m, bath.n_modes, n_tr, policy)(np.array([bath.qs]))[0]


def parity_deficiency(
    bath: BathModel, n_tr: int, m=None, policy: str = "per-mode"
) -> float:
    """1 - exp(-4 * sum_q2) * O at reference ``m`` (defaults to all zeros).

    At most 1; float noise up to 1e-14 * max(1, 4 * sum_q2) below 0 is clamped
    to 0, anything further raises, as the truncated sum of squares cannot beat
    the complete basis.  NaN where 4 * q_k**2 overflows a double.

    Raises
    ------
    CapacityError
        If a total-quanta sum needs more than MAX_CONVOLUTION_WORK
        multiply-adds.
    """
    return _deficiency(_log_o(m, bath, n_tr, policy), bath.sum_q2)


def _deficiency(log_o: float, sum_q2: float) -> float:
    """1 - exp(-4 * sum_q2) * O from log O, clamped as parity_deficiency says."""
    log_scaled = log_o - 4.0 * sum_q2
    deficiency = 1.0 - math.exp(min(log_scaled, 700.0))
    if deficiency < 0.0:
        # The log-space roundoff grows with the exponent magnitude, so the
        # clamp slack does too; it stays at 1e-14 whenever 4*sum_q2 <= 1.
        if deficiency < -1e-14 * max(1.0, 4.0 * sum_q2):
            raise InvariantViolation(
                f"scaled diagonal sum exceeds 1 by {-deficiency:.3e}; "
                "the truncated sum of squares cannot beat the complete basis"
            )
        deficiency = 0.0
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


def critical_alpha(
    ladder: BathLadder,
    n_tr: int,
    epsilon: float = 0.01,
    m_ref=None,
    policy: str = "per-mode",
) -> CriticalPoint:
    """Dissipation strength at which the parity deficiency reaches epsilon.

    ``ladder`` is the bath binned once without alpha (build it with
    :func:`sbparity.bath.bath_ladder`); the search rescales it to each alpha
    it tries, and the reported s, n_modes and lambda_disc are the ladder's.
    Brackets by doubling from alpha = 1 up to MAX_BRACKET_ALPHA and bisects
    on the deficiency value; the returned root satisfies
    |deficiency(alpha_c) - epsilon| <= tol with
    tol = min(DEFICIENCY_TOL, 1e-6 * epsilon), so alpha_c is resolved to a
    relative deficiency error of 1e-6 however small epsilon is.  This is
    the one-ladder case of :func:`critical_alphas`.

    Raises
    ------
    ParameterError
        Before the search, in this order: if epsilon lies outside (0, 1),
        n_tr outside [0, MAX_SERIES_CAP], ``m_ref`` is not a sequence of one
        integer per mode or the policy is unknown; then (after the
        CapacityError) if ``m_ref`` lies outside the truncated basis (some
        m_k > n_tr under the per-mode policy, or sum(m) > n_tr under
        total-quanta) or is excited while n_tr exceeds the factorial guard
        of 170.  In the search, at the first alpha it tries (alpha = 1
        first) where the ladder's couplings or sum_q2 overflow, an excited
        mode's q is not finite or 4 * q_k**2 of a mode overflows, in this
        order.
    CapacityError
        If a total-quanta sum needs more than MAX_CONVOLUTION_WORK
        multiply-adds.
    InvariantViolation
        If the scaled diagonal sum exceeds 1 at an alpha the search tries.
    SearchError
        If no bracket exists below MAX_BRACKET_ALPHA, or bisection exhausts
        float resolution without meeting the tolerance.
    """
    (outcome,) = critical_alphas([ladder], n_tr, epsilon, m_ref, policy)
    if isinstance(outcome, SearchError):
        raise outcome
    return outcome


def critical_alphas(
    ladders,
    n_tr: int,
    epsilon: float = 0.01,
    m_ref=None,
    policy: str = "per-mode",
) -> list:
    """:func:`critical_alpha` at every ladder of ``ladders``, searched in
    lockstep: one list entry per ladder, its CriticalPoint or the
    SearchError its search raised.

    Every point runs the search of :func:`critical_alpha` step for step and
    gets the same result as alone; only the evaluations are shared.  Each
    round rescales the ladders of every point still searching to their own
    alphas and sums their deficiencies in one (n_tr + 1, points, modes)
    array.  ``ladders`` is a sequence of ladders with one mode count; it is
    searched in slices of SEARCH_CHUNK_ENTRIES row entries, so the working
    arrays do not grow with the number of points.  Each input is checked
    once, before the first slice, and a ladder's own check is its first
    round, at alpha = 1.

    Raises
    ------
    ParameterError, CapacityError
        Those :func:`critical_alpha` raises before its search, in its order,
        then a ParameterError naming the first ladder whose mode count
        differs from the first one's.
    ParameterError, InvariantViolation
        Those :func:`critical_alpha` raises in its search.  Any such fault,
        at any point, ends the whole search in the round that meets it; the
        slices are searched one after another.  Within a round the
        rescale's refusal (first row first) comes before log O's (an
        excited mode's q), and then each point's own check (4 * q_k**2,
        the scaled sum) runs in ladder order.
    """
    if not ladders:
        return []
    if not (is_real(epsilon) and 0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    log_o = _LogO(m_ref, len(ladders[0].omegas), n_tr, policy)
    n_tr, m = log_o.n_tr, log_o.m
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
    for i, ladder in enumerate(ladders):
        if len(ladder.omegas) != len(m):
            raise ParameterError(
                f"ladder {i} has {len(ladder.omegas)} modes, the first one {len(m)}; "
                f"the ladders of one search share their mode count"
            )
    size = max(1, SEARCH_CHUNK_ENTRIES // (len(m) * (n_tr + 1)))
    return [outcome for first in range(0, len(ladders), size)
            for outcome in _search_chunk(ladders[first:first + size], log_o, epsilon)]


def _bisection(epsilon: float, tol: float):
    """The root search of one point, as a generator: yields each alpha to
    try, is sent (deficiency(alpha) - epsilon, evaluation) back, and returns
    (root, the evaluation sent for the root)."""
    hi = 1.0
    f_hi, at_hi = yield hi
    while f_hi < 0.0:
        hi *= 2.0
        if hi > MAX_BRACKET_ALPHA:
            raise SearchError(
                f"deficiency stays below epsilon={epsilon:g} for alpha up to "
                f"{MAX_BRACKET_ALPHA:g} (last value {f_hi + epsilon:.6g}); no bracket"
            )
        f_hi, at_hi = yield hi
    lo = 0.0
    root, f_root, at_root = hi, f_hi, at_hi
    for _ in range(500):
        if abs(f_root) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval exhausted at float resolution
        f_mid, at_mid = yield mid
        if abs(f_mid) <= abs(f_root):
            root, f_root, at_root = mid, f_mid, at_mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    if abs(f_root) > tol:
        raise SearchError(
            f"bisection stalled at deficiency error {f_root:.3e} "
            f"(target {tol:g}) near alpha = {root:.17g}"
        )
    return root, at_root


def _search_chunk(ladders, log_o: _LogO, epsilon: float) -> list:
    """The searches of ``ladders`` in lockstep with the search's one
    ``log_o``: per ladder its CriticalPoint or the SearchError its search
    raised.  A ladder's own checks are its first round, at alpha = 1; any
    other error ends the chunk in the round that meets it, in the order
    :func:`critical_alphas` states."""
    tol = min(DEFICIENCY_TOL, 1e-6 * epsilon)
    outcomes = [None] * len(ladders)
    stack = LadderStack(ladders)
    searches = [_bisection(epsilon, tol) for _ in ladders]
    pending = {r: next(search) for r, search in enumerate(searches)}  # row -> alpha
    roots = {}
    while pending:
        rows, alphas = list(pending), list(pending.values())
        _, qs, sums = stack.at(rows, alphas)
        for r, alpha, log_o_r, sum_q2 in zip(rows, alphas, log_o(qs), sums):
            if math.isnan(log_o_r):  # only where 4 * q_k**2 is inf
                raise ParameterError(f"4 * q_k**2 overflows a double at alpha = {alpha!r}")
            miss = _deficiency(log_o_r, sum_q2) - epsilon
            try:
                pending[r] = searches[r].send((miss, (log_o_r, sum_q2)))
            except StopIteration as stop:
                roots[r] = stop.value
                del pending[r]
            except SearchError as exc:
                outcomes[r] = exc
                del pending[r]
    for r, (root, (log_o_r, sum_q2)) in roots.items():
        ladder = ladders[r]
        beta = _beta(sum_q2, root)
        outcomes[r] = CriticalPoint(
            s=ladder.s,
            alpha_c=root,
            epsilon=epsilon,
            n_tr=log_o.n_tr,
            n_modes=len(log_o.m),
            lambda_disc=ladder.lambda_disc,
            beta=beta,
            m_ref=log_o.m,
            o_value=_exp_or_inf(log_o_r),
            ln_o_over_2beta=log_o_r / (2.0 * beta),
        )
    return outcomes


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


def d_square_audit(basis: BasisSet, bath: BathModel) -> ParityAudit:
    """Square D over ``basis`` with :meth:`KroneckerParity.square` and report
    departures from identity; InvariantViolation if a row norm (D@D)_mm
    exceeds 1 + 1e-12, or if row 0, the vacuum, and the series deficiency
    differ by more than 1e-12 * max(1, 4 * sum_q2)."""
    diag, offdiag = KroneckerParity(basis, bath).square()
    worst = float(np.max(diag))
    if not worst <= D_BOUND:
        raise InvariantViolation(f"max (D@D)_mm = {worst:.17g} breaks the row-norm bound 1")
    zeros = (0,) * basis.n_modes
    log_o = _log_o(zeros, bath, basis.cap, basis.policy)
    deficiency = _deficiency(log_o, bath.sum_q2)
    residuals = np.abs(diag - 1.0)
    if not abs(residuals[0] - deficiency) <= 1e-12 * max(1.0, 4.0 * bath.sum_q2):
        raise InvariantViolation(f"vacuum deficiency {deficiency:.17g} from the series and "
                                 f"{residuals[0]:.17g} from the square disagree")
    return ParityAudit(
        m=zeros,
        n_tr=basis.cap,
        o_value=_exp_or_inf(log_o),
        scale=math.exp(-4.0 * bath.sum_q2),
        deficiency=deficiency,
        d2_diag_residuals=residuals,
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


def closure_report(n_modes: int, n_tr: int) -> ClosureReport:
    """Exact discarded-unknowns ratio n_modes/(n_tr + 1) with its counts, at
    per-mode cap ``n_tr``.

    ParameterError when a count has more digits than ``str`` converts or the
    ratio overflows a double.  Logarithms refuse counts past the digit limit
    by more than a digit before any power is formed (a huge ``n_modes``
    would otherwise take unbounded time and memory); within that digit the
    exact counts decide.  Where the digit limit is switched off, Python's
    default limit stands in for it.
    """
    n_modes = check_count("n_modes", n_modes, 1)
    n_tr = check_count("n_tr", n_tr, 0)
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    refused = ParameterError(
        f"the closure counts must have at most {digits} digits and the ratio "
        f"n_modes / (cap + 1) must fit a double"
    )
    log_base = math.log10(n_tr + 1)
    log_ratio = math.log10(n_modes) - log_base
    # log10 of the larger count, n_modes * (n_tr + 1)**(n_modes - 1) or
    # (n_tr + 1)**n_modes.  min() keeps the product a finite float: at
    # n_tr >= 1, 1e300 modes are already far past any digit limit, and at
    # n_tr 0 the product is 0 whatever n_modes is.
    log_count = min(n_modes, 1e300) * log_base + max(log_ratio, 0.0)
    if not (log_count < digits + 1 and log_ratio < math.log10(sys.float_info.max) + 1):
        raise refused
    report = ClosureReport(
        n_modes=n_modes,
        n_tr=n_tr,
        unknowns_discarded=n_modes * (n_tr + 1) ** (n_modes - 1),
        independent_equations=(n_tr + 1) ** n_modes,
        ratio=Fraction(n_modes, n_tr + 1),
    )
    try:
        report.ratio_value
    except OverflowError:
        raise refused from None
    if max(report.unknowns_discarded, report.independent_equations) >= 10 ** digits:
        raise refused
    return report
