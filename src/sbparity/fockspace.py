"""Truncated multi-mode occupation bases and the matrix elements of the
bosonic parity factor between displaced oscillator number states.

A basis, :class:`BasisSet`, is one read-only int64 array of occupation
vectors cut at ``(cap, policy)``, with the ``trunc.policy`` strings of the
configuration: "per-mode" or "total-quanta".  One loop enumerates both.

The single-mode overlap factor

    L(m, n; q) = sum_{j=0}^{min(m,n)} (-1)**j * sqrt(m! n!) * (2q)**(m+n-2j)
                 / ((m-j)! (n-j)! j!)

scaled by exp(-2 q**2) is the single-mode parity element D(m, n).  With
x = 2q, t = x**2 and k = m - n >= 0 it is a normalized associated Laguerre
polynomial (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)):

    L(n+k, n; q) = (-1)**n * x**k * sqrt(n! / (n+k)!) * L_n^(k)(t).

The alternating sum cancels catastrophically, so it is never summed: the
normalized functions obey the three-term recurrence of DLMF §18.9, run in n
along every diagonal k at once, which is stable to about 1e-14 absolute over
the whole occupation range.  D is the stored quantity, because
L * exp(-2 sum_k q_k**2) is 0 * inf at strong coupling; L is formed only for
table dumps (:func:`l_matrix`), from the same recurrence without the
exp(-2 q**2) seed.  An exact rational evaluation backs the unit tests, and
:func:`overlap_oracle` gives an independent route through the bare number
basis.

Over a multi-mode basis D is one object, :class:`KroneckerParity`, built
from the per-mode tables: it applies D to a vector one mode at a time,
gathers it into one dense dim x dim array, and squares it for the parity
audit.  A product over a total-quanta basis runs in the per-mode box, but
where the simplex keeps at most a third of a mode step's rows (four modes
from cap 3, more modes from cap 1) its first step multiplies only the rows
the basis fills and its last step only the rows the basis reads back.

The sign convention fixed by the oracle under q = +lam/(2*omega):
D(0, 1) = +2q * exp(-2q**2) for a single mode.  Branch spectra are invariant
under flipping the sign of every odd row (a similarity transform), which is
covered by a property test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .bath import BathModel
from .errors import (CapacityError, ConvergenceError, InvariantViolation, ParameterError,
                     check_count, check_policy)

__all__ = [
    "default_policy",
    "BasisSet",
    "enumerate_basis",
    "l_scaled_rational",
    "single_mode_l_table",
    "single_mode_d_table",
    "single_mode_d_row",
    "KroneckerParity",
    "l_matrix",
    "overlap_oracle",
    "log_factorials",
    "FACTORIAL_GUARD",
    "MAX_BASIS_STATES",
]

# A fixed bound on every occupation, kept for now; the name is historical.
# The kernel forms no factorial (it seeds in logs with log_factorials), and
# its exp(-2 q**2) seed depends on q, not on the occupation: it underflows
# only past q ~ 19.
FACTORIAL_GUARD = 170

# Default cap on enumerated basis dimension.
MAX_BASIS_STATES = 200_000

# Default cap on the dimension of the dense D array (memory bound, dim**2 floats).
MAX_TABLE_DIM = 5_000

# Cap on the per-mode box a product embeds its vector in (8 bytes per state),
# checked at each product.
MAX_BOX_STATES = 4_000_000

# A total-quanta product trims its first and last mode steps to the rows the
# simplex reaches only where they are at most this share of a step's rows
# (see KroneckerParity._ends for the measurement).
TRIM_MAX_SHARE = 1.0 / 3.0

# |D_mn| <= 1 and (D@D)_mm <= 1 hold exactly; this is their slack in the guards.
D_BOUND = 1.0 + 1e-12

_LGAMMA = math.lgamma

# Cephes lgam (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), the routine scipy.special.gammaln runs: log(sqrt(2 pi)) and the
# coefficients of its Stirling series for 13 <= x < 1000, highest power first.
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _logs(values: np.ndarray) -> np.ndarray:
    """math.log of every entry, as a float array of the same shape, in any
    layout.  np.log may take a SIMD route that rounds differently, and the
    sweep bytes rest on the scalar logs.  np.fromiter fills the array
    straight from the logs, with no list of them in between; a search
    round takes two such passes over its (points, modes) entries."""
    return np.fromiter(map(math.log, values.ravel().tolist()), float, values.size).reshape(
        values.shape)


def log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max, each rounded exactly as
    ``scipy.special.gammaln(k + 1.0)`` rounds it.

    Cephes lgam at x = k + 1, operation for operation: below x = 13 the log
    of the exact product (x - 1)!; from there the Stirling series
    (x - 0.5) log x - x + log sqrt(2 pi) + P(1/x**2) / x, with Cephes' short
    P from x = 1000.  The logs are :func:`_logs`; everything else is IEEE
    arithmetic, which numpy rounds as C does.
    """
    out = np.empty(n_max + 1)
    head = min(n_max + 1, 12)
    out[:head] = [math.log(math.factorial(k)) for k in range(head)]
    x = np.arange(13.0, n_max + 2.0)
    p = 1.0 / (x * x)
    mid, big = p[:987], p[987:]  # x < 1000 and x >= 1000
    a0, a1, a2, a3, a4 = _LGAM_A
    series = np.concatenate([
        (((a0 * mid + a1) * mid + a2) * mid + a3) * mid + a4,
        (7.9365079365079365079365e-4 * big - 2.7777777777777777777778e-3) * big
        + 0.0833333333333333333333])
    out[12:] = (x - 0.5) * _logs(x) - x + _LS2PI + series / x
    return out


def default_policy(n_modes: int) -> str:
    """"per-mode" for one or two modes, "total-quanta" beyond that."""
    return "per-mode" if n_modes <= 2 else "total-quanta"


@dataclass(frozen=True, eq=False)
class BasisSet:
    """The basis cut at ``cap`` under ``policy`` ("per-mode" or
    "total-quanta"), as one read-only int64 (dim, n_modes) array of
    occupation vectors, in lexicographic order with row 0 all zeros.  Two
    bases compare equal only when they are the same object."""

    cap: int
    policy: str
    occupations: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.occupations.shape[1]

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @property
    def box_shape(self) -> tuple[int, ...]:
        """Shape of the per-mode box {0..cap}**n_modes that holds the basis
        under either policy."""
        return (self.cap + 1,) * self.n_modes


def enumerate_basis(n_modes: int, cap: int, policy: str) -> BasisSet:
    """Enumerate the basis cut at ``cap`` under ``policy`` in lexicographic
    order.

    Each prefix over the modes so far is followed by the next mode's
    occupations 0 up to its room: the cap under "per-mode", the cap minus
    the prefix's quanta under "total-quanta".

    Raises
    ------
    ParameterError
        If ``policy`` is neither policy string, or ``n_modes`` or ``cap`` is
        a bool, not an integer, or below 1 (0 for the cap).
    CapacityError
        If the closed-form dimension exceeds ``MAX_BASIS_STATES``.
    """
    n_modes = check_count("n_modes", n_modes, 1)
    total = check_policy(policy) == "total-quanta"
    cap = check_count("truncation cap", cap, 0)
    dim = math.comb(cap + n_modes, n_modes) if total else (cap + 1) ** n_modes
    if dim > MAX_BASIS_STATES:
        raise CapacityError(
            f"basis would hold {dim} states, above the guard of {MAX_BASIS_STATES}"
        )
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):
        counts = (cap - occ.sum(axis=1) if total else np.full(len(occ), cap)) + 1
        firsts = np.repeat(np.cumsum(counts) - counts, counts)
        last = np.arange(len(firsts), dtype=np.int64) - firsts
        occ = np.column_stack([np.repeat(occ, counts, axis=0), last])
    occ.setflags(write=False)
    return BasisSet(cap=cap, policy=policy, occupations=occ)


def _check_occupation(n: int):
    if n > FACTORIAL_GUARD:
        raise CapacityError(
            f"occupation {n} exceeds the factorial guard of {FACTORIAL_GUARD}"
        )
    if n < 0:
        raise ParameterError(f"occupations must be >= 0, got {n}")


def _single_mode_block(q, m_max: int, n_max: int, scaled: bool, rows=slice(None)) -> np.ndarray:
    """Single-mode L(m, n; q) for m <= m_max, n <= n_max, times exp(-2 q**2)
    when ``scaled`` (that is, D): rows ``rows`` (an index or a slice) of the
    block.

    ``q`` is a float, giving one (m_max + 1, n_max + 1) block, or a 1-D
    array, giving one block per entry stacked along a leading axis.  One
    take by the cached index gathers the rows straight from the recurrence
    rows of :func:`_recurrence_rows`: entry (m, n) is row min(m, n) + 1 at
    diagonal |m - n|.  A q of 0 gives the rows of diag((-1)**m), which its
    recurrence seed does not.  A q that is not finite or is below 0 raises
    ParameterError.
    """
    qs = np.array(q, dtype=float, ndmin=1)
    _, _, (_, _, _, index) = _recurrence_factors(m_max, n_max)
    f = _recurrence_rows(qs, m_max, n_max, scaled)
    # (steps + 1, q, diagonals) to one run of rows per q: a view for one q.
    out = np.take(f.transpose(1, 0, 2).reshape(len(qs), -1), index[rows], axis=1)
    if 0.0 in qs.tolist():
        j = np.arange(min(m_max, n_max) + 1)
        identity = np.zeros((m_max + 1, n_max + 1))
        identity[j, j] = np.where(j % 2, -1.0, 1.0)
        out[qs == 0.0] = identity[rows]
    return out if np.ndim(q) else out[0]


def _recurrence_rows(qs: np.ndarray, m_max: int, n_max: int, scaled: bool) -> np.ndarray:
    """The normalized Laguerre recurrence in j = min(m, n) for
    min(m_max, n_max) + 1 steps, vectorized over the diagonals k = |m - n|
    and over the 1-D array ``qs``, with the sign (-1)**j folded in.

    Returns one (steps + 1, len(qs), diagonals) array of rows: row 0 is the
    zero f_{-1} and row j + 1 holds step j.  Rows j and j + 1 give row
    j + 2 by three calls: one multiply by step j's stacked
    [back; t - diag], one subtract and one divide by ahead, so each entry
    is rounded as ((t - diag) f_j - back f_{j-1}) / ahead.  The seed is
    formed in logs, so the scaled rows never meet exp(+2 q**2).  Every
    entry is rounded as a scalar q would round it.  A q that is not finite
    or is below 0 raises ParameterError.
    """
    bad = [v for v in qs.tolist() if not 0.0 <= v < math.inf]
    if bad:
        raise ParameterError(f"displacement q must be finite and >= 0, got {bad[0]!r}")
    k, half_lgamma, (diag, back, ahead, _) = _recurrence_factors(m_max, n_max)
    x = 2.0 * qs
    log_x = np.array([math.log(v) if v != 0.0 else 0.0 for v in x.tolist()])
    f = np.empty((len(ahead) + 2, len(qs), len(k)))
    f[0] = 0.0
    coeffs = np.empty((len(ahead), 2) + f.shape[1:])  # [back; t - diag] per step
    terms = np.empty((2,) + f.shape[1:])
    lower, upper = terms
    # No warnings: L overflows to inf at large q (see l_matrix), and past
    # q ~ 6.7e153 t is inf and D NaN, which the |D| <= 1 guard refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        t = (x * x)[:, None]
        f[1] = np.exp((-0.5 * t if scaled else 0.0) + k * log_x[:, None] - half_lgamma)
        coeffs[:, 0] = back[:, None]
        # (t - diag) is -(diag - t) exactly.
        np.subtract(t, diag[:, None], out=coeffs[:, 1])
        for j, (coeff, step_ahead) in enumerate(zip(coeffs, ahead)):
            row = f[j + 2]
            np.multiply(coeff, f[j : j + 2], out=terms)
            np.subtract(upper, lower, out=row)
            np.divide(row, step_ahead, out=row)
    return f


@lru_cache(maxsize=64)
def _recurrence_factors(m_max: int, n_max: int):
    """The k-only factors of :func:`_recurrence_rows`, read-only: k,
    0.5 * lgamma(k + 1) and (diag, back, ahead, index).  The first three
    are (steps - 1, diagonals) float arrays whose row j is step j's
    2j + 1 + k, sqrt(j (j + k)) and sqrt((j + 1)(j + 1 + k)); ``index`` is
    the (m_max + 1, n_max + 1) array of flat positions, (min(m, n) + 1)
    * diagonals + |m - n|, of each entry in the recurrence rows of one q."""
    k = np.arange(max(m_max, n_max) + 1)
    j = np.arange(min(m_max, n_max))[:, None]
    diag = (2 * j + 1 + k).astype(float)
    back = np.sqrt(j * (j + k))
    ahead = np.sqrt((j + 1) * (j + 1 + k))
    m, n = np.ogrid[: m_max + 1, : n_max + 1]
    index = (np.minimum(m, n) + 1) * len(k) + abs(m - n)
    half_lgamma = 0.5 * log_factorials(len(k) - 1)
    for array in (k, half_lgamma, diag, back, ahead, index):
        array.setflags(write=False)
    return k, half_lgamma, (diag, back, ahead, index)


def l_scaled_rational(m: int, n: int, q: Fraction) -> Fraction:
    """Exact L(m, n; q) / sqrt(m! n!) for rational q (test reference)."""
    q = Fraction(q)
    total = Fraction(0)
    for j in range(min(m, n) + 1):
        total += (
            Fraction((-1) ** j)
            * (2 * q) ** (m + n - 2 * j)
            / (math.factorial(m - j) * math.factorial(n - j) * math.factorial(j))
        )
    return total


def single_mode_l_table(q: float, cap: int) -> np.ndarray:
    """Symmetric (cap+1) x (cap+1) table of single-mode L values."""
    _check_occupation(cap)
    return _single_mode_block(q, cap, cap, scaled=False)


def single_mode_d_table(q: float, cap: int) -> np.ndarray:
    """Symmetric (cap+1) x (cap+1) table of single-mode D values."""
    _check_occupation(cap)
    return _single_mode_block(q, cap, cap, scaled=True)


def single_mode_d_row(m: int, q, n_max: int) -> np.ndarray:
    """Single-mode row [D(m, 0; q), ..., D(m, n_max; q)], in min(m, n_max) + 1
    steps; for a 1-D array ``q``, one such row per entry, in one recurrence."""
    _check_occupation(m)
    _check_occupation(n_max)
    return _single_mode_block(q, m, n_max, True, m)


def _mode_tables(basis: BasisSet, bath: BathModel, table) -> list[np.ndarray]:
    """``table(q, cap)`` for every mode, up to that mode's cap in ``basis``."""
    if basis.n_modes != bath.n_modes:
        raise ParameterError(
            f"basis has {basis.n_modes} modes but bath has {bath.n_modes}"
        )
    return [table(q, size - 1) for q, size in zip(bath.qs, basis.box_shape)]


def _gather(occ: np.ndarray, tables) -> np.ndarray:
    """len(occ) x len(occ) product over modes, in mode order, of the
    single-mode ``tables`` gathered at the occupation rows ``occ`` (all ones
    when there are no modes).

    Each table is gathered by two takes, rows then columns.  The product
    starts from mode 0's gather instead of from ones: 1.0 * x is exact, so
    the bits are those of the product from ones."""
    if not tables:
        return np.ones((len(occ), len(occ)))
    out = tables[0].take(occ[:, 0], axis=0).take(occ[:, 0], axis=1)
    for k, table in enumerate(tables[1:], 1):
        out *= table.take(occ[:, k], axis=0).take(occ[:, k], axis=1)
    return out


def _check_table_dim(dim: int):
    if dim > MAX_TABLE_DIM:
        raise CapacityError(
            f"dense parity table of dimension {dim} exceeds guard {MAX_TABLE_DIM}"
        )


def l_matrix(basis: BasisSet, bath: BathModel) -> np.ndarray:
    """Multi-mode L over ``basis`` as a dense array, for table dumps only;
    may overflow to inf at large coupling, where D does not."""
    return _gather(basis.occupations, _mode_tables(basis, bath, single_mode_l_table))


class KroneckerParity:
    """The parity matrix D over ``basis``, built from the single-mode tables.

    On the per-mode box D is exactly the Kronecker product of the
    single-mode tables, so D @ x is applied one mode axis at a time in
    O(box * sum_k (cap_k + 1)) (the "shuffle" product of Fernandes, Plateau
    & Stewart, J. ACM 45(3), 1998).  A total-quanta basis is a subset of
    the box, and D over the subset is the principal submatrix of the box
    operator, so a vector is multiplied in the box and restricted back.
    The first mode step multiplies only the rows the simplex reaches
    (occupations of modes 1.. with at most ``cap`` quanta) and the last step
    only the rows it reads back (modes ..n-2 with at most ``cap`` quanta),
    where those rows are a small share of the step's (see :attr:`_ends`);
    the steps in between run on the whole box.  :meth:`dense` gathers D into
    one dim x dim array and :meth:`square` squares it for the parity audit.
    The tables are built and checked once, on first use; the box guard is
    checked at each product, so a box too large for products keeps the rest.
    """

    def __init__(self, basis: BasisSet, bath: BathModel):
        self.basis = basis
        self.bath = bath
        self.box = math.prod(basis.box_shape)

    @cached_property
    def tables(self) -> list[np.ndarray]:
        """Single-mode D tables up to each mode's cap in ``basis``.  Every
        element of D is a product of their entries, so |D| <= 1 holds once it
        holds for each table: InvariantViolation if not, or if one is NaN."""
        tables = _mode_tables(self.basis, self.bath, single_mode_d_table)
        for k, table in enumerate(tables):
            worst = max(np.max(table), -np.min(table))  # NaN if any entry is NaN
            if not worst <= D_BOUND:
                raise InvariantViolation(f"mode {k}: max|D| = {worst:.6g} breaks |D| <= 1")
        return tables

    @cached_property
    def _index(self) -> np.ndarray | None:
        """Flat box index of each state; None when the basis is the box."""
        if self.box > MAX_BOX_STATES:
            raise CapacityError(
                f"per-mode box of {self.box} states exceeds guard {MAX_BOX_STATES}"
            )
        # Lexicographic order is C order on the box, so the flat indices ascend.
        return (None if self.box == self.basis.dim
                else np.ravel_multi_index(self.basis.occupations.T, self.basis.box_shape))

    @cached_property
    def _ends(self) -> tuple[np.ndarray, ...] | None:
        """The read-only index arrays ``(take, rows, keep, pick)`` of the
        trimmed first and last steps of :meth:`apply`; None where every step
        runs on the whole box.

        Both end steps have (cap + 1)**(n - 1) rows, of which the simplex
        reaches C(cap + n - 1, n - 1): those of modes 1.. (first step) or
        modes ..n-2 (last step) with at most ``cap`` quanta.  The first
        step's operand is x padded with one zero and taken at ``take``, a
        (cap + 1, rows) array of basis positions; its product rows go to box
        rows ``rows``, and the box's other rows stay exact zeros, as the box
        product leaves them.  The last step multiplies the box rows
        ``keep`` and reads the basis states at ``pick``.  Each kept row is
        the same dot product over cap + 1 terms of the same F-ordered
        operand times ``table.T``, and OpenBLAS rounds a row alike whatever
        the row count, so every bit is the box product's
        (``tests/conftest.py::box_product``).

        The takes cost a few microseconds per product, so the ends are
        trimmed only where the reached rows are at most TRIM_MAX_SHARE of a
        step's.  Measured with BLAS on one thread (2-vCPU x86), box product
        against trimmed, minima: 4 modes cap 12 (share 0.21) 125 against
        99-106 us, 5 modes cap 8 (0.075) 240 against 183 us, 6 modes cap 6
        (0.027) 790 against 580 us.  3 modes cap 16 (0.53) takes 26-30 us
        either way, but trimmed it made the ``theorem`` and ``spectrum``
        solves on that basis ~10 % slower; every 2- and 3-mode basis keeps
        more than half its rows.  The small boxes that pass the rule (4 modes
        at caps 3 to 8, say) lose those microseconds, but
        :func:`sbparity.spectra.use_lanczos` sends them to the dense solve,
        which runs no product.
        """
        index = self._index
        if index is None:  # the basis is the box
            return None
        occ = self.basis.occupations
        width = self.basis.cap + 1
        inner = self.box // width
        # Lexicographic order puts the states with mode 0 empty first, and
        # those are the first step's reached rows.
        n_rows = int(np.count_nonzero(occ[:, 0] == 0))
        if n_rows > TRIM_MAX_SHARE * inner:
            return None
        rows = index[:n_rows]
        take = np.full((width, n_rows), self.basis.dim)
        take[occ[:, 0], np.searchsorted(rows, index % inner)] = np.arange(self.basis.dim)
        starts = occ[:, -1] == 0  # one per prefix over modes ..n-2, in order
        keep = index[starts] // width
        pick = (np.cumsum(starts) - 1) * width + occ[:, -1]
        for array in (take, rows, keep, pick):
            array.setflags(write=False)
        return take, rows, keep, pick

    @property
    def shape(self) -> tuple[int, int]:
        return (self.basis.dim, self.basis.dim)

    def __matmul__(self, x) -> np.ndarray:
        return self.apply(x)

    def apply(self, x) -> np.ndarray:
        """D @ x for one vector x of shape (dim,); CapacityError if the box
        holds more than MAX_BOX_STATES states."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape[:1]:
            raise ParameterError(f"D takes one vector of shape {self.shape[:1]}, got {x.shape}")
        index, ends, tables = self._index, self._ends, self.tables
        # Each step contracts the leading mode axis and moves it to the back,
        # so after every mode the axes are back in order.
        if ends is not None:
            take, rows, keep, pick = ends
            first, *middle, last = tables
            width = first.shape[0]
            t = np.zeros((self.box // width, width))
            t[rows] = np.append(x, 0.0).take(take).T @ first.T
            for table in middle:
                t = t.reshape(table.shape[0], -1).T @ table.T
            t = t.reshape(width, -1).take(keep, axis=1).T @ last.T
            return t.reshape(-1).take(pick)
        if index is None:
            t = x
        else:
            t = np.zeros(self.box)
            t[index] = x
        for table in tables:
            t = t.reshape(table.shape[0], -1).T @ table.T
        t = t.reshape(-1)
        return t if index is None else t[index]

    def dense(self) -> np.ndarray:
        """D as one read-only dim x dim array, gathered once, each entry the
        product over modes of table entries, so exactly symmetric;
        CapacityError above MAX_TABLE_DIM."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        _check_table_dim(self.basis.dim)
        d = _gather(self.basis.occupations, self.tables)
        d.setflags(write=False)
        return d

    def square(self) -> tuple[np.ndarray, float]:
        """The diagonal of D@D, one entry per basis state, and its largest
        off-diagonal magnitude, from per-mode pieces.

        Write each basis state as a prefix u over modes 0..n-2 and a
        last-mode occupation a <= room(u), where room(u) is the cap under a
        per-mode cap and cap - |u| under a total-quanta cap.  Summing the
        middle index over the basis gives

            (D@D)[(v,a),(w,c)] = sum_r G_r[v,w] * Q_r[a,c],
            G_r = D'[:, U_r] @ D'[U_r, :],    Q_r = T[:, :r+1] @ T[:r+1, :],

        with D' the parity matrix over the prefix basis, U_r the prefixes of
        room r and T the last mode's table.  A per-mode basis has the single
        room cap, so D@D = D'@D' (x) T@T; a single mode has one empty
        prefix, so D@D = T@T.  Neither D nor any dim x dim product is
        formed: the prefixes are sorted by room and each group of rows with
        room s is paired with the columns of room >= s, which covers every
        unordered pair of the symmetric D@D once.  The last-mode axis is
        padded to cap + 1; the padded entries of the columns of each room
        are zeroed by slice before the maximum is taken.

        Each group's block is one GEMM, the one ``np.tensordot`` runs: a
        C-contiguous (pairs, rooms) copy of its G columns times the Q rows up
        to its room, flattened to (rooms, (r+1)(cap+1)).  The copy and the
        product go into one operand and one product buffer, sized once for
        the largest group, so memory is the G stack, D' and those two
        buffers.  A group of one state pair, the top room of a total-quanta
        basis, keeps ``np.tensordot``: it hands BLAS that pair as a strided
        row, and a contiguous row rounds differently.

        A per-mode basis still squares to one dim x dim block, so the
        dimension guard of :meth:`dense` holds here too.
        """
        _check_table_dim(self.basis.dim)
        tables = self.tables
        occ = self.basis.occupations
        # Lexicographic order runs the last mode fastest, so each prefix owns
        # the contiguous states from its last-mode occupation 0 up to its room.
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
        # One operand and one product buffer, sized for the largest group.
        n_rooms, n_prefix, width = len(groups), len(room), last.shape[0]
        pairs = [(hi - lo) * (n_prefix - lo) for _, lo, hi in groups]
        operand = np.empty(max(pairs) * n_rooms)
        product = np.empty(max(n * (r + 1) for n, (r, _, _) in zip(pairs, groups)) * width)
        diag = np.empty(self.basis.dim)
        offdiag = 0.0
        for i, (r, lo, hi) in enumerate(groups):
            # Rows of room r against every column of room >= r: by symmetry
            # this meets each unordered pair of states once.
            shape = (hi - lo, n_prefix - lo)
            if pairs[i] == 1:
                block = np.tensordot(g[:, lo:hi, lo:], q[:, : r + 1, :], axes=(0, 0))
            else:
                lhs = operand[: pairs[i] * n_rooms].reshape(*shape, n_rooms)
                np.copyto(lhs, g[:, lo:hi, lo:].transpose(1, 2, 0))
                block = product[: pairs[i] * (r + 1) * width].reshape(pairs[i], -1)
                np.dot(lhs.reshape(pairs[i], n_rooms), q[:, : r + 1, :].reshape(n_rooms, -1),
                       out=block)
                block = block.reshape(*shape, r + 1, width)
            v = np.arange(hi - lo)[:, None]  # axes (v, w, a, c)
            a = np.arange(r + 1)
            diag[starts[lo:hi, None] + a] = block[v, v, a, a]
            block[v, v, a, a] = 0.0
            # Padded last-mode occupations c > s of the columns of room s lie
            # outside the basis: zeroed by slice, they cannot raise the maximum.
            for s, s_lo, s_hi in groups[i:]:
                block[:, s_lo - lo: s_hi - lo, :, s + 1:] = 0.0
            offdiag = max(offdiag, float(np.max(block)), -float(np.min(block)))
        return diag, offdiag


# ---------------------------------------------------------------------------
# Independent oracle: contract the parity factor through the bare number basis.
# ---------------------------------------------------------------------------

NORM_DEFICIT_TOL = 1e-12


def _displaced_coeffs(n: int, q: float, cutoff: int) -> np.ndarray:
    """Bare-basis coefficients of the displaced number state |n>_A.

    Expands (a+ + q)**n / sqrt(n!) * exp(-q a+ - q**2/2) |0> by the binomial
    theorem and the exponential series; entry j is <j | n>_A.
    """
    if q == 0.0:
        out = np.zeros(cutoff + 1)
        if n <= cutoff:
            out[n] = 1.0
        return out
    logq = math.log(q)
    pref = -0.5 * q * q - 0.5 * _LGAMMA(n + 1)
    out = np.empty(cutoff + 1)
    for j in range(cutoff + 1):
        terms = []
        for i in range(min(j, n) + 1):
            mag = (
                pref
                + _LGAMMA(n + 1) - _LGAMMA(i + 1) - _LGAMMA(n - i + 1)  # log C(n, i)
                + (n - i) * logq + (j - i) * logq
                + 0.5 * _LGAMMA(j + 1) - _LGAMMA(j - i + 1)
            )
            terms.append((mag, -1.0 if (j - i) % 2 else 1.0))
        shift = max(t[0] for t in terms)
        acc = math.fsum(sign * math.exp(mag - shift) for mag, sign in terms)
        out[j] = math.exp(shift) * acc if acc != 0.0 else 0.0
    return out


def overlap_oracle(m, n, bath: BathModel, bare_cutoff: int) -> float:
    """Parity matrix element between displaced states via the bare basis.

    Fully independent of the L-formula route: the displaced states are
    expanded in the bare number basis from their defining expression, the
    bare parity signs (-1)**j are applied, and the expansions contracted.

    Raises
    ------
    ConvergenceError
        If any expansion norm falls short of 1 by more than 1e-12; carries
        the achieved deficit.
    """
    m = tuple(int(v) for v in m)
    n = tuple(int(v) for v in n)
    if len(m) != bath.n_modes or len(n) != bath.n_modes:
        raise ParameterError(
            f"occupation vectors of length {len(m)}/{len(n)} do not match "
            f"{bath.n_modes} bath modes"
        )
    for v in (*m, *n):
        _check_occupation(v)
    if bare_cutoff < 0:
        raise ParameterError(f"bare_cutoff must be >= 0, got {bare_cutoff}")
    parity = np.where(np.arange(bare_cutoff + 1) % 2, -1.0, 1.0)
    value = 1.0
    for mk, nk, q in zip(m, n, bath.qs):
        cm = _displaced_coeffs(mk, q, bare_cutoff)
        cn = _displaced_coeffs(nk, q, bare_cutoff)
        for occ, c in ((mk, cm), (nk, cn)):
            deficit = max(0.0, 1.0 - float(c @ c))
            if deficit > NORM_DEFICIT_TOL:
                raise ConvergenceError(
                    f"bare cutoff {bare_cutoff} leaves norm deficit {deficit:.3e} "
                    f"for displaced state n={occ}, q={q:.6g}",
                    deficit=deficit,
                )
        value *= float(np.sum(parity * cm * cn))
    return value
